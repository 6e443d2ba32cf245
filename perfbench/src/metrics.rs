//! The metric tables: every workload reports every end-to-end metric from
//! its untraced run and every per-layer metric from its traced run (0 for
//! a layer the workload does not reach), under the names and units
//! `BENCHMARK.json` declares.

use crate::harness::Metric;

/// `(name, unit)` of the end-to-end metrics, in report order. Times are
/// in reference-host seconds (`harness::host_scale`).
pub const END_TO_END: [(&str, &str); 4] = [
    // Median time of one timed round (a fixed amount of work).
    ("wall_s", "s"),
    // Median time of one set-up: inputs from the seed plus the program's
    // set-up calls, before the first timed call.
    ("setup_s", "s"),
    // Peak resident set of the process (VmHWM).
    ("peak_rss_mb", "MiB"),
    // Computed (never cached) cells per second: matrix cells,
    // defense-days, or the service's never-seen cells in its cold phase.
    ("cells_per_s", "1/s"),
];

/// `(name, unit)` of the per-layer metrics, in report order.
pub const PER_LAYER: [(&str, &str); 39] = [
    // The traced pass: one round plus the direct layer calls.
    ("traced_wall_s", "s"),
    // The traced round alone: minus the untraced `wall_s` median, the
    // tracing overhead.
    ("traced_round_s", "s"),
    // Reference-host seconds per host second during the traced pass
    // (`harness::calibrate`): traced times are host seconds, so scale
    // them by this to compare with the end-to-end metrics.
    ("host_scale", "ratio"),
    // `traced_wall_s` minus the additive layer times.
    ("other_s", "s"),
    ("dropped_spans", "count"),
    ("nn.victim_build_s", "s"),
    ("qnn.quantize_ms", "ms"),
    ("qnn.forward_ms", "ms"),
    ("qnn.grads_ms", "ms"),
    ("attack.bfa_s", "s"),
    ("attack.step_ms", "ms"),
    ("defense.deploy_s", "s"),
    ("defense.observe_s", "s"),
    ("defense.false_ops", "count"),
    ("matrix.cell_setup_s", "s"),
    ("matrix.warmup_s", "s"),
    ("matrix.cell_attack_s", "s"),
    ("dram.issue_s", "s"),
    ("dram.chunks", "count"),
    ("dram.ops_per_chunk", "ops"),
    ("dram.sim_cmds", "count"),
    ("workload.run_s", "s"),
    ("workload.decode_s", "s"),
    ("workload.driver_self_s", "s"),
    ("workload.gen_s", "s"),
    ("workload.ops", "count"),
    ("server.cold.admit_ms", "ms"),
    ("server.cold.execute_ms", "ms"),
    ("server.cold.complete_ms", "ms"),
    ("server.warm.admit_ms", "ms"),
    ("server.warm.execute_ms", "ms"),
    ("server.warm.complete_ms", "ms"),
    ("server.queue_ms", "ms"),
    ("server.busy_frac", "ratio"),
    ("server.hit_ratio", "ratio"),
    ("server.cold_p50_ms", "ms"),
    ("server.cold_p90_ms", "ms"),
    ("server.warm_p50_ms", "ms"),
    ("server.warm_p90_ms", "ms"),
];

/// Per-layer values keyed by name; unset metrics report 0.
#[derive(Debug, Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "`{name}` is not a declared per-layer metric"
        );
        self.0.retain(|&(n, _)| n != name);
        self.0.push((name, value));
    }

    /// Every declared per-layer metric, in table order.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .0
                    .iter()
                    .find(|&&(n, _)| n == name)
                    .map_or(0.0, |&(_, v)| v);
                Metric::new(name, value, unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
    /// starting with a letter or digit.
    pub fn valid_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(n, _)| n)
            .collect();
        for name in &names {
            assert!(valid_name(name), "illegal metric name `{name}`");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate metric name");
        assert!(!valid_name("bad name") && !valid_name(".dot") && !valid_name(""));
    }

    #[test]
    fn unset_layers_report_zero_in_table_order() {
        let mut layers = Layers::default();
        layers.set("dram.chunks", 7.0);
        layers.set("dram.chunks", 9.0);
        let metrics = layers.into_metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics[0].name, "traced_wall_s");
        let chunks = metrics.iter().find(|m| m.name == "dram.chunks").unwrap();
        assert_eq!(chunks.value, 9.0);
        assert!(metrics
            .iter()
            .filter(|m| m.name != "dram.chunks")
            .all(|m| m.value == 0.0));
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = dnn_defender::Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = json
                .field_arr(key)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.field_str("name").expect("name").to_string(),
                        m.field_str("unit").expect("unit").to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} in BENCHMARK.json");
        }
    }
}
