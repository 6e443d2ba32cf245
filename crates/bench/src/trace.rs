//! `repro trace` — one observed smoke run across every instrumented layer.
//!
//! Runs a real slice of the reproduction under an exclusive
//! [`dd_obs`] recording session — a small scenario matrix (empty cache,
//! so the per-cell spans actually fire), one solo workload-driver run
//! (the untapped per-chunk decode path), and a scripted sweep-server
//! session that crosses into the storm regime — then exports the
//! snapshot two ways:
//!
//! * `artifacts/TRACE_perfetto.json` — Chrome trace-event JSON, loadable
//!   at <https://ui.perfetto.dev> (timings, thread lanes, labels);
//! * `artifacts/TRACE_summary.json` — a [`TraceSummary`]: a
//!   `deterministic` section (span/event counts, counters, log2
//!   histograms — byte-identical across runs and machines; the
//!   determinism law in `tests/trace_obs.rs` enforces it) and a `timing`
//!   section (durations, executor utilization, server histograms —
//!   machine-dependent, never compared).
//!
//! The markdown rendered into EXPERIMENTS.md comes from the
//! deterministic section only, so `repro report --check` stays a
//! machine-independent drift gate. See `docs/observability.md`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use dd_attack::AttackConfig;
use dd_baselines::{DefenseKind, ScenarioMatrix, VictimSpec};
use dd_dram::DramError;
use dd_obs::{chrome_trace_json, Snapshot};
use dd_server::{hist_to_json, CellSpec, ServerConfig, SweepBase, SweepServer};
use dd_workload::BackgroundLoad;
use dnn_defender::Json;

use crate::experiments::{
    server_cost_model, server_roundtrip, server_script, server_submit, workload_run, WorkloadParams,
};

/// Schema version of `TRACE_summary.json`. Bump on any incompatible
/// change to the summary's shape (the golden test then regenerates).
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// The `TRACE_summary.json` payload: schema header plus the
/// deterministic and timing sections described in the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Schema version ([`TRACE_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Always `"trace"` (the docs-splice marker label).
    pub experiment: String,
    /// Whether the run used smoke sizing.
    pub quick: bool,
    /// Run- and machine-independent aggregates: span counts by name,
    /// event counts by `(name, label)`, counters, log2 histograms, and
    /// the ring-overflow drop count (always 0 for a healthy run).
    pub deterministic: Json,
    /// Machine-dependent measurements: wall time, per-span-name total
    /// nanoseconds, and the server's stats reply (executor utilization,
    /// queue/wall histograms, ledgers).
    pub timing: Json,
}

impl TraceSummary {
    /// Serialize the full summary (deterministic + timing).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("schema_version", Json::uint(self.schema_version))
            .with("experiment", Json::str(&self.experiment))
            .with("quick", Json::Bool(self.quick))
            .with("deterministic", self.deterministic.clone())
            .with("timing", self.timing.clone())
    }

    /// The machine-independent subset: everything except `timing`. This
    /// is what the golden file under `tests/golden/` pins and what the
    /// determinism law compares byte-for-byte.
    pub fn deterministic_document(&self) -> Json {
        Json::obj()
            .with("schema_version", Json::uint(self.schema_version))
            .with("experiment", Json::str(&self.experiment))
            .with("quick", Json::Bool(self.quick))
            .with("deterministic", self.deterministic.clone())
    }

    /// Parse a `TRACE_summary.json` document.
    ///
    /// # Errors
    ///
    /// Returns a [`dnn_defender::JsonError`] on malformed JSON, a
    /// missing field, or an unsupported schema version.
    pub fn parse(text: &str) -> Result<TraceSummary, dnn_defender::JsonError> {
        let json = Json::parse(text)?;
        let schema_version = json.field_u64("schema_version")?;
        if schema_version != TRACE_SCHEMA_VERSION {
            return Err(dnn_defender::JsonError {
                message: format!(
                    "unsupported TRACE_summary schema v{schema_version} \
                     (this build reads v{TRACE_SCHEMA_VERSION})"
                ),
            });
        }
        Ok(TraceSummary {
            schema_version,
            experiment: json.field_str("experiment")?.to_string(),
            quick: json.field_bool("quick")?,
            deterministic: json.field("deterministic")?.clone(),
            timing: json.field("timing")?.clone(),
        })
    }

    /// Render the EXPERIMENTS.md section body — deterministic data only,
    /// so the spliced docs never depend on the machine that ran the
    /// trace.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "_Generated by `repro trace` from `artifacts/TRACE_summary.json` — do not edit. \
             Deterministic aggregates only; timings live in the artifact's `timing` section \
             and the Perfetto timeline (`artifacts/TRACE_perfetto.json`, load at \
             <https://ui.perfetto.dev>). See `docs/observability.md` for the span taxonomy._\n\n",
        );

        let table = |out: &mut String, headers: &[&str], rows: &[Vec<String>]| {
            out.push('|');
            for h in headers {
                out.push_str(&format!(" {h} |"));
            }
            out.push_str("\n|");
            for _ in headers {
                out.push_str("---|");
            }
            out.push('\n');
            for row in rows {
                out.push('|');
                for cell in row {
                    out.push_str(&format!(" {cell} |"));
                }
                out.push('\n');
            }
            out.push('\n');
        };

        let obj_rows = |value: Option<&Json>| -> Vec<Vec<String>> {
            match value {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .map(|(k, v)| {
                        vec![
                            format!("`{k}`"),
                            v.as_u64()
                                .map_or_else(|| v.render_compact(), |n| n.to_string()),
                        ]
                    })
                    .collect(),
                _ => Vec::new(),
            }
        };

        out.push_str("**Spans** (count per name, all threads merged):\n\n");
        table(
            &mut out,
            &["Span", "Count"],
            &obj_rows(self.deterministic.get("span_counts")),
        );

        out.push_str("**Counters:**\n\n");
        table(
            &mut out,
            &["Counter", "Value"],
            &obj_rows(self.deterministic.get("counters")),
        );

        out.push_str("**Events** (count per name + label):\n\n");
        let event_rows: Vec<Vec<String>> = self
            .deterministic
            .get("event_counts")
            .and_then(|v| match v {
                Json::Arr(items) => Some(items.as_slice()),
                _ => None,
            })
            .unwrap_or(&[])
            .iter()
            .map(|e| {
                vec![
                    format!("`{}`", e.field_str("name").unwrap_or("?")),
                    format!("`{}`", e.field_str("label").unwrap_or("?")),
                    e.field_u64("count").unwrap_or(0).to_string(),
                ]
            })
            .collect();
        table(&mut out, &["Event", "Label", "Count"], &event_rows);

        out.push_str("**Histograms** (log2 buckets; see `docs/observability.md`):\n\n");
        let hist_rows: Vec<Vec<String>> = match self.deterministic.get("hists") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(name, h)| {
                    vec![
                        format!("`{name}`"),
                        h.field_u64("count").unwrap_or(0).to_string(),
                        h.field_u64("sum").unwrap_or(0).to_string(),
                        h.field_u64("max").unwrap_or(0).to_string(),
                    ]
                })
                .collect(),
            _ => Vec::new(),
        };
        table(
            &mut out,
            &["Histogram", "Samples", "Sum", "Max"],
            &hist_rows,
        );

        let dropped = self
            .deterministic
            .get("dropped_spans")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        out.push_str(&format!(
            "Spans lost to ring-buffer overflow: **{dropped}** (a healthy run records \
             everything).\n"
        ));
        out
    }
}

/// Everything `repro trace` produces from one observed run.
pub struct TraceOutcome {
    /// The summary artifact (`TRACE_summary.json`).
    pub summary: TraceSummary,
    /// The Chrome trace-event JSON document (`TRACE_perfetto.json`).
    pub perfetto: String,
    /// The raw snapshot, for tests that want to assert on records.
    pub snapshot: Snapshot,
}

/// The matrix slice the trace observes: two untapped defenses and
/// DNN-Defender (whose online tap makes the driver flush every op),
/// each with and without background load, so both driver flush
/// policies run — sized well below the span ring capacity.
fn trace_matrix(quick: bool) -> ScenarioMatrix {
    let attack = AttackConfig {
        target_accuracy: 0.3,
        max_flips: 40,
        ..Default::default()
    };
    ScenarioMatrix::new(VictimSpec::tiny_mlp(2024))
        .attack_config(attack)
        .budget(if quick { 2 } else { 6 })
        .seed(2024)
        .background(BackgroundLoad::None)
        .background(BackgroundLoad::Light)
        .defense_kind(DefenseKind::Undefended)
        .defense_kind(DefenseKind::Rrs)
        .defense_kind(DefenseKind::DnnDefender)
        .threads(2)
}

/// Run the observed smoke scenario and build both exports.
///
/// Takes the exclusive [`dd_obs::session`] lock for the duration, so
/// concurrent callers (tests) serialize instead of polluting each
/// other's snapshots. `jobs` caps the server's executor workers
/// (default 2 — worker count only affects the timing section).
///
/// # Errors
///
/// Returns a [`DramError`] when a matrix cell or driver run fails.
pub fn run_trace(quick: bool, jobs: Option<usize>) -> Result<TraceOutcome, DramError> {
    let started = Instant::now();
    let session = dd_obs::session();

    // (A) Matrix slice with an empty cache: per-cell setup/attack spans,
    // warmups, and the batched-kernel chunk spans.
    let matrix = trace_matrix(quick);
    let (_report, matrix_summary) = matrix.run_with_cache(&HashMap::new(), None)?;
    assert_eq!(matrix_summary.cache_hits, 0, "trace matrix must execute");

    // (B) One driver run with an untapped defense, outside any matrix:
    // the per-chunk decode span on the plain batched path.
    let driver = workload_run(
        BackgroundLoad::Light,
        DefenseKind::Undefended,
        &WorkloadParams::new(quick),
    )?;
    assert!(driver.commands > 0, "driver run must issue commands");

    // (C) Scripted server session: Alice's calm cold batch, then Carol's
    // storm (warm riders + shed cold cells) — the 5-pass submit spans,
    // regime-transition and shed events, and executor job spans.
    let script = server_script();
    let cost = server_cost_model();
    let base = SweepBase::standard(quick);
    let price =
        |spec: &CellSpec| cost.price_micros(base.estimated_commands(spec), spec.device.rows());
    let capacity_micros = price(&script.carol[4]);
    let mut config = ServerConfig::standard(quick);
    config.workers = jobs.unwrap_or(2);
    config.capacity_micros = capacity_micros;
    let mut server = SweepServer::new(config, cost);
    let alice = server_submit(&mut server, "alice", &script.alice);
    assert_eq!(alice.field_str("regime"), Ok("calm"), "alice stays calm");
    let carol = server_submit(&mut server, "carol", &script.carol);
    assert_eq!(carol.field_str("regime"), Ok("storm"), "carol must storm");
    let stats = server_roundtrip(&mut server, &Json::obj().with("op", Json::str("stats")));

    let snapshot = session.finish();
    let wall_millis = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    assert_eq!(
        snapshot.dropped_spans, 0,
        "trace scenario overflowed the span ring — shrink it or raise SPAN_RING_CAPACITY"
    );

    let perfetto = chrome_trace_json(&snapshot, "repro trace");
    let summary = TraceSummary {
        schema_version: TRACE_SCHEMA_VERSION,
        experiment: "trace".to_string(),
        quick,
        deterministic: deterministic_json(&snapshot),
        timing: timing_json(&snapshot, wall_millis, stats),
    };
    Ok(TraceOutcome {
        summary,
        perfetto,
        snapshot,
    })
}

/// The deterministic aggregates: span counts by *name only* (executor
/// labels carry run-varying worker ids), event counts by
/// `(name, label)` (server events label only deterministic estimates),
/// every counter and histogram (the instrumentation layer only records
/// deterministic values into those), and the drop count.
fn deterministic_json(snap: &Snapshot) -> Json {
    let mut by_name: BTreeMap<String, u64> = BTreeMap::new();
    for ((name, _label), count) in snap.span_counts() {
        *by_name.entry(name).or_insert(0) += count;
    }
    let mut span_counts = Json::obj();
    for (name, count) in &by_name {
        span_counts = span_counts.with(name.clone(), Json::uint(*count));
    }
    let mut events = Vec::new();
    for ((name, label), count) in snap.event_counts() {
        events.push(
            Json::obj()
                .with("name", Json::str(name))
                .with("label", Json::str(label))
                .with("count", Json::uint(count)),
        );
    }
    let mut counters = Json::obj();
    for (name, value) in &snap.counters {
        counters = counters.with(*name, Json::uint(*value));
    }
    let mut hists = Json::obj();
    for (name, hist) in &snap.hists {
        hists = hists.with(*name, hist_to_json(hist));
    }
    Json::obj()
        .with("span_counts", span_counts)
        .with("event_counts", Json::Arr(events))
        .with("counters", counters)
        .with("hists", hists)
        .with("dropped_spans", Json::uint(snap.dropped_spans))
}

/// The machine-dependent half: wall time, total nanoseconds per span
/// name, recorder-thread count, and the server's full stats reply
/// (executor utilization, queue/wall histograms, ledgers).
fn timing_json(snap: &Snapshot, wall_millis: u64, server_stats: Json) -> Json {
    let names: BTreeSet<&str> = snap.spans.iter().map(|s| s.name).collect();
    let mut totals = Json::obj();
    for name in names {
        totals = totals.with(name, Json::uint(snap.span_total_ns(name)));
    }
    let threads: BTreeSet<u64> = snap.spans.iter().map(|s| s.tid).collect();
    Json::obj()
        .with("wall_millis", Json::uint(wall_millis))
        .with("recorder_threads", Json::uint(threads.len() as u64))
        .with("span_total_ns", totals)
        .with("server_stats", server_stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary() -> TraceSummary {
        TraceSummary {
            schema_version: TRACE_SCHEMA_VERSION,
            experiment: "trace".into(),
            quick: true,
            deterministic: Json::obj()
                .with(
                    "span_counts",
                    Json::obj().with("chunk.issue", Json::uint(42)),
                )
                .with(
                    "event_counts",
                    Json::Arr(vec![Json::obj()
                        .with("name", Json::str("server.regime"))
                        .with("label", Json::str("regime=storm backlog_micros=9"))
                        .with("count", Json::uint(1))]),
                )
                .with("counters", Json::obj().with("driver.ops", Json::uint(7)))
                .with(
                    "hists",
                    Json::obj().with(
                        "chunk.ops",
                        Json::obj()
                            .with("count", Json::uint(1))
                            .with("sum", Json::uint(512))
                            .with("max", Json::uint(512))
                            .with("buckets", Json::Arr(Vec::new())),
                    ),
                )
                .with("dropped_spans", Json::uint(0)),
            timing: Json::obj().with("wall_millis", Json::uint(3)),
        }
    }

    #[test]
    fn trace_summary_round_trips_and_stays_byte_stable() {
        let summary = sample_summary();
        let text = summary.to_json().render_pretty();
        let back = TraceSummary::parse(&text).expect("parse back");
        assert_eq!(back, summary);
        assert_eq!(back.to_json().render_pretty(), text);
    }

    #[test]
    fn parse_rejects_foreign_schema() {
        let mut bad = sample_summary().to_json();
        let Json::Obj(fields) = &mut bad else {
            unreachable!()
        };
        fields[0].1 = Json::uint(99);
        assert!(TraceSummary::parse(&bad.render_pretty()).is_err());
    }

    #[test]
    fn markdown_renders_deterministic_tables_only() {
        let md = sample_summary().render_markdown();
        assert!(md.contains("| `chunk.issue` | 42 |"));
        assert!(md.contains("| `driver.ops` | 7 |"));
        assert!(md.contains("`server.regime`"));
        assert!(md.contains("| `chunk.ops` | 1 | 512 | 512 |"));
        // No timing leakage: the markdown must be machine-independent.
        assert!(!md.contains("wall_millis"));
    }

    #[test]
    fn deterministic_document_excludes_timing() {
        let doc = sample_summary().deterministic_document().render_pretty();
        assert!(doc.contains("span_counts"));
        assert!(!doc.contains("timing"));
        assert!(!doc.contains("wall_millis"));
    }
}
