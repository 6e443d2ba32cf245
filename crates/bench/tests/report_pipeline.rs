//! Integration tests for the `repro` artifact pipeline: the markdown
//! renderer (golden file), the artifact JSON schema (round trip), and
//! the content-addressed cache keys (stability across runs).

use std::collections::HashMap;

use dd_baselines::{CellReport, MatrixRunSummary};
use dd_bench::chaos::ChaosCampaignReport;
use dd_bench::corpus::CorpusReport;
use dd_bench::experiments::{table3_matrix, ExperimentId, RunContext};
use dd_bench::kernel::{
    KernelBench, PathMeasure, Spread, CHAOS_OVERHEAD_CEILING_PCT, KERNEL_BENCH_SCHEMA_VERSION,
    KERNEL_SPEEDUP_FLOOR, OBS_OVERHEAD_CEILING_PCT, STREAMING_RATIO_FLOOR,
};
use dd_bench::report::{splice_section, Artifact, Report, TableArtifact};
use dd_bench::trace::TraceSummary;
use dnn_defender::Json;

/// The fixed artifact behind the golden render — every formatting
/// feature in one place: multiple tables, pipe escaping, notes, and the
/// full metadata footer.
fn golden_artifact() -> Artifact {
    Artifact {
        experiment: "table3".into(),
        title: "Table 3: BFA defense comparison (scenario matrix)".into(),
        config_hash: 0x06c2_0821_dbac_2fe6,
        seed: 333,
        quick: true,
        wall_millis: 50_100,
        cache: MatrixRunSummary {
            cells: 9,
            cache_hits: 4,
        },
        tables: vec![
            TableArtifact::new(
                "Table 3: BFA defense comparison (ResNet-20, CIFAR-10 stand-in)",
                &["Defense", "Clean acc", "Post-attack acc"],
                vec![
                    vec![
                        "Baseline (undefended)".into(),
                        "91.41%".into(),
                        "10.16%".into(),
                    ],
                    vec!["DNN-Defender".into(), "91.41%".into(), "91.41%".into()],
                ],
            ),
            TableArtifact::new(
                "Fig. 8 (analytical): time-to-break and capacity per T_RH",
                &["T_RH", "DD days", "SHADOW | RRS days"],
                vec![vec!["4000".into(), "1180".into(), "895 | 620".into()]],
            ),
        ],
        notes: vec![
            "Shape check: the baseline collapses; DNN-Defender holds clean accuracy.".into(),
        ],
        raw: None,
    }
}

#[test]
fn markdown_render_matches_golden_file() {
    let expected = include_str!("golden/table3_section.md");
    assert_eq!(
        golden_artifact().render_markdown(),
        expected,
        "renderer output drifted from tests/golden/table3_section.md — \
         if the change is intentional, update the golden file"
    );
}

#[test]
fn artifact_json_round_trips_with_raw_payload() {
    let mut artifact = golden_artifact();
    artifact.raw = Some(
        Json::obj()
            .with("matrix", Json::obj().with("cells", Json::Arr(vec![])))
            .with("anchor", Json::num(4.425)),
    );
    let text = artifact.to_json().render_pretty();
    let back = Artifact::parse(&text).expect("parse back");
    assert_eq!(back, artifact);
    // Rendering the decoded artifact is byte-identical: the docs cannot
    // drift between a write and a later `repro report`.
    assert_eq!(back.render_markdown(), artifact.render_markdown());
    assert_eq!(back.to_json().render_pretty(), text);
}

/// Every kind of committed report parses under the current schema and
/// refuses the same document stamped with another schema version: the
/// one schema check all five share.
#[test]
fn parse_rejects_foreign_schema() {
    fn check<R: Report>(name: &str) {
        let file = R::file_name(name);
        let path = format!("{}/../../artifacts/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).expect("committed report exists");
        assert!(R::parse(&text).is_ok(), "{file} parses");
        let mut json = Json::parse(&text).expect("committed report is JSON");
        let Json::Obj(fields) = &mut json else {
            panic!("{file} is not an object")
        };
        assert_eq!(fields[0].0, "schema_version", "{file}");
        fields[0].1 = Json::uint(R::SCHEMA_VERSION + 1);
        let Err(err) = R::parse(&json.render_pretty()) else {
            panic!("{file}: a foreign schema version parsed")
        };
        let expected = format!(
            "unsupported {} schema v{} (expected v{})",
            R::SCHEMA_NAME,
            R::SCHEMA_VERSION + 1,
            R::SCHEMA_VERSION
        );
        assert_eq!(err.message, expected, "{file}");
    }
    check::<Artifact>("table3");
    check::<TraceSummary>("trace");
    check::<ChaosCampaignReport>("chaos");
    check::<CorpusReport>("corpus");
    check::<KernelBench>("kernel");
}

#[test]
fn experiment_config_hashes_and_cell_keys_are_stable_across_runs() {
    for id in ExperimentId::ALL {
        assert_eq!(id.config_hash(false), id.config_hash(false));
        assert_eq!(id.config_hash(true), id.config_hash(true));
    }
    // The table3 matrix, rebuilt from scratch, reproduces both the
    // matrix-level hash and every per-cell cache key.
    let (a, b) = (table3_matrix(true), table3_matrix(true));
    assert_eq!(a.config_hash(), b.config_hash());
    assert_eq!(a.cell_keys(), b.cell_keys());
    // Quick/full scaling keys differently, cell by cell.
    let full = table3_matrix(false);
    assert_ne!(a.config_hash(), full.config_hash());
    for ((sa, ka), (sf, kf)) in a.cell_keys().iter().zip(full.cell_keys()) {
        assert_eq!(sa.defense, sf.defense);
        assert_ne!(*ka, kf);
    }
}

/// The fixed `BENCH_kernel.json` behind the golden render: every schema
/// field exercised once.
fn golden_kernel_bench() -> KernelBench {
    KernelBench {
        quick: true,
        trace_ops: 120_000,
        batch_factor: 16,
        seed: 20240606,
        reference: PathMeasure {
            wall_millis: 250,
            commands: 3_960_000,
            commands_per_sec: 15_840_000.0,
        },
        batch: PathMeasure {
            wall_millis: 50,
            commands: 3_960_000,
            commands_per_sec: 79_200_000.0,
        },
        speedup: 5.5,
        floor: KERNEL_SPEEDUP_FLOOR,
        streaming: PathMeasure {
            wall_millis: 55,
            commands: 3_960_000,
            commands_per_sec: 72_000_000.0,
        },
        streaming_ratio: 0.91,
        streaming_floor: STREAMING_RATIO_FLOOR,
        obs_overhead_batch_pct: 0.4,
        obs_overhead_ceiling_pct: OBS_OVERHEAD_CEILING_PCT,
        obs_spread: Spread::default(),
        chaos_overhead_batch_pct: 0.2,
        chaos_overhead_ceiling_pct: CHAOS_OVERHEAD_CEILING_PCT,
        chaos_spread: Spread::default(),
    }
}

#[test]
fn kernel_bench_render_matches_golden_file() {
    let bench = golden_kernel_bench();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/bench_kernel.json"
        );
        std::fs::write(path, bench.to_json().render_pretty()).expect("regen golden");
    }
    let expected = include_str!("golden/bench_kernel.json");
    assert_eq!(
        bench.to_json().render_pretty(),
        expected,
        "BENCH_kernel.json schema drifted from tests/golden/bench_kernel.json — \
         if the change is intentional, bump KERNEL_BENCH_SCHEMA_VERSION and update the golden"
    );
    // The golden file itself round-trips through the hand-rolled JSON
    // tree back to the same struct and the same bytes.
    let parsed = KernelBench::parse(expected).expect("golden parses");
    assert_eq!(parsed, bench);
    assert_eq!(parsed.to_json().render_pretty(), expected);
}

#[test]
fn committed_kernel_bench_is_a_valid_baseline() {
    // The committed perf baseline must parse under the current schema,
    // satisfy its own regression floor, and hit the tentpole's >= 3x
    // target on the counters-only replay path.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../artifacts/BENCH_kernel.json"
    );
    let text = std::fs::read_to_string(path).expect("committed BENCH_kernel.json exists");
    let bench = KernelBench::parse(&text).expect("committed baseline parses");
    let json = Json::parse(&text).expect("committed baseline is JSON");
    assert_eq!(
        json.field_u64("schema_version"),
        Ok(KERNEL_BENCH_SCHEMA_VERSION)
    );
    assert_eq!(json.field_str("experiment"), Ok("kernel"));
    assert!(bench.floor >= 1.0, "floor must gate a real speedup");
    assert!(
        bench.speedup >= bench.floor,
        "committed baseline violates its own floor"
    );
    assert!(
        bench.speedup >= 3.0,
        "committed baseline lost the 3x target: {}",
        bench.speedup
    );
    assert_eq!(
        bench.reference.commands, bench.batch.commands,
        "both paths must replay the identical trace"
    );
    // The streaming-replay gate: the committed baseline carries its own
    // floor and satisfies it — chunked decode stays close to the
    // decoded-in-RAM path.
    assert!(
        bench.streaming_floor > 0.0,
        "streaming floor must gate something"
    );
    assert!(
        bench.streaming_ratio >= bench.streaming_floor,
        "committed baseline violates its own streaming floor: {} < {}",
        bench.streaming_ratio,
        bench.streaming_floor
    );
    assert_eq!(
        bench.streaming.commands, bench.batch.commands,
        "streaming replays the identical trace off its v2 container"
    );
    // The dd-obs overhead gate: the committed baseline carries its own
    // ceiling and satisfies it on the batched path.
    assert!(
        bench.obs_overhead_ceiling_pct > 0.0,
        "overhead ceiling must gate something"
    );
    assert!(
        bench.obs_overhead_batch_pct <= bench.obs_overhead_ceiling_pct,
        "committed baseline violates its own obs-overhead ceiling on the batch path: \
         {} > {}",
        bench.obs_overhead_batch_pct,
        bench.obs_overhead_ceiling_pct
    );
    // Cold/warm byte stability: rerunning `repro kernel` rewrites the
    // file through this exact renderer, so parse -> render must
    // reproduce the committed bytes (the `--check` property).
    assert_eq!(bench.to_json().render_pretty(), text);
}

#[test]
fn analytical_artifact_feeds_the_docs_splice() {
    let mut cells: HashMap<u64, CellReport> = HashMap::new();
    let mut ctx = RunContext {
        quick: false,
        jobs: Some(1),
        cells: &mut cells,
        verbose: false,
    };
    let artifact = ExperimentId::Fig8a.run(&mut ctx).expect("fig8a");
    let body = artifact.render_markdown();
    assert!(
        body.contains("| 4k | 1180 | 895 |"),
        "anchor row missing:\n{body}"
    );

    let doc = "# EXPERIMENTS\n\n<!-- repro:begin fig8a -->\nstale\n<!-- repro:end fig8a -->\n";
    let spliced = splice_section(doc, "fig8a", &body).expect("splice");
    assert!(spliced.contains("| 4k | 1180 | 895 |"));
    assert!(!spliced.contains("stale"));
    // Idempotent: a second report pass is byte-identical.
    assert_eq!(
        splice_section(&spliced, "fig8a", &body).expect("resplice"),
        spliced
    );
}

#[test]
fn committed_trace_summary_records_the_current_server_protocol() {
    // `repro report --check` fails on a trace whose server `stats` reply
    // came from another wire protocol; the committed one must pass.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../artifacts/TRACE_summary.json"
    );
    let text = std::fs::read_to_string(path).expect("committed TRACE_summary.json exists");
    let summary = dd_bench::trace::TraceSummary::parse(&text).expect("trace summary parses");
    assert_eq!(
        summary.server_protocol(),
        Some(dd_server::SERVER_PROTOCOL_VERSION)
    );
}
