//! Obs-enabled integration tests for `repro trace`: the determinism
//! law, the golden deterministic document, and the Perfetto export.
//!
//! Everything that records through `dd_obs` lives in this one test
//! binary: integration-test files are separate processes, and the
//! recording sink is process-global — sessions serialize on the global
//! session lock, so tests here can run concurrently without polluting
//! each other, but a second test *file* would race a different process's
//! view of nothing at all. The observed scenario is shared through a
//! `OnceLock` so the file costs two trace runs total (one shared, one
//! more for the determinism law's independent rerun).

use std::sync::OnceLock;

use dd_bench::report::Report;
use dd_bench::trace::{run_trace, TraceOutcome, TraceSummary, TRACE_SCHEMA_VERSION};
use dnn_defender::Json;

/// The shared observed run (smoke sizing, default workers).
fn traced() -> &'static TraceOutcome {
    static RUN: OnceLock<TraceOutcome> = OnceLock::new();
    RUN.get_or_init(|| run_trace(true, None).expect("trace scenario runs"))
}

/// The determinism law: two independent runs of the full observed
/// scenario — fresh matrix, fresh driver, fresh server, fresh threads —
/// produce byte-identical deterministic documents. Durations, thread
/// ids, and worker ids are excluded by construction; span/event
/// counts, counters, and histograms are all included.
#[test]
fn determinism_law_two_runs_agree_byte_for_byte() {
    let first = traced().summary.deterministic_document().render_pretty();
    let rerun = run_trace(true, None).expect("second trace scenario runs");
    let second = rerun.summary.deterministic_document().render_pretty();
    assert_eq!(
        first, second,
        "the deterministic trace section drifted between two identical runs — \
         some probe is recording a run-varying value into a deterministic aggregate"
    );
    // The rendered docs section is a function of the deterministic
    // document, so it must agree too.
    assert_eq!(
        traced().summary.render_markdown(),
        rerun.summary.render_markdown()
    );
}

/// The golden deterministic document: the quick-sized scenario's
/// deterministic section is pinned byte-for-byte (machine-independent —
/// the simulation, the scheduler's job set, and the server script are
/// all deterministic). Regenerate with `REGEN_GOLDEN=1 cargo test`.
#[test]
fn deterministic_document_matches_golden_file() {
    let document = traced().summary.deterministic_document().render_pretty();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/trace_summary.json"
        );
        std::fs::write(path, &document).expect("regen golden");
    }
    let expected = include_str!("golden/trace_summary.json");
    assert_eq!(
        document, expected,
        "TRACE_summary.json deterministic section drifted from \
         tests/golden/trace_summary.json — if the change is intentional \
         (new spans, resized scenario), bump TRACE_SCHEMA_VERSION if the shape \
         changed and regenerate with REGEN_GOLDEN=1"
    );
    // The golden document itself parses under the committed schema.
    let golden = Json::parse(expected).expect("golden parses");
    assert_eq!(golden.field_u64("schema_version"), Ok(TRACE_SCHEMA_VERSION));
    assert_eq!(golden.field_str("experiment"), Ok("trace"));
}

/// The snapshot covers every instrumented layer: per-chunk kernel spans,
/// matrix scheduling, DNN-Defender's profiling rounds, the executor, and
/// the server's five submit passes with regime/shed events.
#[test]
fn observed_scenario_covers_the_span_taxonomy() {
    let snap = &traced().snapshot;
    let count = |name: &str| snap.spans.iter().filter(|s| s.name == name).count();
    for name in [
        "chunk.issue",
        "chunk.decode",
        "chunk.observe",
        "matrix.cell_setup",
        "matrix.cell_attack",
        "matrix.victim_build",
        "matrix.prepare",
        "matrix.search",
        "matrix.warmup_solo",
        "attack.profile_round",
        "executor.job",
        "server.parse",
        "server.shed",
        "server.execute",
        "server.resolve",
        "server.respond",
    ] {
        assert!(count(name) > 0, "span `{name}` missing from the scenario");
    }
    // Regime transitions and shed decisions surface as events: the
    // scripted session goes calm (Alice) then storm (Carol, 3 sheds).
    let regimes: Vec<&str> = snap
        .events
        .iter()
        .filter(|e| e.name == "server.regime")
        .map(|e| e.label.as_str())
        .collect();
    assert_eq!(regimes.len(), 2, "one calm + one storm transition");
    assert!(regimes[0].starts_with("regime=calm"));
    assert!(regimes[1].starts_with("regime=storm"));
    assert_eq!(
        snap.events
            .iter()
            .filter(|e| e.name == "server.shed_cell")
            .count(),
        3,
        "Carol's storm sheds three cold cells"
    );
    // Deterministic counters/histograms landed.
    assert!(snap.counters.get("driver.ops").copied().unwrap_or(0) > 0);
    assert!(snap.hists.contains_key("chunk.ops"));
    assert_eq!(snap.dropped_spans, 0);
}

/// The Perfetto export is valid Chrome trace-event JSON carrying the
/// whole timeline: complete spans, instant events, and thread metadata.
#[test]
fn perfetto_export_parses_and_carries_the_timeline() {
    let outcome = traced();
    let doc = Json::parse(&outcome.perfetto).expect("Chrome trace JSON parses");
    assert_eq!(doc.field_str("displayTimeUnit"), Ok("ms"));
    let events = doc.field_arr("traceEvents").expect("traceEvents");
    assert_eq!(
        events
            .iter()
            .filter(|e| e.field_str("ph") == Ok("X"))
            .count(),
        outcome.snapshot.spans.len(),
        "every span becomes one complete event"
    );
    assert_eq!(
        events
            .iter()
            .filter(|e| e.field_str("ph") == Ok("i"))
            .count(),
        outcome.snapshot.events.len(),
        "every event becomes one instant"
    );
    // Thread metadata names each recorder lane.
    assert!(events
        .iter()
        .any(|e| e.field_str("ph") == Ok("M") && e.field_str("name") == Ok("thread_name")));
    // Spot-check one span of each layer by name.
    for name in [
        "chunk.issue",
        "matrix.cell_setup",
        "server.parse",
        "executor.job",
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.field_str("ph") == Ok("X") && e.field_str("name") == Ok(name)),
            "span `{name}` missing from the timeline"
        );
    }
    // Durations are microseconds with sub-microsecond precision intact:
    // every complete event carries numeric ts/dur.
    for e in events.iter().filter(|e| e.field_str("ph") == Ok("X")) {
        assert!(e.field_f64("ts").is_ok() && e.field_f64("dur").is_ok());
    }
}

/// Satellite: the executor utilization summary (jobs, queue delay,
/// per-worker busy fractions) reaches the timing section through
/// the server's stats reply, wired from the same `JobRun` records the
/// scheduler already returns.
#[test]
fn executor_summary_lands_in_the_timing_section() {
    let summary = &traced().summary;
    let stats = summary
        .timing
        .field("server_stats")
        .and_then(|s| s.field("stats"))
        .expect("server stats in timing");
    let executor = stats.field("executor").expect("executor summary");
    // Alice's 4 computed cells + Carol's 1 surviving cold cell.
    assert_eq!(executor.field_u64("jobs"), Ok(5));
    let workers = executor.field_arr("workers").expect("per-worker rows");
    assert_eq!(workers.len(), 2, "default trace run pins 2 workers");
    for w in workers {
        let busy = w.field_f64("busy_fraction").expect("busy fraction");
        assert!((0.0..=1.0).contains(&busy));
    }
    // Shed/refund accounting per regime: Carol's 3 sheds in the storm.
    let shed = stats.field("shed_by_regime").expect("shed by regime");
    assert_eq!(shed.field_u64("storm"), Ok(3));
    let refunded = stats
        .field("refunded_micros_by_regime")
        .expect("refunds by regime");
    assert!(refunded.field_u64("storm").expect("storm refunds") > 0);
    // Wall/queue histograms recorded one sample per executed job.
    let hists = stats.field("histograms").expect("server histograms");
    assert_eq!(
        hists
            .field("wall_micros")
            .and_then(|h| h.field_u64("count")),
        Ok(5)
    );
}

/// The full summary round-trips through its disk format, and a parsed
/// copy renders the identical docs section (`repro report --check`'s
/// idempotence property).
#[test]
fn summary_disk_format_round_trips() {
    let summary = &traced().summary;
    let text = summary.to_json().render_pretty();
    let back = TraceSummary::parse(&text).expect("parse back");
    assert_eq!(&back, summary);
    assert_eq!(back.to_json().render_pretty(), text);
    assert_eq!(back.render_markdown(), summary.render_markdown());
    let md = summary.render_markdown();
    for needle in ["`chunk.issue`", "`matrix.cell_setup`", "`server.parse`"] {
        assert!(md.contains(needle), "docs section missing {needle}");
    }
}
