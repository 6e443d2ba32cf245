//! Integration test for the `repro corpus` campaign: the smoke-sized
//! fleet-day sweep must complete with every invariant held — above all
//! the streaming-vs-materialized bit-identity across the whole defense
//! roster — and its report must survive the JSON round trip that the
//! EXPERIMENTS.md `--check` gate depends on.

use dd_baselines::DefenseKind;
use dd_bench::corpus::{run_corpus_campaign, CorpusReport, CORPUS_REPORT_SCHEMA_VERSION};
use dd_bench::report::Report;
use dnn_defender::Json;

#[test]
fn smoke_campaign_holds_every_invariant() {
    let report = run_corpus_campaign(true).expect("harness");
    assert!(
        report.all_pass(),
        "corpus invariants failed: {:?}",
        report.failed_invariants()
    );
    assert!(report.smoke);
    assert_eq!(report.to_json().field_str("experiment"), Ok("corpus"));
    assert_eq!(report.phases.len(), 6, "the fleet day has six phases");
    assert_eq!(
        report.defenses.len(),
        DefenseKind::TABLE3.len(),
        "every defense in the roster gets a row"
    );
    for d in &report.defenses {
        assert!(
            d.streaming_identical,
            "{} diverged under streaming",
            d.defense
        );
        assert!(d.benign_ops > 0, "{} ran no traffic", d.defense);
        assert!(d.commands > 0, "{} issued no commands", d.defense);
    }
    // The trace plane: delta chunks actually compress, and the chunk
    // count matches the 512-op batch boundary.
    assert!(report.trace.v2_bytes < report.trace.v1_bytes);
    assert_eq!(report.trace.chunks, report.trace.records.div_ceil(512));

    // The report the campaign would write round-trips byte-stably (the
    // `repro report --check` property).
    let text = report.to_json().render_pretty();
    let back = CorpusReport::parse(&text).expect("parse back");
    assert_eq!(back, report);
    assert_eq!(back.to_json().render_pretty(), text);
    // And the rendered section names every defense.
    let md = report.render_markdown();
    for kind in DefenseKind::TABLE3 {
        assert!(
            md.contains(kind.label()),
            "{} missing from markdown",
            kind.label()
        );
    }
}

#[test]
fn campaign_is_deterministic() {
    let a = run_corpus_campaign(true).expect("harness");
    let b = run_corpus_campaign(true).expect("harness");
    assert_eq!(
        a.to_json().render_pretty(),
        b.to_json().render_pretty(),
        "the corpus report must be machine-independent and run-stable"
    );
}

#[test]
fn committed_corpus_report_is_fresh() {
    // The committed artifact must parse under the current schema and
    // hold every invariant it recorded — a stale or failing report
    // cannot sit in artifacts/ feeding EXPERIMENTS.md.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../artifacts/CORPUS_report.json"
    );
    let text = std::fs::read_to_string(path).expect("committed CORPUS_report.json exists");
    let report = CorpusReport::parse(&text).expect("committed report parses");
    let json = Json::parse(&text).expect("committed report is JSON");
    assert_eq!(
        json.field_u64("schema_version"),
        Ok(CORPUS_REPORT_SCHEMA_VERSION)
    );
    assert_eq!(json.field_str("experiment"), Ok("corpus"));
    assert!(!report.smoke, "the committed report is the full-sized run");
    assert!(
        report.all_pass(),
        "committed report records failures: {:?}",
        report.failed_invariants()
    );
    assert_eq!(report.defenses.len(), DefenseKind::TABLE3.len());
    assert!(report.defenses.iter().all(|d| d.streaming_identical));
    // Byte stability: rerunning `repro corpus` rewrites the file through
    // this exact renderer, so parse -> render must reproduce the
    // committed bytes (the `--check` property).
    assert_eq!(report.to_json().render_pretty(), text);
}
