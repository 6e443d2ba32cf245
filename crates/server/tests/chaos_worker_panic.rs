//! An armed `executor.job_panic` fault through a live `SweepServer`.
//!
//! The dd-chaos plane is process-global: while this test has it armed,
//! every cell any other test in the same process runs would panic too.
//! It therefore lives in a test binary of its own, away from the unit
//! tests that compute cells.

use dd_server::{CellSpec, ServerConfig, SweepServer, MAX_JOB_ATTEMPTS};
use dnn_defender::{CostModel, Json};

#[test]
fn injected_worker_panic_becomes_job_failed_with_refund_never_process_death() {
    let config = ServerConfig {
        quick: true,
        workers: 2,
        capacity_micros: 1_000_000,
        default_grant_micros: 10_000_000,
    };
    let mut server = SweepServer::new(config, CostModel::new(200_000_000, 16 * 8 * 128));
    let cell = CellSpec::parse_compact("Baseline (undefended):BFA:lpddr4_small:none")
        .expect("spec")
        .to_json();
    let line = Json::obj()
        .with("op", Json::str("submit"))
        .with("client", Json::str("chaotic"))
        .with("cells", Json::Arr(vec![cell]))
        .render_compact();
    let session =
        dd_chaos::arm(dd_chaos::ChaosPlan::inert(42).with_rule("executor.job_panic", 1_000_000));
    let response = Json::parse(&server.handle_line(&line)).expect("submit");
    let report = session.finish();
    // Every attempt panicked: MAX_JOB_ATTEMPTS checks, all fired.
    assert_eq!(
        report.fires_at("executor.job_panic"),
        u64::from(MAX_JOB_ATTEMPTS)
    );
    assert_eq!(response.field_bool("ok"), Ok(true));
    let results = response.field_arr("results").expect("results");
    assert_eq!(results[0].field_str("status"), Ok("error"));
    assert_eq!(results[0].field_str("kind"), Ok("job_failed"));
    assert!(results[0]
        .field_str("reason")
        .expect("reason")
        .contains("panicked after 3 attempts"));
    let ledger = response.field("ledger").expect("ledger");
    assert_eq!(ledger.field_u64("charged_micros"), Ok(0));
    assert!(ledger.field_u64("refunded_micros").expect("refunded") > 0);
    let field = |name| ledger.field_u64(name).expect(name);
    assert_eq!(
        field("granted_micros") + field("refunded_micros"),
        field("charged_gross_micros") + field("remaining_micros"),
        "ledger balances"
    );

    // The server is alive and the cell computes cleanly with the fault
    // plane disarmed — and the retry/job_failed counters are on the
    // stats wire.
    let retry_free = Json::parse(&server.handle_line(&line)).expect("resubmit");
    let results = retry_free.field_arr("results").expect("results");
    assert_eq!(results[0].field_str("status"), Ok("done"));
    let stats = Json::parse(&server.handle_line("{\"op\":\"stats\"}")).expect("stats");
    let counters = stats.field("stats").expect("counters");
    assert_eq!(counters.field_u64("job_failed"), Ok(1));
    assert!(counters.field_u64("job_retries").expect("retries") >= 2);
}
