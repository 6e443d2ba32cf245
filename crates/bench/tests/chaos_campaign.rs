//! The chaos campaign as a test (ISSUE 9 tentpole).
//!
//! Two layers:
//!
//! * the **smoke campaign** itself — the exact `repro chaos --smoke`
//!   run — must hold every invariant and fire every injection site, so
//!   a hardening regression fails `cargo test` before it fails CI's
//!   artifact job;
//! * a **random-interleaving property** — arbitrary fault mixes
//!   (panic/stall/transient rates and plan seeds drawn at random) against
//!   an in-process server: whatever fires, every response stays
//!   structured, the budget ledger balances, and the server answers the
//!   next request. This is the "no fault interleaving can corrupt the
//!   ledger" claim the scripted phases cannot sweep by construction.
//!
//! `dd-chaos` sessions serialize on a process-global lock, so these
//! tests (and any parallel test in this binary) cannot pollute each
//! other's plans.

use dd_bench::chaos::{ledger_balanced, run_chaos_campaign, CHAOS_SITES};
use dd_bench::report::Report;
use dd_bench::serve::{RetryPolicy, ServiceClient, REFERENCE_DEVICE_ROWS};
use dd_chaos::ChaosPlan;
use dd_server::{CellSpec, ServerConfig, SweepServer};
use dnn_defender::{CostModel, Json};
use proptest::prelude::*;

#[test]
fn smoke_campaign_holds_every_invariant_and_covers_every_site() {
    let report = run_chaos_campaign(true).expect("campaign harness");
    let failed = report.failed_invariants();
    assert!(
        failed.is_empty(),
        "resilience invariants failed: {failed:?}"
    );
    assert_eq!(
        report.sites_missing(),
        Vec::<&str>::new(),
        "injection sites never fired"
    );
    assert_eq!(report.sites_covered.len(), CHAOS_SITES.len());
    // The artifact the campaign writes round-trips losslessly.
    let text = report.to_json().render_pretty();
    let back = dd_bench::chaos::ChaosCampaignReport::parse(&text).expect("parse back");
    assert_eq!(back, report);
}

fn quick_server() -> SweepServer {
    SweepServer::new(
        ServerConfig {
            quick: true,
            workers: 2,
            capacity_micros: 60_000_000,
            default_grant_micros: 10_000_000,
        },
        CostModel::new(200_000_000, REFERENCE_DEVICE_ROWS),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fault interleavings never corrupt the ledger or kill the
    /// server. Rates and the plan seed are drawn at random; the submit
    /// may succeed, partially fail, or exhaust its retries — all legal —
    /// but the conservation law and process survival are unconditional.
    #[test]
    fn random_fault_interleavings_preserve_conservation_and_survival(
        plan_seed in 0u64..1_000_000,
        panic_ppm in 0u32..1_000_000,
        stall_ppm in 0u32..1_000_000,
        transient_ppm in 0u32..700_000,
    ) {
        let session = dd_chaos::arm(
            ChaosPlan::inert(plan_seed)
                .with_rule("executor.job_panic", panic_ppm)
                .with_rule("executor.job_stall", stall_ppm)
                .with_rule("client.submit_transient", transient_ppm),
        );
        let mut client = ServiceClient::local(
            quick_server(),
            RetryPolicy {
                attempts: 4,
                base_delay_ms: 1,
                seed: plan_seed,
            },
        );
        let cell = CellSpec::parse_compact("Baseline (undefended):BFA:lpddr4_small:none")
            .expect("spec");
        let request = SweepServer::submit_request("prop", true, &[cell]);
        let submitted = client.request_json(&request);
        let report = session.finish();

        // Whatever interleaving fired, a delivered response is
        // structured and its ledger balances.
        if let Ok(response) = &submitted {
            prop_assert!(response.field_bool("ok").is_ok());
            if let Ok(ledger) = response.field("ledger") {
                prop_assert!(
                    ledger_balanced(ledger),
                    "conservation broken under {report:?}"
                );
            }
        }
        // Survival + final conservation, read without client faults.
        let mut server = client.into_local_server().expect("local server");
        let stats = Json::parse(&server.handle_line("{\"op\":\"stats\"}"))
            .expect("stats parses");
        prop_assert_eq!(stats.field_bool("ok"), Ok(true));
        if let Ok(Json::Obj(clients)) = stats.field("clients") {
            for (name, ledger) in clients {
                prop_assert!(
                    ledger_balanced(ledger),
                    "client {name} ledger unbalanced under {report:?}"
                );
            }
        }
    }
}
