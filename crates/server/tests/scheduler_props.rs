//! Scheduler property tests (ISSUE 6 satellite).
//!
//! Three scheduler invariants under random inputs:
//!
//! * **budget safety** — whatever interleaving of grants, charges, and
//!   refunds a client's ledger sees, `charged ≤ granted` always holds;
//! * **exactly-once drain** — the executor (the per-job wrapper over the
//!   shared worker pool) runs every admitted job exactly once, in one
//!   attempt, and returns them in index order, for random batch sizes and
//!   worker counts (interleavings vary run-to-run with OS scheduling);
//! * **cost monotonicity** — the admission price is monotone in
//!   `commands × device_rows`, for random calibrations.

use std::sync::atomic::{AtomicU64, Ordering};

use dd_server::run_isolated;
use dnn_defender::{BudgetAccount, CostModel};
use proptest::prelude::*;

proptest! {
    #[test]
    fn charged_never_exceeds_granted(
        ops in collection::vec((0u64..3, 0u64..1_000_000), 0..64),
    ) {
        let mut account = BudgetAccount::new(0);
        for (kind, amount) in ops {
            match kind {
                0 => account.grant(amount),
                1 => {
                    // Overdrafts must fail without mutating the ledger.
                    let before = account.charged_micros();
                    match account.try_charge(amount) {
                        Ok(()) => prop_assert_eq!(account.charged_micros(), before + amount),
                        Err(e) => {
                            prop_assert_eq!(account.charged_micros(), before);
                            prop_assert_eq!(e.remaining_micros, account.remaining_micros());
                        }
                    }
                }
                _ => account.refund(amount),
            }
            prop_assert!(account.charged_micros() <= account.granted_micros());
            prop_assert_eq!(
                account.remaining_micros(),
                account.granted_micros() - account.charged_micros()
            );
        }
    }

    #[test]
    fn executor_drains_every_admitted_job_exactly_once(
        jobs in 0usize..120,
        workers in 1usize..9,
    ) {
        let hits: Vec<AtomicU64> = (0..jobs).map(|_| AtomicU64::new(0)).collect();
        let runs = run_isolated(jobs, workers, 1, |i, _attempt| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        prop_assert_eq!(runs.len(), jobs);
        for (i, run) in runs.into_iter().enumerate() {
            prop_assert_eq!(run.index, i);
            prop_assert!(run.worker < workers.min(jobs));
            prop_assert_eq!(run.attempts, 1);
            prop_assert_eq!(run.output.ok(), Some(i));
        }
        for hit in &hits {
            prop_assert_eq!(hit.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn cost_estimates_monotone_in_commands_times_device_size(
        cps in 1u64..1_000_000_000,
        reference_rows in 1u64..10_000_000,
        first in (0u64..1_000_000, 1u64..10_000_000),
        second in (0u64..1_000_000, 1u64..10_000_000),
    ) {
        let model = CostModel::new(cps, reference_rows);
        let (c1, r1) = first;
        let (c2, r2) = second;
        prop_assume!(u128::from(c1) * u128::from(r1) <= u128::from(c2) * u128::from(r2));
        prop_assert!(model.price_micros(c1, r1) <= model.price_micros(c2, r2));
    }
}
