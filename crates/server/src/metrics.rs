//! Per-client ledgers and whole-server counters.
//!
//! Everything here is observable over the wire: submit responses embed the
//! client's ledger, and the `stats` op returns the whole-server counters
//! plus every ledger — including per-regime shed/refund breakdowns, an
//! executor utilization summary, and log2 latency histograms
//! ([`dd_obs::Hist64`]). The bench harness turns a scripted session's
//! ledgers into the versioned `server` artifact spliced into
//! EXPERIMENTS.md.

use dd_obs::Hist64;
use dnn_defender::{BudgetAccount, Json, Regime};

use crate::executor::JobRun;

/// One client's budget account plus its lifetime job counters.
#[derive(Debug, Clone, Default)]
pub struct ClientLedger {
    /// The granted/charged budget ledger (`charged ≤ granted` invariant).
    pub account: BudgetAccount,
    /// Cells this client has submitted (including malformed ones).
    pub submitted: u64,
    /// Cells computed for this client (cache misses that ran).
    pub computed: u64,
    /// Cells served straight from the content-addressed cache.
    pub cache_hits: u64,
    /// Cells rejected at admission because the budget could not cover the
    /// estimate.
    pub rejected_budget: u64,
    /// Cells shed by storm-regime overload control.
    pub shed: u64,
    /// Malformed or failed cells.
    pub errors: u64,
    /// Total microseconds actually spent simulating this client's cells.
    pub actual_micros: u64,
    /// Total microseconds this client's cells waited before starting.
    pub queue_micros: u64,
    /// Idempotency token of the last applied `budget` grant. A retried
    /// grant carrying the same token is acknowledged without granting
    /// again, so a client that lost the response to a connection drop can
    /// safely resend.
    pub last_grant_txn: Option<String>,
}

impl ClientLedger {
    /// A fresh ledger with an initial grant.
    pub fn with_grant(grant_micros: u64) -> Self {
        ClientLedger {
            account: BudgetAccount::new(grant_micros),
            ..ClientLedger::default()
        }
    }

    /// Wire encoding (embedded in submit responses and `stats`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("granted_micros", Json::uint(self.account.granted_micros()))
            .with("charged_micros", Json::uint(self.account.charged_micros()))
            .with(
                "charged_gross_micros",
                Json::uint(self.account.charged_gross_micros()),
            )
            .with(
                "refunded_micros",
                Json::uint(self.account.refunded_micros()),
            )
            .with(
                "remaining_micros",
                Json::uint(self.account.remaining_micros()),
            )
            .with("submitted", Json::uint(self.submitted))
            .with("computed", Json::uint(self.computed))
            .with("cache_hits", Json::uint(self.cache_hits))
            .with("rejected_budget", Json::uint(self.rejected_budget))
            .with("shed", Json::uint(self.shed))
            .with("errors", Json::uint(self.errors))
            .with("actual_micros", Json::uint(self.actual_micros))
            .with("queue_micros", Json::uint(self.queue_micros))
    }
}

/// Index of a [`Regime`] into the per-regime counter arrays
/// (calm, pre-storm, storm).
fn regime_index(regime: Regime) -> usize {
    match regime {
        Regime::Calm => 0,
        Regime::PreStorm => 1,
        Regime::Storm => 2,
    }
}

fn regime_counters_json(counters: &[u64; 3]) -> Json {
    Json::obj()
        .with("calm", Json::uint(counters[0]))
        .with("pre_storm", Json::uint(counters[1]))
        .with("storm", Json::uint(counters[2]))
}

/// Wire encoding of a [`Hist64`]: totals plus the non-empty log2 buckets
/// (`floor` = inclusive lower bound of the bucket).
pub fn hist_to_json(hist: &Hist64) -> Json {
    let buckets: Vec<Json> = hist
        .nonzero_buckets()
        .map(|(i, count)| {
            Json::obj()
                .with("floor", Json::uint(Hist64::bucket_floor(i)))
                .with("count", Json::uint(count))
        })
        .collect();
    Json::obj()
        .with("count", Json::uint(hist.count))
        .with("sum", Json::uint(hist.sum))
        .with("max", Json::uint(hist.max))
        .with("buckets", Json::Arr(buckets))
}

/// Executor utilization accumulated across every submit's batch: how
/// many jobs ran, the worst queue delay, and per-worker busy time
/// against the summed batch makespans.
#[derive(Debug, Clone, Default)]
pub struct ExecutorSummary {
    /// Jobs executed.
    pub jobs: u64,
    /// Largest queue delay any job saw, in microseconds.
    pub max_queue_micros: u64,
    /// Summed makespan of every executed batch (the time base for
    /// per-worker busy fractions), in microseconds.
    pub elapsed_micros: u64,
    /// Per-worker busy time in microseconds (index = worker id).
    pub busy_micros: Vec<u64>,
}

impl ExecutorSummary {
    /// Fold one submit's batch of [`JobRun`]s into the summary.
    pub fn absorb<T>(&mut self, runs: &[JobRun<T>]) {
        let makespan = runs
            .iter()
            .map(|r| r.queue_micros + r.wall_micros)
            .max()
            .unwrap_or(0);
        self.elapsed_micros += makespan;
        for run in runs {
            self.jobs += 1;
            self.max_queue_micros = self.max_queue_micros.max(run.queue_micros);
            if self.busy_micros.len() <= run.worker {
                self.busy_micros.resize(run.worker + 1, 0);
            }
            self.busy_micros[run.worker] += run.wall_micros;
        }
    }

    /// Busy fraction per worker: busy time over the summed batch
    /// makespans (0 when nothing ran).
    pub fn busy_fractions(&self) -> Vec<f64> {
        self.busy_micros
            .iter()
            .map(|&busy| {
                if self.elapsed_micros == 0 {
                    0.0
                } else {
                    busy as f64 / self.elapsed_micros as f64
                }
            })
            .collect()
    }

    /// Wire encoding (embedded in the `stats` reply and the trace
    /// summary's timing section).
    pub fn to_json(&self) -> Json {
        let workers: Vec<Json> = self
            .busy_micros
            .iter()
            .zip(self.busy_fractions())
            .enumerate()
            .map(|(worker, (&busy, fraction))| {
                Json::obj()
                    .with("worker", Json::uint(worker as u64))
                    .with("busy_micros", Json::uint(busy))
                    .with("busy_fraction", Json::num(fraction))
            })
            .collect();
        Json::obj()
            .with("jobs", Json::uint(self.jobs))
            .with("max_queue_micros", Json::uint(self.max_queue_micros))
            .with("elapsed_micros", Json::uint(self.elapsed_micros))
            .with("workers", Json::Arr(workers))
    }
}

/// Whole-server lifetime counters.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Requests handled (any op).
    pub requests: u64,
    /// Cells submitted across all clients.
    pub jobs: u64,
    /// Cells computed (cache misses that ran).
    pub computed: u64,
    /// Cells served from cache.
    pub cache_hits: u64,
    /// Cells rejected for budget.
    pub rejected_budget: u64,
    /// Cells shed under storm.
    pub shed: u64,
    /// Malformed or failed cells.
    pub errors: u64,
    /// Cells whose execution panicked on every attempt (answered with a
    /// structured `job_failed` error and refunded; counted in `errors`
    /// too).
    pub job_failed: u64,
    /// Extra execution attempts consumed by panic-retry (a job that
    /// succeeded on attempt 3 contributes 2).
    pub job_retries: u64,
    /// Cache entries evicted by `invalidate` ops.
    pub invalidated: u64,
    /// Submit requests admitted in the calm regime.
    pub calm_requests: u64,
    /// Submit requests admitted in the pre-storm regime.
    pub pre_storm_requests: u64,
    /// Submit requests that hit the storm regime (and shed).
    pub storm_requests: u64,
    /// Cells shed, broken out by the regime the request classified into
    /// (calm, pre-storm, storm). Shedding only triggers under storm, so
    /// the first two stay zero by construction — the wire shape makes
    /// that observable rather than assumed.
    pub shed_by_regime: [u64; 3],
    /// Microseconds refunded to client budgets (shed cells and failed
    /// executions), by the regime of the refunding request.
    pub refunded_micros_by_regime: [u64; 3],
    /// Executor utilization across every submit.
    pub executor: ExecutorSummary,
    /// Log2 histogram of admission estimates (deterministic pricing).
    pub hist_estimate_micros: Hist64,
    /// Log2 histogram of per-job queue delays (wall-clock).
    pub hist_queue_micros: Hist64,
    /// Log2 histogram of per-job execution times (wall-clock).
    pub hist_wall_micros: Hist64,
}

impl ServerStats {
    /// Record a shed cell: the per-regime count plus its refunded
    /// estimate.
    pub fn record_shed(&mut self, regime: Regime, estimate_micros: u64) {
        self.shed += 1;
        self.shed_by_regime[regime_index(regime)] += 1;
        self.record_refund(regime, estimate_micros);
    }

    /// Record a refund (shed or failed execution) under `regime`.
    pub fn record_refund(&mut self, regime: Regime, estimate_micros: u64) {
        self.refunded_micros_by_regime[regime_index(regime)] += estimate_micros;
    }

    /// Wire encoding for the `stats` op.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("requests", Json::uint(self.requests))
            .with("jobs", Json::uint(self.jobs))
            .with("computed", Json::uint(self.computed))
            .with("cache_hits", Json::uint(self.cache_hits))
            .with("rejected_budget", Json::uint(self.rejected_budget))
            .with("shed", Json::uint(self.shed))
            .with("errors", Json::uint(self.errors))
            .with("job_failed", Json::uint(self.job_failed))
            .with("job_retries", Json::uint(self.job_retries))
            .with("invalidated", Json::uint(self.invalidated))
            .with("calm_requests", Json::uint(self.calm_requests))
            .with("pre_storm_requests", Json::uint(self.pre_storm_requests))
            .with("storm_requests", Json::uint(self.storm_requests))
            .with("shed_by_regime", regime_counters_json(&self.shed_by_regime))
            .with(
                "refunded_micros_by_regime",
                regime_counters_json(&self.refunded_micros_by_regime),
            )
            .with("executor", self.executor.to_json())
            .with(
                "histograms",
                Json::obj()
                    .with("estimate_micros", hist_to_json(&self.hist_estimate_micros))
                    .with("queue_micros", hist_to_json(&self.hist_queue_micros))
                    .with("wall_micros", hist_to_json(&self.hist_wall_micros)),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_grant_ledger_rejects_every_charge_and_encodes_cleanly() {
        let mut ledger = ClientLedger::with_grant(0);
        assert_eq!(ledger.account.granted_micros(), 0);
        assert_eq!(ledger.account.remaining_micros(), 0);
        let err = ledger.account.try_charge(1).expect_err("cannot charge");
        assert_eq!(err.remaining_micros, 0);
        // Charging zero against a zero grant is a no-op, not an error.
        ledger.account.try_charge(0).expect("zero charge fits");
        let json = ledger.to_json();
        assert_eq!(json.field_u64("granted_micros"), Ok(0));
        assert_eq!(json.field_u64("charged_micros"), Ok(0));
        assert_eq!(json.field_u64("remaining_micros"), Ok(0));
    }

    #[test]
    fn refund_after_shed_ordering_restores_the_exact_balance() {
        // Admission charges estimates in submit order; shedding refunds
        // newest-first. Whatever the interleaving, the account must land
        // back on the sum of the surviving estimates, and `charged ≤
        // granted` must hold at every step.
        let mut ledger = ClientLedger::with_grant(1_000);
        for estimate in [400u64, 300, 200] {
            ledger.account.try_charge(estimate).expect("fits");
            assert!(ledger.account.charged_micros() <= ledger.account.granted_micros());
        }
        assert_eq!(ledger.account.charged_micros(), 900);
        // Shed the two newest (200 then 300), counting each.
        for refund in [200u64, 300] {
            ledger.account.refund(refund);
            ledger.shed += 1;
        }
        assert_eq!(ledger.account.charged_micros(), 400);
        assert_eq!(ledger.account.remaining_micros(), 600);
        assert_eq!(ledger.shed, 2);
        // The freed budget is immediately usable.
        ledger.account.try_charge(600).expect("refunded budget");
        assert_eq!(ledger.account.remaining_micros(), 0);
    }

    #[test]
    fn duplicate_cell_resolution_accounting_counts_one_compute_one_hit() {
        // The submit pipeline resolves an in-request duplicate from the
        // cache after the first instance computes: the ledger must show
        // exactly one compute and one cache hit, and only the first
        // instance's estimate charged.
        let mut ledger = ClientLedger::with_grant(500);
        ledger.submitted += 2;
        ledger.account.try_charge(100).expect("first instance");
        // Second instance: duplicate — never charged, never run.
        ledger.computed += 1;
        ledger.cache_hits += 1;
        assert_eq!(ledger.account.charged_micros(), 100);
        let json = ledger.to_json();
        assert_eq!(json.field_u64("submitted"), Ok(2));
        assert_eq!(json.field_u64("computed"), Ok(1));
        assert_eq!(json.field_u64("cache_hits"), Ok(1));
    }

    #[test]
    fn executor_summary_absorbs_runs_and_computes_busy_fractions() {
        let runs = vec![
            JobRun {
                index: 0,
                worker: 0,
                queue_micros: 10,
                wall_micros: 90,
                attempts: 1,
                output: (),
            },
            JobRun {
                index: 1,
                worker: 2,
                queue_micros: 40,
                wall_micros: 60,
                attempts: 1,
                output: (),
            },
        ];
        let mut summary = ExecutorSummary::default();
        summary.absorb(&runs);
        assert_eq!(summary.jobs, 2);
        assert_eq!(summary.max_queue_micros, 40);
        assert_eq!(summary.elapsed_micros, 100);
        assert_eq!(summary.busy_micros, vec![90, 0, 60]);
        let fractions = summary.busy_fractions();
        assert!((fractions[0] - 0.9).abs() < 1e-9);
        assert!((fractions[2] - 0.6).abs() < 1e-9);
        let json = summary.to_json();
        assert_eq!(json.field_u64("jobs"), Ok(2));
        // Empty summary: no division by zero.
        let empty = ExecutorSummary::default();
        assert!(empty.busy_fractions().is_empty());
        assert_eq!(empty.to_json().field_u64("elapsed_micros"), Ok(0));
    }

    #[test]
    fn per_regime_counters_track_sheds_and_refunds() {
        let mut stats = ServerStats::default();
        stats.record_shed(Regime::Storm, 250);
        stats.record_shed(Regime::Storm, 150);
        stats.record_refund(Regime::Calm, 40); // failed execution refund
        assert_eq!(stats.shed, 2);
        assert_eq!(stats.shed_by_regime, [0, 0, 2]);
        assert_eq!(stats.refunded_micros_by_regime, [40, 0, 400]);
        let json = stats.to_json();
        let shed = json.field("shed_by_regime").expect("shed_by_regime");
        assert_eq!(shed.field_u64("storm"), Ok(2));
        assert_eq!(shed.field_u64("calm"), Ok(0));
        let refunds = json
            .field("refunded_micros_by_regime")
            .expect("refunded_micros_by_regime");
        assert_eq!(refunds.field_u64("storm"), Ok(400));
        assert_eq!(refunds.field_u64("calm"), Ok(40));
    }

    #[test]
    fn histogram_wire_encoding_lists_nonzero_log2_buckets() {
        let mut hist = Hist64::new();
        for v in [0u64, 1, 512, 513, 1_000_000] {
            hist.record(v);
        }
        let json = hist_to_json(&hist);
        assert_eq!(json.field_u64("count"), Ok(5));
        assert_eq!(json.field_u64("max"), Ok(1_000_000));
        let buckets = json.field_arr("buckets").expect("buckets");
        assert_eq!(buckets.len(), 4); // 0, 1, [512,1024), [2^19,2^20)
        assert_eq!(buckets[0].field_u64("floor"), Ok(0));
        assert_eq!(buckets[0].field_u64("count"), Ok(1));
        assert_eq!(buckets[2].field_u64("floor"), Ok(512));
        assert_eq!(buckets[2].field_u64("count"), Ok(2));
    }
}
