//! # dd-server — matrix-as-a-service for the DNN-Defender reproduction
//!
//! Turns [`dd_baselines::ScenarioMatrix`] into a resident service: a
//! long-running sweep engine that accepts cell specs over a line-delimited
//! JSON protocol (stdin/stdout or a Unix socket), prices every job with a
//! throughput-calibrated cost model *before* admission, charges it against
//! a per-client budget, and executes admitted jobs on a work-stealing
//! threaded executor — shedding the lowest-priority work first under
//! overload instead of wedging.
//!
//! Module map:
//!
//! * [`spec`] — [`spec::CellSpec`] (defense × attacker × device × load)
//!   and [`spec::SweepBase`], the fixed sweep base whose cells share
//!   content-addressed cache keys with the batch `repro workload` path;
//! * [`executor`] — the per-worker-deque work-stealing thread pool, with
//!   per-job `catch_unwind` isolation and bounded panic retry;
//! * [`server`] — [`server::SweepServer`]: the protocol handler with
//!   admission control, budget accounting, Calm/PreStorm/Storm regime
//!   switching (offered + in-flight load), and incremental cache
//!   invalidation; submit splits into admit / execute / complete so
//!   connection loops hold no lock while cells simulate, and every cell
//!   runs against one run memo per server
//!   ([`dd_baselines::RunMemo`]: the victim trained once, each distinct
//!   attacker search run once);
//! * [`metrics`] — per-client ledgers and whole-server counters;
//! * [`frame`] — bounded line-frame reader shared by the socket transports
//!   (oversized-line and invalid-UTF-8 safe).
//!
//! Failure semantics: malformed frames, worker panics (including
//! `dd-chaos`-injected ones), and budget overdrafts all come back as
//! structured wire errors; the request path never unwraps (enforced with
//! `deny(clippy::unwrap_used)`).
//!
//! The resource-accounting primitives themselves ([`dnn_defender::CostModel`],
//! [`dnn_defender::BudgetAccount`], [`dnn_defender::Regime`]) live in the
//! core crate so the bench harness can use them without a cycle.
//!
//! See `docs/server.md` for the wire protocol and `repro serve` /
//! `repro submit` for the CLI front ends.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod executor;
pub mod frame;
pub mod metrics;
pub mod server;
pub mod spec;

pub use executor::{
    run_work_stealing, run_work_stealing_grouped, run_work_stealing_grouped_isolated, JobOutcome,
    JobRun,
};
pub use frame::{Frame, FrameReader, MAX_FRAME_BYTES};
pub use metrics::{hist_to_json, ClientLedger, ExecutorSummary, ServerStats};
pub use server::{
    ExecutedSubmit, LineOutcome, PreparedSubmit, ServerConfig, SweepServer, MAX_JOB_ATTEMPTS,
};
pub use spec::{CellSpec, DeviceBase, DeviceSpec, SweepBase};

/// Version of the line-delimited JSON wire protocol. Every response
/// carries it; bump on any incompatible change to request or response
/// shapes. v2: in-flight backlog carry-over (`carryover_micros`),
/// structured error `kind`s (`job_failed` et al.), cumulative
/// `charged_gross_micros`/`refunded_micros` ledger counters, idempotent
/// `budget` grants via `txn`, and `shed`/`shutting_down` drain semantics.
pub const SERVER_PROTOCOL_VERSION: u64 = 2;
