//! # dd-workload — the trace-driven workload engine
//!
//! The paper's defense is an *online* mechanism: it must tell hammering
//! apart from ordinary serving traffic. This crate supplies the ordinary
//! traffic — and the machinery to measure defenses under it:
//!
//! * [`generator`] — deterministic, seeded benign-traffic generators
//!   (zipfian inference serving, streaming scans, pointer chasing, a
//!   multi-tenant mix with bank affinity) and the [`BackgroundLoad`]
//!   axis the scenario matrix sweeps;
//! * [`trace`] — the compact versioned binary trace formats: any run can
//!   be captured and replayed byte-identically, either materialized (v1)
//!   or streamed chunk-by-chunk from the indexed v2 container;
//! * [`corpus`] — diurnal fleet profiles composed from the seeded
//!   generators (load ramps, tenant churn, hot-key shifts) for
//!   corpus-scale defense sweeps;
//! * [`driver`] — the event-driven driver that merges benign streams
//!   with attack campaigns on the simulated clock, feeds everything
//!   through [`dd_dram::MemoryController`], and reports throughput,
//!   benign-row disturbance, and per-defense false-swap/false-refresh
//!   counts.
//!
//! ## Example
//!
//! ```
//! use dd_dram::{DramConfig, MemoryController};
//! use dd_workload::{all_data_rows, BackgroundLoad, BenignTraffic, DriverConfig, run_workload};
//! use dnn_defender::Undefended;
//!
//! # fn main() -> Result<(), dd_dram::DramError> {
//! let config = DramConfig::lpddr4_small();
//! let mut mem = MemoryController::try_new(config.clone())?;
//!
//! let rows = all_data_rows(&config);
//! let mut traffic = BenignTraffic::for_load(
//!     BackgroundLoad::Light, 7, &config, &rows[..64], &rows,
//! ).expect("light load builds traffic");
//! let mut defense = Undefended::new();
//! let report = run_workload(
//!     &mut mem, &mut defense, None, &mut traffic, &[],
//!     &DriverConfig { benign_windows: 2, attack_windows: 0, record: false },
//! )?;
//! assert_eq!(report.benign_ops, 2 * BackgroundLoad::Light.ops_per_window());
//! assert_eq!(report.false_defense_ops, 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod corpus;
pub mod driver;
pub mod generator;
pub mod trace;

/// Version of the workload *behavior*: the generator recipes behind each
/// [`BackgroundLoad`] level (stream weights, op budgets, batch factors,
/// zipf exponents) and the driver's merge/attribution protocol. Cell
/// cache keys hash load *labels*, not code — **bump this whenever a
/// change alters the traffic a label produces**, so cached scenario
/// cells and workload artifacts are invalidated.
pub const WORKLOAD_PROTOCOL_VERSION: u64 = 1;

pub use corpus::{CorpusPhase, DiurnalProfile, PhaseShape};
pub use driver::{
    next_window_boundary, run_workload, BenignTraffic, DriverConfig, DriverReport, SpanTraffic,
};
pub use generator::{
    all_data_rows, batch_op_kind, tenant_rows, BackgroundLoad, OpKind, PointerChase, StreamingScan,
    TenantMix, WorkloadGenerator, WorkloadOp, ZipfianServing,
};
pub use trace::{
    decode, decode_any, encode, encode_v2, StreamingReplay, StreamingTraceReader, TraceError,
    TraceReplay, HEADER_BYTES, RECORD_BYTES, TRACE_CHUNK_OPS, TRACE_MAGIC, TRACE_VERSION,
    TRACE_VERSION_V2,
};
