//! # dd-dram — DRAM + RowHammer simulator substrate
//!
//! A behavioural DRAM simulator built for the DNN-Defender (DAC 2024)
//! reproduction. It models the parts of a DRAM device that matter for
//! RowHammer attack/defense studies:
//!
//! * the bank / subarray / row hierarchy and the command protocol
//!   (`ACT` / `PRE` / `RD` / `WR`) — [`geometry`], [`bank`],
//!   [`subarray`], [`controller`];
//! * **RowClone** in-DRAM bulk copy (two back-to-back `ACT`s, no `PRE`
//!   in between) used by DNN-Defender's swap operations — [`subarray`];
//! * a deterministic **RowHammer fault model**: a row activated at least
//!   `T_RH` times inside one refresh window disturbs its two physical
//!   neighbours — [`rowhammer`];
//! * an analytical **timing and energy model** with the constants the paper
//!   uses (`T_AAP` = 90 ns, `T_swap` = 3·`T_AAP`, `T_ref` = 64 ms) —
//!   [`timing`], [`stats`].
//!
//! The simulator is fully deterministic: all randomness is injected by the
//! caller through seeded RNGs.
//!
//! ## Example
//!
//! ```
//! use dd_dram::{DramConfig, MemoryController};
//!
//! # fn main() -> Result<(), dd_dram::DramError> {
//! let config = DramConfig::lpddr4_small();
//! let mut mem = MemoryController::try_new(config)?;
//!
//! // Write a pattern, RowClone it to another row in the same subarray,
//! // and read it back.
//! let bank = dd_dram::BankId(0);
//! let sub = dd_dram::SubarrayId(0);
//! mem.write_row(bank, sub, dd_dram::RowInSubarray(3), &[0xAB; 64])?;
//! mem.row_clone(bank, sub, dd_dram::RowInSubarray(3), dd_dram::RowInSubarray(7))?;
//! let copy = mem.read_row(bank, sub, dd_dram::RowInSubarray(7))?;
//! assert!(copy.iter().all(|&b| b == 0xAB));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod bank;
pub mod batch;
pub mod controller;
pub mod error;
pub mod geometry;
#[cfg(test)]
mod reference;
pub mod rowhammer;
pub mod stats;
pub mod subarray;
pub mod timing;

pub use bank::Bank;
pub use batch::{BatchOp, BatchOpKind, DecodedBatch, BATCH_CHUNK_OPS};
pub use controller::{MemoryController, TraceMode};
pub use error::DramError;
pub use geometry::{BankId, DramConfig, GlobalRowId, RowInSubarray, SubarrayId};
pub use rowhammer::{FlipOutcome, RowHammerModel};
pub use stats::{EnergyModel, MemStats};
pub use subarray::Subarray;
pub use timing::{Nanos, TimingParams};
