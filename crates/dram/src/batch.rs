//! Batched fast-path command decoding for bulk trace replay.
//!
//! The per-command [`crate::MemoryController`] API pays, for every benign
//! workload op, an address re-validation, two bank/subarray lookups, a
//! row-payload allocation (reads), and a refresh-epoch division per
//! activation. Replaying millions of commands — the scenario matrix's
//! background traffic and the workload driver's replay loop — spends most
//! of its wall time there.
//!
//! [`DecodedBatch`] is the fast path's front end: ops are *decoded once*
//! (validated against the device geometry and flattened to the dense row
//! index the device's disturbance table is laid out by) when they are
//! [pushed](DecodedBatch::push), and
//! [`crate::MemoryController::issue_batch`] then executes the whole chunk
//! with
//!
//! * disturbance written in place into the device's dense per-row table
//!   at the precomputed index;
//! * refresh-epoch tracking amortized to one comparison per time
//!   advance instead of one division per activation;
//! * per-chunk (not per-command) accumulation of stats, busy time, and
//!   issue counters.
//!
//! This is every controller's default. The per-command path stays the
//! reference: `issue_batch` on a [`crate::TraceMode::Full`] controller
//! replays the same ops through the ordinary per-command methods, and
//! the two paths are proven bit-identical by
//! `tests/kernel_differential.rs` and benchmarked against each other by
//! `repro kernel` (see `docs/perf.md`).

use crate::error::DramError;
use crate::geometry::{DramConfig, GlobalRowId};
use crate::rowhammer::flat_index;
use crate::timing::Nanos;

/// The canonical ops-per-chunk boundary of the batched replay plane.
///
/// Consumers that feed [`DecodedBatch`] chunk-by-chunk — the workload
/// driver's batched issue loop and the v2 trace container's chunk
/// framing — size their chunks to this constant, so a streamed trace
/// chunk maps 1:1 onto one `issue_batch` call without re-buffering.
pub const BATCH_CHUNK_OPS: usize = 512;

/// What one batched op does to its (pre-decoded) target row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOpKind {
    /// Full-row read (`ACT` + `RD` + `PRE`). The payload is not copied
    /// out — bulk replay discards it; use
    /// [`crate::MemoryController::read_row`] when the data matters.
    Read,
    /// Full-row write (`ACT` + `WR` + `PRE`) filling the row with one
    /// byte value (the deterministic tenant payloads the workload
    /// generators emit).
    Write(u8),
    /// A bulk activate/precharge storm against the row (the
    /// [`crate::MemoryController::hammer`] primitive); the count is the
    /// op's `extra` field.
    Hammer,
}

/// One decoded op of a batch: target row (validated, with its dense flat
/// index precomputed), the command, and the op's share of the simulated
/// schedule.
#[derive(Debug, Clone, Copy)]
pub struct BatchOp {
    /// Advance the clock to this instant before issuing (0 = issue at
    /// the current time). Carries the event-driven driver's idle gaps.
    pub advance_to: u128,
    /// The target row.
    pub row: GlobalRowId,
    /// Dense flat index of `row` (precomputed at push).
    pub(crate) flat: u32,
    /// The command.
    pub kind: BatchOpKind,
    /// Bulk activations to apply after the data command (the workload
    /// intensity model's `batch - 1`), or the whole hammer count for
    /// [`BatchOpKind::Hammer`].
    pub extra: u64,
}

/// A chunk of pre-decoded commands for the fast path.
///
/// Build one per device geometry with [`DecodedBatch::new`] and reuse it
/// across chunks; issuing a chunk drains its ops and keeps the buffer.
///
/// # Example
///
/// ```
/// use dd_dram::{BatchOpKind, DecodedBatch, DramConfig, GlobalRowId, MemoryController};
///
/// # fn main() -> Result<(), dd_dram::DramError> {
/// let config = DramConfig::lpddr4_small();
/// let mut mem = MemoryController::try_new(config.clone())?;
/// let mut batch = DecodedBatch::new(&config);
/// batch.push(GlobalRowId::new(0, 0, 10), BatchOpKind::Read, 15, None)?;
/// batch.push(GlobalRowId::new(0, 0, 12), BatchOpKind::Write(0xA5), 15, None)?;
/// mem.issue_batch(&mut batch)?;
/// assert_eq!(mem.stats().reads, 1);
/// assert_eq!(mem.stats().writes, 1);
/// assert_eq!(mem.stats().acts, 2 + 30);
/// assert_eq!(mem.disturbance(GlobalRowId::new(0, 0, 11)), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DecodedBatch {
    pub(crate) banks: usize,
    pub(crate) subarrays_per_bank: usize,
    pub(crate) rows_per_subarray: usize,
    /// The decoded ops of the current chunk (drained by `issue_batch`).
    pub(crate) ops: Vec<BatchOp>,
}

impl DecodedBatch {
    /// An empty batch decoding for `config`'s geometry.
    pub fn new(config: &DramConfig) -> Self {
        DecodedBatch {
            banks: config.banks,
            subarrays_per_bank: config.subarrays_per_bank,
            rows_per_subarray: config.rows_per_subarray,
            ops: Vec::new(),
        }
    }

    /// Whether this batch was decoded for `config`'s geometry (the flat
    /// indices are only meaningful on a matching device).
    pub fn matches(&self, config: &DramConfig) -> bool {
        self.banks == config.banks
            && self.subarrays_per_bank == config.subarrays_per_bank
            && self.rows_per_subarray == config.rows_per_subarray
    }

    /// Decode and append one op. `extra` is the bulk activation count
    /// ([`BatchOp::extra`]); `advance_to` is the op's scheduled issue
    /// instant, if the clock should jump forward first.
    ///
    /// # Errors
    ///
    /// Returns the same out-of-range error the per-command path would
    /// produce for an invalid address, and [`DramError::InvalidConfig`]
    /// for a [`BatchOpKind::Hammer`] with `extra == 0` (a zero-count
    /// hammer is not a meaningful command).
    pub fn push(
        &mut self,
        row: GlobalRowId,
        kind: BatchOpKind,
        extra: u64,
        advance_to: Option<Nanos>,
    ) -> Result<(), DramError> {
        if row.bank.0 >= self.banks {
            return Err(DramError::BankOutOfRange {
                bank: row.bank,
                banks: self.banks,
            });
        }
        if row.subarray.0 >= self.subarrays_per_bank {
            return Err(DramError::SubarrayOutOfRange {
                subarray: row.subarray,
                subarrays: self.subarrays_per_bank,
            });
        }
        if row.row.0 >= self.rows_per_subarray {
            return Err(DramError::RowOutOfRange {
                row: row.row,
                rows: self.rows_per_subarray,
            });
        }
        if kind == BatchOpKind::Hammer && extra == 0 {
            return Err(DramError::InvalidConfig(
                "batched hammer needs a positive activation count".into(),
            ));
        }
        let flat = flat_index(row, self.subarrays_per_bank, self.rows_per_subarray);
        self.ops.push(BatchOp {
            advance_to: advance_to.map_or(0, |n| n.0),
            row,
            flat: flat as u32,
            kind,
            extra,
        });
        Ok(())
    }

    /// Ops queued in the current chunk.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the current chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drop any queued ops without issuing them.
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates_like_check_addr() {
        let config = DramConfig::lpddr4_small();
        let mut b = DecodedBatch::new(&config);
        assert!(matches!(
            b.push(GlobalRowId::new(16, 0, 0), BatchOpKind::Read, 0, None),
            Err(DramError::BankOutOfRange { .. })
        ));
        assert!(matches!(
            b.push(GlobalRowId::new(0, 8, 0), BatchOpKind::Read, 0, None),
            Err(DramError::SubarrayOutOfRange { .. })
        ));
        assert!(matches!(
            b.push(GlobalRowId::new(0, 0, 128), BatchOpKind::Read, 0, None),
            Err(DramError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            b.push(GlobalRowId::new(0, 0, 0), BatchOpKind::Hammer, 0, None),
            Err(DramError::InvalidConfig(_))
        ));
        b.push(GlobalRowId::new(0, 0, 0), BatchOpKind::Read, 0, None)
            .unwrap();
        assert_eq!(b.len(), 1);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn pushed_ops_carry_the_flat_index() {
        let config = DramConfig::lpddr4_small();
        let mut b = DecodedBatch::new(&config);
        for (row, flat) in [
            (GlobalRowId::new(0, 0, 0), 0),
            (GlobalRowId::new(3, 5, 77), (3 * 8 + 5) * 128 + 77),
            (GlobalRowId::new(15, 7, 127), config.total_rows() - 1),
        ] {
            b.push(row, BatchOpKind::Read, 0, None).unwrap();
            assert_eq!(b.ops.last().unwrap().flat as usize, flat);
        }
    }

    #[test]
    fn geometry_mismatch_is_detected() {
        let small = DramConfig::lpddr4_small();
        let b = DecodedBatch::new(&small);
        assert!(b.matches(&small));
        // Same geometry, different threshold/timing: still compatible.
        assert!(b.matches(&small.clone().with_rowhammer_threshold(2400)));
        assert!(!b.matches(&small.clone().with_rows_per_subarray(64)));
    }
}
