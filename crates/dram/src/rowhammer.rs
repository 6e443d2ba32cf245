//! RowHammer disturbance model.
//!
//! The model is *victim-centric*, matching the paper's hardware threat model
//! (§3) and the defense's victim-focused design: every row accumulates a
//! **disturbance count** equal to the number of activations of its physical
//! neighbours since the row itself was last refreshed (by auto-refresh, by
//! its own activation, or by a defense RowClone touching it). Once the
//! disturbance reaches `T_RH` inside one refresh window, attacker-chosen
//! bits in the row can flip.
//!
//! Activating a row restores its charge, so an `ACT` of row `r`:
//! * resets `r`'s own disturbance to zero, and
//! * adds one unit of disturbance to both of `r`'s neighbours.
//!
//! Auto-refresh is modelled lazily: each counter is tagged with the refresh
//! window (epoch) it was accumulated in, and reads as zero once the window
//! has rolled over.
//!
//! The counters live in one dense table per device (`HammerTracker`, owned
//! by [`crate::MemoryController`]): an `(epoch, count)` entry per row at
//! the row's flat index `(bank·spb + subarray)·rows + row`, which the
//! per-command path and the batched kernel both update in place, so every
//! disturbance, refresh and read is a single index operation.

use crate::geometry::{DramConfig, GlobalRowId, RowInSubarray};
use crate::timing::Nanos;

/// Dense index of an in-range row, `(bank·spb + subarray)·rows + row`:
/// the tracker's table slot and the batch decoder's precomputed index.
#[inline]
pub(crate) fn flat_index(
    row: GlobalRowId,
    subarrays_per_bank: usize,
    rows_per_subarray: usize,
) -> usize {
    (row.bank.0 * subarrays_per_bank + row.subarray.0) * rows_per_subarray + row.row.0
}

/// Per-row disturbance bookkeeping: one `(epoch, count)` entry per row of
/// the device.
#[derive(Debug)]
pub(crate) struct HammerTracker {
    banks: usize,
    subarrays_per_bank: usize,
    rows_per_subarray: usize,
    /// `(epoch, accumulated neighbour activations)` per [`flat_index`].
    /// Untouched and refreshed rows hold `(0, 0)`, which reads as zero in
    /// every epoch.
    entries: Vec<(u64, u64)>,
}

impl HammerTracker {
    /// A zeroed table for `config`'s geometry. The zeros come from one
    /// zeroed allocation, so rows never disturbed cost no resident memory.
    pub(crate) fn new(config: &DramConfig) -> Self {
        HammerTracker {
            banks: config.banks,
            subarrays_per_bank: config.subarrays_per_bank,
            rows_per_subarray: config.rows_per_subarray,
            entries: vec![(0, 0); config.total_rows()],
        }
    }

    /// Current refresh-window index for a timestamp.
    pub(crate) fn epoch(now: Nanos, t_ref: Nanos) -> u64 {
        (now.0 / t_ref.0) as u64
    }

    /// Table slot of a row the caller has validated against the geometry.
    pub(crate) fn index(&self, row: GlobalRowId) -> usize {
        flat_index(row, self.subarrays_per_bank, self.rows_per_subarray)
    }

    /// Add `n` units of disturbance to the row at `flat` in epoch `epoch`,
    /// restarting its count when the entry carries a stale epoch.
    #[inline]
    pub(crate) fn disturb(&mut self, flat: usize, n: u64, epoch: u64) {
        let entry = &mut self.entries[flat];
        if entry.0 != epoch {
            *entry = (epoch, 0);
        }
        entry.1 += n;
    }

    /// Reset the disturbance of the row at `flat` (the row was
    /// refreshed/activated/cloned).
    #[inline]
    pub(crate) fn refresh(&mut self, flat: usize) {
        self.entries[flat] = (0, 0);
    }

    /// Apply the RowHammer side effects of activating the row at `flat`
    /// (row `in_row` of its subarray) `n` times: the row recharges and each
    /// physical neighbour takes `n` units of disturbance.
    #[inline]
    pub(crate) fn activate(&mut self, flat: usize, in_row: usize, n: u64, epoch: u64) {
        self.refresh(flat);
        if in_row > 0 {
            self.disturb(flat - 1, n, epoch);
        }
        if in_row + 1 < self.rows_per_subarray {
            self.disturb(flat + 1, n, epoch);
        }
    }

    /// Current disturbance of the row at `flat` within epoch `epoch`; an
    /// index past the table's end reads 0.
    #[inline]
    pub(crate) fn disturbance_at(&self, flat: usize, epoch: u64) -> u64 {
        match self.entries.get(flat) {
            Some(&(e, n)) if e == epoch => n,
            _ => 0,
        }
    }

    /// Current disturbance of `row` within epoch `epoch`. A row outside
    /// the geometry has none: each coordinate is checked, so it never
    /// aliases another row's slot.
    #[inline]
    pub(crate) fn disturbance(&self, row: GlobalRowId, epoch: u64) -> u64 {
        if row.bank.0 >= self.banks
            || row.subarray.0 >= self.subarrays_per_bank
            || row.row.0 >= self.rows_per_subarray
        {
            return 0;
        }
        self.disturbance_at(self.index(row), epoch)
    }
}

/// Outcome of an attempted RowHammer bit-flip on a victim row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlipOutcome {
    /// The victim's disturbance reached `T_RH`; the listed bit offsets were
    /// flipped in the row payload.
    Flipped {
        /// The flipped bit offsets within the row payload.
        bits: Vec<usize>,
    },
    /// The victim was refreshed recently enough that the disturbance is
    /// still below threshold — the defense (or plain auto-refresh) won.
    Resisted {
        /// Disturbance accumulated so far in the current window.
        disturbance: u64,
        /// The configured threshold `T_RH`.
        threshold: u64,
    },
}

impl FlipOutcome {
    /// `true` when bits actually flipped.
    pub fn flipped(&self) -> bool {
        matches!(self, FlipOutcome::Flipped { .. })
    }
}

/// Static RowHammer parameters derived from a [`DramConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowHammerModel {
    /// Activation threshold `T_RH`.
    pub threshold: u64,
    /// Rows per subarray (for neighbour computation).
    pub rows_per_subarray: usize,
}

impl RowHammerModel {
    /// Build the model from a device configuration.
    pub fn from_config(config: &DramConfig) -> Self {
        RowHammerModel {
            threshold: config.rowhammer_threshold,
            rows_per_subarray: config.rows_per_subarray,
        }
    }

    /// Victim rows of an aggressor (same bank + subarray, ±1 row).
    pub fn victims_of(&self, aggressor: GlobalRowId) -> Vec<GlobalRowId> {
        aggressor
            .row
            .neighbours(self.rows_per_subarray)
            .map(|row| GlobalRowId {
                bank: aggressor.bank,
                subarray: aggressor.subarray,
                row,
            })
            .collect()
    }

    /// The hammer count an attacker must still apply to `victim` given its
    /// current disturbance.
    pub fn remaining(&self, disturbance: u64) -> u64 {
        self.threshold.saturating_sub(disturbance)
    }
}

/// Convenience: the aggressor row a single-sided attacker would pick for a
/// victim (prefers the row below, falls back to the row above at the edge).
pub fn preferred_aggressor(victim: GlobalRowId, rows_per_subarray: usize) -> GlobalRowId {
    let row = if victim.row.0 + 1 < rows_per_subarray {
        RowInSubarray(victim.row.0 + 1)
    } else {
        RowInSubarray(victim.row.0 - 1)
    };
    GlobalRowId {
        bank: victim.bank,
        subarray: victim.subarray,
        row,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gid(row: usize) -> GlobalRowId {
        GlobalRowId::new(0, 0, row)
    }

    fn tracker() -> HammerTracker {
        HammerTracker::new(&DramConfig::lpddr4_small())
    }

    #[test]
    fn disturb_accumulates_within_epoch() {
        let mut t = tracker();
        let row = t.index(gid(5));
        t.disturb(row, 100, 0);
        t.disturb(row, 50, 0);
        assert_eq!(t.disturbance(gid(5), 0), 150);
    }

    #[test]
    fn epoch_rollover_clears_counts() {
        let mut t = tracker();
        let row = t.index(gid(5));
        t.disturb(row, 100, 0);
        assert_eq!(t.disturbance(gid(5), 1), 0);
        // Writing in the new epoch restarts the count.
        t.disturb(row, 7, 1);
        assert_eq!(t.disturbance(gid(5), 1), 7);
    }

    #[test]
    fn refresh_resets_single_row() {
        let mut t = tracker();
        let (one, two) = (t.index(gid(1)), t.index(gid(2)));
        t.disturb(one, 10, 0);
        t.disturb(two, 10, 0);
        t.refresh(one);
        assert_eq!(t.disturbance(gid(1), 0), 0);
        assert_eq!(t.disturbance(gid(2), 0), 10);
    }

    #[test]
    fn activate_disturbs_only_in_subarray_neighbours() {
        let mut t = tracker();
        for row in [gid(0), gid(1), gid(127), GlobalRowId::new(0, 1, 0)] {
            t.disturb(t.index(row), 3, 0);
        }
        // Row 0 of subarray 1 follows row 127 of subarray 0 in the table
        // but is not its physical neighbour.
        t.activate(t.index(gid(127)), 127, 5, 0);
        assert_eq!(t.disturbance(gid(127), 0), 0);
        assert_eq!(t.disturbance(gid(126), 0), 5);
        assert_eq!(t.disturbance(GlobalRowId::new(0, 1, 0), 0), 3);
        t.activate(t.index(gid(0)), 0, 2, 0);
        assert_eq!(t.disturbance(gid(0), 0), 0);
        assert_eq!(t.disturbance(gid(1), 0), 5);
    }

    #[test]
    fn flat_index_enumerates_the_device_in_order() {
        let config = DramConfig::lpddr4_small()
            .with_banks(3)
            .with_subarrays_per_bank(2)
            .with_rows_per_subarray(5);
        let mut next = 0;
        for bank in 0..config.banks {
            for sub in 0..config.subarrays_per_bank {
                for row in 0..config.rows_per_subarray {
                    let gid = GlobalRowId::new(bank, sub, row);
                    assert_eq!(flat_index(gid, 2, 5), next, "{gid:?}");
                    assert_eq!(config.flat_row_index(gid), Some(next), "{gid:?}");
                    next += 1;
                }
            }
        }
        assert_eq!(next, config.total_rows());
        for outside in [(3, 0, 0), (0, 2, 0), (0, 0, 5), (usize::MAX, 0, 0)] {
            let gid = GlobalRowId::new(outside.0, outside.1, outside.2);
            assert_eq!(config.flat_row_index(gid), None, "{gid:?}");
        }
    }

    #[test]
    fn epoch_computation() {
        let t_ref = Nanos::from_millis(64);
        assert_eq!(HammerTracker::epoch(Nanos(0), t_ref), 0);
        assert_eq!(HammerTracker::epoch(Nanos::from_millis(63), t_ref), 0);
        assert_eq!(HammerTracker::epoch(Nanos::from_millis(64), t_ref), 1);
        assert_eq!(HammerTracker::epoch(Nanos::from_millis(129), t_ref), 2);
    }

    #[test]
    fn victims_are_symmetric_neighbours() {
        let m = RowHammerModel {
            threshold: 1000,
            rows_per_subarray: 128,
        };
        assert_eq!(m.victims_of(gid(10)), vec![gid(9), gid(11)]);
        assert_eq!(m.victims_of(gid(0)), vec![gid(1)]);
        assert_eq!(m.victims_of(gid(127)), vec![gid(126)]);
    }

    #[test]
    fn preferred_aggressor_is_adjacent() {
        assert_eq!(preferred_aggressor(gid(10), 128), gid(11));
        assert_eq!(preferred_aggressor(gid(127), 128), gid(126));
    }

    #[test]
    fn remaining_saturates() {
        let m = RowHammerModel {
            threshold: 1000,
            rows_per_subarray: 128,
        };
        assert_eq!(m.remaining(0), 1000);
        assert_eq!(m.remaining(999), 1);
        assert_eq!(m.remaining(5000), 0);
    }
}
