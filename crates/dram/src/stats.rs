//! Memory operation statistics and the analytical energy model.

use crate::timing::Nanos;

/// Counters for every class of DRAM operation plus accumulated busy time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Row activations issued (including those inside fused ops).
    pub acts: u64,
    /// Precharges issued.
    pub pres: u64,
    /// Full-row reads.
    pub reads: u64,
    /// Full-row writes.
    pub writes: u64,
    /// RowClone copy operations (each is ACT–ACT–PRE).
    pub row_clones: u64,
    /// Explicit row refreshes.
    pub refreshes: u64,
    /// Total simulated busy time of the command bus.
    pub busy: Nanos,
}

impl MemStats {
    /// New all-zero stats.
    pub fn new() -> Self {
        MemStats::default()
    }

    /// Difference (`self - earlier`) for interval measurements.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` has larger counters than `self` (it must be a
    /// snapshot taken before `self` on the same controller).
    pub fn since(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            acts: self.acts - earlier.acts,
            pres: self.pres - earlier.pres,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            row_clones: self.row_clones - earlier.row_clones,
            refreshes: self.refreshes - earlier.refreshes,
            busy: self.busy - earlier.busy,
        }
    }
}

/// Per-operation energy in picojoules.
///
/// Default numbers follow the RowClone paper's relative costs: an in-DRAM
/// copy consumes roughly 74× less energy than moving a row over the memory
/// channel, which is what gives DNN-Defender its negligible energy overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy per activation (pJ).
    pub e_act: f64,
    /// Energy per precharge (pJ).
    pub e_pre: f64,
    /// Energy per full-row read over the channel (pJ).
    pub e_rd: f64,
    /// Energy per full-row write over the channel (pJ).
    pub e_wr: f64,
    /// Energy per RowClone copy (pJ) — in-array, no channel transfer.
    pub e_row_clone: f64,
    /// Energy per explicit refresh (pJ).
    pub e_refresh: f64,
}

impl EnergyModel {
    /// DDR4-flavoured defaults.
    pub fn ddr4() -> Self {
        EnergyModel {
            e_act: 909.0,
            e_pre: 632.0,
            // Channel transfer of an 8 KiB row dominates rd/wr energy.
            e_rd: 35_000.0,
            e_wr: 35_000.0,
            // RowClone: two ACTs + PRE, no channel transfer (~74x cheaper
            // than a read-modify-write copy through the controller).
            e_row_clone: 2.0 * 909.0 + 632.0,
            e_refresh: 1_200.0,
        }
    }

    /// Energy (pJ) of copying one row via the memory channel
    /// (read + write), for comparison against [`EnergyModel::e_row_clone`].
    pub fn channel_copy_pj(&self) -> f64 {
        self.e_rd + self.e_wr
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::ddr4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_counters() {
        let early = MemStats {
            acts: 10,
            busy: Nanos(100),
            ..MemStats::new()
        };
        let late = MemStats {
            acts: 25,
            busy: Nanos(400),
            ..MemStats::new()
        };
        let d = late.since(&early);
        assert_eq!(d.acts, 15);
        assert_eq!(d.busy, Nanos(300));
    }

    #[test]
    fn rowclone_is_much_cheaper_than_channel_copy() {
        let e = EnergyModel::ddr4();
        assert!(e.channel_copy_pj() / e.e_row_clone > 20.0);
    }
}
