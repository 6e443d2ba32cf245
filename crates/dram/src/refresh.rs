//! Auto-refresh scheduling model.
//!
//! DDR devices refresh all rows once per `T_ref` (64 ms) using `8192`
//! distributed `REF` commands, each refreshing a bundle of rows and
//! stalling the bank for `t_rfc`. DNN-Defender's security argument leans
//! on this window: any disturbance that has not reached `T_RH` by the
//! time the victim's refresh bundle comes around is wiped. This module
//! models the schedule analytically (the lazy epoch mechanism in
//! [`crate::rowhammer`] already provides the window semantics; here we
//! account for *which rows refresh when* and what the refresh traffic
//! costs).

use crate::geometry::DramConfig;
use crate::timing::Nanos;

/// Distributed-refresh schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshSchedule {
    /// Refresh interval over which every row is refreshed once.
    pub t_ref: Nanos,
    /// Number of `REF` commands per interval (8192 for DDR4).
    pub commands_per_interval: u32,
    /// Bank-stall time per `REF` command.
    pub t_rfc: Nanos,
    /// Rows refreshed by one `REF` command.
    pub rows_per_command: u32,
}

impl RefreshSchedule {
    /// Standard schedule for a device configuration.
    pub fn from_config(config: &DramConfig) -> Self {
        let commands_per_interval = 8192u32;
        let rows = config.rows_per_subarray * config.subarrays_per_bank;
        RefreshSchedule {
            t_ref: config.timing.t_ref,
            commands_per_interval,
            t_rfc: Nanos(350),
            rows_per_command: (rows as u32).div_ceil(commands_per_interval).max(1),
        }
    }

    /// Interval between consecutive `REF` commands (`t_refi`, ~7.8 µs).
    pub fn t_refi(&self) -> Nanos {
        self.t_ref / u128::from(self.commands_per_interval)
    }

    /// Time at which a given row (by its per-bank refresh order) is next
    /// refreshed after `now`.
    pub fn next_refresh_of(&self, row_order: u32, now: Nanos) -> Nanos {
        let slot = row_order / self.rows_per_command;
        let slot_offset = self.t_refi() * u128::from(slot);
        let period_start = Nanos(now.0 - now.0 % self.t_ref.0);
        let this_period = period_start + slot_offset;
        if this_period.0 > now.0 {
            this_period
        } else {
            this_period + self.t_ref
        }
    }

    /// The longest time any row can go unrefreshed (its exposure window):
    /// exactly one full `t_ref`.
    pub fn max_exposure(&self) -> Nanos {
        self.t_ref
    }

    /// Fraction of bank time consumed by refresh
    /// (`commands × t_rfc / t_ref`).
    pub fn bandwidth_overhead(&self) -> f64 {
        (self.t_rfc.0 as f64 * f64::from(self.commands_per_interval)) / self.t_ref.0 as f64
    }

    /// How many hammer activations fit between two refreshes of the same
    /// victim — the quantity that must stay below `T_RH` for plain
    /// auto-refresh to be safe on its own.
    pub fn activations_per_exposure(&self, t_act: Nanos) -> u64 {
        (self.max_exposure() / t_act) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    fn schedule() -> RefreshSchedule {
        RefreshSchedule::from_config(&DramConfig::lpddr4_small())
    }

    #[test]
    fn t_refi_is_about_7_8_us() {
        let s = schedule();
        let refi = s.t_refi();
        assert!(refi.0 > 7_000 && refi.0 < 8_000, "t_refi = {refi}");
    }

    #[test]
    fn refresh_overhead_is_a_few_percent() {
        let s = schedule();
        let o = s.bandwidth_overhead();
        assert!(o > 0.01 && o < 0.1, "overhead = {o}");
    }

    #[test]
    fn every_row_refreshes_within_one_interval() {
        let s = schedule();
        let rows = 128 * 8; // lpddr4_small rows per bank
        for order in [0u32, 1, 511, rows - 1] {
            let t = s.next_refresh_of(order, Nanos(0));
            assert!(t <= s.t_ref, "row {order} refreshed late: {t}");
        }
    }

    #[test]
    fn next_refresh_is_strictly_in_the_future() {
        let s = schedule();
        let now = Nanos::from_millis(10);
        for order in [0u32, 100, 1000] {
            assert!(s.next_refresh_of(order, now) > now);
        }
    }

    #[test]
    fn auto_refresh_alone_cannot_stop_modern_rowhammer() {
        // The paper's premise: within one t_ref an attacker fits far more
        // than T_RH = 4800 activations, so auto-refresh alone fails and a
        // targeted mechanism is needed.
        let s = schedule();
        let t = TimingParams::lpddr4();
        let acts = s.activations_per_exposure(t.t_act);
        assert!(
            acts > 4800 * 100,
            "exposure window only admits {acts} activations"
        );
    }
}
