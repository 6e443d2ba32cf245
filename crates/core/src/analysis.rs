//! Analytical security and performance models (§5.1).
//!
//! Implements the paper's formulas:
//!
//! * `N_s = S_bit / banks` — protected rows per bank;
//! * `T_swap = 3 × T_AAP` — steady-state swap cost;
//! * max swaps per threshold window = `(T_ACT × T_RH) / T_swap`;
//! * `T_n = T_ACT × T_RH + T_swap × N_s`;
//! * `N = (T_ref / T_n) × N_s` — swaps per refresh interval;
//!
//! plus the derived Fig. 8 quantities: attacker BFA capacity per `T_ref`,
//! maximum defendable BFAs, time-to-break, and latency per `T_ref`.
//!
//! ## Calibration
//!
//! Two numbers are calibrated against the paper (see EXPERIMENTS.md):
//! `T_ACT = 18 ns` makes the attacker capacity hit the paper's Fig. 8(b)
//! anchors (≈55 K BFAs per `T_ref` at `T_RH` = 1k on 16 banks), and
//! [`SecurityModel::calibration_days_per_slack`] anchors time-to-break at
//! the paper's (T_RH = 4k → 1180 days) point. Everything else — linearity
//! in `T_RH`, the DD/SHADOW gap being the inverse of their per-row
//! operation costs, saturation of latency — is structural.

use dd_dram::{DramConfig, Nanos, TimingParams};

/// Per-row defense operation cost of a mitigation, used to compare
/// DNN-Defender against SHADOW on equal footing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseOp {
    /// DNN-Defender four-step swap, amortized `3 × T_AAP`.
    DnnDefenderSwap,
    /// SHADOW intra-subarray shuffle: the RRC shuffle plus pointer
    /// maintenance costs roughly one extra partial copy, ≈ `4 × T_AAP`.
    ShadowShuffle,
}

impl DefenseOp {
    /// Wall-clock cost of protecting one row once.
    pub fn cost(self, timing: &TimingParams) -> Nanos {
        match self {
            DefenseOp::DnnDefenderSwap => timing.t_swap(),
            // 3.96 × T_AAP — fitted to SHADOW's reported time-to-break
            // ratio (894 / 1180 at T_RH = 4k); see EXPERIMENTS.md.
            DefenseOp::ShadowShuffle => Nanos(timing.t_aap.0 * 396 / 100),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DefenseOp::DnnDefenderSwap => "DNN-Defender",
            DefenseOp::ShadowShuffle => "SHADOW",
        }
    }
}

/// The analytical model, parameterized by device geometry and timing.
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityModel {
    /// Number of banks (defense parallelism units).
    pub banks: u64,
    /// Subarrays per bank (swap chains within a bank can interleave
    /// across subarrays — the paper's "parallelism" knob).
    pub subarrays_per_bank: u64,
    /// Timing constants.
    pub timing: TimingParams,
    /// Days of time-to-break per unit of defense slack; anchored at the
    /// paper's (T_RH = 4k, DNN-Defender → 1180 days) point.
    pub calibration_days_per_slack: f64,
}

impl SecurityModel {
    /// Model for a device configuration.
    pub fn from_config(config: &DramConfig) -> Self {
        SecurityModel {
            banks: config.banks as u64,
            subarrays_per_bank: config.subarrays_per_bank as u64,
            timing: config.timing,
            calibration_days_per_slack: 4.425,
        }
    }

    /// `N_s`: protected rows per bank for a total secured-bit count,
    /// assuming the worst case of one secured bit per row (§5.1).
    pub fn rows_per_bank(&self, s_bit: u64) -> u64 {
        s_bit.div_ceil(self.banks)
    }

    /// The attacker's hammer window: `T_ACT × T_RH`.
    pub fn threshold_window(&self, t_rh: u64) -> Nanos {
        self.timing.threshold_window(t_rh)
    }

    /// Maximum swap operations that fit in one threshold window
    /// (`(T_ACT × T_RH) / T_swap`) — the per-bank defendable row count.
    pub fn max_swaps_per_window(&self, t_rh: u64) -> u64 {
        (self.threshold_window(t_rh) / self.timing.t_swap()) as u64
    }

    /// `T_n = T_ACT × T_RH + T_swap × N_s`.
    pub fn t_n(&self, t_rh: u64, n_s: u64) -> Nanos {
        self.threshold_window(t_rh) + self.timing.t_swap() * u128::from(n_s)
    }

    /// `N = (T_ref / T_n) × N_s`: swap operations in one refresh interval.
    pub fn swaps_per_tref(&self, t_rh: u64, n_s: u64) -> u64 {
        ((self.timing.t_ref / self.t_n(t_rh, n_s)) * u128::from(n_s)) as u64
    }

    /// The attacker's capacity: complete `T_RH`-activation campaigns per
    /// refresh interval across all banks — the paper's 7K/14K/28K/55K
    /// anchor points of Fig. 8(b).
    pub fn max_bfas_per_tref(&self, t_rh: u64) -> u64 {
        ((self.timing.t_ref / self.threshold_window(t_rh)) as u64) * self.banks
    }

    /// Maximum number of BFAs the defense can absorb per refresh interval
    /// (Fig. 8(a) bars): per-bank window capacity times the parallel
    /// units (banks × interleaved subarray chains).
    pub fn max_defended_bfas(&self, t_rh: u64) -> u64 {
        self.max_swaps_per_window(t_rh) * self.banks * self.subarrays_per_bank
    }

    /// Defense *slack* at a threshold: how many defense operations fit in
    /// one attacker window. The bigger the slack, the more relocations an
    /// attacker must chase through before it can catch a vulnerable row.
    pub fn slack(&self, t_rh: u64, op: DefenseOp) -> f64 {
        self.threshold_window(t_rh).0 as f64 / op.cost(&self.timing).0 as f64
    }

    /// Expected time-to-break in days (Fig. 8(a)).
    ///
    /// Structurally `days = calibration × slack(T_RH, op)`: linear in
    /// `T_RH` and inversely proportional to the defense's per-row cost,
    /// which reproduces both the paper's growth with `T_RH` and the
    /// DD-vs-SHADOW gap (286 days at 4k).
    pub fn time_to_break_days(&self, t_rh: u64, op: DefenseOp) -> f64 {
        self.calibration_days_per_slack * self.slack(t_rh, op)
    }

    /// Defense latency consumed per refresh interval for `n_bfas` attacks
    /// (Fig. 8(b)). Uses a saturating utilization curve: the raw demand is
    /// `n_bfas × op_cost`, but swap issue contends with the attacker's own
    /// activations, so the latency asymptotically approaches `T_ref`
    /// ("the rate of latency increase decelerates and eventually reaches
    /// a limit").
    pub fn latency_per_tref(&self, n_bfas: u64, op: DefenseOp) -> Nanos {
        let demand = op.cost(&self.timing).0 as f64 * n_bfas as f64;
        let t_ref = self.timing.t_ref.0 as f64;
        let u = demand / t_ref;
        Nanos((t_ref * u / (1.0 + u)) as u128)
    }
}

/// One row of the Fig. 1(a) RowHammer-threshold survey \[23\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RhThresholdPoint {
    /// DRAM generation label.
    pub generation: &'static str,
    /// Measured hammer-count threshold.
    pub threshold: u64,
}

/// The Fig. 1(a) data: `T_RH` across DRAM generations, showing the ~4.5×
/// drop from DDR3 (new) to LPDDR4 (new).
pub fn rh_thresholds() -> Vec<RhThresholdPoint> {
    vec![
        RhThresholdPoint {
            generation: "DDR3 (old)",
            threshold: 139_000,
        },
        RhThresholdPoint {
            generation: "DDR3 (new)",
            threshold: 22_400,
        },
        RhThresholdPoint {
            generation: "DDR4 (old)",
            threshold: 17_500,
        },
        RhThresholdPoint {
            generation: "DDR4 (new)",
            threshold: 10_000,
        },
        RhThresholdPoint {
            generation: "LPDDR4 (old)",
            threshold: 16_800,
        },
        RhThresholdPoint {
            generation: "LPDDR4 (new)",
            threshold: 4_800,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SecurityModel {
        SecurityModel::from_config(&DramConfig::lpddr4_small())
    }

    #[test]
    fn attacker_capacity_matches_paper_anchors() {
        let m = model();
        // Paper Fig. 8(b): ≈55K / 28K / 14K / 7K BFAs per T_ref.
        let points = [
            (1000u64, 55_000u64),
            (2000, 28_000),
            (4000, 14_000),
            (8000, 7_000),
        ];
        for (t_rh, expected) in points {
            let got = m.max_bfas_per_tref(t_rh);
            let err = (got as f64 - expected as f64).abs() / expected as f64;
            assert!(err < 0.05, "T_RH={t_rh}: got {got}, paper {expected}");
        }
    }

    #[test]
    fn time_to_break_matches_paper_at_4k() {
        let m = model();
        let dd = m.time_to_break_days(4000, DefenseOp::DnnDefenderSwap);
        let shadow = m.time_to_break_days(4000, DefenseOp::ShadowShuffle);
        assert!((dd - 1180.0).abs() < 15.0, "DD at 4k: {dd}");
        assert!((shadow - 894.0).abs() < 15.0, "SHADOW at 4k: {shadow}");
        assert!((dd - shadow - 286.0).abs() < 20.0, "gap: {}", dd - shadow);
    }

    #[test]
    fn dd_beats_shadow_at_every_threshold() {
        let m = model();
        for t_rh in [1000u64, 2000, 4000, 8000] {
            assert!(
                m.time_to_break_days(t_rh, DefenseOp::DnnDefenderSwap)
                    > m.time_to_break_days(t_rh, DefenseOp::ShadowShuffle),
                "T_RH = {t_rh}"
            );
        }
    }

    #[test]
    fn time_to_break_grows_with_threshold() {
        let m = model();
        let days: Vec<f64> = [1000u64, 2000, 4000, 8000]
            .iter()
            .map(|&t| m.time_to_break_days(t, DefenseOp::DnnDefenderSwap))
            .collect();
        assert!(days.windows(2).all(|w| w[1] > w[0]));
        // Linear in T_RH: doubling the threshold doubles the days.
        assert!((days[1] / days[0] - 2.0).abs() < 0.01);
    }

    #[test]
    fn paper_formulas_compose() {
        let m = model();
        // N_s for 4800 secured bits over 16 banks.
        let n_s = m.rows_per_bank(4800);
        assert_eq!(n_s, 300);
        let t_n = m.t_n(4000, n_s);
        assert_eq!(t_n, m.threshold_window(4000) + m.timing.t_swap() * 300);
        let n = m.swaps_per_tref(4000, n_s);
        assert!(n > 0);
        // Sanity: swaps per tref can't exceed tref / t_swap * banks.
        assert!(n < (m.timing.t_ref / m.timing.t_swap()) as u64 * m.banks);
    }

    #[test]
    fn latency_saturates() {
        let m = model();
        let l7 = m.latency_per_tref(7_000, DefenseOp::DnnDefenderSwap);
        let l55 = m.latency_per_tref(55_000, DefenseOp::DnnDefenderSwap);
        let l550 = m.latency_per_tref(550_000, DefenseOp::DnnDefenderSwap);
        assert!(l7 < l55 && l55 < l550);
        // Never exceeds T_ref.
        assert!(l550 < m.timing.t_ref);
        // Deceleration: the second 10x brings a smaller relative increase.
        let r1 = l55.0 as f64 / l7.0 as f64;
        let r2 = l550.0 as f64 / l55.0 as f64;
        assert!(r2 < r1);
    }

    #[test]
    fn shadow_latency_is_higher() {
        let m = model();
        for n in [7_000u64, 14_000, 28_000, 55_000] {
            assert!(
                m.latency_per_tref(n, DefenseOp::ShadowShuffle)
                    > m.latency_per_tref(n, DefenseOp::DnnDefenderSwap)
            );
        }
    }

    #[test]
    fn rh_threshold_survey_shape() {
        let pts = rh_thresholds();
        assert_eq!(pts.len(), 6);
        let ddr3_new = pts.iter().find(|p| p.generation == "DDR3 (new)").unwrap();
        let lpddr4_new = pts.iter().find(|p| p.generation == "LPDDR4 (new)").unwrap();
        // The ~4.5× reduction highlighted in the paper's intro.
        let ratio = ddr3_new.threshold as f64 / lpddr4_new.threshold as f64;
        assert!((ratio - 4.67).abs() < 0.2);
    }

    #[test]
    fn max_defended_bfas_grows_with_threshold() {
        let m = model();
        let d: Vec<u64> = [1000u64, 2000, 4000, 8000]
            .iter()
            .map(|&t| m.max_defended_bfas(t))
            .collect();
        assert!(d.windows(2).all(|w| w[1] > w[0]));
        // Order of magnitude of the paper's Fig. 8(a) axis (up to ~8e4).
        assert!(d[3] > 10_000 && d[3] < 100_000, "8k capacity: {}", d[3]);
    }
}
