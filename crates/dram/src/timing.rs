//! Timing constants and the `Nanos` time newtype.
//!
//! The paper's security analysis (§5.1) is driven entirely by four
//! quantities: `T_ACT` (time per activation, which bounds how fast an
//! attacker can hammer), `T_AAP` (ACT–ACT–PRE, the cost of one RowClone
//! copy), `T_swap = 3 × T_AAP` (one four-step-amortized swap) and
//! `T_ref = 64 ms` (the auto-refresh interval that closes a RowHammer
//! window). We reproduce those constants here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration in nanoseconds.
///
/// A newtype is used instead of `std::time::Duration` because simulated DRAM
/// time is arithmetic-heavy (scaled, divided into windows) and we want
/// integer-exact behaviour plus `u128` headroom for multi-year
/// time-to-break computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u128);

impl Nanos {
    /// Zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Construct from microseconds.
    pub fn from_micros(us: u128) -> Self {
        Nanos(us * 1_000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u128) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub fn from_secs(s: u128) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Value in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl Mul<u128> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u128) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u128> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u128) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Div<Nanos> for Nanos {
    /// How many times `rhs` fits in `self` (integer division) — used for
    /// "swaps per threshold window"-style capacity computations.
    type Output = u128;
    fn div(self, rhs: Nanos) -> u128 {
        self.0 / rhs.0
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// DRAM timing parameters used by the simulator and the analytical models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// Row activation-to-activation time (`tRC`-like): the minimum time
    /// between two hammering activations of the same aggressor. Bounds the
    /// attacker's hammer rate.
    pub t_act: Nanos,
    /// Precharge time.
    pub t_pre: Nanos,
    /// Column read latency.
    pub t_rd: Nanos,
    /// Column write latency.
    pub t_wr: Nanos,
    /// ACT–ACT–PRE time of one RowClone copy (90 ns in the paper, from
    /// SHADOW's unmodified-DRAM timing baseline).
    pub t_aap: Nanos,
    /// Auto-refresh interval (`T_ref`, 64 ms).
    pub t_ref: Nanos,
}

impl TimingParams {
    /// DDR4-flavoured constants.
    pub fn ddr4() -> Self {
        TimingParams {
            t_act: Nanos(45),
            t_pre: Nanos(15),
            t_rd: Nanos(15),
            t_wr: Nanos(15),
            t_aap: Nanos(90),
            t_ref: Nanos::from_millis(64),
        }
    }

    /// LPDDR4-flavoured constants. `t_act` is calibrated so the maximum
    /// number of in-window BFAs matches the paper's Fig. 8(b) anchor points
    /// (≈55 K attempts per `T_ref` at `T_RH` = 1k on a 16-bank device;
    /// see EXPERIMENTS.md).
    pub fn lpddr4() -> Self {
        TimingParams {
            t_act: Nanos(18),
            t_pre: Nanos(15),
            t_rd: Nanos(15),
            t_wr: Nanos(15),
            t_aap: Nanos(90),
            t_ref: Nanos::from_millis(64),
        }
    }

    /// `T_swap = 3 × T_AAP`: the steady-state cost of one DNN-Defender swap.
    ///
    /// A full four-step swap issues four RowClone copies, but the Fig. 6
    /// pipeline overlaps step 1 of swap *n+1* with step 4 of swap *n*, so
    /// the amortized cost is three copies (§5.1: `T_swap = 3 × T_AAP`).
    pub fn t_swap(&self) -> Nanos {
        self.t_aap * 3
    }

    /// The RowHammer threshold window: the shortest wall-clock time in which
    /// an attacker can drive one aggressor from 0 to `t_rh` activations.
    pub fn threshold_window(&self, t_rh: u64) -> Nanos {
        self.t_act * u128::from(t_rh)
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::lpddr4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_swap_is_three_t_aap() {
        let t = TimingParams::ddr4();
        assert_eq!(t.t_swap(), Nanos(270));
    }

    #[test]
    fn threshold_window_scales_linearly() {
        let t = TimingParams::ddr4();
        assert_eq!(t.threshold_window(1000), Nanos(45_000));
        assert_eq!(t.threshold_window(2000), Nanos(90_000));
    }

    #[test]
    fn nanos_conversions() {
        assert_eq!(Nanos::from_millis(64).0, 64_000_000);
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1000));
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos(100);
        let b = Nanos(30);
        assert_eq!(a + b, Nanos(130));
        assert_eq!(a - b, Nanos(70));
        assert_eq!(a * 3, Nanos(300));
        assert_eq!(a / 3, Nanos(33));
        assert_eq!(a / b, 3);
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        let total: Nanos = [a, b, Nanos(1)].into_iter().sum();
        assert_eq!(total, Nanos(131));
    }

    #[test]
    fn nanos_display_units() {
        assert_eq!(Nanos(17).to_string(), "17ns");
        assert_eq!(Nanos(1_500).to_string(), "1.500us");
        assert_eq!(Nanos(2_000_000).to_string(), "2.000ms");
        assert_eq!(Nanos::from_secs(3).to_string(), "3.000s");
    }
}
