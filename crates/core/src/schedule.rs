//! Swap-timeline scheduling with the Fig. 6 pipeline overlap.
//!
//! A standalone four-step swap costs 4 RowClone copies (`4 × T_AAP`). In a
//! chain of swaps, step 4 of swap *n* (stashing a non-target row in the
//! reserved slot) doubles as step 1 of swap *n+1* (that row becomes the
//! next "random" source), so every swap after the first costs only
//! `3 × T_AAP` — which is where the paper's `T_swap = 3 × T_AAP` comes
//! from. Swaps in different banks proceed in parallel.

use dd_dram::{Nanos, TimingParams};

/// Latency accounting for a batch of swaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapSchedule {
    /// Swaps in the chain.
    pub swaps: u64,
    /// RowClone copies issued.
    pub row_clones: u64,
    /// Wall-clock latency of the chain within one bank.
    pub latency: Nanos,
}

/// Latency of a chain of `n` pipelined swaps in one bank.
///
/// `overlap = false` models the naive schedule (every swap pays all four
/// copies); `true` models the Fig. 6 pipeline.
pub fn chain_schedule(n: u64, timing: &TimingParams, overlap: bool) -> SwapSchedule {
    if n == 0 {
        return SwapSchedule {
            swaps: 0,
            row_clones: 0,
            latency: Nanos::ZERO,
        };
    }
    let copies = if overlap { 4 + 3 * (n - 1) } else { 4 * n };
    SwapSchedule {
        swaps: n,
        row_clones: copies,
        latency: timing.t_aap * u128::from(copies),
    }
}

/// Latency of `n` swaps spread round-robin over `banks` banks that operate
/// in parallel (each bank runs its own pipelined chain).
pub fn parallel_schedule(n: u64, banks: u64, timing: &TimingParams, overlap: bool) -> SwapSchedule {
    if n == 0 || banks == 0 {
        return SwapSchedule {
            swaps: 0,
            row_clones: 0,
            latency: Nanos::ZERO,
        };
    }
    let base = n / banks;
    let extra = n % banks;
    let longest = chain_schedule(base + u64::from(extra > 0), timing, overlap);
    let mut row_clones = 0u64;
    for b in 0..banks {
        let chain = base + u64::from(b < extra);
        row_clones += chain_schedule(chain, timing, overlap).row_clones;
    }
    SwapSchedule {
        swaps: n,
        row_clones,
        latency: longest.latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_swap_costs_four_copies() {
        let t = TimingParams::ddr4();
        let s = chain_schedule(1, &t, true);
        assert_eq!(s.row_clones, 4);
        assert_eq!(s.latency, Nanos(360));
    }

    #[test]
    fn pipelined_chain_amortizes_to_three_copies() {
        let t = TimingParams::ddr4();
        let s = chain_schedule(10, &t, true);
        assert_eq!(s.row_clones, 4 + 27);
        // Amortized cost approaches T_swap = 3 × T_AAP.
        let amortized = s.latency.0 / 10;
        assert!(amortized < 4 * t.t_aap.0 && amortized >= 3 * t.t_aap.0);
    }

    #[test]
    fn naive_chain_is_slower() {
        let t = TimingParams::ddr4();
        let fast = chain_schedule(100, &t, true);
        let slow = chain_schedule(100, &t, false);
        assert!(slow.latency > fast.latency);
        assert_eq!(slow.row_clones, 400);
    }

    #[test]
    fn parallel_banks_divide_latency() {
        let t = TimingParams::ddr4();
        let serial = chain_schedule(160, &t, true);
        let parallel = parallel_schedule(160, 16, &t, true);
        assert_eq!(parallel.swaps, 160);
        // 16 banks × 10-swap chains.
        assert!(parallel.latency.0 <= serial.latency.0 / 10);
        // Copies conserved: 16 chains of 10 → 16 × 31.
        assert_eq!(parallel.row_clones, 16 * 31);
    }

    #[test]
    fn zero_swaps_cost_nothing() {
        let t = TimingParams::ddr4();
        assert_eq!(chain_schedule(0, &t, true).latency, Nanos::ZERO);
        assert_eq!(parallel_schedule(0, 16, &t, true).latency, Nanos::ZERO);
    }

    #[test]
    fn uneven_parallel_split() {
        let t = TimingParams::ddr4();
        let s = parallel_schedule(5, 4, &t, true);
        // Longest chain = 2 swaps = 7 copies.
        assert_eq!(s.latency, t.t_aap * 7);
        // 1 chain of 2 (7 copies) + 3 chains of 1 (4 copies each).
        assert_eq!(s.row_clones, 7 + 12);
    }
}
