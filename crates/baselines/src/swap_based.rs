//! Aggressor-focused swap mitigations: RRS [Saileshwar et al., ASPLOS
//! 2022] and SRS [Woo et al. 2022].
//!
//! Both swap the *aggressor* row with a random row once its activation
//! count crosses a trip point. Against a blind attacker this breaks the
//! spatial correlation between aggressor and victim. Against the paper's
//! white-box attacker — who tracks the *victim* and simply hammers
//! whatever row is physically adjacent to it — the swap is purposeless:
//! the victim's accumulated disturbance survives the swap, and the
//! attacker keeps hammering the same *location* (§1, §5.1: "even the SRS
//! mechanism cannot defend against white-box attacks for a period of one
//! day").
//!
//! The mechanistic simulation below shows exactly that: under
//! victim-tracking the flip lands; under aggressor-tracking (the blind
//! attacker RRS was designed for) the campaign is broken with high
//! probability.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dd_dram::{DramConfig, DramError, GlobalRowId, MemoryController, RowInSubarray};
use dnn_defender::defense::{CampaignView, DefenseMechanism, DefenseStats, FlipAttempt};
use dnn_defender::overhead::{overhead_table, OverheadEntry};

/// Which swap-based scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwapScheme {
    /// Randomized Row-Swap: per-row counters, swap at trip point.
    Rrs,
    /// Secure Row-Swap: sampled counters for crucial data — fewer
    /// counters, lower swap rate, same security argument.
    Srs,
}

impl SwapScheme {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SwapScheme::Rrs => "RRS",
            SwapScheme::Srs => "SRS",
        }
    }

    /// Fraction of the threshold at which the aggressor gets swapped.
    pub fn trip_fraction(self) -> f64 {
        match self {
            SwapScheme::Rrs => 0.5,
            // SRS tolerates a later trip thanks to its threat analysis,
            // halving the swap rate.
            SwapScheme::Srs => 0.625,
        }
    }
}

/// What the attacker tracks between swaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackerTracking {
    /// Blind/aggressor-focused attacker: it keeps hammering the *data* it
    /// chose as aggressor, following it to its new random location —
    /// whose neighbours are no longer the victim.
    FollowsAggressorData,
    /// White-box victim-focused attacker (the paper's threat model): it
    /// hammers whatever row is currently adjacent to the victim.
    FollowsVictimAdjacency,
}

/// Outcome of one attacker campaign against a swap-based mitigation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapCampaignOutcome {
    /// Whether the victim bit flipped.
    pub flipped: bool,
    /// Aggressor swaps the mitigation performed during the campaign.
    pub swaps: u64,
}

/// RRS/SRS defense state.
#[derive(Debug)]
pub struct RowSwapDefense {
    scheme: SwapScheme,
    /// Swaps performed in total.
    pub total_swaps: u64,
}

impl RowSwapDefense {
    /// New defense of the given scheme.
    pub fn new(scheme: SwapScheme) -> Self {
        RowSwapDefense {
            scheme,
            total_swaps: 0,
        }
    }

    /// The scheme.
    pub fn scheme(&self) -> SwapScheme {
        self.scheme
    }

    /// Play one full campaign: the attacker needs `T_RH` disturbance on
    /// `victim`; the mitigation swaps the aggressor row every time its
    /// activation count reaches the trip point.
    ///
    /// # Errors
    ///
    /// Propagates [`DramError`] from the memory operations.
    pub fn run_campaign(
        &mut self,
        mem: &mut MemoryController,
        victim: GlobalRowId,
        bit_in_row: usize,
        tracking: AttackerTracking,
        rng: &mut impl Rng,
    ) -> Result<SwapCampaignOutcome, DramError> {
        let t_rh = mem.config().rowhammer_threshold;
        let trip = ((t_rh as f64) * self.scheme.trip_fraction()) as u64;
        let rows = mem.config().rows_per_subarray;
        let mut aggressor = dd_dram::rowhammer::preferred_aggressor(victim, rows);
        let mut swaps = 0u64;

        // The campaign proceeds in bursts of `trip` activations; after each
        // burst the mitigation swaps the aggressor away.
        let mut hammered = 0u64;
        while hammered < t_rh * 4 {
            let burst = trip.min(t_rh * 4 - hammered);
            mem.hammer(aggressor, burst)?;
            hammered += burst;
            if mem.disturbance(victim) >= t_rh {
                let outcome = mem.attempt_flip(victim, &[bit_in_row])?;
                if outcome.flipped() {
                    self.total_swaps += swaps;
                    return Ok(SwapCampaignOutcome {
                        flipped: true,
                        swaps,
                    });
                }
            }
            // Mitigation: swap the aggressor row's *data* to a random row.
            let dest = RowInSubarray(rng.gen_range(0..mem.config().data_rows_per_subarray()));
            swaps += 1;
            match tracking {
                AttackerTracking::FollowsAggressorData => {
                    // The attacker chases its chosen data to `dest`, whose
                    // neighbours are unrelated rows: the victim stops
                    // accumulating disturbance, and the auto-refresh wins.
                    aggressor = GlobalRowId {
                        bank: victim.bank,
                        subarray: victim.subarray,
                        row: dest,
                    };
                    if aggressor.row == victim.row {
                        // Landing next to itself is harmless too; skip.
                        break;
                    }
                    // Once the aggressor data is no longer adjacent to the
                    // victim, further hammering it never disturbs the
                    // victim: the campaign is dead.
                    if !mem
                        .rowhammer_model()
                        .victims_of(aggressor)
                        .contains(&victim)
                    {
                        break;
                    }
                }
                AttackerTracking::FollowsVictimAdjacency => {
                    // The white-box attacker re-aims at the victim's
                    // neighbour *location*: the swap changed which data
                    // lives there, not the adjacency. The victim's charge
                    // keeps draining. Nothing to update.
                }
            }
        }
        // Final attempt with whatever disturbance accumulated.
        let outcome = mem.attempt_flip(victim, &[bit_in_row])?;
        self.total_swaps += swaps;
        Ok(SwapCampaignOutcome {
            flipped: outcome.flipped(),
            swaps,
        })
    }
}

/// RRS/SRS behind the [`DefenseMechanism`] API: owns its RNG and models a
/// fixed attacker-tracking assumption per instance.
///
/// The standard BFA attacker of the common protocol is blind to the
/// mitigation and chases its chosen aggressor *data*
/// ([`AttackerTracking::FollowsAggressorData`]) — the attacker RRS was
/// designed against, and the calibration the Table 3 comparison uses. The
/// paper's white-box refutation (Fig. 9 / §5.1) instantiates the
/// mechanism with [`AttackerTracking::FollowsVictimAdjacency`] instead.
#[derive(Debug)]
pub struct RowSwapMechanism {
    inner: RowSwapDefense,
    tracking: AttackerTracking,
    rng: StdRng,
    stats: DefenseStats,
}

impl RowSwapMechanism {
    /// Mechanism under the standard (aggressor-data-tracking) attacker.
    pub fn new(scheme: SwapScheme, seed: u64) -> Self {
        RowSwapMechanism::with_tracking(scheme, AttackerTracking::FollowsAggressorData, seed)
    }

    /// Mechanism under an explicit attacker-tracking assumption.
    pub fn with_tracking(scheme: SwapScheme, tracking: AttackerTracking, seed: u64) -> Self {
        RowSwapMechanism {
            inner: RowSwapDefense::new(scheme),
            tracking,
            rng: StdRng::seed_from_u64(seed),
            stats: DefenseStats::default(),
        }
    }

    /// The wrapped scheme.
    pub fn scheme(&self) -> SwapScheme {
        self.inner.scheme()
    }
}

impl DefenseMechanism for RowSwapMechanism {
    fn name(&self) -> &str {
        self.inner.scheme().name()
    }

    /// One campaign through the mechanistic RRS/SRS simulation. The
    /// mitigation's swaps are virtual (aggressor re-aim bookkeeping, no
    /// data movement), so a deployed weight map stays coherent.
    fn filter_flip(&mut self, view: CampaignView<'_>) -> Result<FlipAttempt, DramError> {
        let CampaignView {
            mem,
            victim,
            bit_in_row,
            ..
        } = view;
        let before = self.inner.total_swaps;
        let outcome =
            self.inner
                .run_campaign(mem, victim, bit_in_row, self.tracking, &mut self.rng)?;
        self.stats.defense_ops += self.inner.total_swaps - before;
        let attempt = if outcome.flipped {
            FlipAttempt::Landed
        } else {
            FlipAttempt::Resisted
        };
        self.stats.record(attempt);
        Ok(attempt)
    }

    fn stats(&self) -> DefenseStats {
        self.stats
    }

    fn overhead(&self, config: &DramConfig) -> Option<OverheadEntry> {
        let framework = match self.inner.scheme() {
            SwapScheme::Rrs => "RRS",
            SwapScheme::Srs => "SRS",
        };
        overhead_table(config)
            .into_iter()
            .find(|e| e.framework == framework)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_nn::init::seeded_rng;

    fn setup() -> (MemoryController, GlobalRowId) {
        let mem = MemoryController::try_new(DramConfig::lpddr4_small()).expect("valid config");
        (mem, GlobalRowId::new(0, 0, 10))
    }

    #[test]
    fn rrs_defeats_blind_attacker() {
        let (mut mem, victim) = setup();
        let mut defense = RowSwapDefense::new(SwapScheme::Rrs);
        let mut rng = seeded_rng(1);
        let mut flips = 0;
        for _ in 0..10 {
            let out = defense
                .run_campaign(
                    &mut mem,
                    victim,
                    0,
                    AttackerTracking::FollowsAggressorData,
                    &mut rng,
                )
                .unwrap();
            flips += u32::from(out.flipped);
            mem.advance(dd_dram::Nanos::from_millis(65)); // next window
        }
        // The blind attacker almost never wins (it can only win if the
        // random destination happens to be adjacent to the victim).
        assert!(flips <= 1, "RRS failed against blind attacker: {flips}/10");
    }

    #[test]
    fn rrs_fails_against_victim_tracking_attacker() {
        let (mut mem, victim) = setup();
        let mut defense = RowSwapDefense::new(SwapScheme::Rrs);
        let mut rng = seeded_rng(2);
        let out = defense
            .run_campaign(
                &mut mem,
                victim,
                0,
                AttackerTracking::FollowsVictimAdjacency,
                &mut rng,
            )
            .unwrap();
        assert!(out.flipped, "white-box attacker should defeat RRS");
        assert!(out.swaps >= 1, "mitigation never fired");
    }

    #[test]
    fn srs_swaps_less_than_rrs() {
        let (mut mem, victim) = setup();
        let mut rng = seeded_rng(3);
        let mut rrs = RowSwapDefense::new(SwapScheme::Rrs);
        let r = rrs
            .run_campaign(
                &mut mem,
                victim,
                0,
                AttackerTracking::FollowsVictimAdjacency,
                &mut rng,
            )
            .unwrap();
        let (mut mem2, victim2) = setup();
        let mut srs = RowSwapDefense::new(SwapScheme::Srs);
        let s = srs
            .run_campaign(
                &mut mem2,
                victim2,
                0,
                AttackerTracking::FollowsVictimAdjacency,
                &mut rng,
            )
            .unwrap();
        assert!(
            s.swaps <= r.swaps,
            "SRS should swap at most as often (srs {} vs rrs {})",
            s.swaps,
            r.swaps
        );
    }

    #[test]
    fn scheme_metadata() {
        assert_eq!(SwapScheme::Rrs.name(), "RRS");
        assert!(SwapScheme::Srs.trip_fraction() > SwapScheme::Rrs.trip_fraction());
    }
}
