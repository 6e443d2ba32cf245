//! The defense abstraction layer: one trait for every mitigation.
//!
//! The paper's evaluation is comparative — DNN-Defender against Graphene,
//! RRS/SRS, SHADOW, and the software defenses, all under a common BFA
//! protocol (Table 3, Fig. 8). [`DefenseMechanism`] is the common API that
//! makes the comparison mechanical: every mitigation implements the same
//! lifecycle —
//!
//! * [`DefenseMechanism::prepare_victim`] — training-side model transform
//!   (software defenses);
//! * [`DefenseMechanism::on_deploy`] — see the deployed quantized model
//!   and the attacker's data (priority profiling happens here);
//! * [`DefenseMechanism::filter_flip`] — play one attacker campaign on the
//!   simulated device and decide its fate;
//! * [`DefenseMechanism::on_hammer_window`] — refresh-window rollover;
//! * [`DefenseMechanism::stats`] — the Table 3 bookkeeping (Table 2's
//!   hardware cost is [`crate::overhead::overhead_table`]).
//!
//! [`crate::system::ProtectedSystem`] is generic over the installed
//! defense; the scenario matrix in `dd-baselines` sweeps attacker ×
//! defense × device grids over [`DynDefense`] trait objects.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dd_attack::{multi_round_profile, AttackConfig, AttackData};
use dd_dram::rowhammer::preferred_aggressor;
use dd_dram::{DramError, GlobalRowId, MemoryController, RowInSubarray};
use dd_nn::data::Dataset;
use dd_nn::Network;
use dd_qnn::{BitAddr, QModel};

use crate::mapping::WeightMap;
use crate::swap::four_step_swap;

/// Outcome of one attacker campaign against one bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipAttempt {
    /// The bit flipped in DRAM (and the live model).
    Landed,
    /// The defense neutralized the campaign; no single physical location
    /// accumulated `T_RH` disturbance.
    Resisted,
    /// The bit was protected but the defense was out of capacity; the flip
    /// landed.
    DefenseMissed,
}

impl FlipAttempt {
    /// Whether the model was corrupted.
    pub fn landed(self) -> bool {
        !matches!(self, FlipAttempt::Resisted)
    }
}

/// Unified bookkeeping every [`DefenseMechanism`] maintains.
///
/// Invariant (checked by the conformance suite):
/// `flips_resisted + flips_landed == attempts` and
/// `defense_misses <= flips_landed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefenseStats {
    /// Attacker campaigns observed.
    pub attempts: u64,
    /// Campaigns neutralized.
    pub flips_resisted: u64,
    /// Campaigns that corrupted memory.
    pub flips_landed: u64,
    /// Landed campaigns caused by capacity/budget exhaustion.
    pub defense_misses: u64,
    /// Defensive operations issued (swaps, refreshes, shuffles).
    pub defense_ops: u64,
    /// RowClone copies issued by the defense.
    pub row_clones: u64,
    /// Non-target victim rows refreshed opportunistically.
    pub non_target_refreshes: u64,
}

impl DefenseStats {
    /// Record one campaign outcome.
    pub fn record(&mut self, outcome: FlipAttempt) {
        self.attempts += 1;
        if outcome.landed() {
            self.flips_landed += 1;
        } else {
            self.flips_resisted += 1;
        }
        if matches!(outcome, FlipAttempt::DefenseMissed) {
            self.defense_misses += 1;
        }
    }

    /// Whether the bookkeeping invariants hold.
    pub fn invariants_hold(&self) -> bool {
        self.flips_resisted + self.flips_landed == self.attempts
            && self.defense_misses <= self.flips_landed
    }

    /// Serialize for the artifact pipeline.
    pub fn to_json(&self) -> crate::json::Json {
        crate::json::Json::obj()
            .with("attempts", crate::json::Json::uint(self.attempts))
            .with(
                "flips_resisted",
                crate::json::Json::uint(self.flips_resisted),
            )
            .with("flips_landed", crate::json::Json::uint(self.flips_landed))
            .with(
                "defense_misses",
                crate::json::Json::uint(self.defense_misses),
            )
            .with("defense_ops", crate::json::Json::uint(self.defense_ops))
            .with("row_clones", crate::json::Json::uint(self.row_clones))
            .with(
                "non_target_refreshes",
                crate::json::Json::uint(self.non_target_refreshes),
            )
    }

    /// Deserialize an artifact-pipeline record.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::json::JsonError`] on missing or non-integer
    /// fields.
    pub fn from_json(value: &crate::json::Json) -> Result<DefenseStats, crate::json::JsonError> {
        Ok(DefenseStats {
            attempts: value.field_u64("attempts")?,
            flips_resisted: value.field_u64("flips_resisted")?,
            flips_landed: value.field_u64("flips_landed")?,
            defense_misses: value.field_u64("defense_misses")?,
            defense_ops: value.field_u64("defense_ops")?,
            row_clones: value.field_u64("row_clones")?,
            non_target_refreshes: value.field_u64("non_target_refreshes")?,
        })
    }
}

/// One attacker campaign as the defense sees it: the simulated device the
/// race plays out on, the physical victim row, and the model-level bit
/// under attack.
///
/// `map` is `Some` when a real model image is deployed behind the device
/// ([`crate::system::ProtectedSystem`]); relocating defenses must keep it
/// coherent. On the scenario harness's scratch device it is `None` and
/// the victim row is a pseudo-mapping of the bit address.
pub struct CampaignView<'a> {
    /// The device under attack.
    pub mem: &'a mut MemoryController,
    /// Weight map of the deployed model, when one exists.
    pub map: Option<&'a mut WeightMap>,
    /// Current physical row of the victim bit.
    pub victim: GlobalRowId,
    /// Bit offset within the victim row's payload.
    pub bit_in_row: usize,
    /// The model-level address under attack.
    pub addr: BitAddr,
}

/// A RowHammer mitigation driven through the common evaluation protocol.
///
/// All methods except [`DefenseMechanism::filter_flip`], `name` and
/// `stats` have defaults, so simple mechanisms only decide flip fates.
pub trait DefenseMechanism: Send {
    /// Display name (Table 3 row label).
    fn name(&self) -> &str;

    /// Training-side hook: transform the float victim before quantization
    /// (software defenses). Default: leave the model alone.
    fn prepare_victim(&mut self, _net: &mut Network, _dataset: &Dataset, _rng: &mut StdRng) {}

    /// Victim width multiplier for capacity-scaling defenses. Default 1.
    fn capacity_multiplier(&self) -> usize {
        1
    }

    /// Deployment hook: observe the final quantized model and the
    /// attacker-grade data. Priority schemes run their profiling here.
    fn on_deploy(&mut self, _model: &mut QModel, _data: &AttackData, _config: &AttackConfig) {}

    /// Rounds of vulnerable-bit profiling [`DefenseMechanism::on_deploy`]
    /// runs; 0 (the default) for a defense that does not profile.
    ///
    /// A defense that returns more than 0 promises that `on_deploy` reads
    /// nothing but the model, the data, the config and these rounds,
    /// leaves the model as it found it, and leaves the defense exactly as
    /// `secure_bits(&bits, None)` would, `bits` being the set it then
    /// reports through [`DefenseMechanism::secured_bits`]. The scenario
    /// matrix relies on this to profile a deployed model once: other
    /// cells that deploy the same model get the stored bits through
    /// `secure_bits` and skip `on_deploy`.
    fn profile_rounds(&self) -> usize {
        0
    }

    /// Install an explicit secured-bit set (priority schemes). `map`
    /// translates bits to rows when a model image is deployed.
    fn secure_bits(&mut self, _bits: &[BitAddr], _map: Option<&WeightMap>) {}

    /// The secured-bit set, when the mechanism keeps one (the
    /// attacker-visible "SB" of §5.2, used by defense-aware attackers).
    fn secured_bits(&self) -> Option<&HashSet<BitAddr>> {
        None
    }

    /// Whether a bit currently falls under the mechanism's protection.
    fn is_secured(&self, _addr: BitAddr, _map: Option<&WeightMap>) -> bool {
        false
    }

    /// Play one attacker campaign to completion on `view.mem` and decide
    /// whether the flip landed. Implementations must record the outcome
    /// in their [`DefenseStats`].
    ///
    /// # Errors
    ///
    /// Propagates [`DramError`] from the device operations.
    fn filter_flip(&mut self, view: CampaignView<'_>) -> Result<FlipAttempt, DramError>;

    /// Observe `n` activations of `row` from the *ambient* command stream
    /// (benign workload traffic, as opposed to a replayed attacker
    /// campaign). Online mechanisms — counter tables, victim-watching
    /// swap engines — react here exactly as their in-DRAM/controller tap
    /// would, charging any defensive operations they issue to their
    /// [`DefenseStats`]; the workload driver attributes operations fired
    /// during benign-only traffic as *false positives*. `map` is the
    /// deployed weight map when one exists (relocating defenses must keep
    /// it coherent). Default: no online component, observe nothing.
    ///
    /// # Errors
    ///
    /// Propagates [`DramError`] from defensive device operations.
    fn observe_activation(
        &mut self,
        _mem: &mut MemoryController,
        _map: Option<&mut WeightMap>,
        _row: GlobalRowId,
        _n: u64,
    ) -> Result<(), DramError> {
        Ok(())
    }

    /// Whether this mechanism has an *online* command-stream component:
    /// an [`DefenseMechanism::observe_activation`] override that can
    /// read device state or issue defensive operations. Mechanisms that
    /// override `observe_activation` with effects **must** override this
    /// to return `true` — the workload driver's batched fast path defers
    /// tap invocations across a command chunk when no tap exists, which
    /// is only sound for taps that are no-ops. The differential oracle
    /// (`tests/kernel_differential.rs`) catches a mechanism that lies
    /// here, since its fast-path and reference-path stats diverge.
    fn has_online_tap(&self) -> bool {
        false
    }

    /// Refresh-window rollover notification (per-window budgets reset
    /// here or lazily off `mem.epoch()`).
    fn on_hammer_window(&mut self, _epoch: u64) {}

    /// Bookkeeping so far.
    fn stats(&self) -> DefenseStats;
}

/// Type-erased defense for heterogeneous sweeps.
pub type DynDefense = Box<dyn DefenseMechanism>;

impl DefenseMechanism for DynDefense {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn prepare_victim(&mut self, net: &mut Network, dataset: &Dataset, rng: &mut StdRng) {
        (**self).prepare_victim(net, dataset, rng);
    }
    fn capacity_multiplier(&self) -> usize {
        (**self).capacity_multiplier()
    }
    fn on_deploy(&mut self, model: &mut QModel, data: &AttackData, config: &AttackConfig) {
        (**self).on_deploy(model, data, config);
    }
    fn profile_rounds(&self) -> usize {
        (**self).profile_rounds()
    }
    fn secure_bits(&mut self, bits: &[BitAddr], map: Option<&WeightMap>) {
        (**self).secure_bits(bits, map);
    }
    fn secured_bits(&self) -> Option<&HashSet<BitAddr>> {
        (**self).secured_bits()
    }
    fn is_secured(&self, addr: BitAddr, map: Option<&WeightMap>) -> bool {
        (**self).is_secured(addr, map)
    }
    fn filter_flip(&mut self, view: CampaignView<'_>) -> Result<FlipAttempt, DramError> {
        (**self).filter_flip(view)
    }
    fn observe_activation(
        &mut self,
        mem: &mut MemoryController,
        map: Option<&mut WeightMap>,
        row: GlobalRowId,
        n: u64,
    ) -> Result<(), DramError> {
        (**self).observe_activation(mem, map, row, n)
    }
    fn has_online_tap(&self) -> bool {
        (**self).has_online_tap()
    }
    fn on_hammer_window(&mut self, epoch: u64) {
        (**self).on_hammer_window(epoch);
    }
    fn stats(&self) -> DefenseStats {
        (**self).stats()
    }
}

/// Undefended memory: every complete campaign lands.
#[derive(Debug)]
pub struct Undefended {
    label: String,
    stats: DefenseStats,
}

impl Undefended {
    /// Baseline with the default label.
    pub fn new() -> Self {
        Undefended::named("Baseline (undefended)")
    }

    /// Baseline with a custom row label.
    pub fn named(label: impl Into<String>) -> Self {
        Undefended {
            label: label.into(),
            stats: DefenseStats::default(),
        }
    }
}

impl Default for Undefended {
    fn default() -> Self {
        Undefended::new()
    }
}

/// Hammer `victim`'s preferred aggressor through a full `T_RH` window and
/// attempt the flip; retries once if the refresh-window epoch rolled
/// mid-campaign. Shared by the undefended path of several mechanisms.
pub fn hammer_to_flip(
    mem: &mut MemoryController,
    victim: GlobalRowId,
    bit_in_row: usize,
) -> Result<bool, DramError> {
    let t_rh = mem.config().rowhammer_threshold;
    let rows = mem.config().rows_per_subarray;
    let aggressor = preferred_aggressor(victim, rows);
    for _ in 0..2 {
        mem.hammer(aggressor, t_rh)?;
        let outcome = mem.attempt_flip(victim, &[bit_in_row])?;
        if outcome.flipped() {
            return Ok(true);
        }
    }
    Ok(false)
}

impl DefenseMechanism for Undefended {
    fn name(&self) -> &str {
        &self.label
    }

    fn filter_flip(&mut self, view: CampaignView<'_>) -> Result<FlipAttempt, DramError> {
        let outcome = if hammer_to_flip(view.mem, view.victim, view.bit_in_row)? {
            FlipAttempt::Landed
        } else {
            FlipAttempt::Resisted
        };
        self.stats.record(outcome);
        Ok(outcome)
    }

    fn stats(&self) -> DefenseStats {
        self.stats
    }
}

/// Defense policy knobs for DNN-Defender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefenseConfig {
    /// Refresh the opposite-side victim row with swap step 4.
    pub refresh_non_targets: bool,
    /// Optional cap on swaps per refresh window (per device). When the
    /// number of protected-row swaps in one window would exceed it, the
    /// defense misses and the flip lands — modelling the `N_s` capacity
    /// bound of §5.1. `None` = uncapped.
    pub swap_budget_per_window: Option<u64>,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        DefenseConfig {
            refresh_non_targets: true,
            swap_budget_per_window: None,
        }
    }
}

/// DNN-Defender's swap engine behind the [`DefenseMechanism`] API:
/// priority-profiled secured bits, the four-step RowClone swap racing the
/// hammer window, and the §5.1 per-window capacity bound.
#[derive(Debug)]
pub struct DnnDefenderDefense {
    config: DefenseConfig,
    /// Skip-set profiling rounds run by `on_deploy` (0 = rely on an
    /// explicit [`DefenseMechanism::secure_bits`] call).
    profile_rounds: usize,
    secured: HashSet<BitAddr>,
    protected_rows: HashSet<GlobalRowId>,
    /// `protected_rows` needs recomputing from the deployment map (the
    /// secured set changed while no map was in reach).
    rows_stale: bool,
    rng: StdRng,
    stats: DefenseStats,
    window_epoch: u64,
    swaps_this_window: u64,
}

impl DnnDefenderDefense {
    /// Engine with an explicit secured set to be installed later.
    pub fn new(config: DefenseConfig, seed: u64) -> Self {
        DnnDefenderDefense {
            config,
            profile_rounds: 0,
            secured: HashSet::new(),
            protected_rows: HashSet::new(),
            rows_stale: false,
            rng: StdRng::seed_from_u64(seed),
            stats: DefenseStats::default(),
            window_epoch: 0,
            swaps_this_window: 0,
        }
    }

    /// Engine that profiles its own secured set on deployment with
    /// `rounds` rounds of skip-set BFA (§4).
    pub fn with_profiling(config: DefenseConfig, rounds: usize, seed: u64) -> Self {
        DnnDefenderDefense {
            profile_rounds: rounds,
            ..DnnDefenderDefense::new(config, seed)
        }
    }

    /// The policy in force.
    pub fn config(&self) -> DefenseConfig {
        self.config
    }

    /// Rows currently classified as protection targets (empty until
    /// secured bits are installed with a map).
    pub fn protected_row_count(&self) -> usize {
        self.protected_rows.len()
    }

    fn window_budget_available(&mut self, mem: &MemoryController) -> bool {
        let epoch = mem.epoch();
        if epoch != self.window_epoch {
            self.window_epoch = epoch;
            self.swaps_this_window = 0;
        }
        match self.config.swap_budget_per_window {
            Some(budget) => self.swaps_this_window < budget,
            None => true,
        }
    }

    /// Pick a random destination row in the same subarray, avoiding the
    /// target and (if any) the non-target row, per Algorithm 1 line 3.
    fn pick_random_row(
        &mut self,
        mem: &MemoryController,
        target: GlobalRowId,
        avoid: Option<RowInSubarray>,
    ) -> RowInSubarray {
        let data_rows = mem.config().data_rows_per_subarray();
        loop {
            let candidate = RowInSubarray(self.rng.gen_range(0..data_rows));
            if candidate != target.row && Some(candidate) != avoid {
                return candidate;
            }
        }
    }

    /// The opposite-side victim of `aggressor` (step 4's refresh target),
    /// if distinct from the protected row and inside the data region.
    fn non_target_row(
        &self,
        mem: &MemoryController,
        aggressor: GlobalRowId,
        target: GlobalRowId,
    ) -> Option<RowInSubarray> {
        if !self.config.refresh_non_targets {
            return None;
        }
        let rows = mem.config().rows_per_subarray;
        let other = if aggressor.row.0 + 1 < rows && aggressor.row.0 + 1 != target.row.0 {
            Some(RowInSubarray(aggressor.row.0 + 1))
        } else if aggressor.row.0 > 0 && aggressor.row.0 - 1 != target.row.0 {
            Some(RowInSubarray(aggressor.row.0 - 1))
        } else {
            None
        };
        other.filter(|r| r.0 < mem.config().data_rows_per_subarray())
    }

    /// Resolve `protected_rows` through `map` if the secured set changed
    /// while no map was in reach (e.g. deployment-time profiling).
    fn resolve_stale_rows(&mut self, map: Option<&WeightMap>) {
        if self.rows_stale {
            if let Some(map) = map {
                self.protected_rows = map.target_rows(self.secured.iter()).into_iter().collect();
                self.rows_stale = false;
            }
        }
    }

    /// Swap the protected `victim` out of `aggressor`'s reach, per
    /// Algorithm 1, and return the row that now holds its data. With a
    /// deployed `map`, the four-step swap keeps the map coherent and the
    /// protected rows follow it; on the scratch device the victim is
    /// exchanged with the random row through the reserved slot — the same
    /// three RowClones and recharge — followed by step 4's refresh.
    fn swap(
        &mut self,
        mem: &mut MemoryController,
        map: Option<&mut WeightMap>,
        victim: GlobalRowId,
        aggressor: GlobalRowId,
    ) -> Result<GlobalRowId, DramError> {
        let reserved = RowInSubarray(mem.config().first_reserved_row());
        let non_target = self.non_target_row(mem, aggressor, victim);
        let random = self.pick_random_row(mem, victim, non_target);
        let moved = match map {
            Some(map) => {
                let outcome = four_step_swap(mem, map, victim, random, reserved, non_target)?;
                self.stats.row_clones += u64::from(outcome.row_clones);
                self.protected_rows = map.target_rows(self.secured.iter()).into_iter().collect();
                outcome.new_target_row
            }
            None => {
                mem.swap_rows_via(victim.bank, victim.subarray, victim.row, random, reserved)?;
                self.stats.row_clones += 3;
                if let Some(nt) = non_target {
                    mem.row_clone(victim.bank, victim.subarray, nt, reserved)?;
                    self.stats.row_clones += 1;
                }
                GlobalRowId {
                    bank: victim.bank,
                    subarray: victim.subarray,
                    row: random,
                }
            }
        };
        self.swaps_this_window += 1;
        self.stats.defense_ops += 1;
        if non_target.is_some() {
            self.stats.non_target_refreshes += 1;
        }
        Ok(moved)
    }
}

impl DefenseMechanism for DnnDefenderDefense {
    fn name(&self) -> &str {
        "DNN-Defender"
    }

    fn on_deploy(&mut self, model: &mut QModel, data: &AttackData, config: &AttackConfig) {
        if self.profile_rounds == 0 {
            return;
        }
        let profile = multi_round_profile(model, data, config, self.profile_rounds);
        self.secured = profile.bits.iter().copied().collect();
        self.protected_rows.clear();
        self.rows_stale = true;
    }

    fn profile_rounds(&self) -> usize {
        self.profile_rounds
    }

    fn secure_bits(&mut self, bits: &[BitAddr], map: Option<&WeightMap>) {
        self.secured = bits.iter().copied().collect();
        match map {
            Some(map) => {
                self.protected_rows = map.target_rows(self.secured.iter()).into_iter().collect();
                self.rows_stale = false;
            }
            None => {
                self.protected_rows.clear();
                self.rows_stale = true;
            }
        }
    }

    fn secured_bits(&self) -> Option<&HashSet<BitAddr>> {
        Some(&self.secured)
    }

    fn is_secured(&self, addr: BitAddr, map: Option<&WeightMap>) -> bool {
        match map {
            // Row-level: protecting one bit protects its whole row.
            Some(map) if !self.rows_stale => self.protected_rows.contains(&map.locate(addr).row),
            Some(map) => {
                // Secured set changed before a map was in reach (e.g.
                // deployment-time profiling): resolve rows on the fly.
                let row = map.locate(addr).row;
                self.secured.iter().any(|&b| map.locate(b).row == row)
            }
            None => self.secured.contains(&addr),
        }
    }

    fn filter_flip(&mut self, view: CampaignView<'_>) -> Result<FlipAttempt, DramError> {
        let CampaignView {
            mem,
            map,
            victim,
            bit_in_row,
            addr,
        } = view;
        self.resolve_stale_rows(map.as_deref());
        let protected = match &map {
            Some(_) => self.protected_rows.contains(&victim),
            None => self.secured.contains(&addr),
        };
        if !protected || !self.window_budget_available(mem) {
            // Unprotected, or over capacity: the defense cannot reach this
            // row in time. A flip that lands on a protected row is a miss;
            // one that does not was rescued by auto-refresh (the window
            // rolled).
            let outcome = match (hammer_to_flip(mem, victim, bit_in_row)?, protected) {
                (false, _) => FlipAttempt::Resisted,
                (true, false) => FlipAttempt::Landed,
                (true, true) => FlipAttempt::DefenseMissed,
            };
            self.stats.record(outcome);
            return Ok(outcome);
        }

        // The attacker hammers; the defender's swap fires before the
        // window closes (one swap per protected row per window, §5.1).
        let t_rh = mem.config().rowhammer_threshold;
        let rows = mem.config().rows_per_subarray;
        let aggressor = preferred_aggressor(victim, rows);
        mem.hammer(aggressor, t_rh / 2)?;
        let moved = self.swap(mem, map, victim, aggressor)?;

        // The attacker tracks the move and resumes hammering at the new
        // location for the rest of its window.
        mem.hammer(preferred_aggressor(moved, rows), t_rh - t_rh / 2)?;
        let attempt = if mem.attempt_flip(moved, &[bit_in_row])?.flipped() {
            // Should not happen: no location saw a full window.
            FlipAttempt::Landed
        } else {
            FlipAttempt::Resisted
        };
        self.stats.record(attempt);
        Ok(attempt)
    }

    /// The victim-watching online component: when ambient traffic has
    /// pushed a *protected* row's disturbance past the swap watermark
    /// (`T_RH / 2`, the same point the campaign race swaps at), relocate
    /// it. A swap triggered by benign-only traffic is a false positive —
    /// the row was never under attack — and the workload driver reports
    /// it as such, but the mechanism cannot tell and must pay the swap.
    fn observe_activation(
        &mut self,
        mem: &mut MemoryController,
        mut map: Option<&mut WeightMap>,
        row: GlobalRowId,
        _n: u64,
    ) -> Result<(), DramError> {
        self.resolve_stale_rows(map.as_deref());
        if self.protected_rows.is_empty() {
            return Ok(());
        }
        let watermark = (mem.config().rowhammer_threshold / 2).max(1);
        let watched: Vec<GlobalRowId> = mem
            .rowhammer_model()
            .victims_of(row)
            .into_iter()
            .filter(|v| self.protected_rows.contains(v))
            .collect();
        for victim in watched {
            if mem.disturbance(victim) < watermark || !self.window_budget_available(mem) {
                continue;
            }
            let moved = self.swap(mem, map.as_deref_mut(), victim, row)?;
            if map.is_none() {
                // No map to resolve rows through: follow the move.
                self.protected_rows.remove(&victim);
                self.protected_rows.insert(moved);
            }
        }
        Ok(())
    }

    fn has_online_tap(&self) -> bool {
        // The victim watcher above: reads disturbance, issues swaps.
        true
    }

    fn stats(&self) -> DefenseStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_dram::DramConfig;

    #[test]
    fn stats_invariants_track_outcomes() {
        let mut s = DefenseStats::default();
        s.record(FlipAttempt::Landed);
        s.record(FlipAttempt::Resisted);
        s.record(FlipAttempt::DefenseMissed);
        assert_eq!(s.attempts, 3);
        assert_eq!(s.flips_landed, 2);
        assert_eq!(s.flips_resisted, 1);
        assert_eq!(s.defense_misses, 1);
        assert!(s.invariants_hold());
    }

    #[test]
    fn undefended_lands_on_scratch_device() {
        let mut mem = MemoryController::try_new(DramConfig::lpddr4_small()).unwrap();
        let mut def = Undefended::new();
        let victim = GlobalRowId::new(0, 0, 10);
        let addr = BitAddr {
            param: 0,
            index: 0,
            bit: 0,
        };
        let view = CampaignView {
            mem: &mut mem,
            map: None,
            victim,
            bit_in_row: 0,
            addr,
        };
        assert_eq!(def.filter_flip(view).unwrap(), FlipAttempt::Landed);
        assert!(def.stats().invariants_hold());
    }

    #[test]
    fn dnn_defender_resists_secured_bit_without_map() {
        let mut mem = MemoryController::try_new(DramConfig::lpddr4_small()).unwrap();
        let mut def = DnnDefenderDefense::new(DefenseConfig::default(), 7);
        let addr = BitAddr {
            param: 0,
            index: 3,
            bit: 7,
        };
        def.secure_bits(&[addr], None);
        assert!(def.is_secured(addr, None));
        let victim = GlobalRowId::new(0, 0, 20);
        for _ in 0..4 {
            mem.advance(dd_dram::Nanos::from_millis(65));
            let view = CampaignView {
                mem: &mut mem,
                map: None,
                victim,
                bit_in_row: 3,
                addr,
            };
            assert_eq!(def.filter_flip(view).unwrap(), FlipAttempt::Resisted);
        }
        let s = def.stats();
        assert_eq!(s.defense_ops, 4);
        assert!(s.row_clones >= 12);
        assert!(s.invariants_hold());
    }

    #[test]
    fn zero_budget_misses_on_scratch_device() {
        let mut mem = MemoryController::try_new(DramConfig::lpddr4_small()).unwrap();
        let config = DefenseConfig {
            swap_budget_per_window: Some(0),
            ..DefenseConfig::default()
        };
        let mut def = DnnDefenderDefense::new(config, 7);
        let addr = BitAddr {
            param: 0,
            index: 0,
            bit: 7,
        };
        def.secure_bits(&[addr], None);
        let victim = GlobalRowId::new(0, 0, 10);
        let view = CampaignView {
            mem: &mut mem,
            map: None,
            victim,
            bit_in_row: 7,
            addr,
        };
        assert_eq!(def.filter_flip(view).unwrap(), FlipAttempt::DefenseMissed);
        assert_eq!(def.stats().defense_misses, 1);
    }

    #[test]
    fn observe_activation_swaps_hot_protected_row() {
        use dd_nn::init::seeded_rng;
        use dd_nn::layers::{Flatten, Linear};
        use dd_nn::model::Network;

        let mut mem = MemoryController::try_new(DramConfig::lpddr4_small()).unwrap();
        let mut rng = seeded_rng(3);
        let net = Network::new("m")
            .push(Flatten::new())
            .push(Linear::kaiming("fc", 64, 16, &mut rng));
        let model = QModel::from_network(net);
        let mut map = WeightMap::layout(&model, mem.config());
        let mut def = DnnDefenderDefense::new(DefenseConfig::default(), 9);
        let addr = BitAddr {
            param: 0,
            index: 0,
            bit: 0,
        };
        def.secure_bits(&[addr], Some(&map));
        let victim = map.locate(addr).row;
        let hot = preferred_aggressor(victim, mem.config().rows_per_subarray);

        // Ambient traffic heats the protected row's neighbour to the swap
        // watermark; the online watcher relocates the protected row.
        mem.hammer(hot, 2400).unwrap();
        def.observe_activation(&mut mem, Some(&mut map), hot, 2400)
            .unwrap();
        assert_eq!(def.stats().defense_ops, 1, "watcher did not swap");
        assert_ne!(map.locate(addr).row, victim, "victim not relocated");

        // With the heat gone (the swap recharged the row), a further
        // observation fires nothing.
        def.observe_activation(&mut mem, Some(&mut map), hot, 1)
            .unwrap();
        assert_eq!(def.stats().defense_ops, 1);
        assert!(def.stats().invariants_hold());
    }

    #[test]
    fn observe_activation_ignores_unprotected_traffic() {
        let mut mem = MemoryController::try_new(DramConfig::lpddr4_small()).unwrap();
        let mut def = DnnDefenderDefense::new(DefenseConfig::default(), 9);
        // No secured rows: arbitrary hot benign traffic triggers nothing.
        mem.hammer(GlobalRowId::new(0, 0, 30), 5000).unwrap();
        def.observe_activation(&mut mem, None, GlobalRowId::new(0, 0, 30), 5000)
            .unwrap();
        assert_eq!(def.stats().defense_ops, 0);
    }

    #[test]
    fn dyn_defense_delegates() {
        let mut boxed: DynDefense = Box::<Undefended>::default();
        assert_eq!(boxed.name(), "Baseline (undefended)");
        let mut mem = MemoryController::try_new(DramConfig::lpddr4_small()).unwrap();
        let victim = GlobalRowId::new(0, 0, 10);
        let addr = BitAddr {
            param: 0,
            index: 0,
            bit: 0,
        };
        let view = CampaignView {
            mem: &mut mem,
            map: None,
            victim,
            bit_in_row: 0,
            addr,
        };
        assert!(boxed.filter_flip(view).unwrap().landed());
        assert_eq!(boxed.stats().attempts, 1);
        assert_eq!(boxed.profile_rounds(), 0);
        let profiling: DynDefense = Box::new(DnnDefenderDefense::with_profiling(
            DefenseConfig::default(),
            2,
            9,
        ));
        assert_eq!(profiling.profile_rounds(), 2);
    }
}
