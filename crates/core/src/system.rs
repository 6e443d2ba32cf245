//! The integrated protected system: quantized model + DRAM + defense.
//!
//! [`ProtectedSystem`] deploys a [`QModel`]'s weights into simulated DRAM
//! and is generic over the installed [`DefenseMechanism`]: the default is
//! DNN-Defender's swap engine ([`DnnDefenderDefense`]), but any mechanism
//! — a baseline mitigation, an undefended pass-through, or a boxed
//! [`crate::defense::DynDefense`] — can guard the same deployment. The
//! attacker's primitive, [`ProtectedSystem::attack_bit`], plays out the
//! RowHammer race between the hammering campaign and the installed
//! defense on the actual simulated device.

use dd_dram::{DramConfig, DramError, MemoryController};
use dd_nn::Tensor;
use dd_qnn::{BitAddr, QModel};

use crate::defense::{
    CampaignView, DefenseConfig, DefenseMechanism, DefenseStats, DnnDefenderDefense, FlipAttempt,
};
use crate::mapping::WeightMap;

/// A quantized model deployed in defended DRAM.
#[derive(Debug)]
pub struct ProtectedSystem<D: DefenseMechanism = DnnDefenderDefense> {
    mem: MemoryController,
    model: QModel,
    map: WeightMap,
    defense: D,
}

impl ProtectedSystem<DnnDefenderDefense> {
    /// Deploy a model into a fresh device guarded by DNN-Defender (the
    /// paper's configuration).
    ///
    /// # Errors
    ///
    /// Returns a [`DramError`] if the device configuration is invalid or
    /// too small for the model.
    pub fn deploy(
        model: QModel,
        dram_config: DramConfig,
        defense: DefenseConfig,
        seed: u64,
    ) -> Result<Self, DramError> {
        ProtectedSystem::deploy_with(model, dram_config, DnnDefenderDefense::new(defense, seed))
    }
}

impl<D: DefenseMechanism> ProtectedSystem<D> {
    /// Deploy a model into a fresh device guarded by an arbitrary
    /// [`DefenseMechanism`].
    ///
    /// # Errors
    ///
    /// Returns a [`DramError`] if the device configuration is invalid or
    /// too small for the model.
    pub fn deploy_with(
        model: QModel,
        dram_config: DramConfig,
        defense: D,
    ) -> Result<Self, DramError> {
        let mut mem = MemoryController::try_new(dram_config.clone())?;
        let map = WeightMap::layout(&model, &dram_config);
        for slot in map.slots() {
            let bytes = model.qtensor(slot.param).to_bytes();
            let mut row = vec![0u8; dram_config.row_bytes];
            row[..slot.len].copy_from_slice(&bytes[slot.offset..slot.offset + slot.len]);
            mem.poke_row(slot.row.bank, slot.row.subarray, slot.row.row, &row)?;
        }
        Ok(ProtectedSystem {
            mem,
            model,
            map,
            defense,
        })
    }

    /// Install the secured-bit set, e.g. the bits of a
    /// [`dd_attack::multi_round_profile`] run.
    pub fn protect(&mut self, bits: impl IntoIterator<Item = BitAddr>) {
        let bits: Vec<BitAddr> = bits.into_iter().collect();
        self.defense.secure_bits(&bits, Some(&self.map));
    }

    /// The installed defense.
    pub fn defense(&self) -> &D {
        &self.defense
    }

    /// Rows currently classified as protection targets.
    pub fn protected_row_count(&self) -> usize {
        self.defense
            .secured_bits()
            .map_or(0, |bits| self.map.target_rows(bits.iter()).len())
    }

    /// Defense statistics so far.
    pub fn stats(&self) -> DefenseStats {
        self.defense.stats()
    }

    /// The simulated memory (for inspecting stats / timing).
    pub fn memory(&self) -> &MemoryController {
        &self.mem
    }

    /// The live model (reflects every landed flip).
    pub fn model_mut(&mut self) -> &mut QModel {
        &mut self.model
    }

    /// Accuracy of the deployed (possibly corrupted) model.
    pub fn accuracy(&mut self, images: &Tensor, labels: &[usize]) -> f32 {
        self.model.accuracy(images, labels)
    }

    /// Whether a bit currently lies under the installed defense's
    /// protection.
    pub fn is_protected(&self, addr: BitAddr) -> bool {
        self.defense.is_secured(addr, Some(&self.map))
    }

    /// One full attacker campaign against `addr`: the installed defense
    /// plays the RowHammer race on the simulated device and decides the
    /// flip's fate; a landed flip corrupts the live model exactly as it
    /// corrupted DRAM.
    ///
    /// # Errors
    ///
    /// Returns a [`DramError`] on invalid addresses (should not happen for
    /// bits of the deployed model).
    pub fn attack_bit(&mut self, addr: BitAddr) -> Result<FlipAttempt, DramError> {
        let loc = self.map.locate(addr);
        let view = CampaignView {
            mem: &mut self.mem,
            map: Some(&mut self.map),
            victim: loc.row,
            bit_in_row: loc.bit_in_row,
            addr,
        };
        let outcome = self.defense.filter_flip(view)?;
        if outcome.landed() {
            self.model.flip_bit(addr);
            #[cfg(debug_assertions)]
            {
                let loc = self.map.locate(addr);
                debug_assert_eq!(
                    self.mem
                        .peek_row(loc.row.bank, loc.row.subarray, loc.row.row)?[loc.bit_in_row / 8],
                    self.model.qtensor(addr.param).get(addr.index) as u8,
                    "DRAM and model diverged"
                );
            }
        }
        Ok(outcome)
    }

    /// Advance simulated time by one refresh interval and notify the
    /// defense — the gap between two distinct attacker campaigns in the
    /// common evaluation protocol. Without it, consecutive campaigns
    /// against one row accumulate disturbance inside a single window,
    /// which only the strictly-stronger threat model of
    /// [`ProtectedSystem::run_campaign`] assumes.
    pub fn next_window(&mut self) {
        self.mem.advance(self.mem.config().timing.t_ref);
        let epoch = self.mem.epoch();
        self.defense.on_hammer_window(epoch);
    }

    /// Replay a priority-ordered attack bit sequence (e.g. the flips a
    /// BFA search selected) through the device, returning per-bit
    /// outcomes.
    ///
    /// # Errors
    ///
    /// Propagates any [`DramError`] from the individual attempts.
    pub fn run_campaign(&mut self, bits: &[BitAddr]) -> Result<Vec<FlipAttempt>, DramError> {
        bits.iter().map(|&b| self.attack_bit(b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::Undefended;
    use dd_nn::data::{Dataset, SyntheticSpec};
    use dd_nn::init::seeded_rng;
    use dd_nn::train::{train, TrainConfig};
    use dd_qnn::{build_model, Architecture, ModelConfig};

    fn victim() -> (QModel, Dataset) {
        let mut rng = seeded_rng(55);
        let spec = SyntheticSpec {
            classes: 4,
            channels: 1,
            height: 8,
            width: 8,
            train_per_class: 32,
            test_per_class: 16,
            noise: 0.4,
            brightness_jitter: 0.1,
        };
        let ds = Dataset::generate(spec, &mut rng);
        let config = ModelConfig {
            arch: Architecture::Mlp,
            in_channels: 1,
            image_side: 8,
            classes: 4,
            base_width: 4,
        };
        let mut net = build_model(&config, &mut rng);
        let tc = TrainConfig {
            epochs: 6,
            batch_size: 32,
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
        };
        train(&mut net, &ds, tc, &mut rng);
        (QModel::from_network(net), ds)
    }

    fn system(defense: DefenseConfig) -> (ProtectedSystem, Dataset) {
        let (model, ds) = victim();
        let sys =
            ProtectedSystem::deploy(model, DramConfig::lpddr4_small(), defense, 9).expect("deploy");
        (sys, ds)
    }

    fn undefended() -> (ProtectedSystem<Undefended>, Dataset) {
        let (model, ds) = victim();
        let sys =
            ProtectedSystem::deploy_with(model, DramConfig::lpddr4_small(), Undefended::new())
                .expect("deploy");
        (sys, ds)
    }

    #[test]
    fn undefended_flip_lands_and_corrupts_model() {
        let (mut sys, ds) = undefended();
        let addr = BitAddr {
            param: 0,
            index: 0,
            bit: 7,
        };
        let before = sys.model_mut().qtensor(0).get(0);
        let attempt = sys.attack_bit(addr).unwrap();
        assert_eq!(attempt, FlipAttempt::Landed);
        let after = sys.model_mut().qtensor(0).get(0);
        assert_ne!(before, after);
        let _ = ds;
    }

    #[test]
    fn protected_bit_is_resisted() {
        let (mut sys, _ds) = system(DefenseConfig::default());
        let addr = BitAddr {
            param: 0,
            index: 0,
            bit: 7,
        };
        sys.protect([addr]);
        let before = sys.model_mut().qtensor(0).get(0);
        let attempt = sys.attack_bit(addr).unwrap();
        assert_eq!(attempt, FlipAttempt::Resisted);
        assert_eq!(sys.model_mut().qtensor(0).get(0), before);
        assert_eq!(sys.stats().defense_ops, 1);
        assert!(sys.stats().row_clones >= 3);
    }

    #[test]
    fn protection_covers_whole_row() {
        let (mut sys, _ds) = system(DefenseConfig::default());
        // Protecting bit 0 of weight 0 protects every bit in that row.
        sys.protect([BitAddr {
            param: 0,
            index: 0,
            bit: 0,
        }]);
        let same_row = BitAddr {
            param: 0,
            index: 1,
            bit: 7,
        };
        assert!(sys.is_protected(same_row));
        let attempt = sys.attack_bit(same_row).unwrap();
        assert_eq!(attempt, FlipAttempt::Resisted);
    }

    #[test]
    fn repeated_attacks_on_protected_bit_all_resist() {
        let (mut sys, _ds) = system(DefenseConfig::default());
        let addr = BitAddr {
            param: 0,
            index: 3,
            bit: 7,
        };
        sys.protect([addr]);
        for _ in 0..5 {
            assert_eq!(sys.attack_bit(addr).unwrap(), FlipAttempt::Resisted);
        }
        assert_eq!(sys.stats().defense_ops, 5);
        assert_eq!(sys.stats().flips_resisted, 5);
        assert_eq!(sys.stats().flips_landed, 0);
        assert!(sys.stats().invariants_hold());
    }

    #[test]
    fn unprotected_bits_still_land_when_defense_is_on() {
        let (mut sys, _ds) = system(DefenseConfig::default());
        sys.protect([BitAddr {
            param: 0,
            index: 0,
            bit: 7,
        }]);
        // A bit in a different row (different slot) is not protected.
        let row_bytes = sys.memory().config().row_bytes;
        let far = BitAddr {
            param: 0,
            index: row_bytes * 2,
            bit: 7,
        };
        assert!(!sys.is_protected(far));
        assert_eq!(sys.attack_bit(far).unwrap(), FlipAttempt::Landed);
    }

    #[test]
    fn zero_budget_forces_defense_miss() {
        let (mut sys, _ds) = system(DefenseConfig {
            swap_budget_per_window: Some(0),
            ..Default::default()
        });
        let addr = BitAddr {
            param: 0,
            index: 0,
            bit: 7,
        };
        sys.protect([addr]);
        let attempt = sys.attack_bit(addr).unwrap();
        assert_eq!(attempt, FlipAttempt::DefenseMissed);
        assert_eq!(sys.stats().defense_misses, 1);
    }

    #[test]
    fn campaign_accuracy_drops_only_when_undefended() {
        let (mut sys_off, ds) = undefended();
        let (mut sys_on, _) = system(DefenseConfig::default());
        let eval = ds.test.take(48);

        // Attack sign bits of the classifier layer (the last quantizable
        // parameter): corrupting logit weights reliably damages accuracy.
        let last = sys_off.model_mut().num_qparams() - 1;
        let weights = sys_off.model_mut().qtensor(last).len();
        let bits: Vec<BitAddr> = (0..30)
            .map(|i| BitAddr {
                param: last,
                index: (i * 7) % weights,
                bit: 7,
            })
            .collect();
        sys_on.protect(bits.clone());

        let clean = sys_off.accuracy(&eval.images, &eval.labels);
        sys_off.run_campaign(&bits).unwrap();
        sys_on.run_campaign(&bits).unwrap();
        let off_acc = sys_off.accuracy(&eval.images, &eval.labels);
        let on_acc = sys_on.accuracy(&eval.images, &eval.labels);

        assert!(off_acc < clean, "undefended attack had no effect");
        assert_eq!(on_acc, clean, "defended system lost accuracy");
    }

    #[test]
    fn swap_keeps_model_and_dram_coherent() {
        let (mut sys, _ds) = system(DefenseConfig::default());
        let addr = BitAddr {
            param: 0,
            index: 10,
            bit: 2,
        };
        sys.protect([addr]);
        for _ in 0..3 {
            sys.attack_bit(addr).unwrap();
        }
        // After swaps, the mapped row still holds the model's bytes.
        let loc = sys.map.locate(addr);
        let slot = *sys.map.slot_at(loc.row).expect("slot");
        let expected = sys.model.qtensor(slot.param).to_bytes();
        let row = sys
            .mem
            .peek_row(loc.row.bank, loc.row.subarray, loc.row.row)
            .unwrap()
            .to_vec();
        assert_eq!(
            &row[..slot.len],
            &expected[slot.offset..slot.offset + slot.len]
        );
    }

    #[test]
    fn generic_system_accepts_any_mechanism() {
        let (mut sys, _ds) = undefended();
        let addr = BitAddr {
            param: 0,
            index: 0,
            bit: 7,
        };
        assert!(!sys.is_protected(addr));
        assert_eq!(sys.attack_bit(addr).unwrap(), FlipAttempt::Landed);
        assert_eq!(sys.defense().name(), "Baseline (undefended)");
        assert!(sys.stats().invariants_hold());
    }
}
