//! Priority protection: turning the profiling output into a row-level
//! protection plan (§4).
//!
//! The defender profiles vulnerable bits with the attacker's own search
//! ([`dd_attack::multi_round_profile`]), then classifies DRAM rows:
//! rows holding secured bits become **target rows** (highest priority);
//! the remaining weight rows adjacent to potential aggressors are
//! **non-target victims** that get the low-cost step-4 refresh.

use std::collections::HashSet;

use dd_dram::GlobalRowId;
use dd_qnn::{BitAddr, QModel};

use dd_attack::{multi_round_profile, AttackConfig, AttackData, ProfileReport};

use crate::mapping::WeightMap;

/// The defender's standing plan.
#[derive(Debug, Clone)]
pub struct ProtectionPlan {
    /// Secured bits in priority order (round 1 of profiling first).
    pub secured_bits: Vec<BitAddr>,
    /// Rows that hold at least one secured bit.
    pub target_rows: Vec<GlobalRowId>,
    /// Profiling metadata (round sizes, per-round attack outcomes).
    pub profile: ProfileReport,
}

impl ProtectionPlan {
    /// Build a plan by running `rounds` rounds of profiling.
    ///
    /// The model is restored to its clean state afterwards.
    pub fn profile(
        model: &mut QModel,
        data: &AttackData,
        attack_config: &AttackConfig,
        rounds: usize,
        map: &WeightMap,
    ) -> Self {
        let profile = multi_round_profile(model, data, attack_config, rounds);
        ProtectionPlan::from_bits(profile.bits.clone(), profile, map)
    }

    /// Build a plan from an explicit priority-ordered bit list.
    pub fn from_bits(bits: Vec<BitAddr>, profile: ProfileReport, map: &WeightMap) -> Self {
        let target_rows = map.target_rows(bits.iter());
        ProtectionPlan {
            secured_bits: bits,
            target_rows,
            profile,
        }
    }

    /// Number of secured bits.
    pub fn secured_bit_count(&self) -> usize {
        self.secured_bits.len()
    }

    /// Secured bits as a set (the attacker-visible "SB" of §5.2).
    pub fn secured_set(&self) -> HashSet<BitAddr> {
        self.secured_bits.iter().copied().collect()
    }

    /// Restrict the plan to its first `n` bits (a smaller SB budget),
    /// recomputing the target rows.
    pub fn truncated(&self, n: usize, map: &WeightMap) -> ProtectionPlan {
        let bits: Vec<BitAddr> = self.secured_bits.iter().take(n).copied().collect();
        let target_rows = map.target_rows(bits.iter());
        ProtectionPlan {
            secured_bits: bits,
            target_rows,
            profile: self.profile.clone(),
        }
    }

    /// Fraction of the model's bits that are secured (the paper quotes
    /// e.g. "24k secured bits ≈ 4% of VGG-11's bits").
    pub fn secured_fraction(&self, model: &QModel) -> f64 {
        self.secured_bits.len() as f64 / model.total_bits() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_dram::DramConfig;
    use dd_nn::data::{Dataset, SyntheticSpec};
    use dd_nn::init::seeded_rng;
    use dd_nn::train::{train, TrainConfig};
    use dd_qnn::{build_model, Architecture, ModelConfig};

    fn victim() -> (QModel, AttackData, WeightMap) {
        let mut rng = seeded_rng(77);
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
        let model = QModel::from_network(net);
        let batch = ds.attack_batch(48, &mut rng);
        let data = AttackData::single_batch(batch.images, batch.labels);
        let map = WeightMap::layout(&model, &DramConfig::lpddr4_small());
        (model, data, map)
    }

    #[test]
    fn plan_profiles_and_restores() {
        let (mut model, data, map) = victim();
        let snap = model.snapshot_q();
        let cfg = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 10,
            ..Default::default()
        };
        let plan = ProtectionPlan::profile(&mut model, &data, &cfg, 2, &map);
        assert_eq!(model.hamming_from(&snap), 0);
        assert!(plan.secured_bit_count() > 0);
        assert!(!plan.target_rows.is_empty());
        assert!(plan.target_rows.len() <= plan.secured_bit_count());
    }

    #[test]
    fn truncation_shrinks_rows_monotonically() {
        let (mut model, data, map) = victim();
        let cfg = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 10,
            ..Default::default()
        };
        let plan = ProtectionPlan::profile(&mut model, &data, &cfg, 3, &map);
        let small = plan.truncated(3, &map);
        assert_eq!(small.secured_bit_count(), 3.min(plan.secured_bit_count()));
        assert!(small.target_rows.len() <= plan.target_rows.len());
        // Priority prefix property.
        assert_eq!(
            &plan.secured_bits[..small.secured_bit_count()],
            &small.secured_bits[..]
        );
    }

    #[test]
    fn secured_fraction_is_small() {
        let (mut model, data, map) = victim();
        let cfg = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 10,
            ..Default::default()
        };
        let plan = ProtectionPlan::profile(&mut model, &data, &cfg, 2, &map);
        let frac = plan.secured_fraction(&model);
        assert!(frac > 0.0 && frac < 0.05, "fraction {frac}");
    }
}
