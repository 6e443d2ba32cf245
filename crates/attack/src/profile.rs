//! Multi-round vulnerable-bit profiling — the defender's half of the
//! attack algorithm (§4, "Priority Protection Mechanism").
//!
//! The defender runs the attacker's own progressive bit search on a copy
//! of the victim model for `r` rounds. Each round runs one complete BFA
//! (until the accuracy collapses or the per-round budget is exhausted),
//! records the flipped bit locations `R_c`, flips everything back, and
//! starts the next round skipping every bit found so far. The union of
//! all rounds is the priority-ordered secured-bit set.

use std::collections::HashSet;

use dd_qnn::{BitAddr, QModel};

use crate::bfa::{run_bfa, AttackData};
use crate::threat::AttackConfig;

/// Result of a profiling campaign.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Secured bits in discovery order (round 1 first — highest priority).
    pub bits: Vec<BitAddr>,
    /// Number of bits each round found, in round order: round `r`'s bits
    /// follow the bits of rounds `1..r` in `bits`.
    pub round_sizes: Vec<usize>,
    /// Post-attack accuracy observed at the end of each round (how far the
    /// attack got before the skip set blunted it).
    pub round_final_accuracies: Vec<f32>,
}

impl ProfileReport {
    /// The first `n` bits (highest priority prefix), e.g. to protect a
    /// smaller secured-bit budget.
    pub fn prefix(&self, n: usize) -> HashSet<BitAddr> {
        self.bits.iter().take(n).copied().collect()
    }

    /// All profiled bits as a set.
    pub fn all(&self) -> HashSet<BitAddr> {
        self.bits.iter().copied().collect()
    }
}

/// Run `rounds` rounds of skip-set BFA profiling.
///
/// The model is restored to its pre-profiling state before returning
/// (the defender profiles on a copy; we profile in place and roll back,
/// which is observationally identical).
pub fn multi_round_profile(
    model: &mut QModel,
    data: &AttackData,
    config: &AttackConfig,
    rounds: usize,
) -> ProfileReport {
    let snapshot = model.snapshot_q();
    let mut found: Vec<BitAddr> = Vec::new();
    let mut skip: HashSet<BitAddr> = HashSet::new();
    let mut round_sizes = Vec::with_capacity(rounds);
    let mut round_final_accuracies = Vec::with_capacity(rounds);

    for round in 1..=rounds {
        let _span = dd_obs::span_with("attack.profile_round", || format!("round={round}"));
        let report = run_bfa(model, data, config, &skip);
        model.restore_q(&snapshot);
        if report.steps.is_empty() {
            round_sizes.push(0);
            round_final_accuracies.push(report.final_accuracy);
            break;
        }
        round_sizes.push(report.steps.len());
        round_final_accuracies.push(report.final_accuracy);
        for step in &report.steps {
            skip.insert(step.flip.addr);
            found.push(step.flip.addr);
        }
    }

    ProfileReport {
        bits: found,
        round_sizes,
        round_final_accuracies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_victim;

    #[test]
    fn profiling_restores_the_model() {
        let (mut model, data, _) = trained_victim();
        let before = model.snapshot_q();
        let config = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 15,
            ..Default::default()
        };
        let _ = multi_round_profile(&mut model, &data, &config, 3);
        assert_eq!(
            model.hamming_from(&before),
            0,
            "profiling corrupted the model"
        );
    }

    #[test]
    fn rounds_find_disjoint_bits() {
        let (mut model, data, _) = trained_victim();
        let config = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 15,
            ..Default::default()
        };
        let report = multi_round_profile(&mut model, &data, &config, 3);
        let unique: HashSet<BitAddr> = report.bits.iter().copied().collect();
        assert_eq!(unique.len(), report.bits.len(), "rounds repeated a bit");
        assert!(report.round_sizes.len() <= 3);
        assert_eq!(report.round_sizes.iter().sum::<usize>(), report.bits.len());
    }

    #[test]
    fn more_rounds_secure_more_bits() {
        let (mut model, data, _) = trained_victim();
        let config = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 15,
            ..Default::default()
        };
        let short = multi_round_profile(&mut model, &data, &config, 1);
        let long = multi_round_profile(&mut model, &data, &config, 4);
        assert!(long.bits.len() > short.bits.len());
        // Round 1 of both campaigns is identical (deterministic search).
        assert_eq!(&long.bits[..short.bits.len()], &short.bits[..]);
    }

    #[test]
    fn prefix_returns_priority_order() {
        let (mut model, data, _) = trained_victim();
        let config = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 10,
            ..Default::default()
        };
        let report = multi_round_profile(&mut model, &data, &config, 2);
        let k = report.bits.len().min(3);
        let prefix = report.prefix(k);
        assert_eq!(prefix.len(), k);
        for addr in &report.bits[..k] {
            assert!(prefix.contains(addr));
        }
    }
}
