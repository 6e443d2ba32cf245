//! Attacks against a protected model (§5.2): the semi-white-box attacker
//! that is blind to the defense, and the adaptive white-box attacker that
//! knows the secured-bit set and searches around it.

use std::collections::HashSet;

use dd_qnn::{BitAddr, QModel};

use crate::bfa::{run_bfa, AttackData, AttackReport, BitSearch, Direction};
use crate::threat::{AttackConfig, ThreatModel};

/// Report of an attack against a DNN-Defender-protected model.
#[derive(Debug, Clone)]
pub struct ProtectedAttackReport {
    /// Threat model used.
    pub threat: ThreatModel,
    /// Flips the attacker *attempted* (landed or not).
    pub attempted_flips: usize,
    /// Flips that actually landed (hit unprotected bits).
    pub landed_flips: usize,
    /// Accuracy of the *real* (defended) model before the attack.
    pub clean_accuracy: f32,
    /// Accuracy of the real model after the attack.
    pub final_accuracy: f32,
    /// `(attempted flips, real accuracy)` trajectory.
    pub trajectory: Vec<(usize, f32)>,
}

/// Attack a model whose `protected` bits are refreshed by DNN-Defender
/// before any RowHammer campaign against them can reach `T_RH`.
///
/// * [`ThreatModel::SemiWhiteBox`]: the attacker runs the stock BFA on its
///   *belief* of the model. Flips that target protected bits never land on
///   the real system (the swap refreshes the victim row first), but the
///   attacker — lacking memory read permission — keeps searching as if
///   they had. The real model only accumulates the unprotected flips.
/// * [`ThreatModel::WhiteBox`]: the attacker knows the secured-bit set and
///   skips it, so every attempted flip lands; the question is how much
///   damage the leftover (unprotected) bits can still do.
pub fn attack_protected(
    model: &mut QModel,
    data: &AttackData,
    config: &AttackConfig,
    protected: &HashSet<BitAddr>,
    threat: ThreatModel,
) -> ProtectedAttackReport {
    match threat {
        ThreatModel::WhiteBox => {
            let report = run_bfa(model, data, config, protected);
            into_protected_report(report, threat)
        }
        ThreatModel::SemiWhiteBox => semi_white_box(model, data, config, protected),
    }
}

fn into_protected_report(report: AttackReport, threat: ThreatModel) -> ProtectedAttackReport {
    ProtectedAttackReport {
        threat,
        attempted_flips: report.bit_flips,
        landed_flips: report.bit_flips,
        clean_accuracy: report.clean_accuracy,
        final_accuracy: report.final_accuracy,
        trajectory: report.trajectory(),
    }
}

/// The defense-blind attacker. The model instance plays the attacker's
/// belief state (all flips applied); the *real* system state is obtained
/// by reverting the flips that the defense blocked (see
/// [`real_accuracy`]).
fn semi_white_box(
    model: &mut QModel,
    data: &AttackData,
    config: &AttackConfig,
    protected: &HashSet<BitAddr>,
) -> ProtectedAttackReport {
    let mut search = BitSearch::new(model, data);
    let clean_accuracy = search.accuracy();
    let mut blocked: Vec<BitAddr> = Vec::new();
    let mut attempted = 0usize;
    let mut trajectory = vec![(0usize, clean_accuracy)];

    search.run(
        &data.search_labels,
        Direction::Ascend,
        config,
        &HashSet::new(),
        |search, step| {
            attempted += 1;
            if protected.contains(&step.flip.addr) {
                // The defense refreshed the row before T_RH: the flip never
                // landed on the real system, but the attacker believes it
                // did.
                blocked.push(step.flip.addr);
            }
            if !attempted.is_multiple_of(config.record_every.max(1)) {
                return false;
            }
            let acc = search.real_accuracy(&blocked);
            trajectory.push((attempted, acc));
            acc <= config.target_accuracy
        },
    );

    // A trajectory point at the last attempt already measured the final
    // model.
    let final_accuracy = match trajectory.last() {
        Some(&(at, acc)) if at == attempted => acc,
        _ => search.real_accuracy(&blocked),
    };

    ProtectedAttackReport {
        threat: ThreatModel::SemiWhiteBox,
        attempted_flips: attempted,
        landed_flips: attempted - blocked.len(),
        clean_accuracy,
        final_accuracy,
        trajectory,
    }
}

/// Eval-batch accuracy of the *real* (defended) system: the attacker's
/// belief model minus the flips the defense `blocked`. Bit flips commute
/// (XOR), so toggling each blocked address out and back in is exact even
/// when the search hit one bit repeatedly; the model is left as it was.
pub fn real_accuracy(model: &mut QModel, data: &AttackData, blocked: &[BitAddr]) -> f32 {
    for &addr in blocked {
        model.flip_bit(addr);
    }
    let acc = model.accuracy(&data.eval_images, &data.eval_labels);
    for &addr in blocked {
        model.flip_bit(addr);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::multi_round_profile;
    use crate::testutil::trained_victim;

    fn profile_bits(model: &mut QModel, data: &AttackData, rounds: usize) -> HashSet<BitAddr> {
        let config = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 15,
            ..Default::default()
        };
        multi_round_profile(model, data, &config, rounds).all()
    }

    #[test]
    fn semi_white_box_attack_fails_against_protection() {
        let (mut model, data, clean) = trained_victim();
        // Profile enough rounds to cover what a naive attacker would flip.
        let protected = profile_bits(&mut model, &data, 2);
        let config = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 15,
            ..Default::default()
        };
        let report = attack_protected(
            &mut model,
            &data,
            &config,
            &protected,
            ThreatModel::SemiWhiteBox,
        );
        // The naive attack's chosen bits are exactly the profiled ones, so
        // nearly nothing lands and accuracy barely moves.
        assert!(
            report.final_accuracy >= clean - 0.15,
            "semi-white-box attack should fail: {} vs clean {clean}",
            report.final_accuracy
        );
        assert!(report.landed_flips <= report.attempted_flips);
    }

    #[test]
    fn white_box_with_small_protection_still_damages() {
        let (mut model, data, clean) = trained_victim();
        let protected = profile_bits(&mut model, &data, 1);
        let snapshot = model.snapshot_q();
        let config = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 25,
            ..Default::default()
        };
        let report = attack_protected(
            &mut model,
            &data,
            &config,
            &protected,
            ThreatModel::WhiteBox,
        );
        model.restore_q(&snapshot);
        // Adaptive attacker skips protected bits but finds others.
        assert!(
            report.final_accuracy < clean,
            "white-box attacker found nothing"
        );
        assert_eq!(report.landed_flips, report.attempted_flips);
    }

    #[test]
    fn more_secured_bits_means_more_attacker_effort() {
        let (mut model, data, _) = trained_victim();
        let config = AttackConfig {
            target_accuracy: 0.45,
            max_flips: 40,
            ..Default::default()
        };
        let profile = multi_round_profile(
            &mut model,
            &data,
            &AttackConfig {
                target_accuracy: 0.3,
                max_flips: 15,
                ..Default::default()
            },
            4,
        );
        let snapshot = model.snapshot_q();

        let mut flips_needed = Vec::new();
        for rounds_protected in [0usize, 2, 4] {
            let n: usize = profile.round_sizes.iter().take(rounds_protected).sum();
            let protected = profile.prefix(n);
            let report = attack_protected(
                &mut model,
                &data,
                &config,
                &protected,
                ThreatModel::WhiteBox,
            );
            model.restore_q(&snapshot);
            let flips = if report.final_accuracy <= config.target_accuracy {
                report.attempted_flips
            } else {
                config.max_flips + 1 // did not reach target at all
            };
            flips_needed.push(flips);
        }
        assert!(
            flips_needed[0] <= flips_needed[1] && flips_needed[1] <= flips_needed[2],
            "protection did not monotonically raise attack cost: {flips_needed:?}"
        );
    }
}
