//! T-BFA: the *targeted* bit-flip attack [Rakin et al., TPAMI 2021] —
//! cited as ref \[17\] in the paper's threat model.
//!
//! Instead of destroying accuracy outright, T-BFA flips bits so that
//! inputs (optionally only those of a source class) are classified as an
//! attacker-chosen target class. It runs the one progressive search of
//! [`crate::bfa`], *descending* the cross-entropy toward the target
//! labels. DNN-Defender's protection argument is attack-agnostic — it
//! secures whichever bits the profiling search surfaces — so this module
//! also doubles as an extension workload for the defense.

use std::collections::HashSet;

use dd_nn::Tensor;
use dd_qnn::{BitAddr, BitFlip, QModel};

use crate::bfa::{AttackData, BitSearch, Direction};
use crate::threat::AttackConfig;

/// What the targeted attack tries to achieve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbfaGoal {
    /// Only samples of this class are redirected (`None` = all samples,
    /// the "all-to-one" variant).
    pub source_class: Option<usize>,
    /// Class the samples should be classified as.
    pub target_class: usize,
}

/// Report of a targeted campaign.
#[derive(Debug, Clone)]
pub struct TbfaReport {
    /// The goal attacked.
    pub goal: TbfaGoal,
    /// Committed flips in order.
    pub flips: Vec<BitFlip>,
    /// Attack success rate before any flip.
    pub clean_asr: f32,
    /// Attack success rate after the final flip (fraction of in-scope
    /// samples classified as the target class).
    pub final_asr: f32,
    /// Overall accuracy after the attack (stealth metric: all-to-one
    /// attacks destroy it, one-to-one attacks should barely move it).
    pub final_accuracy: f32,
}

/// Attack success rate at which T-BFA stops searching.
pub const TBFA_STOP_ASR: f32 = 0.95;

/// Share of the in-scope eval samples whose `logits` pick the target class.
pub(crate) fn attack_success_rate(logits: &Tensor, labels: &[usize], goal: TbfaGoal) -> f32 {
    let preds = logits.argmax_rows();
    let mut hits = 0usize;
    let mut total = 0usize;
    for (pred, &label) in preds.iter().zip(labels) {
        if goal.source_class.is_none_or(|s| label == s) {
            total += 1;
            hits += usize::from(*pred == goal.target_class);
        }
    }
    if total == 0 {
        0.0
    } else {
        hits as f32 / total as f32
    }
}

/// The labels T-BFA searches toward: in-scope samples carry the target
/// class, out-of-scope samples keep their true label.
pub(crate) fn malicious_labels(labels: &[usize], goal: TbfaGoal) -> Vec<usize> {
    labels
        .iter()
        .map(|&l| {
            if goal.source_class.is_none_or(|s| l == s) {
                goal.target_class
            } else {
                l
            }
        })
        .collect()
}

/// Run the targeted progressive bit search.
///
/// The shared search descends the cross-entropy toward the malicious
/// labels: in-scope samples carry the target class, out-of-scope samples
/// keep their true label so the attack stays stealthy on them. The search
/// stops once the attack success rate on the eval batch reaches
/// [`TBFA_STOP_ASR`] or `config.max_flips` flips are committed;
/// `config.target_accuracy` and `config.record_every` play no part.
pub fn run_tbfa(
    model: &mut QModel,
    data: &AttackData,
    config: &AttackConfig,
    goal: TbfaGoal,
    skip: &HashSet<BitAddr>,
) -> TbfaReport {
    let mut search = BitSearch::new(model, data);
    let labels = &data.eval_labels;
    let clean_asr = attack_success_rate(search.eval_logits(), labels, goal);
    let mut flips = Vec::new();
    search.run(
        &malicious_labels(&data.search_labels, goal),
        Direction::Descend,
        config,
        skip,
        |search, step| {
            flips.push(step.flip);
            attack_success_rate(search.eval_logits(), labels, goal) >= TBFA_STOP_ASR
        },
    );

    // The last step's success rate (or the clean one) already measured
    // the final model: its eval logits are still current.
    let logits = search.eval_logits();
    let final_asr = attack_success_rate(logits, labels, goal);
    let final_accuracy = dd_nn::loss::accuracy(logits, labels);
    TbfaReport {
        goal,
        flips,
        clean_asr,
        final_asr,
        final_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_victim;

    #[test]
    fn all_to_one_attack_redirects_predictions() {
        let (mut model, data, _) = trained_victim();
        let goal = TbfaGoal {
            source_class: None,
            target_class: 2,
        };
        let config = AttackConfig {
            target_accuracy: 0.0,
            max_flips: 30,
            ..Default::default()
        };
        let report = run_tbfa(&mut model, &data, &config, goal, &HashSet::new());
        assert!(
            report.final_asr > report.clean_asr + 0.3,
            "targeted attack made no progress: {} -> {}",
            report.clean_asr,
            report.final_asr
        );
    }

    #[test]
    fn one_to_one_attack_is_stealthier() {
        let (mut model, data, _) = trained_victim();
        let snapshot = model.snapshot_q();
        let all = run_tbfa(
            &mut model,
            &data,
            &AttackConfig {
                target_accuracy: 0.0,
                max_flips: 20,
                ..Default::default()
            },
            TbfaGoal {
                source_class: None,
                target_class: 1,
            },
            &HashSet::new(),
        );
        model.restore_q(&snapshot);
        let one = run_tbfa(
            &mut model,
            &data,
            &AttackConfig {
                target_accuracy: 0.0,
                max_flips: 20,
                ..Default::default()
            },
            TbfaGoal {
                source_class: Some(0),
                target_class: 1,
            },
            &HashSet::new(),
        );
        // The class-restricted attack should preserve more overall
        // accuracy than the all-to-one attack.
        assert!(
            one.final_accuracy >= all.final_accuracy,
            "one-to-one ({}) should be stealthier than all-to-one ({})",
            one.final_accuracy,
            all.final_accuracy
        );
    }

    #[test]
    fn skip_set_blocks_targeted_flips_too() {
        let (mut model, data, _) = trained_victim();
        let snapshot = model.snapshot_q();
        let goal = TbfaGoal {
            source_class: None,
            target_class: 3,
        };
        let config = AttackConfig {
            target_accuracy: 0.0,
            max_flips: 10,
            ..Default::default()
        };
        let first = run_tbfa(&mut model, &data, &config, goal, &HashSet::new());
        model.restore_q(&snapshot);
        let found: HashSet<BitAddr> = first.flips.iter().map(|f| f.addr).collect();
        let second = run_tbfa(&mut model, &data, &config, goal, &found);
        for f in &second.flips {
            assert!(!found.contains(&f.addr));
        }
    }

    /// Flat `(param, index, bit, old, new)` view of a flip list.
    fn flat(flips: &[BitFlip]) -> Vec<(usize, usize, u8, i8, i8)> {
        flips
            .iter()
            .map(|f| (f.addr.param, f.addr.index, f.addr.bit, f.old, f.new))
            .collect()
    }

    /// No artifact shows which bits T-BFA flips, so its choices are pinned
    /// here: for two goals, once open and once skipping the open run's
    /// bits.
    #[test]
    fn flip_lists_are_pinned() {
        let (mut model, data, _) = trained_victim();
        let clean = model.snapshot_q();
        let config = AttackConfig {
            target_accuracy: 0.0,
            max_flips: 20,
            ..Default::default()
        };
        let all_to_two = TbfaGoal {
            source_class: None,
            target_class: 2,
        };
        let zero_to_one = TbfaGoal {
            source_class: Some(0),
            target_class: 1,
        };
        let pinned = [
            (
                all_to_two,
                vec![
                    (2, 94, 7, -82, 46),
                    (2, 87, 7, -27, 101),
                    (2, 70, 7, -121, 7),
                    (2, 68, 7, -122, 6),
                    (2, 55, 7, 72, -56),
                    (2, 119, 7, 62, -66),
                ],
                vec![
                    (1, 262, 7, 51, -77),
                    (2, 30, 7, 69, -59),
                    (1, 433, 7, 41, -87),
                    (2, 62, 7, 79, -49),
                    (1, 283, 7, 58, -70),
                    (2, 84, 7, -16, 112),
                    (2, 98, 7, 72, -56),
                    (1, 316, 7, 107, -21),
                    (1, 390, 7, 36, -92),
                    (2, 52, 7, 77, -51),
                    (1, 1478, 7, 18, -110),
                    (2, 115, 7, 45, -83),
                    (2, 94, 6, -82, -18),
                ],
            ),
            (
                zero_to_one,
                vec![
                    (2, 30, 7, 69, -59),
                    (2, 41, 7, -45, 83),
                    (1, 1524, 7, -4, 124),
                ],
                vec![
                    (2, 9, 7, 19, -109),
                    (2, 54, 7, -7, 121),
                    (2, 49, 7, -45, 83),
                ],
            ),
        ];
        for (goal, open_flips, skipped_flips) in pinned {
            let open = run_tbfa(&mut model, &data, &config, goal, &HashSet::new());
            model.restore_q(&clean);
            assert_eq!(flat(&open.flips), open_flips, "{goal:?} open");
            let skip: HashSet<BitAddr> = open.flips.iter().map(|f| f.addr).collect();
            let skipped = run_tbfa(&mut model, &data, &config, goal, &skip);
            model.restore_q(&clean);
            assert_eq!(flat(&skipped.flips), skipped_flips, "{goal:?} skipped");
        }
    }
}
