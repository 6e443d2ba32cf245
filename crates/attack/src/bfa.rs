//! The progressive bit search of the Bit-Flip Attack (BFA)
//! [Rakin et al., ICCV 2019] — the attack DNN-Defender is built to tame.
//!
//! Each iteration performs the paper's two search steps (§2.2):
//!
//! 1. **intra-layer search** — within every layer, rank bits by the
//!    first-order loss increase `|∇_B L| · scale · Δq` and pick the best;
//! 2. **inter-layer search** — evaluate the per-layer winners by actually
//!    flipping them (most-promising first) and commit the flip that
//!    maximizes the true loss.
//!
//! The search maximizes Eqn. 1 while keeping the Hamming distance to the
//! clean weights minimal (one committed flip per iteration).

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use dd_nn::Tensor;
use dd_qnn::{BitAddr, BitFlip, QModel};

use crate::threat::AttackConfig;

/// One committed attack iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackStep {
    /// The committed flip.
    pub flip: BitFlip,
    /// Search-batch loss before the flip.
    pub loss_before: f32,
    /// Search-batch loss after the flip.
    pub loss_after: f32,
    /// Eval-batch accuracy after the flip (`None` when not recorded this
    /// iteration).
    pub accuracy: Option<f32>,
}

/// Outcome of an attack run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackReport {
    /// Every committed iteration in order.
    pub steps: Vec<AttackStep>,
    /// Eval accuracy before any flip.
    pub clean_accuracy: f32,
    /// Eval accuracy after the final flip.
    pub final_accuracy: f32,
    /// Number of committed bit flips.
    pub bit_flips: usize,
    /// Whether the accuracy target was reached within the flip budget.
    pub reached_target: bool,
}

impl AttackReport {
    /// Accuracy trajectory `(flips, accuracy)` at the recorded points,
    /// starting from `(0, clean)`.
    pub fn trajectory(&self) -> Vec<(usize, f32)> {
        let mut out = vec![(0, self.clean_accuracy)];
        for (i, s) in self.steps.iter().enumerate() {
            if let Some(acc) = s.accuracy {
                out.push((i + 1, acc));
            }
        }
        out
    }
}

/// The data the attacker is granted (Table 1): a small batch used for the
/// gradient search and a batch used to measure degradation.
#[derive(Debug, Clone)]
pub struct AttackData {
    /// Images for gradient computation / candidate evaluation.
    pub search_images: Tensor,
    /// Labels for the search batch.
    pub search_labels: Vec<usize>,
    /// Images for accuracy measurement.
    pub eval_images: Tensor,
    /// Labels for the eval batch.
    pub eval_labels: Vec<usize>,
}

impl AttackData {
    /// Use the same batch for search and evaluation.
    pub fn single_batch(images: Tensor, labels: Vec<usize>) -> Self {
        AttackData {
            search_images: images.clone(),
            search_labels: labels.clone(),
            eval_images: images,
            eval_labels: labels,
        }
    }
}

/// Find the best (highest first-order gain) non-skipped bit of every
/// parameter: the intra-layer search. Returns `(addr, gain)` per parameter
/// that has at least one allowed bit.
// The loop indexes are semantic (bit/param addresses), not mere
// positions; iterator rewrites would obscure that.
#[allow(clippy::needless_range_loop)]
pub fn intra_layer_candidates(
    model: &QModel,
    grads: &[Tensor],
    skip: &HashSet<BitAddr>,
) -> Vec<(BitAddr, f32)> {
    let mut out = Vec::with_capacity(model.num_qparams());
    for param in 0..model.num_qparams() {
        let qt = model.qtensor(param);
        let scale = qt.quant_params().scale;
        let g = grads[param].as_slice();
        let mut best: Option<(BitAddr, f32)> = None;
        for index in 0..qt.len() {
            let grad = g[index];
            if grad == 0.0 {
                continue;
            }
            let q = qt.get(index);
            for bit in 0..dd_qnn::WEIGHT_BITS {
                let gain = grad * scale * dd_qnn::flip_delta(q, bit) as f32;
                if gain <= 0.0 {
                    continue;
                }
                if best.is_none_or(|(_, bg)| gain > bg) {
                    let addr = BitAddr { param, index, bit };
                    if !skip.contains(&addr) {
                        best = Some((addr, gain));
                    }
                }
            }
        }
        if let Some(b) = best {
            out.push(b);
        }
    }
    out
}

/// Run the progressive bit search, skipping any bit in `skip`.
///
/// The model is left in its attacked state; callers that need the clean
/// model back should snapshot with [`QModel::snapshot_q`] first.
pub fn run_bfa(
    model: &mut QModel,
    data: &AttackData,
    config: &AttackConfig,
    skip: &HashSet<BitAddr>,
) -> AttackReport {
    let clean_accuracy = model.accuracy(&data.eval_images, &data.eval_labels);
    let mut steps = Vec::new();
    let mut final_accuracy = clean_accuracy;
    let mut reached_target = false;
    // The search loss of the model as it stands. After a commit that is
    // the committed candidate's `loss_after`: `flip_bit` and `unflip`
    // re-sync each weight from its quantized value, so the committed
    // model is bit for bit the one that loss was measured on.
    let mut current_loss = None;

    for iter in 0..config.max_flips {
        let loss_before =
            current_loss.unwrap_or_else(|| model.loss(&data.search_images, &data.search_labels));
        let grads = model.weight_grads(&data.search_images, &data.search_labels);
        let mut candidates = intra_layer_candidates(model, &grads, skip);
        if candidates.is_empty() {
            break;
        }
        // Inter-layer search: evaluate the top-k candidates exactly.
        candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        candidates.truncate(config.evaluate_top_k.max(1));
        let mut best: Option<(BitAddr, f32)> = None;
        for &(addr, _) in &candidates {
            let flip = model.flip_bit(addr);
            let loss = model.loss(&data.search_images, &data.search_labels);
            model.unflip(flip);
            if best.is_none_or(|(_, bl)| loss > bl) {
                best = Some((addr, loss));
            }
        }
        let (addr, loss_after) = best.expect("candidates were non-empty");
        let flip = model.flip_bit(addr);
        current_loss = Some(loss_after);

        let record = (iter + 1) % config.record_every.max(1) == 0;
        let accuracy = if record {
            let acc = model.accuracy(&data.eval_images, &data.eval_labels);
            final_accuracy = acc;
            Some(acc)
        } else {
            None
        };
        steps.push(AttackStep {
            flip,
            loss_before,
            loss_after,
            accuracy,
        });

        if final_accuracy <= config.target_accuracy {
            reached_target = true;
            break;
        }
    }

    if !steps.is_empty() && steps.last().unwrap().accuracy.is_none() {
        final_accuracy = model.accuracy(&data.eval_images, &data.eval_labels);
    }

    AttackReport {
        bit_flips: steps.len(),
        steps,
        clean_accuracy,
        final_accuracy,
        reached_target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_victim;

    #[test]
    fn bfa_collapses_accuracy_with_few_flips() {
        let (mut model, data, _) = trained_victim();
        let config = AttackConfig {
            target_accuracy: 0.35,
            max_flips: 60,
            ..Default::default()
        };
        let report = run_bfa(&mut model, &data, &config, &HashSet::new());
        assert!(
            report.reached_target,
            "BFA failed: final {}",
            report.final_accuracy
        );
        assert!(report.bit_flips <= 60);
        assert!(report.clean_accuracy > 0.8);
    }

    #[test]
    fn every_step_increases_search_loss() {
        let (mut model, data, _) = trained_victim();
        let config = AttackConfig {
            target_accuracy: 0.0,
            max_flips: 5,
            ..Default::default()
        };
        let report = run_bfa(&mut model, &data, &config, &HashSet::new());
        for step in &report.steps {
            assert!(
                step.loss_after >= step.loss_before,
                "committed flip decreased loss: {} -> {}",
                step.loss_before,
                step.loss_after
            );
        }
    }

    #[test]
    fn reused_losses_match_a_fresh_forward_bit_for_bit() {
        let (mut model, data, _) = trained_victim();
        let clean = model.snapshot_q();
        let config = AttackConfig {
            target_accuracy: 0.0,
            max_flips: 6,
            ..Default::default()
        };
        let report = run_bfa(&mut model, &data, &config, &HashSet::new());
        model.restore_q(&clean);
        let loss = |m: &mut QModel| m.loss(&data.search_images, &data.search_labels);
        for step in &report.steps {
            assert_eq!(step.loss_before.to_bits(), loss(&mut model).to_bits());
            model.flip_bit(step.flip.addr);
            assert_eq!(step.loss_after.to_bits(), loss(&mut model).to_bits());
        }
    }

    #[test]
    fn skip_set_is_respected() {
        let (mut model, data, _) = trained_victim();
        // First run to discover what BFA flips.
        let snapshot = model.snapshot_q();
        let config = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 20,
            ..Default::default()
        };
        let first = run_bfa(&mut model, &data, &config, &HashSet::new());
        let found: HashSet<BitAddr> = first.steps.iter().map(|s| s.flip.addr).collect();
        model.restore_q(&snapshot);
        // Second run skipping them must never touch those bits.
        let second = run_bfa(&mut model, &data, &config, &found);
        for step in &second.steps {
            assert!(!found.contains(&step.flip.addr), "skipped bit was flipped");
        }
    }

    #[test]
    fn trajectory_starts_at_clean() {
        let (mut model, data, _) = trained_victim();
        let config = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 10,
            ..Default::default()
        };
        let report = run_bfa(&mut model, &data, &config, &HashSet::new());
        let traj = report.trajectory();
        assert_eq!(traj[0].0, 0);
        assert_eq!(traj[0].1, report.clean_accuracy);
        assert!(traj.len() >= 2);
    }

    #[test]
    fn intra_layer_candidates_have_positive_gain() {
        let (mut model, data, _) = trained_victim();
        let grads = model.weight_grads(&data.search_images, &data.search_labels);
        let cands = intra_layer_candidates(&model, &grads, &HashSet::new());
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|&(_, g)| g > 0.0));
        // One candidate per parameter at most.
        assert!(cands.len() <= model.num_qparams());
    }
}
