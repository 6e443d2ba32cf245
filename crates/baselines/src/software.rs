//! Software (training-side) BFA defenses compared in Table 3.
//!
//! These transform the *model* rather than the memory system:
//!
//! * **Piece-wise clustering** [He et al., CVPR 2020] — push weights
//!   toward ±cluster centers; approximated here by symmetric weight
//!   clipping plus a brief fine-tune, which bounds per-flip damage the
//!   same way (the quantizer scale shrinks, so an MSB flip moves a weight
//!   less).
//! * **Binary weights** [He et al. 2020 / RA-BNN] — weights become
//!   `±α` per layer; a bit flip can only negate one weight, so far more
//!   flips are needed for the same damage.
//! * **Model capacity ×k** [RA-BNN observation] — a wider model dilutes
//!   each weight's influence.
//!
//! All of these trade training effort or clean accuracy for robustness,
//! which is exactly the comparison Table 3 draws against DNN-Defender
//! (no training, no accuracy drop).

use rand::rngs::StdRng;

use dd_dram::DramError;
use dd_nn::data::Dataset;
use dd_nn::model::Network;
use dd_nn::train::{train, TrainConfig};
use dnn_defender::defense::{
    hammer_to_flip, CampaignView, DefenseMechanism, DefenseStats, FlipAttempt,
};

/// Clip every quantizable weight of a network to `±limit × std(param)`.
///
/// Returns the number of weights clipped. This is the inference-time
/// effect of piece-wise clustering: no weight sticks out, so the 8-bit
/// quantization scale — and therefore the damage of any single bit flip —
/// shrinks.
pub fn clip_weights(net: &mut Network, limit: f32) -> usize {
    let mut clipped = 0;
    net.visit_params(&mut |p| {
        if !p.quantizable {
            return;
        }
        let n = p.value.len().max(1);
        let mean: f32 = p.value.as_slice().iter().sum::<f32>() / n as f32;
        let var: f32 = p
            .value
            .as_slice()
            .iter()
            .map(|&w| (w - mean) * (w - mean))
            .sum::<f32>()
            / n as f32;
        let bound = limit * var.sqrt();
        for w in p.value.as_mut_slice() {
            if w.abs() > bound {
                *w = w.signum() * bound;
                clipped += 1;
            }
        }
    });
    clipped
}

/// Binarize every quantizable weight to `±α` with `α = mean(|w|)` per
/// parameter (the XNOR-style binary-weight transform).
pub fn binarize_weights(net: &mut Network) {
    net.visit_params(&mut |p| {
        if !p.quantizable {
            return;
        }
        let n = p.value.len().max(1);
        let alpha: f32 = p.value.as_slice().iter().map(|w| w.abs()).sum::<f32>() / n as f32;
        for w in p.value.as_mut_slice() {
            *w = if *w >= 0.0 { alpha } else { -alpha };
        }
    });
}

/// Which training-side transform a [`SoftwareDefense`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoftwareKind {
    /// Piece-wise clustering, approximated by symmetric weight clipping
    /// plus a recovery fine-tune.
    Clustering,
    /// Binary (±α) weights with recovery fine-tunes.
    BinaryWeights,
    /// Wider model (×2 base width) diluting each weight's influence.
    CapacityX2,
}

impl SoftwareKind {
    /// Table 3 row label.
    pub fn name(self) -> &'static str {
        match self {
            SoftwareKind::Clustering => "Piece-wise clustering",
            SoftwareKind::BinaryWeights => "Binary weight",
            SoftwareKind::CapacityX2 => "Model Capacity x2",
        }
    }
}

/// The software (training-side) defenses behind the [`DefenseMechanism`]
/// API. They transform the *model*, not the memory system, so every
/// campaign lands ([`FlipAttempt::Landed`]) — robustness shows up as
/// higher post-attack accuracy instead of blocked flips, exactly how
/// Table 3 compares them.
#[derive(Debug)]
pub struct SoftwareDefense {
    kind: SoftwareKind,
    /// Epochs for each recovery fine-tune pass.
    recovery_epochs: usize,
    stats: DefenseStats,
}

impl SoftwareDefense {
    /// Defense of the given kind with the Table 3 recovery schedule.
    pub fn new(kind: SoftwareKind) -> Self {
        SoftwareDefense {
            kind,
            recovery_epochs: 4,
            stats: DefenseStats::default(),
        }
    }

    /// Defense with a custom recovery fine-tune length (tests use short
    /// schedules).
    pub fn with_recovery_epochs(kind: SoftwareKind, epochs: usize) -> Self {
        SoftwareDefense {
            kind,
            recovery_epochs: epochs,
            stats: DefenseStats::default(),
        }
    }

    /// The transform kind.
    pub fn kind(&self) -> SoftwareKind {
        self.kind
    }
}

impl DefenseMechanism for SoftwareDefense {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn capacity_multiplier(&self) -> usize {
        match self.kind {
            SoftwareKind::CapacityX2 => 2,
            _ => 1,
        }
    }

    /// Transform + recovery fine-tune + re-transform (the
    /// transform-train-transform pattern approximating the training-time
    /// versions of these defenses).
    fn prepare_victim(&mut self, net: &mut Network, dataset: &Dataset, rng: &mut StdRng) {
        let ft = TrainConfig {
            epochs: self.recovery_epochs,
            batch_size: 64,
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 0.0,
        };
        match self.kind {
            SoftwareKind::Clustering => {
                clip_weights(net, 2.0);
                train(net, dataset, ft, rng);
                clip_weights(net, 2.0);
            }
            SoftwareKind::BinaryWeights => {
                binarize_weights(net);
                train(net, dataset, ft, rng);
                binarize_weights(net);
                // One more recovery pass for the norm/bias parameters.
                let ft2 = TrainConfig { lr: 0.005, ..ft };
                train(net, dataset, ft2, rng);
                binarize_weights(net);
            }
            SoftwareKind::CapacityX2 => {}
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use dd_nn::init::seeded_rng;
    use dd_nn::layers::{Flatten, Linear};

    fn toy_net() -> Network {
        let mut rng = seeded_rng(8);
        Network::new("toy")
            .push(Flatten::new())
            .push(Linear::kaiming("fc", 16, 8, &mut rng))
    }

    /// `max |w|` of the first quantizable parameter.
    fn first_max_abs(net: &mut Network) -> f32 {
        let mut out = None;
        net.visit_params(&mut |p| {
            if p.quantizable && out.is_none() {
                out = Some(
                    p.value
                        .as_slice()
                        .iter()
                        .fold(0.0f32, |m, &w| m.max(w.abs())),
                );
            }
        });
        out.expect("a quantizable parameter")
    }

    #[test]
    fn clipping_reduces_max_abs() {
        let mut net = toy_net();
        // Plant an outlier.
        net.visit_params(&mut |p| {
            if p.quantizable {
                p.value.as_mut_slice()[0] = 100.0;
            }
        });
        let before = first_max_abs(&mut net);
        let clipped = clip_weights(&mut net, 2.0);
        let after = first_max_abs(&mut net);
        assert!(clipped >= 1);
        assert!(after < before);
    }

    #[test]
    fn binarization_leaves_two_levels() {
        let mut net = toy_net();
        binarize_weights(&mut net);
        net.visit_params(&mut |p| {
            if p.quantizable {
                let alpha = p.value.as_slice()[0].abs();
                assert!(p
                    .value
                    .as_slice()
                    .iter()
                    .all(|w| (w.abs() - alpha).abs() < 1e-6));
            }
        });
    }
}
