//! Random bit-flip attack — the weak baseline of Fig. 1(b).
//!
//! Flips uniformly random weight bits. The paper shows a targeted BFA
//! needs <5–25 flips where a random attack barely moves accuracy after
//! 100+ flips; reproducing that gap is the headline motivation figure.

use rand::Rng;

use dd_nn::Tensor;
use dd_qnn::{BitAddr, QModel};

/// Report of a random-flip campaign.
#[derive(Debug, Clone)]
pub struct RandomAttackReport {
    /// `(flips, accuracy)` trajectory including the clean point.
    pub trajectory: Vec<(usize, f32)>,
    /// Accuracy after all flips.
    pub final_accuracy: f32,
}

/// Draw one uniformly random weight bit of `model`: a weight uniform over
/// every quantized weight, then a bit uniform within it. Two draws from
/// `rng`, in that order.
pub fn random_bit(model: &QModel, rng: &mut impl Rng) -> BitAddr {
    let total: usize = (0..model.num_qparams())
        .map(|p| model.qtensor(p).len())
        .sum();
    let mut index = rng.gen_range(0..total);
    let mut param = 0;
    while index >= model.qtensor(param).len() {
        index -= model.qtensor(param).len();
        param += 1;
    }
    let bit = rng.gen_range(0..dd_qnn::WEIGHT_BITS);
    BitAddr { param, index, bit }
}

/// Flip `flips` uniformly random bits, recording accuracy every
/// `record_every` flips.
pub fn run_random_attack(
    model: &mut QModel,
    eval_images: &Tensor,
    eval_labels: &[usize],
    flips: usize,
    record_every: usize,
    rng: &mut impl Rng,
) -> RandomAttackReport {
    let clean = model.accuracy(eval_images, eval_labels);
    let mut trajectory = vec![(0usize, clean)];
    let mut final_accuracy = clean;

    for i in 1..=flips {
        model.flip_bit(random_bit(model, rng));
        if i % record_every.max(1) == 0 || i == flips {
            final_accuracy = model.accuracy(eval_images, eval_labels);
            trajectory.push((i, final_accuracy));
        }
    }

    RandomAttackReport {
        trajectory,
        final_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_victim;
    use dd_nn::init::seeded_rng;

    #[test]
    fn random_attack_is_much_weaker_than_bfa() {
        let (mut model, data, clean) = trained_victim();
        let snapshot = model.snapshot_q();

        // Random: 60 flips.
        let mut rng = seeded_rng(99);
        let random = run_random_attack(
            &mut model,
            &data.eval_images,
            &data.eval_labels,
            60,
            10,
            &mut rng,
        );
        model.restore_q(&snapshot);

        // BFA: stop at the random attack's damage level, count flips.
        let cfg = crate::threat::AttackConfig {
            target_accuracy: random.final_accuracy.min(clean - 0.2),
            max_flips: 60,
            ..Default::default()
        };
        let bfa = crate::bfa::run_bfa(&mut model, &data, &cfg, &Default::default());

        assert!(
            bfa.bit_flips < 30,
            "BFA needed {} flips to reach {} (random got there in 60+)",
            bfa.bit_flips,
            cfg.target_accuracy,
        );
        // The random attack after 60 flips should not be close to collapse.
        assert!(
            random.final_accuracy > 0.3,
            "random attack unexpectedly strong"
        );
    }

    #[test]
    fn trajectory_is_recorded() {
        let (mut model, data, _) = trained_victim();
        let mut rng = seeded_rng(7);
        let report = run_random_attack(
            &mut model,
            &data.eval_images,
            &data.eval_labels,
            20,
            5,
            &mut rng,
        );
        // Points at 0, 5, 10, 15, 20.
        assert_eq!(report.trajectory.len(), 5);
        assert_eq!(report.trajectory[0].0, 0);
        assert_eq!(report.trajectory.last().unwrap().0, 20);
    }

    #[test]
    fn deterministic_under_seed() {
        let (mut model, data, _) = trained_victim();
        let snap = model.snapshot_q();
        let a = run_random_attack(
            &mut model,
            &data.eval_images,
            &data.eval_labels,
            10,
            1,
            &mut seeded_rng(5),
        );
        model.restore_q(&snap);
        let b = run_random_attack(
            &mut model,
            &data.eval_images,
            &data.eval_labels,
            10,
            1,
            &mut seeded_rng(5),
        );
        assert_eq!(a.trajectory, b.trajectory);
    }
}
