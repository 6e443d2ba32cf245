//! Bit-identity oracle for the incremental bit search.
//!
//! The progressive search as it ran before [`crate::bfa::BitSearch`]
//! recorded any pass — a full forward for every loss, gradient and
//! accuracy — together with the entry points that drove it, kept as
//! references: the tests below require every [`AttackStep`], every
//! recorded measurement and every report of the incremental search to
//! equal theirs bit for bit (`f32::to_bits`), on an MLP, a ResNet and a
//! VGG victim.

use std::collections::HashSet;

use dd_nn::Tensor;
use dd_qnn::{BitAddr, QModel};

use crate::adaptive::{real_accuracy, ProtectedAttackReport};
use crate::bfa::{intra_layer_candidates, AttackData, AttackReport, AttackStep, Direction};
use crate::tbfa::{attack_success_rate, malicious_labels, TbfaGoal, TbfaReport, TBFA_STOP_ASR};
use crate::threat::{AttackConfig, ThreatModel};

/// The progressive search with a full forward pass per measurement.
pub(crate) fn progressive_search(
    model: &mut QModel,
    images: &Tensor,
    labels: &[usize],
    direction: Direction,
    config: &AttackConfig,
    skip: &HashSet<BitAddr>,
    mut on_step: impl FnMut(&mut QModel, AttackStep) -> bool,
) {
    let mut current_loss = None;
    for _ in 0..config.max_flips {
        let loss_before = current_loss.unwrap_or_else(|| model.loss(images, labels));
        let mut grads = model.weight_grads(images, labels);
        if direction == Direction::Descend {
            for grad in &mut grads {
                grad.as_mut_slice().iter_mut().for_each(|g| *g = -*g);
            }
        }
        let mut candidates = intra_layer_candidates(model, &grads, skip);
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        candidates.truncate(config.evaluate_top_k.max(1));
        let mut best: Option<(BitAddr, f32)> = None;
        for &(addr, _) in &candidates {
            let flip = model.flip_bit(addr);
            let loss = model.loss(images, labels);
            model.unflip(flip);
            if best.is_none_or(|(_, bl)| direction.improves(loss, bl)) {
                best = Some((addr, loss));
            }
        }
        let (addr, loss_after) = best.expect("candidates were non-empty");
        let flip = model.flip_bit(addr);
        current_loss = Some(loss_after);
        let step = AttackStep {
            flip,
            loss_before,
            loss_after,
            accuracy: None,
        };
        if on_step(model, step) {
            break;
        }
    }
}

fn eval_accuracy(model: &mut QModel, data: &AttackData) -> f32 {
    model.accuracy(&data.eval_images, &data.eval_labels)
}

/// [`crate::run_bfa`] on the reference search.
pub(crate) fn run_bfa(
    model: &mut QModel,
    data: &AttackData,
    config: &AttackConfig,
    skip: &HashSet<BitAddr>,
) -> AttackReport {
    let clean_accuracy = eval_accuracy(model, data);
    let mut steps = Vec::new();
    let mut final_accuracy = clean_accuracy;
    let mut reached_target = false;
    progressive_search(
        model,
        &data.search_images,
        &data.search_labels,
        Direction::Ascend,
        config,
        skip,
        |model, mut step| {
            if (steps.len() + 1).is_multiple_of(config.record_every.max(1)) {
                final_accuracy = eval_accuracy(model, data);
                step.accuracy = Some(final_accuracy);
            }
            steps.push(step);
            reached_target = final_accuracy <= config.target_accuracy;
            reached_target
        },
    );
    if steps.last().is_some_and(|step| step.accuracy.is_none()) {
        final_accuracy = eval_accuracy(model, data);
    }
    AttackReport {
        bit_flips: steps.len(),
        steps,
        clean_accuracy,
        final_accuracy,
        reached_target,
    }
}

/// The semi-white-box attacker of [`crate::attack_protected`] on the
/// reference search.
pub(crate) fn semi_white_box(
    model: &mut QModel,
    data: &AttackData,
    config: &AttackConfig,
    protected: &HashSet<BitAddr>,
) -> ProtectedAttackReport {
    let clean_accuracy = eval_accuracy(model, data);
    let mut blocked: Vec<BitAddr> = Vec::new();
    let mut attempted = 0usize;
    let mut trajectory = vec![(0usize, clean_accuracy)];
    progressive_search(
        model,
        &data.search_images,
        &data.search_labels,
        Direction::Ascend,
        config,
        &HashSet::new(),
        |model, step| {
            attempted += 1;
            if protected.contains(&step.flip.addr) {
                blocked.push(step.flip.addr);
            }
            if !attempted.is_multiple_of(config.record_every.max(1)) {
                return false;
            }
            let acc = real_accuracy(model, data, &blocked);
            trajectory.push((attempted, acc));
            acc <= config.target_accuracy
        },
    );
    let final_accuracy = real_accuracy(model, data, &blocked);
    ProtectedAttackReport {
        threat: ThreatModel::SemiWhiteBox,
        attempted_flips: attempted,
        landed_flips: attempted - blocked.len(),
        clean_accuracy,
        final_accuracy,
        trajectory,
    }
}

/// [`crate::run_tbfa`] on the reference search.
pub(crate) fn run_tbfa(
    model: &mut QModel,
    data: &AttackData,
    config: &AttackConfig,
    goal: TbfaGoal,
    skip: &HashSet<BitAddr>,
) -> TbfaReport {
    let asr = |model: &mut QModel| {
        attack_success_rate(&model.forward(&data.eval_images), &data.eval_labels, goal)
    };
    let clean_asr = asr(model);
    let mut flips = Vec::new();
    progressive_search(
        model,
        &data.search_images,
        &malicious_labels(&data.search_labels, goal),
        Direction::Descend,
        config,
        skip,
        |model, step| {
            flips.push(step.flip);
            asr(model) >= TBFA_STOP_ASR
        },
    );
    TbfaReport {
        goal,
        flips,
        clean_asr,
        final_asr: asr(model),
        final_accuracy: eval_accuracy(model, data),
    }
}

mod tests {
    use super::*;
    use crate::adaptive::attack_protected;
    use crate::bfa::{run_bfa as bfa, BitSearch};
    use crate::tbfa::run_tbfa as tbfa;
    use crate::testutil::{trained_victim, untrained_victim};
    use dd_qnn::{Architecture, BitFlip};

    /// Which entry point a case drives.
    #[derive(Debug, Clone, Copy)]
    enum Attack {
        Bfa,
        SemiWhiteBox,
        Tbfa,
    }

    /// One oracle configuration.
    #[derive(Debug, Clone, Copy)]
    struct Case {
        attack: Attack,
        separate_eval: bool,
        record_every: usize,
        skip: bool,
        top_k: usize,
    }

    /// A cover of the oracle's axes: each attack once at every
    /// `evaluate_top_k`, and every value of the other axes at least once
    /// per attack.
    fn cases() -> Vec<Case> {
        use Attack::*;
        [
            (Bfa, false, 1, false, 1),
            (Bfa, true, 3, true, 3),
            (Bfa, true, 1, false, usize::MAX),
            (SemiWhiteBox, true, 1, true, 1),
            (SemiWhiteBox, false, 3, false, 3),
            (SemiWhiteBox, false, 1, true, usize::MAX),
            (Tbfa, true, 3, false, 1),
            (Tbfa, false, 1, true, 3),
            (Tbfa, true, 3, true, usize::MAX),
        ]
        .into_iter()
        .map(|(attack, separate_eval, record_every, skip, top_k)| Case {
            attack,
            separate_eval,
            record_every,
            skip,
            top_k,
        })
        .collect()
    }

    type StepBits = (BitFlip, u32, u32, Option<u32>);

    fn step_bits(step: &AttackStep) -> StepBits {
        (
            step.flip,
            step.loss_before.to_bits(),
            step.loss_after.to_bits(),
            step.accuracy.map(f32::to_bits),
        )
    }

    /// A report as bit patterns.
    #[derive(Debug, PartialEq)]
    enum Report {
        Bfa(Vec<StepBits>, u32, u32, usize, bool),
        Protected(usize, usize, u32, u32, Vec<(usize, u32)>),
        Tbfa(Vec<BitFlip>, u32, u32, u32),
    }

    fn bfa_bits(r: AttackReport) -> Report {
        Report::Bfa(
            r.steps.iter().map(step_bits).collect(),
            r.clean_accuracy.to_bits(),
            r.final_accuracy.to_bits(),
            r.bit_flips,
            r.reached_target,
        )
    }

    fn protected_bits(r: ProtectedAttackReport) -> Report {
        Report::Protected(
            r.attempted_flips,
            r.landed_flips,
            r.clean_accuracy.to_bits(),
            r.final_accuracy.to_bits(),
            r.trajectory
                .iter()
                .map(|&(n, a)| (n, a.to_bits()))
                .collect(),
        )
    }

    fn tbfa_bits(r: TbfaReport) -> Report {
        Report::Tbfa(
            r.flips,
            r.clean_asr.to_bits(),
            r.final_asr.to_bits(),
            r.final_accuracy.to_bits(),
        )
    }

    /// What a search callback saw: every step and, at every
    /// `record_every`-th, the eval accuracy of the model as it stands,
    /// with the protected flips so far undone, and with one probe bit
    /// toggled. The probe walks the parameters, so toggles land below,
    /// in and above the layers the step's candidates re-ran.
    type Trace = Vec<(StepBits, Option<[u32; 3]>)>;

    struct Setup<'a> {
        data: &'a AttackData,
        labels: Vec<usize>,
        direction: Direction,
        config: AttackConfig,
        skip: HashSet<BitAddr>,
        protected: &'a HashSet<BitAddr>,
        params: usize,
    }

    impl Setup<'_> {
        /// The callback both traces run; `accuracy` measures the model
        /// with the given bits toggled.
        fn observe(
            &self,
            trace: &mut Trace,
            blocked: &mut Vec<BitAddr>,
            step: AttackStep,
            mut accuracy: impl FnMut(&[BitAddr]) -> f32,
        ) -> bool {
            if self.protected.contains(&step.flip.addr) {
                blocked.push(step.flip.addr);
            }
            let probe = BitAddr {
                param: (trace.len() * 7) % self.params,
                index: 0,
                bit: 7,
            };
            let seen = (trace.len() + 1)
                .is_multiple_of(self.config.record_every)
                .then(|| [accuracy(&[]), accuracy(blocked), accuracy(&[probe])].map(f32::to_bits));
            trace.push((step_bits(&step), seen));
            false
        }
    }

    fn trace(model: &mut QModel, s: &Setup) -> Trace {
        let mut search = BitSearch::new(model, s.data);
        let (mut blocked, mut trace) = (Vec::new(), Trace::new());
        search.run(
            &s.labels,
            s.direction,
            &s.config,
            &s.skip,
            |search, step| {
                s.observe(&mut trace, &mut blocked, step, |bits| {
                    search.real_accuracy(bits)
                })
            },
        );
        trace
    }

    fn reference_trace(model: &mut QModel, s: &Setup) -> Trace {
        let (mut blocked, mut trace) = (Vec::new(), Trace::new());
        let images = &s.data.search_images;
        progressive_search(
            model,
            images,
            &s.labels,
            s.direction,
            &s.config,
            &s.skip,
            |model, step| {
                s.observe(&mut trace, &mut blocked, step, |bits| {
                    real_accuracy(model, s.data, bits)
                })
            },
        );
        trace
    }

    /// The same data with an eval batch of its own: the search images in
    /// reverse order, minus the last quarter, so both the images and the
    /// batch size differ.
    fn with_separate_eval(data: &AttackData) -> AttackData {
        let n = data.search_labels.len();
        let keep = n - n / 4;
        let per_image = data.search_images.len() / n;
        let mut shape = data.search_images.shape().to_vec();
        shape[0] = keep;
        let images = data.search_images.as_slice();
        let order: Vec<usize> = (0..n).rev().take(keep).collect();
        let pixels = order
            .iter()
            .flat_map(|&i| images[i * per_image..(i + 1) * per_image].iter().copied())
            .collect();
        AttackData {
            eval_images: Tensor::from_vec(&shape, pixels),
            eval_labels: order.iter().map(|&i| data.search_labels[i]).collect(),
            ..data.clone()
        }
    }

    /// Run every case on `model` through both searches and require equal
    /// steps, measurements and reports.
    fn check(model: &mut QModel, single: &AttackData, max_flips: usize) {
        let clean = model.snapshot_q();
        let separate = with_separate_eval(single);
        let goal = TbfaGoal {
            source_class: None,
            target_class: 1,
        };
        // A protected (and skipped) set the open search runs into: the
        // reference's first two BFA flips and first T-BFA flip.
        let open = AttackConfig {
            target_accuracy: 0.0,
            max_flips: 2,
            ..Default::default()
        };
        let mut protected: HashSet<BitAddr> = run_bfa(model, single, &open, &HashSet::new())
            .steps
            .iter()
            .map(|s| s.flip.addr)
            .collect();
        model.restore_q(&clean);
        let first = run_tbfa(model, single, &open, goal, &HashSet::new()).flips[0];
        protected.insert(first.addr);
        model.restore_q(&clean);

        for case in cases() {
            let data = if case.separate_eval {
                &separate
            } else {
                single
            };
            let config = AttackConfig {
                // Low enough that some BFA runs stop early.
                target_accuracy: 0.3,
                max_flips,
                evaluate_top_k: case.top_k,
                record_every: case.record_every,
            };
            let skip = if case.skip {
                protected.clone()
            } else {
                HashSet::new()
            };
            let (report, reference) = match case.attack {
                Attack::Bfa => {
                    let report = bfa_bits(bfa(model, data, &config, &skip));
                    model.restore_q(&clean);
                    (report, bfa_bits(run_bfa(model, data, &config, &skip)))
                }
                Attack::SemiWhiteBox => {
                    let threat = ThreatModel::SemiWhiteBox;
                    let report = attack_protected(model, data, &config, &protected, threat);
                    model.restore_q(&clean);
                    let reference = semi_white_box(model, data, &config, &protected);
                    (protected_bits(report), protected_bits(reference))
                }
                Attack::Tbfa => {
                    let report = tbfa_bits(tbfa(model, data, &config, goal, &skip));
                    model.restore_q(&clean);
                    (
                        report,
                        tbfa_bits(run_tbfa(model, data, &config, goal, &skip)),
                    )
                }
            };
            model.restore_q(&clean);
            assert_eq!(report, reference, "{} {case:?}: report", model.name());

            // The semi-white-box and T-BFA reports show no losses: compare
            // their searches step by step as well.
            let (labels, direction) = match case.attack {
                Attack::Bfa => continue,
                Attack::SemiWhiteBox => (data.search_labels.clone(), Direction::Ascend),
                Attack::Tbfa => (
                    malicious_labels(&data.search_labels, goal),
                    Direction::Descend,
                ),
            };
            let setup = Setup {
                data,
                labels,
                direction,
                config,
                skip,
                protected: &protected,
                params: model.num_qparams(),
            };
            let seen = trace(model, &setup);
            model.restore_q(&clean);
            let reference = reference_trace(model, &setup);
            model.restore_q(&clean);
            assert_eq!(seen, reference, "{} {case:?}: steps", model.name());
        }
    }

    /// The MLP victim, trained, on a 16-image batch.
    #[test]
    fn incremental_search_matches_the_reference_on_an_mlp() {
        let (mut model, data, _) = trained_victim();
        let n = 16;
        let per_image = data.search_images.len() / data.search_labels.len();
        let mut shape = data.search_images.shape().to_vec();
        shape[0] = n;
        let images = Tensor::from_vec(
            &shape,
            data.search_images.as_slice()[..n * per_image].to_vec(),
        );
        let single = AttackData::single_batch(images, data.search_labels[..n].to_vec());
        check(&mut model, &single, 4);
    }

    /// ResNet-20: top-level residual blocks holding several parameters
    /// and a projection shortcut.
    #[test]
    fn incremental_search_matches_the_reference_on_a_resnet() {
        let (mut model, data) = untrained_victim(Architecture::ResNet20, 8);
        check(&mut model, &data, 3);
    }

    /// VGG-11: pooling and flatten between the weight layers.
    #[test]
    fn incremental_search_matches_the_reference_on_a_vgg() {
        let (mut model, data) = untrained_victim(Architecture::Vgg11, 16);
        check(&mut model, &data, 3);
    }
}
