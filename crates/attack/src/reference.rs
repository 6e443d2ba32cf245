//! Bit-identity oracle for the incremental bit search and its ranking.
//!
//! The progressive search as it ran before [`crate::bfa::BitSearch`]
//! recorded any pass — a full forward for every loss, gradient and
//! accuracy, and candidates ranked bit by bit — together with the entry
//! points that drove it, kept as references: the tests below require
//! every [`AttackStep`], every recorded measurement and every report of
//! the incremental search to equal theirs bit for bit (`f32::to_bits`),
//! on an MLP, a ResNet and a VGG victim, and the production ranking to
//! pick the same candidates with the same gains as the bit-by-bit one.

use std::collections::HashSet;

use dd_nn::Tensor;
use dd_qnn::{BitAddr, QModel};

use crate::adaptive::{real_accuracy, ProtectedAttackReport};
use crate::bfa::{AttackData, AttackReport, AttackStep, Direction};
use crate::tbfa::{attack_success_rate, malicious_labels, TbfaGoal, TbfaReport, TBFA_STOP_ASR};
use crate::threat::{AttackConfig, ThreatModel};

/// The intra-layer search bit by bit: every bit of every weight with a
/// nonzero gradient, in `(index, bit)` order, the first highest positive
/// gain winning.
// The loop indexes are semantic (bit/param addresses), not mere
// positions; iterator rewrites would obscure that.
#[allow(clippy::needless_range_loop)]
pub(crate) fn intra_layer_candidates(
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
    use dd_nn::layers::Linear;
    use dd_nn::model::Network;
    use dd_qnn::{Architecture, BitFlip};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Gradients for the ranking oracle: values of every magnitude
    /// (`±2^-30..2^30`), with a `special_share` of `±0.0`, subnormals,
    /// NaN, `±inf`, and values within `2^8` of `f32::MAX`, whose
    /// `grad · scale · 128` overflows at most scales.
    fn ranking_grads(rng: &mut StdRng, len: usize, special_share: f64) -> Vec<f32> {
        (0..len)
            .map(|_| {
                let sign = if rng.gen_bool(0.5) { 1.0f32 } else { -1.0 };
                let magnitude = if rng.gen_bool(special_share) {
                    match rng.gen_range(0..5) {
                        0 => 0.0,
                        1 => f32::from_bits(rng.gen_range(1u32..0x80_0000)),
                        2 => f32::NAN,
                        3 => f32::INFINITY,
                        _ => f32::MAX / (rng.gen_range(0i32..9) as f32).exp2(),
                    }
                } else {
                    rng.gen_range(0.5f32..1.0) * (rng.gen_range(-30i32..31) as f32).exp2()
                };
                sign * magnitude
            })
            .collect()
    }

    /// A two-layer model for the ranking oracle: `fc0`'s 16 × 32 weights
    /// hold every `q` in `-128..=127` twice, 256 apart, and `fc1`'s 4 × 16
    /// random ones; each layer's scale is its `max_abs / 127`.
    fn ranking_model(rng: &mut StdRng, max_abs: [f32; 2]) -> QModel {
        let mut layer = |name: &str, (rows, cols): (usize, usize), max_abs: f32| {
            let mut w: Vec<f32> = (0..rows * cols)
                .map(|_| rng.gen_range(-1.0f32..1.0) * max_abs)
                .collect();
            w[0] = max_abs;
            Linear::new(
                name,
                Tensor::from_vec(&[rows, cols], w),
                Tensor::zeros(&[rows]),
            )
        };
        let net = Network::new("ranking")
            .push(layer("fc0", (16, 32), max_abs[0]))
            .push(layer("fc1", (4, 16), max_abs[1]));
        let mut model = QModel::from_network(net);
        let offset = rng.gen_range(0..256);
        let every_q = (0..512).map(|i| ((i + offset) % 256) as u8 as i8).collect();
        let random_q = (0..64).map(|_| rng.gen_range(-128i32..128) as i8).collect();
        model.restore_q(&[every_q, random_q]);
        model
    }

    /// The bit the per-bit loop picks for one weight on its own.
    fn own_best_bit(
        model: &QModel,
        grads: &[Tensor],
        param: usize,
        index: usize,
    ) -> Option<BitAddr> {
        let mut best: Option<(BitAddr, f32)> = None;
        for bit in 0..dd_qnn::WEIGHT_BITS {
            let addr = BitAddr { param, index, bit };
            let gain = model.flip_gain(grads, addr);
            let gains = gain > 0.0 || gain.is_nan();
            if gains && best.is_none_or(|(_, bg)| gain > bg) {
                best = Some((addr, gain));
            }
        }
        best.map(|(addr, _)| addr)
    }

    /// Skip sets for the ranking oracle: none; each parameter's candidate
    /// over three rounds, as profiling grows its skip set; every weight's
    /// own best bit; and that of one weight in three, with random bits and
    /// addresses past the model's end.
    fn skip_sets(model: &QModel, grads: &[Tensor], rng: &mut StdRng) -> Vec<HashSet<BitAddr>> {
        let mut rounds = HashSet::new();
        for _ in 0..3 {
            let found = intra_layer_candidates(model, grads, &rounds);
            rounds.extend(found.into_iter().map(|(addr, _)| addr));
        }
        let weights = (0..model.num_qparams())
            .flat_map(|param| (0..model.qtensor(param).len()).map(move |index| (param, index)));
        let every: HashSet<BitAddr> = weights
            .filter_map(|(param, index)| own_best_bit(model, grads, param, index))
            .collect();
        let mut some: HashSet<BitAddr> = every
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(1.0 / 3.0))
            .collect();
        for _ in 0..32 {
            some.insert(BitAddr {
                param: rng.gen_range(0..3),
                index: rng.gen_range(0..600),
                bit: rng.gen_range(0..8),
            });
        }
        vec![HashSet::new(), rounds, every, some]
    }

    /// Candidates with their gains as bit patterns, every NaN made one
    /// (Rust leaves a NaN result's sign and payload unspecified).
    fn ranked(candidates: Vec<(BitAddr, f32)>) -> Vec<(BitAddr, u32)> {
        let bits = |g: f32| {
            if g.is_nan() {
                f32::NAN.to_bits()
            } else {
                g.to_bits()
            }
        };
        candidates
            .into_iter()
            .map(|(addr, g)| (addr, bits(g)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The production ranking against the bit-by-bit loop, on every
        /// `q`, scales from subnormal to near `f32::MAX`, special
        /// gradients, equal gains on the two copies of a `q` (one
        /// gradient in four is copied across), four kinds of skip set,
        /// and both search directions (T-BFA negates the gradient).
        #[test]
        fn intra_layer_ranking_matches_the_per_bit_loop(
            scales in (0usize..6, 0usize..6),
            special in 0usize..4,
            seed in any::<u64>(),
        ) {
            let max_abs = [1e-40f32, 1e-20, 0.05, 1.0, 1e20, 3e38];
            let mut rng = StdRng::seed_from_u64(seed);
            let model = ranking_model(&mut rng, [max_abs[scales.0], max_abs[scales.1]]);
            let share = [0.0, 0.05, 0.25, 0.9][special];
            let mut g0 = ranking_grads(&mut rng, 512, share);
            for i in 0..256 {
                if rng.gen_bool(0.25) {
                    g0[i + 256] = g0[i];
                }
            }
            let g1 = ranking_grads(&mut rng, 64, share);
            let ascend = vec![
                Tensor::from_vec(&[16, 32], g0),
                Tensor::from_vec(&[4, 16], g1),
            ];
            let descend: Vec<Tensor> = ascend
                .iter()
                .map(|g| Tensor::from_vec(g.shape(), g.as_slice().iter().map(|v| -v).collect()))
                .collect();
            for grads in [&ascend, &descend] {
                for skip in skip_sets(&model, grads, &mut rng) {
                    let got = ranked(crate::bfa::intra_layer_candidates(&model, grads, &skip));
                    let want = ranked(intra_layer_candidates(&model, grads, &skip));
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}
