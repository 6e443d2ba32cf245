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
//!
//! This module holds the only copy of that loop. Every attacker and the
//! defender's profiling run it (see the crate docs); T-BFA
//! ([`crate::tbfa`]) runs it downhill, toward its malicious labels.

use std::collections::HashSet;

use dd_nn::loss::cross_entropy;
use dd_nn::Tensor;
use dd_qnn::{BitAddr, BitFlip, QModel};

use crate::threat::AttackConfig;

/// One committed attack iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone)]
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
///
/// Bit `b` of a weight gains `grad · scale · Δq_b`, and a parameter's
/// candidate is the first bit, in `(index, bit)` order, whose gain beats
/// every earlier positive one. Since `Δq_b` is `±2^b` below the sign bit
/// and `∓128` on it, a weight whose `grad · scale · 128` is finite has its
/// gains exact and distinct, and its best one is read off its bits (see
/// [`best_bit`]); a weight with any bit in `skip`, or a non-finite gain,
/// is ranked bit by bit. Either way the winner and its gain are the ones
/// the bit-by-bit loop over every weight finds (`docs/perf.md`, "`Linear`
/// forward and intra-layer ranking").
pub(crate) fn intra_layer_candidates(
    model: &QModel,
    grads: &[Tensor],
    skip: &HashSet<BitAddr>,
) -> Vec<(BitAddr, f32)> {
    // Each parameter's weights with a skipped bit.
    let mut skipped = vec![Vec::new(); model.num_qparams()];
    for addr in skip {
        if let Some(indices) = skipped.get_mut(addr.param) {
            indices.push(addr.index);
        }
    }
    let mut out = Vec::with_capacity(model.num_qparams());
    for (param, indices) in skipped.iter_mut().enumerate() {
        indices.sort_unstable();
        indices.dedup();
        let qt = model.qtensor(param);
        let ranking = Ranking {
            param,
            q: qt.as_q(),
            grads: grads[param].as_slice(),
            scale: qt.quant_params().scale,
            skip,
        };
        if let Some(best) = ranking.best(indices) {
            out.push(best);
        }
    }
    out
}

/// The bit of `q` whose flip gains the most when `grad · scale` is
/// `gs`, if `gs · 128` is finite: the sign bit when flipping it moves `q`
/// toward `gs`'s sign, else the highest lower bit whose flip does. With
/// the sign bit inverted, the bits whose flip moves `q` up are `q`'s
/// clear bits, and those that move it down its set bits. When no bit
/// gains, the bit returned loses, or gains `±0.0` if `gs` is zero.
#[inline(always)]
fn best_bit(q: i8, gs: f32) -> u8 {
    let toward = (q as u8 ^ 0x80) ^ if gs > 0.0 { 0xff } else { 0 };
    7 - (toward | 1).leading_zeros() as u8
}

/// One parameter's intra-layer search.
struct Ranking<'a> {
    param: usize,
    q: &'a [i8],
    grads: &'a [f32],
    scale: f32,
    skip: &'a HashSet<BitAddr>,
}

impl Ranking<'_> {
    /// The parameter's candidate, given the sorted, distinct indices of
    /// its weights with a skipped bit.
    fn best(&self, skipped: &[usize]) -> Option<(BitAddr, f32)> {
        let mut best = None;
        // The gain to beat: the best one's, or 0 while there is none (the
        // bit-by-bit loop takes only positive gains, or NaN ones).
        let mut bar = 0.0f32;
        let mut from = 0;
        let len = self.q.len();
        let stops = skipped.iter().copied().take_while(|&i| i < len);
        for until in stops.chain([len]) {
            let weights = self.q[from..until].iter().zip(&self.grads[from..until]);
            for (index, (&q, &grad)) in (from..).zip(weights) {
                let gs = grad * self.scale;
                if !(gs * 128.0).is_finite() {
                    self.rank_bits(index, &mut best);
                    bar = best.map_or(0.0, |(_, gain)| gain);
                    continue;
                }
                let bit = best_bit(q, gs);
                let gain = grad * self.scale * dd_qnn::flip_delta(q, bit) as f32;
                if gain > bar {
                    best = Some((self.addr(index, bit), gain));
                    bar = gain;
                }
            }
            if until < len {
                self.rank_bits(until, &mut best);
                bar = best.map_or(0.0, |(_, gain)| gain);
            }
            from = until + 1;
        }
        best
    }

    /// Rank weight `index` bit by bit against `best`, leaving out skipped
    /// bits.
    fn rank_bits(&self, index: usize, best: &mut Option<(BitAddr, f32)>) {
        let grad = self.grads[index];
        if grad == 0.0 {
            return;
        }
        let q = self.q[index];
        for bit in 0..dd_qnn::WEIGHT_BITS {
            let gain = grad * self.scale * dd_qnn::flip_delta(q, bit) as f32;
            if gain <= 0.0 {
                continue;
            }
            if best.is_none_or(|(_, bg)| gain > bg) {
                let addr = self.addr(index, bit);
                if !self.skip.contains(&addr) {
                    *best = Some((addr, gain));
                }
            }
        }
    }

    fn addr(&self, index: usize, bit: u8) -> BitAddr {
        BitAddr {
            param: self.param,
            index,
            bit,
        }
    }
}

/// Which way the search pushes the search-batch loss.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// Raise the loss on the true labels (BFA, Eqn. 1).
    Ascend,
    /// Lower the loss on malicious labels (T-BFA).
    Descend,
}

impl Direction {
    /// Whether a candidate's exact `loss` beats the best one so far.
    pub(crate) fn improves(self, loss: f32, best: f32) -> bool {
        match self {
            Direction::Ascend => loss > best,
            Direction::Descend => loss < best,
        }
    }
}

/// Whether two batches hold the same images, bit for bit.
fn same_images(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One batch's inference pass at the quantized weights `weights`: the
/// logits, and the input of each top-level layer up to the last one
/// recorded (committing a flip drops the inputs after its layer).
struct Recorded<'a> {
    /// The batch, layer 0's input.
    images: &'a Tensor,
    /// The inputs of layers 1, 2, … as far as they are recorded.
    later: Vec<Tensor>,
    logits: Tensor,
    weights: Vec<Vec<i8>>,
}

impl<'a> Recorded<'a> {
    /// A full pass of `images` at the model's current weights.
    fn new(model: &mut QModel, images: &'a Tensor) -> Self {
        let mut later = Vec::new();
        let logits = model
            .network_mut()
            .forward_from(0, images, Some(&mut later));
        Recorded {
            images,
            later,
            logits,
            weights: model.snapshot_q(),
        }
    }

    /// The recorded input of top-level layer `layer`.
    fn input(&self, layer: usize) -> &Tensor {
        match layer {
            0 => self.images,
            _ => &self.later[layer - 1],
        }
    }

    /// The earliest top-level layer whose quantized weights differ, byte
    /// for byte, from the recorded ones (the model's depth when none
    /// does). Parameters are numbered in layer order, so the first
    /// parameter that differs sits in that layer.
    fn stale_from(&self, model: &QModel) -> usize {
        (0..model.num_qparams())
            .find(|&p| model.qtensor(p).as_q() != self.weights[p].as_slice())
            .map_or(model.depth(), |p| model.param_layer(p))
    }

    /// Re-run the layers from `start` on at the model's current weights,
    /// or from the last recorded input if that comes first. Returns the
    /// layer the pass started at.
    fn rerun(&mut self, model: &mut QModel, start: usize) -> usize {
        let start = start.min(self.later.len());
        let mut later = Vec::new();
        let logits = model
            .network_mut()
            .forward_from(start, self.input(start), Some(&mut later));
        self.commit(model, start, logits);
        self.later.append(&mut later);
        start
    }

    /// Adopt the `logits` of a pass at the model's current weights that
    /// started at layer `start`. No weight before `start` changed, so its
    /// recorded input still holds; the inputs after it are dropped.
    fn commit(&mut self, model: &QModel, start: usize, logits: Tensor) {
        self.later.truncate(start);
        self.logits = logits;
        for (p, weights) in self.weights.iter_mut().enumerate() {
            weights.copy_from_slice(model.qtensor(p).as_q());
        }
    }
}

/// The progressive bit search over one model and one [`AttackData`].
///
/// It keeps the inference pass of each batch recorded, so a forward
/// pass re-runs only the top-level layers from the earliest one whose
/// weights changed since the pass was recorded. Each re-run layer makes
/// the same call on the same input as in a full forward, so every loss,
/// gradient and accuracy is bit for bit what full passes give:
///
/// * a candidate flip in parameter P changes only the layers from P's
///   top-level layer on, so its exact loss is a forward from that
///   layer's recorded input;
/// * the committed candidate's logits become the search batch's, and
///   the next gradient pass forwards only from the earliest layer whose
///   forward cache a candidate or an eval pass overwrote since;
/// * when the eval images are the search images, eval logits come from
///   the search batch's record; otherwise the eval batch keeps a record
///   of its own, brought up to date on demand.
///
/// The recorded weights are compared byte for byte, so a callback may
/// flip bits (and flip them back) between steps without telling the
/// search.
pub(crate) struct BitSearch<'a> {
    model: &'a mut QModel,
    data: &'a AttackData,
    /// The search batch's pass, at the weights of the last commit.
    search: Recorded<'a>,
    /// The eval batch's pass, when its images differ from the search
    /// batch's.
    eval: Option<Recorded<'a>>,
    /// Leading top-level layers whose forward caches hold `search`'s pass.
    cached: usize,
}

impl<'a> BitSearch<'a> {
    /// Record both batches' passes on the model as it stands.
    pub(crate) fn new(model: &'a mut QModel, data: &'a AttackData) -> Self {
        // The eval pass runs first, so the layer caches hold the search
        // pass that the first gradient pass backpropagates.
        let eval = (!same_images(&data.eval_images, &data.search_images))
            .then(|| Recorded::new(model, &data.eval_images));
        let search = Recorded::new(model, &data.search_images);
        let cached = model.depth();
        BitSearch {
            model,
            data,
            search,
            eval,
            cached,
        }
    }

    /// Eval-batch logits at the model's current weights.
    pub(crate) fn eval_logits(&mut self) -> &Tensor {
        let depth = self.model.depth();
        match &mut self.eval {
            Some(eval) => {
                let start = eval.stale_from(self.model);
                if start < depth {
                    let start = eval.rerun(self.model, start);
                    self.cached = self.cached.min(start);
                }
                &eval.logits
            }
            None => {
                let start = self.search.stale_from(self.model);
                if start < depth {
                    // The re-run layers' caches now hold the search pass;
                    // if every layer before them did already, all do.
                    let start = self.search.rerun(self.model, start);
                    if self.cached >= start {
                        self.cached = depth;
                    }
                }
                &self.search.logits
            }
        }
    }

    /// Eval-batch accuracy at the model's current weights.
    pub(crate) fn accuracy(&mut self) -> f32 {
        let data = self.data;
        dd_nn::loss::accuracy(self.eval_logits(), &data.eval_labels)
    }

    /// [`crate::real_accuracy`] on the recorded passes.
    pub(crate) fn real_accuracy(&mut self, blocked: &[BitAddr]) -> f32 {
        for &addr in blocked {
            self.model.flip_bit(addr);
        }
        let acc = self.accuracy();
        for &addr in blocked {
            self.model.flip_bit(addr);
        }
        acc
    }

    /// The progressive bit search: up to `config.max_flips` committed
    /// flips on the search images against `labels`, never flipping a bit
    /// in `skip`.
    ///
    /// Every committed flip goes to `on_step` as an [`AttackStep`] with
    /// `accuracy: None`; the callback sees the model in its attacked state
    /// and returns whether to stop. The search also stops once no bit is
    /// left to flip.
    ///
    /// Descending negates the gradient once per step. Negation is exact,
    /// so every first-order gain is the exact negation of the ascending
    /// gain on the same gradient, and the one ranking loop serves both
    /// directions; only the exact candidate losses compare the other way
    /// round.
    pub(crate) fn run(
        &mut self,
        labels: &[usize],
        direction: Direction,
        config: &AttackConfig,
        skip: &HashSet<BitAddr>,
        mut on_step: impl FnMut(&mut Self, AttackStep) -> bool,
    ) {
        let depth = self.model.depth();
        for _ in 0..config.max_flips {
            // Bring the search pass, and every layer's forward cache with
            // it, up to the current weights.
            let start = self.search.stale_from(self.model).min(self.cached);
            if start < depth {
                self.search.rerun(self.model, start);
            }
            self.cached = depth;
            let loss_before = cross_entropy(&self.search.logits, labels);
            let mut grads = self.model.weight_grads_at(&self.search.logits, labels);
            if direction == Direction::Descend {
                for grad in &mut grads {
                    grad.as_mut_slice().iter_mut().for_each(|g| *g = -*g);
                }
            }
            let mut candidates = intra_layer_candidates(self.model, &grads, skip);
            if candidates.is_empty() {
                break;
            }
            // Inter-layer search: evaluate the top-k candidates exactly,
            // each from its own layer on.
            candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            candidates.truncate(config.evaluate_top_k.max(1));
            let mut best: Option<(BitAddr, f32, usize, Tensor)> = None;
            for &(addr, _) in &candidates {
                let layer = self.model.param_layer(addr.param);
                let flip = self.model.flip_bit(addr);
                let logits =
                    self.model
                        .network_mut()
                        .forward_from(layer, self.search.input(layer), None);
                let loss = cross_entropy(&logits, labels);
                self.model.unflip(flip);
                self.cached = self.cached.min(layer);
                if best
                    .as_ref()
                    .is_none_or(|best| direction.improves(loss, best.1))
                {
                    best = Some((addr, loss, layer, logits));
                }
            }
            let (addr, loss_after, layer, logits) = best.expect("candidates were non-empty");
            // `flip_bit` and `unflip` re-sync each weight from its
            // quantized value, so the committed model is bit for bit the
            // one the candidate's pass ran on.
            let flip = self.model.flip_bit(addr);
            self.search.commit(self.model, layer, logits);
            let step = AttackStep {
                flip,
                loss_before,
                loss_after,
                accuracy: None,
            };
            if on_step(self, step) {
                break;
            }
        }
    }
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
    let mut search = BitSearch::new(model, data);
    let clean_accuracy = search.accuracy();
    let mut steps = Vec::new();
    let mut final_accuracy = clean_accuracy;
    let mut reached_target = false;
    search.run(
        &data.search_labels,
        Direction::Ascend,
        config,
        skip,
        |search, mut step| {
            if (steps.len() + 1).is_multiple_of(config.record_every.max(1)) {
                final_accuracy = search.accuracy();
                step.accuracy = Some(final_accuracy);
            }
            steps.push(step);
            reached_target = final_accuracy <= config.target_accuracy;
            reached_target
        },
    );

    if steps.last().is_some_and(|step| step.accuracy.is_none()) {
        final_accuracy = search.accuracy();
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
