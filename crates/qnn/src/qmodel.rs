//! The quantized model: a float [`Network`] kept in sync with the `i8`
//! two's-complement weight store that the RowHammer attacker corrupts.
//!
//! Inference always runs through the float network with *dequantized*
//! weights (exactly how an 8-bit model executes after the weights leave
//! DRAM), so a bit flip in the quantized store immediately affects
//! accuracy once synced.

use crate::qtensor::QTensor;
use crate::quant::flip_delta;
use dd_nn::loss::{cross_entropy, cross_entropy_grad};
use dd_nn::model::Network;
use dd_nn::Tensor;

/// Address of one bit in the quantized weight store.
///
/// `param` indexes the quantizable parameters in network visit order (the
/// "layer" of the paper's `(l, k)` notation), `index` the weight within
/// that parameter, `bit` the bit position (0 = LSB, 7 = sign).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitAddr {
    /// Quantizable-parameter index (layer).
    pub param: usize,
    /// Weight index within the parameter.
    pub index: usize,
    /// Bit position within the 8-bit weight.
    pub bit: u8,
}

/// Record of one applied bit flip (enough to undo it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFlip {
    /// Where.
    pub addr: BitAddr,
    /// Quantized value before.
    pub old: i8,
    /// Quantized value after.
    pub new: i8,
}

/// An 8-bit weight-quantized network.
#[derive(Debug)]
pub struct QModel {
    net: Network,
    qtensors: Vec<QTensor>,
    /// Position of each quantizable parameter in the full visit order.
    param_positions: Vec<usize>,
    /// Top-level network layer that holds each quantizable parameter.
    param_layers: Vec<usize>,
}

impl QModel {
    /// Quantize a trained float network. The float weights are replaced by
    /// their dequantized values so that float inference matches 8-bit
    /// inference exactly.
    pub fn from_network(mut net: Network) -> Self {
        let mut qtensors = Vec::new();
        let mut param_positions = Vec::new();
        let mut param_layers = Vec::new();
        let mut pos = 0;
        net.visit_layer_params(&mut |layer, p| {
            if p.quantizable {
                let qt = QTensor::quantize(p.name.clone(), &p.value);
                p.value = qt.dequantize();
                qtensors.push(qt);
                param_positions.push(pos);
                param_layers.push(layer);
            }
            pos += 1;
        });
        QModel {
            net,
            qtensors,
            param_positions,
            param_layers,
        }
    }

    /// The underlying float network (weights are dequantized-in-sync).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Display name.
    pub fn name(&self) -> &str {
        self.net.name()
    }

    /// Number of quantizable parameters ("layers" in attack terms).
    pub fn num_qparams(&self) -> usize {
        self.qtensors.len()
    }

    /// Number of top-level network layers.
    pub fn depth(&self) -> usize {
        self.net.depth()
    }

    /// The top-level network layer that holds quantizable parameter
    /// `param`: a flip in `param` changes that layer's output and every
    /// later layer's, but no earlier one.
    ///
    /// # Panics
    ///
    /// Panics if `param` is out of range.
    pub fn param_layer(&self, param: usize) -> usize {
        self.param_layers[param]
    }

    /// Quantized view of parameter `param`.
    ///
    /// # Panics
    ///
    /// Panics if `param` is out of range.
    pub fn qtensor(&self, param: usize) -> &QTensor {
        &self.qtensors[param]
    }

    /// Total number of attackable weight bits.
    pub fn total_bits(&self) -> usize {
        self.qtensors.iter().map(QTensor::bits).sum()
    }

    /// Read one bit.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn bit(&self, addr: BitAddr) -> bool {
        self.qtensors[addr.param].bit(addr.index, addr.bit)
    }

    /// Flip one bit in the quantized store and propagate to the float
    /// network.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn flip_bit(&mut self, addr: BitAddr) -> BitFlip {
        let (old, new) = self.qtensors[addr.param].flip_bit(addr.index, addr.bit);
        self.sync_weight(addr.param, addr.index);
        BitFlip { addr, old, new }
    }

    /// Undo a flip produced by [`QModel::flip_bit`].
    pub fn unflip(&mut self, flip: BitFlip) {
        let current = self.qtensors[flip.addr.param].get(flip.addr.index);
        debug_assert_eq!(current, flip.new, "unflip of a stale flip record");
        self.qtensors[flip.addr.param].flip_bit(flip.addr.index, flip.addr.bit);
        self.sync_weight(flip.addr.param, flip.addr.index);
    }

    fn sync_weight(&mut self, param: usize, index: usize) {
        let value = self.qtensors[param].dequantize_at(index);
        let target = self.param_positions[param];
        let mut pos = 0;
        self.net.visit_params(&mut |p| {
            if pos == target {
                p.value.as_mut_slice()[index] = value;
            }
            pos += 1;
        });
    }

    /// Rewrite one whole parameter of the float network from its qtensor.
    fn sync_param(&mut self, param: usize) {
        let value = self.qtensors[param].dequantize();
        let target = self.param_positions[param];
        let mut pos = 0;
        self.net.visit_params(&mut |p| {
            if pos == target {
                p.value = value.clone();
            }
            pos += 1;
        });
    }

    /// Snapshot the full quantized state.
    pub fn snapshot_q(&self) -> Vec<Vec<i8>> {
        self.qtensors.iter().map(|qt| qt.as_q().to_vec()).collect()
    }

    /// Restore a snapshot taken with [`QModel::snapshot_q`] and resync the
    /// float network.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not match the model structure.
    pub fn restore_q(&mut self, snapshot: &[Vec<i8>]) {
        assert_eq!(snapshot.len(), self.qtensors.len(), "snapshot mismatch");
        for (i, q) in snapshot.iter().enumerate() {
            let bytes: Vec<u8> = q.iter().map(|&v| v as u8).collect();
            self.qtensors[i].load_bytes(&bytes);
            self.sync_param(i);
        }
    }

    /// Hamming distance of the current weights from a snapshot — the
    /// attacker's bit budget consumed so far.
    pub fn hamming_from(&self, snapshot: &[Vec<i8>]) -> u64 {
        self.qtensors
            .iter()
            .zip(snapshot)
            .map(|(qt, snap)| crate::quant::hamming_distance(qt.as_q(), snap))
            .sum()
    }

    /// Inference forward pass.
    pub fn forward(&mut self, images: &Tensor) -> Tensor {
        self.net.forward(images, false)
    }

    /// Mean cross-entropy loss on a batch.
    pub fn loss(&mut self, images: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.forward(images);
        cross_entropy(&logits, labels)
    }

    /// Classification accuracy on a batch.
    pub fn accuracy(&mut self, images: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.forward(images);
        dd_nn::loss::accuracy(&logits, labels)
    }

    /// Gradients of the loss w.r.t. every quantizable parameter
    /// (dequantized scale), in `param` order. This is the `|∇_B L|` the
    /// BFA ranks bits by.
    pub fn weight_grads(&mut self, images: &Tensor, labels: &[usize]) -> Vec<Tensor> {
        let logits = self.net.forward(images, false);
        self.weight_grads_at(&logits, labels)
    }

    /// [`QModel::weight_grads`] without the forward pass: every layer's
    /// forward cache must hold the inference pass that produced `logits`.
    pub fn weight_grads_at(&mut self, logits: &Tensor, labels: &[usize]) -> Vec<Tensor> {
        self.net.zero_grad();
        let grad = cross_entropy_grad(logits, labels);
        self.net.backward_params(&grad);
        let mut grads = Vec::with_capacity(self.qtensors.len());
        self.net.visit_params(&mut |p| {
            if p.quantizable {
                grads.push(p.grad.clone());
            }
        });
        grads
    }

    /// First-order estimate of the loss increase from flipping `addr`,
    /// given precomputed weight gradients: `g · scale · Δq`.
    ///
    /// # Panics
    ///
    /// Panics if the address or gradient list is inconsistent.
    pub fn flip_gain(&self, grads: &[Tensor], addr: BitAddr) -> f32 {
        let qt = &self.qtensors[addr.param];
        let g = grads[addr.param].as_slice()[addr.index];
        let delta = flip_delta(qt.get(addr.index), addr.bit) as f32;
        g * qt.quant_params().scale * delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::WEIGHT_BITS;
    use dd_nn::init::seeded_rng;
    use dd_nn::layers::{Flatten, Linear, Relu};

    fn tiny_qmodel() -> QModel {
        let mut rng = seeded_rng(3);
        let net = Network::new("tiny")
            .push(Flatten::new())
            .push(Linear::kaiming("fc1", 8, 16, &mut rng))
            .push(Relu::new())
            .push(Linear::kaiming("fc2", 16, 4, &mut rng));
        QModel::from_network(net)
    }

    fn batch() -> (Tensor, Vec<usize>) {
        let mut rng = seeded_rng(5);
        let x = dd_nn::init::normal(&[6, 1, 2, 4], 1.0, &mut rng);
        (x, vec![0, 1, 2, 3, 0, 1])
    }

    #[test]
    fn structure_is_discovered() {
        let qm = tiny_qmodel();
        assert_eq!(qm.num_qparams(), 2);
        let weights: usize = qm.qtensors.iter().map(QTensor::len).sum();
        assert_eq!(weights, 8 * 16 + 16 * 4);
        assert_eq!(qm.total_bits(), weights * 8);
    }

    #[test]
    fn flip_changes_inference() {
        let mut qm = tiny_qmodel();
        let (x, _) = batch();
        let before = qm.forward(&x);
        // Flip the sign bit of several weights of the first layer.
        for index in 0..8 {
            qm.flip_bit(BitAddr {
                param: 0,
                index,
                bit: 7,
            });
        }
        let after = qm.forward(&x);
        assert_ne!(before.as_slice(), after.as_slice());
    }

    #[test]
    fn unflip_restores_exactly() {
        let mut qm = tiny_qmodel();
        let (x, _) = batch();
        let before = qm.forward(&x);
        let snap = qm.snapshot_q();
        let flip = qm.flip_bit(BitAddr {
            param: 1,
            index: 3,
            bit: 6,
        });
        assert_eq!(qm.hamming_from(&snap), 1);
        qm.unflip(flip);
        assert_eq!(qm.hamming_from(&snap), 0);
        let after = qm.forward(&x);
        assert_eq!(before.as_slice(), after.as_slice());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut qm = tiny_qmodel();
        let snap = qm.snapshot_q();
        for i in 0..5 {
            qm.flip_bit(BitAddr {
                param: 0,
                index: i,
                bit: 7,
            });
        }
        assert_eq!(qm.hamming_from(&snap), 5);
        qm.restore_q(&snap);
        assert_eq!(qm.hamming_from(&snap), 0);
    }

    #[test]
    fn flip_gain_predicts_loss_direction() {
        let mut qm = tiny_qmodel();
        let (x, labels) = batch();
        let grads = qm.weight_grads(&x, &labels);
        // Find the highest-gain MSB flip in layer 0 and verify the real
        // loss moves in the predicted direction.
        let base = qm.loss(&x, &labels);
        let best = (0..qm.qtensors[0].len())
            .map(|index| BitAddr {
                param: 0,
                index,
                bit: 7,
            })
            .max_by(|a, b| {
                qm.flip_gain(&grads, *a)
                    .partial_cmp(&qm.flip_gain(&grads, *b))
                    .unwrap()
            })
            .unwrap();
        let gain = qm.flip_gain(&grads, best);
        assert!(gain > 0.0, "no positive-gain flip found");
        qm.flip_bit(best);
        let after = qm.loss(&x, &labels);
        assert!(after > base, "predicted-harmful flip did not increase loss");
    }

    #[test]
    fn param_bits_enumerates_all() {
        let qm = tiny_qmodel();
        assert_eq!(qm.qtensors[1].len() * usize::from(WEIGHT_BITS), 16 * 4 * 8);
    }
}
