//! A quantized parameter tensor: `i8` storage + scale + bit addressing.

use crate::quant::{flip_weight_bit, weight_bit, QuantParams, WEIGHT_BITS};
use dd_nn::Tensor;

/// One quantized weight tensor of a model.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    name: String,
    shape: Vec<usize>,
    q: Vec<i8>,
    params: QuantParams,
}

impl QTensor {
    /// Quantize a float tensor.
    pub fn quantize(name: impl Into<String>, value: &Tensor) -> Self {
        let params = QuantParams::fit(value.as_slice());
        let q = value
            .as_slice()
            .iter()
            .map(|&w| params.quantize(w))
            .collect();
        QTensor {
            name: name.into(),
            shape: value.shape().to_vec(),
            q,
            params,
        }
    }

    /// Parameter name (mirrors the float parameter it was derived from).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Number of addressable bits.
    pub fn bits(&self) -> usize {
        self.q.len() * WEIGHT_BITS as usize
    }

    /// Quantizer parameters.
    pub fn quant_params(&self) -> QuantParams {
        self.params
    }

    /// Raw quantized values.
    pub fn as_q(&self) -> &[i8] {
        &self.q
    }

    /// Quantized value at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> i8 {
        self.q[index]
    }

    /// Read bit `bit` of weight `index`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn bit(&self, index: usize, bit: u8) -> bool {
        weight_bit(self.q[index], bit)
    }

    /// Flip bit `bit` of weight `index`, returning `(old, new)` values.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn flip_bit(&mut self, index: usize, bit: u8) -> (i8, i8) {
        let old = self.q[index];
        let new = flip_weight_bit(old, bit);
        self.q[index] = new;
        (old, new)
    }

    /// Dequantize the whole tensor into a float [`Tensor`].
    pub fn dequantize(&self) -> Tensor {
        let data = self.q.iter().map(|&q| self.params.dequantize(q)).collect();
        Tensor::from_vec(&self.shape, data)
    }

    /// Dequantized value of one weight.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn dequantize_at(&self, index: usize) -> f32 {
        self.params.dequantize(self.q[index])
    }

    /// Pack the quantized weights into bytes for storage in DRAM rows.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.q.iter().map(|&v| v as u8).collect()
    }

    /// Overwrite the quantized values from a byte image (the DRAM-resident
    /// copy after RowHammer corruption).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn load_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len(), self.q.len(), "byte image length mismatch");
        for (q, &b) in self.q.iter_mut().zip(bytes) {
            *q = b as i8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QTensor {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, -1.0, 0.5, 0.0]);
        QTensor::quantize("w", &t)
    }

    #[test]
    fn quantize_dequantize_close() {
        let qt = sample();
        let back = qt.dequantize();
        for (a, b) in back.as_slice().iter().zip(&[1.0, -1.0, 0.5, 0.0]) {
            assert!((a - b).abs() < 0.01);
        }
        assert_eq!(qt.bits(), 32);
    }

    #[test]
    fn flip_bit_changes_value_and_back() {
        let mut qt = sample();
        let before = qt.get(0);
        let (old, new) = qt.flip_bit(0, 7);
        assert_eq!(old, before);
        assert_ne!(new, before);
        qt.flip_bit(0, 7);
        assert_eq!(qt.get(0), before);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut qt = sample();
        let bytes = qt.to_bytes();
        let orig = qt.clone();
        qt.flip_bit(2, 3);
        qt.load_bytes(&bytes);
        assert_eq!(qt, orig);
    }
}
