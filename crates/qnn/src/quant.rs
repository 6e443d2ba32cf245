//! Symmetric 8-bit weight quantization and two's-complement bit access.
//!
//! The paper attacks 8-bit weight-quantized DNNs whose weights are stored
//! in two's-complement form ({Bₗ} in §2.2). We use symmetric per-tensor
//! quantization: `q = clamp(round(w / scale), -128, 127)` with
//! `scale = max|w| / 127`, and expose the raw bit view the RowHammer
//! attacker manipulates.

/// Number of bits per quantized weight.
pub const WEIGHT_BITS: u8 = 8;

/// Scale factor of a symmetric 8-bit quantizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Dequantization scale: `w ≈ scale * q`.
    pub scale: f32,
}

impl QuantParams {
    /// Fit a symmetric quantizer to a weight slice.
    ///
    /// Degenerate all-zero tensors get scale 1 so that dequantization is
    /// well defined.
    pub fn fit(weights: &[f32]) -> Self {
        let max_abs = weights.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
        QuantParams {
            scale: if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 },
        }
    }

    /// Quantize one weight.
    pub fn quantize(&self, w: f32) -> i8 {
        (w / self.scale).round().clamp(-128.0, 127.0) as i8
    }

    /// Dequantize one weight.
    pub fn dequantize(&self, q: i8) -> f32 {
        self.scale * q as f32
    }
}

/// Read bit `bit` (0 = LSB … 7 = sign) of a two's-complement weight.
///
/// # Panics
///
/// Panics if `bit >= 8`.
#[inline]
pub fn weight_bit(q: i8, bit: u8) -> bool {
    assert!(bit < WEIGHT_BITS, "bit index out of range");
    (q as u8 >> bit) & 1 == 1
}

/// Flip bit `bit` of a two's-complement weight, returning the new value.
///
/// # Panics
///
/// Panics if `bit >= 8`.
pub fn flip_weight_bit(q: i8, bit: u8) -> i8 {
    assert!(bit < WEIGHT_BITS, "bit index out of range");
    (q as u8 ^ (1u8 << bit)) as i8
}

/// Signed change in the integer value caused by flipping `bit` of `q`:
/// `flip(q) - q` without actually flipping. Used for gradient-based bit
/// ranking (`∂L/∂b ≈ g_w · scale · Δq`).
#[inline]
pub fn flip_delta(q: i8, bit: u8) -> i32 {
    let magnitude: i32 = if bit == 7 { -128 } else { 1 << bit };
    if weight_bit(q, bit) {
        -magnitude
    } else {
        magnitude
    }
}

/// Hamming distance between two quantized buffers — the attack-budget
/// metric the BFA minimizes (§2.2).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn hamming_distance(a: &[i8], b: &[i8]) -> u64 {
    assert_eq!(a.len(), b.len(), "hamming distance requires equal lengths");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| ((x as u8) ^ (y as u8)).count_ones() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_quantize_roundtrip_error_is_small() {
        let ws = [-1.0f32, -0.5, 0.0, 0.3, 0.9];
        let qp = QuantParams::fit(&ws);
        for &w in &ws {
            let q = qp.quantize(w);
            assert!((qp.dequantize(q) - w).abs() <= qp.scale / 2.0 + 1e-6);
        }
    }

    #[test]
    fn fit_handles_all_zero() {
        let qp = QuantParams::fit(&[0.0, 0.0]);
        assert_eq!(qp.scale, 1.0);
        assert_eq!(qp.quantize(0.0), 0);
    }

    #[test]
    fn extremes_map_to_limits() {
        let qp = QuantParams::fit(&[2.0, -2.0]);
        assert_eq!(qp.quantize(2.0), 127);
        assert_eq!(qp.quantize(-2.0), -127);
        // Values beyond the fit range clamp.
        assert_eq!(qp.quantize(100.0), 127);
        assert_eq!(qp.quantize(-100.0), -128);
    }

    #[test]
    fn bit_view_is_twos_complement() {
        // -1 = 0b1111_1111
        assert!((0..8).all(|b| weight_bit(-1, b)));
        // 1 = 0b0000_0001
        assert!(weight_bit(1, 0));
        assert!(!(1..8).any(|b| weight_bit(1, b)));
        // Sign bit of a negative number.
        assert!(weight_bit(-128, 7));
        assert!(!weight_bit(127, 7));
    }

    #[test]
    fn flip_bit_matches_paper_example() {
        // Fig. 3: 1001 -> 0011 involves flipping bits 3 and 1 of a 4-bit
        // pattern; we verify our 8-bit primitive behaves bitwise.
        let q = 0b0000_1001i8; // 9
        let q = flip_weight_bit(q, 3); // clear bit 3 -> 1
        let q = flip_weight_bit(q, 1); // set bit 1 -> 3
        assert_eq!(q, 0b0000_0011);
    }

    #[test]
    fn flip_is_involution() {
        for q in i8::MIN..=i8::MAX {
            for bit in 0..8 {
                assert_eq!(flip_weight_bit(flip_weight_bit(q, bit), bit), q);
            }
        }
    }

    #[test]
    fn flip_delta_predicts_flip() {
        for q in i8::MIN..=i8::MAX {
            for bit in 0..8 {
                let predicted = q as i32 + flip_delta(q, bit);
                assert_eq!(predicted, flip_weight_bit(q, bit) as i32, "q={q} bit={bit}");
            }
        }
    }

    #[test]
    fn msb_flip_is_most_damaging() {
        // Flipping the sign bit of a large positive weight swings it by 256
        // scale units — the paper's observation that MSBs dominate BFA.
        assert_eq!(flip_delta(127, 7), -128);
        assert_eq!(flip_weight_bit(127, 7), -1);
    }

    #[test]
    fn hamming_distance_counts_bits() {
        assert_eq!(hamming_distance(&[0, 0], &[0, 0]), 0);
        assert_eq!(hamming_distance(&[0b101, 0], &[0, 0]), 2);
        assert_eq!(hamming_distance(&[-1], &[0]), 8);
    }
}
