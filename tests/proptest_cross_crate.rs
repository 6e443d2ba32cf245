//! Cross-crate property tests: invariants that must hold between the
//! quantized model, the DRAM image, and the defense machinery for
//! arbitrary inputs.

use dnn_defender_repro::prelude::*;
use proptest::prelude::*;

fn tiny_model(seed: u64) -> QModel {
    let mut rng = seeded_rng(seed);
    let config = ModelConfig {
        arch: Architecture::Mlp,
        in_channels: 1,
        image_side: 4,
        classes: 3,
        base_width: 2,
    };
    QModel::from_network(build_model(&config, &mut rng))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flipping any bit through the defended system with protection off is
    /// exactly mirrored in the model's quantized store.
    #[test]
    fn dram_flip_equals_model_flip(seed in 0u64..50, index in 0usize..32, bit in 0u8..8) {
        let model = tiny_model(seed);
        prop_assume!(index < model.qtensor(0).len());
        let addr = BitAddr { param: 0, index, bit };
        let mut system = ProtectedSystem::deploy_with(
            model,
            DramConfig::lpddr4_small(),
            Undefended::new(),
        ).expect("deploy");
        let before = system.model_mut().qtensor(0).get(index);
        let out = system.attack_bit(addr).expect("attack");
        prop_assert!(out.landed());
        let after = system.model_mut().qtensor(0).get(index);
        prop_assert_eq!(after, dd_qnn::flip_weight_bit(before, bit));
    }

    /// A protected bit never changes, for any bit position and any number
    /// of repeated campaigns.
    #[test]
    fn protected_bits_are_invariant(seed in 0u64..30, index in 0usize..32, bit in 0u8..8, repeats in 1usize..4) {
        let model = tiny_model(seed);
        prop_assume!(index < model.qtensor(0).len());
        let addr = BitAddr { param: 0, index, bit };
        let mut system = ProtectedSystem::deploy(
            model,
            DramConfig::lpddr4_small(),
            DefenseConfig::default(),
            seed,
        ).expect("deploy");
        system.protect([addr]);
        let before = system.model_mut().qtensor(0).get(index);
        for _ in 0..repeats {
            let out = system.attack_bit(addr).expect("attack");
            prop_assert!(!out.landed());
        }
        prop_assert_eq!(system.model_mut().qtensor(0).get(index), before);
    }

    /// Quantization round-trip: dequantize(quantize(w)) is within half a
    /// quantization step for arbitrary weight tensors.
    #[test]
    fn quantization_error_bounded(ws in proptest::collection::vec(-10.0f32..10.0, 1..64)) {
        let qp = dd_qnn::QuantParams::fit(&ws);
        for &w in &ws {
            let err = (qp.dequantize(qp.quantize(w)) - w).abs();
            prop_assert!(err <= qp.scale / 2.0 + 1e-5, "w = {w}, err = {err}");
        }
    }

    /// Any flip sequence applied and then undone in reverse restores the
    /// model exactly (the semi-white-box bookkeeping depends on this).
    #[test]
    fn flip_sequences_are_reversible(seed in 0u64..30, picks in proptest::collection::vec((0usize..64, 0u8..8), 1..12)) {
        let mut model = tiny_model(seed);
        let snapshot = model.snapshot_q();
        let mut flips = Vec::new();
        for (i, bit) in picks {
            let index = i % model.qtensor(0).len();
            flips.push(model.flip_bit(BitAddr { param: 0, index, bit }));
        }
        for flip in flips.into_iter().rev() {
            model.unflip(flip);
        }
        prop_assert_eq!(model.hamming_from(&snapshot), 0);
    }

    /// The analytical latency model is monotone in the BFA count for any
    /// threshold, and DNN-Defender never exceeds SHADOW.
    #[test]
    fn latency_model_monotone(a in 1u64..100_000, b in 1u64..100_000) {
        let m = SecurityModel::from_config(&DramConfig::lpddr4_small());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let dd_lo = m.latency_per_tref(lo, DefenseOp::DnnDefenderSwap);
        let dd_hi = m.latency_per_tref(hi, DefenseOp::DnnDefenderSwap);
        prop_assert!(dd_lo <= dd_hi);
        prop_assert!(dd_hi <= m.latency_per_tref(hi, DefenseOp::ShadowShuffle));
    }
}
