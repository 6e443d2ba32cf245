//! Quickstart: train a small quantized victim, deploy it into simulated
//! DRAM, and watch DNN-Defender neutralize a RowHammer bit-flip that
//! corrupts the undefended system.
//!
//! Run with: `cargo run --release --example quickstart`

use dnn_defender_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train a small victim on the synthetic CIFAR-10 stand-in.
    let mut rng = seeded_rng(7);
    let mut spec = SyntheticSpec::cifar10_like();
    spec.train_per_class = 32;
    spec.test_per_class = 16;
    let dataset = Dataset::generate(spec, &mut rng);
    let config = ModelConfig::new(Architecture::Mlp, spec.classes).with_base_width(4);
    let mut net = build_model(&config, &mut rng);
    let tc = TrainConfig::default();
    train(&mut net, &dataset, tc, &mut rng);
    let accuracy = evaluate(&mut net, &dataset.test, tc.batch_size);
    println!(
        "trained {}: test accuracy {:.1}%",
        net.name(),
        accuracy * 100.0
    );

    // 2. Quantize to 8-bit and deploy into simulated LPDDR4 (each run
    //    below rebuilds the same weights deterministically).
    let eval = dataset.test.take(96);
    for (enabled, label) in [(false, "UNDEFENDED"), (true, "DNN-DEFENDER")] {
        let defense = DefenseConfig {
            enabled,
            ..DefenseConfig::default()
        };
        let mut system = ProtectedSystem::deploy(
            // Re-deploy a fresh copy each time (deterministic rebuild).
            {
                let mut rng = seeded_rng(7);
                let mut net = build_model(&config, &mut rng);
                train(&mut net, &dataset, TrainConfig::default(), &mut rng);
                QModel::from_network(net)
            },
            DramConfig::lpddr4_small(),
            defense,
            42,
        )?;

        // 3. Secure the classifier sign bits (a stand-in for the profiled
        //    priority bits; see the priority_protection example for the
        //    real profiling flow).
        let last = system.model_mut().num_qparams() - 1;
        let weights = system.model_mut().qtensor(last).len();
        let bits: Vec<BitAddr> = (0..weights)
            .map(|i| BitAddr {
                param: last,
                index: i,
                bit: 7,
            })
            .collect();
        system.protect(bits.clone());

        // 4. The attacker hammers the rows holding those bits.
        let clean = system.accuracy(&eval.images, &eval.labels);
        let outcomes = system.run_campaign(&bits)?;
        let landed = outcomes.iter().filter(|o| o.landed()).count();
        let after = system.accuracy(&eval.images, &eval.labels);
        let stats = system.stats();
        println!(
            "[{label}] clean {:.1}% -> attacked {:.1}% | {landed}/{} flips landed, \
             {} swaps, {} rowclones, mem busy {}",
            clean * 100.0,
            after * 100.0,
            outcomes.len(),
            stats.defense_ops,
            stats.row_clones,
            system.memory().stats().busy,
        );
    }
    println!("\nThe defended run holds its clean accuracy: every campaign was");
    println!("neutralized by a four-step RowClone swap inside the DRAM subarray.");
    Ok(())
}
