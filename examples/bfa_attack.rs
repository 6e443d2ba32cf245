//! Targeted BFA vs random bit flips on an undefended quantized model —
//! the Fig. 1(b) motivation in miniature.
//!
//! Run with: `cargo run --release --example bfa_attack`

use std::collections::HashSet;

use dnn_defender_repro::prelude::*;

fn main() {
    // Train a CIFAR-10-like victim.
    let mut rng = seeded_rng(11);
    let mut spec = SyntheticSpec::cifar10_like();
    spec.train_per_class = 48;
    spec.test_per_class = 24;
    let dataset = Dataset::generate(spec, &mut rng);
    let config = ModelConfig::new(Architecture::Vgg11, spec.classes).with_base_width(2);
    let mut net = build_model(&config, &mut rng);
    let tc = TrainConfig::default();
    train(&mut net, &dataset, tc, &mut rng);
    println!(
        "victim: {} ({} params), test accuracy {:.1}%",
        config.arch.name(),
        net.param_count(),
        evaluate(&mut net, &dataset.test, tc.batch_size) * 100.0
    );

    let mut model = QModel::from_network(net);
    let batch = dataset.attack_batch(96, &mut rng);
    let data = AttackData::single_batch(batch.images, batch.labels);
    let snapshot = model.snapshot_q();

    // Targeted progressive bit search.
    let cfg = AttackConfig {
        target_accuracy: 0.12,
        max_flips: 40,
        ..Default::default()
    };
    let bfa = run_bfa(&mut model, &data, &cfg, &HashSet::new());
    println!("\ntargeted BFA trajectory (flips -> accuracy):");
    for (flips, acc) in bfa.trajectory() {
        println!("  {flips:>3} -> {:.1}%", acc * 100.0);
    }
    model.restore_q(&snapshot);

    // Random flips with 3x the budget.
    let random = run_random_attack(
        &mut model,
        &data.eval_images,
        &data.eval_labels,
        120,
        20,
        &mut rng,
    );
    println!("\nrandom attack trajectory (flips -> accuracy):");
    for (flips, acc) in &random.trajectory {
        println!("  {flips:>3} -> {:.1}%", acc * 100.0);
    }

    println!(
        "\nBFA reached {:.1}% in {} flips; {} random flips only got to {:.1}%.",
        bfa.final_accuracy * 100.0,
        bfa.bit_flips,
        120,
        random.final_accuracy * 100.0
    );
}
