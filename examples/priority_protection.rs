//! The full DNN-Defender flow: profile vulnerable bits with the
//! attacker's own search, map them to the target rows DNN-Defender
//! protects, and compare semi-white-box vs adaptive white-box attacks
//! (§4, §5.2).
//!
//! Run with: `cargo run --release --example priority_protection`

use dnn_defender_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Victim: ResNet-20-like on the CIFAR-10 stand-in.
    let mut rng = seeded_rng(23);
    let mut spec = SyntheticSpec::cifar10_like();
    spec.train_per_class = 48;
    spec.test_per_class = 24;
    let dataset = Dataset::generate(spec, &mut rng);
    let config = ModelConfig::new(Architecture::ResNet20, spec.classes).with_base_width(2);
    let mut net = build_model(&config, &mut rng);
    let tc = TrainConfig {
        epochs: 16,
        ..TrainConfig::default()
    };
    train(&mut net, &dataset, tc, &mut rng);
    println!(
        "victim resnet20: test accuracy {:.1}%",
        evaluate(&mut net, &dataset.test, tc.batch_size) * 100.0
    );

    let mut model = QModel::from_network(net);
    let batch = dataset.attack_batch(96, &mut rng);
    let data = AttackData::single_batch(batch.images, batch.labels);

    // Priority profiling: r rounds of skip-set BFA (§4). Round-1 depth
    // must cover the naive attacker's full budget (40 below) because the
    // naive attacker's greedy path *is* one long round; the extra rounds
    // blunt the adaptive attacker (see EXPERIMENTS.md).
    let profile_cfg = AttackConfig {
        target_accuracy: 0.0,
        max_flips: 40,
        ..Default::default()
    };
    let rounds = 4;
    let map = dnn_defender::WeightMap::layout(&model, &DramConfig::lpddr4_small());
    let profile = multi_round_profile(&mut model, &data, &profile_cfg, rounds);
    println!(
        "profiled {} secured bits over {rounds} rounds -> {} target rows \
         ({:.3}% of model bits)",
        profile.bits.len(),
        map.target_rows(&profile.bits).len(),
        profile.bits.len() as f64 / model.total_bits() as f64 * 100.0
    );
    for (i, size) in profile.round_sizes.iter().enumerate() {
        println!(
            "  round {}: {size} bits, attack bottomed out at {:.1}%",
            i + 1,
            profile.round_final_accuracies[i] * 100.0
        );
    }

    // Attack the protected model under both threat models.
    let attack_cfg = AttackConfig {
        target_accuracy: 0.12,
        max_flips: 40,
        ..Default::default()
    };
    let secured = profile.all();
    for threat in [ThreatModel::SemiWhiteBox, ThreatModel::WhiteBox] {
        let snapshot = model.snapshot_q();
        let outcome = attack_protected(&mut model, &data, &attack_cfg, &secured, threat);
        model.restore_q(&snapshot);
        println!(
            "\n{threat:?}: {} attempted, {} landed, accuracy {:.1}% -> {:.1}%",
            outcome.attempted_flips,
            outcome.landed_flips,
            outcome.clean_accuracy * 100.0,
            outcome.final_accuracy * 100.0
        );
    }

    println!(
        "\nThe semi-white-box attack wastes its flips on swapped rows; the \
         adaptive attack must spend many more flips on low-value bits."
    );
    Ok(())
}
