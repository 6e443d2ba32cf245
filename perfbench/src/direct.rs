//! The traced pass's direct layer calls: one call into each of nn, qnn,
//! attack and defense on the inputs a matrix cell of the workload uses,
//! since the cell pipeline itself records no span inside those layers.

use std::collections::HashSet;

use dd_attack::{run_bfa, AttackConfig, AttackData};
use dd_baselines::{DefenseKind, VictimSpec};
use dd_dram::DramConfig;
use dd_qnn::QModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ledger::Ledger;
use crate::metrics::Layers;

/// Train `spec`'s victim, quantize it, run one forward and one gradient
/// pass on the attacker's batch, deploy every `roster` defense on it,
/// and run the BFA search at `budget` — each call timed into `ledger`
/// the way `ScenarioMatrix` makes it. Returns the BFA steps taken.
pub fn cell_layers(
    ledger: &mut Ledger,
    spec: &VictimSpec,
    attack: AttackConfig,
    budget: usize,
    roster: &[DefenseKind],
) -> usize {
    let (net, dataset) = ledger.call("nn.victim_build", || spec.build(1));
    let mut model = ledger.call("qnn.quantize", || QModel::from_network(net));
    let mut data_rng = StdRng::seed_from_u64(spec.seed ^ 0x5eed_da7a);
    let batch = dataset.attack_batch(spec.batch.min(dataset.test.len()), &mut data_rng);
    let data = AttackData::single_batch(batch.images, batch.labels);
    ledger.call("qnn.forward", || {
        std::hint::black_box(model.accuracy(&data.eval_images, &data.eval_labels))
    });
    ledger.call("qnn.grads", || {
        std::hint::black_box(model.weight_grads(&data.search_images, &data.search_labels))
    });
    let search = AttackConfig {
        target_accuracy: 0.0,
        max_flips: budget,
        ..attack
    };
    let clean = model.snapshot_q();
    let config = DramConfig::lpddr4_small();
    for &kind in roster {
        let mut defense = kind.build(spec.seed, &config);
        ledger.call("defense.deploy", || {
            defense.on_deploy(&mut model, &data, &search)
        });
        model.restore_q(&clean);
    }
    let report = ledger.call("attack.bfa", || {
        run_bfa(&mut model, &data, &search, &HashSet::new())
    });
    report.steps.len()
}

/// The direct calls' share of the traced wall time.
pub fn additive_s(ledger: &Ledger) -> f64 {
    [
        "nn.victim_build",
        "qnn.quantize",
        "qnn.forward",
        "qnn.grads",
        "defense.deploy",
        "attack.bfa",
    ]
    .iter()
    .map(|name| ledger.call_s(name))
    .sum()
}

/// Report the direct calls' per-layer metrics; `steps` is what
/// [`cell_layers`] returned.
pub fn set_layers(layers: &mut Layers, ledger: &Ledger, steps: usize) {
    let bfa_s = ledger.call_s("attack.bfa");
    layers.set("nn.victim_build_s", ledger.call_s("nn.victim_build"));
    layers.set("qnn.quantize_ms", ledger.call_mean_ms("qnn.quantize"));
    layers.set("qnn.forward_ms", ledger.call_mean_ms("qnn.forward"));
    layers.set("qnn.grads_ms", ledger.call_mean_ms("qnn.grads"));
    layers.set("attack.bfa_s", bfa_s);
    layers.set("attack.step_ms", 1e3 * bfa_s / steps.max(1) as f64);
    layers.set("defense.deploy_s", ledger.call_s("defense.deploy"));
}
