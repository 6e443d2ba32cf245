//! Cross-defense comparison tests: DNN-Defender vs the baselines under
//! the common scenario-matrix protocol (the Table 3 shape, in miniature).

use dd_baselines::{AttackerKind, RowSwapMechanism, ScenarioMatrix, SwapScheme, VictimSpec};
use dnn_defender::defense::{DefenseConfig, DnnDefenderDefense, Undefended};
use dnn_defender_repro::prelude::*;

fn matrix() -> ScenarioMatrix {
    let attack = AttackConfig {
        target_accuracy: 0.3,
        max_flips: 100,
        ..Default::default()
    };
    ScenarioMatrix::new(VictimSpec::tiny_mlp(2002))
        .attack_config(attack)
        .budget(25)
}

#[test]
fn table3_ordering_holds() {
    let report = matrix()
        .defense("baseline", |_, _| Box::new(Undefended::named("baseline")))
        .defense("rrs", |seed, _| {
            Box::new(RowSwapMechanism::new(SwapScheme::Rrs, seed))
        })
        // Round-1 profiling runs at least as deep as the attacker's
        // budget (the matrix passes its budget as the profiling depth):
        // the naive attacker continues its greedy path from the
        // (believed-)flipped state, which is exactly one long BFA round —
        // deeper multi-round profiling covers *adaptive* attackers.
        .defense("dnn-defender", |seed, _| {
            Box::new(DnnDefenderDefense::with_profiling(
                DefenseConfig::default(),
                2,
                seed,
            ))
        })
        .run()
        .expect("matrix");

    let baseline = report.cell("baseline", None).expect("baseline");
    let rrs = report.cell("rrs", None).expect("rrs");
    let dd = report.cell("dnn-defender", None).expect("dd");

    // The Table 3 ordering: baseline worst, RRS in between, DD best.
    assert!(
        baseline.post_attack_accuracy <= rrs.post_attack_accuracy + 0.05,
        "baseline ({}) should not beat RRS ({})",
        baseline.post_attack_accuracy,
        rrs.post_attack_accuracy
    );
    assert!(
        rrs.post_attack_accuracy <= dd.post_attack_accuracy + 0.05,
        "RRS ({}) should not beat DNN-Defender ({})",
        rrs.post_attack_accuracy,
        dd.post_attack_accuracy
    );
    // DD landed nothing within its secured budget.
    assert!(dd.landed <= baseline.landed);
    for cell in &report.cells {
        assert!(
            cell.stats.invariants_hold(),
            "{} broke stats invariants",
            cell.scenario.defense
        );
    }
}

#[test]
fn rrs_vs_white_box_fails_but_blind_succeeds() {
    use dd_baselines::AttackerTracking;
    use dd_dram::GlobalRowId;
    use dnn_defender::defense::CampaignView;

    // One campaign on a fresh scratch device; whether the flip landed.
    let landed = |mut rrs: RowSwapMechanism| {
        let mut mem = MemoryController::try_new(DramConfig::lpddr4_small()).expect("mem");
        let view = CampaignView {
            mem: &mut mem,
            map: None,
            victim: GlobalRowId::new(0, 0, 30),
            bit_in_row: 3,
            addr: BitAddr {
                param: 0,
                index: 0,
                bit: 3,
            },
        };
        rrs.filter_flip(view).expect("campaign").landed()
    };

    // White-box victim tracking defeats RRS.
    assert!(
        landed(RowSwapMechanism::with_tracking(
            SwapScheme::Rrs,
            AttackerTracking::FollowsVictimAdjacency,
            3,
        )),
        "white-box attacker should defeat RRS"
    );

    // The blind attacker is (almost always) defeated.
    let wins = (0..8u64)
        .filter(|&seed| landed(RowSwapMechanism::new(SwapScheme::Rrs, seed)))
        .count();
    assert!(wins <= 1, "blind attacker beat RRS {wins}/8 times");
}

#[test]
fn graphene_refreshes_beat_a_burst_attacker() {
    use dd_baselines::GrapheneDefense;
    use dd_dram::GlobalRowId;

    let mut mem = MemoryController::try_new(DramConfig::lpddr4_small()).expect("mem");
    let mut graphene = GrapheneDefense::new(32, 2400);
    let victim = GlobalRowId::new(1, 2, 50);
    let aggressor = GlobalRowId::new(1, 2, 51);
    for _ in 0..20 {
        mem.hammer(aggressor, 600).expect("hammer");
        graphene
            .on_activations(&mut mem, aggressor, 600)
            .expect("observe");
    }
    assert!(!mem.attempt_flip(victim, &[7]).expect("flip").flipped());
    assert!(graphene.refreshes >= 2);
}

#[test]
fn software_defenses_raise_flip_cost() {
    use dd_baselines::binarize_weights;

    // Same victim recipe, one plain, one binarized.
    let build = |binary: bool| -> (QModel, AttackData) {
        let mut rng = seeded_rng(4004);
        let mut spec = SyntheticSpec::cifar10_like();
        spec.train_per_class = 32;
        spec.test_per_class = 16;
        spec.classes = 4;
        let dataset = Dataset::generate(spec, &mut rng);
        let config = ModelConfig::new(Architecture::Mlp, spec.classes).with_base_width(4);
        let mut net = build_model(&config, &mut rng);
        let tc = TrainConfig {
            epochs: 8,
            batch_size: 32,
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
        };
        train(&mut net, &dataset, tc, &mut rng);
        if binary {
            binarize_weights(&mut net);
            // Brief recovery fine-tune keeps the comparison fair.
            let ft = TrainConfig {
                epochs: 2,
                lr: 0.02,
                ..tc
            };
            train(&mut net, &dataset, ft, &mut rng);
            binarize_weights(&mut net);
        }
        let model = QModel::from_network(net);
        let batch = dataset.attack_batch(64, &mut rng);
        (model, AttackData::single_batch(batch.images, batch.labels))
    };

    let cfg = AttackConfig {
        target_accuracy: 0.5,
        max_flips: 40,
        ..Default::default()
    };
    let (mut plain, data) = build(false);
    let plain_report = dd_attack::run_bfa(&mut plain, &data, &cfg, &Default::default());
    let (mut binary, bdata) = build(true);
    let binary_report = dd_attack::run_bfa(&mut binary, &bdata, &cfg, &Default::default());

    let plain_cost = if plain_report.reached_target {
        plain_report.bit_flips
    } else {
        41
    };
    let binary_cost = if binary_report.reached_target {
        binary_report.bit_flips
    } else {
        41
    };
    assert!(
        binary_cost >= plain_cost,
        "binary model should need at least as many flips ({binary_cost} vs {plain_cost})"
    );
}

#[test]
fn random_attacker_cells_barely_dent_the_baseline() {
    let report = matrix()
        .budget(30)
        .attacker(AttackerKind::Random { flips: 30 })
        .defense("baseline", |_, _| Box::new(Undefended::named("baseline")))
        .run()
        .expect("matrix");
    let cell = &report.cells[0];
    // Fig. 1(b): random flips are far weaker than the targeted search.
    assert!(
        cell.post_attack_accuracy > 0.3,
        "random attack unexpectedly strong: {}",
        cell.post_attack_accuracy
    );
    assert_eq!(cell.landed, cell.attempts, "undefended campaigns all land");
}
