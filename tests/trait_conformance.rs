//! Trait-conformance suite: every `DefenseMechanism` implementation in
//! the workspace goes through the same deploy → attack → stats protocol
//! (`dnn_defender::conformance::check`), which asserts the shared
//! `DefenseStats` bookkeeping invariants — most importantly
//! `flips_resisted + flips_landed == attempts` — and DRAM/model
//! coherence. Family-specific behavior is asserted on top.

use dd_baselines::{
    DefenseKind, GrapheneDefense, RowSwapMechanism, ShadowMechanism, SoftwareDefense, SoftwareKind,
    SwapScheme,
};
use dd_dram::DramConfig;
use dnn_defender::conformance::{check, check_batched_observation};
use dnn_defender::defense::{DefenseConfig, DefenseMechanism, DnnDefenderDefense, Undefended};

const CAMPAIGNS: usize = 6;

#[test]
fn undefended_baseline_conforms() {
    let report = check(Undefended::new(), CAMPAIGNS, 42);
    assert_eq!(
        report.landed(),
        CAMPAIGNS,
        "undefended memory lands every campaign"
    );
}

#[test]
fn dnn_defender_conforms() {
    let defense = DnnDefenderDefense::with_profiling(DefenseConfig::default(), 2, 42);
    let report = check(defense, CAMPAIGNS, 42);
    assert!(
        report.has_secured_set,
        "DNN-Defender keeps a secured-bit set"
    );
    assert!(
        report.resisted() >= CAMPAIGNS / 2,
        "the secured half of the campaign must be resisted: {report:?}"
    );
    assert!(report.stats.defense_ops >= 1, "no swap was ever issued");
    assert!(report.stats.row_clones >= 3 * report.stats.defense_ops);
}

#[test]
fn graphene_conforms() {
    let report = check(
        GrapheneDefense::for_config(&DramConfig::lpddr4_small()),
        CAMPAIGNS,
        42,
    );
    assert_eq!(
        report.landed(),
        0,
        "Graphene's victim refresh resists every campaign"
    );
    assert!(report.stats.defense_ops >= 1, "no refresh was ever issued");
}

#[test]
fn rrs_conforms() {
    let report = check(RowSwapMechanism::new(SwapScheme::Rrs, 42), CAMPAIGNS, 42);
    assert!(
        report.resisted() >= CAMPAIGNS - 1,
        "RRS should break nearly every blind campaign: {report:?}"
    );
    assert!(
        report.stats.defense_ops >= 1,
        "no aggressor swap was ever issued"
    );
}

#[test]
fn srs_conforms() {
    let report = check(RowSwapMechanism::new(SwapScheme::Srs, 43), CAMPAIGNS, 43);
    assert!(
        report.resisted() >= CAMPAIGNS - 1,
        "SRS failure against blind attacker: {report:?}"
    );
}

#[test]
fn shadow_conforms() {
    let report = check(ShadowMechanism::new(1000, 42), CAMPAIGNS, 42);
    assert_eq!(report.landed(), 0, "budgeted SHADOW resists every campaign");
    assert!(report.stats.defense_ops >= 1, "no shuffle was ever issued");
}

#[test]
fn shadow_without_budget_conforms_but_leaks() {
    let report = check(ShadowMechanism::new(0, 42), CAMPAIGNS, 42);
    assert!(report.landed() > 0, "budget-exhausted SHADOW must leak");
}

#[test]
fn software_defenses_conform() {
    for kind in [
        SoftwareKind::Clustering,
        SoftwareKind::BinaryWeights,
        SoftwareKind::CapacityX2,
    ] {
        let report = check(
            SoftwareDefense::with_recovery_epochs(kind, 1),
            CAMPAIGNS,
            42,
        );
        assert_eq!(
            report.landed(),
            CAMPAIGNS,
            "{}: software defenses never block flips in memory",
            kind.name()
        );
    }
}

#[test]
fn boxed_dyn_defense_conforms() {
    use dnn_defender::DynDefense;
    let boxed: DynDefense = Box::new(Undefended::named("boxed"));
    let report = check(boxed, CAMPAIGNS, 42);
    assert_eq!(report.name, "boxed");
    assert_eq!(report.landed(), CAMPAIGNS);
}

/// The batched-invocation law (see
/// `dnn_defender::conformance::check_batched_observation`) over the full
/// Table 3 roster, on both matrix device presets: every mechanism must
/// report the same stats — and leave the device in the same state —
/// whether a row's activations arrive one at a time or batched.
#[test]
fn batched_observation_law_holds_for_roster() {
    for config in [
        DramConfig::lpddr4_small(),
        DramConfig::lpddr4_small().with_rowhammer_threshold(2400),
    ] {
        for kind in DefenseKind::TABLE3 {
            let stats = check_batched_observation(|| kind.build(42, &config), &config);
            if kind == DefenseKind::Graphene {
                // A burst past the trip point must actually fire the
                // tap, or the law above checked nothing.
                assert!(stats.defense_ops > 0, "graphene tap never fired");
            }
        }
    }
}

/// The law again for DNN-Defender's victim watcher in its armed state
/// (protected rows installed through a deployed weight map): the swap it
/// fires on the first chunk recharges the row, so later chunks are
/// no-ops and every chunking reports the same single swap.
#[test]
fn batched_observation_law_holds_for_armed_watcher() {
    use dd_dram::rowhammer::preferred_aggressor;
    use dd_nn::init::seeded_rng;
    use dd_nn::layers::{Flatten, Linear};
    use dd_nn::model::Network;
    use dd_qnn::{BitAddr, QModel};
    use dnn_defender::WeightMap;

    let config = DramConfig::lpddr4_small();
    let model = {
        let mut rng = seeded_rng(3);
        QModel::from_network(
            Network::new("m")
                .push(Flatten::new())
                .push(Linear::kaiming("fc", 64, 16, &mut rng)),
        )
    };
    let addr = BitAddr {
        param: 0,
        index: 0,
        bit: 0,
    };
    let burst = config.rowhammer_threshold / 2 + config.rowhammer_threshold / 4;

    let run = |chunks: &[u64]| {
        let mut mem = dd_dram::MemoryController::try_new(config.clone()).expect("device");
        let mut map = WeightMap::layout(&model, &config);
        let mut defense = DnnDefenderDefense::new(DefenseConfig::default(), 9);
        defense.secure_bits(&[addr], Some(&map));
        let victim = map.locate(addr).row;
        let hot = preferred_aggressor(victim, config.rows_per_subarray);
        mem.hammer(hot, burst).expect("hammer");
        for &n in chunks {
            defense
                .observe_activation(&mut mem, Some(&mut map), hot, n)
                .expect("observe");
        }
        (defense.stats(), mem.now(), map.locate(addr).row)
    };

    let whole = run(&[burst]);
    let split = run(&[burst / 2, burst / 4, burst - burst / 2 - burst / 4]);
    assert_eq!(
        whole.0, split.0,
        "chunking changed the armed watcher's stats"
    );
    assert_eq!(whole.0.defense_ops, 1, "the watcher must fire exactly once");
    assert_eq!(whole.1, split.1, "chunking changed the swap cost");
    assert_eq!(whole.2, split.2, "chunking changed the relocation");
}
