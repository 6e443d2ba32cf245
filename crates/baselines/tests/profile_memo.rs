//! DNN-Defender's deployment profile shared through a `RunMemo`, counted
//! with `dd-obs`. The recording sink is process-global, so this test has
//! a binary of its own: no other test's cells can add to its counts.

use std::collections::HashMap;

use dd_attack::AttackConfig;
use dd_baselines::{BackgroundLoad, DefenseKind, RunMemo, ScenarioMatrix, VictimSpec};

/// A DNN-Defender matrix on the tiny victim; loads are added by callers.
fn matrix(victim_seed: u64, budget: usize, label: &str) -> ScenarioMatrix {
    let attack = AttackConfig {
        target_accuracy: 0.3,
        max_flips: 40,
        ..Default::default()
    };
    ScenarioMatrix::new(VictimSpec::tiny_mlp(victim_seed))
        .attack_config(attack)
        .budget(budget)
        .defense(label, |seed, config| {
            DefenseKind::DnnDefender.build(seed, config)
        })
}

/// What one recorded run did.
#[derive(Debug, PartialEq)]
struct Counts {
    /// `matrix.profile_reuse`: cells that installed a stored profile.
    reuse: u64,
    /// `attack.profile_round` spans: profiling rounds actually run.
    rounds: usize,
    /// `matrix.deploy` spans: one per computed cell.
    deploys: usize,
    /// `matrix.traffic_build` spans: one per computed loaded cell.
    traffic_builds: usize,
}

/// Run `matrix` through `memo` under a recording session, with no cell
/// cache; returns every cell rendered and the run's counts.
fn observed(matrix: &ScenarioMatrix, memo: &RunMemo) -> (Vec<String>, Counts) {
    let session = dd_obs::session();
    let (report, _) = matrix
        .run_with_memo(&HashMap::new(), None, memo)
        .expect("matrix runs");
    let snap = session.finish();
    let spans = |name: &str| snap.spans.iter().filter(|s| s.name == name).count();
    let counts = Counts {
        reuse: snap
            .counters
            .get("matrix.profile_reuse")
            .copied()
            .unwrap_or(0),
        rounds: spans("attack.profile_round"),
        deploys: spans("matrix.deploy"),
        traffic_builds: spans("matrix.traffic_build"),
    };
    let cells = report
        .cells
        .iter()
        .map(|c| c.to_json().render_compact())
        .collect();
    (cells, counts)
}

#[test]
fn a_deployed_model_is_profiled_once_and_every_cell_stays_exact() {
    let label = DefenseKind::DnnDefender.label();

    // Alone, each load's cell profiles for itself.
    let mut alone = Vec::new();
    let mut rounds = Vec::new();
    for load in BackgroundLoad::ALL {
        let (cells, counts) = observed(
            &matrix(2024, 4, label).background(load),
            &RunMemo::default(),
        );
        assert_eq!(counts.reuse, 0, "{load}");
        rounds.push(counts.rounds);
        alone.extend(cells);
    }
    assert!(
        rounds[0] > 0 && rounds.iter().all(|&r| r == rounds[0]),
        "lone cells' profiling rounds: {rounds:?}"
    );
    let rounds = rounds[0];

    // Under all four loads in one matrix, one cell profiles and three
    // install its bits, and every cell renders as it did alone.
    let four = matrix(2024, 4, label).with_all_backgrounds();
    let (shared, counts) = observed(&four, &RunMemo::default());
    let expected = Counts {
        reuse: 3,
        rounds,
        deploys: 4,
        traffic_builds: 3,
    };
    assert_eq!(counts, expected);
    assert_eq!(shared, alone);

    // A memo holding the profile serves the same matrix again, but a
    // different budget, victim seed or defense label misses it.
    let memo = RunMemo::default();
    let none = |m: ScenarioMatrix| m.background(BackgroundLoad::None);
    assert_eq!(observed(&none(matrix(2024, 4, label)), &memo).1.reuse, 0);
    assert_eq!(observed(&none(matrix(2024, 4, label)), &memo).1.reuse, 1);
    for (what, variant) in [
        ("budget", matrix(2024, 5, label)),
        ("victim seed", matrix(2025, 4, label)),
        (
            "defense label",
            matrix(2024, 4, "DNN-Defender (relabelled)"),
        ),
    ] {
        let (_, counts) = observed(&none(variant), &memo);
        assert_eq!(counts.reuse, 0, "a different {what} hit the stored profile");
        assert!(counts.rounds > 0, "a different {what} did not profile");
    }
}
