//! `paper-matrix`: Table 3's smoke victim (ResNet-20 at base width 2,
//! trained 5 + 2 epochs) attacked by BFA at budget 12 under Undefended,
//! Graphene and DNN-Defender, as one `ScenarioMatrix` on one worker with
//! an empty cell cache, so every cell executes.
//!
//! This is the traffic `repro table3/fig9/fig1b` spend their minutes on:
//! every cell retrains the same victim and runs the BFA search, while the
//! DRAM layer replays a dozen campaigns. One worker, because two workers
//! made the matrix time depend on cell placement; the second core stays
//! free for any parallelism inside a cell.
//!
//! The workload seed replaces Table 3's matrix seed (333), which seeds
//! every cell's defense and campaign replay. The victim keeps Table 3's
//! seed: the matrix kernels skip zero activations, so victims trained from
//! other seeds cost up to a fifth more or less host time, and a seeded
//! victim would put the seed into `wall_s`.

use dd_attack::AttackConfig;
use dd_baselines::{CellReport, DefenseKind, MatrixReport, ScenarioMatrix, VictimSpec};
use dd_bench::experiments::table3_matrix;
use dd_bench::DatasetKind;
use dd_dram::DramError;
use dd_qnn::Architecture;

use crate::direct;
use crate::harness::{
    check_digests, measure_setup, peak_rss_mb, run_rounds, timed, Digest, Outcome,
};
use crate::ledger::Ledger;
use crate::metrics::Layers;
use crate::stats::median;

/// Table 3's matrix seed, and its victim's seed at every workload seed.
pub const DEFAULT_SEED: u64 = 333;

/// Digest of the three `CellReport`s at [`DEFAULT_SEED`].
const DEFAULT_DIGEST: u64 = 0x5840_5142_d150_f4eb;

/// Table 3's smoke-mode attempt budget, for every row.
const BUDGET: usize = 12;

const ROSTER: [DefenseKind; 3] = [
    DefenseKind::Undefended,
    DefenseKind::Graphene,
    DefenseKind::DnnDefender,
];

fn victim() -> VictimSpec {
    VictimSpec::paper(Architecture::ResNet20, 2, 5, DEFAULT_SEED)
}

fn attack_config() -> AttackConfig {
    AttackConfig {
        target_accuracy: DatasetKind::Cifar10.chance() * 1.1,
        max_flips: 400,
        ..Default::default()
    }
}

/// The workload's matrix: Table 3's smoke construction, restricted to the
/// three rows, with `seed` as the matrix seed.
fn matrix(seed: u64) -> ScenarioMatrix {
    ROSTER
        .into_iter()
        .fold(ScenarioMatrix::new(victim()), |m, kind| {
            match kind.paper_budget() {
                Some(_) => m.defense_kind_budgeted(kind, BUDGET),
                None => m.defense_kind(kind),
            }
        })
        .attack_config(attack_config())
        .budget(BUDGET)
        .seed(seed)
        .threads(1)
}

fn digest(report: &MatrixReport) -> u64 {
    let mut d = Digest::new();
    for cell in &report.cells {
        d.str(&cell.to_json().render_compact());
    }
    d.finish()
}

/// The seed-independent checks on one matrix report.
fn check_report(out: &mut Outcome, report: &MatrixReport) {
    out.check(report.cells.len() == ROSTER.len(), || {
        format!("{} cells, expected {}", report.cells.len(), ROSTER.len())
    });
    for (cell, kind) in report.cells.iter().zip(ROSTER) {
        check_cell(out, cell, kind);
    }
}

fn check_cell(out: &mut Outcome, cell: &CellReport, kind: DefenseKind) {
    let s = &cell.stats;
    let row = &cell.scenario.defense;
    out.check(row == kind.label(), || {
        format!("cell `{row}` where `{}` was expected", kind.label())
    });
    out.check(s.invariants_hold(), || {
        format!("`{row}`: resisted + landed != attempts ({s:?})")
    });
    out.check(
        cell.attempts as u64 == s.attempts && cell.landed as u64 == s.flips_landed,
        || format!("`{row}`: report and defense bookkeeping disagree ({cell:?})"),
    );
    out.check(cell.attempts <= BUDGET, || {
        format!(
            "`{row}`: {} attempts exceed the budget {BUDGET}",
            cell.attempts
        )
    });
}

/// Build the matrix and the content hashes `repro` computes before it
/// runs one: the experiment's config hash and every cell's cache key.
fn setup(seed: u64) -> ScenarioMatrix {
    let matrix = matrix(seed);
    std::hint::black_box((matrix.config_hash(), matrix.cell_keys()));
    matrix
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let (matrix, setup_s) = measure_setup(|| setup(seed));
    let mut out = Outcome::default();
    if trace {
        traced(&mut out, &matrix, seed);
    } else {
        let (digests, secs) = run_rounds(
            seconds,
            1,
            || matrix.run(),
            |result, _| check_round(&mut out, result),
        );
        let digests: Vec<u64> = digests.into_iter().flatten().collect();
        check_digests(&mut out, &digests, recorded(seed));
        let wall_s = median(&secs).expect("one round ran");
        out.metric("wall_s", wall_s, "s");
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
        out.metric("cells_per_s", ROSTER.len() as f64 / wall_s, "1/s");
    }
    check_table3_slice(&mut out, &matrix, seed);
    Ok(out)
}

/// Count and check one round's cells; returns their digest.
fn check_round(out: &mut Outcome, result: Result<MatrixReport, DramError>) -> Option<u64> {
    out.attempted += ROSTER.len() as u64;
    match result {
        Ok(report) => {
            check_report(out, &report);
            Some(digest(&report))
        }
        Err(e) => {
            // `run` stops at the first failing cell, so the whole matrix
            // counts as failed.
            out.failed += ROSTER.len() as u64;
            out.problems.push(format!("matrix failed: {e:?}"));
            None
        }
    }
}

/// The recorded digest, where this seed has one.
fn recorded(seed: u64) -> Option<u64> {
    (seed == DEFAULT_SEED).then_some(DEFAULT_DIGEST)
}

/// At the default seed the workload's cells are Table 3's own cells: the
/// same content-addressed cache keys.
fn check_table3_slice(out: &mut Outcome, matrix: &ScenarioMatrix, seed: u64) {
    if seed != DEFAULT_SEED {
        return;
    }
    let table3: Vec<(String, u64)> = table3_matrix(true)
        .cell_keys()
        .into_iter()
        .map(|(s, key)| (s.defense, key))
        .collect();
    for (scenario, key) in matrix.cell_keys() {
        out.check(table3.contains(&(scenario.defense.clone(), key)), || {
            format!("`{}` is not Table 3's smoke cell", scenario.defense)
        });
    }
}

/// The traced pass: one matrix round under a `dd-obs` session, then one
/// direct call into each layer on the same victim, data and configs the
/// cells use.
fn traced(out: &mut Outcome, matrix: &ScenarioMatrix, seed: u64) {
    let session = dd_obs::session();
    let mut ledger = Ledger::default();
    let mut layers = Layers::default();
    let (((result, round_s), steps), traced_wall_s) = timed(|| {
        let round = timed(|| matrix.run());
        ledger.drain();
        let steps = direct::cell_layers(&mut ledger, &victim(), attack_config(), BUDGET, &ROSTER);
        (round, steps)
    });
    ledger.drain();
    drop(session);
    let digest = check_round(out, result);
    check_digests(out, digest.as_slice(), recorded(seed));

    let additive = ledger.matrix_s() + direct::additive_s(&ledger);
    layers.set("traced_wall_s", traced_wall_s);
    layers.set("traced_round_s", round_s);
    layers.set("other_s", traced_wall_s - additive);
    ledger.set_program_layers(&mut layers);
    direct::set_layers(&mut layers, &ledger, steps);
    out.metrics = layers.into_metrics();
}
