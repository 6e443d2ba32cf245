//! `fleet-day`: simulated device-days on one thread. Each day is
//! `DiurnalProfile::fleet_day(seed_d)` driven through the nine-defense
//! roster with `run_workload`: benign traffic only, the serving model's
//! rows secured as in `repro corpus`, a fresh device for each defense-day.
//!
//! This is `repro corpus`'s sweep and the one workload where `dd-dram`
//! and `dd-workload` do most of the work while nn and attack do none. A
//! day takes well under a second, so one round is several days and a run
//! is many rounds.

use dd_baselines::DefenseKind;
use dd_dram::{DramConfig, DramError, MemStats, MemoryController, TraceMode};
use dd_nn::init::seeded_rng;
use dd_nn::layers::{Flatten, Linear};
use dd_nn::model::Network;
use dd_qnn::{BitAddr, QModel};
use dd_workload::{run_workload, DiurnalProfile, DriverConfig, DriverReport};
use dnn_defender::defense::DefenseStats;
use dnn_defender::WeightMap;

use crate::harness::{
    check_digests, measure_setup, mix, peak_rss_mb, run_rounds, timed, Digest, Outcome,
};
use crate::ledger::Ledger;
use crate::metrics::Layers;
use crate::stats::median;

/// `repro corpus`'s seed: day 0 of the default workload is its day.
pub const DEFAULT_SEED: u64 = 0x0dac_2024;

/// Digest of one round's defense-days at [`DEFAULT_SEED`].
const DEFAULT_DIGEST: u64 = 0x8886_1a01_51e0_693e;

/// Days per round.
const DAYS: usize = 4;

/// Secured bits per defense-day (`repro corpus`'s sizing).
const SECURED_BITS: usize = 96;

/// The set-up product: each day's profile and the deployed serving model.
struct Inputs {
    config: DramConfig,
    days: Vec<DiurnalProfile>,
    map: WeightMap,
    bits: Vec<BitAddr>,
}

/// `repro corpus`'s serving model: an untrained two-layer MLP whose
/// quantized weights fill ~148 rows of the small device.
fn serving_model(seed: u64) -> QModel {
    let mut rng = seeded_rng(seed);
    let net = Network::new("serving")
        .push(Flatten::new())
        .push(Linear::kaiming("fc1", 64, 128, &mut rng))
        .push(Linear::kaiming("fc2", 128, 10, &mut rng));
    QModel::from_network(net)
}

/// `repro corpus`'s secured bits: spread over the first parameter.
fn secured_bits(model: &QModel) -> Vec<BitAddr> {
    let len = model.qtensor(0).len();
    (0..SECURED_BITS)
        .map(|i| BitAddr {
            param: 0,
            index: (i * 577) % len,
            bit: 7,
        })
        .collect()
}

/// Day `d`'s profile seed: day 0 is the workload seed itself.
fn day_seed(seed: u64, d: usize) -> u64 {
    if d == 0 {
        seed
    } else {
        mix(seed, d as u64)
    }
}

/// `repro corpus`'s per-defense seed, for a day seeded `day`.
fn defense_seed(kind: DefenseKind, day: u64) -> u64 {
    let mut seed = day ^ 0x00d3_f227;
    for b in kind.label().bytes() {
        seed = (seed ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    seed
}

fn setup(seed: u64) -> Inputs {
    let config = DramConfig::lpddr4_small();
    let model = serving_model(seed);
    let map = WeightMap::layout(&model, &config);
    let bits = secured_bits(&model);
    let days = (0..DAYS)
        .map(|d| DiurnalProfile::fleet_day(day_seed(seed, d)))
        .collect();
    Inputs {
        config,
        days,
        map,
        bits,
    }
}

/// What one defense-day produced.
struct DefenseDay {
    reports: Vec<DriverReport>,
    mem: MemStats,
    stats: DefenseStats,
}

fn commands(s: &MemStats) -> u64 {
    s.acts + s.pres + s.reads + s.writes + s.refreshes + s.row_clones
}

/// One defense through one day on a fresh device. With a ledger, the
/// deployment and each `run_workload` call are timed into it and the
/// recorders drained afterwards.
fn defense_day(
    inputs: &Inputs,
    profile: &DiurnalProfile,
    kind: DefenseKind,
    mut ledger: Option<&mut Ledger>,
) -> Result<DefenseDay, DramError> {
    let config = &inputs.config;
    let mut mem = MemoryController::try_new(config.clone())?;
    mem.set_trace_mode(TraceMode::CountersOnly);
    let mut map = inputs.map.clone();
    let mut defense = kind.build(defense_seed(kind, profile.seed), config);
    let (_, deploy_s) = timed(|| defense.secure_bits(&inputs.bits, Some(&map)));
    if let Some(l) = ledger.as_deref_mut() {
        l.add_call("defense.deploy", deploy_s);
    }
    let mut reports = Vec::with_capacity(profile.phases.len());
    for (i, phase) in profile.phases.iter().enumerate() {
        let mut traffic = profile.traffic(i, config);
        let (report, run_s) = timed(|| {
            run_workload(
                &mut mem,
                &mut *defense,
                Some(&mut map),
                &mut traffic,
                &inputs.bits,
                &DriverConfig {
                    benign_windows: phase.windows,
                    attack_windows: 0,
                    record: false,
                },
            )
        });
        if let Some(l) = ledger.as_deref_mut() {
            l.add_call("workload.run", run_s);
        }
        reports.push(report?);
    }
    if let Some(l) = ledger {
        l.drain();
    }
    Ok(DefenseDay {
        reports,
        mem: mem.stats(),
        stats: defense.stats(),
    })
}

type Round = Vec<Result<DefenseDay, DramError>>;

fn round(inputs: &Inputs, mut ledger: Option<&mut Ledger>) -> Round {
    let mut out = Vec::with_capacity(DAYS * DefenseKind::TABLE3.len());
    for profile in &inputs.days {
        for kind in DefenseKind::TABLE3 {
            out.push(defense_day(inputs, profile, kind, ledger.as_deref_mut()));
        }
    }
    out
}

/// Check one round and fold it into the outcome; returns its digest.
fn check_round(out: &mut Outcome, inputs: &Inputs, round: &Round) -> u64 {
    let mut digest = Digest::new();
    let kinds = DefenseKind::TABLE3.iter().cycle();
    let profiles = inputs
        .days
        .iter()
        .flat_map(|p| std::iter::repeat_n(p, DefenseKind::TABLE3.len()));
    for ((result, kind), profile) in round.iter().zip(kinds).zip(profiles) {
        out.attempted += 1;
        let day = match result {
            Ok(day) => day,
            Err(e) => {
                out.failed += 1;
                out.problems
                    .push(format!("{} on {}: {e:?}", kind.label(), profile.label));
                continue;
            }
        };
        let what = || format!("{} on {}", kind.label(), profile.label);
        let day_ops: u64 = profile
            .phases
            .iter()
            .map(|p| p.windows * p.ops_per_window)
            .sum();
        let ops: u64 = day.reports.iter().map(|r| r.benign_ops).sum();
        out.check(ops == day_ops, || {
            format!("{}: {ops} benign ops, the day has {day_ops}", what())
        });
        let issued: u64 = day.reports.iter().map(|r| r.commands).sum();
        out.check(issued == commands(&day.mem), || {
            format!(
                "{}: driver counted {issued} commands, device {}",
                what(),
                commands(&day.mem)
            )
        });
        out.check(
            day.stats.invariants_hold() && day.stats.attempts == 0,
            || {
                format!(
                    "{}: benign-only day has defense stats {:?}",
                    what(),
                    day.stats
                )
            },
        );
        digest.str(kind.label()).str(&profile.label);
        for r in &day.reports {
            for v in [
                r.benign_ops,
                r.benign_activations,
                r.benign_bytes,
                r.commands,
                r.false_defense_ops,
                r.online_defense_ops,
                r.attempts,
                r.landed,
                r.disturbed_rows,
                r.peak_benign_disturbance,
            ] {
                digest.u64(v);
            }
            digest.u64(r.sim_nanos as u64).u64(r.busy_nanos as u64);
        }
        let m = &day.mem;
        for v in [m.acts, m.pres, m.reads, m.writes, m.row_clones, m.refreshes] {
            digest.u64(v);
        }
        digest.u64(m.busy.0 as u64);
        digest.str(&day.stats.to_json().render_compact());
    }
    digest.finish()
}

/// The recorded digest, where this seed has one.
fn recorded(seed: u64) -> Option<u64> {
    (seed == DEFAULT_SEED).then_some(DEFAULT_DIGEST)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let (inputs, setup_s) = measure_setup(|| setup(seed));
    let mut out = Outcome::default();
    if trace {
        return traced(out, &inputs, seed);
    }
    let (digests, secs) = run_rounds(
        seconds,
        1,
        || round(&inputs, None),
        |r, _| check_round(&mut out, &inputs, &r),
    );
    check_digests(&mut out, &digests, recorded(seed));
    let wall_s = median(&secs).expect("one round ran");
    out.metric("wall_s", wall_s, "s");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
    out.metric(
        "cells_per_s",
        (DAYS * DefenseKind::TABLE3.len()) as f64 / wall_s,
        "1/s",
    );
    Ok(out)
}

/// The traced pass: one round under a `dd-obs` session, drained after
/// every defense-day, then the direct calls: quantizing the serving model
/// and generating each defense-day's ops with `sample_ops`.
fn traced(mut out: Outcome, inputs: &Inputs, seed: u64) -> Result<Outcome, String> {
    let session = dd_obs::session();
    let mut ledger = Ledger::default();
    let mut layers = Layers::default();
    let ((result, round_s), traced_wall_s) = timed(|| {
        let result = timed(|| round(inputs, Some(&mut ledger)));
        ledger.call("qnn.quantize", || serving_model(seed));
        for profile in &inputs.days {
            let per_phase = profile
                .phases
                .iter()
                .map(|p| (p.windows * p.ops_per_window) as usize)
                .sum::<usize>()
                .div_ceil(profile.phases.len());
            for _ in DefenseKind::TABLE3 {
                ledger.call("workload.gen", || {
                    std::hint::black_box(profile.sample_ops(&inputs.config, per_phase))
                });
            }
        }
        result
    });
    ledger.drain();
    drop(session);
    let digest = check_round(&mut out, inputs, &result);
    check_digests(&mut out, &[digest], recorded(seed));

    let run_s = ledger.call_s("workload.run");
    let issue_s = ledger.span_s("chunk.issue");
    let decode_s = ledger.span_s("chunk.decode");
    let observe_s = ledger.span_s("chunk.observe");
    let additive = run_s
        + ledger.call_s("defense.deploy")
        + ledger.call_s("qnn.quantize")
        + ledger.call_s("workload.gen");
    let days = || result.iter().filter_map(|r| r.as_ref().ok());
    let sim_cmds: u64 = days().map(|d| commands(&d.mem)).sum();
    let false_ops: u64 = days()
        .flat_map(|d| d.reports.iter().map(|r| r.false_defense_ops))
        .sum();
    layers.set("traced_wall_s", traced_wall_s);
    layers.set("traced_round_s", round_s);
    layers.set("other_s", traced_wall_s - additive);
    ledger.set_program_layers(&mut layers);
    layers.set("qnn.quantize_ms", ledger.call_mean_ms("qnn.quantize"));
    layers.set("defense.deploy_s", ledger.call_s("defense.deploy"));
    layers.set("defense.false_ops", false_ops as f64);
    layers.set("dram.sim_cmds", sim_cmds as f64);
    layers.set("workload.run_s", run_s);
    layers.set(
        "workload.driver_self_s",
        run_s - issue_s - decode_s - observe_s,
    );
    layers.set("workload.gen_s", ledger.call_s("workload.gen"));
    out.metrics = layers.into_metrics();
    Ok(out)
}
