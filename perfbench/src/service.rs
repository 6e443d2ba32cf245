//! `service`: an in-process `SweepServer` on the smoke sweep base with
//! workers at the default of one per core, driven by one closed-loop
//! client through the three calls the socket loop makes: `begin_line`,
//! `SweepServer::execute_prepared`, `complete_submit`.
//!
//! Each round starts a fresh server. Its cold phase is seeded submits,
//! each carrying two never-seen cells (roster × load × BFA on
//! `lpddr4_small@T_RH`) plus 0–2 resubmitted ones; its warm phase is
//! thousands of submits of 1–3 cached cells. `repro submit` clients wait
//! for each reply, so the loop is closed. Cold submits load the cell
//! pipeline on the tiny victim under background traffic; warm submits
//! load only `dd-server`'s parse, key, cache and render path.

use std::time::Instant;

use dd_attack::AttackConfig;
use dd_baselines::{
    AttackerKind, BackgroundLoad, CellReport, DefenseKind, MatrixReport, VictimSpec,
};
use dd_bench::serve::{batch_report, REFERENCE_DEVICE_ROWS};
use dd_server::{
    CellSpec, DeviceBase, DeviceSpec, LineOutcome, ServerConfig, SweepBase, SweepServer,
};
use dnn_defender::budget::DEFAULT_COMMANDS_PER_SEC;
use dnn_defender::{CostModel, Json};

use crate::direct;
use crate::harness::{
    check_digests, measure_setup, mix, peak_rss_mb, run_rounds, timed, Digest, Outcome,
};
use crate::ledger::Ledger;
use crate::metrics::Layers;
use crate::stats::{median, percentile};

/// The request script's seed when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 0x5e41_ce00;

/// Cold submits per round. Two never-seen cells each make 288 cells: the
/// 36 (defense, load) pairs eight times over, so every seed computes the
/// same mix. p90 of 144 latencies has 14 samples beyond it.
const COLD_SUBMITS: usize = 144;
const FRESH_PER_COLD: usize = 2;
const WARM_SUBMITS: usize = 12_000;

/// Never-seen cells run at thresholds `T_RH_BASE + 1 ..= T_RH_BASE + 288`
/// on the small device, whose own threshold is `T_RH_BASE`.
const T_RH_BASE: u64 = 4800;

const CLIENT: &str = "bench";

/// Which class a submit belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Carries at least one never-seen cell.
    Cold,
    /// Every cell was computed by an earlier submit.
    Warm,
}

/// One submit of the script: indices into [`Script::specs`], each marked
/// never-seen or not, and the rendered request line.
#[derive(Debug, Clone)]
struct Submit {
    class: Class,
    cells: Vec<(usize, bool)>,
    line: String,
}

/// The seeded request script of one round.
#[derive(Debug, Clone)]
struct Script {
    specs: Vec<CellSpec>,
    submits: Vec<Submit>,
}

/// A SplitMix64 stream over [`mix`].
struct Draw(u64, u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.1 += 1;
        (mix(self.0, self.1) % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn submit_line(specs: &[CellSpec], cells: &[(usize, bool)]) -> String {
    Json::obj()
        .with("op", Json::str("submit"))
        .with("client", Json::str(CLIENT))
        .with("quick", Json::Bool(true))
        .with(
            "cells",
            Json::Arr(cells.iter().map(|&(i, _)| specs[i].to_json()).collect()),
        )
        .render_compact()
}

/// Build the request script from `seed`.
fn script(seed: u64) -> Script {
    let mut draw = Draw(seed, 0);
    let mut pairs: Vec<(DefenseKind, BackgroundLoad)> = Vec::new();
    let fresh = COLD_SUBMITS * FRESH_PER_COLD;
    while pairs.len() < fresh {
        for defense in DefenseKind::TABLE3 {
            for load in BackgroundLoad::ALL {
                pairs.push((defense, load));
            }
        }
    }
    pairs.truncate(fresh);
    draw.shuffle(&mut pairs);
    let mut thresholds: Vec<u64> = (1..=fresh as u64).map(|t| T_RH_BASE + t).collect();
    draw.shuffle(&mut thresholds);
    let specs: Vec<CellSpec> = pairs
        .iter()
        .zip(&thresholds)
        .map(|(&(defense, load), &t_rh)| CellSpec {
            defense,
            attacker: AttackerKind::Bfa,
            device: DeviceSpec {
                base: DeviceBase::Lpddr4Small,
                t_rh: Some(t_rh),
            },
            load,
            priority: 0,
        })
        .collect();

    let mut submits = Vec::with_capacity(COLD_SUBMITS + WARM_SUBMITS);
    for i in 0..COLD_SUBMITS {
        let seen = i * FRESH_PER_COLD;
        let mut cells: Vec<(usize, bool)> =
            (seen..seen + FRESH_PER_COLD).map(|c| (c, true)).collect();
        for _ in 0..draw.below(3).min(seen) {
            let old = loop {
                let c = draw.below(seen);
                if !cells.contains(&(c, false)) {
                    break c;
                }
            };
            cells.push((old, false));
        }
        let line = submit_line(&specs, &cells);
        submits.push(Submit {
            class: Class::Cold,
            cells,
            line,
        });
    }
    for _ in 0..WARM_SUBMITS {
        let cells: Vec<(usize, bool)> = (0..1 + draw.below(3))
            .map(|_| (draw.below(fresh), false))
            .collect();
        let line = submit_line(&specs, &cells);
        submits.push(Submit {
            class: Class::Warm,
            cells,
            line,
        });
    }
    Script { specs, submits }
}

/// Grant and capacity large enough that a correct server admits every
/// cell: no rejection, no shedding.
fn server_config() -> ServerConfig {
    ServerConfig {
        capacity_micros: u64::MAX / 4,
        default_grant_micros: u64::MAX / 4,
        ..ServerConfig::standard(true)
    }
}

fn new_server() -> SweepServer {
    SweepServer::new(
        server_config(),
        CostModel::new(DEFAULT_COMMANDS_PER_SEC, REFERENCE_DEVICE_ROWS),
    )
}

/// One round's responses and host timings.
struct Round {
    responses: Vec<String>,
    latency_s: Vec<f64>,
    cold_s: f64,
}

/// One submit through the socket loop's three calls, rendered as the
/// loop writes it. With a ledger, each call is timed under its class.
fn submit(server: &mut SweepServer, s: &Submit, ledger: Option<&mut Ledger>) -> String {
    let names = match s.class {
        Class::Cold => [
            "server.cold.admit",
            "server.cold.execute",
            "server.cold.complete",
        ],
        Class::Warm => [
            "server.warm.admit",
            "server.warm.execute",
            "server.warm.complete",
        ],
    };
    let (outcome, admit_s) = timed(|| server.begin_line(&s.line));
    let (response, times) = match outcome {
        LineOutcome::Response(response) => (response, [admit_s, 0.0, 0.0]),
        LineOutcome::Submit(prepared) => {
            let (executed, execute_s) = timed(|| SweepServer::execute_prepared(*prepared));
            let (response, complete_s) =
                timed(|| server.complete_submit(executed).render_compact());
            (response, [admit_s, execute_s, complete_s])
        }
    };
    if let Some(ledger) = ledger {
        for (name, secs) in names.into_iter().zip(times) {
            ledger.add_call(name, secs);
        }
    }
    response
}

/// Submits between recorder drains in the traced pass: five server spans
/// each stay far below the span ring's capacity.
const DRAIN_EVERY: usize = 256;

fn round(script: &Script, mut ledger: Option<&mut Ledger>) -> Round {
    let mut server = new_server();
    let mut responses = Vec::with_capacity(script.submits.len());
    let mut latency_s = Vec::with_capacity(script.submits.len());
    let started = Instant::now();
    let mut cold_s = 0.0;
    for (i, s) in script.submits.iter().enumerate() {
        let t = Instant::now();
        responses.push(submit(&mut server, s, ledger.as_deref_mut()));
        latency_s.push(t.elapsed().as_secs_f64());
        if i + 1 == COLD_SUBMITS {
            cold_s = started.elapsed().as_secs_f64();
        }
        if let Some(l) = ledger.as_deref_mut() {
            if s.class == Class::Cold || i % DRAIN_EVERY == 0 {
                l.drain();
            }
        }
    }
    Round {
        responses,
        latency_s,
        cold_s,
    }
}

/// What the checks extract from a round.
#[derive(Default)]
struct Tally {
    digest: u64,
    /// Each never-seen cell's report as the cold phase returned it.
    computed: Vec<Option<CellReport>>,
    hits: u64,
    cells: u64,
    /// Queue wait summed over the computed cells.
    queue_micros: u64,
}

/// Check every response of a round against the script: every cell
/// `done`, never-seen cells computed and every other cell a cache hit,
/// and every hit byte-identical to the cell first computed.
fn check_round(out: &mut Outcome, script: &Script, round: &Round) -> Tally {
    let mut rendered: Vec<Option<String>> = vec![None; script.specs.len()];
    let mut tally = Tally {
        computed: vec![None; script.specs.len()],
        ..Tally::default()
    };
    let mut digest = Digest::new();
    for (n, (s, line)) in script.submits.iter().zip(&round.responses).enumerate() {
        out.attempted += s.cells.len() as u64;
        tally.cells += s.cells.len() as u64;
        let results = match Json::parse(line)
            .ok()
            .filter(|r| r.field_bool("ok") == Ok(true))
            .and_then(|r| r.field_arr("results").ok().map(<[Json]>::to_vec))
        {
            Some(results) if results.len() == s.cells.len() => results,
            _ => {
                out.failed += s.cells.len() as u64;
                out.problems
                    .push(format!("submit {n}: bad response {line}"));
                continue;
            }
        };
        for (&(spec, fresh), result) in s.cells.iter().zip(&results) {
            if result.field_str("status") != Ok("done") {
                out.failed += 1;
                out.problems.push(format!(
                    "submit {n}: cell not done: {}",
                    result.render_compact()
                ));
                continue;
            }
            let hit = result.field_bool("cache_hit") == Ok(true);
            tally.hits += u64::from(hit);
            out.check(hit != fresh, || {
                format!("submit {n}: cell {spec} cache_hit={hit}, never-seen={fresh}")
            });
            let Ok(cell) = result.field("cell") else {
                out.problems
                    .push(format!("submit {n}: done cell without a report"));
                continue;
            };
            let text = cell.render_compact();
            match (&rendered[spec], fresh) {
                (None, true) => {
                    digest.str(&text);
                    tally.queue_micros += result.field_u64("queue_micros").unwrap_or(0);
                    match CellReport::from_json(cell) {
                        Ok(report) => tally.computed[spec] = Some(report),
                        Err(e) => out.problems.push(format!("submit {n}: {}", e.message)),
                    }
                    rendered[spec] = Some(text);
                }
                (Some(first), false) => out.check(*first == text, || {
                    format!("submit {n}: cached cell {spec} differs from its first answer")
                }),
                _ => out
                    .problems
                    .push(format!("submit {n}: cell {spec} out of script order")),
            }
        }
    }
    tally.digest = digest.finish();
    tally
}

/// The `--check-batch` oracle: the first computed cell of every defense
/// must be byte-identical to the batch path's cell for the same spec.
fn check_batch(out: &mut Outcome, script: &Script, tally: &Tally) -> Result<(), String> {
    for defense in DefenseKind::TABLE3 {
        let Some((spec, cell)) = script
            .specs
            .iter()
            .zip(&tally.computed)
            .find_map(|(spec, cell)| {
                (spec.defense == defense).then_some(cell.as_ref().map(|c| (spec, c)))
            })
            .flatten()
        else {
            out.problems
                .push(format!("no computed {} cell to check", defense.label()));
            continue;
        };
        let served = MatrixReport {
            cells: vec![cell.clone()],
        };
        let batch = batch_report(std::slice::from_ref(spec), true)?;
        out.check(
            served.to_json().render_pretty() == batch.to_json().render_pretty(),
            || format!("served `{}` differs from the batch path", spec.label()),
        );
    }
    Ok(())
}

/// Latency percentile `p` of one class over every round's per-submit
/// latencies, in milliseconds.
fn class_latency_ms(script: &Script, rounds: &[&[f64]], class: Class, p: f64) -> Option<f64> {
    let samples: Vec<f64> = rounds
        .iter()
        .flat_map(|latency_s| {
            script
                .submits
                .iter()
                .zip(latency_s.iter())
                .filter(move |(s, _)| s.class == class)
                .map(|(_, &secs)| 1e3 * secs)
        })
        .collect();
    percentile(&samples, p)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let ((script, _), setup_s) = measure_setup(|| (script(seed), server_config()));
    let mut out = Outcome::default();
    if trace {
        return traced(out, &script);
    }
    // The batch oracle recomputes cells, so it checks the first round only;
    // the digests hold the later rounds to the same cells.
    let mut oracle = None;
    let (rounds, secs) = run_rounds(
        seconds,
        server_config().workers,
        || round(&script, None),
        |r, scale| {
            let tally = check_round(&mut out, &script, &r);
            if oracle.is_none() {
                oracle = Some(check_batch(&mut out, &script, &tally));
            }
            (tally.digest, r.latency_s, scale * r.cold_s)
        },
    );
    oracle.expect("one round ran")?;
    let digests: Vec<u64> = rounds.iter().map(|r| r.0).collect();
    check_digests(&mut out, &digests, None);

    let wall_s = median(&secs).expect("one round ran");
    let fresh = (COLD_SUBMITS * FRESH_PER_COLD) as f64;
    let cells_per_s: Vec<f64> = rounds.iter().map(|r| fresh / r.2).collect();
    let latencies: Vec<&[f64]> = rounds.iter().map(|r| &r.1[..]).collect();
    let pct = |class, p| class_latency_ms(&script, &latencies, class, p).unwrap_or(f64::NAN);
    eprintln!(
        "service: {} rounds; cold p50 {:.2} ms, p90 {:.2} ms; warm p50 {:.4} ms, p90 {:.4} ms",
        rounds.len(),
        pct(Class::Cold, 50.0),
        pct(Class::Cold, 90.0),
        pct(Class::Warm, 50.0),
        pct(Class::Warm, 90.0),
    );
    out.metric("wall_s", wall_s, "s");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
    out.metric(
        "cells_per_s",
        median(&cells_per_s).expect("one round ran"),
        "1/s",
    );
    Ok(out)
}

/// The traced pass: one round under a `dd-obs` session with each of the
/// three calls timed per class, then the direct layer calls on the sweep
/// base's tiny victim.
fn traced(mut out: Outcome, script: &Script) -> Result<Outcome, String> {
    let session = dd_obs::session();
    let mut ledger = Ledger::default();
    let mut layers = Layers::default();
    let base = SweepBase::standard(true);
    let (((result, round_s), steps), traced_wall_s) = timed(|| {
        let result = timed(|| round(script, Some(&mut ledger)));
        ledger.drain();
        let steps = direct::cell_layers(
            &mut ledger,
            &VictimSpec::tiny_mlp(2024),
            AttackConfig {
                target_accuracy: 0.3,
                max_flips: 40,
                ..Default::default()
            },
            base.budget(),
            &DefenseKind::TABLE3,
        );
        (result, steps)
    });
    ledger.drain();
    drop(session);
    let tally = check_round(&mut out, script, &result);
    check_batch(&mut out, script, &tally)?;

    let calls = [
        "server.cold.admit",
        "server.cold.execute",
        "server.cold.complete",
        "server.warm.admit",
        "server.warm.execute",
        "server.warm.complete",
    ];
    let additive: f64 =
        calls.iter().map(|c| ledger.call_s(c)).sum::<f64>() + direct::additive_s(&ledger);
    let workers = server_config().workers as f64;
    let computed = tally.computed.iter().flatten();
    let false_ops: u64 = computed
        .clone()
        .filter_map(|c| c.benign.map(|b| b.false_defense_ops))
        .sum();
    let pct = |class, p| class_latency_ms(script, &[&result.latency_s], class, p).unwrap_or(0.0);
    layers.set("traced_wall_s", traced_wall_s);
    layers.set("traced_round_s", round_s);
    layers.set("other_s", traced_wall_s - additive);
    ledger.set_program_layers(&mut layers);
    direct::set_layers(&mut layers, &ledger, steps);
    layers.set("defense.false_ops", false_ops as f64);
    for (name, call) in [
        ("server.cold.admit_ms", calls[0]),
        ("server.cold.execute_ms", calls[1]),
        ("server.cold.complete_ms", calls[2]),
        ("server.warm.admit_ms", calls[3]),
        ("server.warm.execute_ms", calls[4]),
        ("server.warm.complete_ms", calls[5]),
    ] {
        layers.set(name, ledger.call_mean_ms(call));
    }
    layers.set(
        "server.queue_ms",
        tally.queue_micros as f64 / 1e3 / computed.count().max(1) as f64,
    );
    layers.set(
        "server.busy_frac",
        ledger.span_s("executor.job") / (workers * ledger.call_s(calls[1])).max(f64::MIN_POSITIVE),
    );
    layers.set(
        "server.hit_ratio",
        tally.hits as f64 / tally.cells.max(1) as f64,
    );
    layers.set("server.cold_p50_ms", pct(Class::Cold, 50.0));
    layers.set("server.cold_p90_ms", pct(Class::Cold, 90.0));
    layers.set("server.warm_p50_ms", pct(Class::Warm, 50.0));
    layers.set("server.warm_p90_ms", pct(Class::Warm, 90.0));
    out.metrics = layers.into_metrics();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_submit_is_exactly_one_class() {
        for seed in [DEFAULT_SEED, 1, 2] {
            let script = script(seed);
            let mut seen = vec![false; script.specs.len()];
            let (mut cold, mut warm) = (0, 0);
            for s in &script.submits {
                let fresh = s.cells.iter().filter(|&&(_, f)| f).count();
                // Cold iff it carries a never-seen cell; warm iff every
                // cell was computed by an earlier submit.
                let is_cold = fresh > 0;
                let is_warm = s.cells.iter().all(|&(c, f)| !f && seen[c]);
                assert!(is_cold != is_warm, "submit in both or neither class: {s:?}");
                assert_eq!(s.class == Class::Cold, is_cold);
                for &(c, f) in &s.cells {
                    assert_eq!(f, !seen[c], "never-seen flag wrong for cell {c}");
                }
                for &(c, _) in &s.cells {
                    seen[c] = true;
                }
                cold += usize::from(is_cold);
                warm += usize::from(is_warm);
                assert!((1..=4).contains(&s.cells.len()));
            }
            assert_eq!((cold, warm), (COLD_SUBMITS, WARM_SUBMITS));
            assert!(
                seen.iter().all(|&s| s),
                "a scripted cell was never submitted"
            );
        }
    }

    #[test]
    fn scripts_are_seeded_and_balanced() {
        let a = script(1);
        assert_eq!(a.submits[7].line, script(1).submits[7].line);
        assert_ne!(a.submits[7].line, script(2).submits[7].line);
        // Every seed computes the same (defense, load) mix.
        let mut counts = std::collections::BTreeMap::new();
        for spec in &a.specs {
            *counts
                .entry((spec.defense.label(), spec.load.label()))
                .or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 36);
        assert!(counts.values().all(|&n| n == 8));
        let mut keys: Vec<u64> = a
            .specs
            .iter()
            .map(|s| SweepBase::standard(true).cell_key(s).1)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            keys.len(),
            a.specs.len(),
            "never-seen cells must be distinct"
        );
    }
}
