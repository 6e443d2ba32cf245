//! `repro` — the one-command artifact pipeline.
//!
//! Runs every figure/table of the paper's evaluation, writes versioned
//! machine-readable artifacts (`artifacts/<experiment>.json` + `.csv`),
//! caches scenario-matrix cells by content hash so unchanged work is
//! never redone, and regenerates the marked sections of EXPERIMENTS.md
//! from the artifacts so the documented numbers cannot drift from what
//! the code produced.
//!
//! ```text
//! repro all                    # every experiment (reuses fresh artifacts)
//! repro table3 fig8a           # a subset
//! repro all --smoke            # smoke-sized scaling
//! repro all --jobs 4           # cap matrix worker threads
//! repro all --force            # ignore caches, recompute everything
//! repro report                 # re-render EXPERIMENTS.md from artifacts
//! repro report --check         # exit non-zero if EXPERIMENTS.md would change,
//!                              # an artifact's config hash is stale, or the
//!                              # trace records another server protocol
//! repro kernel                 # batched-vs-reference perf gate -> BENCH_kernel.json
//! repro serve --socket S.sock  # resident sweep server (matrix-as-a-service)
//! repro submit --socket S.sock DnnDefender:BFA:lpddr4_small:none
//!                              # price, run, and fetch cells from a server
//! ```

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dd_bench::cache::{load_cell_cache, save_cell_cache};
use dd_bench::chaos::{run_chaos_campaign, ChaosCampaignReport};
use dd_bench::corpus::{run_corpus_campaign, CorpusReport};
use dd_bench::experiments::{print_artifact, ExperimentId, RunContext};
use dd_bench::kernel::{
    run_kernel_bench, KernelBench, CHAOS_OVERHEAD_CEILING_PCT, KERNEL_SPEEDUP_FLOOR,
    OBS_OVERHEAD_CEILING_PCT, STREAMING_RATIO_FLOOR,
};
use dd_bench::report::{render_duration, splice_section, Artifact};
use dd_bench::serve::{run_serve, run_submit, ServeOptions, SubmitOptions};
use dd_bench::trace::{run_trace, TraceSummary};
use dd_server::SERVER_PROTOCOL_VERSION;

struct Options {
    smoke: bool,
    jobs: Option<usize>,
    force: bool,
    check: bool,
    quiet: bool,
    artifacts_dir: PathBuf,
    commands: Vec<String>,
}

fn usage(code: u8) -> ExitCode {
    eprintln!(
        "usage: repro [OPTIONS] <COMMAND>...\n\
         \n\
         commands:\n\
         \x20 all            run every experiment\n\
         \x20 report         regenerate the marked sections of EXPERIMENTS.md from artifacts\n\
         \x20 kernel         benchmark the batched kernel vs the per-command reference path\n\
         \x20                and streaming v2-container replay vs the decoded-in-RAM path;\n\
         \x20                write BENCH_kernel.json, and fail below any committed floor\n\
         \x20 trace          run an observed smoke scenario (matrix slice + driver run +\n\
         \x20                server session) under dd-obs; write TRACE_summary.json and a\n\
         \x20                Perfetto-loadable TRACE_perfetto.json timeline\n\
         \x20 chaos          scripted fault-injection campaign (seeded dd-chaos plans\n\
         \x20                against executor, kernel, wire, cache, and client); asserts\n\
         \x20                budget conservation, byte-identical cells, and survival;\n\
         \x20                writes CHAOS_report.json and fails on any broken invariant\n\
         \x20 corpus         fleet-scale diurnal corpus sweep: one compressed fleet day\n\
         \x20                (load ramp, tenant churn, hot-key shift) through every\n\
         \x20                defense, with streaming-vs-materialized replay asserted\n\
         \x20                bit-identical; writes CORPUS_report.json and fails on any\n\
         \x20                broken invariant\n\
         \x20 serve          resident sweep server (line-delimited JSON on stdio,\n\
         \x20                --socket <S>, or --tcp <host:port>; budget-accounted,\n\
         \x20                cell-cached; --read-timeout-ms <N>)\n\
         \x20 submit         submit cell specs (defense:attacker:device:load[:priority])\n\
         \x20                to a server (--socket <S> / --tcp <A>, else in-process);\n\
         \x20                --client <C>, --grant-micros <N>, --out <F>, --check-batch,\n\
         \x20                --retries <N>, --retry-seed <N>\n\
         \x20 fig1a | fig1b | table2 | table3 | fig8a | fig8b | fig9 | power | workload | server\n\
         \n\
         options:\n\
         \x20 --smoke              smoke-sized experiments (fewer epochs, smaller budgets)\n\
         \x20 --jobs <N>           cap scenario-matrix worker threads\n\
         \x20 --force              ignore artifact and cell caches, recompute\n\
         \x20 --check              with `report`: fail instead of writing on drift, on\n\
         \x20                      an artifact whose config hash is stale, or on a\n\
         \x20                      trace summary from another server protocol\n\
         \x20 --quiet              suppress table output (summary lines only)\n\
         \x20 --artifacts-dir <D>  artifact directory (default: artifacts)"
    );
    ExitCode::from(code)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        smoke: false,
        jobs: None,
        force: false,
        check: false,
        quiet: false,
        artifacts_dir: PathBuf::from("artifacts"),
        commands: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--force" => opts.force = true,
            "--check" => opts.check = true,
            "--quiet" => opts.quiet = true,
            "--jobs" => {
                let value = args.next().and_then(|v| v.parse::<usize>().ok());
                match value {
                    Some(n) if n > 0 => opts.jobs = Some(n),
                    _ => {
                        eprintln!("repro: --jobs needs a positive integer");
                        return Err(usage(1));
                    }
                }
            }
            "--artifacts-dir" => match args.next() {
                Some(dir) => opts.artifacts_dir = PathBuf::from(dir),
                None => {
                    eprintln!("repro: --artifacts-dir needs a path");
                    return Err(usage(1));
                }
            },
            "--help" | "-h" => return Err(usage(0)),
            cmd if !cmd.starts_with('-') => opts.commands.push(cmd.to_string()),
            unknown => {
                eprintln!("repro: unknown option `{unknown}`");
                return Err(usage(1));
            }
        }
    }
    if opts.commands.is_empty() {
        return Err(usage(1));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    // The service subcommands own their arguments (cell specs would be
    // misread as experiment names by the pipeline parser).
    if let Some(first) = std::env::args().nth(1) {
        if first == "serve" || first == "submit" {
            return run_service(&first);
        }
    }
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(code) => return code,
    };

    let mut experiments = Vec::new();
    let mut want_report = false;
    let mut want_kernel = false;
    let mut want_trace = false;
    let mut want_chaos = false;
    let mut want_corpus = false;
    for command in &opts.commands {
        match command.as_str() {
            "all" => experiments.extend(ExperimentId::ALL),
            "report" => want_report = true,
            "kernel" => want_kernel = true,
            "trace" => want_trace = true,
            "chaos" => want_chaos = true,
            "corpus" => want_corpus = true,
            name => match ExperimentId::parse(name) {
                Some(id) => experiments.push(id),
                None => {
                    eprintln!("repro: unknown command `{name}`");
                    return usage(1);
                }
            },
        }
    }
    // Order-preserving dedup (`Vec::dedup` only merges adjacent repeats,
    // which `repro table3 all` would defeat).
    let mut seen = std::collections::HashSet::new();
    experiments.retain(|id| seen.insert(id.name()));

    if !experiments.is_empty() {
        if let Err(code) = run_experiments(&opts, &experiments) {
            return code;
        }
    }
    if want_kernel {
        if let Err(code) = run_kernel(&opts) {
            return code;
        }
    }
    if want_trace {
        if let Err(code) = run_trace_cmd(&opts) {
            return code;
        }
    }
    if want_chaos {
        if let Err(code) = run_chaos_cmd(&opts) {
            return code;
        }
    }
    if want_corpus {
        if let Err(code) = run_corpus_cmd(&opts) {
            return code;
        }
    }
    if want_report {
        return run_report(&opts);
    }
    ExitCode::SUCCESS
}

/// The `trace` subcommand: one observed smoke scenario through every
/// instrumented layer, exported as the deterministic summary artifact
/// and a Perfetto-loadable timeline.
fn run_trace_cmd(opts: &Options) -> Result<(), ExitCode> {
    if let Err(e) = std::fs::create_dir_all(&opts.artifacts_dir) {
        eprintln!("repro: cannot create {}: {e}", opts.artifacts_dir.display());
        return Err(ExitCode::FAILURE);
    }
    println!(
        "[trace] observed run ({} sizing): matrix slice + solo driver run + scripted \
         server session under dd-obs...",
        if opts.smoke { "smoke" } else { "full" }
    );
    let outcome = match run_trace(opts.smoke, opts.jobs) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("repro: trace scenario failed: {e:?}");
            return Err(ExitCode::FAILURE);
        }
    };
    let summary_path = opts.artifacts_dir.join("TRACE_summary.json");
    let perfetto_path = opts.artifacts_dir.join("TRACE_perfetto.json");
    if let Err(e) = std::fs::write(&summary_path, outcome.summary.to_json().render_pretty()) {
        eprintln!("repro: cannot write {}: {e}", summary_path.display());
        return Err(ExitCode::FAILURE);
    }
    if let Err(e) = std::fs::write(&perfetto_path, &outcome.perfetto) {
        eprintln!("repro: cannot write {}: {e}", perfetto_path.display());
        return Err(ExitCode::FAILURE);
    }
    println!(
        "[trace] {} spans, {} events, {} counters, {} histograms across the session -> {}",
        outcome.snapshot.spans.len(),
        outcome.snapshot.events.len(),
        outcome.snapshot.counters.len(),
        outcome.snapshot.hists.len(),
        summary_path.display(),
    );
    println!(
        "[trace] timeline -> {} (load at https://ui.perfetto.dev)",
        perfetto_path.display(),
    );
    Ok(())
}

/// The `chaos` subcommand: the scripted fault-injection campaign.
/// Writes `CHAOS_report.json` and fails when any resilience invariant
/// broke or any injection site never fired.
fn run_chaos_cmd(opts: &Options) -> Result<(), ExitCode> {
    if let Err(e) = std::fs::create_dir_all(&opts.artifacts_dir) {
        eprintln!("repro: cannot create {}: {e}", opts.artifacts_dir.display());
        return Err(ExitCode::FAILURE);
    }
    println!(
        "[chaos] fault-injection campaign ({} sizing): executor, kernel, cache, \
         wire, and client faults under seeded dd-chaos plans...",
        if opts.smoke { "smoke" } else { "full" }
    );
    let report = match run_chaos_campaign(opts.smoke) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("repro: chaos campaign harness failed: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    let path = opts.artifacts_dir.join("CHAOS_report.json");
    if let Err(e) = std::fs::write(&path, report.to_json().render_pretty()) {
        eprintln!("repro: cannot write {}: {e}", path.display());
        return Err(ExitCode::FAILURE);
    }
    let invariants: usize = report.phases.iter().map(|p| p.invariants.len()).sum();
    println!(
        "[chaos] {} phases, {} invariants, {}/{} sites fired -> {}",
        report.phases.len(),
        invariants,
        report.sites_covered.len(),
        dd_bench::chaos::CHAOS_SITES.len(),
        path.display(),
    );
    if !report.all_pass() {
        for (phase, invariant) in report.failed_invariants() {
            eprintln!("repro: chaos invariant FAILED [{phase}] {invariant}");
        }
        for site in report.sites_missing() {
            eprintln!("repro: chaos site never fired: {site}");
        }
        eprintln!("repro: chaos campaign FAILED — see {}", path.display());
        return Err(ExitCode::FAILURE);
    }
    println!("[chaos] every invariant held; zero server deaths");
    Ok(())
}

/// The `corpus` subcommand: the fleet-scale diurnal corpus sweep.
/// Writes `CORPUS_report.json` and fails when any invariant broke —
/// above all, when streaming replay diverged from materialized replay
/// for any defense.
fn run_corpus_cmd(opts: &Options) -> Result<(), ExitCode> {
    if let Err(e) = std::fs::create_dir_all(&opts.artifacts_dir) {
        eprintln!("repro: cannot create {}: {e}", opts.artifacts_dir.display());
        return Err(ExitCode::FAILURE);
    }
    println!(
        "[corpus] fleet-scale diurnal sweep ({} sizing): one compressed fleet day \
         (load ramp, tenant churn, hot-key shift) through every defense, plus \
         streaming-vs-materialized replay bit-identity...",
        if opts.smoke { "smoke" } else { "full" }
    );
    let report = match run_corpus_campaign(opts.smoke) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("repro: corpus campaign harness failed: {e:?}");
            return Err(ExitCode::FAILURE);
        }
    };
    let path = opts.artifacts_dir.join("CORPUS_report.json");
    if let Err(e) = std::fs::write(&path, report.to_json().render_pretty()) {
        eprintln!("repro: cannot write {}: {e}", path.display());
        return Err(ExitCode::FAILURE);
    }
    println!(
        "[corpus] {} phases x {} defenses, {} invariants; sample {} records, \
         v2/v1 {:.0}% -> {}",
        report.phases.len(),
        report.defenses.len(),
        report.invariants.len(),
        report.trace.records,
        if report.trace.v1_bytes == 0 {
            0.0
        } else {
            100.0 * report.trace.v2_bytes as f64 / report.trace.v1_bytes as f64
        },
        path.display(),
    );
    if !report.all_pass() {
        for name in report.failed_invariants() {
            eprintln!("repro: corpus invariant FAILED: {name}");
        }
        eprintln!("repro: corpus campaign FAILED — see {}", path.display());
        return Err(ExitCode::FAILURE);
    }
    println!("[corpus] every invariant held; streaming replay bit-identical across the roster");
    Ok(())
}

/// The `kernel` perf gate: benchmark the batched kernel against the
/// per-command reference path (equivalence-checked first), write
/// `BENCH_kernel.json`, and fail when the measured speedup regresses
/// below the committed floor.
fn run_kernel(opts: &Options) -> Result<(), ExitCode> {
    if let Err(e) = std::fs::create_dir_all(&opts.artifacts_dir) {
        eprintln!("repro: cannot create {}: {e}", opts.artifacts_dir.display());
        return Err(ExitCode::FAILURE);
    }
    let path = opts.artifacts_dir.join("BENCH_kernel.json");
    // The floors and the overhead ceilings travel in the committed
    // artifact: prefer the target dir's copy, fall back to the repo's
    // committed one, then to the built-in defaults.
    let (floor, streaming_floor, obs_ceiling, chaos_ceiling) =
        [path.clone(), PathBuf::from("artifacts/BENCH_kernel.json")]
            .iter()
            .find_map(|p| {
                let text = std::fs::read_to_string(p).ok()?;
                let committed = KernelBench::parse(&text).ok()?;
                Some((
                    committed.floor,
                    committed.streaming_floor,
                    committed.obs_overhead_ceiling_pct,
                    committed.chaos_overhead_ceiling_pct,
                ))
            })
            .unwrap_or((
                KERNEL_SPEEDUP_FLOOR,
                STREAMING_RATIO_FLOOR,
                OBS_OVERHEAD_CEILING_PCT,
                CHAOS_OVERHEAD_CEILING_PCT,
            ));

    println!(
        "[kernel] racing the batched kernel against the per-command reference path \
         ({} sizing; equivalence is asserted before timing)...",
        if opts.smoke { "smoke" } else { "full" }
    );
    let bench = run_kernel_bench(
        opts.smoke,
        floor,
        streaming_floor,
        obs_ceiling,
        chaos_ceiling,
    );
    if let Err(e) = std::fs::write(&path, bench.to_json().render_pretty()) {
        eprintln!("repro: cannot write {}: {e}", path.display());
        return Err(ExitCode::FAILURE);
    }
    println!(
        "[kernel] reference {:.1}M cmd/s vs batch {:.1}M cmd/s -> {:.2}x speedup \
         (floor {:.2}x) -> {}",
        bench.reference.commands_per_sec / 1e6,
        bench.batch.commands_per_sec / 1e6,
        bench.speedup,
        bench.floor,
        path.display(),
    );
    if bench.speedup < bench.floor {
        eprintln!(
            "repro: kernel speedup {:.2}x regressed below the committed floor {:.2}x — \
             the batched fast path lost its advantage (see docs/perf.md)",
            bench.speedup, bench.floor
        );
        return Err(ExitCode::FAILURE);
    }
    println!(
        "[kernel] streaming v2 replay {:.1}M cmd/s -> {:.2}x of the batched path \
         (floor {:.2}x)",
        bench.streaming.commands_per_sec / 1e6,
        bench.streaming_ratio,
        bench.streaming_floor,
    );
    if bench.streaming_ratio < bench.streaming_floor {
        eprintln!(
            "repro: streaming replay throughput fell to {:.2}x of the batched path, below \
             the committed floor {:.2}x — chunked container decode regressed \
             (see docs/perf.md)",
            bench.streaming_ratio, bench.streaming_floor
        );
        return Err(ExitCode::FAILURE);
    }
    println!(
        "[kernel] dd-obs overhead: batch {:+.2}% with recording enabled (ceiling {:.2}%)",
        bench.obs_overhead_batch_pct, bench.obs_overhead_ceiling_pct,
    );
    if bench.obs_overhead_batch_pct > bench.obs_overhead_ceiling_pct {
        eprintln!(
            "repro: dd-obs instrumentation overhead (batch {:+.2}%) exceeds the committed \
             ceiling {:.2}% — recording with the sink enabled costs too much on a kernel hot \
             loop, measured against paired disabled-sink runs (see docs/observability.md)",
            bench.obs_overhead_batch_pct, bench.obs_overhead_ceiling_pct,
        );
        return Err(ExitCode::FAILURE);
    }
    println!(
        "[kernel] dd-chaos fault-plane overhead: batch {:+.2}% with an armed inert plan \
         (ceiling {:.2}%)",
        bench.chaos_overhead_batch_pct, bench.chaos_overhead_ceiling_pct,
    );
    if bench.chaos_overhead_batch_pct > bench.chaos_overhead_ceiling_pct {
        eprintln!(
            "repro: dd-chaos fault-plane overhead (batch {:+.2}%) exceeds the committed \
             ceiling {:.2}% — the fault-injection probes are no longer cheap enough on a \
             kernel hot loop (see docs/resilience.md)",
            bench.chaos_overhead_batch_pct, bench.chaos_overhead_ceiling_pct,
        );
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}

/// Tally of reusable work: scenario cells for matrix experiments, one
/// unit for everything else, so "cache hits" means "fraction of the
/// expensive work skipped".
#[derive(Default)]
struct CacheTally {
    units: usize,
    hits: usize,
}

fn run_experiments(opts: &Options, experiments: &[ExperimentId]) -> Result<(), ExitCode> {
    if let Err(e) = std::fs::create_dir_all(&opts.artifacts_dir) {
        eprintln!("repro: cannot create {}: {e}", opts.artifacts_dir.display());
        return Err(ExitCode::FAILURE);
    }
    let cache_path = opts.artifacts_dir.join("cache").join("cells.json");
    let loaded = load_cell_cache(&cache_path);
    // `--force` hides the loaded entries from lookup so everything
    // recomputes, but they are merged back before saving — a forced
    // partial run must not discard cells it didn't recompute.
    let mut cells = if opts.force {
        HashMap::new()
    } else {
        loaded.clone()
    };
    let mut tally = CacheTally::default();

    for &id in experiments {
        let hash = id.config_hash(opts.smoke);
        let json_path = opts.artifacts_dir.join(format!("{}.json", id.name()));
        if !opts.force {
            if let Some(existing) = load_artifact(&json_path) {
                // The config hash is the whole reuse decision: it already
                // encodes quick/full mode for the experiments whose
                // numbers depend on it (the analytical ones are
                // mode-independent by construction).
                if existing.config_hash == hash {
                    let units = existing.cache.cells.max(1);
                    tally.units += units;
                    tally.hits += units;
                    println!(
                        "[{}] artifact up to date (config {:#018x}, {}) — reused",
                        id.name(),
                        hash,
                        render_duration(existing.wall_millis),
                    );
                    continue;
                }
            }
        }

        let mut ctx = RunContext {
            quick: opts.smoke,
            jobs: opts.jobs,
            cells: &mut cells,
            verbose: !opts.quiet,
        };
        let artifact = match id.run(&mut ctx) {
            Ok(artifact) => artifact,
            Err(e) => {
                eprintln!("repro: {} failed: {e:?}", id.name());
                return Err(ExitCode::FAILURE);
            }
        };
        tally.units += artifact.cache.cells.max(1);
        tally.hits += artifact.cache.cache_hits;
        if let Err(e) = write_artifact(&opts.artifacts_dir, &artifact) {
            eprintln!("repro: cannot write artifact: {e}");
            return Err(ExitCode::FAILURE);
        }
        if !opts.quiet {
            print_artifact(&artifact);
        }
        println!(
            "[{}] done in {} (config {:#018x}; cache {}/{} cells) -> {}",
            id.name(),
            render_duration(artifact.wall_millis),
            artifact.config_hash,
            artifact.cache.cache_hits,
            artifact.cache.cells,
            json_path.display(),
        );
    }

    // Re-merge entries a `--force` run hid from lookup (fresh results
    // win), keeping the cache append-only for partial runs.
    if opts.force {
        for (key, cell) in loaded {
            cells.entry(key).or_insert(cell);
        }
    }
    // When every experiment ran, the union of their declared cell keys —
    // over BOTH quick and full scaling, so a `--smoke` pass never evicts
    // the expensive full-mode cells — is the complete live set; prune the
    // cache to it so stale entries from earlier configurations don't
    // accumulate forever. (Partial runs can't tell which unrequested
    // experiments own which keys, so they leave the cache append-only.)
    if ExperimentId::ALL.iter().all(|id| experiments.contains(id)) {
        let live: std::collections::HashSet<u64> = experiments
            .iter()
            .flat_map(|id| {
                let mut keys = id.declared_cell_keys(true);
                keys.extend(id.declared_cell_keys(false));
                keys
            })
            .collect();
        cells.retain(|key, _| live.contains(key));
    }
    if let Err(e) = save_cell_cache(&cache_path, &cells) {
        eprintln!("repro: cannot write cell cache: {e}");
        return Err(ExitCode::FAILURE);
    }
    let pct = if tally.units == 0 {
        100.0
    } else {
        100.0 * tally.hits as f64 / tally.units as f64
    };
    println!(
        "cache: {}/{} units reused ({pct:.0}%) — rerun with unchanged config to approach 100%",
        tally.hits, tally.units
    );
    Ok(())
}

fn run_report(opts: &Options) -> ExitCode {
    let docs_path = match locate_experiments_md() {
        Some(path) => path,
        None => {
            eprintln!("repro: cannot locate EXPERIMENTS.md (run from the repo root)");
            return ExitCode::FAILURE;
        }
    };
    // When the docs were found via the manifest fallback (running from
    // outside the repo root) and the artifacts dir was left at its
    // CWD-relative default, follow the docs: the artifacts live next to
    // EXPERIMENTS.md, not under the current directory.
    let mut artifacts_dir = opts.artifacts_dir.clone();
    if artifacts_dir == Path::new("artifacts") && !artifacts_dir.is_dir() {
        if let Some(root) = docs_path.parent() {
            artifacts_dir = root.join("artifacts");
        }
    }
    let original = match std::fs::read_to_string(&docs_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("repro: cannot read {}: {e}", docs_path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut doc = original.clone();
    let mut spliced = 0usize;
    let mut stale = 0usize;
    for id in ExperimentId::ALL {
        let json_path = artifacts_dir.join(format!("{}.json", id.name()));
        let Some(artifact) = load_artifact(&json_path) else {
            if opts.check {
                // A section that cannot be re-rendered cannot be verified
                // against its artifact — the drift gate must not pass it.
                eprintln!(
                    "repro: cannot verify `{}`: {} missing or unreadable — \
                     run `repro {}` (or `repro all`) and commit artifacts/",
                    id.name(),
                    json_path.display(),
                    id.name(),
                );
                return ExitCode::FAILURE;
            }
            println!(
                "[report] no artifact for `{}` ({} missing or unreadable) — section left as-is",
                id.name(),
                json_path.display()
            );
            continue;
        };
        // An artifact whose config hash the current code no longer
        // produces would not be reused by a rerun: its numbers may be out
        // of date even when its rendered section still matches.
        let expected = id.config_hash(artifact.quick);
        if opts.check && artifact.config_hash != expected {
            eprintln!(
                "repro: `{}` artifact is stale: config {:#018x}, current config {:#018x} — \
                 run `repro {}` and commit artifacts/",
                id.name(),
                artifact.config_hash,
                expected,
                id.name(),
            );
            stale += 1;
        }
        match splice_section(&doc, id.name(), &artifact.render_markdown()) {
            Ok(updated) => {
                doc = updated;
                spliced += 1;
            }
            Err(e) => {
                eprintln!("repro: {} in {}", e, docs_path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    // The observability trace section renders from TRACE_summary.json
    // (deterministic aggregates only, so the splice is machine-independent
    // like the experiment sections).
    let trace_path = artifacts_dir.join("TRACE_summary.json");
    match std::fs::read_to_string(&trace_path)
        .ok()
        .and_then(|text| TraceSummary::parse(&text).ok())
    {
        Some(summary) => {
            // The timing half holds the server's `stats` reply: a summary
            // from another wire protocol predates the server it describes.
            let protocol = summary.server_protocol();
            if opts.check && protocol != Some(SERVER_PROTOCOL_VERSION) {
                eprintln!(
                    "repro: {} is stale: server protocol {}, current protocol {} — \
                     run `repro trace` and commit artifacts/",
                    trace_path.display(),
                    protocol.map_or_else(|| "missing".to_string(), |p| p.to_string()),
                    SERVER_PROTOCOL_VERSION,
                );
                stale += 1;
            }
            match splice_section(&doc, "trace", &summary.render_markdown()) {
                Ok(updated) => {
                    doc = updated;
                    spliced += 1;
                }
                Err(e) => {
                    eprintln!("repro: {} in {}", e, docs_path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        None if opts.check => {
            eprintln!(
                "repro: cannot verify `trace`: {} missing or unreadable — \
                 run `repro trace` and commit artifacts/",
                trace_path.display(),
            );
            return ExitCode::FAILURE;
        }
        None => {
            println!(
                "[report] no artifact for `trace` ({} missing or unreadable) — section left as-is",
                trace_path.display()
            );
        }
    }
    // The resilience section renders from CHAOS_report.json (run-stable
    // fields only — rule sets, invariant outcomes, site coverage — so the
    // splice is machine-independent).
    let chaos_path = artifacts_dir.join("CHAOS_report.json");
    match std::fs::read_to_string(&chaos_path)
        .ok()
        .and_then(|text| ChaosCampaignReport::parse(&text).ok())
    {
        Some(report) => match splice_section(&doc, "chaos", &report.render_markdown()) {
            Ok(updated) => {
                doc = updated;
                spliced += 1;
            }
            Err(e) => {
                eprintln!("repro: {} in {}", e, docs_path.display());
                return ExitCode::FAILURE;
            }
        },
        None if opts.check => {
            eprintln!(
                "repro: cannot verify `chaos`: {} missing or unreadable — \
                 run `repro chaos` and commit artifacts/",
                chaos_path.display(),
            );
            return ExitCode::FAILURE;
        }
        None => {
            println!(
                "[report] no artifact for `chaos` ({} missing or unreadable) — section left as-is",
                chaos_path.display()
            );
        }
    }
    // The corpus section renders from CORPUS_report.json (deterministic
    // simulated counts only, so the splice is machine-independent).
    let corpus_path = artifacts_dir.join("CORPUS_report.json");
    match std::fs::read_to_string(&corpus_path)
        .ok()
        .and_then(|text| CorpusReport::parse(&text).ok())
    {
        Some(report) => match splice_section(&doc, "corpus", &report.render_markdown()) {
            Ok(updated) => {
                doc = updated;
                spliced += 1;
            }
            Err(e) => {
                eprintln!("repro: {} in {}", e, docs_path.display());
                return ExitCode::FAILURE;
            }
        },
        None if opts.check => {
            eprintln!(
                "repro: cannot verify `corpus`: {} missing or unreadable — \
                 run `repro corpus` and commit artifacts/",
                corpus_path.display(),
            );
            return ExitCode::FAILURE;
        }
        None => {
            println!(
                "[report] no artifact for `corpus` ({} missing or unreadable) — section left as-is",
                corpus_path.display()
            );
        }
    }
    if spliced == 0 {
        // "Up to date" with nothing verified would be a lie — this is a
        // misconfiguration (wrong directory, no artifacts yet), not a
        // clean result.
        eprintln!(
            "repro: no artifacts found under {} — nothing to render; run `repro all` first \
             (or pass --artifacts-dir)",
            artifacts_dir.display()
        );
        return ExitCode::FAILURE;
    }
    if stale > 0 {
        eprintln!("repro: {stale} artifact(s) are stale against the current config");
        return ExitCode::FAILURE;
    }
    if doc == original {
        println!(
            "EXPERIMENTS.md is up to date ({spliced} generated sections match their artifacts)"
        );
        return ExitCode::SUCCESS;
    }
    if opts.check {
        eprintln!(
            "repro: EXPERIMENTS.md is out of date with artifacts/ — run `repro report` \
             and commit the result"
        );
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&docs_path, &doc) {
        eprintln!("repro: cannot write {}: {e}", docs_path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "EXPERIMENTS.md regenerated ({spliced} sections) from {}",
        artifacts_dir.display()
    );
    ExitCode::SUCCESS
}

/// EXPERIMENTS.md in the current directory (normal case: run from the
/// repo root), else next to the workspace the binary was built from.
fn locate_experiments_md() -> Option<PathBuf> {
    let local = PathBuf::from("EXPERIMENTS.md");
    if local.exists() {
        return Some(local);
    }
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("EXPERIMENTS.md");
    manifest.exists().then_some(manifest)
}

fn load_artifact(path: &Path) -> Option<Artifact> {
    let text = std::fs::read_to_string(path).ok()?;
    match Artifact::parse(&text) {
        Ok(artifact) => Some(artifact),
        Err(e) => {
            eprintln!("repro: ignoring {}: {e}", path.display());
            None
        }
    }
}

fn write_artifact(dir: &Path, artifact: &Artifact) -> std::io::Result<()> {
    let stem = dir.join(&artifact.experiment);
    std::fs::write(
        stem.with_extension("json"),
        artifact.to_json().render_pretty(),
    )?;
    std::fs::write(stem.with_extension("csv"), artifact.to_csv())
}

/// Parse the args of `repro serve` / `repro submit` (the service
/// subcommands take their own options, so they bypass [`parse_args`]).
fn parse_service_args(command: &str) -> Result<(ServeOptions, SubmitOptions), ExitCode> {
    let mut serve = ServeOptions {
        artifacts_dir: PathBuf::from("artifacts"),
        socket: None,
        tcp: None,
        read_timeout_ms: None,
        jobs: None,
        capacity_micros: None,
        grant_micros: None,
        quick: false,
    };
    let mut submit = SubmitOptions {
        artifacts_dir: PathBuf::from("artifacts"),
        socket: None,
        tcp: None,
        client: "cli".to_string(),
        grant_micros: None,
        retries: None,
        retry_seed: None,
        out: None,
        check_batch: false,
        quick: false,
        quiet: false,
        specs: Vec::new(),
    };
    let need = |flag: &str, value: Option<String>| {
        value.ok_or_else(|| {
            eprintln!("repro {command}: {flag} needs a value");
            usage(1)
        })
    };
    let mut args = std::env::args().skip(2);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                serve.quick = true;
                submit.quick = true;
            }
            "--quiet" => submit.quiet = true,
            "--check-batch" => submit.check_batch = true,
            "--socket" => {
                let path = PathBuf::from(need("--socket", args.next())?);
                serve.socket = Some(path.clone());
                submit.socket = Some(path);
            }
            "--tcp" => {
                let addr = need("--tcp", args.next())?;
                serve.tcp = Some(addr.clone());
                submit.tcp = Some(addr);
            }
            "--read-timeout-ms" => match need("--read-timeout-ms", args.next())?.parse::<u64>() {
                Ok(ms) => serve.read_timeout_ms = Some(ms),
                Err(_) => {
                    eprintln!("repro {command}: --read-timeout-ms needs an integer");
                    return Err(usage(1));
                }
            },
            "--retries" => match need("--retries", args.next())?.parse::<u32>() {
                Ok(n) if n > 0 => submit.retries = Some(n),
                _ => {
                    eprintln!("repro {command}: --retries needs a positive integer");
                    return Err(usage(1));
                }
            },
            "--retry-seed" => match need("--retry-seed", args.next())?.parse::<u64>() {
                Ok(seed) => submit.retry_seed = Some(seed),
                Err(_) => {
                    eprintln!("repro {command}: --retry-seed needs an integer");
                    return Err(usage(1));
                }
            },
            "--artifacts-dir" => {
                let dir = PathBuf::from(need("--artifacts-dir", args.next())?);
                serve.artifacts_dir = dir.clone();
                submit.artifacts_dir = dir;
            }
            "--client" => submit.client = need("--client", args.next())?,
            "--out" => submit.out = Some(PathBuf::from(need("--out", args.next())?)),
            "--jobs" => match need("--jobs", args.next())?.parse::<usize>() {
                Ok(n) if n > 0 => serve.jobs = Some(n),
                _ => {
                    eprintln!("repro {command}: --jobs needs a positive integer");
                    return Err(usage(1));
                }
            },
            "--capacity-micros" => match need("--capacity-micros", args.next())?.parse::<u64>() {
                Ok(n) => serve.capacity_micros = Some(n),
                Err(_) => {
                    eprintln!("repro {command}: --capacity-micros needs an integer");
                    return Err(usage(1));
                }
            },
            "--grant-micros" => match need("--grant-micros", args.next())?.parse::<u64>() {
                Ok(n) => {
                    serve.grant_micros = Some(n);
                    submit.grant_micros = Some(n);
                }
                Err(_) => {
                    eprintln!("repro {command}: --grant-micros needs an integer");
                    return Err(usage(1));
                }
            },
            "--help" | "-h" => return Err(usage(0)),
            spec if !spec.starts_with('-') => submit.specs.push(spec.to_string()),
            unknown => {
                eprintln!("repro {command}: unknown option `{unknown}`");
                return Err(usage(1));
            }
        }
    }
    Ok((serve, submit))
}

/// The `serve`/`submit` service subcommands, dispatched before the
/// experiment-pipeline arg parsing (they accept cell specs as bare
/// arguments, which the pipeline would read as experiment names).
fn run_service(command: &str) -> ExitCode {
    let (serve, submit) = match parse_service_args(command) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let result = match command {
        "serve" => {
            if !submit.specs.is_empty() {
                eprintln!("repro serve: unexpected arguments {:?}", submit.specs);
                return usage(1);
            }
            run_serve(&serve)
        }
        _ => run_submit(&submit),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro {command}: {e}");
            ExitCode::FAILURE
        }
    }
}
