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
use dd_bench::kernel::run_kernel_bench;
use dd_bench::report::{render_duration, splice_section, Artifact, Report};
use dd_bench::serve::{run_serve, run_submit, Endpoint, ServiceOptions};
use dd_bench::trace::{run_trace, TraceSummary, PERFETTO_FILE};

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
         \x20                write BENCH_kernel.json, and fail below its speed floors or\n\
         \x20                above its overhead ceilings (constants in kernel.rs)\n\
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
         \x20                cell-cached; --read-timeout-ms <N>, --capacity-micros <N>,\n\
         \x20                --grant-micros <N> as each client's default grant)\n\
         \x20 submit         submit cell specs (defense:attacker:device:load[:priority])\n\
         \x20                to a server (--socket <S> / --tcp <A>, else in-process,\n\
         \x20                which takes --capacity-micros <N>); --client <C>,\n\
         \x20                --grant-micros <N>, --out <F>, --check-batch,\n\
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
    for command in &opts.commands {
        match command.as_str() {
            "all" => experiments.extend(ExperimentId::ALL),
            "report" | "kernel" | "trace" | "chaos" | "corpus" => {}
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

    match run_commands(&opts, &experiments) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// The experiments, then the report commands in a fixed order: the
/// kernel perf gate, the observed trace, the chaos campaign, the corpus
/// sweep, and last the EXPERIMENTS.md splice. Stops at the first that
/// fails.
fn run_commands(opts: &Options, experiments: &[ExperimentId]) -> Result<(), ExitCode> {
    if !experiments.is_empty() {
        run_experiments(opts, experiments)?;
    }
    let wants = |command: &str| opts.commands.iter().any(|c| c == command);
    let sizing = if opts.smoke { "smoke" } else { "full" };
    if wants("kernel") {
        let banner = format!(
            "[kernel] racing the batched kernel against the per-command reference path \
             ({sizing} sizing; equivalence is asserted before timing)..."
        );
        run_report_command(opts, &banner, || Ok((run_kernel_bench(opts.smoke), None)))?;
    }
    if wants("trace") {
        let banner = format!(
            "[trace] observed run ({sizing} sizing): matrix slice + solo driver run + scripted \
             server session under dd-obs..."
        );
        run_report_command(opts, &banner, || {
            let outcome = run_trace(opts.smoke, opts.jobs)
                .map_err(|e| format!("trace scenario failed: {e:?}"))?;
            Ok((outcome.summary, Some(outcome.perfetto)))
        })?;
    }
    if wants("chaos") {
        let banner = format!(
            "[chaos] fault-injection campaign ({sizing} sizing): executor, kernel, cache, \
             wire, and client faults under seeded dd-chaos plans..."
        );
        run_report_command(opts, &banner, || {
            run_chaos_campaign(opts.smoke)
                .map(|report| (report, None))
                .map_err(|e| format!("chaos campaign harness failed: {e}"))
        })?;
    }
    if wants("corpus") {
        let banner = format!(
            "[corpus] fleet-scale diurnal sweep ({sizing} sizing): one compressed fleet day \
             (load ramp, tenant churn, hot-key shift) through every defense, plus \
             streaming-vs-materialized replay bit-identity..."
        );
        run_report_command(opts, &banner, || {
            run_corpus_campaign(opts.smoke)
                .map(|report| (report, None))
                .map_err(|e| format!("corpus campaign harness failed: {e:?}"))
        })?;
    }
    if wants("report") {
        run_report(opts)?;
    }
    Ok(())
}

fn create_artifacts_dir(opts: &Options) -> Result<(), ExitCode> {
    std::fs::create_dir_all(&opts.artifacts_dir).map_err(|e| {
        eprintln!("repro: cannot create {}: {e}", opts.artifacts_dir.display());
        ExitCode::FAILURE
    })
}

/// Write `report` into the artifacts directory, with a companion file
/// next to it when it has one (an artifact's CSV, a trace's Perfetto
/// timeline); returns the report's path.
fn write_report<R: Report>(
    opts: &Options,
    report: &R,
    companion: Option<(PathBuf, String)>,
) -> Result<PathBuf, ExitCode> {
    let path = opts.artifacts_dir.join(R::file_name(report.name()));
    for (file, text) in [(path.clone(), report.to_json().render_pretty())]
        .into_iter()
        .chain(companion)
    {
        std::fs::write(&file, text).map_err(|e| {
            eprintln!("repro: cannot write {}: {e}", file.display());
            ExitCode::FAILURE
        })?;
    }
    Ok(path)
}

/// One report command: print its banner, run it, write the report (and
/// a trace's Perfetto timeline), and print the report's summary, exiting
/// 1 after the first line that reveals a failure.
fn run_report_command<R: Report>(
    opts: &Options,
    banner: &str,
    run: impl FnOnce() -> Result<(R, Option<String>), String>,
) -> Result<(), ExitCode> {
    create_artifacts_dir(opts)?;
    println!("{banner}");
    let (report, timeline) = run().map_err(|e| {
        eprintln!("repro: {e}");
        ExitCode::FAILURE
    })?;
    let timeline = timeline.map(|text| (opts.artifacts_dir.join(PERFETTO_FILE), text));
    let path = write_report(opts, &report, timeline)?;
    for (line, failures) in report.summary(&path) {
        println!("{line}");
        if !failures.is_empty() {
            for failure in failures {
                eprintln!("repro: {failure}");
            }
            return Err(ExitCode::FAILURE);
        }
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
    create_artifacts_dir(opts)?;
    let cache_path = opts.artifacts_dir.join("cache").join("cells.json");
    let loaded = load_cell_cache(&cache_path).cells;
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
        let json_path = opts.artifacts_dir.join(Artifact::file_name(id.name()));
        if !opts.force {
            if let Some(existing) = load::<Artifact>(&json_path) {
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
        let artifact = id.run(&mut ctx).map_err(|e| {
            eprintln!("repro: {} failed: {e:?}", id.name());
            ExitCode::FAILURE
        })?;
        tally.units += artifact.cache.cells.max(1);
        tally.hits += artifact.cache.cache_hits;
        let csv = (json_path.with_extension("csv"), artifact.to_csv());
        write_report(opts, &artifact, Some(csv))?;
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

fn run_report(opts: &Options) -> Result<(), ExitCode> {
    let Some(docs_path) = locate_experiments_md() else {
        eprintln!("repro: cannot locate EXPERIMENTS.md (run from the repo root)");
        return Err(ExitCode::FAILURE);
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
    let original = std::fs::read_to_string(&docs_path).map_err(|e| {
        eprintln!("repro: cannot read {}: {e}", docs_path.display());
        ExitCode::FAILURE
    })?;
    let mut splice = Splice {
        check: opts.check,
        artifacts_dir: &artifacts_dir,
        docs_path: &docs_path,
        doc: original.clone(),
        spliced: 0,
        stale: 0,
    };
    for id in ExperimentId::ALL {
        splice.section::<Artifact>(id.name())?;
    }
    splice.section::<TraceSummary>("trace")?;
    splice.section::<ChaosCampaignReport>("chaos")?;
    splice.section::<CorpusReport>("corpus")?;
    if splice.spliced == 0 {
        // "Up to date" with nothing verified would be a lie — this is a
        // misconfiguration (wrong directory, no artifacts yet), not a
        // clean result.
        eprintln!(
            "repro: no artifacts found under {} — nothing to render; run `repro all` first \
             (or pass --artifacts-dir)",
            artifacts_dir.display()
        );
        return Err(ExitCode::FAILURE);
    }
    if splice.stale > 0 {
        eprintln!(
            "repro: {} artifact(s) are stale against the current config",
            splice.stale
        );
        return Err(ExitCode::FAILURE);
    }
    if splice.doc == original {
        println!(
            "EXPERIMENTS.md is up to date ({} generated sections match their artifacts)",
            splice.spliced
        );
        return Ok(());
    }
    if opts.check {
        eprintln!(
            "repro: EXPERIMENTS.md is out of date with artifacts/ — run `repro report` \
             and commit the result"
        );
        return Err(ExitCode::FAILURE);
    }
    if let Err(e) = std::fs::write(&docs_path, &splice.doc) {
        eprintln!("repro: cannot write {}: {e}", docs_path.display());
        return Err(ExitCode::FAILURE);
    }
    println!(
        "EXPERIMENTS.md regenerated ({} sections) from {}",
        splice.spliced,
        artifacts_dir.display()
    );
    Ok(())
}

/// EXPERIMENTS.md as `repro report` splices it: the document so far and
/// what went into it.
struct Splice<'a> {
    check: bool,
    artifacts_dir: &'a Path,
    docs_path: &'a Path,
    doc: String,
    spliced: usize,
    stale: usize,
}

impl Splice<'_> {
    /// Re-read the report `name`, count it when `--check` finds it stale,
    /// and splice its section. `repro all` rewrites an experiment's
    /// artifact too.
    fn section<R: Report>(&mut self, name: &str) -> Result<(), ExitCode> {
        let path = self.artifacts_dir.join(R::file_name(name));
        let Some(report) = load::<R>(&path) else {
            if self.check {
                // A section that cannot be re-rendered cannot be verified
                // against its artifact — the drift gate must not pass it.
                eprintln!(
                    "repro: cannot verify `{name}`: {} missing or unreadable — \
                     run `repro {name}`{} and commit artifacts/",
                    path.display(),
                    ExperimentId::parse(name).map_or("", |_| " (or `repro all`)"),
                );
                return Err(ExitCode::FAILURE);
            }
            println!(
                "[report] no artifact for `{name}` ({} missing or unreadable) — section left as-is",
                path.display()
            );
            return Ok(());
        };
        if let Some(why) = report.stale(name, &path).filter(|_| self.check) {
            eprintln!("repro: {why} — run `repro {name}` and commit artifacts/");
            self.stale += 1;
        }
        if let Some(body) = report.section() {
            self.doc = splice_section(&self.doc, name, &body).map_err(|e| {
                eprintln!("repro: {} in {}", e, self.docs_path.display());
                ExitCode::FAILURE
            })?;
            self.spliced += 1;
        }
        Ok(())
    }
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

/// The report at `path`, or `None` when it is missing or does not parse
/// (named on stderr).
fn load<R: Report>(path: &Path) -> Option<R> {
    let text = std::fs::read_to_string(path).ok()?;
    R::parse(&text)
        .map_err(|e| eprintln!("repro: ignoring {}: {e}", path.display()))
        .ok()
}

/// Parse the args of `repro serve` / `repro submit` (the service
/// subcommands take their own options, so they bypass [`parse_args`]).
fn parse_service_args(command: &str) -> Result<ServiceOptions, ExitCode> {
    let mut opts = ServiceOptions {
        artifacts_dir: PathBuf::from("artifacts"),
        endpoint: Endpoint::Stdio,
        read_timeout_ms: None,
        jobs: None,
        capacity_micros: None,
        grant_micros: None,
        quick: false,
        client: "cli".to_string(),
        retries: None,
        retry_seed: None,
        out: None,
        check_batch: false,
        quiet: false,
        specs: Vec::new(),
    };
    let (mut socket, mut tcp) = (None, None);
    let mut args = ServiceArgs {
        command,
        rest: std::env::args().skip(2),
    };
    while let Some(arg) = args.rest.next() {
        // Each command takes only the flags its usage line lists.
        let owner = match arg.as_str() {
            "--read-timeout-ms" => "serve",
            "--client" | "--out" | "--check-batch" | "--retries" | "--retry-seed" => "submit",
            _ => command,
        };
        if owner != command {
            eprintln!("repro {command}: {arg} is a `repro {owner}` option");
            return Err(usage(1));
        }
        match arg.as_str() {
            "--smoke" => opts.quick = true,
            "--quiet" => opts.quiet = true,
            "--check-batch" => opts.check_batch = true,
            "--socket" => socket = Some(args.value(&arg, false)?),
            "--tcp" => tcp = Some(args.value(&arg, false)?),
            "--read-timeout-ms" => opts.read_timeout_ms = Some(args.value(&arg, false)?),
            "--retries" => opts.retries = Some(args.value(&arg, true)?),
            "--retry-seed" => opts.retry_seed = Some(args.value(&arg, false)?),
            "--artifacts-dir" => opts.artifacts_dir = args.value(&arg, false)?,
            "--client" => opts.client = args.value(&arg, false)?,
            "--out" => opts.out = Some(args.value(&arg, false)?),
            "--jobs" => opts.jobs = Some(args.value(&arg, true)?),
            "--capacity-micros" => opts.capacity_micros = Some(args.value(&arg, false)?),
            "--grant-micros" => opts.grant_micros = Some(args.value(&arg, false)?),
            "--help" | "-h" => return Err(usage(0)),
            spec if !spec.starts_with('-') => opts.specs.push(spec.to_string()),
            unknown => {
                eprintln!("repro {command}: unknown option `{unknown}`");
                return Err(usage(1));
            }
        }
    }
    opts.endpoint = match (socket, tcp) {
        (Some(_), Some(_)) => {
            eprintln!("repro {command}: --socket and --tcp are mutually exclusive");
            return Err(ExitCode::FAILURE);
        }
        (Some(path), None) => Endpoint::Unix(path),
        (None, Some(addr)) => Endpoint::Tcp(addr),
        (None, None) => Endpoint::Stdio,
    };
    Ok(opts)
}

/// The arguments of `repro serve` / `repro submit` left to parse.
struct ServiceArgs<'a> {
    command: &'a str,
    rest: std::iter::Skip<std::env::Args>,
}

impl ServiceArgs<'_> {
    /// The value after `flag`, parsed; `positive` refuses 0. A missing or
    /// malformed value names the flag and prints the usage text.
    fn value<T>(&mut self, flag: &str, positive: bool) -> Result<T, ExitCode>
    where
        T: std::str::FromStr + PartialOrd + Default,
    {
        let command = self.command;
        let Some(value) = self.rest.next() else {
            eprintln!("repro {command}: {flag} needs a value");
            return Err(usage(1));
        };
        match value.parse::<T>() {
            Ok(n) if !positive || n > T::default() => return Ok(n),
            _ if positive => eprintln!("repro {command}: {flag} needs a positive integer"),
            _ => eprintln!("repro {command}: {flag} needs an integer"),
        }
        Err(usage(1))
    }
}

/// The `serve`/`submit` service subcommands, dispatched before the
/// experiment-pipeline arg parsing (they accept cell specs as bare
/// arguments, which the pipeline would read as experiment names).
fn run_service(command: &str) -> ExitCode {
    let opts = match parse_service_args(command) {
        Ok(opts) => opts,
        Err(code) => return code,
    };
    let result = match command {
        "serve" => {
            if !opts.specs.is_empty() {
                eprintln!("repro serve: unexpected arguments {:?}", opts.specs);
                return usage(1);
            }
            run_serve(&opts)
        }
        _ => run_submit(&opts),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro {command}: {e}");
            ExitCode::FAILURE
        }
    }
}
