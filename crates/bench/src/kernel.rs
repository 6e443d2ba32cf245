//! The `kernel` perf benchmark: the batched simulation fast path
//! ([`MemoryController::issue_batch`]) raced against the per-command
//! reference path over one fixed seeded trace, with every end state
//! asserted bit-identical before any timing is reported.
//!
//! `repro kernel` runs it and writes `artifacts/BENCH_kernel.json`
//! (schema v6): both paths' commands/sec plus their ratio, the
//! *streaming* replay path — the same trace replayed straight off a v2
//! chunked container through [`StreamingTraceReader`], decode and issue
//! interleaved chunk by chunk, gated as a ratio of the pre-materialized
//! batched path — the `dd-obs` recording overhead — the batched path
//! replayed with the sink enabled, as a percentage over the disabled
//! baseline — and the `dd-chaos` fault-plane overhead, the batched path
//! replayed with an armed-but-inert chaos plan (every
//! `kernel.chunk_stall` probe consulted, nothing ever fires) over the
//! disarmed baseline. The committed artifact carries a `floor`, a
//! `streaming_floor`, an `obs_overhead_ceiling_pct`, and a
//! `chaos_overhead_ceiling_pct`; a rerun whose measured speedup falls
//! below a floor, or whose overhead rises above a ceiling, exits
//! non-zero — the CI perf-regression gate (the floor is deliberately
//! well under the ≥3× target so CI noise cannot flake it). See
//! `docs/perf.md`, `docs/observability.md`, and `docs/resilience.md`
//! for how to read the numbers.

use std::io::Cursor;
use std::time::Instant;

use dd_dram::{DecodedBatch, DramConfig, DramError, GlobalRowId, MemoryController};
use dd_workload::{
    all_data_rows, batch_op_kind, encode_v2, StreamingScan, StreamingTraceReader,
    WorkloadGenerator, WorkloadOp, ZipfianServing,
};
use dnn_defender::{Json, JsonError};

/// Schema version of `BENCH_kernel.json`.
pub const KERNEL_BENCH_SCHEMA_VERSION: u64 = 6;

/// Default speedup floor when no committed artifact provides one: the
/// regression gate trips below this batch/reference ratio. Generously
/// below the ≥3× target so shared-CI timing noise cannot flake the gate.
pub const KERNEL_SPEEDUP_FLOOR: f64 = 2.0;

/// Default floor on streaming-replay throughput as a fraction of the
/// pre-materialized batched path. Streaming interleaves chunk decode
/// (varint deltas included) with issue, so it cannot beat the
/// decoded-in-RAM path — but the decode is amortized per 512-op chunk
/// and in practice costs a few percent. 0.5 catches a chunked-decode
/// regression (an accidental per-op seek, quadratic buffer growth)
/// without letting shared-CI noise flake the gate.
pub const STREAMING_RATIO_FLOOR: f64 = 0.5;

/// Default ceiling on the `dd-obs` recording overhead, in percent over
/// the disabled baseline on the batched path. The probes are
/// amortized per chunk (never per command), so real overhead is one
/// span per ~10 µs chunk, 1–2%; 3% leaves room for shared-CI timing
/// noise without letting a per-op probe regression slip through.
pub const OBS_OVERHEAD_CEILING_PCT: f64 = 3.0;

/// Default ceiling on the `dd-chaos` fault-plane overhead, in percent
/// over the disarmed baseline on the batched path. The measured
/// configuration is the *worst* benign case — a plan armed for the
/// whole replay so every `kernel.chunk_stall` probe pays the full
/// hash-and-lookup check (the disarmed path is a single relaxed atomic
/// load and costs strictly less). The probes are per chunk, never per
/// command, so real overhead sits well under 1%; 3% absorbs shared-CI
/// timing noise while still catching an accidental per-op probe.
pub const CHAOS_OVERHEAD_CEILING_PCT: f64 = 3.0;

/// Sizing of one kernel benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct KernelParams {
    /// Ops in the fixed seeded trace.
    pub ops: usize,
    /// Activations each op stands for (the workload intensity model).
    pub batch_factor: u64,
    /// Trace seed.
    pub seed: u64,
    /// Ops per [`DecodedBatch`] chunk on the batched path.
    pub chunk: usize,
    /// Timed repetitions per path (best run wins, to shed scheduler
    /// noise).
    pub rounds: usize,
}

impl KernelParams {
    /// Quick (smoke) or full sizing.
    pub fn new(quick: bool) -> Self {
        KernelParams {
            ops: if quick { 120_000 } else { 600_000 },
            batch_factor: 16,
            seed: 20240606,
            chunk: 512,
            rounds: if quick { 2 } else { 3 },
        }
    }
}

/// One path's timing: wall time and throughput over the shared trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathMeasure {
    /// Best wall time across the rounds, in milliseconds.
    pub wall_millis: u64,
    /// DRAM commands the trace issues (identical for both paths).
    pub commands: u64,
    /// Commands per wall second at the best round.
    pub commands_per_sec: f64,
}

impl PathMeasure {
    fn to_json(self) -> Json {
        Json::obj()
            .with("wall_millis", Json::uint(self.wall_millis))
            .with("commands", Json::uint(self.commands))
            .with("commands_per_sec", Json::num(self.commands_per_sec))
    }

    fn from_json(value: &Json) -> Result<PathMeasure, JsonError> {
        Ok(PathMeasure {
            wall_millis: value.field_u64("wall_millis")?,
            commands: value.field_u64("commands")?,
            commands_per_sec: value.field_f64("commands_per_sec")?,
        })
    }
}

/// The `BENCH_kernel.json` payload: both paths and their ratio, the
/// streaming replay and its ratio, the overhead measurements, and the
/// committed regression floors and ceilings.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelBench {
    /// Schema version ([`KERNEL_BENCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Always `"kernel"`.
    pub experiment: String,
    /// Whether the run used smoke sizing.
    pub quick: bool,
    /// Ops in the measured trace.
    pub trace_ops: u64,
    /// Activations per op.
    pub batch_factor: u64,
    /// Trace seed.
    pub seed: u64,
    /// The per-command reference path.
    pub reference: PathMeasure,
    /// The batched fast path.
    pub batch: PathMeasure,
    /// `batch.commands_per_sec / reference.commands_per_sec`.
    pub speedup: f64,
    /// The regression gate: a rerun measuring below this fails.
    pub floor: f64,
    /// The streaming replay path: the same trace replayed straight off
    /// a v2 chunked container, decode interleaved with issue.
    pub streaming: PathMeasure,
    /// `streaming.commands_per_sec / batch.commands_per_sec` — what
    /// chunk-by-chunk decode costs relative to decoded-in-RAM replay.
    pub streaming_ratio: f64,
    /// The streaming regression gate: a rerun whose ratio falls below
    /// this fails ([`STREAMING_RATIO_FLOOR`] when no artifact provides
    /// one).
    pub streaming_floor: f64,
    /// Recording overhead on the batched path: the median over
    /// alternating enabled/disabled run pairs of the enabled-over-
    /// disabled wall-time ratio, in percent (negative = noise).
    pub obs_overhead_batch_pct: f64,
    /// The overhead gate: a rerun measuring above this fails
    /// ([`OBS_OVERHEAD_CEILING_PCT`] when no artifact provides one).
    pub obs_overhead_ceiling_pct: f64,
    /// Fault-plane overhead on the batched path: armed-but-inert chaos
    /// plan over the disarmed baseline, same paired-median estimator as
    /// the `dd-obs` measurement (negative = noise).
    pub chaos_overhead_batch_pct: f64,
    /// The fault-plane overhead gate ([`CHAOS_OVERHEAD_CEILING_PCT`]
    /// when no artifact provides one).
    pub chaos_overhead_ceiling_pct: f64,
}

impl KernelBench {
    /// Serialize.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("schema_version", Json::uint(self.schema_version))
            .with("experiment", Json::str(&self.experiment))
            .with("quick", Json::Bool(self.quick))
            .with("trace_ops", Json::uint(self.trace_ops))
            .with("batch_factor", Json::uint(self.batch_factor))
            .with("seed", Json::uint(self.seed))
            .with("reference", self.reference.to_json())
            .with("batch", self.batch.to_json())
            .with("speedup", Json::num(self.speedup))
            .with("floor", Json::num(self.floor))
            .with("streaming", self.streaming.to_json())
            .with("streaming_ratio", Json::num(self.streaming_ratio))
            .with("streaming_floor", Json::num(self.streaming_floor))
            .with(
                "obs_overhead_batch_pct",
                Json::num(self.obs_overhead_batch_pct),
            )
            .with(
                "obs_overhead_ceiling_pct",
                Json::num(self.obs_overhead_ceiling_pct),
            )
            .with(
                "chaos_overhead_batch_pct",
                Json::num(self.chaos_overhead_batch_pct),
            )
            .with(
                "chaos_overhead_ceiling_pct",
                Json::num(self.chaos_overhead_ceiling_pct),
            )
    }

    /// Parse a `BENCH_kernel.json` document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed JSON, a missing/mistyped
    /// field, or an unsupported schema version.
    pub fn parse(text: &str) -> Result<KernelBench, JsonError> {
        let json = Json::parse(text)?;
        let schema_version = json.field_u64("schema_version")?;
        if schema_version != KERNEL_BENCH_SCHEMA_VERSION {
            return Err(JsonError {
                message: format!(
                    "unsupported BENCH_kernel schema v{schema_version} \
                     (this build reads v{KERNEL_BENCH_SCHEMA_VERSION})"
                ),
            });
        }
        Ok(KernelBench {
            schema_version,
            experiment: json.field_str("experiment")?.to_string(),
            quick: json.field_bool("quick")?,
            trace_ops: json.field_u64("trace_ops")?,
            batch_factor: json.field_u64("batch_factor")?,
            seed: json.field_u64("seed")?,
            reference: PathMeasure::from_json(json.field("reference")?)?,
            batch: PathMeasure::from_json(json.field("batch")?)?,
            speedup: json.field_f64("speedup")?,
            floor: json.field_f64("floor")?,
            streaming: PathMeasure::from_json(json.field("streaming")?)?,
            streaming_ratio: json.field_f64("streaming_ratio")?,
            streaming_floor: json.field_f64("streaming_floor")?,
            obs_overhead_batch_pct: json.field_f64("obs_overhead_batch_pct")?,
            obs_overhead_ceiling_pct: json.field_f64("obs_overhead_ceiling_pct")?,
            chaos_overhead_batch_pct: json.field_f64("chaos_overhead_batch_pct")?,
            chaos_overhead_ceiling_pct: json.field_f64("chaos_overhead_ceiling_pct")?,
        })
    }
}

/// The fixed seeded trace both paths replay: zipfian serving reads over
/// a 64-row hot set with a streaming write scan mixed in — the same
/// recipe shape the background-load axis drives, deterministic per
/// `(ops, seed)`.
pub fn kernel_trace(config: &DramConfig, ops: usize, seed: u64) -> Vec<WorkloadOp> {
    let rows = all_data_rows(config);
    let hot: Vec<GlobalRowId> = rows
        .iter()
        .copied()
        .step_by((rows.len() / 64).max(1))
        .take(64)
        .collect();
    let mut zipf = ZipfianServing::new(hot, 1.0, seed);
    let mut scan = StreamingScan::new(rows, 16);
    (0..ops)
        .map(|i| {
            if i % 4 == 3 {
                scan.next_op()
            } else {
                zipf.next_op()
            }
        })
        .collect()
}

fn device(config: &DramConfig) -> MemoryController {
    MemoryController::try_new(config.clone()).expect("preset config is valid")
}

fn total_commands(mem: &MemoryController) -> u64 {
    let s = mem.stats();
    s.acts + s.pres + s.reads + s.writes + s.refreshes + s.row_clones
}

/// Replay the trace in `chunk`-sized pieces, each issued by `issue`:
/// [`MemoryController::issue_batch`] (the batched kernel) or
/// [`MemoryController::issue_batch_reference`] (the per-command
/// reference).
fn replay(
    config: &DramConfig,
    ops: &[WorkloadOp],
    batch_factor: u64,
    chunk: usize,
    issue: fn(&mut MemoryController, &mut DecodedBatch) -> Result<(), DramError>,
) -> MemoryController {
    let mut mem = device(config);
    let mut kernel = DecodedBatch::new(config);
    for piece in ops.chunks(chunk.max(1)) {
        for &op in piece {
            kernel
                .push(op.row, batch_op_kind(op), batch_factor - 1, None)
                .expect("trace rows are valid");
        }
        issue(&mut mem, &mut kernel).expect("matching geometry");
    }
    mem
}

/// Replay a v2 chunked container through the batched kernel without
/// ever materializing the full trace: [`StreamingTraceReader`] yields
/// one batch-boundary-sized chunk at a time (delta decode included),
/// each pushed into the [`DecodedBatch`] and issued before the next
/// chunk is read. This is the resident server's replay shape — a fleet
/// trace far larger than RAM costs one chunk of memory.
fn run_streaming(config: &DramConfig, bytes: &[u8], batch_factor: u64) -> MemoryController {
    let mut mem = device(config);
    let mut kernel = DecodedBatch::new(config);
    let mut reader =
        StreamingTraceReader::open(Cursor::new(bytes)).expect("bench container is valid");
    let mut chunk = Vec::new();
    while reader
        .next_chunk(&mut chunk)
        .expect("bench container is valid")
    {
        for &op in &chunk {
            kernel
                .push(op.row, batch_op_kind(op), batch_factor - 1, None)
                .expect("trace rows are valid");
        }
        mem.issue_batch(&mut kernel).expect("matching geometry");
    }
    mem
}

/// Assert the two paths produced the identical device end state — the
/// benchmark refuses to report a speedup for a kernel that diverged.
fn assert_equivalent(fast: &MemoryController, reference: &MemoryController, trace: &[WorkloadOp]) {
    assert_eq!(fast.now(), reference.now(), "kernel clock diverged");
    assert_eq!(fast.stats(), reference.stats(), "kernel stats diverged");
    for kind in [
        dd_dram::CommandKind::Act,
        dd_dram::CommandKind::Pre,
        dd_dram::CommandKind::Rd,
        dd_dram::CommandKind::Wr,
    ] {
        assert_eq!(
            fast.trace().issued_of(kind),
            reference.trace().issued_of(kind),
            "kernel issue counters diverged for {kind:?}"
        );
    }
    for op in trace {
        assert_eq!(
            fast.disturbance(op.row),
            reference.disturbance(op.row),
            "kernel disturbance diverged at {:?}",
            op.row
        );
    }
}

/// Run the benchmark: time both paths and the streaming-container
/// replay over the shared trace (best of [`KernelParams::rounds`]),
/// verify equivalence, replay the batched path with `dd-obs` recording
/// enabled to measure the instrumentation overhead, replay it again
/// with an armed-but-inert `dd-chaos` plan to measure the fault-plane
/// overhead, and assemble the artifact with the given regression floors
/// and overhead ceilings.
pub fn run_kernel_bench(
    quick: bool,
    floor: f64,
    streaming_floor: f64,
    obs_ceiling: f64,
    chaos_ceiling: f64,
) -> KernelBench {
    let p = KernelParams::new(quick);
    let config = DramConfig::lpddr4_small();
    let trace = kernel_trace(&config, p.ops, p.seed);
    let reference = MemoryController::issue_batch_reference;
    let batched = MemoryController::issue_batch;

    // Warm-up + equivalence check (untimed): batched vs per-command
    // reference.
    let warm_fast = replay(&config, &trace, p.batch_factor, p.chunk, batched);
    let warm_ref = replay(&config, &trace, p.batch_factor, p.chunk, reference);
    assert_equivalent(&warm_fast, &warm_ref, &trace);
    let commands = total_commands(&warm_ref);

    // The streaming path replays the same trace off its v2 delta
    // container; the container's 512-op chunks coincide with the
    // batched path's chunking, so the end states must be bit-identical.
    let container = encode_v2(&trace, true);
    let warm_streaming = run_streaming(&config, &container, p.batch_factor);
    assert_equivalent(&warm_streaming, &warm_ref, &trace);

    let mut best_ref = u128::MAX;
    let mut best_fast = u128::MAX;
    let mut best_streaming = u128::MAX;
    for _ in 0..p.rounds.max(1) {
        let started = Instant::now();
        let mem = replay(&config, &trace, p.batch_factor, p.chunk, reference);
        best_ref = best_ref.min(started.elapsed().as_micros().max(1));
        std::hint::black_box(mem.stats());

        let started = Instant::now();
        let mem = replay(&config, &trace, p.batch_factor, p.chunk, batched);
        best_fast = best_fast.min(started.elapsed().as_micros().max(1));
        std::hint::black_box(mem.stats());

        let started = Instant::now();
        let mem = run_streaming(&config, &container, p.batch_factor);
        best_streaming = best_streaming.min(started.elapsed().as_micros().max(1));
        std::hint::black_box(mem.stats());
    }

    // Overhead measurement: the same timed batched path with the
    // recording sink enabled, paired with disabled-sink twins in the
    // same loop so both sides see near-identical cache and frequency
    // conditions (comparing against `best_fast` from the speedup loop
    // above would bias the ratio — the machine is warmer here and the
    // reference replays no longer thrash the cache between rounds).
    // Each enabled run holds an exclusive session — concurrent tests
    // can't race the global flag — and rings are drained untimed at
    // finish, so a long bench never hits ring overflow and every round
    // pays the same per-chunk recording cost the real experiments would.
    let mut fast_ratios = Vec::new();
    let mut chaos_fast_ratios = Vec::new();
    // One smoke replay is preemption-slice sized (~10ms — one scheduler
    // slice can eat 30% of a sample), so each timed sample aggregates
    // enough back-to-back replays to span ~25ms: long enough to average
    // over slice-scale spikes, short enough that a pair of samples
    // (~50ms) stays inside one stretch of the ~100ms machine drift.
    // Sized from the plain best-of-rounds above so smoke and full
    // sizing get the same statistical treatment.
    let target_sample_micros: u128 = 25_000;
    let reps_fast = (target_sample_micros / best_fast).clamp(1, 16) as usize;
    let time_fast = |enabled: bool| {
        let session = enabled.then(dd_obs::session);
        let started = Instant::now();
        for _ in 0..reps_fast {
            let mem = replay(&config, &trace, p.batch_factor, p.chunk, batched);
            std::hint::black_box(mem.stats());
        }
        let micros = started.elapsed().as_micros().max(1);
        if let Some(session) = session {
            let _ = session.finish();
        }
        micros
    };
    // The fault-plane twin: the same timed batched path with a chaos
    // plan armed for the whole sample. The plan is *inert* — it names no
    // rules, so no fault ever fires and the replay stays bit-identical —
    // but arming it forces every `kernel.chunk_stall` probe down the
    // armed slow path (site hash + rule lookup + check counting), which
    // strictly upper-bounds what the disarmed single-atomic-load check
    // can cost.
    let time_fast_chaos = |armed: bool| {
        let session = armed.then(|| dd_chaos::arm(dd_chaos::ChaosPlan::inert(p.seed)));
        let started = Instant::now();
        for _ in 0..reps_fast {
            let mem = replay(&config, &trace, p.batch_factor, p.chunk, batched);
            std::hint::black_box(mem.stats());
        }
        let micros = started.elapsed().as_micros().max(1);
        if let Some(session) = session {
            let _ = session.finish();
        }
        micros
    };
    // The gated statistic is the median of per-pair ratios, not a ratio
    // of global bests: adjacent samples in a pair share frequency and
    // allocator state (drift cancels inside each ratio), the order
    // alternates each round so neither side systematically runs second,
    // and the median discards the outlier pairs a shared machine
    // inevitably produces.
    let collect_pairs = |pairs: usize, timer: &dyn Fn(bool) -> u128, ratios: &mut Vec<f64>| {
        for round in 0..pairs {
            let on_first = round.is_multiple_of(2);
            let (first, second) = (timer(on_first), timer(!on_first));
            let (on, plain) = if on_first {
                (first, second)
            } else {
                (second, first)
            };
            ratios.push(on as f64 / plain as f64);
        }
    };
    let median = |ratios: &[f64]| {
        let mut sorted = ratios.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        if sorted.len().is_multiple_of(2) {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        } else {
            sorted[mid]
        }
    };
    let overhead_pct = |ratio: f64| ((ratio - 1.0) * 10_000.0).round() / 100.0;
    collect_pairs(24, &time_fast, &mut fast_ratios);
    // Adaptive confirmation: the true recording cost is 1–2%, so a
    // first-round median near the ceiling is far more likely an
    // unlucky stretch of machine noise than a regression.
    // Pool three times the pairs before believing it — a real per-op
    // probe regression (the failure mode this gate exists for) is a
    // 10x-100x slowdown and survives any amount of pooling.
    if overhead_pct(median(&fast_ratios)) > obs_ceiling / 2.0 {
        collect_pairs(72, &time_fast, &mut fast_ratios);
    }
    collect_pairs(24, &time_fast_chaos, &mut chaos_fast_ratios);
    if overhead_pct(median(&chaos_fast_ratios)) > chaos_ceiling / 2.0 {
        collect_pairs(72, &time_fast_chaos, &mut chaos_fast_ratios);
    }
    if std::env::var_os("DD_KERNEL_DEBUG").is_some() {
        eprintln!("fast_ratios: {fast_ratios:.4?}");
        eprintln!("chaos_fast_ratios: {chaos_fast_ratios:.4?}");
    }

    let cps = |total: u64, micros: u128| total as f64 / (micros as f64 / 1e6);
    let measure = |total: u64, micros: u128| PathMeasure {
        wall_millis: (micros / 1000) as u64,
        commands: total,
        commands_per_sec: cps(total, micros).round(),
    };
    let ratio = |slow: u128, fast: u128| (slow as f64 / fast as f64 * 100.0).round() / 100.0;
    KernelBench {
        schema_version: KERNEL_BENCH_SCHEMA_VERSION,
        experiment: "kernel".to_string(),
        quick,
        trace_ops: p.ops as u64,
        batch_factor: p.batch_factor,
        seed: p.seed,
        reference: measure(commands, best_ref),
        batch: measure(commands, best_fast),
        speedup: ratio(best_ref, best_fast),
        floor,
        streaming: measure(commands, best_streaming),
        streaming_ratio: ratio(best_fast, best_streaming),
        streaming_floor,
        obs_overhead_batch_pct: overhead_pct(median(&fast_ratios)),
        obs_overhead_ceiling_pct: obs_ceiling,
        chaos_overhead_batch_pct: overhead_pct(median(&chaos_fast_ratios)),
        chaos_overhead_ceiling_pct: chaos_ceiling,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_workload::OpKind;

    #[test]
    fn kernel_trace_is_deterministic() {
        let config = DramConfig::lpddr4_small();
        let a = kernel_trace(&config, 500, 7);
        let b = kernel_trace(&config, 500, 7);
        assert_eq!(a, b);
        let c = kernel_trace(&config, 500, 8);
        assert_ne!(a, c, "seed must matter");
        assert!(a.iter().any(|op| op.kind == OpKind::Write));
    }

    #[test]
    fn bench_paths_agree_on_small_traces() {
        let config = DramConfig::lpddr4_small();
        let trace = kernel_trace(&config, 2_000, 11);
        let fast = replay(&config, &trace, 16, 128, MemoryController::issue_batch);
        let reference = replay(
            &config,
            &trace,
            16,
            128,
            MemoryController::issue_batch_reference,
        );
        assert_equivalent(&fast, &reference, &trace);
        assert!(total_commands(&reference) > 2_000);
    }

    #[test]
    fn streaming_path_agrees_with_batched() {
        let config = DramConfig::lpddr4_small();
        let trace = kernel_trace(&config, 1_300, 17);
        let container = encode_v2(&trace, true);
        let streaming = run_streaming(&config, &container, 16);
        let batched = replay(&config, &trace, 16, 512, MemoryController::issue_batch);
        assert_equivalent(&streaming, &batched, &trace);
    }

    fn sample_bench() -> KernelBench {
        KernelBench {
            schema_version: KERNEL_BENCH_SCHEMA_VERSION,
            experiment: "kernel".into(),
            quick: true,
            trace_ops: 120_000,
            batch_factor: 16,
            seed: 20240606,
            reference: PathMeasure {
                wall_millis: 250,
                commands: 3_960_000,
                commands_per_sec: 15_840_000.0,
            },
            batch: PathMeasure {
                wall_millis: 50,
                commands: 3_960_000,
                commands_per_sec: 79_200_000.0,
            },
            speedup: 5.0,
            floor: KERNEL_SPEEDUP_FLOOR,
            streaming: PathMeasure {
                wall_millis: 55,
                commands: 3_960_000,
                commands_per_sec: 72_000_000.0,
            },
            streaming_ratio: 0.91,
            streaming_floor: STREAMING_RATIO_FLOOR,
            obs_overhead_batch_pct: 0.4,
            obs_overhead_ceiling_pct: OBS_OVERHEAD_CEILING_PCT,
            chaos_overhead_batch_pct: 0.2,
            chaos_overhead_ceiling_pct: CHAOS_OVERHEAD_CEILING_PCT,
        }
    }

    #[test]
    fn kernel_bench_json_round_trips() {
        let bench = sample_bench();
        let text = bench.to_json().render_pretty();
        let back = KernelBench::parse(&text).expect("parse back");
        assert_eq!(back, bench);
        // Stable across render/parse cycles (the `--check` property).
        assert_eq!(back.to_json().render_pretty(), text);
    }

    #[test]
    fn parse_rejects_foreign_schema() {
        let mut bad = sample_bench();
        bad.schema_version = 99;
        assert!(KernelBench::parse(&bad.to_json().render_pretty()).is_err());
    }
}
