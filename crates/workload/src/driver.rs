//! The event-driven workload driver.
//!
//! [`BenignTraffic`] merges one or more generator streams on the
//! simulated clock (a min-heap of per-stream next-fire times, rates
//! proportional to stream weights) and issues the ops through the
//! [`MemoryController`]'s batched kernel, giving the installed
//! [`DefenseMechanism`] its command-stream tap
//! ([`DefenseMechanism::observe_activation`]) after every op.
//! [`run_workload`] layers the attack on top: a benign-only measurement
//! phase (any defensive operation fired there is a *false positive* —
//! nothing was under attack) followed by attacked windows in which one
//! [`DefenseMechanism::filter_flip`] campaign races the defense mid-window
//! while benign traffic keeps flowing around it.
//!
//! Intensity scaling: generators emit a *thinned sample* of the nominal
//! stream — each sampled op stands for `batch` real accesses of its row
//! (one data-moving command plus `batch − 1` extra activations), so
//! disturbance accumulation and counter pressure match the nominal rate
//! without simulating every command. See `docs/workloads.md`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dd_dram::{
    DecodedBatch, DramConfig, DramError, MemoryController, Nanos, TraceMode, BATCH_CHUNK_OPS,
};
use dd_qnn::BitAddr;
use dnn_defender::defense::{CampaignView, DefenseMechanism, DefenseStats};
use dnn_defender::WeightMap;

use crate::generator::{batch_op_kind, BackgroundLoad, OpKind, WorkloadGenerator, WorkloadOp};
use crate::rows::{RowSet, Rows};

/// Ops per [`dd_dram::DecodedBatch`] chunk, unless the installed
/// defense's online tap or a [`TraceMode::Full`] device asks for one op
/// per flush. This is the shared [`dd_dram::BATCH_CHUNK_OPS`] boundary,
/// which the v2 trace container also frames its chunks to — one
/// streamed chunk, one batch.
const BATCH_CHUNK: usize = BATCH_CHUNK_OPS;

/// The event-driven merge schedule over the traffic's streams: a min-heap
/// of per-stream next-fire times with rates proportional to stream
/// weights.
struct StreamSchedule {
    heap: BinaryHeap<Reverse<(u128, usize)>>,
    span: u128,
    ops: u64,
    total_weight: u64,
}

impl StreamSchedule {
    fn new(
        streams: &[(Box<dyn WorkloadGenerator>, u32)],
        start: Nanos,
        span: Nanos,
        ops: u64,
    ) -> Self {
        let total_weight: u64 = streams.iter().map(|(_, w)| u64::from(*w)).sum();
        // Per-stream periods from weight shares; the heap merges the
        // streams into one time-ordered command sequence.
        let mut heap: BinaryHeap<Reverse<(u128, usize)>> = BinaryHeap::new();
        for (i, (_, weight)) in streams.iter().enumerate() {
            let stream_ops = (ops * u64::from(*weight)) / total_weight;
            if stream_ops == 0 {
                continue;
            }
            let period = (span.0 / u128::from(stream_ops)).max(1);
            heap.push(Reverse((start.0 + period / 2 + i as u128, i)));
        }
        if heap.is_empty() {
            heap.push(Reverse((start.0 + 1, 0)));
        }
        StreamSchedule {
            heap,
            span: span.0,
            ops,
            total_weight,
        }
    }

    fn pop(&mut self) -> (u128, usize) {
        let Reverse(next) = self.heap.pop().expect("non-empty event heap");
        next
    }

    fn reschedule(&mut self, at: u128, idx: usize, weight: u64) {
        let stream_ops = ((self.ops * weight) / self.total_weight).max(1);
        let period = (self.span / u128::from(stream_ops)).max(1);
        self.heap.push(Reverse((at + period, idx)));
    }
}

/// Traffic issued by one [`BenignTraffic::drive_span`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTraffic {
    /// Benign ops executed (each one data-moving command).
    pub ops: u64,
    /// Modeled row activations including the batch factor.
    pub activations: u64,
    /// Payload bytes moved by reads and writes.
    pub bytes: u64,
}

impl SpanTraffic {
    fn absorb(&mut self, other: SpanTraffic) {
        self.ops += other.ops;
        self.activations += other.activations;
        self.bytes += other.bytes;
    }
}

/// A merged set of benign workload streams bound to a device geometry.
pub struct BenignTraffic {
    streams: Vec<(Box<dyn WorkloadGenerator>, u32)>,
    label: String,
    ops_per_window: u64,
    batch: u64,
    universe: RowSet,
    row_bytes: u64,
    recorded: Option<Vec<WorkloadOp>>,
    /// The batched kernel's decoded-op/dense-counter scratch, built
    /// lazily for the first device driven and reused across chunks.
    kernel: Option<DecodedBatch>,
}

impl BenignTraffic {
    /// Assemble traffic from explicit `(stream, weight)` pairs.
    ///
    /// `universe` is the set of rows the traffic may touch — the
    /// disturbance-measurement scan runs over it. `batch` is the
    /// activations-per-op intensity factor (min 1).
    pub fn new(
        streams: Vec<(Box<dyn WorkloadGenerator>, u32)>,
        label: impl Into<String>,
        ops_per_window: u64,
        batch: u64,
        universe: RowSet,
        config: &DramConfig,
    ) -> Self {
        BenignTraffic {
            streams,
            label: label.into(),
            ops_per_window,
            batch: batch.max(1),
            universe,
            row_bytes: config.row_bytes as u64,
            recorded: None,
            kernel: None,
        }
    }

    /// Assemble the canonical traffic for a [`BackgroundLoad`] level.
    /// Returns `None` for [`BackgroundLoad::None`]. `hot` is the serving
    /// working set (weight rows); `cold` rows absorb scans and writes.
    /// The universe is both.
    ///
    /// # Panics
    ///
    /// Panics when `hot` or `cold` were listed for another geometry than
    /// `config`'s.
    pub fn for_load(
        load: BackgroundLoad,
        seed: u64,
        config: &DramConfig,
        hot: &Rows,
        cold: &Rows,
    ) -> Option<Self> {
        let streams = load.build_streams(seed, config, hot, cold);
        if streams.is_empty() {
            return None;
        }
        let mut universe = RowSet::new(config);
        universe.insert_rows(hot);
        universe.insert_rows(cold);
        Some(BenignTraffic::new(
            streams,
            load.label(),
            load.ops_per_window(),
            load.batch(),
            universe,
            config,
        ))
    }

    /// Replay a recorded op stream at the given rate and intensity. The
    /// universe is every row the stream names.
    pub fn from_trace(
        ops: Vec<WorkloadOp>,
        ops_per_window: u64,
        batch: u64,
        config: &DramConfig,
    ) -> Self {
        let universe = RowSet::of(config, ops.iter().map(|op| op.row));
        BenignTraffic::new(
            vec![(
                Box::new(crate::trace::TraceReplay::new(ops)) as Box<dyn WorkloadGenerator>,
                1,
            )],
            "trace-replay",
            ops_per_window,
            batch,
            universe,
            config,
        )
    }

    /// Replay a trace container *without materializing it*: the
    /// [`crate::trace::StreamingReplay`] holds at most one chunk
    /// ([`dd_dram::BATCH_CHUNK_OPS`] ops) in memory and cycles like
    /// [`crate::trace::TraceReplay`]. The benign-row universe is the
    /// trace's row set, collected on `config`'s geometry during the
    /// replay's validating open pass — identical to what
    /// [`Self::from_trace`] derives from the materialized ops, so the two
    /// constructions produce bit-identical runs over the same trace.
    pub fn from_streaming<Rd>(
        replay: crate::trace::StreamingReplay<Rd>,
        ops_per_window: u64,
        batch: u64,
        config: &DramConfig,
    ) -> Self
    where
        Rd: std::io::Read + std::io::Seek + Send + 'static,
    {
        let universe = replay.rows().clone();
        BenignTraffic::new(
            vec![(Box::new(replay) as Box<dyn WorkloadGenerator>, 1)],
            "trace-replay",
            ops_per_window,
            batch,
            universe,
            config,
        )
    }

    /// Start (or stop) capturing every executed op, for
    /// [`crate::trace::encode`] to write as a trace container.
    pub fn set_recording(&mut self, on: bool) {
        self.recorded = if on { Some(Vec::new()) } else { None };
    }

    /// Take the ops captured since recording started and *stop*
    /// recording (call [`BenignTraffic::set_recording`] again for
    /// another capture). Returns an empty vector when recording was
    /// never on.
    pub fn take_recorded(&mut self) -> Vec<WorkloadOp> {
        self.recorded.take().unwrap_or_default()
    }

    /// The mix label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Benign ops per refresh window at this intensity.
    pub fn ops_per_window(&self) -> u64 {
        self.ops_per_window
    }

    /// Activations each sampled op stands for.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// The rows this traffic may touch (the disturbance-scan universe).
    pub fn universe(&self) -> &RowSet {
        &self.universe
    }

    /// Execute `ops` benign operations merged across the streams,
    /// event-driven over `[mem.now(), span_end)`, observing `defense`
    /// after every op. Idle gaps advance the simulated clock; on return
    /// the clock sits at `span_end`.
    ///
    /// Ops are decoded into the kernel chunk as the schedule emits them,
    /// with the simulated clock tracked locally (every op's cost is
    /// deterministic), and each chunk executes in one
    /// [`MemoryController::issue_batch`] call before the deferred
    /// [`DefenseMechanism::observe_activation`] calls run in op order.
    /// A chunk holds one op when the defense has an online tap (the tap
    /// must see the device exactly as the per-command path would show
    /// it) or when the device is the per-command reference
    /// ([`TraceMode::Full`]), and [`BATCH_CHUNK_OPS`] ops otherwise.
    ///
    /// # Errors
    ///
    /// Propagates [`DramError`] from device or defense operations.
    pub fn drive_span(
        &mut self,
        mem: &mut MemoryController,
        defense: &mut dyn DefenseMechanism,
        mut map: Option<&mut WeightMap>,
        span_end: Nanos,
        ops: u64,
    ) -> Result<SpanTraffic, DramError> {
        let mut traffic = SpanTraffic::default();
        let start = mem.now();
        if self.streams.is_empty() || ops == 0 || span_end <= start {
            if span_end > mem.now() {
                mem.advance(span_end - mem.now());
            }
            return Ok(traffic);
        }
        let mut sched = StreamSchedule::new(&self.streams, start, span_end - start, ops);
        let per_op = defense.has_online_tap() || mem.trace_mode() == TraceMode::Full;
        let chunk_cap = if per_op { 1 } else { BATCH_CHUNK };
        if self
            .kernel
            .as_ref()
            .is_none_or(|k| !k.matches(mem.config()))
        {
            self.kernel = Some(DecodedBatch::new(mem.config()));
        }
        let mut kernel = self.kernel.take().expect("kernel installed above");
        let t = mem.config().timing;
        let extra = self.batch - 1;
        let hammer_cost = t.t_act.0 * u128::from(extra);
        let read_cost = t.t_act.0 + t.t_rd.0 + t.t_pre.0 + hammer_cost;
        let write_cost = t.t_act.0 + t.t_wr.0 + t.t_pre.0 + hammer_cost;
        let mut pending: Vec<WorkloadOp> = Vec::with_capacity(chunk_cap);
        let mut vnow = mem.now().0;
        let mut failed: Option<DramError> = None;

        // Per-chunk decode spans, re-armed after every flush. Per-op
        // flushing makes a decode span a per-op span — exactly what the
        // overhead contract forbids; those runs go unobserved and are
        // attributed at the matrix layer instead.
        dd_obs::add("driver.ops", ops);
        let mut decode_span = (!per_op && dd_obs::enabled()).then(|| dd_obs::span("chunk.decode"));

        for _ in 0..ops {
            let (at, idx) = sched.pop();
            let advance_to = if at > vnow && at < span_end.0 {
                vnow = at;
                Some(Nanos(at))
            } else {
                None
            };
            let op = self.streams[idx].0.next_op();
            if let Err(e) = kernel.push(op.row, batch_op_kind(op), extra, advance_to) {
                // Everything before the invalid op executes (flushed
                // below), the error then propagates.
                failed = Some(e);
                break;
            }
            vnow += match op.kind {
                OpKind::Read => read_cost,
                OpKind::Write => write_cost,
            };
            pending.push(op);
            sched.reschedule(at, idx, u64::from(self.streams[idx].1));
            if pending.len() >= chunk_cap {
                drop(decode_span.take());
                if let Err(e) = self.flush_chunk(
                    mem,
                    defense,
                    &mut map,
                    &mut kernel,
                    &mut pending,
                    &mut traffic,
                ) {
                    failed = Some(e);
                    break;
                }
                debug_assert!(
                    per_op || mem.now().0 == vnow,
                    "batched clock prediction diverged"
                );
                vnow = mem.now().0;
                decode_span = (!per_op && dd_obs::enabled()).then(|| dd_obs::span("chunk.decode"));
            }
        }
        drop(decode_span.take());
        let last = self.flush_chunk(
            mem,
            defense,
            &mut map,
            &mut kernel,
            &mut pending,
            &mut traffic,
        );
        self.kernel = Some(kernel);
        if let Some(e) = failed {
            return Err(e);
        }
        last?;
        if span_end > mem.now() {
            mem.advance(span_end - mem.now());
        }
        Ok(traffic)
    }

    /// Issue the queued chunk, then run the deferred per-op accounting
    /// and defense observations in op order.
    fn flush_chunk(
        &mut self,
        mem: &mut MemoryController,
        defense: &mut dyn DefenseMechanism,
        map: &mut Option<&mut WeightMap>,
        kernel: &mut DecodedBatch,
        pending: &mut Vec<WorkloadOp>,
        traffic: &mut SpanTraffic,
    ) -> Result<(), DramError> {
        if pending.is_empty() {
            kernel.clear();
            return Ok(());
        }
        mem.issue_batch(kernel)?;
        // Deferred defense observations: spanned only for real chunks
        // (len > 1). Per-op flushes must not pay a per-op span.
        let _span = (pending.len() > 1).then(|| dd_obs::span("chunk.observe"));
        for op in pending.drain(..) {
            traffic.ops += 1;
            traffic.activations += self.batch;
            traffic.bytes += self.row_bytes;
            defense.observe_activation(mem, map.as_deref_mut(), op.row, self.batch)?;
            if let Some(recorded) = &mut self.recorded {
                recorded.push(op);
            }
        }
        Ok(())
    }

    /// One *benign-only* measurement window: window-rollover
    /// notification, then the full per-window op budget, stopping 1 ns
    /// short of the epoch boundary so the caller can sample disturbance
    /// inside the window it accumulated in (the rollover zeroes it).
    /// The caller samples, then `mem.advance(Nanos(1))` to cross over.
    ///
    /// # Errors
    ///
    /// Propagates [`DramError`] from device or defense operations.
    pub fn drive_benign_window(
        &mut self,
        mem: &mut MemoryController,
        defense: &mut dyn DefenseMechanism,
        map: Option<&mut WeightMap>,
    ) -> Result<SpanTraffic, DramError> {
        defense.on_hammer_window(mem.epoch());
        let sample_at = Nanos(next_window_boundary(mem).0 - 1);
        let ops = self.ops_per_window;
        self.drive_span(mem, defense, map, sample_at, ops)
    }

    /// One *attacked* window of the shared measurement protocol: half
    /// the benign budget, then the caller's `campaign` (a
    /// [`DefenseMechanism::filter_flip`] replay) racing mid-window, then
    /// the remaining budget up to 1 ns before the epoch boundary.
    /// Returns the window's benign traffic, the defensive operations
    /// fired from the online tap during the benign segments (the
    /// campaign's own operations are excluded), and the campaign's
    /// outcome. As with [`BenignTraffic::drive_benign_window`], the
    /// caller samples disturbance and then advances the final 1 ns.
    ///
    /// # Errors
    ///
    /// Propagates [`DramError`] from device, defense, or campaign
    /// operations.
    pub fn drive_attacked_window<T>(
        &mut self,
        mem: &mut MemoryController,
        defense: &mut dyn DefenseMechanism,
        mut map: Option<&mut WeightMap>,
        campaign: impl FnOnce(
            &mut MemoryController,
            &mut dyn DefenseMechanism,
            Option<&mut WeightMap>,
        ) -> Result<T, DramError>,
    ) -> Result<(SpanTraffic, u64, T), DramError> {
        defense.on_hammer_window(mem.epoch());
        let window_end = next_window_boundary(mem);
        let half = Nanos(mem.now().0 + (window_end.0 - mem.now().0) / 2);
        let ops = self.ops_per_window;
        let mut traffic = SpanTraffic::default();
        let mut online_ops = 0u64;

        let before = defense.stats().defense_ops;
        traffic.absorb(self.drive_span(mem, defense, map.as_deref_mut(), half, ops / 2)?);
        online_ops += defense.stats().defense_ops - before;

        let outcome = campaign(mem, defense, map.as_deref_mut())?;

        let before = defense.stats().defense_ops;
        traffic.absorb(self.drive_span(
            mem,
            defense,
            map,
            Nanos(window_end.0 - 1),
            ops - ops / 2,
        )?);
        online_ops += defense.stats().defense_ops - before;
        Ok((traffic, online_ops, outcome))
    }
}

/// The next refresh-window (epoch) boundary after `mem.now()`.
pub fn next_window_boundary(mem: &MemoryController) -> Nanos {
    let t_ref = mem.config().timing.t_ref;
    Nanos(((mem.now().0 / t_ref.0) + 1) * t_ref.0)
}

/// Shape of one [`run_workload`] invocation.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Benign-only measurement windows (false-positive phase).
    pub benign_windows: u64,
    /// Windows carrying one attack campaign each, under load.
    pub attack_windows: u64,
    /// Capture the executed benign ops for trace export.
    pub record: bool,
}

/// What one [`run_workload`] run measured.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// The benign mix label.
    pub load: String,
    /// Benign ops executed across both phases.
    pub benign_ops: u64,
    /// Modeled benign activations (ops × batch).
    pub benign_activations: u64,
    /// Benign payload bytes moved.
    pub benign_bytes: u64,
    /// Total DRAM commands the device saw (benign + attack + defense).
    pub commands: u64,
    /// Simulated time elapsed.
    pub sim_nanos: u128,
    /// Simulated busy (non-idle) device time.
    pub busy_nanos: u128,
    /// Defensive operations fired during benign-only traffic — false
    /// positives by construction.
    pub false_defense_ops: u64,
    /// Defensive operations fired from the online tap while under attack
    /// (benign segments of attacked windows; genuine or false, the
    /// mechanism cannot tell).
    pub online_defense_ops: u64,
    /// Attack campaigns replayed.
    pub attempts: u64,
    /// Campaigns that corrupted memory.
    pub landed: u64,
    /// Distinct benign-universe rows whose disturbance ever reached half
    /// the RowHammer threshold (excluding rows under direct attack). A
    /// row outside the geometry reads 0, so it counts only when half the
    /// threshold is 0.
    pub disturbed_rows: u64,
    /// Peak disturbance observed on any non-attacked benign row.
    pub peak_benign_disturbance: u64,
    /// The defense's own bookkeeping at the end of the run.
    pub stats: DefenseStats,
    /// The captured benign op stream, when recording was requested.
    pub trace: Option<Vec<WorkloadOp>>,
}

fn total_commands(mem: &MemoryController) -> u64 {
    let s = mem.stats();
    s.acts + s.pres + s.reads + s.writes + s.refreshes + s.row_clones
}

/// Run benign-only measurement windows followed by attacked windows, all
/// through one device and one defense, and report throughput,
/// benign-row disturbance, and false/online defensive operations.
///
/// `attack_bits` are the model bits the attacker campaigns against, one
/// per attacked window (cycled); they require a deployed `map` to locate
/// victims. With no map or no bits, the attack phase only rolls windows.
///
/// # Errors
///
/// Returns [`DramError::InvalidConfig`] when `traffic` was built for
/// another device geometry than `mem`'s, whose flat row indices its
/// universe does not share, and propagates [`DramError`] from device or
/// defense operations.
pub fn run_workload(
    mem: &mut MemoryController,
    defense: &mut dyn DefenseMechanism,
    mut map: Option<&mut WeightMap>,
    traffic: &mut BenignTraffic,
    attack_bits: &[BitAddr],
    cfg: &DriverConfig,
) -> Result<DriverReport, DramError> {
    let config = mem.config().clone();
    if !traffic.universe().is_for(&config) {
        return Err(DramError::InvalidConfig(
            "the benign traffic was built for another device geometry".into(),
        ));
    }
    let t_rh = config.rowhammer_threshold;
    let started = mem.now();
    let busy_start = mem.stats().busy;
    let commands_start = total_commands(mem);
    if cfg.record {
        traffic.set_recording(true);
    }

    let mut benign = SpanTraffic::default();
    let mut disturbed = RowSet::new(&config);
    // Rows under direct attack: a weight map lays out rows inside the
    // geometry.
    let mut attacked = RowSet::new(&config);
    let mut peak = 0u64;
    let sample = |mem: &MemoryController,
                  traffic: &BenignTraffic,
                  attacked: &RowSet,
                  disturbed: &mut RowSet,
                  peak: &mut u64| {
        // `for_each` walks each run of consecutive rows as one counted
        // loop.
        mem.disturbances(traffic.universe().difference(attacked))
            .for_each(|(row, d)| {
                *peak = (*peak).max(d);
                if d >= t_rh / 2 {
                    disturbed.insert(row);
                }
            });
    };

    // Phase 1: benign-only. Every defensive op fired here is a false
    // positive — there is no attack to defend against.
    let ops_before = defense.stats().defense_ops;
    for _ in 0..cfg.benign_windows {
        benign.absorb(traffic.drive_benign_window(mem, defense, map.as_deref_mut())?);
        sample(mem, traffic, &attacked, &mut disturbed, &mut peak);
        mem.advance(Nanos(1));
    }
    let false_defense_ops = defense.stats().defense_ops - ops_before;

    // Phase 2: attacked windows — one campaign racing mid-window while
    // benign traffic keeps flowing around it.
    let mut online_defense_ops = 0u64;
    let mut attempts = 0u64;
    let mut landed = 0u64;
    for w in 0..cfg.attack_windows {
        let attacked_ref = &mut attacked;
        let (window_traffic, online_ops, _) = traffic.drive_attacked_window(
            mem,
            defense,
            map.as_deref_mut(),
            |mem, defense, mut map| {
                let Some(m) = map.as_deref() else {
                    return Ok(());
                };
                if attack_bits.is_empty() {
                    return Ok(());
                }
                let addr = attack_bits[(w as usize) % attack_bits.len()];
                let loc = m.locate(addr);
                if let Some(flat) = config.flat_row_index(loc.row) {
                    attacked_ref.insert(flat);
                }
                let view = CampaignView {
                    mem,
                    map: map.as_deref_mut(),
                    victim: loc.row,
                    bit_in_row: loc.bit_in_row,
                    addr,
                };
                let outcome = defense.filter_flip(view)?;
                attempts += 1;
                if outcome.landed() {
                    landed += 1;
                }
                if let Some(m) = map.as_deref() {
                    // The campaign may have relocated the victim; the row
                    // now holding the bit is the attacked one going
                    // forward.
                    if let Some(flat) = config.flat_row_index(m.locate(addr).row) {
                        attacked_ref.insert(flat);
                    }
                }
                Ok(())
            },
        )?;
        benign.absorb(window_traffic);
        online_defense_ops += online_ops;
        sample(mem, traffic, &attacked, &mut disturbed, &mut peak);
        mem.advance(Nanos(1));
    }

    // Every window sampled the universe; its rows outside the geometry
    // read 0 there.
    let sampled = cfg.benign_windows + cfg.attack_windows > 0;
    let outside_disturbed = if sampled && t_rh / 2 == 0 {
        traffic.universe().outside()
    } else {
        0
    };
    Ok(DriverReport {
        load: traffic.label().to_string(),
        benign_ops: benign.ops,
        benign_activations: benign.activations,
        benign_bytes: benign.bytes,
        commands: total_commands(mem) - commands_start,
        sim_nanos: (mem.now() - started).0,
        busy_nanos: (mem.stats().busy - busy_start).0,
        false_defense_ops,
        online_defense_ops,
        attempts,
        landed,
        disturbed_rows: (disturbed.len() + outside_disturbed) as u64,
        peak_benign_disturbance: peak,
        stats: defense.stats(),
        trace: if cfg.record {
            Some(traffic.take_recorded())
        } else {
            None
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::all_data_rows;
    use dd_dram::GlobalRowId;
    use dnn_defender::Undefended;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A replayed trace's universe is every row it names, those
        /// outside the geometry included, on both presets.
        #[test]
        fn trace_universe_is_the_row_set_of_its_ops(
            ddr4 in any::<bool>(),
            coords in proptest::collection::vec((any::<usize>(), any::<usize>(), any::<usize>()), 1..100),
        ) {
            let config = if ddr4 {
                DramConfig::ddr4_32gb()
            } else {
                DramConfig::lpddr4_small()
            };
            let rows: Vec<GlobalRowId> = coords
                .iter()
                .map(|&(b, s, r)| {
                    GlobalRowId::new(
                        b % (config.banks + 1),
                        s % (config.subarrays_per_bank + 1),
                        r % (config.rows_per_subarray + 1),
                    )
                })
                .collect();
            let ops = rows
                .iter()
                .map(|&row| WorkloadOp { kind: OpKind::Read, row })
                .collect();
            let replay = BenignTraffic::from_trace(ops, 64, 1, &config);
            prop_assert_eq!(replay.universe(), &RowSet::of(&config, rows));
        }
    }

    #[test]
    fn for_load_universe_is_the_hot_and_cold_rows() {
        let config = DramConfig::lpddr4_small();
        let cold = all_data_rows(&config);
        let half = Rows::listed(&config, cold.iter().filter(|r| r.bank.0 % 2 == 1));
        // The driver tests' working set and the scenario matrix's.
        let first = Rows::listed(&config, cold.iter().take(64));
        for (hot, cold) in [
            (first, &cold),
            (cold.spread(64), &cold),
            (cold.spread(64), &half),
        ] {
            let expected = RowSet::of(&config, hot.iter().chain(cold.iter()));
            for load in BackgroundLoad::ALL {
                match BenignTraffic::for_load(load, 11, &config, &hot, cold) {
                    Some(traffic) => assert_eq!(traffic.universe(), &expected, "{load}"),
                    None => assert_eq!(load, BackgroundLoad::None),
                }
            }
        }
    }

    /// A trace may name rows outside the geometry past the ops a run
    /// replays. Those universe rows read 0: they count as disturbed when
    /// half the threshold is 0, as every row inside it then does, and
    /// never otherwise.
    #[test]
    fn rows_outside_the_geometry_count_only_at_a_zero_half_threshold() {
        let inside = (0..64).map(|r| GlobalRowId::new(0, 1, r));
        let outside = [
            GlobalRowId::new(16, 0, 0),
            GlobalRowId::new(0, 8, 0),
            GlobalRowId::new(0, 0, 128),
        ];
        let ops: Vec<WorkloadOp> = inside
            .chain(outside)
            .map(|row| WorkloadOp {
                kind: OpKind::Read,
                row,
            })
            .collect();
        // Two windows replay rows 0..64 of one subarray in order, so rows
        // 0..63 end a window next to a read: disturbed at 1.
        for (t_rh, disturbed) in [(1, 67), (2, 63), (4800, 0)] {
            let config = DramConfig::lpddr4_small().with_rowhammer_threshold(t_rh);
            let mut mem = MemoryController::try_new(config.clone()).expect("valid config");
            let mut traffic = BenignTraffic::from_trace(ops.clone(), 32, 1, &config);
            assert_eq!(traffic.universe().outside(), 3);
            let report = run_workload(
                &mut mem,
                &mut Undefended::new(),
                None,
                &mut traffic,
                &[],
                &DriverConfig {
                    benign_windows: 2,
                    attack_windows: 0,
                    record: false,
                },
            )
            .expect("the replayed ops lie inside the geometry");
            assert_eq!(report.disturbed_rows, disturbed, "T_RH {t_rh}");
            assert_eq!(report.peak_benign_disturbance, 1, "T_RH {t_rh}");
        }
    }

    #[test]
    fn traffic_of_another_geometry_is_refused() {
        let mut traffic = light_traffic(&DramConfig::lpddr4_small());
        let config = DramConfig::lpddr4_small()
            .with_banks(8)
            .with_subarrays_per_bank(16);
        let mut mem = MemoryController::try_new(config).expect("valid config");
        let run = run_workload(
            &mut mem,
            &mut Undefended::new(),
            None,
            &mut traffic,
            &[],
            &DriverConfig {
                benign_windows: 1,
                attack_windows: 0,
                record: false,
            },
        );
        assert!(matches!(run, Err(DramError::InvalidConfig(_))));
    }

    fn device() -> MemoryController {
        MemoryController::try_new(DramConfig::lpddr4_small()).expect("valid config")
    }

    fn light_traffic(config: &DramConfig) -> BenignTraffic {
        let cold = all_data_rows(config);
        let hot = Rows::listed(config, cold.iter().take(64));
        BenignTraffic::for_load(BackgroundLoad::Light, 11, config, &hot, &cold)
            .expect("light builds traffic")
    }

    #[test]
    fn benign_only_run_is_deterministic() {
        let run = || {
            let mut mem = device();
            let mut defense = Undefended::new();
            let mut traffic = light_traffic(&DramConfig::lpddr4_small());
            let cfg = DriverConfig {
                benign_windows: 3,
                attack_windows: 0,
                record: false,
            };
            run_workload(&mut mem, &mut defense, None, &mut traffic, &[], &cfg).expect("driver run")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.benign_ops, 3 * BackgroundLoad::Light.ops_per_window());
        assert_eq!(a.benign_ops, b.benign_ops);
        assert_eq!(a.commands, b.commands);
        assert_eq!(a.sim_nanos, b.sim_nanos);
        assert_eq!(a.disturbed_rows, b.disturbed_rows);
        assert_eq!(a.peak_benign_disturbance, b.peak_benign_disturbance);
        assert_eq!(a.false_defense_ops, 0, "undefended fired a defense op");
        assert_eq!(a.attempts, 0);
    }

    #[test]
    fn driver_lands_on_window_boundaries_and_moves_data() {
        let mut mem = device();
        let mut defense = Undefended::new();
        let mut traffic = light_traffic(&DramConfig::lpddr4_small());
        let cfg = DriverConfig {
            benign_windows: 2,
            attack_windows: 0,
            record: false,
        };
        let report =
            run_workload(&mut mem, &mut defense, None, &mut traffic, &[], &cfg).expect("run");
        let t_ref = mem.config().timing.t_ref;
        assert_eq!(mem.now().0 % t_ref.0, 0, "clock must sit on a boundary");
        assert_eq!(report.sim_nanos, t_ref.0 * 2);
        assert_eq!(report.benign_bytes, report.benign_ops * 64);
        assert!(report.busy_nanos > 0 && report.busy_nanos < report.sim_nanos);
        assert_eq!(
            report.benign_activations,
            report.benign_ops * BackgroundLoad::Light.batch()
        );
    }

    #[test]
    fn heavy_load_disturbs_more_than_light() {
        let run = |load: BackgroundLoad| {
            let config = DramConfig::lpddr4_small();
            let mut mem = device();
            let mut defense = Undefended::new();
            let cold = all_data_rows(&config);
            let hot = Rows::listed(&config, cold.iter().take(64));
            let mut traffic =
                BenignTraffic::for_load(load, 11, &config, &hot, &cold).expect("traffic");
            let cfg = DriverConfig {
                benign_windows: 3,
                attack_windows: 0,
                record: false,
            };
            run_workload(&mut mem, &mut defense, None, &mut traffic, &[], &cfg).expect("run")
        };
        let light = run(BackgroundLoad::Light);
        let heavy = run(BackgroundLoad::Heavy);
        assert!(
            heavy.peak_benign_disturbance > light.peak_benign_disturbance,
            "heavy ({}) must out-disturb light ({})",
            heavy.peak_benign_disturbance,
            light.peak_benign_disturbance
        );
        assert!(heavy.benign_ops > light.benign_ops);
    }

    /// The full run_workload surface on `mem`, against a deterministic
    /// mix, for the path-equivalence test below.
    fn run_on(mut mem: MemoryController, load: BackgroundLoad) -> (DriverReport, MemoryController) {
        let config = DramConfig::lpddr4_small();
        let mut defense = Undefended::new();
        let cold = all_data_rows(&config);
        let hot = Rows::listed(&config, cold.iter().take(64));
        let mut traffic = BenignTraffic::for_load(load, 17, &config, &hot, &cold).expect("traffic");
        let cfg = DriverConfig {
            benign_windows: 2,
            attack_windows: 0,
            record: true,
        };
        let report =
            run_workload(&mut mem, &mut defense, None, &mut traffic, &[], &cfg).expect("run");
        (report, mem)
    }

    #[test]
    fn batched_path_matches_reference_end_to_end() {
        for load in [
            BackgroundLoad::Light,
            BackgroundLoad::Heavy,
            BackgroundLoad::MultiTenant,
        ] {
            let mut full = device();
            full.set_trace_mode(TraceMode::Full);
            let (ref_report, ref_mem) = run_on(full, load);
            let (fast_report, fast_mem) = run_on(device(), load);
            assert_eq!(ref_report.benign_ops, fast_report.benign_ops, "{load}");
            assert_eq!(ref_report.benign_bytes, fast_report.benign_bytes);
            assert_eq!(ref_report.commands, fast_report.commands, "{load}");
            assert_eq!(ref_report.sim_nanos, fast_report.sim_nanos, "{load}");
            assert_eq!(ref_report.busy_nanos, fast_report.busy_nanos, "{load}");
            assert_eq!(
                ref_report.peak_benign_disturbance, fast_report.peak_benign_disturbance,
                "{load}"
            );
            assert_eq!(ref_report.disturbed_rows, fast_report.disturbed_rows);
            assert_eq!(ref_report.trace, fast_report.trace, "op streams diverged");
            assert_eq!(ref_mem.stats(), fast_mem.stats(), "{load}");
            assert_eq!(ref_mem.now(), fast_mem.now());
        }
    }

    #[test]
    fn take_recorded_stops_recording() {
        let config = DramConfig::lpddr4_small();
        let mut traffic = light_traffic(&config);
        let cfg = DriverConfig {
            benign_windows: 1,
            attack_windows: 0,
            record: true,
        };
        let mut mem = device();
        let mut defense = Undefended::new();
        let first = run_workload(&mut mem, &mut defense, None, &mut traffic, &[], &cfg)
            .expect("recorded run");
        assert!(!first.trace.as_deref().expect("trace").is_empty());

        // A subsequent non-recording run must not keep capturing (or
        // pollute a later capture with its ops).
        let unrecorded = run_workload(
            &mut mem,
            &mut defense,
            None,
            &mut traffic,
            &[],
            &DriverConfig {
                record: false,
                ..cfg
            },
        )
        .expect("unrecorded run");
        assert!(unrecorded.trace.is_none());
        assert!(
            traffic.take_recorded().is_empty(),
            "recording stayed on after take_recorded"
        );
    }

    #[test]
    fn recorded_trace_replays_byte_identically() {
        let config = DramConfig::lpddr4_small();
        let cfg = DriverConfig {
            benign_windows: 2,
            attack_windows: 0,
            record: true,
        };
        let mut mem = device();
        let mut defense = Undefended::new();
        let mut traffic = light_traffic(&config);
        let original =
            run_workload(&mut mem, &mut defense, None, &mut traffic, &[], &cfg).expect("record");
        let ops = original.trace.clone().expect("trace captured");
        assert_eq!(ops.len() as u64, original.benign_ops);

        // Round-trip through the binary format, then drive a fresh device
        // with the replay: identical command stream, identical outcome.
        let bytes = crate::trace::encode(&ops);
        let decoded = crate::trace::decode(&bytes).expect("decode");
        assert_eq!(decoded, ops);
        let mut replay =
            BenignTraffic::from_trace(decoded, traffic.ops_per_window(), traffic.batch(), &config);
        let mut mem2 = device();
        let mut defense2 = Undefended::new();
        let replayed = run_workload(
            &mut mem2,
            &mut defense2,
            None,
            &mut replay,
            &[],
            &DriverConfig {
                record: false,
                ..cfg
            },
        )
        .expect("replay");
        assert_eq!(replayed.benign_ops, original.benign_ops);
        assert_eq!(replayed.benign_bytes, original.benign_bytes);
        assert_eq!(replayed.commands, original.commands);
        assert_eq!(mem2.stats().reads, mem.stats().reads);
        assert_eq!(mem2.stats().writes, mem.stats().writes);
        assert_eq!(mem2.stats().acts, mem.stats().acts);
    }

    #[test]
    fn streaming_replay_run_is_bit_identical_to_materialized() {
        let config = DramConfig::lpddr4_small();
        let cfg = DriverConfig {
            benign_windows: 3,
            attack_windows: 0,
            record: true,
        };
        let mut mem = device();
        let mut defense = Undefended::new();
        let mut traffic = light_traffic(&config);
        let original =
            run_workload(&mut mem, &mut defense, None, &mut traffic, &[], &cfg).expect("record");
        let ops = original.trace.clone().expect("trace captured");
        let bytes = crate::trace::encode(&ops);

        let run = |mut traffic: BenignTraffic| {
            let mut mem = device();
            let mut defense = Undefended::new();
            let report = run_workload(
                &mut mem,
                &mut defense,
                None,
                &mut traffic,
                &[],
                &DriverConfig {
                    record: false,
                    ..cfg
                },
            )
            .expect("replay");
            (report, mem.stats(), defense.stats())
        };

        let materialized = BenignTraffic::from_trace(
            crate::trace::decode(&bytes).expect("decode"),
            traffic.ops_per_window(),
            traffic.batch(),
            &config,
        );
        let streaming = BenignTraffic::from_streaming(
            crate::trace::StreamingReplay::open(std::io::Cursor::new(bytes), &config)
                .expect("open"),
            traffic.ops_per_window(),
            traffic.batch(),
            &config,
        );
        let (rep_m, mem_m, def_m) = run(materialized);
        let (rep_s, mem_s, def_s) = run(streaming);
        assert_eq!(rep_s.benign_ops, rep_m.benign_ops);
        assert_eq!(rep_s.benign_bytes, rep_m.benign_bytes);
        assert_eq!(rep_s.commands, rep_m.commands);
        assert_eq!(mem_s, mem_m, "MemStats must be bit-identical");
        assert_eq!(def_s, def_m, "DefenseStats must be bit-identical");
    }
}
