//! The memory controller: the single entry point through which attackers
//! and defenses drive the simulated device.
//!
//! All data movement, timing accounting, command counting and RowHammer
//! disturbance bookkeeping flow through this type, so an experiment that
//! holds a `MemoryController` sees a consistent global clock ([`MemoryController::now`])
//! and consistent per-row disturbance state. That state is one dense
//! per-row table (see [`crate::rowhammer`]), built with the device and
//! written in place by both the per-command methods and the batched
//! kernel ([`MemoryController::issue_batch`]).

use crate::bank::Bank;
use crate::batch::{BatchOpKind, DecodedBatch};
use crate::error::DramError;
use crate::geometry::{BankId, DramConfig, GlobalRowId, RowInSubarray, SubarrayId};
use crate::rowhammer::{FlipOutcome, HammerTracker, RowHammerModel};
use crate::stats::MemStats;
use crate::timing::Nanos;

/// How bulk replay issues its commands.
///
/// The mode selects the path of [`MemoryController::issue_batch`] and of
/// the workload driver that feeds it. Both paths leave the device in the
/// identical end state, which `tests/kernel_differential.rs` checks by
/// running every case on a [`TraceMode::Full`] device and on a default
/// one. Neither retains the commands themselves; both tally them in
/// [`MemStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// The per-command reference: every batched op replays through the
    /// ordinary per-command methods
    /// ([`MemoryController::issue_batch_reference`]), and the workload
    /// driver flushes after every op.
    Full,
    /// The batched kernel (the default).
    #[default]
    CountersOnly,
}

/// The simulated memory controller.
///
/// # Example
///
/// ```
/// use dd_dram::{DramConfig, MemoryController, BankId, SubarrayId, RowInSubarray};
///
/// # fn main() -> Result<(), dd_dram::DramError> {
/// let mut mem = MemoryController::try_new(DramConfig::lpddr4_small())?;
/// let (b, s) = (BankId(0), SubarrayId(0));
///
/// // A victim row with data; the attacker hammers its neighbour.
/// mem.write_row(b, s, RowInSubarray(10), &[0xFF; 64])?;
/// let victim = dd_dram::GlobalRowId { bank: b, subarray: s, row: RowInSubarray(10) };
/// let aggressor = dd_dram::GlobalRowId { bank: b, subarray: s, row: RowInSubarray(11) };
///
/// mem.hammer(aggressor, 4800)?; // reach T_RH
/// let outcome = mem.attempt_flip(victim, &[0])?;
/// assert!(outcome.flipped());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MemoryController {
    config: DramConfig,
    banks: Vec<Bank>,
    now: Nanos,
    stats: MemStats,
    mode: TraceMode,
    hammer: HammerTracker,
    rh_model: RowHammerModel,
}

impl MemoryController {
    /// Build a controller over a freshly zeroed device.
    ///
    /// This is the single construction path: configurations are validated
    /// and the error surfaced, never panicked over.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] when the configuration is
    /// inconsistent.
    pub fn try_new(config: DramConfig) -> Result<Self, DramError> {
        config.validate()?;
        let banks = (0..config.banks)
            .map(|_| {
                Bank::new(
                    config.subarrays_per_bank,
                    config.rows_per_subarray,
                    config.row_bytes,
                )
            })
            .collect();
        let rh_model = RowHammerModel::from_config(&config);
        let hammer = HammerTracker::new(&config);
        Ok(MemoryController {
            config,
            banks,
            now: Nanos::ZERO,
            stats: MemStats::new(),
            mode: TraceMode::default(),
            hammer,
            rh_model,
        })
    }

    /// Device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The RowHammer model parameters in force.
    pub fn rowhammer_model(&self) -> RowHammerModel {
        self.rh_model
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Operation statistics so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Set how bulk replay issues commands (see [`TraceMode`]). Only the
    /// differential tests leave the default: they set
    /// [`TraceMode::Full`] to run the per-command reference.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.mode = mode;
    }

    /// The issue mode currently in force.
    pub fn trace_mode(&self) -> TraceMode {
        self.mode
    }

    /// Current refresh-window epoch.
    pub fn epoch(&self) -> u64 {
        HammerTracker::epoch(self.now, self.config.timing.t_ref)
    }

    /// Advance simulated time by `dt` without issuing commands (idle).
    pub fn advance(&mut self, dt: Nanos) {
        self.now += dt;
    }

    fn bank_mut(&mut self, bank: BankId) -> Result<&mut Bank, DramError> {
        let n = self.banks.len();
        self.banks
            .get_mut(bank.0)
            .ok_or(DramError::BankOutOfRange { bank, banks: n })
    }

    fn bank_ref(&self, bank: BankId) -> Result<&Bank, DramError> {
        self.banks.get(bank.0).ok_or(DramError::BankOutOfRange {
            bank,
            banks: self.banks.len(),
        })
    }

    /// Apply the RowHammer side effects of activating `row`: the row itself
    /// is recharged, its physical neighbours each take `n` disturbance.
    fn disturb_neighbours(&mut self, row: GlobalRowId, n: u64) {
        let epoch = self.epoch();
        let flat = self.hammer.index(row);
        self.hammer.activate(flat, row.row.0, n, epoch);
    }

    /// `ACT`: open a row. Advances time by `t_act` and disturbs neighbours.
    ///
    /// # Errors
    ///
    /// Returns an out-of-range error for an invalid address.
    pub fn activate(&mut self, addr: GlobalRowId) -> Result<(), DramError> {
        self.config.check_addr(addr)?;
        self.bank_mut(addr.bank)?
            .subarray_mut(addr.subarray)?
            .activate(addr.row)?;
        self.now += self.config.timing.t_act;
        self.stats.acts += 1;
        self.stats.busy += self.config.timing.t_act;
        self.disturb_neighbours(addr, 1);
        Ok(())
    }

    /// `PRE`: close the open row of a subarray.
    ///
    /// # Errors
    ///
    /// Returns an out-of-range error for an invalid bank/subarray.
    pub fn precharge(&mut self, bank: BankId, subarray: SubarrayId) -> Result<(), DramError> {
        self.bank_mut(bank)?.subarray_mut(subarray)?.precharge();
        self.now += self.config.timing.t_pre;
        self.stats.pres += 1;
        self.stats.busy += self.config.timing.t_pre;
        Ok(())
    }

    /// Read a full row (ACT + RD + PRE).
    ///
    /// # Errors
    ///
    /// Returns an out-of-range error for an invalid address.
    pub fn read_row(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        row: RowInSubarray,
    ) -> Result<Vec<u8>, DramError> {
        let addr = GlobalRowId {
            bank,
            subarray,
            row,
        };
        self.activate(addr)?;
        let data = self.bank_ref(bank)?.subarray(subarray)?.row(row)?.to_vec();
        self.now += self.config.timing.t_rd;
        self.stats.reads += 1;
        self.stats.busy += self.config.timing.t_rd;
        self.precharge(bank, subarray)?;
        Ok(data)
    }

    /// Write a full row (ACT + WR + PRE).
    ///
    /// # Errors
    ///
    /// Returns an out-of-range error for an invalid address, or
    /// [`DramError::RowSizeMismatch`] when `data` is not one full row.
    pub fn write_row(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        row: RowInSubarray,
        data: &[u8],
    ) -> Result<(), DramError> {
        let addr = GlobalRowId {
            bank,
            subarray,
            row,
        };
        self.activate(addr)?;
        self.bank_mut(bank)?
            .subarray_mut(subarray)?
            .write_row(row, data)?;
        self.now += self.config.timing.t_wr;
        self.stats.writes += 1;
        self.stats.busy += self.config.timing.t_wr;
        self.precharge(bank, subarray)?;
        Ok(())
    }

    /// Direct (zero-time) access to row contents for test setup and
    /// model-accuracy evaluation. Does not issue commands, advance time, or
    /// disturb neighbours — use [`MemoryController::read_row`] for
    /// behaviourally accurate accesses.
    pub fn peek_row(
        &self,
        bank: BankId,
        subarray: SubarrayId,
        row: RowInSubarray,
    ) -> Result<&[u8], DramError> {
        self.bank_ref(bank)?.subarray(subarray)?.row(row)
    }

    /// Zero-time counterpart of [`MemoryController::write_row`] for test
    /// setup (e.g. loading model weights without paying simulated time).
    pub fn poke_row(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        row: RowInSubarray,
        data: &[u8],
    ) -> Result<(), DramError> {
        self.bank_mut(bank)?
            .subarray_mut(subarray)?
            .write_row(row, data)
    }

    /// RowClone: copy `src` → `dst` within one subarray (ACT–ACT–PRE,
    /// `t_aap`). Both rows are recharged (their disturbance resets) and
    /// both rows' neighbours take one activation of disturbance.
    ///
    /// # Errors
    ///
    /// Returns an out-of-range error for invalid rows.
    pub fn row_clone(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        src: RowInSubarray,
        dst: RowInSubarray,
    ) -> Result<(), DramError> {
        let src_addr = GlobalRowId {
            bank,
            subarray,
            row: src,
        };
        let dst_addr = GlobalRowId {
            bank,
            subarray,
            row: dst,
        };
        self.config.check_addr(src_addr)?;
        self.config.check_addr(dst_addr)?;
        self.bank_mut(bank)?
            .subarray_mut(subarray)?
            .row_clone(src, dst)?;
        self.now += self.config.timing.t_aap;
        self.stats.row_clones += 1;
        self.stats.acts += 2;
        self.stats.pres += 1;
        self.stats.busy += self.config.timing.t_aap;
        self.disturb_neighbours(src_addr, 1);
        self.disturb_neighbours(dst_addr, 1);
        Ok(())
    }

    /// Explicitly refresh one row (recharge; clears its disturbance).
    ///
    /// # Errors
    ///
    /// Returns an out-of-range error for an invalid address.
    pub fn refresh_row(&mut self, addr: GlobalRowId) -> Result<(), DramError> {
        self.config.check_addr(addr)?;
        let flat = self.hammer.index(addr);
        self.hammer.refresh(flat);
        self.stats.refreshes += 1;
        self.now += self.config.timing.t_act;
        self.stats.busy += self.config.timing.t_act;
        Ok(())
    }

    /// Hammer: issue `count` activate/precharge pairs against `aggressor`
    /// as fast as timing allows. This is the attacker's primitive.
    ///
    /// # Errors
    ///
    /// Returns an out-of-range error for an invalid address.
    pub fn hammer(&mut self, aggressor: GlobalRowId, count: u64) -> Result<(), DramError> {
        self.config.check_addr(aggressor)?;
        // Bulk-model the ACT storm instead of issuing `count` commands:
        // identical end state, O(1) work.
        self.now += self.config.timing.t_act * u128::from(count);
        self.stats.acts += count;
        self.stats.pres += count;
        self.stats.busy += self.config.timing.t_act * u128::from(count);
        self.disturb_neighbours(aggressor, count);
        Ok(())
    }

    /// Current disturbance of a row in the present refresh window (0 for
    /// a row outside the device geometry).
    pub fn disturbance(&self, row: GlobalRowId) -> u64 {
        self.hammer.disturbance(row, self.epoch())
    }

    /// Each of `rows`, flat row indices ([`DramConfig::flat_row_index`]),
    /// paired with its current disturbance, in order: the bulk form of
    /// [`MemoryController::disturbance`] for scans over a whole row set,
    /// with the refresh epoch computed once per call instead of per row.
    /// An index past the device's last row reads 0, as a row outside the
    /// geometry does.
    pub fn disturbances<'a, I>(&'a self, rows: I) -> impl Iterator<Item = (usize, u64)> + 'a
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: 'a,
    {
        let epoch = self.epoch();
        rows.into_iter()
            .map(move |flat| (flat, self.hammer.disturbance_at(flat, epoch)))
    }

    /// Attempt to flip `bits` (bit offsets within the row payload) in
    /// `victim`. Succeeds only when the victim's accumulated disturbance
    /// has reached `T_RH` in the current refresh window; on success the
    /// bits flip in storage and the victim's disturbance resets (its cells
    /// have discharged and the next hammer campaign starts fresh).
    ///
    /// # Errors
    ///
    /// Returns an out-of-range error for an invalid address or bit offset.
    pub fn attempt_flip(
        &mut self,
        victim: GlobalRowId,
        bits: &[usize],
    ) -> Result<FlipOutcome, DramError> {
        self.config.check_addr(victim)?;
        let epoch = self.epoch();
        let disturbance = self.hammer.disturbance(victim, epoch);
        if disturbance < self.rh_model.threshold {
            return Ok(FlipOutcome::Resisted {
                disturbance,
                threshold: self.rh_model.threshold,
            });
        }
        let sub = self.bank_mut(victim.bank)?.subarray_mut(victim.subarray)?;
        for &bit in bits {
            sub.flip_bit(victim.row, bit)?;
        }
        let flat = self.hammer.index(victim);
        self.hammer.refresh(flat);
        Ok(FlipOutcome::Flipped {
            bits: bits.to_vec(),
        })
    }

    /// Swap two rows of a subarray through a scratch row using three
    /// RowClone copies (`scratch ← a`, `a ← b`, `b ← scratch`). This is
    /// the primitive that swap-based mitigations build on; DNN-Defender's
    /// four-step variant lives in the `dnn-defender` crate.
    ///
    /// # Errors
    ///
    /// Returns an out-of-range error for invalid rows.
    pub fn swap_rows_via(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        a: RowInSubarray,
        b: RowInSubarray,
        scratch: RowInSubarray,
    ) -> Result<(), DramError> {
        self.row_clone(bank, subarray, a, scratch)?;
        self.row_clone(bank, subarray, b, a)?;
        self.row_clone(bank, subarray, scratch, b)?;
        Ok(())
    }

    /// Execute a chunk of pre-decoded commands, draining `batch`'s op
    /// queue. This is the bulk-replay entry point the scenario matrix's
    /// background traffic and the workload driver's replay loop issue
    /// through (see `docs/perf.md`).
    ///
    /// By default the chunk runs on the batched kernel: disturbance
    /// written in place into the dense per-row table at each op's
    /// pre-decoded index, refresh-epoch checks amortized to one
    /// comparison per time advance, stats accumulated once per chunk,
    /// and no row-payload allocation on reads. On a
    /// [`TraceMode::Full`] controller the same ops replay through the
    /// ordinary per-command methods
    /// ([`MemoryController::issue_batch_reference`]), the reference the
    /// kernel is checked against.
    ///
    /// Both paths leave the controller in the *identical* end state —
    /// simulated clock, [`MemStats`], per-row disturbance and row
    /// payloads — a contract enforced by the differential oracle
    /// in `tests/kernel_differential.rs`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] when `batch` was decoded for
    /// a different device geometry, and propagates per-command errors
    /// from the reference replay (ops are pre-validated at
    /// [`DecodedBatch::push`], so well-formed batches cannot fail).
    pub fn issue_batch(&mut self, batch: &mut DecodedBatch) -> Result<(), DramError> {
        if !batch.matches(&self.config) {
            return Err(DramError::InvalidConfig(
                "batch was decoded for a different device geometry".into(),
            ));
        }
        // Observability is amortized per chunk, never per command: one
        // span carrying one histogram sample, recorded in a single
        // recorder visit when the span closes, and a single relaxed
        // atomic load when the sink is disabled (the `repro kernel`
        // overhead gate measures exactly this path).
        let _span = dd_obs::span("chunk.issue").with_sample("chunk.ops", batch.ops.len() as u64);
        // Fault plane: a stall-only probe on the chunk hot path, keyed by
        // the deterministic simulated clock. Stalls never mutate state,
        // so the differential oracle (fast vs reference) holds verbatim
        // under an armed plan.
        if dd_chaos::fires("kernel.chunk_stall", self.now.0 as u64) {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        match self.mode {
            TraceMode::Full => self.issue_batch_reference(batch),
            TraceMode::CountersOnly => {
                self.issue_batch_fast(batch);
                Ok(())
            }
        }
    }

    /// Replay a batch through the per-command reference path
    /// ([`MemoryController::read_row`] / [`MemoryController::write_row`]
    /// / [`MemoryController::hammer`]), draining the op queue. This is
    /// the oracle the fast path is measured and differentially tested
    /// against; it is also what [`MemoryController::issue_batch`] runs
    /// under [`TraceMode::Full`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`DramError`] any replayed command produced
    /// (remaining ops are dropped, matching an aborted per-command loop).
    pub fn issue_batch_reference(&mut self, batch: &mut DecodedBatch) -> Result<(), DramError> {
        let ops = std::mem::take(&mut batch.ops);
        let mut fill_buf = vec![0u8; self.config.row_bytes];
        let mut outcome = Ok(());
        for op in &ops {
            if op.advance_to > self.now.0 {
                let gap = Nanos(op.advance_to) - self.now;
                self.advance(gap);
            }
            let issued = match op.kind {
                BatchOpKind::Read => self
                    .read_row(op.row.bank, op.row.subarray, op.row.row)
                    .map(|_| ()),
                BatchOpKind::Write(fill) => {
                    fill_buf.fill(fill);
                    self.write_row(op.row.bank, op.row.subarray, op.row.row, &fill_buf)
                }
                BatchOpKind::Hammer => Ok(()),
            }
            .and_then(|()| {
                if op.extra > 0 {
                    self.hammer(op.row, op.extra)
                } else {
                    Ok(())
                }
            });
            if let Err(e) = issued {
                outcome = Err(e);
                break;
            }
        }
        batch.ops = ops;
        batch.ops.clear();
        outcome
    }

    /// The batched kernel: in-place disturbance at pre-decoded indices,
    /// amortized epoch checks, one stats flush per chunk.
    /// Infallible — ops were validated when pushed and the geometry was
    /// checked by the caller.
    fn issue_batch_fast(&mut self, batch: &mut DecodedBatch) {
        let t = self.config.timing;
        let (t_act, t_pre, t_rd, t_wr, t_ref) =
            (t.t_act.0, t.t_pre.0, t.t_rd.0, t.t_wr.0, t.t_ref.0);
        let mut now = self.now.0;
        let mut epoch = (now / t_ref) as u64;
        let mut epoch_end = (now / t_ref + 1) * t_ref;
        let (mut acts, mut pres, mut reads, mut writes) = (0u64, 0u64, 0u64, 0u64);
        let mut busy = 0u128;

        for op in &batch.ops {
            if op.advance_to > now {
                now = op.advance_to;
            }
            let flat = op.flat as usize;
            let in_row = op.row.row.0;
            if op.kind != BatchOpKind::Hammer {
                // The data command's ACT: the row recharges and its
                // neighbours take one disturbance at the post-ACT
                // instant, exactly as `activate` orders it.
                now += t_act;
                if now >= epoch_end {
                    epoch = (now / t_ref) as u64;
                    epoch_end = (now / t_ref + 1) * t_ref;
                }
                self.hammer.activate(flat, in_row, 1, epoch);
                let sub = self.banks[op.row.bank.0].subarray_raw_mut(op.row.subarray.0);
                match op.kind {
                    BatchOpKind::Read => {
                        now += t_rd;
                        reads += 1;
                        busy += t_act + t_rd + t_pre;
                    }
                    BatchOpKind::Write(fill) => {
                        sub.fill_row_raw(in_row, fill);
                        now += t_wr;
                        writes += 1;
                        busy += t_act + t_wr + t_pre;
                    }
                    BatchOpKind::Hammer => unreachable!("guarded above"),
                }
                // The ACT latched the row; the closing PRE releases it.
                sub.precharge();
                now += t_pre;
                acts += 1;
                pres += 1;
            }
            if op.extra > 0 {
                // The bulk ACT storm (`hammer`): time advances for the
                // whole storm first, then the target recharges and the
                // neighbours take the burst at the post-storm instant —
                // the per-command path's exact order.
                now += t_act * u128::from(op.extra);
                if now >= epoch_end {
                    epoch = (now / t_ref) as u64;
                    epoch_end = (now / t_ref + 1) * t_ref;
                }
                self.hammer.activate(flat, in_row, op.extra, epoch);
                acts += op.extra;
                pres += op.extra;
                busy += t_act * u128::from(op.extra);
            }
        }

        self.now = Nanos(now);
        self.stats.acts += acts;
        self.stats.pres += pres;
        self.stats.reads += reads;
        self.stats.writes += writes;
        self.stats.busy += Nanos(busy);
        batch.ops.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemoryController {
        MemoryController::try_new(DramConfig::lpddr4_small()).expect("valid config")
    }

    fn gid(row: usize) -> GlobalRowId {
        GlobalRowId::new(0, 0, row)
    }

    #[test]
    fn read_back_what_was_written() {
        let mut m = mem();
        let data = vec![0x5A; 64];
        m.write_row(BankId(0), SubarrayId(0), RowInSubarray(3), &data)
            .unwrap();
        let back = m
            .read_row(BankId(0), SubarrayId(0), RowInSubarray(3))
            .unwrap();
        assert_eq!(back, data);
        assert!(m.stats().reads == 1 && m.stats().writes == 1);
    }

    #[test]
    fn hammer_below_threshold_resists() {
        let mut m = mem();
        m.hammer(gid(11), 4799).unwrap();
        let out = m.attempt_flip(gid(10), &[0]).unwrap();
        assert_eq!(
            out,
            FlipOutcome::Resisted {
                disturbance: 4799,
                threshold: 4800
            }
        );
    }

    #[test]
    fn hammer_at_threshold_flips() {
        let mut m = mem();
        m.poke_row(BankId(0), SubarrayId(0), RowInSubarray(10), &[0u8; 64])
            .unwrap();
        m.hammer(gid(11), 4800).unwrap();
        let out = m.attempt_flip(gid(10), &[5]).unwrap();
        assert!(out.flipped());
        let row = m
            .peek_row(BankId(0), SubarrayId(0), RowInSubarray(10))
            .unwrap();
        assert_eq!(row[0], 1 << 5);
    }

    #[test]
    fn double_sided_hammer_accumulates() {
        let mut m = mem();
        m.hammer(gid(9), 2400).unwrap();
        m.hammer(gid(11), 2400).unwrap();
        assert_eq!(m.disturbance(gid(10)), 4800);
        assert!(m.attempt_flip(gid(10), &[0]).unwrap().flipped());
    }

    #[test]
    fn victim_refresh_resets_disturbance() {
        let mut m = mem();
        m.hammer(gid(11), 4000).unwrap();
        m.refresh_row(gid(10)).unwrap();
        m.hammer(gid(11), 799).unwrap();
        let out = m.attempt_flip(gid(10), &[0]).unwrap();
        assert!(!out.flipped());
    }

    #[test]
    fn row_clone_refreshes_both_rows() {
        let mut m = mem();
        m.hammer(gid(11), 4000).unwrap();
        assert_eq!(m.disturbance(gid(10)), 4000);
        // Cloning the victim elsewhere recharges it.
        m.row_clone(
            BankId(0),
            SubarrayId(0),
            RowInSubarray(10),
            RowInSubarray(50),
        )
        .unwrap();
        assert_eq!(m.disturbance(gid(10)), 0);
    }

    #[test]
    fn refresh_window_rollover_clears_disturbance() {
        let mut m = mem();
        m.hammer(gid(11), 4000).unwrap();
        // Jump past the end of the refresh window.
        m.advance(Nanos::from_millis(65));
        assert_eq!(m.disturbance(gid(10)), 0);
        assert!(!m.attempt_flip(gid(10), &[0]).unwrap().flipped());
    }

    #[test]
    fn hammering_own_row_does_not_flip_it() {
        let mut m = mem();
        m.hammer(gid(10), 10_000).unwrap();
        assert_eq!(m.disturbance(gid(10)), 0);
        assert!(!m.attempt_flip(gid(10), &[0]).unwrap().flipped());
    }

    #[test]
    fn activation_disturbs_both_neighbours() {
        let mut m = mem();
        m.activate(gid(10)).unwrap();
        assert_eq!(m.disturbance(gid(9)), 1);
        assert_eq!(m.disturbance(gid(11)), 1);
        assert_eq!(m.disturbance(gid(10)), 0);
    }

    #[test]
    fn swap_rows_via_scratch_exchanges_data() {
        let mut m = mem();
        m.poke_row(BankId(0), SubarrayId(0), RowInSubarray(1), &[1; 64])
            .unwrap();
        m.poke_row(BankId(0), SubarrayId(0), RowInSubarray(2), &[2; 64])
            .unwrap();
        m.swap_rows_via(
            BankId(0),
            SubarrayId(0),
            RowInSubarray(1),
            RowInSubarray(2),
            RowInSubarray(127),
        )
        .unwrap();
        assert_eq!(
            m.peek_row(BankId(0), SubarrayId(0), RowInSubarray(1))
                .unwrap()[0],
            2
        );
        assert_eq!(
            m.peek_row(BankId(0), SubarrayId(0), RowInSubarray(2))
                .unwrap()[0],
            1
        );
        assert_eq!(m.stats().row_clones, 3);
        // 3 RowClones at t_aap each.
        assert_eq!(m.stats().busy, m.config().timing.t_aap * 3);
    }

    #[test]
    fn timing_accumulates() {
        let mut m = mem();
        let t = m.config().timing;
        m.hammer(gid(5), 100).unwrap();
        assert_eq!(m.now(), t.t_act * 100);
    }

    #[test]
    fn flip_consumes_disturbance() {
        let mut m = mem();
        m.hammer(gid(11), 4800).unwrap();
        assert!(m.attempt_flip(gid(10), &[0]).unwrap().flipped());
        // A second flip needs a fresh hammering campaign.
        assert!(!m.attempt_flip(gid(10), &[1]).unwrap().flipped());
    }

    #[test]
    fn controller_tracks_issue_counts() {
        let mut m = mem();
        m.write_row(BankId(0), SubarrayId(0), RowInSubarray(3), &[0u8; 64])
            .unwrap();
        m.read_row(BankId(0), SubarrayId(0), RowInSubarray(3))
            .unwrap();
        let stats = m.stats();
        assert_eq!(stats.acts, 2);
        assert_eq!(stats.pres, 2);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 1);
    }

    #[test]
    fn out_of_range_rows_read_zero_next_to_disturbed_rows() {
        let mut m = mem();
        m.hammer(GlobalRowId::new(0, 1, 73), 40).unwrap();
        m.hammer(GlobalRowId::new(1, 0, 1), 40).unwrap();
        // On this 16 × 8 × 128 geometry an unchecked flat index would read
        // each outside row as the disturbed row after it, and the last one
        // past the end of the table.
        let rows = [
            GlobalRowId::new(0, 0, 200),
            GlobalRowId::new(0, 1, 72),
            GlobalRowId::new(0, 8, 0),
            GlobalRowId::new(1, 0, 0),
            GlobalRowId::new(16, 0, 0),
        ];
        assert_eq!(rows.map(|r| m.disturbance(r)), [0, 40, 0, 40, 0]);
        // The bulk read takes flat indices: an undisturbed row, the two
        // disturbed rows, and the first index past the end of the table.
        let flat = [0, 128 + 72, 8 * 128, 16 * 8 * 128];
        assert_eq!(
            m.disturbances(flat).map(|(_, d)| d).collect::<Vec<_>>(),
            vec![0, 40, 40, 0]
        );
    }

    #[test]
    fn invalid_addresses_error() {
        let mut m = mem();
        assert!(m.activate(GlobalRowId::new(99, 0, 0)).is_err());
        assert!(m
            .read_row(BankId(0), SubarrayId(99), RowInSubarray(0))
            .is_err());
        assert!(m.hammer(GlobalRowId::new(0, 0, 999), 1).is_err());
    }

    /// A mixed op chunk for the batch-equivalence tests: reads, writes,
    /// bulk hammers, scheduled idle gaps, and enough activations to roll
    /// the refresh epoch mid-chunk.
    fn mixed_chunk(batch: &mut DecodedBatch) {
        use crate::batch::BatchOpKind as K;
        for i in 0..200u64 {
            let row = GlobalRowId::new((i % 3) as usize, (i % 5) as usize, 2 + (i % 90) as usize);
            let kind = if i % 4 == 3 {
                K::Write(i as u8 ^ 0xA5)
            } else {
                K::Read
            };
            let advance = (i % 7 == 0).then(|| Nanos(i as u128 * 700_000));
            batch.push(row, kind, (i % 3) * 8, advance).unwrap();
            if i % 11 == 0 {
                batch
                    .push(GlobalRowId::new(0, 0, 40), K::Hammer, 900, None)
                    .unwrap();
            }
        }
        // Edge rows: only one neighbour exists.
        batch
            .push(GlobalRowId::new(1, 1, 0), K::Read, 4, None)
            .unwrap();
        batch
            .push(GlobalRowId::new(1, 1, 127), K::Write(0x3C), 4, None)
            .unwrap();
    }

    fn assert_same_end_state(fast: &MemoryController, reference: &MemoryController) {
        assert_eq!(fast.now(), reference.now(), "clock diverged");
        assert_eq!(fast.stats(), reference.stats(), "stats diverged");
        let config = fast.config().clone();
        for bank in 0..config.banks {
            for sub in 0..config.subarrays_per_bank {
                for row in 0..config.rows_per_subarray {
                    let gid = GlobalRowId::new(bank, sub, row);
                    assert_eq!(
                        fast.disturbance(gid),
                        reference.disturbance(gid),
                        "disturbance diverged at {gid:?}"
                    );
                    assert_eq!(
                        fast.peek_row(gid.bank, gid.subarray, gid.row).unwrap(),
                        reference.peek_row(gid.bank, gid.subarray, gid.row).unwrap(),
                        "row payload diverged at {gid:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn issue_batch_fast_path_matches_reference() {
        let mut fast = mem();
        let mut reference = mem();

        let mut batch = DecodedBatch::new(fast.config());
        mixed_chunk(&mut batch);
        let mut ref_batch = DecodedBatch::new(reference.config());
        mixed_chunk(&mut ref_batch);

        fast.issue_batch(&mut batch).unwrap();
        reference.issue_batch_reference(&mut ref_batch).unwrap();
        assert!(batch.is_empty() && ref_batch.is_empty());
        assert_same_end_state(&fast, &reference);

        // A second chunk on the same (already-dirty) state: the kernel
        // must pick up where the first chunk left the table.
        mixed_chunk(&mut batch);
        mixed_chunk(&mut ref_batch);
        fast.issue_batch(&mut batch).unwrap();
        reference.issue_batch_reference(&mut ref_batch).unwrap();
        assert_same_end_state(&fast, &reference);
    }

    #[test]
    fn issue_batch_full_mode_replays_per_command() {
        // The mixed chunk plus a last read of row 60 whose pre-decoded
        // index is row 100's: the kernel disturbs rows 99 and 101, the
        // per-command replay (which addresses by `row`) rows 59 and 61.
        // The end state thus shows which path `issue_batch` took.
        fn rigged_chunk(batch: &mut DecodedBatch) {
            use crate::batch::BatchOpKind as K;
            mixed_chunk(batch);
            batch.push(gid(100), K::Read, 0, None).unwrap();
            let decoy = batch.ops.pop().unwrap().flat;
            batch.push(gid(60), K::Read, 0, None).unwrap();
            batch.ops.last_mut().unwrap().flat = decoy;
        }
        let mut reference = mem();
        let mut batch = DecodedBatch::new(reference.config());
        rigged_chunk(&mut batch);
        reference.issue_batch_reference(&mut batch).unwrap();

        let mut full = mem();
        full.set_trace_mode(TraceMode::Full);
        rigged_chunk(&mut batch);
        full.issue_batch(&mut batch).unwrap();
        assert!(batch.is_empty());
        assert_same_end_state(&full, &reference);

        let mut kernel = mem();
        assert_eq!(kernel.trace_mode(), TraceMode::CountersOnly);
        rigged_chunk(&mut batch);
        kernel.issue_batch(&mut batch).unwrap();
        for row in [59, 61] {
            assert_eq!(
                kernel.disturbance(gid(row)) + 1,
                reference.disturbance(gid(row)),
                "the default mode did not run the kernel"
            );
        }
    }

    #[test]
    fn issue_batch_rejects_foreign_geometry() {
        let mut m = mem();
        let other = DramConfig::lpddr4_small().with_rows_per_subarray(64);
        let mut batch = DecodedBatch::new(&other);
        batch
            .push(gid(10), crate::batch::BatchOpKind::Read, 0, None)
            .unwrap();
        assert!(m.issue_batch(&mut batch).is_err());
    }

    #[test]
    fn issue_batch_preserves_defense_visible_state_across_interleaving() {
        // A chunk, then per-command defensive ops (swap + refresh), then
        // another chunk: the kernel must see the per-command mutations in
        // between.
        let mut fast = mem();
        let mut reference = mem();
        let mut batch = DecodedBatch::new(fast.config());
        let mut ref_batch = DecodedBatch::new(reference.config());

        mixed_chunk(&mut batch);
        mixed_chunk(&mut ref_batch);
        fast.issue_batch(&mut batch).unwrap();
        reference.issue_batch_reference(&mut ref_batch).unwrap();

        for m in [&mut fast, &mut reference] {
            m.swap_rows_via(
                BankId(0),
                SubarrayId(0),
                RowInSubarray(41),
                RowInSubarray(80),
                RowInSubarray(126),
            )
            .unwrap();
            m.refresh_row(gid(39)).unwrap();
        }

        mixed_chunk(&mut batch);
        mixed_chunk(&mut ref_batch);
        fast.issue_batch(&mut batch).unwrap();
        reference.issue_batch_reference(&mut ref_batch).unwrap();
        assert_same_end_state(&fast, &reference);
    }
}
