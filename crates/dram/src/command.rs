//! DRAM command protocol and command tracing.
//!
//! The memory controller drives the device with the classic command set
//! (§2.1): `ACT`, `PRE`, `RD`, `WR` — plus the RowClone `AAP` pair (two
//! back-to-back `ACT`s without an intervening `PRE`) that DNN-Defender's
//! swaps are built from. A bounded [`CommandTrace`] records issued commands
//! for inspection in tests and experiments.

use crate::geometry::GlobalRowId;
use crate::timing::Nanos;

/// The kind of a DRAM bus command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Activate a row (open it into the row buffer).
    Act,
    /// Precharge the open row.
    Pre,
    /// Column read from the open row.
    Rd,
    /// Column write into the open row.
    Wr,
    /// RowClone copy: ACT(src), ACT(dst), PRE — counted as one fused op.
    RowClone,
    /// Per-row refresh (restores charge, clears the hammer count).
    Refresh,
}

/// One issued command with its target and issue timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCommand {
    /// What was issued.
    pub kind: CommandKind,
    /// Primary target row (for `RowClone` this is the *source*).
    pub target: GlobalRowId,
    /// Secondary row (`RowClone` destination), if any.
    pub aux: Option<GlobalRowId>,
    /// Simulated time at which the command was issued.
    pub at: Nanos,
}

/// How much work the controller spends on command tracing.
///
/// Tracing exists for tests and experiment forensics; replaying millions
/// of workload commands must not pay for it. The controller checks the
/// mode *before* building a [`DramCommand`], so
/// [`TraceMode::CountersOnly`] skips the struct construction entirely.
/// The scenario matrix and the workload driver replay in that mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Retain the most recent commands in the ring (the default).
    Full,
    /// Keep only per-kind issue counters — no commands are retained.
    CountersOnly,
}

/// A bounded ring of recently issued commands.
///
/// Keeps the last `capacity` commands; older entries are dropped. The
/// total issued count keeps counting regardless.
#[derive(Debug, Clone)]
pub struct CommandTrace {
    buf: Vec<DramCommand>,
    capacity: usize,
    head: usize,
    issued: u64,
    mode: TraceMode,
    /// Issue counts per [`CommandKind`], indexed by discriminant order.
    kind_counts: [u64; 6],
}

impl CommandTrace {
    /// Create a trace retaining up to `capacity` most recent commands.
    pub fn new(capacity: usize) -> Self {
        CommandTrace {
            buf: Vec::with_capacity(capacity.min(1024)),
            capacity,
            head: 0,
            issued: 0,
            mode: TraceMode::Full,
            kind_counts: [0; 6],
        }
    }

    /// Create a trace in `mode` (a counters-only trace allocates no ring).
    pub fn with_mode(mode: TraceMode) -> Self {
        let mut trace = CommandTrace::new(match mode {
            TraceMode::Full => 4096,
            TraceMode::CountersOnly => 0,
        });
        trace.mode = mode;
        trace
    }

    /// The current trace mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Switch the trace mode. Entering a cheaper mode drops the retained
    /// ring; counters always survive the switch.
    pub fn set_mode(&mut self, mode: TraceMode) {
        if mode != TraceMode::Full {
            self.buf = Vec::new();
            self.head = 0;
        }
        self.mode = mode;
    }

    /// Count one issued command of `kind` without retaining it (the
    /// [`TraceMode::CountersOnly`] fast path).
    pub fn count(&mut self, kind: CommandKind) {
        self.count_n(kind, 1);
    }

    /// Count `n` issued commands of `kind` in one step — the batched
    /// kernel accumulates per-kind totals over a whole chunk and credits
    /// them here once, instead of once per command.
    pub fn count_n(&mut self, kind: CommandKind, n: u64) {
        self.issued += n;
        self.kind_counts[kind as usize] += n;
    }

    /// Record a command.
    pub fn record(&mut self, cmd: DramCommand) {
        self.count(cmd.kind);
        if self.mode == TraceMode::CountersOnly || self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(cmd);
        } else {
            self.buf[self.head] = cmd;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Total commands issued over the lifetime of the trace.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Iterate over retained commands from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &DramCommand> {
        let (older, newer) = self.buf.split_at(self.head.min(self.buf.len()));
        newer.iter().chain(older.iter())
    }

    /// Number of retained commands.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no commands are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Count retained commands of a given kind.
    pub fn count_kind(&self, kind: CommandKind) -> usize {
        self.iter().filter(|c| c.kind == kind).count()
    }

    /// Total commands of `kind` issued over the lifetime of the trace
    /// (maintained in every mode).
    pub fn issued_of(&self, kind: CommandKind) -> u64 {
        self.kind_counts[kind as usize]
    }
}

impl Default for CommandTrace {
    fn default() -> Self {
        CommandTrace::new(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(kind: CommandKind, t: u128) -> DramCommand {
        DramCommand {
            kind,
            target: GlobalRowId::new(0, 0, 0),
            aux: None,
            at: Nanos(t),
        }
    }

    #[test]
    fn trace_retains_most_recent() {
        let mut tr = CommandTrace::new(3);
        for i in 0..5 {
            tr.record(cmd(CommandKind::Act, i));
        }
        assert_eq!(tr.issued(), 5);
        assert_eq!(tr.len(), 3);
        let times: Vec<u128> = tr.iter().map(|c| c.at.0).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_trace_counts_only() {
        let mut tr = CommandTrace::new(0);
        tr.record(cmd(CommandKind::Pre, 1));
        assert_eq!(tr.issued(), 1);
        assert!(tr.is_empty());
    }

    #[test]
    fn counters_only_counts_without_retaining() {
        let mut tr = CommandTrace::with_mode(TraceMode::CountersOnly);
        for i in 0..5 {
            tr.record(cmd(CommandKind::Act, i));
        }
        tr.record(cmd(CommandKind::Rd, 5));
        assert_eq!(tr.issued(), 6);
        assert_eq!(tr.issued_of(CommandKind::Act), 5);
        assert_eq!(tr.issued_of(CommandKind::Rd), 1);
        assert!(tr.is_empty());
    }

    #[test]
    fn mode_switch_drops_ring_keeps_counters() {
        let mut tr = CommandTrace::new(8);
        tr.record(cmd(CommandKind::Act, 0));
        tr.record(cmd(CommandKind::Wr, 1));
        assert_eq!(tr.len(), 2);
        tr.set_mode(TraceMode::CountersOnly);
        assert!(tr.is_empty());
        tr.record(cmd(CommandKind::Act, 2));
        assert_eq!(tr.issued(), 3);
        assert_eq!(tr.issued_of(CommandKind::Act), 2);
    }

    #[test]
    fn count_kind_filters() {
        let mut tr = CommandTrace::new(10);
        tr.record(cmd(CommandKind::Act, 0));
        tr.record(cmd(CommandKind::RowClone, 1));
        tr.record(cmd(CommandKind::Act, 2));
        assert_eq!(tr.count_kind(CommandKind::Act), 2);
        assert_eq!(tr.count_kind(CommandKind::RowClone), 1);
        assert_eq!(tr.count_kind(CommandKind::Wr), 0);
    }
}
