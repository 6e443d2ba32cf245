//! DRAM command protocol and issue counting.
//!
//! The memory controller drives the device with the classic command set
//! (§2.1): `ACT`, `PRE`, `RD`, `WR` — plus the RowClone `AAP` pair (two
//! back-to-back `ACT`s without an intervening `PRE`) that DNN-Defender's
//! swaps are built from. A [`CommandTrace`] counts issued commands per
//! kind, and a [`TraceMode`] picks how bulk replay issues them.

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

/// How bulk replay issues its commands.
///
/// The mode selects the path of
/// [`crate::MemoryController::issue_batch`] and of the workload driver
/// that feeds it. Both paths leave the device in the identical end
/// state, which `tests/kernel_differential.rs` checks by running every
/// case on a [`TraceMode::Full`] device and on a default one. Both keep
/// the same per-kind issue counters ([`CommandTrace`]); neither retains
/// the commands themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// The per-command reference: every batched op replays through the
    /// ordinary per-command methods
    /// ([`crate::MemoryController::issue_batch_reference`]), and the
    /// workload driver flushes after every op.
    Full,
    /// The batched kernel (the default).
    #[default]
    CountersOnly,
}

/// Per-kind issue counters of one controller.
#[derive(Debug, Clone, Default)]
pub struct CommandTrace {
    issued: u64,
    /// Issue counts per [`CommandKind`], indexed by discriminant order.
    kind_counts: [u64; 6],
}

impl CommandTrace {
    /// Count one issued command of `kind`.
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

    /// Total commands issued over the lifetime of the controller.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Total commands of `kind` issued over the lifetime of the
    /// controller.
    pub fn issued_of(&self, kind: CommandKind) -> u64 {
        self.kind_counts[kind as usize]
    }
}
