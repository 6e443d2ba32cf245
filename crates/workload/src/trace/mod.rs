//! The compact binary workload-trace format (record + replay).
//!
//! Any driver run can capture the exact benign op stream it executed and
//! replay it later byte-identically — across processes, machines, and
//! (as long as the version header matches) releases. [`v2`] holds the
//! one codec: records framed into chunks sized to the batched kernel's
//! [`dd_dram::BATCH_CHUNK_OPS`] boundary, each chunk varint-delta
//! encoded, with a seekable chunk index footer so a
//! [`v2::StreamingTraceReader`] can replay a day-long trace
//! chunk-by-chunk without materializing it. [`encode`] writes a
//! container and [`decode`] reads one back whole; the golden file
//! `tests/golden/corpus_v2.trace` pins the layout.
//!
//! Decoding rejects bad magic, unknown versions (the retired fixed-record
//! version 1 included), truncated bodies, and trailing bytes — and is
//! hardened against *hostile* headers: record counts, chunk counts and
//! offsets are validated against the actual container length with
//! overflow-checked arithmetic before any allocation, so a crafted file
//! can neither wrap a length check nor force a multi-GB pre-allocation.
//! `tests/trace_hostile.rs` holds the committed hostile corpus and the
//! never-panic proptests.

use crate::generator::{WorkloadGenerator, WorkloadOp};

pub mod v2;

pub use v2::{
    decode, encode, StreamingReplay, StreamingTraceReader, HEADER_BYTES, TRACE_CHUNK_OPS,
    TRACE_MAGIC, TRACE_VERSION,
};

/// Why a trace failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace error: {}", self.message)
    }
}

impl std::error::Error for TraceError {}

pub(crate) fn err(message: impl Into<String>) -> TraceError {
    TraceError {
        message: message.into(),
    }
}

/// Replay a recorded op stream as a [`WorkloadGenerator`].
///
/// The stream cycles when exhausted, so a short trace can back an
/// arbitrarily long run; [`TraceReplay::exhausted`] tells a driver that
/// wants exactly one pass when to stop. For traces too large to
/// materialize, use [`v2::StreamingReplay`] instead — the two are
/// bit-identical over the same op stream.
pub struct TraceReplay {
    ops: Vec<WorkloadOp>,
    pos: usize,
    laps: u64,
}

impl TraceReplay {
    /// Replay `ops` from the start.
    ///
    /// # Panics
    ///
    /// Panics when `ops` is empty.
    pub fn new(ops: Vec<WorkloadOp>) -> Self {
        assert!(!ops.is_empty(), "cannot replay an empty trace");
        TraceReplay {
            ops,
            pos: 0,
            laps: 0,
        }
    }

    /// Whether at least one full pass over the trace has been replayed.
    pub fn exhausted(&self) -> bool {
        self.laps > 0
    }

    /// Number of records in the trace.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Always `false`: construction rejects empty traces, so a live
    /// replay holds at least one record. (Kept so `len`/`is_empty` form
    /// the usual pair; the constructor is where emptiness is handled.)
    pub fn is_empty(&self) -> bool {
        debug_assert!(!self.ops.is_empty(), "TraceReplay invariant violated");
        false
    }
}

impl WorkloadGenerator for TraceReplay {
    fn label(&self) -> &str {
        "trace-replay"
    }

    fn next_op(&mut self) -> WorkloadOp {
        let op = self.ops[self.pos];
        self.pos += 1;
        if self.pos == self.ops.len() {
            self.pos = 0;
            self.laps += 1;
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::OpKind;
    use dd_dram::GlobalRowId;

    fn ops() -> Vec<WorkloadOp> {
        vec![
            WorkloadOp {
                kind: OpKind::Read,
                row: GlobalRowId::new(0, 0, 0),
            },
            WorkloadOp {
                kind: OpKind::Write,
                row: GlobalRowId::new(15, 7, 125),
            },
            WorkloadOp {
                kind: OpKind::Read,
                row: GlobalRowId::new(3, 2, 1),
            },
        ]
    }

    #[test]
    fn replay_cycles_and_reports_exhaustion() {
        let mut replay = TraceReplay::new(ops());
        assert_eq!(replay.len(), 3);
        assert!(!replay.is_empty());
        let first: Vec<WorkloadOp> = (0..3).map(|_| replay.next_op()).collect();
        assert_eq!(first, ops());
        assert!(replay.exhausted());
        assert_eq!(replay.next_op(), ops()[0], "replay must cycle");
    }
}
