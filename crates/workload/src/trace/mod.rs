//! The compact binary workload-trace formats (record + replay).
//!
//! Any driver run can capture the exact benign op stream it executed and
//! replay it later byte-identically — across processes, machines, and
//! (as long as the version header matches) releases. Two on-disk layouts
//! share the `DDWT` magic and the 16-byte header:
//!
//! * [`v1`] — the original monolithic layout: header + `9 * n` fixed
//!   records. Exact, trivial to parse, kept readable forever; the golden
//!   file `tests/golden/benign_v1.trace` pins it.
//! * [`v2`] — the fleet-scale layout: records framed into chunks sized
//!   to the batched kernel's [`dd_dram::BATCH_CHUNK_OPS`] boundary, each
//!   chunk raw or varint-delta encoded, with a seekable chunk index
//!   footer so a [`v2::StreamingTraceReader`] can replay a day-long
//!   trace chunk-by-chunk without materializing it. The golden file
//!   `tests/golden/corpus_v2.trace` pins it.
//!
//! Decoding either version rejects bad magic, unknown versions,
//! truncated bodies, and trailing bytes — and is hardened against
//! *hostile* headers: record counts are validated against the actual
//! body length with overflow-checked arithmetic before any allocation,
//! so a crafted 16-byte file can neither wrap a length check nor force
//! a multi-GB pre-allocation. `tests/trace_hostile.rs` holds the
//! committed hostile corpus and the never-panic proptests.

use dd_dram::GlobalRowId;

use crate::generator::{OpKind, WorkloadGenerator, WorkloadOp};

pub mod v1;
pub mod v2;

pub use v1::{decode, encode, HEADER_BYTES, RECORD_BYTES, TRACE_MAGIC, TRACE_VERSION};
pub use v2::{encode_v2, StreamingReplay, StreamingTraceReader, TRACE_CHUNK_OPS, TRACE_VERSION_V2};

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

/// Decode a trace of either supported version, dispatching on the
/// header's version field ([`v1::decode`] or a materializing pass of
/// [`v2::StreamingTraceReader`]).
///
/// # Errors
///
/// Returns a [`TraceError`] on bad magic, an unsupported version, or any
/// version-specific decode failure.
pub fn decode_any(bytes: &[u8]) -> Result<Vec<WorkloadOp>, TraceError> {
    if bytes.len() < HEADER_BYTES {
        return Err(err(format!("truncated header: {} bytes", bytes.len())));
    }
    if bytes[0..4] != TRACE_MAGIC {
        return Err(err("bad magic (not a DDWT trace)"));
    }
    match u16::from_le_bytes([bytes[4], bytes[5]]) {
        TRACE_VERSION => v1::decode(bytes),
        TRACE_VERSION_V2 => v2::decode_v2(bytes),
        version => Err(err(format!(
            "unsupported trace version {version} (this build reads v{TRACE_VERSION} and \
             v{TRACE_VERSION_V2})"
        ))),
    }
}

/// Shared record-field validation: the encoders of both versions panic
/// identically when an address does not fit the record layout.
pub(crate) fn record_fields(op: &WorkloadOp) -> (u8, u16, u16, u32) {
    let bank = u16::try_from(op.row.bank.0).expect("bank exceeds trace format (u16)");
    let subarray = u16::try_from(op.row.subarray.0).expect("subarray exceeds trace format (u16)");
    let row = u32::try_from(op.row.row.0).expect("row exceeds trace format (u32)");
    let kind = match op.kind {
        OpKind::Read => 0,
        OpKind::Write => 1,
    };
    (kind, bank, subarray, row)
}

/// Shared inverse of [`record_fields`]. Always inlined: each chunk
/// decoder calls it once per op, where a call costs as much as its body.
#[inline(always)]
pub(crate) fn record_op(
    kind: u8,
    bank: u16,
    subarray: u16,
    row: u32,
) -> Result<WorkloadOp, TraceError> {
    let kind = match kind {
        0 => OpKind::Read,
        1 => OpKind::Write,
        k => return Err(err(format!("invalid op kind {k}"))),
    };
    Ok(WorkloadOp {
        kind,
        row: GlobalRowId::new(bank as usize, subarray as usize, row as usize),
    })
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

    /// Decode and replay a binary trace (either version; see
    /// [`decode_any`]).
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when the bytes do not decode or decode
    /// to an empty stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<TraceReplay, TraceError> {
        let ops = decode_any(bytes)?;
        if ops.is_empty() {
            return Err(err("trace holds no records"));
        }
        Ok(TraceReplay::new(ops))
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
    fn decode_any_dispatches_on_version() {
        let ops = ops();
        assert_eq!(decode_any(&encode(&ops)).expect("v1"), ops);
        assert_eq!(decode_any(&encode_v2(&ops, true)).expect("v2"), ops);
        assert_eq!(decode_any(&encode_v2(&ops, false)).expect("v2 raw"), ops);
        let mut future = encode(&ops);
        future[4..6].copy_from_slice(&3u16.to_le_bytes());
        assert!(decode_any(&future).is_err(), "future version accepted");
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

    #[test]
    fn from_bytes_reads_both_versions() {
        let mut a = TraceReplay::from_bytes(&encode(&ops())).expect("v1");
        let mut b = TraceReplay::from_bytes(&encode_v2(&ops(), true)).expect("v2");
        for _ in 0..5 {
            assert_eq!(a.next_op(), b.next_op());
        }
        assert!(TraceReplay::from_bytes(&encode(&[])).is_err(), "empty ok'd");
    }
}
