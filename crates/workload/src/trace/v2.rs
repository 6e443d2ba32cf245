//! The trace container: chunked, indexed, streamable.
//!
//! Records are framed into chunks sized to the batched kernel's
//! [`dd_dram::BATCH_CHUNK_OPS`] boundary, so one streamed chunk maps 1:1
//! onto one `DecodedBatch` issue, and a chunk index footer makes the
//! container seekable without scanning:
//!
//! ```text
//! offset          size   field
//! 0               4      magic  b"DDWT"
//! 4               2      version (LE u16, 2)
//! 6               2      flags (LE u16; bit 0 = delta encoding, always set)
//! 8               8      total record count (LE u64)
//! 16              ...    chunks, back to back:
//!                          u32 LE  record count (1 ..= TRACE_CHUNK_OPS)
//!                          u8      encoding (1 = delta varint)
//!                          bytes   payload
//! index_offset    24*c   chunk index, one entry per chunk:
//!                          u64 LE  absolute chunk offset
//!                          u64 LE  chunk byte length (header + payload)
//!                          u64 LE  chunk record count
//! EOF-20          20     trailer:
//!                          u64 LE  index_offset
//!                          u64 LE  chunk count
//!                          4       footer magic b"DDX2"
//! ```
//!
//! A payload stores, per record, the `kind` byte (0 = read, 1 = write)
//! followed by zigzag-LEB128 varints of the `(bank, subarray, row)`
//! deltas against the previous record; the "previous record" resets to
//! `(0, 0, 0)` at each chunk start, so every chunk decodes independently
//! — that is what makes the index seekable. Benign traffic revisits
//! nearby rows constantly, so deltas are small and most records take 4
//! bytes. Version 1 (fixed 9-byte records, no chunks) and the raw chunk
//! encoding (byte 0) are retired: both are refused like any unknown
//! version or encoding.
//!
//! Decoding treats every length and count in the container as hostile:
//! offsets and counts are cross-checked against the actual byte ranges
//! with overflow-checked arithmetic before any allocation, and no
//! allocation exceeds what the validated bytes can hold.

use std::io::{Cursor, Read, Seek, SeekFrom};

use dd_dram::{DramConfig, GlobalRowId, BATCH_CHUNK_OPS};

use super::{err, TraceError};
use crate::generator::{OpKind, WorkloadGenerator, WorkloadOp};
use crate::rows::RowSet;

/// File magic: "DNN-Defender Workload Trace".
pub const TRACE_MAGIC: [u8; 4] = *b"DDWT";

/// The container format version.
pub const TRACE_VERSION: u16 = 2;

/// Header size in bytes: magic, version, flags, total record count.
pub const HEADER_BYTES: usize = 16;

/// Records per chunk: the batched replay plane's chunk boundary, so a
/// streamed chunk feeds exactly one `DecodedBatch` issue.
pub const TRACE_CHUNK_OPS: usize = BATCH_CHUNK_OPS;

/// Footer magic closing the chunk index trailer.
pub const TRACE_INDEX_MAGIC: [u8; 4] = *b"DDX2";

/// Bytes per chunk-index entry (offset, byte length, record count).
const INDEX_ENTRY_BYTES: usize = 24;

/// Trailer size: index offset + chunk count + footer magic.
const TRAILER_BYTES: usize = 20;

/// Per-chunk header: LE u32 record count + encoding byte.
const CHUNK_HEADER_BYTES: usize = 5;

/// The smallest encoded record: the kind byte and three one-byte
/// varints.
const MIN_RECORD_BYTES: usize = 4;

/// Flag bit 0: the chunks are delta-encoded.
const FLAG_DELTA: u16 = 1;

/// The one chunk payload encoding.
const ENC_DELTA: u8 = 1;

// --- record fields ----------------------------------------------------

/// Split an op into its record fields, panicking as [`encode`]
/// documents when an address does not fit.
fn record_fields(op: &WorkloadOp) -> (u8, u16, u16, u32) {
    let bank = u16::try_from(op.row.bank.0).expect("bank exceeds trace format (u16)");
    let subarray = u16::try_from(op.row.subarray.0).expect("subarray exceeds trace format (u16)");
    let row = u32::try_from(op.row.row.0).expect("row exceeds trace format (u32)");
    let kind = match op.kind {
        OpKind::Read => 0,
        OpKind::Write => 1,
    };
    (kind, bank, subarray, row)
}

/// Inverse of [`record_fields`]. Always inlined: the chunk decoder
/// calls it once per op, where a call costs as much as its body.
#[inline(always)]
fn record_op(kind: u8, bank: u16, subarray: u16, row: u32) -> Result<WorkloadOp, TraceError> {
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

// --- varint codec -----------------------------------------------------

/// Zigzag-map a signed delta onto an unsigned LEB128 payload.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append an LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an LEB128 varint, rejecting truncation and >64-bit values.
///
/// Always inlined: the streaming decoder calls it three times per op, and
/// an out-of-line call costs more than the decode itself.
#[inline(always)]
fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes
            .get(*pos)
            .ok_or_else(|| err("truncated varint in delta chunk"))?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(err("varint overflows u64 in delta chunk"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

// --- encoder ----------------------------------------------------------

/// Encode an op stream into the chunked container, each chunk's
/// addresses zigzag-varint encoded against the previous record (reset
/// per chunk).
///
/// # Panics
///
/// Panics when an address does not fit the record layout (bank or
/// subarray ≥ 2¹⁶, row ≥ 2³²) — silently truncating would break the
/// round-trip guarantee, and no simulated device is anywhere near these
/// bounds.
pub fn encode(ops: &[WorkloadOp]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + ops.len() * MIN_RECORD_BYTES + TRAILER_BYTES);
    out.extend_from_slice(&TRACE_MAGIC);
    out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
    out.extend_from_slice(&FLAG_DELTA.to_le_bytes());
    out.extend_from_slice(&(ops.len() as u64).to_le_bytes());

    let mut index: Vec<(u64, u64, u64)> = Vec::new();
    for chunk in ops.chunks(TRACE_CHUNK_OPS) {
        let start = out.len();
        out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        out.push(ENC_DELTA);
        let (mut pb, mut ps, mut pr) = (0i64, 0i64, 0i64);
        for op in chunk {
            let (kind, bank, subarray, row) = record_fields(op);
            out.push(kind);
            put_varint(&mut out, zigzag(i64::from(bank) - pb));
            put_varint(&mut out, zigzag(i64::from(subarray) - ps));
            put_varint(&mut out, zigzag(i64::from(row) - pr));
            (pb, ps, pr) = (i64::from(bank), i64::from(subarray), i64::from(row));
        }
        index.push((start as u64, (out.len() - start) as u64, chunk.len() as u64));
    }

    let index_offset = out.len() as u64;
    for (offset, len, count) in &index {
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
    }
    out.extend_from_slice(&index_offset.to_le_bytes());
    out.extend_from_slice(&(index.len() as u64).to_le_bytes());
    out.extend_from_slice(&TRACE_INDEX_MAGIC);
    out
}

// --- streaming reader -------------------------------------------------

/// One validated chunk-index entry.
#[derive(Debug, Clone, Copy)]
struct ChunkEntry {
    offset: u64,
    len: u64,
    count: u64,
}

/// Streaming decoder for the trace container.
///
/// `open` reads only the header, trailer, and chunk index — O(chunks),
/// not O(records) — and validates every offset and count against the
/// actual byte ranges before trusting them. [`Self::next_chunk`] then
/// yields ops one chunk at a time (at most [`TRACE_CHUNK_OPS`] per
/// call), so a day-long trace replays without being materialized.
///
/// All decode paths return [`TraceError`] on hostile or corrupt input;
/// none panic or over-allocate.
pub struct StreamingTraceReader<R: Read + Seek> {
    reader: R,
    index: Vec<ChunkEntry>,
    total_records: u64,
    next_chunk: usize,
    scratch: Vec<u8>,
}

impl<R: Read + Seek> StreamingTraceReader<R> {
    /// Parse and validate the container framing of `reader`.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on IO failure, bad magic (header or
    /// footer), an unsupported version, unknown flag bits, or any
    /// inconsistency between the chunk index and the byte ranges it
    /// describes (out-of-bounds or overlapping chunks, counts over the
    /// chunk cap, or a count sum that disagrees with the header).
    pub fn open(mut reader: R) -> Result<Self, TraceError> {
        let file_len = reader
            .seek(SeekFrom::End(0))
            .map_err(|e| err(format!("seek failed: {e}")))?;
        let min_len = (HEADER_BYTES + TRAILER_BYTES) as u64;
        if file_len < min_len {
            return Err(err(format!(
                "container is {file_len} bytes, below the {min_len}-byte minimum"
            )));
        }

        let mut header = [0u8; HEADER_BYTES];
        read_at(&mut reader, 0, &mut header)?;
        if header[0..4] != TRACE_MAGIC {
            return Err(err("bad magic (not a DDWT trace)"));
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != TRACE_VERSION {
            return Err(err(format!(
                "unsupported trace version {version} (expected {TRACE_VERSION})"
            )));
        }
        let flags = u16::from_le_bytes([header[6], header[7]]);
        if flags & !FLAG_DELTA != 0 {
            return Err(err(format!("unknown flag bits {flags:#06x}")));
        }
        let total_records = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));

        let mut trailer = [0u8; TRAILER_BYTES];
        read_at(&mut reader, file_len - TRAILER_BYTES as u64, &mut trailer)?;
        if trailer[16..20] != TRACE_INDEX_MAGIC {
            return Err(err("bad footer magic (chunk index trailer missing)"));
        }
        let index_offset = u64::from_le_bytes(trailer[0..8].try_into().expect("8 bytes"));
        let chunk_count = u64::from_le_bytes(trailer[8..16].try_into().expect("8 bytes"));

        // The index must sit exactly between the last chunk and the
        // trailer; checked arithmetic keeps a hostile chunk count from
        // wrapping this bound.
        let index_bytes = usize::try_from(chunk_count)
            .ok()
            .and_then(|c| c.checked_mul(INDEX_ENTRY_BYTES))
            .ok_or_else(|| {
                err(format!(
                    "chunk count {chunk_count} overflows the index size"
                ))
            })?;
        let index_end = index_offset
            .checked_add(index_bytes as u64)
            .ok_or_else(|| err("chunk index extends past the end of the container"))?;
        if index_offset < HEADER_BYTES as u64 || index_end != file_len - TRAILER_BYTES as u64 {
            return Err(err(format!(
                "chunk index [{index_offset}, {index_end}) does not fit the container"
            )));
        }

        // `index_bytes` is bounded by the real file size via the check
        // above, so this allocation is at most the on-disk index size.
        let mut raw_index = vec![0u8; index_bytes];
        read_at(&mut reader, index_offset, &mut raw_index)?;
        let mut index = Vec::with_capacity(index_bytes / INDEX_ENTRY_BYTES);
        let mut expected_offset = HEADER_BYTES as u64;
        let mut record_sum = 0u64;
        for entry in raw_index.chunks_exact(INDEX_ENTRY_BYTES) {
            let offset = u64::from_le_bytes(entry[0..8].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(entry[8..16].try_into().expect("8 bytes"));
            let count = u64::from_le_bytes(entry[16..24].try_into().expect("8 bytes"));
            if offset != expected_offset {
                return Err(err(format!(
                    "chunk at offset {offset} is not contiguous (expected {expected_offset})"
                )));
            }
            if count == 0 || count > TRACE_CHUNK_OPS as u64 {
                return Err(err(format!(
                    "chunk record count {count} outside 1..={TRACE_CHUNK_OPS}"
                )));
            }
            if len < CHUNK_HEADER_BYTES as u64 {
                return Err(err(format!("chunk length {len} below the chunk header")));
            }
            expected_offset = offset
                .checked_add(len)
                .filter(|&end| end <= index_offset)
                .ok_or_else(|| err(format!("chunk at offset {offset} overruns the index")))?;
            record_sum = record_sum
                .checked_add(count)
                .ok_or_else(|| err("chunk record counts overflow"))?;
            index.push(ChunkEntry { offset, len, count });
        }
        if expected_offset != index_offset {
            return Err(err(format!(
                "chunks end at {expected_offset} but the index starts at {index_offset}"
            )));
        }
        if record_sum != total_records {
            return Err(err(format!(
                "index holds {record_sum} records but the header declares {total_records}"
            )));
        }

        Ok(StreamingTraceReader {
            reader,
            index,
            total_records,
            next_chunk: 0,
            scratch: Vec::new(),
        })
    }

    /// Total records across all chunks (validated against the index).
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Number of chunks in the container.
    pub fn chunk_count(&self) -> usize {
        self.index.len()
    }

    /// Rewind to the first chunk.
    pub fn rewind(&mut self) {
        self.next_chunk = 0;
    }

    /// Decode the next chunk into `out` (cleared first), returning
    /// `Ok(false)` when the trace is exhausted. At most
    /// [`TRACE_CHUNK_OPS`] ops are appended per call.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on IO failure or when the chunk's
    /// payload disagrees with its validated index entry (bad encoding
    /// byte, truncated or oversize payload, invalid op kind, or a delta
    /// that walks an address out of the record layout).
    pub fn next_chunk(&mut self, out: &mut Vec<WorkloadOp>) -> Result<bool, TraceError> {
        out.clear();
        let Some(&entry) = self.index.get(self.next_chunk) else {
            return Ok(false);
        };
        self.next_chunk += 1;

        // The entry's byte range was validated against the real file
        // size at open(), so this scratch buffer is bounded by on-disk
        // bytes, never by a hostile count alone.
        self.scratch.resize(entry.len as usize, 0);
        read_at(&mut self.reader, entry.offset, &mut self.scratch)?;
        let declared = u32::from_le_bytes(self.scratch[0..4].try_into().expect("4 bytes")) as u64;
        if declared != entry.count {
            return Err(err(format!(
                "chunk header declares {declared} records but the index says {}",
                entry.count
            )));
        }
        let encoding = self.scratch[4];
        if encoding != ENC_DELTA {
            return Err(err(format!("unknown chunk encoding {encoding}")));
        }
        let payload = &self.scratch[CHUNK_HEADER_BYTES..];
        let count = entry.count as usize;
        out.reserve(count.min(TRACE_CHUNK_OPS));
        let mut pos = 0usize;
        let (mut pb, mut ps, mut pr) = (0i64, 0i64, 0i64);
        for _ in 0..count {
            let &kind = payload
                .get(pos)
                .ok_or_else(|| err("truncated record in delta chunk"))?;
            pos += 1;
            let db = unzigzag(get_varint(payload, &mut pos)?);
            let ds = unzigzag(get_varint(payload, &mut pos)?);
            let dr = unzigzag(get_varint(payload, &mut pos)?);
            let bank = pb
                .checked_add(db)
                .and_then(|v| u16::try_from(v).ok())
                .ok_or_else(|| err("delta walks bank out of range"))?;
            let subarray = ps
                .checked_add(ds)
                .and_then(|v| u16::try_from(v).ok())
                .ok_or_else(|| err("delta walks subarray out of range"))?;
            let row = pr
                .checked_add(dr)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| err("delta walks row out of range"))?;
            out.push(record_op(kind, bank, subarray, row)?);
            (pb, ps, pr) = (i64::from(bank), i64::from(subarray), i64::from(row));
        }
        if pos != payload.len() {
            return Err(err(format!(
                "delta chunk has {} trailing bytes",
                payload.len() - pos
            )));
        }
        Ok(true)
    }
}

/// Seek + read-exact with IO errors mapped onto [`TraceError`].
fn read_at<R: Read + Seek>(reader: &mut R, offset: u64, buf: &mut [u8]) -> Result<(), TraceError> {
    reader
        .seek(SeekFrom::Start(offset))
        .map_err(|e| err(format!("seek to {offset} failed: {e}")))?;
    reader.read_exact(buf).map_err(|e| {
        err(format!(
            "read of {} bytes at {offset} failed: {e}",
            buf.len()
        ))
    })
}

/// Decode a whole container into memory: a materializing pass of
/// [`StreamingTraceReader`], so `decode(&encode(ops)) == ops`.
///
/// # Errors
///
/// Returns any [`StreamingTraceReader`] decode error.
pub fn decode(bytes: &[u8]) -> Result<Vec<WorkloadOp>, TraceError> {
    let mut reader = StreamingTraceReader::open(Cursor::new(bytes))?;
    // total_records was validated against the per-chunk sums, which are
    // themselves bounded by real on-disk chunk bytes.
    let mut ops = Vec::with_capacity(
        usize::try_from(reader.total_records())
            .unwrap_or(usize::MAX)
            .min(bytes.len() / MIN_RECORD_BYTES),
    );
    let mut chunk = Vec::new();
    while reader.next_chunk(&mut chunk)? {
        ops.extend_from_slice(&chunk);
    }
    Ok(ops)
}

// --- streaming replay -------------------------------------------------

/// Replay a trace container as a [`WorkloadGenerator`] without ever
/// materializing it — the streaming counterpart of
/// [`super::TraceReplay`], bit-identical over the same op stream.
///
/// Construction makes one full validating pass over every chunk (also
/// collecting the set of rows touched, so a driver can derive the benign
/// universe), then rewinds; after that,
/// [`Self::next_op`] holds at most one chunk in memory and cycles when
/// the trace is exhausted.
pub struct StreamingReplay<R: Read + Seek> {
    reader: StreamingTraceReader<R>,
    buf: Vec<WorkloadOp>,
    pos: usize,
    laps: u64,
    rows: RowSet,
}

impl<R: Read + Seek> StreamingReplay<R> {
    /// Open and fully validate a container for replay on `config`'s
    /// device.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when the container fails to decode
    /// (any [`StreamingTraceReader`] error) or holds no records.
    pub fn open(reader: R, config: &DramConfig) -> Result<Self, TraceError> {
        let mut reader = StreamingTraceReader::open(reader)?;
        if reader.total_records() == 0 {
            return Err(err("trace holds no records"));
        }
        // Validating pass: decode every chunk once so replay can treat
        // later decode failures as impossible, and collect the row
        // universe while we are at it.
        let mut rows = RowSet::new(config);
        let mut chunk = Vec::new();
        while reader.next_chunk(&mut chunk)? {
            for op in &chunk {
                rows.insert_row(config, op.row);
            }
        }
        reader.rewind();
        Ok(StreamingReplay {
            reader,
            buf: Vec::new(),
            pos: 0,
            laps: 0,
            rows,
        })
    }

    /// The rows the trace touches.
    pub fn rows(&self) -> &RowSet {
        &self.rows
    }

    /// Total records in one pass of the trace.
    pub fn len(&self) -> u64 {
        self.reader.total_records()
    }

    /// Always `false`: [`Self::open`] rejects empty containers, the
    /// same contract as [`super::TraceReplay::is_empty`].
    pub fn is_empty(&self) -> bool {
        debug_assert!(self.reader.total_records() > 0, "invariant violated");
        false
    }

    /// Whether at least one full pass has been replayed.
    pub fn exhausted(&self) -> bool {
        self.laps > 0
    }
}

impl<R: Read + Seek + Send> WorkloadGenerator for StreamingReplay<R> {
    fn label(&self) -> &str {
        "trace-replay-streaming"
    }

    /// # Panics
    ///
    /// The container was fully validated at [`Self::open`], so decode
    /// errors cannot recur; this panics only if the underlying reader
    /// fails *after* validation (e.g. the file is truncated mid-run),
    /// which is unrecoverable for an infallible generator.
    fn next_op(&mut self) -> WorkloadOp {
        while self.pos == self.buf.len() {
            self.pos = 0;
            let more = self
                .reader
                .next_chunk(&mut self.buf)
                .expect("validated trace failed mid-replay");
            if !more {
                self.reader.rewind();
                self.laps += 1;
            }
        }
        let op = self.buf[self.pos];
        self.pos += 1;
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceReplay;

    fn big_ops(n: usize) -> Vec<WorkloadOp> {
        (0..n)
            .map(|i| WorkloadOp {
                kind: if i % 3 == 0 {
                    OpKind::Write
                } else {
                    OpKind::Read
                },
                row: GlobalRowId::new(i % 8, (i / 3) % 4, (i * 37) % 1000),
            })
            .collect()
    }

    #[test]
    fn round_trips_across_chunk_boundaries() {
        for n in [
            0,
            1,
            TRACE_CHUNK_OPS - 1,
            TRACE_CHUNK_OPS,
            TRACE_CHUNK_OPS + 1,
            1300,
        ] {
            let ops = big_ops(n);
            assert_eq!(decode(&encode(&ops)).expect("decode"), ops, "n={n}");
        }
    }

    #[test]
    fn local_traffic_takes_four_bytes_a_record() {
        // Benign-like traffic: every delta fits one varint byte, except
        // each chunk's first row (100 from the reset predictor), which
        // takes two.
        let ops: Vec<WorkloadOp> = (0..2000)
            .map(|i| WorkloadOp {
                kind: OpKind::Read,
                row: GlobalRowId::new(0, 0, 100 + (i % 7)),
            })
            .collect();
        let chunks = ops.len().div_ceil(TRACE_CHUNK_OPS);
        assert_eq!(
            encode(&ops).len(),
            HEADER_BYTES
                + ops.len() * MIN_RECORD_BYTES
                + chunks * (CHUNK_HEADER_BYTES + 1 + INDEX_ENTRY_BYTES)
                + TRAILER_BYTES
        );
    }

    #[test]
    fn streaming_reader_yields_batch_sized_chunks() {
        let ops = big_ops(TRACE_CHUNK_OPS * 2 + 17);
        let bytes = encode(&ops);
        let mut reader = StreamingTraceReader::open(Cursor::new(&bytes[..])).expect("open");
        assert_eq!(reader.total_records(), ops.len() as u64);
        assert_eq!(reader.chunk_count(), 3);
        let mut chunk = Vec::new();
        let mut all = Vec::new();
        let mut sizes = Vec::new();
        while reader.next_chunk(&mut chunk).expect("chunk") {
            sizes.push(chunk.len());
            all.extend_from_slice(&chunk);
        }
        assert_eq!(sizes, vec![TRACE_CHUNK_OPS, TRACE_CHUNK_OPS, 17]);
        assert_eq!(all, ops);
        // Rewind replays from the top.
        reader.rewind();
        assert!(reader.next_chunk(&mut chunk).expect("chunk"));
        assert_eq!(chunk, ops[..TRACE_CHUNK_OPS]);
    }

    #[test]
    fn streaming_replay_matches_materialized_replay() {
        let ops = big_ops(TRACE_CHUNK_OPS + 100);
        let bytes = encode(&ops);
        let mut streaming =
            StreamingReplay::open(Cursor::new(bytes.clone()), &DramConfig::lpddr4_small())
                .expect("open");
        let mut materialized = TraceReplay::new(decode(&bytes).expect("decode"));
        assert_eq!(streaming.len(), ops.len() as u64);
        assert!(!streaming.is_empty());
        // Two full laps plus a bit: cycling must agree too.
        for i in 0..(ops.len() * 2 + 31) {
            assert_eq!(streaming.next_op(), materialized.next_op(), "op {i}");
        }
        assert!(streaming.exhausted());
    }

    #[test]
    fn streaming_replay_collects_the_trace_row_set() {
        let config = DramConfig::lpddr4_small();
        let rows = [
            GlobalRowId::new(1, 0, 5),
            GlobalRowId::new(0, 0, 9),
            GlobalRowId::new(1, 0, 5),
            GlobalRowId::new(0, 0, 128),
        ];
        let ops: Vec<WorkloadOp> = rows
            .iter()
            .map(|&row| WorkloadOp {
                kind: OpKind::Read,
                row,
            })
            .collect();
        let replay = StreamingReplay::open(Cursor::new(encode(&ops)), &config).expect("open");
        assert_eq!(replay.rows(), &RowSet::of(&config, rows));
        assert_eq!(replay.rows().len(), 3);
        assert_eq!(replay.rows().outside(), 1);
    }

    #[test]
    fn empty_container_round_trips_but_cannot_replay() {
        let bytes = encode(&[]);
        assert_eq!(decode(&bytes).expect("decode"), vec![]);
        assert!(StreamingReplay::open(Cursor::new(bytes), &DramConfig::lpddr4_small()).is_err());
    }

    #[test]
    fn corrupt_containers_are_rejected() {
        let ops = big_ops(700);
        let good = encode(&ops);
        let refused_at_open =
            |bytes: &[u8]| StreamingTraceReader::open(Cursor::new(bytes)).is_err();

        // Truncated chunk index / trailer.
        for cut in [1, TRAILER_BYTES, TRAILER_BYTES + 10] {
            assert!(
                refused_at_open(&good[..good.len() - cut]),
                "cut {cut} accepted"
            );
        }

        // Trailing bytes after the trailer.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(refused_at_open(&trailing), "trailing byte accepted");

        // Header or footer magic damaged.
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(refused_at_open(&bad_magic), "bad magic accepted");
        let mut bad_footer = good.clone();
        let n = bad_footer.len();
        bad_footer[n - 1] = b'?';
        assert!(refused_at_open(&bad_footer), "bad footer accepted");

        // High-byte version (256 + 2): the low-byte-only check would
        // miss this.
        let mut high_version = good.clone();
        high_version[5] = 1;
        assert!(refused_at_open(&high_version), "version 258 accepted");

        // Header count disagrees with the index.
        let mut bad_count = good.clone();
        bad_count[8..16].copy_from_slice(&9999u64.to_le_bytes());
        assert!(refused_at_open(&bad_count), "header count accepted");

        // Unknown flag bits.
        let mut bad_flags = good.clone();
        bad_flags[6] = 0xfe;
        assert!(refused_at_open(&bad_flags), "unknown flags accepted");

        // Unknown chunk encodings, the retired raw encoding (0)
        // included, and an invalid op kind: the framing is intact, so
        // the first chunk fails to decode.
        let first_record = HEADER_BYTES + CHUNK_HEADER_BYTES;
        for (at, byte) in [
            (HEADER_BYTES + 4, 0),
            (HEADER_BYTES + 4, 9),
            (first_record, 7),
        ] {
            let mut bad = good.clone();
            bad[at] = byte;
            let mut r = StreamingTraceReader::open(Cursor::new(&bad[..])).expect("framing ok");
            assert!(
                r.next_chunk(&mut Vec::new()).is_err(),
                "byte {byte} at {at} accepted"
            );
            assert!(decode(&bad).is_err(), "byte {byte} at {at} decoded");
        }

        // Zero-length container and bare header.
        assert!(refused_at_open(&[]));
        assert!(refused_at_open(&good[..HEADER_BYTES]));
    }

    #[test]
    fn raw_chunks_are_refused() {
        // A well-framed container holding one chunk in the retired raw
        // encoding (byte 0, fixed 9-byte records), as earlier writers
        // produced it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&TRACE_MAGIC);
        bytes.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&[1, 3, 0, 1, 0, 42, 0, 0, 0]);
        let index_offset = bytes.len() as u64;
        let chunk_len = index_offset - HEADER_BYTES as u64;
        for field in [HEADER_BYTES as u64, chunk_len, 1, index_offset, 1] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        bytes.extend_from_slice(&TRACE_INDEX_MAGIC);

        let mut reader = StreamingTraceReader::open(Cursor::new(&bytes[..])).expect("framing ok");
        assert!(reader.next_chunk(&mut Vec::new()).is_err());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    #[should_panic(expected = "row exceeds trace format")]
    fn encode_rejects_rows_beyond_the_record_layout() {
        encode(&[WorkloadOp {
            kind: OpKind::Read,
            row: GlobalRowId::new(0, 0, 1 << 33),
        }]);
    }

    #[test]
    fn varint_codec_round_trips() {
        for v in [0i64, 1, -1, 63, -64, 300, -300, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            put_varint(&mut buf, zigzag(v));
            let mut pos = 0;
            assert_eq!(unzigzag(get_varint(&buf, &mut pos).expect("varint")), v);
            assert_eq!(pos, buf.len());
        }
        // Truncated and overlong varints are rejected.
        assert!(get_varint(&[0x80], &mut 0).is_err());
        assert!(get_varint(&[0xff; 11], &mut 0).is_err());
    }
}
