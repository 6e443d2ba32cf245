//! Hostile-input tests for the trace decoder, the hostile-header
//! pattern applied to the trace plane: arbitrary byte strings must
//! never panic, abort, or force absurd allocations in `decode` or
//! `StreamingTraceReader` — traces are inputs to a resident server, so a
//! crafted file aborting the process is a denial of service, not a
//! parse error.
//!
//! The committed corpus under `tests/hostile/` pins the concrete
//! exploits earlier decoders missed: a record count crafted to wrap
//! `count * 9` past the body-length check of the retired fixed-record
//! format v1, a giant count that pre-allocated gigabytes before
//! validation, a version whose *high* byte is set (the old test only
//! corrupted the low byte), and a container with its chunk index
//! truncated. Version 1 is now refused like any unknown version; the
//! files stay, and every entry point must still refuse them.

use std::io::Cursor;

use dd_workload::{decode, encode, StreamingTraceReader, HEADER_BYTES, TRACE_VERSION};
use proptest::prelude::*;

use dd_dram::GlobalRowId;
use dd_workload::{OpKind, WorkloadOp};

/// Bytes per record in the retired fixed-record format v1.
const V1_RECORD_BYTES: u64 = 9;

/// The container trailer: index offset, chunk count, footer magic.
const TRAILER_BYTES: usize = 20;

/// A valid container of `n` ops spread over a few banks.
fn container(n: usize) -> Vec<u8> {
    let ops: Vec<WorkloadOp> = (0..n)
        .map(|i| WorkloadOp {
            kind: OpKind::Read,
            row: GlobalRowId::new(i % 4, 0, i % 100),
        })
        .collect();
    encode(&ops)
}

/// Whether both entry points refuse `bytes` (a panic fails the test).
fn refused(bytes: &[u8]) -> bool {
    decode(bytes).is_err() && StreamingTraceReader::open(Cursor::new(bytes)).is_err()
}

proptest! {
    /// Fully arbitrary bytes: every decode entry point returns an error
    /// or a value — never a panic. (Panics fail the test; the allocation
    /// caps are exercised by the field-forging test below.)
    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0usize..2048)) {
        let _ = decode(&bytes);
        if let Ok(mut reader) = StreamingTraceReader::open(Cursor::new(&bytes[..])) {
            let mut chunk = Vec::new();
            while let Ok(true) = reader.next_chunk(&mut chunk) {}
        }
    }

    /// Arbitrary bytes behind a *valid-looking* header (magic + version
    /// 2): the deeper validation layers never panic either.
    #[test]
    fn arbitrary_bodies_never_panic(bytes in collection::vec(any::<u8>(), 16usize..2048)) {
        let mut bytes = bytes;
        bytes[0..4].copy_from_slice(b"DDWT");
        bytes[4..6].copy_from_slice(&TRACE_VERSION.to_le_bytes());
        let _ = decode(&bytes);
        if let Ok(mut reader) = StreamingTraceReader::open(Cursor::new(&bytes[..])) {
            let mut chunk = Vec::new();
            while let Ok(true) = reader.next_chunk(&mut chunk) {}
        }
    }

    /// A valid container with one framing field forged — the trailer's
    /// chunk count, the index offset, or the header's record count — is
    /// always refused. Each field takes a uniform draw (almost always a
    /// count whose 24-byte index size overflows, or an offset far past
    /// the file), two near misses, and the true value plus `lap × 2⁶¹`:
    /// for the chunk count, a count whose index size wraps a 64-bit
    /// multiply back onto the true one. Nothing proportional to a forged
    /// count may be allocated, which this asserts indirectly: a
    /// multi-exabyte reserve would abort long before the error returned.
    #[test]
    fn forged_framing_fields_are_rejected(
        n in 1usize..1200,
        forged in any::<u64>(),
        nudge in 1u64..64,
        lap in 1u64..8,
    ) {
        let good = container(n);
        let trailer = good.len() - TRAILER_BYTES;
        for (name, at) in [("chunk count", trailer + 8), ("index offset", trailer), ("record count", 8)] {
            let truth = u64::from_le_bytes(good[at..at + 8].try_into().unwrap());
            let forgeries = [
                forged,
                truth.wrapping_add(nudge),
                truth.wrapping_sub(nudge),
                truth.wrapping_add(lap << 61),
            ];
            for value in forgeries.into_iter().filter(|&v| v != truth) {
                let mut bytes = good.clone();
                bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
                prop_assert!(refused(&bytes), "{} forged to {} accepted", name, value);
            }
        }
    }
}

/// The committed hostile corpus: every file must be rejected by every
/// decode entry point, without panicking.
#[test]
fn committed_hostile_corpus_is_rejected() {
    let corpus: [(&str, &[u8]); 4] = [
        (
            "wrapped_count_v1.trace",
            include_bytes!("hostile/wrapped_count_v1.trace"),
        ),
        (
            "giant_count_v1.trace",
            include_bytes!("hostile/giant_count_v1.trace"),
        ),
        (
            "high_byte_version.trace",
            include_bytes!("hostile/high_byte_version.trace"),
        ),
        (
            "truncated_index_v2.trace",
            include_bytes!("hostile/truncated_index_v2.trace"),
        ),
    ];
    for (name, bytes) in corpus {
        assert!(refused(bytes), "{name}: accepted");
    }
    // The wrapped count is the exact release-mode exploit against v1:
    // 9 × count wraps a u64 to 2, matching the 2-byte body under the old
    // `body.len() != count * RECORD_BYTES` check.
    let wrapped: &[u8] = include_bytes!("hostile/wrapped_count_v1.trace");
    let count = u64::from_le_bytes(wrapped[8..16].try_into().unwrap());
    assert_eq!(count.wrapping_mul(V1_RECORD_BYTES), 2);
    assert_eq!(wrapped.len(), HEADER_BYTES + 2);
}

/// Writes the hostile corpus. Ignored: run explicitly if the corpus is
/// deliberately extended. The v1-era files are built by hand, byte for
/// byte as the retired v1 encoder laid them out.
#[test]
#[ignore = "regenerates the committed hostile corpus"]
fn regenerate_hostile_corpus() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/hostile");
    std::fs::create_dir_all(dir).unwrap();
    let header = |version: u16, count: u64| {
        let mut h = Vec::with_capacity(HEADER_BYTES);
        h.extend_from_slice(b"DDWT");
        h.extend_from_slice(&version.to_le_bytes());
        h.extend_from_slice(&0u16.to_le_bytes());
        h.extend_from_slice(&count.to_le_bytes());
        h
    };

    // count * 9 == 2^64 + 2, wrapping to 2 — the release-mode exploit.
    let wrap_count = (u64::MAX / V1_RECORD_BYTES) + 1;
    let mut wrapped = header(1, wrap_count);
    wrapped.extend_from_slice(&[0, 0]);
    std::fs::write(format!("{dir}/wrapped_count_v1.trace"), wrapped).unwrap();

    // u64::MAX records, no body: the old code reserved first.
    std::fs::write(format!("{dir}/giant_count_v1.trace"), header(1, u64::MAX)).unwrap();

    // A valid one-record v1 trace — a read of bank 1, subarray 1, row 7
    // as kind (u8), bank (LE u16), subarray (LE u16), row (LE u32) —
    // with the version's *high* byte set: version 0x0101 = 257.
    let mut high = header(0x0101, 1);
    high.extend_from_slice(&[0, 1, 0, 1, 0, 7, 0, 0, 0]);
    std::fs::write(format!("{dir}/high_byte_version.trace"), high).unwrap();

    // A valid container with the chunk index torn off mid-entry.
    let full = container(600);
    std::fs::write(
        format!("{dir}/truncated_index_v2.trace"),
        &full[..full.len() - 30],
    )
    .unwrap();
}
