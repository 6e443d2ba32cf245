//! Trace-format pinning tests: the `decode ∘ encode = id` property over
//! arbitrary op streams, the version field's enforcement, and the
//! committed golden `corpus_v2.trace` — a fleet-day corpus sample —
//! freezing the chunked on-disk layout.

use std::io::Cursor;

use dd_dram::{DramConfig, GlobalRowId};
use dd_workload::{
    decode, encode, DiurnalProfile, OpKind, StreamingReplay, StreamingTraceReader, TraceReplay,
    WorkloadGenerator, WorkloadOp, TRACE_CHUNK_OPS, TRACE_VERSION,
};
use proptest::prelude::*;

proptest! {
    /// `decode(encode(ops)) == ops` for arbitrary streams, across chunk
    /// boundaries.
    #[test]
    fn v2_encode_decode_is_identity(
        raw in collection::vec((any::<bool>(), 0usize..16, 0usize..8, 0usize..4096), 0usize..1200),
    ) {
        let ops: Vec<WorkloadOp> = raw
            .iter()
            .map(|&(write, bank, subarray, row)| WorkloadOp {
                kind: if write { OpKind::Write } else { OpKind::Read },
                row: GlobalRowId::new(bank, subarray, row),
            })
            .collect();
        let bytes = encode(&ops);
        prop_assert_eq!(decode(&bytes).expect("round trip"), ops.clone());
        // The streaming reader agrees with the materializing decode,
        // chunk sizes never exceed the batch boundary, and the index
        // matches what actually streams out.
        let mut reader = StreamingTraceReader::open(Cursor::new(&bytes[..])).expect("open");
        prop_assert_eq!(reader.total_records(), ops.len() as u64);
        let mut streamed = Vec::new();
        let mut chunk = Vec::new();
        while reader.next_chunk(&mut chunk).expect("chunk") {
            prop_assert!(!chunk.is_empty() && chunk.len() <= TRACE_CHUNK_OPS);
            streamed.extend_from_slice(&chunk);
        }
        prop_assert_eq!(streamed, ops);
    }

    /// Any version field other than 2 fails decoding — traces from a
    /// retired or future format are never misread.
    #[test]
    fn version_field_is_enforced(version in any::<u16>()) {
        prop_assume!(version != TRACE_VERSION);
        prop_assert!(relabelled_is_refused(version));
    }
}

/// Whether a valid container relabelled as `version` is refused by both
/// the materializing decode and the streaming reader.
fn relabelled_is_refused(version: u16) -> bool {
    let ops = [WorkloadOp {
        kind: OpKind::Read,
        row: GlobalRowId::new(1, 1, 7),
    }];
    let mut bytes = encode(&ops);
    bytes[4..6].copy_from_slice(&version.to_le_bytes());
    decode(&bytes).is_err() && StreamingTraceReader::open(Cursor::new(&bytes[..])).is_err()
}

/// The versions a uniform draw almost never hits: the retired v1, its
/// neighbours, and a version whose low byte alone reads 2.
#[test]
fn neighbouring_versions_are_refused() {
    for version in [0, 1, 3, 0x0102] {
        assert!(relabelled_is_refused(version), "version {version} accepted");
    }
}

/// The fleet-day sample frozen in `tests/golden/corpus_v2.trace`.
/// Regenerate with `cargo test -p dd-workload --test trace_v2_format --
/// --ignored` if (and only if) the layout or the corpus recipe
/// deliberately changes.
fn golden_corpus_ops() -> Vec<WorkloadOp> {
    DiurnalProfile::fleet_day(0x0DAC_2024).sample_ops(&DramConfig::lpddr4_small(), 300)
}

#[test]
fn golden_corpus_trace_decodes_and_streams() {
    let bytes = include_bytes!("golden/corpus_v2.trace");
    let ops = decode(bytes).expect("golden trace must decode");
    assert_eq!(
        ops,
        golden_corpus_ops(),
        "the committed golden corpus trace no longer decodes to the pinned \
         fleet-day sample — the layout or corpus recipe changed; bump the \
         version (or deliberately regenerate) before shipping"
    );
    // Re-encoding reproduces the committed bytes exactly.
    assert_eq!(encode(&ops), bytes.to_vec());
    // Streaming replay and materialized replay agree op-for-op, cycling
    // included.
    let mut materialized = TraceReplay::new(ops.clone());
    let mut streaming =
        StreamingReplay::open(Cursor::new(bytes.to_vec()), &DramConfig::lpddr4_small())
            .expect("streaming replay");
    for i in 0..(ops.len() + 99) {
        assert_eq!(streaming.next_op(), materialized.next_op(), "op {i}");
    }
}

/// Writes the golden file. Ignored: run explicitly after a deliberate
/// format or corpus-recipe change.
#[test]
#[ignore = "regenerates the committed golden corpus trace"]
fn regenerate_golden_corpus_trace() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/corpus_v2.trace");
    std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
    std::fs::write(path, encode(&golden_corpus_ops())).unwrap();
}
