//! Wire-protocol robustness (ISSUE 9 satellite).
//!
//! The server's request path promises: *any* line of bytes gets a
//! structured JSON response — never a panic, never a process death, and
//! the connection stays usable afterwards. Three layers of evidence:
//!
//! * **random-bytes proptest** — arbitrary byte soup through
//!   [`SweepServer::handle_line`] always parses back as a response
//!   envelope (`ok`/`op`/`protocol`, plus `error` when `ok` is false);
//! * **random-request proptest** — structurally JSON-ish requests with
//!   fuzzed ops, field types, and cell payloads get the same guarantee,
//!   and the server still answers `hello` afterwards;
//! * **committed corpus** — the regression corpus under `tests/corpus/`
//!   replays hostile frames that previously mattered (malformed JSON,
//!   wrong field types, unknown ops, raw control bytes) so a future
//!   parser rewrite cannot silently lose the hardening;
//! * **frame-sized nesting** — two generated lines as long as a frame
//!   may be, one of `[` and one of `{"a":`, whose unbounded recursion
//!   once overflowed a connection thread's stack;
//! * **served ranges** — `T_RH` overrides and `Random(n)` draws outside
//!   the ranges the sweep base serves, drawn from the whole integer
//!   range, get `bad_spec` before pricing and charge nothing.
//!
//! [`FrameReader`] gets its own property: random byte streams with
//! random frame caps always terminate, never panic, keep every decoded
//! line under the cap, and report oversized frames as strictly larger
//! than the cap.

use std::io::BufReader;

use dd_server::{
    Frame, FrameReader, ServerConfig, SweepServer, MAX_FRAME_BYTES, MAX_SERVED_RANDOM_FLIPS,
    MAX_SERVED_T_RH,
};
use dnn_defender::{CostModel, Json};
use proptest::prelude::*;

fn test_server() -> SweepServer {
    SweepServer::new(
        ServerConfig {
            quick: true,
            workers: 1,
            capacity_micros: 10_000_000,
            default_grant_micros: 1_000_000,
        },
        CostModel::new(200_000_000, 16 * 8 * 128),
    )
}

/// Every response, success or failure, is one parsable JSON object with
/// the versioned envelope fields.
fn assert_structured_response(line: &str, response: &str) {
    let json = Json::parse(response)
        .unwrap_or_else(|e| panic!("unparsable response {response:?} for request {line:?}: {e}"));
    let ok = json
        .field_bool("ok")
        .unwrap_or_else(|e| panic!("response missing `ok` for {line:?}: {e}"));
    assert!(json.field_str("op").is_ok(), "response missing `op`");
    assert!(
        json.field_u64("protocol").is_ok(),
        "response missing `protocol`"
    );
    if !ok {
        assert!(
            json.field_str("error").is_ok(),
            "failed response missing `error` for {line:?}"
        );
    }
}

/// Submit one cell and require a `bad_spec` refusal that charged
/// nothing, after which the server still answers `hello`.
fn assert_refused_free(cell: Json) {
    let mut server = test_server();
    let line = Json::obj()
        .with("op", Json::str("submit"))
        .with("client", Json::str("hostile"))
        .with("cells", Json::Arr(vec![cell]))
        .render_compact();
    let response = Json::parse(&server.handle_line(&line)).expect("response parses");
    assert_eq!(response.field_bool("ok"), Ok(true), "{line}");
    let results = response.field_arr("results").expect("results");
    assert_eq!(results[0].field_str("kind"), Ok("bad_spec"), "{line}");
    let ledger = response.field("ledger").expect("ledger");
    assert_eq!(ledger.field_u64("charged_gross_micros"), Ok(0), "{line}");
    let hello = Json::parse(&server.handle_line("{\"op\":\"hello\"}")).expect("hello parses");
    assert_eq!(
        hello.field_bool("ok"),
        Ok(true),
        "server wedged after {line}"
    );
}

fn cell(attacker: &str, device: &str) -> Json {
    Json::obj()
        .with("defense", Json::str("DNN-Defender"))
        .with("attacker", Json::str(attacker))
        .with("device", Json::str(device))
        .with("load", Json::str("light"))
}

proptest! {
    /// A device's `T_RH` override outside `1..=MAX_SERVED_T_RH`, drawn
    /// from the whole `u64` range, is refused before pricing: once, the
    /// price of `attempts × T_RH` overflowed.
    #[test]
    fn out_of_range_thresholds_are_refused_before_pricing(
        zero in any::<bool>(),
        raw in any::<u64>(),
    ) {
        let t_rh = if zero { 0 } else { MAX_SERVED_T_RH + 1 + raw % (u64::MAX - MAX_SERVED_T_RH) };
        assert_refused_free(cell("BFA", &format!("lpddr4_small@{t_rh}")));
    }

    /// A `Random(n)` draw outside `1..=MAX_SERVED_RANDOM_FLIPS`, drawn
    /// from the whole `usize` range, is refused before pricing: the cell
    /// replays every flip, so a large `n` once held a worker for
    /// minutes, and `n = 0` would be priced at nothing.
    #[test]
    fn out_of_range_flip_counts_are_refused_before_pricing(
        zero in any::<bool>(),
        raw in any::<usize>(),
    ) {
        let flips = if zero {
            0
        } else {
            MAX_SERVED_RANDOM_FLIPS + 1 + raw % (usize::MAX - MAX_SERVED_RANDOM_FLIPS)
        };
        assert_refused_free(cell(&format!("Random({flips})"), "lpddr4_small"));
    }

    /// Arbitrary bytes (decoded lossily, like the socket path does via
    /// `FrameReader`) never panic the request handler and always get a
    /// structured response.
    #[test]
    fn random_bytes_always_get_a_structured_response(
        bytes in collection::vec(any::<u8>(), 0..256),
    ) {
        let mut server = test_server();
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let line = line.replace('\n', " ");
        let response = server.handle_line(&line);
        assert_structured_response(&line, &response);
        // The server survives: the next request is answered normally.
        let hello = server.handle_line("{\"op\":\"hello\"}");
        let hello = Json::parse(&hello).expect("hello parses");
        prop_assert_eq!(hello.field_bool("ok"), Ok(true));
    }

    /// JSON-shaped requests with fuzzed ops and field types: same
    /// guarantee. Cell payloads are random strings, so a fuzzed submit
    /// exercises admission and spec rejection without running jobs.
    #[test]
    fn fuzzed_requests_always_get_a_structured_response(
        op_pick in 0usize..7,
        client_pick in 0usize..4,
        grant in any::<u64>(),
        cells in collection::vec(collection::vec(any::<u8>(), 0..24), 0..4),
        cells_as_string in any::<bool>(),
    ) {
        let mut server = test_server();
        let op = ["hello", "budget", "submit", "invalidate", "stats", "", "frobnicate"]
            [op_pick];
        let client = match client_pick {
            0 => Json::Null,
            1 => Json::str("fuzz"),
            2 => Json::uint(7),
            _ => Json::Arr(vec![]),
        };
        let cells: Vec<String> = cells
            .iter()
            .map(|bytes| {
                String::from_utf8_lossy(bytes)
                    .replace(['\n', '"', '\\'], "?")
            })
            .collect();
        let cells_json = if cells_as_string {
            Json::str(cells.join(","))
        } else {
            Json::Arr(cells.iter().map(Json::str).collect())
        };
        // Deliberately `num`, not `uint`: huge u64s round-trip as
        // imprecise floats, exercising the server-side range checks.
        let request = Json::obj()
            .with("op", Json::str(op))
            .with("client", client)
            .with("grant_micros", Json::num(grant as f64))
            .with("cells", cells_json);
        let line = request.render_compact();
        let response = server.handle_line(&line);
        assert_structured_response(&line, &response);
        let hello = server.handle_line("{\"op\":\"hello\"}");
        let hello = Json::parse(&hello).expect("hello parses");
        prop_assert_eq!(hello.field_bool("ok"), Ok(true));
    }

    /// `FrameReader` on random byte streams with random caps: always
    /// terminates with a trailing `Eof`, every line is newline-free and
    /// within the cap, and oversized frames drained more than the cap.
    #[test]
    fn frame_reader_bounds_every_frame(
        bytes in collection::vec(any::<u8>(), 0..512),
        cap in 1usize..64,
    ) {
        let mut reader = FrameReader::new(BufReader::with_capacity(7, &bytes[..]), cap);
        let newlines = bytes.iter().filter(|&&b| b == b'\n').count();
        let mut frames = Vec::new();
        loop {
            let frame = reader.next_frame().expect("in-memory reads cannot fail");
            let eof = frame == Frame::Eof;
            frames.push(frame);
            if eof {
                break;
            }
            // Termination bound: one frame per newline plus a final
            // unterminated remnant (Eof is counted out of the loop).
            prop_assert!(frames.len() <= newlines + 1);
        }
        for frame in &frames[..frames.len() - 1] {
            match frame {
                Frame::Line { text, .. } => {
                    prop_assert!(!text.contains('\n'));
                    // Lossy decode maps each input byte to at most one
                    // char, so the cap bounds the char count.
                    prop_assert!(text.chars().count() <= cap);
                }
                Frame::Oversized { drained } => prop_assert!(*drained > cap),
                Frame::Eof => prop_assert!(false, "Eof before the end"),
            }
        }
        prop_assert_eq!(frames.last(), Some(&Frame::Eof));
    }
}

/// Replay the committed corpus: every line of every corpus file gets a
/// structured response from a shared server, and the server answers
/// `hello` after each file. New hostile frames found in the wild belong
/// in `tests/corpus/` so they stay covered forever.
#[test]
fn corpus_replays_cleanly() {
    let corpus_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(corpus_dir)
        .expect("tests/corpus exists")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "txt"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "empty corpus directory");
    for path in paths {
        let mut server = test_server();
        let raw = std::fs::read(&path).expect("corpus file reads");
        // Corpus files may hold invalid UTF-8 on purpose — decode the
        // way the socket path does.
        let text = String::from_utf8_lossy(&raw);
        for line in text.lines() {
            let response = server.handle_line(line);
            assert_structured_response(line, &response);
        }
        let hello = server.handle_line("{\"op\":\"hello\"}");
        let hello = Json::parse(&hello).expect("hello parses");
        assert_eq!(
            hello.field_bool("ok"),
            Ok(true),
            "server wedged after {}",
            path.display()
        );
    }
}

/// A request line of nothing but openers, as long as a frame may be,
/// gets a structured `bad request line` error instead of recursing the
/// parser through the thread's stack, and the server still answers
/// `hello`. Generated here: each line is 1 MiB, too big for the corpus.
#[test]
fn frame_sized_nesting_gets_a_structured_error() {
    let mut server = test_server();
    for unit in ["[", "{\"a\":"] {
        let line = unit.repeat((MAX_FRAME_BYTES - 1) / unit.len());
        assert_eq!(
            line.len(),
            MAX_FRAME_BYTES - 1,
            "{unit} must tile the frame"
        );
        let response = server.handle_line(&line);
        assert_structured_response(unit, &response);
        let response = Json::parse(&response).expect("response parses");
        assert_eq!(response.field_bool("ok"), Ok(false), "{unit}");
        let error = response.field_str("error").expect("error message");
        assert!(error.starts_with("bad request line"), "{unit}: {error}");
        let hello = Json::parse(&server.handle_line("{\"op\":\"hello\"}")).expect("hello parses");
        assert_eq!(
            hello.field_bool("ok"),
            Ok(true),
            "server wedged after {unit}"
        );
    }
}
