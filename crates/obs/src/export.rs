//! Chrome trace-event JSON exporter (Perfetto-loadable).
//!
//! The writer is hand-rolled because `dd-obs` sits below every other
//! crate (including the hand-rolled JSON tree in `dnn-defender`) and
//! must stay dependency-free. It only *writes* JSON; parsing lives with
//! the consumers.

use std::fmt::Write as _;

use crate::record::Snapshot;

/// Escape a string for inclusion inside a JSON string literal.
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn push_ts_micros(out: &mut String, ns: u64) {
    // Chrome trace timestamps are microseconds; keep nanosecond
    // precision as a fixed three-decimal fraction.
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Render a [`Snapshot`] as Chrome trace-event JSON, loadable at
/// <https://ui.perfetto.dev> (or `chrome://tracing`). Spans become
/// complete (`ph:"X"`) events, instant events become `ph:"i"`, and each
/// recorder thread gets a `thread_name` metadata record.
pub fn chrome_trace_json(snapshot: &Snapshot, process_name: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    let mut first = true;
    let mut emit = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("    ");
        out.push_str(&line);
    };

    emit(
        format!(
            "{{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \
             \"args\": {{\"name\": \"{}\"}}}}",
            json_escape(process_name)
        ),
        &mut out,
    );
    let mut tids: Vec<u64> = snapshot
        .spans
        .iter()
        .map(|s| s.tid)
        .chain(snapshot.events.iter().map(|e| e.tid))
        .collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        emit(
            format!(
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"recorder-{tid}\"}}}}"
            ),
            &mut out,
        );
    }

    for span in &snapshot.spans {
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"cat\": \"dd\", \"name\": \"{}\", \"ts\": ",
            span.tid,
            json_escape(span.name)
        );
        push_ts_micros(&mut line, span.start_ns);
        line.push_str(", \"dur\": ");
        push_ts_micros(&mut line, span.dur_ns);
        if let Some(label) = &span.label {
            let _ = write!(
                line,
                ", \"args\": {{\"label\": \"{}\"}}",
                json_escape(label)
            );
        }
        line.push('}');
        emit(line, &mut out);
    }

    for event in &snapshot.events {
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": {}, \"cat\": \"dd\", \
             \"name\": \"{}\", \"ts\": ",
            event.tid,
            json_escape(event.name)
        );
        push_ts_micros(&mut line, event.at_ns);
        let _ = write!(
            line,
            ", \"args\": {{\"label\": \"{}\"}}}}",
            json_escape(&event.label)
        );
        emit(line, &mut out);
    }

    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EventRecord, SpanRecord};

    #[test]
    fn escapes_json_metacharacters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn chrome_trace_has_metadata_spans_and_events() {
        let snap = Snapshot {
            spans: vec![SpanRecord {
                name: "matrix.cell_setup",
                label: Some("cell=4".into()),
                start_ns: 1_234_567,
                dur_ns: 2_500,
                tid: 3,
            }],
            events: vec![EventRecord {
                name: "server.regime",
                label: "storm".into(),
                at_ns: 2_000_000,
                tid: 1,
            }],
            ..Snapshot::default()
        };
        let json = chrome_trace_json(&snap, "repro trace");
        assert!(json.contains("\"displayTimeUnit\": \"ms\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\": \"matrix.cell_setup\""));
        assert!(json.contains("\"ts\": 1234.567"));
        assert!(json.contains("\"dur\": 2.500"));
        assert!(json.contains("\"label\": \"cell=4\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"label\": \"storm\""));
        // Balanced braces/brackets — cheap well-formedness check; the
        // real parse check runs in CI against the emitted artifact.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
