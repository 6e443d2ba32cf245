#![deny(missing_docs)]
//! `dd-obs`: zero-dependency structured tracing and metrics.
//!
//! The simulator's hot layers (batched kernel, matrix scheduler,
//! executor, server pipeline) record *spans* (named, optionally
//! labelled intervals on a shared monotonic clock), *counters*, *events*
//! (labelled instants) and *log2 histograms* into per-thread recorders.
//! Everything is amortized per chunk/job/request — never per DRAM command —
//! and the whole subsystem sits behind a single relaxed atomic flag:
//! outside a [`session`] (the default) every probe is one atomic load
//! and an early return, which `repro kernel` proves costs ≤ the committed
//! overhead ceiling on the batched kernel path.
//!
//! Data flows out through [`snapshot_and_reset`], which drains every
//! thread's ring buffers into a [`Snapshot`]; exporters turn that into
//! Chrome trace-event JSON (loadable at <https://ui.perfetto.dev>) via
//! [`chrome_trace_json`], or into the deterministic aggregates behind
//! `artifacts/TRACE_summary.json` (see `docs/observability.md`).
//!
//! This crate sits below `dd-dram` in the workspace graph and therefore
//! depends on nothing — not even the hand-rolled JSON tree in
//! `dnn-defender` — so it carries its own minimal JSON *writer* (strings
//! out only, no parser).

mod export;
mod hist;
mod record;

pub use export::{chrome_trace_json, json_escape};
pub use hist::Hist64;
pub use record::{
    add, event, now_ns, observe, snapshot_and_reset, span, span_with, EventRecord, Snapshot,
    SpanGuard, SpanRecord, SPAN_RING_CAPACITY,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The one global switch: set while a [`session`] is live.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// True while a [`session`] records. This is the fast-path check every
/// probe starts with; callers can use it to skip label construction
/// entirely.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

static SESSION: Mutex<()> = Mutex::new(());

/// An exclusive recording session: created by [`session`], recording is
/// enabled until the guard is dropped (or [`ObsSession::finish`] is
/// called). Sessions serialize on a global lock so concurrent tests or
/// callers cannot pollute each other's snapshots.
pub struct ObsSession {
    _guard: MutexGuard<'static, ()>,
}

/// Start an exclusive recording session: takes the global session lock,
/// clears any stale telemetry, and enables recording.
pub fn session() -> ObsSession {
    let guard = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
    ENABLED.store(true, Ordering::Relaxed);
    // Reset *after* enabling so recorders registered by earlier sessions
    // are drained of stale contents.
    let _ = snapshot_and_reset();
    ObsSession { _guard: guard }
}

impl ObsSession {
    /// End the session: snapshot everything recorded since it began,
    /// disable recording, and release the session lock.
    pub fn finish(self) -> Snapshot {
        let snap = snapshot_and_reset();
        drop(self); // Drop disables recording.
        snap
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_probes_are_inert() {
        let _session_lock = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        ENABLED.store(false, Ordering::Relaxed);
        assert!(!enabled());
        {
            let _g = span("test.noop");
            let _sampled = span("test.noop_sampled").with_sample("test.noop_hist", 7);
            add("test.counter", 3);
            event("test.event", || "label".into());
        }
        ENABLED.store(true, Ordering::Relaxed);
        let snap = snapshot_and_reset();
        ENABLED.store(false, Ordering::Relaxed);
        assert!(snap.spans.is_empty());
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.hists.is_empty());
    }

    #[test]
    fn session_records_spans_counters_events_and_hists() {
        let session = session();
        {
            let _g = span_with("test.outer", || "cell=3".to_string());
            let _inner = span("test.inner");
            let _chunk = span("test.chunk").with_sample("test.chunk_ops", 300);
            add("test.ops", 512);
            add("test.ops", 512);
            record::observe("test.chunk_ops", 512);
            event("test.regime", || "storm".into());
        }
        let snap = session.finish();
        assert!(!enabled());
        assert_eq!(snap.spans.len(), 3);
        let outer = snap
            .spans
            .iter()
            .find(|s| s.name == "test.outer")
            .expect("outer span");
        assert_eq!(outer.label.as_deref(), Some("cell=3"));
        assert_eq!(snap.counters.get("test.ops"), Some(&1024));
        // The span's sample lands in the same histogram `observe` feeds.
        let hist = snap.hists.get("test.chunk_ops").expect("hist");
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 812);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].label, "storm");
    }

    #[test]
    fn sessions_reset_state_between_runs() {
        let first = session();
        add("test.reset", 1);
        let snap = first.finish();
        assert_eq!(snap.counters.get("test.reset"), Some(&1));

        let second = session();
        let snap = second.finish();
        assert_eq!(snap.counters.get("test.reset"), None);
    }

    #[test]
    fn spans_from_spawned_threads_are_collected() {
        let session = session();
        std::thread::scope(|scope| {
            for i in 0..4 {
                scope.spawn(move || {
                    let _g = span_with("test.worker", move || format!("job={i}"));
                    add("test.jobs", 1);
                });
            }
        });
        let snap = session.finish();
        assert_eq!(snap.spans.len(), 4);
        assert_eq!(snap.counters.get("test.jobs"), Some(&4));
        // Distinct threads got distinct recorder ids.
        let tids: std::collections::BTreeSet<u64> = snap.spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 4);
    }
}
