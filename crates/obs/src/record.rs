//! Per-thread recorders: span ring buffers, counters, events, histograms.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::hist::Hist64;

/// Capacity of each thread's span ring buffer. When a thread records
/// more live spans than this between snapshots, the oldest are dropped
/// and counted in [`Snapshot::dropped_spans`] — recording never blocks
/// and never grows without bound.
pub const SPAN_RING_CAPACITY: usize = 65_536;

/// One completed span: a named interval on the process-wide monotonic
/// clock, with an optional label (built only while recording is enabled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name (the taxonomy in `docs/observability.md`).
    pub name: &'static str,
    /// Optional dynamic label, e.g. `defense=dnn-defender cells=4`.
    pub label: Option<String>,
    /// Start, in nanoseconds since the process observability epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Recorder id of the thread that produced the span.
    pub tid: u64,
}

/// One instant event (e.g. a regime transition or a shed decision).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Static event name.
    pub name: &'static str,
    /// Dynamic label describing the instance.
    pub label: String,
    /// Timestamp in nanoseconds since the observability epoch.
    pub at_ns: u64,
    /// Recorder id of the thread that produced the event.
    pub tid: u64,
}

/// Everything drained from every thread recorder by
/// [`snapshot_and_reset`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All spans, sorted by `(start_ns, tid)`.
    pub spans: Vec<SpanRecord>,
    /// All events, sorted by `(at_ns, tid)`.
    pub events: Vec<EventRecord>,
    /// Named counters, merged across threads.
    pub counters: BTreeMap<&'static str, u64>,
    /// Named log2 histograms, merged across threads.
    pub hists: BTreeMap<&'static str, Hist64>,
    /// Spans lost to ring-buffer overflow.
    pub dropped_spans: u64,
}

impl Snapshot {
    /// Span counts aggregated by `(name, label)`, in sorted order — the
    /// thread- and timing-independent view the deterministic trace
    /// summary is built from.
    pub fn span_counts(&self) -> BTreeMap<(String, String), u64> {
        let mut counts = BTreeMap::new();
        for span in &self.spans {
            let key = (
                span.name.to_string(),
                span.label.clone().unwrap_or_default(),
            );
            *counts.entry(key).or_insert(0) += 1;
        }
        counts
    }

    /// Event counts aggregated by `(name, label)`, in sorted order.
    pub fn event_counts(&self) -> BTreeMap<(String, String), u64> {
        let mut counts = BTreeMap::new();
        for event in &self.events {
            let key = (event.name.to_string(), event.label.clone());
            *counts.entry(key).or_insert(0) += 1;
        }
        counts
    }

    /// Total nanoseconds spent in spans named `name`, across threads.
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }
}

struct ThreadRecorder {
    tid: u64,
    spans: VecDeque<SpanRecord>,
    events: Vec<EventRecord>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Hist64>,
    dropped_spans: u64,
}

impl ThreadRecorder {
    fn new(tid: u64) -> Self {
        ThreadRecorder {
            tid,
            spans: VecDeque::new(),
            events: Vec::new(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            dropped_spans: 0,
        }
    }

    fn push_span(&mut self, mut span: SpanRecord) {
        span.tid = self.tid;
        if self.spans.len() >= SPAN_RING_CAPACITY {
            self.spans.pop_front();
            self.dropped_spans += 1;
        }
        self.spans.push_back(span);
    }
}

static REGISTRY: Mutex<Vec<Arc<Mutex<ThreadRecorder>>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static RECORDER: Arc<Mutex<ThreadRecorder>> = register();
}

fn register() -> Arc<Mutex<ThreadRecorder>> {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let recorder = Arc::new(Mutex::new(ThreadRecorder::new(tid)));
    REGISTRY
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(Arc::clone(&recorder));
    recorder
}

fn with_recorder(f: impl FnOnce(&mut ThreadRecorder)) {
    RECORDER.with(|cell| {
        let mut recorder = cell.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut recorder);
    });
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process observability epoch (first use).
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A RAII span: records `[creation, drop]` into the current thread's
/// recorder. Outside a session, creation is one atomic load and
/// the guard is inert (no clock read, no label built).
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    name: &'static str,
    label: Option<String>,
    start_ns: u64,
    armed: bool,
    sample: Option<(&'static str, u64)>,
}

impl SpanGuard {
    fn disarmed() -> Self {
        SpanGuard {
            name: "",
            label: None,
            start_ns: 0,
            armed: false,
            sample: None,
        }
    }

    /// Also record `value` into the named log2 histogram when the span
    /// closes — the same sample [`observe`] would record, taken in the
    /// span's own recorder visit, so a per-chunk probe pays one recorder
    /// lock instead of two. Inert on a disarmed guard.
    #[inline]
    pub fn with_sample(mut self, hist: &'static str, value: u64) -> Self {
        if self.armed {
            self.sample = Some((hist, value));
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = now_ns();
        let span = SpanRecord {
            name: self.name,
            label: self.label.take(),
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            tid: 0,
        };
        let sample = self.sample;
        with_recorder(|r| {
            r.push_span(span);
            if let Some((hist, value)) = sample {
                r.hists.entry(hist).or_default().record(value);
            }
        });
    }
}

/// Open an unlabelled span. See [`span_with`] for labels.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::disarmed();
    }
    SpanGuard {
        name,
        label: None,
        start_ns: now_ns(),
        armed: true,
        sample: None,
    }
}

/// Open a labelled span. The label closure runs only while recording is
/// enabled, so hot paths pay nothing to format labels that would be
/// thrown away.
#[inline]
pub fn span_with(name: &'static str, label: impl FnOnce() -> String) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::disarmed();
    }
    SpanGuard {
        name,
        label: Some(label()),
        start_ns: now_ns(),
        armed: true,
        sample: None,
    }
}

/// Add `delta` to the named counter.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    with_recorder(|r| *r.counters.entry(name).or_insert(0) += delta);
}

/// Record `value` into the named log2 histogram.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !crate::enabled() {
        return;
    }
    with_recorder(|r| r.hists.entry(name).or_default().record(value));
}

/// Record an instant event. The label closure runs only while recording
/// is enabled.
#[inline]
pub fn event(name: &'static str, label: impl FnOnce() -> String) {
    if !crate::enabled() {
        return;
    }
    let record = EventRecord {
        name,
        label: label(),
        at_ns: now_ns(),
        tid: 0,
    };
    with_recorder(|r| {
        let mut record = record;
        record.tid = r.tid;
        r.events.push(record);
    });
}

/// Drain every thread recorder into one [`Snapshot`] and reset them.
/// Recorders stay registered (live threads keep appending to the same
/// ring), but all recorded contents are consumed exactly once.
pub fn snapshot_and_reset() -> Snapshot {
    let registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let mut snap = Snapshot::default();
    for slot in registry.iter() {
        let mut recorder = slot.lock().unwrap_or_else(PoisonError::into_inner);
        snap.spans.extend(recorder.spans.drain(..));
        snap.events.append(&mut recorder.events);
        for (name, value) in std::mem::take(&mut recorder.counters) {
            *snap.counters.entry(name).or_insert(0) += value;
        }
        for (name, hist) in std::mem::take(&mut recorder.hists) {
            snap.hists.entry(name).or_default().merge(&hist);
        }
        snap.dropped_spans += recorder.dropped_spans;
        recorder.dropped_spans = 0;
    }
    snap.spans.sort_by_key(|a| (a.start_ns, a.tid));
    snap.events.sort_by_key(|a| (a.at_ns, a.tid));
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let mut recorder = ThreadRecorder::new(42);
        for i in 0..(SPAN_RING_CAPACITY as u64 + 10) {
            recorder.push_span(SpanRecord {
                name: "test.ring",
                label: None,
                start_ns: i,
                dur_ns: 1,
                tid: 0,
            });
        }
        assert_eq!(recorder.spans.len(), SPAN_RING_CAPACITY);
        assert_eq!(recorder.dropped_spans, 10);
        // Oldest went first.
        assert_eq!(recorder.spans.front().expect("front").start_ns, 10);
        assert_eq!(recorder.spans.front().expect("front").tid, 42);
    }

    #[test]
    fn snapshot_aggregation_helpers() {
        let snap = Snapshot {
            spans: vec![
                SpanRecord {
                    name: "a",
                    label: Some("x".into()),
                    start_ns: 0,
                    dur_ns: 5,
                    tid: 1,
                },
                SpanRecord {
                    name: "a",
                    label: Some("x".into()),
                    start_ns: 3,
                    dur_ns: 7,
                    tid: 2,
                },
                SpanRecord {
                    name: "b",
                    label: None,
                    start_ns: 4,
                    dur_ns: 1,
                    tid: 1,
                },
            ],
            events: vec![EventRecord {
                name: "e",
                label: "l".into(),
                at_ns: 9,
                tid: 1,
            }],
            ..Snapshot::default()
        };
        let spans = snap.span_counts();
        assert_eq!(spans.get(&("a".to_string(), "x".to_string())), Some(&2));
        assert_eq!(spans.get(&("b".to_string(), String::new())), Some(&1));
        assert_eq!(snap.span_total_ns("a"), 12);
        assert_eq!(
            snap.event_counts().get(&("e".to_string(), "l".to_string())),
            Some(&1)
        );
    }
}
