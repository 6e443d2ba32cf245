//! The traced pass's per-layer ledger.
//!
//! Two sources feed it. The program's own `dd-obs` spans, counters and
//! the `chunk.ops` histogram are drained with `snapshot_and_reset` as the
//! pass goes, so no thread's span ring (`SPAN_RING_CAPACITY`) overflows
//! between drains; anything it still drops is counted, not hidden. The
//! benchmark's own timings wrap each public call it makes into a layer.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::metrics::Layers;

#[derive(Debug, Default)]
pub struct Ledger {
    span_ns: BTreeMap<&'static str, u64>,
    counters: BTreeMap<&'static str, u64>,
    chunks: u64,
    chunk_ops: u64,
    dropped_spans: u64,
    calls: BTreeMap<&'static str, (f64, u64)>,
}

impl Ledger {
    /// Fold everything recorded since the last drain into the ledger.
    pub fn drain(&mut self) {
        let snap = dd_obs::snapshot_and_reset();
        for span in &snap.spans {
            *self.span_ns.entry(span.name).or_default() += span.dur_ns;
        }
        for (name, value) in snap.counters {
            *self.counters.entry(name).or_default() += value;
        }
        if let Some(hist) = snap.hists.get("chunk.ops") {
            self.chunks += hist.count;
            self.chunk_ops += hist.sum;
        }
        self.dropped_spans += snap.dropped_spans;
    }

    /// Time one public call into a layer under `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add_call(name, t.elapsed().as_secs_f64());
        out
    }

    /// Record `secs` of host time for one call under `name`.
    pub fn add_call(&mut self, name: &'static str, secs: f64) {
        let entry = self.calls.entry(name).or_default();
        entry.0 += secs;
        entry.1 += 1;
    }

    /// Total host seconds of the benchmark's calls named `name`.
    pub fn call_s(&self, name: &str) -> f64 {
        self.calls.get(name).map_or(0.0, |c| c.0)
    }

    /// Mean host milliseconds per call named `name` (0 when never called).
    pub fn call_mean_ms(&self, name: &str) -> f64 {
        match self.calls.get(name) {
            Some(&(secs, n)) if n > 0 => 1e3 * secs / n as f64,
            _ => 0.0,
        }
    }

    /// Total host seconds of the program's spans named `name`.
    pub fn span_s(&self, name: &str) -> f64 {
        self.span_ns.get(name).map_or(0.0, |&ns| ns as f64 * 1e-9)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Host seconds of the matrix cells' three phases (setup, benign
    /// warm-up, attack), summed over the threads that ran them.
    pub fn matrix_s(&self) -> f64 {
        self.span_s("matrix.cell_setup")
            + self.span_s("matrix.warmup_solo")
            + self.span_s("matrix.warmup_group")
            + self.span_s("matrix.cell_attack")
    }

    /// Report every per-layer metric the program's own spans, counters and
    /// chunk histogram give; 0 where the workload recorded none.
    pub fn set_program_layers(&self, layers: &mut Layers) {
        layers.set("dropped_spans", self.dropped_spans as f64);
        layers.set("matrix.cell_setup_s", self.span_s("matrix.cell_setup"));
        layers.set(
            "matrix.warmup_s",
            self.span_s("matrix.warmup_solo") + self.span_s("matrix.warmup_group"),
        );
        layers.set("matrix.cell_attack_s", self.span_s("matrix.cell_attack"));
        layers.set("dram.issue_s", self.span_s("chunk.issue"));
        layers.set("dram.chunks", self.chunks as f64);
        if self.chunks > 0 {
            layers.set(
                "dram.ops_per_chunk",
                self.chunk_ops as f64 / self.chunks as f64,
            );
        }
        layers.set("workload.decode_s", self.span_s("chunk.decode"));
        // Untapped defenses only: tapped ones flush every op unspanned.
        layers.set("defense.observe_s", self.span_s("chunk.observe"));
        layers.set("workload.ops", self.counter("driver.ops") as f64);
    }
}
