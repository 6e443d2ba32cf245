//! What every workload shares: the set-up and round timers, the result
//! record, output digests and the process's peak memory.

use std::time::{Duration, Instant};

use crate::stats::median;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, defense-days or submitted cells).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Record a check: a false `ok` adds `what` to the problems.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// Reference time of [`calibrate`]: what it takes on the reference box (a
/// 2-vCPU Xeon VM at 2.0 GHz on a shared host) when no other tenant
/// contends for the core's caches.
const REFERENCE_CALIBRATION_S: f64 = 0.015;

/// Host-speed calibration: host seconds of a fixed, benchmark-owned
/// kernel (four random read-modify-write streams over a 1 MiB table,
/// the median of three repetitions), run on `threads` threads at once for
/// workloads that keep that many cores busy, averaged over them.
///
/// On a shared host, other tenants slow the program's cache-bound code
/// by up to half for minutes at a time. This kernel slows in step: on the
/// reference box its time tracked a victim build's with correlation 0.8
/// run by run and 0.9 over minutes, so scaling by it removes most of the
/// host's drift from the end-to-end times.
pub fn calibrate(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| scope.spawn(calibration_kernel))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

fn calibration_kernel() -> f64 {
    let mut table = vec![0u64; 1 << 17];
    let mask = table.len() - 1;
    let mut secs = [0.0; 3];
    for rep in &mut secs {
        let mut streams = [1u64, 2, 3, 4];
        let t = Instant::now();
        for _ in 0..400_000 {
            for s in &mut streams {
                *s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let i = (*s >> 40) as usize & mask;
                table[i] = table[i].wrapping_add(*s);
                if table[i] & 1 == 0 {
                    *s ^= table[i ^ 1];
                }
            }
        }
        *rep = t.elapsed().as_secs_f64();
    }
    std::hint::black_box(&table);
    median(&secs).expect("three repetitions")
}

/// The factor that turns host seconds measured between two calibrations
/// into reference-host seconds.
pub fn host_scale(before: f64, after: f64) -> f64 {
    REFERENCE_CALIBRATION_S / ((before + after) / 2.0)
}

/// Set-up repetitions: at least this many, and more until
/// [`SETUP_BUDGET`] is spent, so even a set-up of a few microseconds is a
/// median over the same span of host time as the calibrations around it.
const MIN_SETUPS: usize = 11;
const MAX_SETUPS: usize = 200_000;
const SETUP_BUDGET: Duration = Duration::from_millis(300);

/// Run `setup` repeatedly and return its last product with the median
/// time of one call, in reference-host seconds.
pub fn measure_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let before = calibrate(1);
    let started = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let product = std::hint::black_box(setup());
        secs.push(t.elapsed().as_secs_f64());
        let enough = secs.len() >= MIN_SETUPS && started.elapsed() >= SETUP_BUDGET;
        if enough || secs.len() >= MAX_SETUPS {
            let scale = host_scale(before, calibrate(1));
            return (product, scale * median(&secs).expect("one set-up ran"));
        }
    }
}

/// Run `round` for about `seconds` of host time: always once, then again
/// while the median round so far still fits in what is left. The host is
/// calibrated before the first round and after each one; each round's
/// output then goes to `check` untimed, with the round's host scale, and
/// is dropped there, so memory does not grow with the round count.
/// Returns what `check` kept of each round, and each round's time in
/// reference-host seconds.
pub fn run_rounds<R, K>(
    seconds: f64,
    threads: usize,
    mut round: impl FnMut() -> R,
    mut check: impl FnMut(R, f64) -> K,
) -> (Vec<K>, Vec<f64>) {
    let started = Instant::now();
    let mut kept = Vec::new();
    let mut secs = Vec::new();
    let mut raw = Vec::new();
    let mut before = calibrate(threads);
    loop {
        let (output, s) = timed(&mut round);
        let after = calibrate(threads);
        let scale = host_scale(before, after);
        before = after;
        raw.push(s);
        secs.push(scale * s);
        kept.push(check(output, scale));
        let typical = median(&raw).expect("one round ran");
        if started.elapsed().as_secs_f64() + typical > seconds {
            return (kept, secs);
        }
    }
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// 64-bit FNV-1a over a byte stream: the digests of simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    pub fn str(&mut self, text: &str) -> &mut Self {
        self.u64(text.len() as u64).bytes(text.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Every round must compute the same outputs (`digests`, one per round
/// that completed), and where a digest was recorded for this seed, that
/// one.
pub fn check_digests(out: &mut Outcome, digests: &[u64], recorded: Option<u64>) {
    out.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("rounds disagree: digests {digests:x?}")
    });
    if let (Some(want), Some(&got)) = (recorded, digests.first()) {
        out.check(got == want, || {
            format!("output digest {got:#018x}, recorded {want:#018x}")
        });
    }
}

/// SplitMix64 step: derives independent seeds from one workload seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a() {
        // The published FNV-1a test vector for "a".
        assert_eq!(Digest::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn rounds_run_at_least_once_and_stop_near_the_budget() {
        let (kept, secs) = run_rounds(0.0, 1, || 7, |r, _| r + 1);
        assert_eq!(kept, vec![8]);
        assert_eq!(secs.len(), 1);
        // Calibrations between rounds count against the budget too.
        let budget = 0.2 + 6.0 * calibrate(1);
        let (kept, _) = run_rounds(
            budget,
            1,
            || std::thread::sleep(Duration::from_millis(40)),
            |(), scale| assert!(scale > 0.0),
        );
        assert!((2..=5).contains(&kept.len()), "{} rounds", kept.len());
    }

    #[test]
    fn mixed_seeds_differ() {
        assert_ne!(mix(333, 0), mix(333, 1));
        assert_ne!(mix(333, 1), mix(334, 1));
    }
}
