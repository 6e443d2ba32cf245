#![deny(missing_docs)]
//! `dd-chaos`: seeded, deterministic fault injection.
//!
//! Production code threads named *injection sites* through its failure-prone
//! paths — worker panics and stalls in the executor, connection drops and
//! garbage frames in the server loop, corrupt cell-cache entries, transient
//! client-side submit failures. Each probe is a call to [`fires`] with the
//! site name and a caller-supplied *stable key*. Disarmed (the default, and
//! the only state production ever runs in) a probe is one relaxed atomic
//! load and an early return — the same near-zero-cost pattern as `dd-obs`,
//! and `repro kernel` gates its cost on the hot kernel paths.
//!
//! Armed with a [`ChaosPlan`], the fire/no-fire decision for a probe is a
//! pure function of `(seed, site, key)`:
//!
//! ```text
//! fires(site, key)  ⇔  mix(seed, fnv1a(site), key) % 1_000_000 < rate_ppm(site)
//! ```
//!
//! Crucially there is **no global counter** in the decision: two runs that
//! check the same `(site, key)` pairs draw the same faults regardless of
//! thread interleaving, so a scripted campaign (`repro chaos`) is exactly
//! reproducible even though the sweep executor schedules jobs with work
//! stealing. Callers pick keys that are stable across runs (request
//! sequence numbers, job indices, attempt counters, connection/line ids —
//! never wall-clock time or addresses).
//!
//! Per-site check/fire counts accumulate while armed and drain through
//! [`ChaosSession::finish`]; every fire also emits a `chaos.fire` event
//! into `dd-obs` so fault activity shows up in traces.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Decisions are drawn per million: a rule with `rate_ppm = 250_000` fires
/// on ~25% of distinct `(site, key)` probes.
pub const PPM_SCALE: u64 = 1_000_000;

/// One injection rule: fire probes at `site` with probability
/// `rate_ppm / 1_000_000` (deterministically, keyed on the probe key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Site name the rule applies to, e.g. `"executor.job_panic"`.
    pub site: String,
    /// Fire rate in parts-per-million of distinct probe keys. `0` never
    /// fires (but still exercises the armed lookup path — useful for
    /// overhead measurement); `1_000_000` always fires.
    pub rate_ppm: u32,
}

impl FaultRule {
    /// Convenience constructor.
    pub fn new(site: &str, rate_ppm: u32) -> Self {
        FaultRule {
            site: site.to_string(),
            rate_ppm,
        }
    }
}

/// A seeded fault campaign: which sites fire, how often, and the seed that
/// makes every decision reproducible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Campaign seed; mixed into every decision and payload.
    pub seed: u64,
    /// Injection rules. Sites without a rule never fire but their probe
    /// checks are still counted while armed.
    pub rules: Vec<FaultRule>,
}

impl ChaosPlan {
    /// A plan with the given seed and no rules (nothing fires; probes are
    /// still counted — the configuration the overhead gate measures).
    pub fn inert(seed: u64) -> Self {
        ChaosPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Add a rule, builder style.
    #[must_use]
    pub fn with_rule(mut self, site: &str, rate_ppm: u32) -> Self {
        self.rules.push(FaultRule::new(site, rate_ppm));
        self
    }
}

/// Check/fire counts for one site, accumulated while armed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Number of [`fires`] probes evaluated at this site.
    pub checks: u64,
    /// Number of those probes that fired.
    pub fires: u64,
}

/// What a finished session saw: the plan's seed plus per-site accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Seed of the plan that was armed.
    pub seed: u64,
    /// Per-site check/fire counts, keyed by site name (sorted).
    pub sites: BTreeMap<String, SiteStats>,
}

impl ChaosReport {
    /// Fire count for `site` (0 if the site was never probed).
    pub fn fires_at(&self, site: &str) -> u64 {
        self.sites.get(site).map(|s| s.fires).unwrap_or(0)
    }

    /// Check count for `site` (0 if the site was never probed).
    pub fn checks_at(&self, site: &str) -> u64 {
        self.sites.get(site).map(|s| s.checks).unwrap_or(0)
    }
}

struct ChaosState {
    plan: ChaosPlan,
    stats: BTreeMap<String, SiteStats>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<ChaosState>> = Mutex::new(None);
static SESSION: Mutex<()> = Mutex::new(());

fn state_lock() -> MutexGuard<'static, Option<ChaosState>> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// True when a fault plan is armed. This is the fast-path check every probe
/// starts with; disarmed it is a single relaxed atomic load.
#[inline(always)]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// FNV-1a over the site name: stable, allocation-free site fingerprint.
fn site_hash(site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: avalanches the combined (seed, site, key) word.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn decision_word(seed: u64, site: &str, key: u64, salt: u64) -> u64 {
    mix(seed ^ site_hash(site).rotate_left(17) ^ mix(key) ^ salt)
}

/// Should the fault at `site` fire for this probe?
///
/// `key` is the caller's stable identity for the probe (job index ⊕ request
/// sequence ⊕ attempt, connection-id/line-id pair, …). The decision is a
/// pure function of the armed plan's seed, the site name, and `key` — never
/// of call order — so campaigns are deterministic under work stealing.
///
/// Disarmed this is one relaxed load; armed it takes the plan lock, counts
/// the check, and (on fire) emits a `chaos.fire` event into `dd-obs`.
#[inline]
pub fn fires(site: &str, key: u64) -> bool {
    if !armed() {
        return false;
    }
    fires_slow(site, key)
}

#[cold]
fn fires_slow(site: &str, key: u64) -> bool {
    let mut guard = state_lock();
    let Some(state) = guard.as_mut() else {
        return false;
    };
    let entry = state.stats.entry(site.to_string()).or_default();
    entry.checks += 1;
    let rate = state
        .plan
        .rules
        .iter()
        .find(|r| r.site == site)
        .map(|r| u64::from(r.rate_ppm))
        .unwrap_or(0);
    if rate == 0 {
        return false;
    }
    let fired = decision_word(state.plan.seed, site, key, 0) % PPM_SCALE < rate;
    if fired {
        entry.fires += 1;
        drop(guard); // Don't hold the plan lock across the obs probe.
        dd_obs::event("chaos.fire", || format!("site={site} key={key}"));
    }
    fired
}

/// Deterministic per-probe entropy for *shaping* a fault that already fired
/// (corruption offsets, garbage bytes, stall jitter). Pure in
/// `(seed, site, key)`; returns 0 when disarmed.
pub fn payload(site: &str, key: u64) -> u64 {
    if !armed() {
        return 0;
    }
    let guard = state_lock();
    match guard.as_ref() {
        Some(state) => decision_word(state.plan.seed, site, key, 0x5ca1_ab1e),
        None => 0,
    }
}

/// An exclusive armed session: faults inject until [`ChaosSession::finish`]
/// (or drop). Sessions serialize on a global lock so concurrent tests
/// cannot pollute each other's plans or accounting.
pub struct ChaosSession {
    _guard: MutexGuard<'static, ()>,
}

/// Arm a fault plan for the whole process. Returns the session guard;
/// faults stop (and the plan is cleared) when it is finished or dropped.
pub fn arm(plan: ChaosPlan) -> ChaosSession {
    let guard = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
    {
        let mut state = state_lock();
        *state = Some(ChaosState {
            plan,
            stats: BTreeMap::new(),
        });
    }
    ARMED.store(true, Ordering::Relaxed);
    ChaosSession { _guard: guard }
}

impl ChaosSession {
    /// Disarm and return the per-site accounting for everything probed
    /// while the session was live.
    pub fn finish(self) -> ChaosReport {
        ARMED.store(false, Ordering::Relaxed);
        let report = {
            let mut state = state_lock();
            state.take().map(|s| ChaosReport {
                seed: s.plan.seed,
                sites: s.stats,
            })
        };
        report.unwrap_or_default()
        // Drop releases the session lock.
    }

    /// Snapshot the per-site accounting so far without disarming.
    pub fn snapshot(&self) -> ChaosReport {
        snapshot().unwrap_or_default()
    }
}

impl Drop for ChaosSession {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::Relaxed);
        let mut state = state_lock();
        *state = None;
    }
}

/// Snapshot the armed session's per-site accounting (None when disarmed).
/// The sweep server uses this to surface fault activity in its `stats`
/// wire reply.
pub fn snapshot() -> Option<ChaosReport> {
    if !armed() {
        return None;
    }
    let guard = state_lock();
    guard.as_ref().map(|s| ChaosReport {
        seed: s.plan.seed,
        sites: s.stats.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_probes_are_inert_and_free_of_state() {
        // No session: probes must return false/0 and record nothing. Hold
        // the session lock, as `arm` does, so no sibling test arms the
        // process-global plane while this one checks it is disarmed.
        let _serialized = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!armed());
        assert!(!fires("test.site", 7));
        assert_eq!(payload("test.site", 7), 0);
        assert!(snapshot().is_none());
    }

    #[test]
    fn decisions_are_pure_in_seed_site_key() {
        let decide = |seed: u64, site: &str, key: u64| {
            let session = arm(ChaosPlan::inert(seed).with_rule(site, 500_000));
            let fired = fires(site, key);
            session.finish();
            fired
        };
        for key in 0..64 {
            let a = decide(42, "test.pure", key);
            let b = decide(42, "test.pure", key);
            assert_eq!(a, b, "same (seed, site, key) must agree");
        }
        // Different seeds must disagree somewhere in a small key range.
        let flips = (0..64).filter(|&k| decide(1, "test.pure", k) != decide(2, "test.pure", k));
        assert!(flips.count() > 0, "seed must influence decisions");
    }

    #[test]
    fn decisions_ignore_probe_order() {
        let session = arm(ChaosPlan::inert(9).with_rule("test.order", 300_000));
        let forward: Vec<bool> = (0..32).map(|k| fires("test.order", k)).collect();
        let backward: Vec<bool> = (0..32).rev().map(|k| fires("test.order", k)).collect();
        session.finish();
        let backward: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn rate_extremes_never_and_always_fire() {
        let session = arm(ChaosPlan::inert(3)
            .with_rule("test.never", 0)
            .with_rule("test.always", 1_000_000));
        for key in 0..128 {
            assert!(!fires("test.never", key));
            assert!(fires("test.always", key));
        }
        let report = session.finish();
        assert_eq!(report.checks_at("test.never"), 128);
        assert_eq!(report.fires_at("test.never"), 0);
        assert_eq!(report.fires_at("test.always"), 128);
    }

    #[test]
    fn mid_rates_fire_roughly_in_proportion() {
        let session = arm(ChaosPlan::inert(77).with_rule("test.half", 500_000));
        let fired = (0..1000u64).filter(|&k| fires("test.half", k)).count();
        session.finish();
        // Deterministic given the seed; generous band around 50%.
        assert!((350..=650).contains(&fired), "fired {fired}/1000");
    }

    #[test]
    fn unruled_sites_are_counted_but_never_fire() {
        let session = arm(ChaosPlan::inert(5));
        assert!(!fires("test.unruled", 1));
        assert!(!fires("test.unruled", 2));
        let report = session.finish();
        assert_eq!(report.checks_at("test.unruled"), 2);
        assert_eq!(report.fires_at("test.unruled"), 0);
    }

    #[test]
    fn payload_is_deterministic_and_site_sensitive() {
        let session = arm(ChaosPlan::inert(11));
        let a = payload("test.pay", 4);
        let b = payload("test.pay", 4);
        let c = payload("test.other", 4);
        session.finish();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn finish_drains_and_disarms() {
        let session = arm(ChaosPlan::inert(1).with_rule("test.drain", 1_000_000));
        assert!(fires("test.drain", 0));
        let report = session.finish();
        assert_eq!(report.fires_at("test.drain"), 1);
        // As in `disarmed_probes_are_inert_and_free_of_state`: hold the
        // session lock so no sibling test arms the plane before the checks.
        let _serialized = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!armed());
        assert!(!fires("test.drain", 0));
    }
}
