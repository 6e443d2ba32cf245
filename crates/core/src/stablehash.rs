//! Stable content hashing for experiment configurations.
//!
//! The artifact pipeline (`dd-bench`'s `repro` CLI) caches scenario-matrix
//! cells and whole experiment artifacts keyed by *what was configured*:
//! two runs with identical victim recipes, attack configs, budgets, and
//! device geometries must produce identical keys across processes and
//! across builds, while any semantic change must produce a new key. The
//! std `Hasher` machinery gives no such guarantee (`Hash` derives change
//! with field order and std versions, and `DefaultHasher` is explicitly
//! unstable), so this module pins a tiny FNV-1a implementation and an
//! explicit [`StableHash`] trait whose impls spell out exactly which
//! fields participate.
//!
//! Every impl mixes a short domain tag first so that two configs with
//! identical field bytes but different types cannot collide structurally.

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A deterministic, process-independent 64-bit FNV-1a hasher.
///
/// Unlike [`std::hash::Hasher`] implementations, the output is part of
/// the artifact format: it is written into `artifacts/*.json` and used as
/// the on-disk cache key, so it must never depend on pointer values,
/// `RandomState`, or std internals.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Mix raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Mix a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Mix a `usize` (widened to `u64` so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Mix an `f64` by bit pattern (`-0.0` and `NaN` payloads included —
    /// configs should not contain NaN, but the key must still be total).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Mix a string (length-prefixed so `("ab","c")` ≠ `("a","bc")`).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Mix a nested [`StableHash`] value.
    pub fn write<T: StableHash + ?Sized>(&mut self, v: &T) {
        v.stable_hash(self);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Types whose content can be mixed into a [`StableHasher`].
///
/// Impls must be *semantic*: include every field that changes the
/// experiment's outcome, exclude nothing that does, and never hash
/// addresses or iteration orders of unordered containers.
pub trait StableHash {
    /// Mix `self` into `hasher`.
    fn stable_hash(&self, hasher: &mut StableHasher);
}

/// Hash one value to a digest with a domain-separating tag.
pub fn stable_digest<T: StableHash + ?Sized>(tag: &str, value: &T) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(tag);
    value.stable_hash(&mut h);
    h.finish()
}

impl StableHash for u64 {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_u64(*self);
    }
}

impl StableHash for usize {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_usize(*self);
    }
}

impl StableHash for u32 {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_u64(u64::from(*self));
    }
}

impl StableHash for bool {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_bytes(&[u8::from(*self)]);
    }
}

impl StableHash for f64 {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_f64(*self);
    }
}

impl StableHash for f32 {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_f64(f64::from(*self));
    }
}

impl StableHash for str {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_str(self);
    }
}

impl StableHash for String {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_str(self);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        match self {
            None => hasher.write_bytes(&[0]),
            Some(v) => {
                hasher.write_bytes(&[1]);
                v.stable_hash(hasher);
            }
        }
    }
}

impl<T: StableHash> StableHash for [T] {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_usize(self.len());
        for v in self {
            v.stable_hash(hasher);
        }
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        self.as_slice().stable_hash(hasher);
    }
}

impl StableHash for dd_dram::Nanos {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_bytes(&self.0.to_le_bytes());
    }
}

impl StableHash for dd_dram::TimingParams {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_str("TimingParams");
        hasher.write(&self.t_act);
        hasher.write(&self.t_pre);
        hasher.write(&self.t_rd);
        hasher.write(&self.t_wr);
        hasher.write(&self.t_aap);
        hasher.write(&self.t_ref);
    }
}

impl StableHash for dd_dram::DramConfig {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_str("DramConfig");
        hasher.write_usize(self.banks);
        hasher.write_usize(self.subarrays_per_bank);
        hasher.write_usize(self.rows_per_subarray);
        hasher.write_usize(self.row_bytes);
        hasher.write_usize(self.reserved_rows_per_subarray);
        hasher.write_u64(self.rowhammer_threshold);
        hasher.write(&self.timing);
    }
}

impl StableHash for dd_attack::AttackConfig {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_str("AttackConfig");
        hasher.write(&self.target_accuracy);
        hasher.write_usize(self.max_flips);
        hasher.write_usize(self.evaluate_top_k);
        hasher.write_usize(self.record_every);
    }
}

impl StableHash for dd_attack::TbfaGoal {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_str("TbfaGoal");
        hasher.write(&self.source_class);
        hasher.write_usize(self.target_class);
    }
}

impl StableHash for dd_attack::ThreatModel {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_str(match self {
            dd_attack::ThreatModel::SemiWhiteBox => "SemiWhiteBox",
            dd_attack::ThreatModel::WhiteBox => "WhiteBox",
        });
    }
}

impl StableHash for dd_nn::data::SyntheticSpec {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_str("SyntheticSpec");
        hasher.write_usize(self.classes);
        hasher.write_usize(self.channels);
        hasher.write_usize(self.height);
        hasher.write_usize(self.width);
        hasher.write_usize(self.train_per_class);
        hasher.write_usize(self.test_per_class);
        hasher.write(&self.noise);
        hasher.write(&self.brightness_jitter);
    }
}

impl StableHash for dd_nn::train::TrainConfig {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_str("TrainConfig");
        hasher.write_usize(self.epochs);
        hasher.write_usize(self.batch_size);
        hasher.write(&self.lr);
        hasher.write(&self.momentum);
        hasher.write(&self.weight_decay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_dram::DramConfig;

    #[test]
    fn digest_is_stable_across_hashers() {
        let config = DramConfig::lpddr4_small();
        assert_eq!(
            stable_digest("t", &config),
            stable_digest("t", &DramConfig::lpddr4_small())
        );
    }

    #[test]
    fn digest_changes_with_content_and_tag() {
        let a = DramConfig::lpddr4_small();
        let b = DramConfig::lpddr4_small().with_rowhammer_threshold(a.rowhammer_threshold + 1);
        assert_ne!(stable_digest("t", &a), stable_digest("t", &b));
        assert_ne!(stable_digest("t", &a), stable_digest("u", &a));
    }

    #[test]
    fn strings_are_length_prefixed() {
        let ab_c = stable_digest("t", &vec!["ab".to_string(), "c".to_string()]);
        let a_bc = stable_digest("t", &vec!["a".to_string(), "bc".to_string()]);
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn option_distinguishes_none_from_zero() {
        assert_ne!(
            stable_digest("t", &None::<u64>),
            stable_digest("t", &Some(0u64))
        );
    }
}
