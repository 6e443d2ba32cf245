//! Synthetic benign-traffic generators.
//!
//! Every generator is a deterministic, seeded stream of row-granular
//! memory operations ([`WorkloadOp`]) over a [`Rows`] universe, so a run
//! is reproducible bit-for-bit from `(generator config, seed)` alone —
//! and capturable/replayable through [`crate::trace`]. The catalogue
//! models the serving traffic the paper's defense must coexist with:
//!
//! * [`ZipfianServing`] — skewed read traffic over the rows holding
//!   model weights (inference serving: a few hot layers dominate);
//! * [`StreamingScan`] — sequential sweeps with periodic writes
//!   (logging, checkpointing, batch ETL);
//! * [`PointerChase`] — dependent single-row lookups over a seeded
//!   permutation (index/graph traversal, cache-hostile);
//! * [`TenantMix`] — a weighted interleave of per-tenant sub-streams,
//!   each confined to its own bank slice ([`tenant_rows`]), modelling
//!   co-located tenants with placement affinity.

use std::sync::Arc;

use dd_dram::{BatchOpKind, DramConfig, GlobalRowId};
use dnn_defender::{StableHash, StableHasher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rows::Rows;

/// What a benign memory operation does to its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Full-row read (`ACT` + `RD` + `PRE`).
    Read,
    /// Full-row write (`ACT` + `WR` + `PRE`).
    Write,
}

/// One benign row-granular memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadOp {
    /// Operation kind.
    pub kind: OpKind,
    /// Target row.
    pub row: GlobalRowId,
}

/// The batched kernel's form of a benign op: a read, or a write filling
/// the row with a deterministic single-byte tenant payload. The driver
/// and the `repro kernel` benchmark both decode through this one
/// function, so a replayed write produces the same bytes on every path.
pub fn batch_op_kind(op: WorkloadOp) -> BatchOpKind {
    match op.kind {
        OpKind::Read => BatchOpKind::Read,
        OpKind::Write => BatchOpKind::Write(op.row.row.0 as u8 ^ 0xA5),
    }
}

/// A deterministic source of benign traffic.
///
/// Generators never touch the device themselves; the driver executes the
/// ops they emit, which is what makes record/replay exact. Generators are
/// `Send`, so traffic (and a scenario cell that owns it) may move between
/// threads.
pub trait WorkloadGenerator: Send {
    /// Short label for reports and traces.
    fn label(&self) -> &str;

    /// Produce the next operation of the stream.
    fn next_op(&mut self) -> WorkloadOp;
}

/// Fisher–Yates shuffle with the vendored RNG (deterministic per seed).
/// Each swap draws a `usize` position whatever `T` is, so the draws do
/// not depend on how the items are stored.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Zipf-distributed read traffic over a row universe.
///
/// Rank order (which row is hottest) is a seeded permutation of the
/// input rows; popularity follows `P(rank k) ∝ 1/(k+1)^s`. Inference
/// serving reads weights far more than anything else writes them, so the
/// stream is read-only.
pub struct ZipfianServing {
    /// The rows in rank order.
    rows: Rows,
    popularity: Arc<Popularity>,
    rng: StdRng,
}

/// Zipf popularity by rank, `1/(k+1)^s` for rank `k`.
#[derive(Debug)]
struct Popularity {
    exponent: f64,
    /// Cumulative (unnormalized) popularity, one entry per rank.
    cdf: Vec<f64>,
    total: f64,
}

impl ZipfianServing {
    /// Build over `rows` with Zipf exponent `exponent` (1.0 is classic).
    ///
    /// # Panics
    ///
    /// Panics when `rows` is empty.
    pub fn new(rows: Rows, exponent: f64, seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(rows.len());
        let mut total = 0.0;
        for k in 0..rows.len() {
            total += 1.0 / ((k + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        let popularity = Popularity {
            exponent,
            cdf,
            total,
        };
        ZipfianServing::ranked(rows, Arc::new(popularity), seed)
    }

    /// Build over `rows` with this stream's exponent and a permutation of
    /// its own, sharing this stream's popularity when `rows` is as long:
    /// co-located tenants' streams over equal bank slices compute it once.
    ///
    /// # Panics
    ///
    /// Panics when `rows` is empty.
    pub fn sibling(&self, rows: Rows, seed: u64) -> Self {
        if rows.len() == self.rows.len() {
            ZipfianServing::ranked(rows, Arc::clone(&self.popularity), seed)
        } else {
            ZipfianServing::new(rows, self.popularity.exponent, seed)
        }
    }

    fn ranked(rows: Rows, popularity: Arc<Popularity>, seed: u64) -> Self {
        assert!(!rows.is_empty(), "zipfian universe must be non-empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = rows.permuted(|flat| shuffle(flat, &mut rng));
        ZipfianServing {
            rows,
            popularity,
            rng,
        }
    }

    /// The hottest `n` rows (rank order), for tests and diagnostics.
    pub fn hottest(&self, n: usize) -> impl Iterator<Item = GlobalRowId> + '_ {
        self.rows.iter().take(n)
    }
}

impl WorkloadGenerator for ZipfianServing {
    fn label(&self) -> &str {
        "zipfian-serving"
    }

    fn next_op(&mut self) -> WorkloadOp {
        let u = self.rng.gen_range(0.0..self.popularity.total);
        let idx = self.popularity.cdf.partition_point(|&c| c <= u);
        WorkloadOp {
            kind: OpKind::Read,
            row: self.rows.row(idx.min(self.rows.len() - 1)),
        }
    }
}

/// Sequential sweep over a row universe with periodic writes. Over a
/// bank slice each row is computed from the scan position, not listed.
pub struct StreamingScan {
    rows: Rows,
    pos: usize,
    /// Every `write_every`-th op is a write (0 = read-only scan).
    write_every: u64,
    issued: u64,
}

impl StreamingScan {
    /// Scan `rows` in order, writing every `write_every`-th row.
    ///
    /// # Panics
    ///
    /// Panics when `rows` is empty.
    pub fn new(rows: Rows, write_every: u64) -> Self {
        assert!(!rows.is_empty(), "scan universe must be non-empty");
        StreamingScan {
            rows,
            pos: 0,
            write_every,
            issued: 0,
        }
    }
}

impl WorkloadGenerator for StreamingScan {
    fn label(&self) -> &str {
        "streaming-scan"
    }

    fn next_op(&mut self) -> WorkloadOp {
        let row = self.rows.row(self.pos);
        self.pos = (self.pos + 1) % self.rows.len();
        let kind = if self.write_every > 0 && self.issued % self.write_every == self.write_every - 1
        {
            OpKind::Write
        } else {
            OpKind::Read
        };
        self.issued += 1;
        WorkloadOp { kind, row }
    }
}

/// Dependent lookups along a seeded single-cycle permutation of the
/// universe: each op's target is determined by the previous one, like an
/// index or linked-structure traversal. Read-only.
pub struct PointerChase {
    rows: Rows,
    /// The cycle: the universe positions in visiting order, 4 bytes each.
    cycle: Vec<u32>,
    /// Where in `cycle` the chase stands.
    at: usize,
}

impl PointerChase {
    /// Build a chase over `rows` with a seed-determined cycle, starting
    /// after the universe's first row.
    ///
    /// # Panics
    ///
    /// Panics when `rows` is empty.
    pub fn new(rows: Rows, seed: u64) -> Self {
        assert!(!rows.is_empty(), "chase universe must be non-empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cycle: Vec<u32> = (0..rows.len()).map(|i| i as u32).collect();
        shuffle(&mut cycle, &mut rng);
        let at = cycle
            .iter()
            .position(|&i| i == 0)
            .expect("the cycle visits every position");
        PointerChase { rows, cycle, at }
    }
}

impl WorkloadGenerator for PointerChase {
    fn label(&self) -> &str {
        "pointer-chase"
    }

    fn next_op(&mut self) -> WorkloadOp {
        self.at = (self.at + 1) % self.cycle.len();
        WorkloadOp {
            kind: OpKind::Read,
            row: self.rows.row(self.cycle[self.at] as usize),
        }
    }
}

/// Weighted interleave of per-tenant sub-streams.
///
/// Each draw picks a tenant with probability proportional to its weight
/// and forwards that tenant's next op — co-located serving where tenants
/// share the device but keep bank/subarray placement affinity (build the
/// sub-streams over [`tenant_rows`] slices).
pub struct TenantMix {
    tenants: Vec<(Box<dyn WorkloadGenerator>, u32)>,
    total_weight: u32,
    rng: StdRng,
}

impl TenantMix {
    /// Mix `(stream, weight)` tenants.
    ///
    /// # Panics
    ///
    /// Panics when `tenants` is empty or all weights are zero.
    pub fn new(tenants: Vec<(Box<dyn WorkloadGenerator>, u32)>, seed: u64) -> Self {
        let total_weight: u32 = tenants.iter().map(|(_, w)| w).sum();
        assert!(total_weight > 0, "tenant mix needs positive total weight");
        TenantMix {
            tenants,
            total_weight,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl WorkloadGenerator for TenantMix {
    fn label(&self) -> &str {
        "multi-tenant"
    }

    fn next_op(&mut self) -> WorkloadOp {
        let mut pick = self.rng.gen_range(0..self.total_weight);
        for (gen, weight) in &mut self.tenants {
            if pick < *weight {
                return gen.next_op();
            }
            pick -= *weight;
        }
        unreachable!("weighted pick within total weight")
    }
}

/// The data rows of the banks assigned to `tenant` out of `tenants`
/// co-located tenants (banks striped round-robin: tenant `t` owns every
/// bank `b` with `b % tenants == t`), in address order and computed, not
/// listed. This is the placement-affinity universe for [`TenantMix`]
/// sub-streams.
///
/// # Panics
///
/// Panics when `tenants` is zero or exceeds the bank count.
pub fn tenant_rows(config: &DramConfig, tenant: usize, tenants: usize) -> Rows {
    assert!(
        tenants > 0 && tenants <= config.banks,
        "tenant count must be in 1..=banks"
    );
    Rows::banks(config, tenant % tenants, tenants)
}

/// Every data row of the device, in address order.
pub fn all_data_rows(config: &DramConfig) -> Rows {
    tenant_rows(config, 0, 1)
}

/// The background-load axis of the scenario matrix: how much benign
/// traffic shares the device with the attack.
///
/// Each level is a fixed recipe of generators, per-window op budget, and
/// batch factor ([`BackgroundLoad::batch`]) — all deterministic given a
/// seed, so a load level is a *configuration*, hashable into cell cache
/// keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackgroundLoad {
    /// No benign traffic (the attacker-only cells of earlier PRs).
    None,
    /// A single zipfian serving stream at modest volume.
    Light,
    /// Serving + streaming scan + pointer chase at high volume.
    Heavy,
    /// Four co-located tenants with bank affinity ([`TenantMix`]).
    MultiTenant,
}

impl BackgroundLoad {
    /// Every load level, in increasing-interference order.
    pub const ALL: [BackgroundLoad; 4] = [
        BackgroundLoad::None,
        BackgroundLoad::Light,
        BackgroundLoad::Heavy,
        BackgroundLoad::MultiTenant,
    ];

    /// Canonical label — used in scenario rows, cell seeds, and docs.
    pub fn label(self) -> &'static str {
        match self {
            BackgroundLoad::None => "none",
            BackgroundLoad::Light => "light",
            BackgroundLoad::Heavy => "heavy",
            BackgroundLoad::MultiTenant => "multi-tenant",
        }
    }

    /// Parse a canonical label.
    pub fn parse(label: &str) -> Option<BackgroundLoad> {
        BackgroundLoad::ALL.into_iter().find(|l| l.label() == label)
    }

    /// Benign ops issued per refresh window (the thinned sample rate).
    pub fn ops_per_window(self) -> u64 {
        match self {
            BackgroundLoad::None => 0,
            BackgroundLoad::Light => 128,
            BackgroundLoad::Heavy => 512,
            BackgroundLoad::MultiTenant => 256,
        }
    }

    /// How many real activations each sampled op stands for. The driver
    /// executes one data-moving command per op plus `batch - 1` extra
    /// activations, so disturbance and counter pressure scale with the
    /// nominal traffic intensity without simulating every command. At
    /// the heavy level a zipfian hotspot sees thousands of activations
    /// per refresh window — enough to cross counter-defense trip points,
    /// which is exactly the false-positive regime the workload
    /// experiment measures.
    pub fn batch(self) -> u64 {
        match self {
            BackgroundLoad::None => 0,
            BackgroundLoad::Light => 16,
            BackgroundLoad::Heavy => 64,
            BackgroundLoad::MultiTenant => 32,
        }
    }

    /// Build the load's generator streams as `(stream, weight)` pairs for
    /// the event-driven merge. `hot` is the serving working set (the
    /// weight rows when a model is deployed); `cold` is the non-weight
    /// data region that scans and writes are confined to. Returns an
    /// empty vector for [`BackgroundLoad::None`].
    pub fn build_streams(
        self,
        seed: u64,
        config: &DramConfig,
        hot: &Rows,
        cold: &Rows,
    ) -> Vec<(Box<dyn WorkloadGenerator>, u32)> {
        let hot = if hot.is_empty() { cold } else { hot };
        match self {
            BackgroundLoad::None => Vec::new(),
            BackgroundLoad::Light => vec![(
                Box::new(ZipfianServing::new(hot.clone(), 1.0, seed)) as Box<dyn WorkloadGenerator>,
                1,
            )],
            BackgroundLoad::Heavy => vec![
                (
                    Box::new(ZipfianServing::new(hot.clone(), 1.0, seed))
                        as Box<dyn WorkloadGenerator>,
                    4,
                ),
                (Box::new(StreamingScan::new(cold.clone(), 16)), 2),
                (Box::new(PointerChase::new(cold.clone(), seed ^ 0xc4a5)), 1),
            ],
            BackgroundLoad::MultiTenant => {
                let tenants: Vec<(Box<dyn WorkloadGenerator>, u32)> = (0..4)
                    .map(|t| {
                        let affinity = tenant_rows(config, t, 4);
                        let stream: Box<dyn WorkloadGenerator> = match t {
                            // Tenant 0 serves the model; the rest run
                            // their own mixes inside their bank slices.
                            0 => Box::new(ZipfianServing::new(hot.clone(), 1.0, seed)),
                            1 => Box::new(StreamingScan::new(affinity, 8)),
                            2 => Box::new(ZipfianServing::new(affinity, 0.8, seed ^ 0x7e2a)),
                            _ => Box::new(PointerChase::new(affinity, seed ^ 0x11d7)),
                        };
                        (stream, if t == 0 { 3 } else { 1 })
                    })
                    .collect();
                vec![(
                    Box::new(TenantMix::new(tenants, seed ^ 0x9bb1)) as Box<dyn WorkloadGenerator>,
                    1,
                )]
            }
        }
    }
}

impl std::fmt::Display for BackgroundLoad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl StableHash for BackgroundLoad {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        // The label is injective over the variants; the per-level recipe
        // constants are versioned by `crate::WORKLOAD_PROTOCOL_VERSION`.
        hasher.write_str("BackgroundLoad");
        hasher.write_str(self.label());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe(n: usize) -> Rows {
        Rows::listed(
            &DramConfig::lpddr4_small(),
            (0..n).map(|r| GlobalRowId::new(0, 0, r)),
        )
    }

    #[test]
    fn batch_op_kind_reads_and_writes_the_tenant_fill() {
        let row = GlobalRowId::new(1, 2, 0x13);
        let op = |kind| WorkloadOp { kind, row };
        assert_eq!(batch_op_kind(op(OpKind::Read)), BatchOpKind::Read);
        assert_eq!(
            batch_op_kind(op(OpKind::Write)),
            BatchOpKind::Write(0x13 ^ 0xA5)
        );
    }

    #[test]
    fn zipfian_is_deterministic_and_skewed() {
        let mut a = ZipfianServing::new(universe(64), 1.0, 7);
        let mut b = ZipfianServing::new(universe(64), 1.0, 7);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..4000 {
            let (oa, ob) = (a.next_op(), b.next_op());
            assert_eq!(oa, ob, "same seed must replay identically");
            *counts.entry(oa.row).or_insert(0u64) += 1;
            assert_eq!(oa.kind, OpKind::Read);
        }
        let hottest = counts[&a.hottest(1).next().expect("a row")];
        let median_row = a.hottest(64).nth(32).expect("64 rows");
        assert!(
            hottest > 8 * counts.get(&median_row).copied().unwrap_or(0).max(1) / 2,
            "zipf skew missing: hottest={hottest}"
        );
    }

    #[test]
    fn a_sibling_streams_as_a_fresh_build_does() {
        let config = DramConfig::lpddr4_small();
        let first = ZipfianServing::new(tenant_rows(&config, 0, 4), 0.9, 1);
        for rows in [tenant_rows(&config, 1, 4), universe(40)] {
            let mut shared = first.sibling(rows.clone(), 8);
            let mut fresh = ZipfianServing::new(rows, 0.9, 8);
            for _ in 0..2000 {
                assert_eq!(shared.next_op(), fresh.next_op());
            }
        }
    }

    #[test]
    fn zipfian_seeds_differ() {
        let mut a = ZipfianServing::new(universe(64), 1.0, 1);
        let mut b = ZipfianServing::new(universe(64), 1.0, 2);
        let same = (0..100).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 100, "different seeds produced identical streams");
    }

    #[test]
    fn scan_sweeps_sequentially_with_writes() {
        let mut s = StreamingScan::new(universe(8), 4);
        let ops: Vec<WorkloadOp> = (0..16).map(|_| s.next_op()).collect();
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.row.row.0, i % 8, "scan must be sequential");
        }
        let writes = ops.iter().filter(|o| o.kind == OpKind::Write).count();
        assert_eq!(writes, 4, "one write per write_every ops");
    }

    /// The chase walks the cycle that the successor table `next_of`
    /// (`next_of[order[i]] = order[i + 1]` over the shuffled positions)
    /// spells out, starting from position 0.
    #[test]
    fn pointer_chase_walks_the_successor_table() {
        for (n, seed) in [(1, 3), (2, 9), (16, 5), (64, 0xc4a5)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut order: Vec<usize> = (0..n).collect();
            shuffle(&mut order, &mut rng);
            let mut next_of = vec![0usize; n];
            for (i, &at) in order.iter().enumerate() {
                next_of[at] = order[(i + 1) % n];
            }
            let rows = universe(n);
            let mut chase = PointerChase::new(rows.clone(), seed);
            let mut pos = 0;
            for _ in 0..3 * n {
                pos = next_of[pos];
                assert_eq!(chase.next_op().row, rows.row(pos), "n = {n}");
            }
        }
    }

    #[test]
    fn pointer_chase_visits_every_row_once_per_cycle() {
        let mut c = PointerChase::new(universe(16), 5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            seen.insert(c.next_op().row);
        }
        assert_eq!(seen.len(), 16, "chase must cycle through the universe");
    }

    #[test]
    fn tenant_rows_partition_banks() {
        let config = DramConfig::lpddr4_small();
        let mut all = std::collections::HashSet::new();
        for t in 0..4 {
            for row in tenant_rows(&config, t, 4).iter() {
                assert_eq!(row.bank.0 % 4, t, "row outside tenant's bank slice");
                assert!(all.insert(row), "tenant universes overlap");
            }
        }
        assert_eq!(all.len(), 16 * 8 * 126);
    }

    #[test]
    fn load_labels_round_trip_and_streams_build() {
        let config = DramConfig::lpddr4_small();
        let hot = universe(32);
        let cold = tenant_rows(&config, 1, 2);
        for load in BackgroundLoad::ALL {
            assert_eq!(BackgroundLoad::parse(load.label()), Some(load));
            let streams = load.build_streams(9, &config, &hot, &cold);
            assert_eq!(streams.is_empty(), load == BackgroundLoad::None);
            for (mut gen, weight) in streams {
                assert!(weight > 0);
                let _ = gen.next_op();
            }
        }
    }

    #[test]
    fn multi_tenant_mix_draws_from_all_tenants() {
        let config = DramConfig::lpddr4_small();
        let hot = Rows::listed(&config, tenant_rows(&config, 0, 4).iter().take(64));
        let cold = all_data_rows(&config);
        let mut streams = BackgroundLoad::MultiTenant.build_streams(3, &config, &hot, &cold);
        let (gen, _) = &mut streams[0];
        let mut banks = std::collections::HashSet::new();
        for _ in 0..2000 {
            banks.insert(gen.next_op().row.bank.0 % 4);
        }
        assert_eq!(banks.len(), 4, "a tenant never got scheduled");
    }
}
