//! Differential-testing oracle for the batched simulation kernel.
//!
//! The batched fast path (`MemoryController::issue_batch` + the workload
//! driver's chunked loop) is only trustworthy because the per-command
//! path survives as a reference implementation — this suite is the
//! contract between them. Every test runs the *same* traffic twice,
//! once on a `TraceMode::Full` device (the per-command reference: the
//! driver flushes after every op and each op replays through
//! `MemoryController::issue_batch_reference`) and once on a device in
//! its default mode (the batched kernel), and asserts the two runs are
//! indistinguishable:
//!
//! * identical [`DefenseStats`] (including false/online defensive ops),
//! * identical activation counters — device [`dd_dram::MemStats`] and
//!   per-row disturbance,
//! * identical row payloads (a digest of every row of the device),
//! * identical `observe_activation` call sequences (recorded by a
//!   wrapper defense),
//! * identical simulated clock and campaign outcomes.
//!
//! Coverage: all 9 [`DefenseKind`]s, every [`BackgroundLoad`], multiple
//! device geometries/thresholds, and proptest-generated random command
//! streams replayed through `BenignTraffic::from_trace`. A last test
//! checks that the oracle catches a defense that hides its online tap.

use proptest::prelude::*;

use dd_baselines::DefenseKind;
use dd_dram::{DramConfig, DramError, GlobalRowId, MemStats, MemoryController, TraceMode};
use dd_nn::init::seeded_rng;
use dd_nn::layers::{Flatten, Linear};
use dd_nn::model::Network;
use dd_qnn::{BitAddr, QModel};
use dd_workload::{
    all_data_rows, run_workload, BackgroundLoad, BenignTraffic, DriverConfig, OpKind, RowSet, Rows,
    WorkloadOp,
};
use dnn_defender::defense::{CampaignView, DefenseMechanism, DefenseStats, FlipAttempt};
use dnn_defender::{DynDefense, StableHasher, WeightMap};

/// Wrapper that records every `observe_activation` call so the oracle
/// can compare the exact tap sequences the two paths deliver. With
/// `hide_tap` it also denies the inner defense's online tap.
struct Recording {
    inner: DynDefense,
    calls: Vec<(GlobalRowId, u64)>,
    hide_tap: bool,
}

impl Recording {
    fn new(inner: DynDefense) -> Self {
        Recording {
            inner,
            calls: Vec::new(),
            hide_tap: false,
        }
    }
}

impl DefenseMechanism for Recording {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn secure_bits(&mut self, bits: &[BitAddr], map: Option<&WeightMap>) {
        self.inner.secure_bits(bits, map);
    }
    fn filter_flip(&mut self, view: CampaignView<'_>) -> Result<FlipAttempt, DramError> {
        self.inner.filter_flip(view)
    }
    fn observe_activation(
        &mut self,
        mem: &mut MemoryController,
        map: Option<&mut WeightMap>,
        row: GlobalRowId,
        n: u64,
    ) -> Result<(), DramError> {
        self.calls.push((row, n));
        self.inner.observe_activation(mem, map, row, n)
    }
    fn has_online_tap(&self) -> bool {
        !self.hide_tap && self.inner.has_online_tap()
    }
    fn on_hammer_window(&mut self, epoch: u64) {
        self.inner.on_hammer_window(epoch);
    }
    fn stats(&self) -> DefenseStats {
        self.inner.stats()
    }
}

/// The two sides of the oracle.
#[derive(Debug, Clone, Copy)]
enum Side {
    /// A `TraceMode::Full` device: the per-command reference.
    Reference,
    /// A device in its default mode: the batched kernel.
    Batched,
}

impl Side {
    fn device(self, config: &DramConfig) -> MemoryController {
        let mut mem = MemoryController::try_new(config.clone()).expect("device");
        if let Side::Reference = self {
            mem.set_trace_mode(TraceMode::Full);
        }
        mem
    }
}

/// Everything one run exposes; the oracle asserts two of these equal.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: DefenseStats,
    mem: MemStats,
    now: u128,
    payload: u64,
    calls: Vec<(GlobalRowId, u64)>,
    false_defense_ops: u64,
    online_defense_ops: u64,
    attempts: u64,
    landed: u64,
    disturbed_rows: u64,
    peak_disturbance: u64,
    disturbance: Vec<u64>,
}

/// The device grid the oracle sweeps: the two matrix presets plus a
/// deliberately odd small geometry.
fn devices() -> Vec<DramConfig> {
    vec![
        DramConfig::lpddr4_small(),
        DramConfig::lpddr4_small().with_rowhammer_threshold(2400),
        DramConfig::lpddr4_small()
            .with_banks(4)
            .with_subarrays_per_bank(2)
            .with_rows_per_subarray(64),
    ]
}

fn serving_model(seed: u64) -> QModel {
    let mut rng = seeded_rng(seed);
    QModel::from_network(
        Network::new("serving")
            .push(Flatten::new())
            .push(Linear::kaiming("fc", 64, 16, &mut rng)),
    )
}

fn spread_bits(model: &QModel, n: usize) -> Vec<BitAddr> {
    let len = model.qtensor(0).len();
    (0..n)
        .map(|i| BitAddr {
            param: 0,
            index: (i * 577) % len,
            bit: 7,
        })
        .collect()
}

/// A digest of every row's payload, in address order.
fn payload_digest(mem: &MemoryController) -> u64 {
    let config = mem.config();
    let mut hasher = StableHasher::new();
    for bank in 0..config.banks {
        for subarray in 0..config.subarrays_per_bank {
            for row in 0..config.rows_per_subarray {
                let row = GlobalRowId::new(bank, subarray, row);
                let payload = mem
                    .peek_row(row.bank, row.subarray, row.row)
                    .expect("row in range");
                hasher.write_bytes(payload);
            }
        }
    }
    hasher.finish()
}

fn outcome_of(
    mem: MemoryController,
    recording: Recording,
    report: dd_workload::DriverReport,
    universe: &RowSet,
) -> Outcome {
    Outcome {
        stats: report.stats,
        mem: mem.stats(),
        now: mem.now().0,
        payload: payload_digest(&mem),
        calls: recording.calls,
        false_defense_ops: report.false_defense_ops,
        online_defense_ops: report.online_defense_ops,
        attempts: report.attempts,
        landed: report.landed,
        disturbed_rows: report.disturbed_rows,
        peak_disturbance: report.peak_benign_disturbance,
        disturbance: mem.disturbances(universe.iter()).map(|(_, d)| d).collect(),
    }
}

/// One full driver run — benign windows, then attacked windows with a
/// real campaign racing mid-window — on the given side of the oracle.
fn run_driver(
    kind: DefenseKind,
    config: &DramConfig,
    load: BackgroundLoad,
    seed: u64,
    side: Side,
) -> Outcome {
    run_recorded(
        Recording::new(kind.build(seed, config)),
        config,
        load,
        seed,
        side,
    )
}

/// [`run_driver`] with the defense already wrapped.
fn run_recorded(
    mut recording: Recording,
    config: &DramConfig,
    load: BackgroundLoad,
    seed: u64,
    side: Side,
) -> Outcome {
    let mut mem = side.device(config);
    let model = serving_model(seed);
    let mut map = WeightMap::layout(&model, config);
    let hot_set: std::collections::HashSet<GlobalRowId> =
        map.slots().iter().map(|s| s.row).collect();
    let hot = Rows::listed(config, map.slots().iter().map(|s| s.row));
    let cold = Rows::listed(
        config,
        all_data_rows(config)
            .iter()
            .filter(|r| !hot_set.contains(r)),
    );

    let bits = spread_bits(&model, 8);
    recording.secure_bits(&bits, Some(&map));

    let mut traffic = BenignTraffic::for_load(load, seed ^ 0x6f2d, config, &hot, &cold)
        .unwrap_or_else(|| {
            BenignTraffic::new(Vec::new(), load.label(), 0, 1, RowSet::new(config), config)
        });
    let universe = traffic.universe().clone();

    let report = run_workload(
        &mut mem,
        &mut recording,
        Some(&mut map),
        &mut traffic,
        &bits,
        &DriverConfig {
            benign_windows: 2,
            attack_windows: 2,
            record: false,
        },
    )
    .expect("driver run");
    outcome_of(mem, recording, report, &universe)
}

/// The exhaustive sweep of the ISSUE contract: all 9 defenses × all
/// background loads × all devices, zero divergence anywhere.
#[test]
fn all_defenses_devices_and_loads_are_path_identical() {
    for config in devices() {
        for kind in DefenseKind::TABLE3 {
            for load in BackgroundLoad::ALL {
                let reference = run_driver(kind, &config, load, 2024, Side::Reference);
                let batched = run_driver(kind, &config, load, 2024, Side::Batched);
                assert_eq!(
                    reference, batched,
                    "paths diverged for {kind:?} under {load} on {}b/{}s/{}r",
                    config.banks, config.subarrays_per_bank, config.rows_per_subarray
                );
                assert!(reference.stats.invariants_hold(), "{kind:?} stats broke");
            }
        }
    }
}

/// Tapped defenses must actually exercise their taps in the sweep above,
/// or the equality proves less than it claims.
#[test]
fn oracle_traffic_reaches_the_online_taps() {
    let config = DramConfig::lpddr4_small();
    let graphene = run_driver(
        DefenseKind::Graphene,
        &config,
        BackgroundLoad::Heavy,
        2024,
        Side::Batched,
    );
    assert!(
        !graphene.calls.is_empty(),
        "no observe_activation calls recorded"
    );
    assert!(
        graphene.false_defense_ops > 0,
        "heavy load never tripped Graphene's counter tap"
    );
    let dd = run_driver(
        DefenseKind::DnnDefender,
        &config,
        BackgroundLoad::Heavy,
        2024,
        Side::Batched,
    );
    assert!(
        dd.stats.defense_ops > 0,
        "DNN-Defender never swapped under attack + heavy load"
    );
}

/// Replay an arbitrary op stream through both paths via the trace-replay
/// generator (the driver's third hot consumer).
fn run_trace(
    kind: DefenseKind,
    config: &DramConfig,
    ops: Vec<WorkloadOp>,
    ops_per_window: u64,
    batch: u64,
    seed: u64,
    side: Side,
) -> Outcome {
    let mut mem = side.device(config);
    let model = serving_model(seed);
    let mut map = WeightMap::layout(&model, config);
    let mut recording = Recording::new(kind.build(seed, config));
    let bits = spread_bits(&model, 4);
    recording.secure_bits(&bits, Some(&map));
    let mut traffic = BenignTraffic::from_trace(ops, ops_per_window, batch, config);
    let universe = traffic.universe().clone();
    let report = run_workload(
        &mut mem,
        &mut recording,
        Some(&mut map),
        &mut traffic,
        &bits,
        &DriverConfig {
            benign_windows: 2,
            attack_windows: 1,
            record: false,
        },
    )
    .expect("replay run");
    outcome_of(mem, recording, report, &universe)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random command streams: arbitrary rows, read/write mixes, window
    /// budgets, and intensity factors — the batched kernel must track
    /// the reference bit for bit on every draw, for a defense with no
    /// tap (full chunking), the counter tap, and the victim watcher.
    #[test]
    fn random_streams_are_path_identical(
        seed in 0u64..1000,
        device_idx in 0usize..3,
        kind_idx in 0usize..3,
        batch in 1u64..48,
        ops_per_window in 16u64..160,
        picks in proptest::collection::vec((0usize..16, 0usize..8, 0usize..126, 0usize..4), 24..120),
    ) {
        let config = devices()[device_idx].clone();
        let kind = [DefenseKind::Undefended, DefenseKind::Graphene, DefenseKind::DnnDefender][kind_idx];
        let ops: Vec<WorkloadOp> = picks
            .iter()
            .map(|&(b, s, r, k)| WorkloadOp {
                kind: if k == 0 { OpKind::Write } else { OpKind::Read },
                row: GlobalRowId::new(
                    b % config.banks,
                    s % config.subarrays_per_bank,
                    r % config.data_rows_per_subarray(),
                ),
            })
            .collect();
        let reference = run_trace(kind, &config, ops.clone(), ops_per_window, batch, seed, Side::Reference);
        let batched = run_trace(kind, &config, ops, ops_per_window, batch, seed, Side::Batched);
        prop_assert_eq!(reference, batched);
    }
}

/// `DefenseMechanism::has_online_tap` promises that this oracle catches a
/// mechanism that hides its tap: the batched side then defers the tap's
/// observations across a chunk while the reference side still flushes
/// every op. Pinned on DNN-Defender under the multi-tenant load on the
/// odd 4-bank × 2-subarray × 64-row device, where a release build
/// diverges; a debug build may stop earlier at the driver's clock
/// assertion, which counts as the same catch.
#[test]
fn oracle_catches_a_hidden_tap() {
    let config = devices()[2].clone();
    let load = BackgroundLoad::MultiTenant;
    let hidden = |side| {
        let mut recording = Recording::new(DefenseKind::DnnDefender.build(2024, &config));
        recording.hide_tap = true;
        run_recorded(recording, &config, load, 2024, side)
    };
    let reference = hidden(Side::Reference);
    // The reference side never trusts the claim: hidden or not, it
    // matches the honest run.
    assert_eq!(
        reference,
        run_driver(
            DefenseKind::DnnDefender,
            &config,
            load,
            2024,
            Side::Reference
        )
    );
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hidden(Side::Batched))) {
        Ok(batched) => assert_ne!(reference, batched, "the oracle missed a hidden tap"),
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or_default();
            assert!(
                message.contains("batched clock prediction diverged"),
                "unexpected panic: {message}"
            );
        }
    }
}
