//! Pinned benign streams, and the rows they may touch.
//!
//! The scenario matrix and the fleet day build their benign traffic from
//! the seeded generators over the data rows of a device. This suite folds
//! what that traffic is, on both presets, into FNV-1a digests recorded
//! when it was written:
//!
//! * the first [`STREAM_OPS`] ops of every [`BackgroundLoad`] stream,
//!   built the way a scenario-matrix cell builds it (a 64-row hot set
//!   spread over every data row, scans over all of them);
//! * every `fleet_day` phase, as [`DiurnalProfile::sample_ops`] draws it
//!   and as [`DiurnalProfile::traffic`] drives one window of it;
//! * the row set of each of those traffics' universes.
//!
//! A reordered RNG draw, a moved row or a changed universe changes a
//! digest. A property test then checks that no such stream, and no
//! universe, names a row outside the geometry or in the reserved region
//! DNN-Defender swaps through.

use dd_dram::{DramConfig, GlobalRowId, MemoryController};
use dd_workload::{
    all_data_rows, run_workload, BackgroundLoad, BenignTraffic, DiurnalProfile, DriverConfig,
    OpKind, Rows, WorkloadGenerator, WorkloadOp,
};
use dnn_defender::{StableHasher, Undefended};
use proptest::prelude::*;

/// Ops drawn from each stream of a background load.
const STREAM_OPS: usize = 4096;

/// Seed of the background-load streams.
const LOAD_SEED: u64 = 0x5eed_2024;

/// Seed of the fleet day.
const DAY_SEED: u64 = 20240808;

/// Ops per phase drawn through `sample_ops`.
const SAMPLE_OPS: usize = 512;

/// Each digest, by name, recorded from the code as it stood when the
/// suite was written. On a mismatch the test prints every digest as it
/// now reads.
#[rustfmt::skip]
const PINNED: [(&str, u64); 38] = [
    ("lpddr4_small/light/streams", 0x33856a7d19e09f2a),
    ("lpddr4_small/light/universe", 0x308b7814cef62970),
    ("lpddr4_small/heavy/streams", 0x9b02e1b99a2bf2af),
    ("lpddr4_small/heavy/universe", 0x308b7814cef62970),
    ("lpddr4_small/multi-tenant/streams", 0xd485d30d8f4882e4),
    ("lpddr4_small/multi-tenant/universe", 0x308b7814cef62970),
    ("lpddr4_small/fleet-day/sample_ops", 0x135829698f6b5480),
    ("lpddr4_small/fleet-day/night-scan/traffic", 0x86c9a62ba447fee2),
    ("lpddr4_small/fleet-day/night-scan/universe", 0x308b7814cef62970),
    ("lpddr4_small/fleet-day/dawn-ramp/traffic", 0xf8c141070128a2aa),
    ("lpddr4_small/fleet-day/dawn-ramp/universe", 0x308b7814cef62970),
    ("lpddr4_small/fleet-day/midday-peak/traffic", 0xcd74401ee4f3bddf),
    ("lpddr4_small/fleet-day/midday-peak/universe", 0x308b7814cef62970),
    ("lpddr4_small/fleet-day/hot-shift/traffic", 0x80cb99ca310b00f5),
    ("lpddr4_small/fleet-day/hot-shift/universe", 0x308b7814cef62970),
    ("lpddr4_small/fleet-day/evening-serve/traffic", 0x57747d02960f1ee5),
    ("lpddr4_small/fleet-day/evening-serve/universe", 0x308b7814cef62970),
    ("lpddr4_small/fleet-day/late-drain/traffic", 0x6c5b061839b3bac7),
    ("lpddr4_small/fleet-day/late-drain/universe", 0x308b7814cef62970),
    ("ddr4_32gb/light/streams", 0xc82286d45df77863),
    ("ddr4_32gb/light/universe", 0xe61c5df9181f9e52),
    ("ddr4_32gb/heavy/streams", 0x411541d96bba4f66),
    ("ddr4_32gb/heavy/universe", 0xe61c5df9181f9e52),
    ("ddr4_32gb/multi-tenant/streams", 0x569444789ae55fed),
    ("ddr4_32gb/multi-tenant/universe", 0xe61c5df9181f9e52),
    ("ddr4_32gb/fleet-day/sample_ops", 0xa2b5a74983f4490a),
    ("ddr4_32gb/fleet-day/night-scan/traffic", 0x42757cf2910a0597),
    ("ddr4_32gb/fleet-day/night-scan/universe", 0xe61c5df9181f9e52),
    ("ddr4_32gb/fleet-day/dawn-ramp/traffic", 0xe96a5205ddcebfe4),
    ("ddr4_32gb/fleet-day/dawn-ramp/universe", 0xe61c5df9181f9e52),
    ("ddr4_32gb/fleet-day/midday-peak/traffic", 0xe5bceb4fbd0df959),
    ("ddr4_32gb/fleet-day/midday-peak/universe", 0xe61c5df9181f9e52),
    ("ddr4_32gb/fleet-day/hot-shift/traffic", 0x9c354907a0f68924),
    ("ddr4_32gb/fleet-day/hot-shift/universe", 0xe61c5df9181f9e52),
    ("ddr4_32gb/fleet-day/evening-serve/traffic", 0xe969ed181af79bc2),
    ("ddr4_32gb/fleet-day/evening-serve/universe", 0xe61c5df9181f9e52),
    ("ddr4_32gb/fleet-day/late-drain/traffic", 0x5f24a326a7825bfe),
    ("ddr4_32gb/fleet-day/late-drain/universe", 0xe61c5df9181f9e52),
];

fn presets() -> [(&'static str, DramConfig); 2] {
    [
        ("lpddr4_small", DramConfig::lpddr4_small()),
        ("ddr4_32gb", DramConfig::ddr4_32gb()),
    ]
}

fn loaded() -> [BackgroundLoad; 3] {
    [
        BackgroundLoad::Light,
        BackgroundLoad::Heavy,
        BackgroundLoad::MultiTenant,
    ]
}

/// The hot and cold rows of a scenario-matrix cell: every data row, and
/// 64 of them spread evenly over the device.
fn cell_rows(config: &DramConfig) -> (Rows, Rows) {
    let cold = all_data_rows(config);
    (cold.spread(64), cold)
}

fn load_streams(
    config: &DramConfig,
    load: BackgroundLoad,
    seed: u64,
) -> Vec<(Box<dyn WorkloadGenerator>, u32)> {
    let (hot, cold) = cell_rows(config);
    load.build_streams(seed, config, &hot, &cold)
}

fn load_traffic(config: &DramConfig, load: BackgroundLoad) -> BenignTraffic {
    let (hot, cold) = cell_rows(config);
    BenignTraffic::for_load(load, LOAD_SEED, config, &hot, &cold).expect("a loaded level")
}

/// The universe's rows, in address order.
fn universe_rows(traffic: &BenignTraffic) -> Vec<usize> {
    assert_eq!(traffic.universe().outside(), 0);
    traffic.universe().iter().collect()
}

fn write_op(h: &mut StableHasher, op: WorkloadOp) {
    h.write_u64(match op.kind {
        OpKind::Read => 0,
        OpKind::Write => 1,
    });
    h.write_usize(op.row.bank.0);
    h.write_usize(op.row.subarray.0);
    h.write_usize(op.row.row.0);
}

/// An order-free digest of a row set: its size and the wrapping sum of a
/// mixed hash of each row's flat index.
fn set_digest(rows: &[usize]) -> u64 {
    let mut sum = 0u64;
    for &flat in rows {
        let mut z = flat as u64;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        sum = sum.wrapping_add(z ^ (z >> 31));
    }
    let mut h = StableHasher::new();
    h.write_usize(rows.len());
    h.write_u64(sum);
    h.finish()
}

fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (preset, config) in presets() {
        for load in loaded() {
            let mut h = StableHasher::new();
            for (mut stream, weight) in load_streams(&config, load, LOAD_SEED) {
                h.write_str(stream.label());
                h.write_u64(u64::from(weight));
                for _ in 0..STREAM_OPS {
                    write_op(&mut h, stream.next_op());
                }
            }
            out.push((format!("{preset}/{load}/streams"), h.finish()));
            let traffic = load_traffic(&config, load);
            let rows = universe_rows(&traffic);
            out.push((format!("{preset}/{load}/universe"), set_digest(&rows)));
        }

        let profile = DiurnalProfile::fleet_day(DAY_SEED);
        let mut h = StableHasher::new();
        for op in profile.sample_ops(&config, SAMPLE_OPS) {
            write_op(&mut h, op);
        }
        out.push((format!("{preset}/fleet-day/sample_ops"), h.finish()));

        // One window of every phase, in diurnal order on one device, as
        // the fleet-day benchmark drives them.
        let mut mem = MemoryController::try_new(config.clone()).expect("preset is valid");
        let mut defense = Undefended::new();
        for (i, phase) in profile.phases.iter().enumerate() {
            let mut traffic = profile.traffic(i, &config);
            let report = run_workload(
                &mut mem,
                &mut defense,
                None,
                &mut traffic,
                &[],
                &DriverConfig {
                    benign_windows: 1,
                    attack_windows: 0,
                    record: true,
                },
            )
            .expect("benign window");
            let mut h = StableHasher::new();
            h.write_str(traffic.label());
            h.write_u64(traffic.ops_per_window());
            h.write_u64(traffic.batch());
            for op in report.trace.as_deref().expect("recorded") {
                write_op(&mut h, *op);
            }
            for v in [
                report.benign_ops,
                report.commands,
                report.disturbed_rows,
                report.peak_benign_disturbance,
            ] {
                h.write_u64(v);
            }
            h.write_u64(report.sim_nanos as u64);
            h.write_u64(report.busy_nanos as u64);
            out.push((
                format!("{preset}/fleet-day/{}/traffic", phase.name),
                h.finish(),
            ));
            let rows = universe_rows(&traffic);
            out.push((
                format!("{preset}/fleet-day/{}/universe", phase.name),
                set_digest(&rows),
            ));
        }
    }
    out
}

#[test]
fn benign_streams_match_their_recorded_digests() {
    let now = digests();
    let table: String = now
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert!(
        now == pinned,
        "benign streams moved; they now read:\n{table}"
    );
}

/// Whether `row` is a data row of `config`: inside the geometry and below
/// the reserved region.
fn is_data_row(config: &DramConfig, row: GlobalRowId) -> bool {
    config.check_addr(row).is_ok() && row.row.0 < config.data_rows_per_subarray()
}

/// Whether the flat index `(bank·spb + subarray)·rows + row` names a data
/// row of `config`.
fn is_data_flat(config: &DramConfig, flat: usize) -> bool {
    flat < config.total_rows() && flat % config.rows_per_subarray < config.data_rows_per_subarray()
}

/// Every row of every background-load and fleet-day universe is a data
/// row: inside the geometry and outside the reserved rows DNN-Defender
/// swaps through.
#[test]
fn no_benign_universe_holds_a_reserved_row() {
    for (preset, config) in presets() {
        let profile = DiurnalProfile::fleet_day(DAY_SEED);
        let universes = loaded()
            .into_iter()
            .map(|load| (load.to_string(), load_traffic(&config, load)))
            .chain((0..profile.phases.len()).map(|phase| {
                (
                    profile.phases[phase].name.to_string(),
                    profile.traffic(phase, &config),
                )
            }));
        for (name, traffic) in universes {
            let rows = universe_rows(&traffic);
            assert!(!rows.is_empty(), "{preset}/{name}");
            assert!(
                rows.iter().all(|&r| is_data_flat(&config, r)),
                "{preset}/{name} universe holds a reserved row"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Every op of every background-load stream and fleet-day phase, on
    /// both presets and whatever the seed, is a data row.
    #[test]
    fn no_benign_stream_touches_a_reserved_row(seed in any::<u64>()) {
        for (preset, config) in presets() {
            for load in loaded() {
                for (mut stream, _) in load_streams(&config, load, seed) {
                    for _ in 0..STREAM_OPS {
                        let op = stream.next_op();
                        prop_assert!(
                            is_data_row(&config, op.row),
                            "{}/{} emitted {:?}", preset, load, op.row
                        );
                    }
                }
            }
            for op in DiurnalProfile::fleet_day(seed).sample_ops(&config, SAMPLE_OPS) {
                prop_assert!(is_data_row(&config, op.row), "{} fleet day emitted {:?}", preset, op.row);
            }
        }
    }
}
