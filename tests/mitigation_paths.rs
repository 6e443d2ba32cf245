//! Pinned campaign paths of the relocating mitigations.
//!
//! SHADOW, RRS/SRS and DNN-Defender each play the RowHammer race on more
//! than one path: the scenario matrix's scratch device, a deployed model
//! image (its secured set installed with or without the weight map), the
//! workload driver under load, and DNN-Defender's victim-watching tap
//! with and without a map. The matrix CSVs drop `row_clones`,
//! `non_target_refreshes` and `defense_misses`, and no benchmark replays
//! a deployed campaign, so this suite folds each (mechanism, path) run
//! into one FNV-1a digest — campaign outcomes, [`DefenseStats`],
//! [`MemStats`], the simulated clock, and the row payloads, model bytes
//! and weight-map rows wherever a model is deployed — and compares it
//! with the value recorded when the suite was written. A reordered RNG
//! draw, DRAM command or counter update changes a digest.

use std::collections::BTreeSet;

use dd_baselines::{AttackerTracking, RowSwapMechanism, ShadowMechanism, SwapScheme};
use dd_dram::rowhammer::preferred_aggressor;
use dd_dram::{DramConfig, GlobalRowId, MemStats, MemoryController, Nanos};
use dd_nn::init::seeded_rng;
use dd_nn::layers::{Flatten, Linear};
use dd_nn::model::Network;
use dd_qnn::{BitAddr, QModel};
use dd_workload::{all_data_rows, run_workload, BackgroundLoad, BenignTraffic, DriverConfig, Rows};
use dnn_defender::defense::{
    CampaignView, DefenseConfig, DefenseMechanism, DefenseStats, DnnDefenderDefense, DynDefense,
    FlipAttempt,
};
use dnn_defender::{ProtectedSystem, WeightMap};

/// Seed of every mechanism's RNG and of the deployed model.
const SEED: u64 = 2024;

/// The mechanism configurations, in the row order of [`PINNED`].
const MECHANISMS: [&str; 9] = [
    "SHADOW/1000",
    "SHADOW/2",
    "SHADOW/0",
    "RRS",
    "SRS",
    "RRS/white-box",
    "DNN-Defender",
    "DNN-Defender/budget-1",
    "DNN-Defender/no-non-target",
];

/// The campaign paths, in the column order of [`PINNED`].
const PATHS: [&str; 7] = [
    "scratch",
    "deployed",
    "stale-secured",
    "driver/heavy",
    "driver/multi-tenant",
    "mapped-tap",
    "map-less-tap",
];

/// Digest of each (mechanism, path) run, recorded from the code as it
/// stood when the suite was written. On a mismatch the test prints the
/// whole table as it now reads.
#[rustfmt::skip]
const PINNED: [[u64; 7]; 9] = [
    [0x6379fc7a9bd43cca, 0x3ca0fb89e7b44503, 0x3ca0fb89e7b44503, 0xcf5fcdc517ed83bd, 0xb5e3898329955cbf, 0xec5d06178e68a49f, 0xec5d06178e68a49f],
    [0xfd6ec1f92b431997, 0x48d45284dae24a05, 0x48d45284dae24a05, 0xd4ae6662a5a3e694, 0xf6cc293c1964e0fe, 0xec5d06178e68a49f, 0xec5d06178e68a49f],
    [0xd26fa909a8b7e243, 0x986bf52118d47ece, 0x986bf52118d47ece, 0xa2ee27ed53fb67e2, 0xa1ae3efe537ff5e4, 0xec5d06178e68a49f, 0xec5d06178e68a49f],
    [0x934083b4d5ae5463, 0x75ccdb1487c131dc, 0x75ccdb1487c131dc, 0xd74bfae21a6d9bbe, 0x06c2fd25ff59f13c, 0xec5d06178e68a49f, 0xec5d06178e68a49f],
    [0xfe5cf3c696d16163, 0xd74b35bfdc55403c, 0xd74b35bfdc55403c, 0xa9ad8e623ae5d13e, 0xf1e5dea741118174, 0xec5d06178e68a49f, 0xec5d06178e68a49f],
    [0xfa8f39c895a25467, 0xa19513164b64b9c9, 0xa19513164b64b9c9, 0x4fca7e2976a2962f, 0x75f5765972d6b3c9, 0xec5d06178e68a49f, 0xec5d06178e68a49f],
    [0x76d19567cfaca0c4, 0x7daa8368e444fad0, 0x7daa8368e444fad0, 0x4dea3574c1433711, 0xd1160381a78944f7, 0xc89da6a92dc920f6, 0xfc0d47a256e27fc3],
    [0xe8bf04f1e03769c2, 0x445fb7ccd5dd7594, 0x445fb7ccd5dd7594, 0x4dea3574c1433711, 0xd1160381a78944f7, 0xe7901215f2990575, 0x1d44829ee9acbdef],
    [0xfae0b86428fcb888, 0x5890236d4fc135f0, 0x5890236d4fc135f0, 0x88422a33bd639da2, 0x803f27b68feb1aa8, 0xb8d8ea596f345962, 0xf7e97cab1f8c207c],
];

fn mechanism(name: &str) -> DynDefense {
    let dd = |config| Box::new(DnnDefenderDefense::new(config, SEED)) as DynDefense;
    match name {
        "SHADOW/1000" => Box::new(ShadowMechanism::new(1000, SEED)),
        "SHADOW/2" => Box::new(ShadowMechanism::new(2, SEED)),
        "SHADOW/0" => Box::new(ShadowMechanism::new(0, SEED)),
        "RRS" => Box::new(RowSwapMechanism::new(SwapScheme::Rrs, SEED)),
        "SRS" => Box::new(RowSwapMechanism::new(SwapScheme::Srs, SEED)),
        "RRS/white-box" => Box::new(RowSwapMechanism::with_tracking(
            SwapScheme::Rrs,
            AttackerTracking::FollowsVictimAdjacency,
            SEED,
        )),
        "DNN-Defender" => dd(DefenseConfig::default()),
        "DNN-Defender/budget-1" => dd(DefenseConfig {
            swap_budget_per_window: Some(1),
            ..DefenseConfig::default()
        }),
        "DNN-Defender/no-non-target" => dd(DefenseConfig {
            refresh_non_targets: false,
            ..DefenseConfig::default()
        }),
        other => panic!("unknown mechanism {other}"),
    }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0100_0000_01b3);
    }

    fn wide(&mut self, value: u128) {
        self.word(value as u64);
        self.word((value >> 64) as u64);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    fn attempt(&mut self, attempt: FlipAttempt) {
        self.word(match attempt {
            FlipAttempt::Landed => 1,
            FlipAttempt::Resisted => 2,
            FlipAttempt::DefenseMissed => 3,
        });
    }

    fn row(&mut self, row: GlobalRowId) {
        self.word(row.bank.0 as u64);
        self.word(row.subarray.0 as u64);
        self.word(row.row.0 as u64);
    }

    fn stats(&mut self, s: DefenseStats) {
        for word in [
            s.attempts,
            s.flips_resisted,
            s.flips_landed,
            s.defense_misses,
            s.defense_ops,
            s.row_clones,
            s.non_target_refreshes,
        ] {
            self.word(word);
        }
    }

    /// Device counters, clock and every row's payload.
    fn device(&mut self, mem: &MemoryController) {
        let MemStats {
            acts,
            pres,
            reads,
            writes,
            row_clones,
            refreshes,
            busy,
        } = mem.stats();
        for word in [acts, pres, reads, writes, row_clones, refreshes] {
            self.word(word);
        }
        self.wide(busy.0);
        self.wide(mem.now().0);
        let config = mem.config();
        for bank in 0..config.banks {
            for subarray in 0..config.subarrays_per_bank {
                for row in 0..config.rows_per_subarray {
                    let row = GlobalRowId::new(bank, subarray, row);
                    let payload = mem
                        .peek_row(row.bank, row.subarray, row.row)
                        .expect("row in range");
                    self.bytes(payload);
                }
            }
        }
    }

    fn model(&mut self, model: &QModel) {
        for param in 0..model.num_qparams() {
            self.bytes(&model.qtensor(param).to_bytes());
        }
    }

    /// Where the weight map currently places each bit's row.
    fn map_rows(&mut self, map: &WeightMap, bits: &[BitAddr]) {
        for &bit in bits {
            self.row(map.locate(bit).row);
        }
    }
}

/// One path's end state: its digest and the mechanism's final stats.
struct Run {
    digest: u64,
    stats: DefenseStats,
}

fn serving_model() -> QModel {
    let mut rng = seeded_rng(SEED);
    QModel::from_network(
        Network::new("serving")
            .push(Flatten::new())
            .push(Linear::kaiming("fc", 64, 16, &mut rng)),
    )
}

/// Four secured bits on four distinct rows of the first parameter.
fn secured_bits(model: &QModel) -> Vec<BitAddr> {
    let len = model.qtensor(0).len();
    (0..4)
        .map(|i| BitAddr {
            param: 0,
            index: (i * 577) % len,
            bit: 7,
        })
        .collect()
}

/// A bit on a row no secured bit shares.
fn unsecured_bit() -> BitAddr {
    BitAddr {
        param: 0,
        index: 5 * 64 + 3,
        bit: 6,
    }
}

/// A fresh device holding the model's weights, and their map.
fn deploy(model: &QModel, config: &DramConfig) -> (MemoryController, WeightMap) {
    let mut mem = MemoryController::try_new(config.clone()).expect("device");
    let map = WeightMap::layout(model, config);
    for slot in map.slots() {
        let bytes = model.qtensor(slot.param).to_bytes();
        let mut row = vec![0u8; config.row_bytes];
        row[..slot.len].copy_from_slice(&bytes[slot.offset..slot.offset + slot.len]);
        mem.poke_row(slot.row.bank, slot.row.subarray, slot.row.row, &row)
            .expect("poke");
    }
    (mem, map)
}

fn next_window(mem: &mut MemoryController, defense: &mut DynDefense) {
    mem.advance(Nanos::from_millis(65));
    defense.on_hammer_window(mem.epoch());
}

/// The scenario matrix's scratch device: no model image, pseudo victim
/// rows (an interior row, both subarray edges of the data region), the
/// first three secured. Two rounds share a window, a third follows the
/// rollover.
fn scratch(mut defense: DynDefense) -> Run {
    let mut mem = MemoryController::try_new(DramConfig::lpddr4_small()).expect("device");
    let victims = [
        GlobalRowId::new(0, 0, 10),
        GlobalRowId::new(3, 1, 0),
        GlobalRowId::new(5, 7, 125),
        GlobalRowId::new(9, 4, 64),
    ];
    let addrs: Vec<BitAddr> = (0..victims.len())
        .map(|i| BitAddr {
            param: 0,
            index: i * 64,
            bit: 7,
        })
        .collect();
    defense.secure_bits(&addrs[..3], None);
    let mut digest = Digest::new();
    for round in 0..3 {
        if round == 2 {
            next_window(&mut mem, &mut defense);
        }
        for (&victim, &addr) in victims.iter().zip(&addrs) {
            let attempt = defense
                .filter_flip(CampaignView {
                    mem: &mut mem,
                    map: None,
                    victim,
                    bit_in_row: 7,
                    addr,
                })
                .expect("campaign");
            digest.attempt(attempt);
        }
    }
    let stats = defense.stats();
    digest.stats(stats);
    digest.device(&mem);
    Run {
        digest: digest.0,
        stats,
    }
}

/// A deployed model image attacked through [`ProtectedSystem`]: the
/// secured bits plus one unsecured bit, two rounds in one window and a
/// third after the rollover. With `stale`, the secured set is installed
/// before deployment, without the map.
fn deployed(mut defense: DynDefense, stale: bool) -> Run {
    let model = serving_model();
    let bits = secured_bits(&model);
    if stale {
        defense.secure_bits(&bits, None);
    }
    let mut system =
        ProtectedSystem::deploy_with(model, DramConfig::lpddr4_small(), defense).expect("deploy");
    if !stale {
        system.protect(bits.iter().copied());
    }
    let targets: Vec<BitAddr> = bits.iter().copied().chain([unsecured_bit()]).collect();
    let mut digest = Digest::new();
    for round in 0..3 {
        if round == 2 {
            system.next_window();
        }
        for &bit in &targets {
            digest.attempt(system.attack_bit(bit).expect("campaign"));
        }
    }
    let stats = system.stats();
    digest.stats(stats);
    digest.device(system.memory());
    digest.model(system.model_mut());
    Run {
        digest: digest.0,
        stats,
    }
}

/// One workload-driver run on a deployed image: a benign window, then
/// three attacked windows with a campaign racing mid-window.
fn driver(mut defense: DynDefense, load: BackgroundLoad) -> Run {
    let config = DramConfig::lpddr4_small();
    let model = serving_model();
    let (mut mem, mut map) = deploy(&model, &config);
    let hot: Vec<GlobalRowId> = map.slots().iter().map(|s| s.row).collect();
    let cold = Rows::listed(
        &config,
        all_data_rows(&config)
            .iter()
            .filter(|row| !hot.contains(row)),
    );
    let hot = Rows::listed(&config, hot);
    let bits = secured_bits(&model);
    defense.secure_bits(&bits, Some(&map));
    let mut traffic =
        BenignTraffic::for_load(load, SEED ^ 0x6f2d, &config, &hot, &cold).expect("loaded mix");
    let report = run_workload(
        &mut mem,
        &mut *defense,
        Some(&mut map),
        &mut traffic,
        &bits,
        &DriverConfig {
            benign_windows: 1,
            attack_windows: 3,
            record: false,
        },
    )
    .expect("driver run");
    let mut digest = Digest::new();
    for word in [
        report.benign_ops,
        report.benign_activations,
        report.benign_bytes,
        report.commands,
        report.false_defense_ops,
        report.online_defense_ops,
        report.attempts,
        report.landed,
        report.disturbed_rows,
        report.peak_benign_disturbance,
    ] {
        digest.word(word);
    }
    digest.wide(report.sim_nanos);
    digest.wide(report.busy_nanos);
    digest.stats(report.stats);
    digest.device(&mem);
    digest.map_rows(&map, &bits);
    Run {
        digest: digest.0,
        stats: report.stats,
    }
}

/// The online tap on a deployed image. Round one heats each secured
/// row's preferred aggressor to the swap watermark. Round two, a window
/// later, hammers the even data rows of those subarrays and then the odd
/// ones, so every row the first round relocated is heated wherever it now
/// lives (an activated row recharges, so each pass heats only the rows
/// between its aggressors). With `mapped`, the tap sees the map and the
/// secured set arrives without one (the tap resolves the rows); otherwise
/// the rows are resolved up front and the tap follows its moves on its
/// own.
fn tap(mut defense: DynDefense, mapped: bool) -> Run {
    let config = DramConfig::lpddr4_small();
    let model = serving_model();
    let (mut mem, mut map) = deploy(&model, &config);
    let bits = secured_bits(&model);
    defense.secure_bits(&bits, if mapped { None } else { Some(&map) });
    let watermark = config.rowhammer_threshold / 2;
    let observe = |mem: &mut MemoryController,
                   defense: &mut DynDefense,
                   map: &mut WeightMap,
                   row: GlobalRowId,
                   n: u64| {
        mem.hammer(row, n).expect("hammer");
        defense
            .observe_activation(mem, if mapped { Some(map) } else { None }, row, n)
            .expect("tap");
    };
    let subarrays: BTreeSet<(usize, usize)> = bits
        .iter()
        .map(|&bit| {
            let row = map.locate(bit).row;
            (row.bank.0, row.subarray.0)
        })
        .collect();
    for &bit in &bits {
        let hot = preferred_aggressor(map.locate(bit).row, config.rows_per_subarray);
        observe(&mut mem, &mut defense, &mut map, hot, watermark);
    }
    next_window(&mut mem, &mut defense);
    for parity in [0, 1] {
        for &(bank, subarray) in &subarrays {
            for row in (parity..config.data_rows_per_subarray()).step_by(2) {
                let row = GlobalRowId::new(bank, subarray, row);
                observe(&mut mem, &mut defense, &mut map, row, watermark / 2 + 1);
            }
        }
    }
    let stats = defense.stats();
    let mut digest = Digest::new();
    digest.stats(stats);
    digest.device(&mem);
    digest.map_rows(&map, &bits);
    Run {
        digest: digest.0,
        stats,
    }
}

fn run(mechanism_name: &str, path: &str) -> Run {
    let defense = mechanism(mechanism_name);
    match path {
        "scratch" => scratch(defense),
        "deployed" => deployed(defense, false),
        "stale-secured" => deployed(defense, true),
        "driver/heavy" => driver(defense, BackgroundLoad::Heavy),
        "driver/multi-tenant" => driver(defense, BackgroundLoad::MultiTenant),
        "mapped-tap" => tap(defense, true),
        "map-less-tap" => tap(defense, false),
        other => panic!("unknown path {other}"),
    }
}

#[test]
fn every_mitigation_path_matches_its_recorded_digest() {
    let digests: Vec<[u64; 7]> = MECHANISMS
        .iter()
        .map(|m| PATHS.map(|p| run(m, p).digest))
        .collect();
    let mut mismatches = Vec::new();
    for (m, (got, want)) in MECHANISMS.iter().zip(digests.iter().zip(&PINNED)) {
        for (p, (got, want)) in PATHS.iter().zip(got.iter().zip(want)) {
            if got != want {
                mismatches.push(format!("{m} / {p}: {got:#018x} (recorded {want:#018x})"));
            }
        }
    }
    let table: Vec<String> = digests
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
            format!("    [{}],", cells.join(", "))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} path(s) changed behaviour:\n{}\ndigests now:\n{}",
        mismatches.len(),
        mismatches.join("\n"),
        table.join("\n")
    );
}

/// SHADOW's shuffle on the scratch device is one RowClone that its
/// `DefenseStats::row_clones` leaves out; on a deployed image each
/// shuffle is an exchange through the reserved row and counts 3.
#[test]
fn shadow_counts_row_clones_only_on_deployed_images() {
    for name in ["SHADOW/1000", "SHADOW/2"] {
        let scratch = run(name, "scratch").stats;
        assert!(scratch.defense_ops > 0, "{name} never shuffled on scratch");
        assert_eq!(scratch.row_clones, 0, "{name} scratch row clones");
        for path in ["deployed", "stale-secured", "driver/heavy"] {
            let deployed = run(name, path).stats;
            assert!(deployed.defense_ops > 0, "{name} never shuffled on {path}");
            assert_eq!(
                deployed.row_clones,
                3 * deployed.defense_ops,
                "{name} {path} row clones"
            );
        }
    }
}
