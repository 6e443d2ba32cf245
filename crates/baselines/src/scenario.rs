//! The scenario-matrix evaluation harness: attacker × defense × device
//! sweeps under the common BFA protocol, from one entry point.
//!
//! This replaces the old closed `LandingFilter` enum with the open
//! [`DefenseMechanism`] trait: a [`ScenarioMatrix`] is built from a victim
//! recipe, a list of attackers ([`AttackerKind`]), a list of defense
//! *factories* (so each cell gets a fresh, per-cell-seeded instance), and
//! a list of [`DramConfig`]s. [`ScenarioMatrix::run`] executes every cell
//! of the cross product in parallel (a `std::thread::scope` worker pool —
//! the build environment has no rayon, see `vendor/`) with a
//! deterministic per-cell RNG seed, and returns the Table 3 rows.
//!
//! ## Protocol
//!
//! Each cell attacks the same deterministically trained victim (same
//! spec + seed ⇒ identical weights, so cells are comparable), lets the
//! defense transform it ([`DefenseMechanism::prepare_victim`]) and
//! observe its deployment ([`DefenseMechanism::on_deploy`], where
//! DNN-Defender profiles its secured set), then runs the attacker's
//! search against the *belief* model. Every selected flip is replayed as
//! a mechanistic RowHammer campaign on a scratch device through
//! [`DefenseMechanism::filter_flip`]; accuracy is always measured on the
//! *real* system state (belief minus blocked flips). Bit flips commute,
//! so the belief/real bookkeeping is exact.
//!
//! A [`RunMemo`] trains each victim width once and runs each distinct
//! search once, handing every other cell an exact copy (a cloned
//! [`Network`], replayed flips). Its owner picks its lifetime:
//! [`ScenarioMatrix::run_with_cache`] makes one per call, and a sweep
//! server keeps one across all the one-cell matrices it serves
//! ([`ScenarioMatrix::run_with_memo`]). Entries are keyed by everything
//! their computation reads — the victim recipe, the attack config, the
//! deployed model compared bit for bit — so sharing never changes a cell
//! (docs/perf.md, "Run memo").

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use dd_attack::{run_bfa, run_tbfa, AttackConfig, AttackData, TbfaGoal, ThreatModel};
use dd_dram::{CellSweep, DramConfig, DramError, GlobalRowId, MemoryController, Nanos, TraceMode};
use dd_nn::data::{Dataset, SyntheticSpec};
use dd_nn::train::{train, TrainConfig};
use dd_nn::Network;
use dd_qnn::{build_model, Architecture, BitAddr, BitFlip, ModelConfig, QModel};
use dd_workload::{
    all_data_rows, drive_benign_window_sweep, BackgroundLoad, BenignTraffic, SpanTraffic,
    SweepCell, WORKLOAD_PROTOCOL_VERSION,
};
use dnn_defender::defense::{
    CampaignView, DefenseConfig, DefenseMechanism, DefenseStats, DnnDefenderDefense, DynDefense,
    Undefended,
};
use dnn_defender::{DefenseOp, Json, JsonError, SecurityModel, StableHash, StableHasher};

use crate::graphene::GrapheneDefense;
use crate::shadow::ShadowMechanism;
use crate::software::{SoftwareDefense, SoftwareKind};
use crate::swap_based::{RowSwapMechanism, SwapScheme};

/// Which attacker a scenario cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackerKind {
    /// The stock progressive bit search (Rakin et al. 2019).
    Bfa,
    /// The targeted variant (T-BFA).
    Tbfa(TbfaGoal),
    /// Uniform random flips with the given budget.
    Random {
        /// Number of random flips.
        flips: usize,
    },
    /// Attack against a protected model under the given threat model:
    /// `WhiteBox` knows the secured-bit set and searches around it,
    /// `SemiWhiteBox` is defense-blind (equivalent to [`AttackerKind::Bfa`]).
    Adaptive(ThreatModel),
}

impl AttackerKind {
    /// Canonical attacker label — the single source of truth shared by
    /// cell seeds, report rows, artifacts, and the rendered docs.
    pub fn label(&self) -> String {
        match self {
            AttackerKind::Bfa => "BFA".to_string(),
            AttackerKind::Tbfa(goal) => match goal.source_class {
                Some(s) => format!("T-BFA({s}->{})", goal.target_class),
                None => format!("T-BFA(*->{})", goal.target_class),
            },
            AttackerKind::Random { flips } => format!("Random({flips})"),
            AttackerKind::Adaptive(t) => format!("Adaptive({t:?})"),
        }
    }

    /// Inverse of [`AttackerKind::label`], for wire formats (the sweep
    /// server's cell specs) that name attackers by their canonical label.
    pub fn parse(label: &str) -> Option<AttackerKind> {
        if label == "BFA" {
            return Some(AttackerKind::Bfa);
        }
        if let Some(inner) = label
            .strip_prefix("Adaptive(")
            .and_then(|r| r.strip_suffix(')'))
        {
            return match inner {
                "SemiWhiteBox" => Some(AttackerKind::Adaptive(ThreatModel::SemiWhiteBox)),
                "WhiteBox" => Some(AttackerKind::Adaptive(ThreatModel::WhiteBox)),
                _ => None,
            };
        }
        if let Some(inner) = label
            .strip_prefix("Random(")
            .and_then(|r| r.strip_suffix(')'))
        {
            return inner
                .parse()
                .ok()
                .map(|flips| AttackerKind::Random { flips });
        }
        if let Some(inner) = label
            .strip_prefix("T-BFA(")
            .and_then(|r| r.strip_suffix(')'))
        {
            let (source, target) = inner.split_once("->")?;
            let source_class = if source == "*" {
                None
            } else {
                Some(source.parse().ok()?)
            };
            let target_class = target.parse().ok()?;
            return Some(AttackerKind::Tbfa(TbfaGoal {
                source_class,
                target_class,
            }));
        }
        None
    }
}

impl fmt::Display for AttackerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

impl StableHash for AttackerKind {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        // The label is injective over the variants and their parameters,
        // so hashing it is exactly hashing the attacker's identity.
        hasher.write_str("AttackerKind");
        hasher.write_str(&self.label());
    }
}

/// Version of the cell evaluation *behavior*: the defense
/// implementations, the constants baked into [`DefenseKind::build`]
/// (SHADOW's shuffle budget, DNN-Defender's profiling rounds, …), and
/// the replay protocol in `run_cell`. Cell cache keys and matrix config
/// hashes can only see *configuration*, not code — **bump this whenever
/// a change alters what any cell would compute for the same
/// configuration**, so every cached `CellReport` and reusable artifact
/// is invalidated.
///
/// v2: the background-workload axis (benign traffic interleaved into the
/// campaign replay, `Scenario.workload`, `CellReport.benign`).
///
/// v3: benign traffic is seeded from the non-defense axes only
/// (`ScenarioMatrix::traffic_seed`), so cells sharing (attacker,
/// device, load) carry byte-identical traffic and can be replayed as one
/// cross-cell sweep group ([`dd_dram::CellSweep`]). Every cell that runs
/// background traffic computes different numbers than v2.
pub const CELL_PROTOCOL_VERSION: u64 = 3;

/// The canonical defense roster: every mitigation the paper's Table 3
/// compares, as a closed enum so the scenario matrix, the artifacts, and
/// the rendered report all draw row labels (and factories) from one
/// place instead of ad-hoc strings at each call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DefenseKind {
    /// Undefended DRAM (the Table 3 baseline row).
    Undefended,
    /// Piece-wise clustering (software).
    Clustering,
    /// Binary (±α) weights (software).
    BinaryWeights,
    /// Model capacity ×2 (software).
    CapacityX2,
    /// Graphene counter-based victim refresh.
    Graphene,
    /// Randomized row swap.
    Rrs,
    /// Scalable row swap.
    Srs,
    /// SHADOW intra-subarray shuffling.
    Shadow,
    /// DNN-Defender with 2-round priority profiling.
    DnnDefender,
}

impl DefenseKind {
    /// The Table 3 roster in paper row order.
    pub const TABLE3: [DefenseKind; 9] = [
        DefenseKind::Undefended,
        DefenseKind::Clustering,
        DefenseKind::BinaryWeights,
        DefenseKind::CapacityX2,
        DefenseKind::Graphene,
        DefenseKind::Rrs,
        DefenseKind::Srs,
        DefenseKind::Shadow,
        DefenseKind::DnnDefender,
    ];

    /// Canonical row label. Matches the `DefenseMechanism::name` of the
    /// built mechanism (checked by a test), so the label is one fact.
    pub fn label(self) -> &'static str {
        match self {
            DefenseKind::Undefended => "Baseline (undefended)",
            DefenseKind::Clustering => SoftwareKind::Clustering.name(),
            DefenseKind::BinaryWeights => SoftwareKind::BinaryWeights.name(),
            DefenseKind::CapacityX2 => SoftwareKind::CapacityX2.name(),
            DefenseKind::Graphene => "Graphene",
            DefenseKind::Rrs => "RRS",
            DefenseKind::Srs => "SRS",
            DefenseKind::Shadow => "SHADOW",
            DefenseKind::DnnDefender => "DNN-Defender",
        }
    }

    /// Inverse of [`DefenseKind::label`], for wire formats (the sweep
    /// server's cell specs) that name defenses by their canonical label.
    pub fn parse(label: &str) -> Option<DefenseKind> {
        DefenseKind::TABLE3.into_iter().find(|k| k.label() == label)
    }

    /// The paper's per-defense attempt budget for Table 3 (hardware
    /// defenses need paper-scaled budgets for leak *rates* to be
    /// statistically visible); `None` = use the matrix default.
    pub fn paper_budget(self) -> Option<usize> {
        match self {
            DefenseKind::Graphene | DefenseKind::Rrs => Some(342),
            DefenseKind::Srs => Some(378),
            DefenseKind::Shadow => Some(985),
            DefenseKind::DnnDefender => Some(1150),
            _ => None,
        }
    }

    /// Build a fresh per-cell instance (the matrix's defense factory).
    ///
    /// Changing any constant here (or any mechanism's implementation)
    /// changes what cells compute without changing their cache keys —
    /// bump [`CELL_PROTOCOL_VERSION`] alongside such edits.
    pub fn build(self, seed: u64, config: &DramConfig) -> DynDefense {
        match self {
            DefenseKind::Undefended => Box::new(Undefended::new()),
            DefenseKind::Clustering => Box::new(SoftwareDefense::new(SoftwareKind::Clustering)),
            DefenseKind::BinaryWeights => {
                Box::new(SoftwareDefense::new(SoftwareKind::BinaryWeights))
            }
            DefenseKind::CapacityX2 => Box::new(SoftwareDefense::new(SoftwareKind::CapacityX2)),
            DefenseKind::Graphene => Box::new(GrapheneDefense::for_config(config)),
            DefenseKind::Rrs => Box::new(RowSwapMechanism::new(SwapScheme::Rrs, seed)),
            DefenseKind::Srs => Box::new(RowSwapMechanism::new(SwapScheme::Srs, seed)),
            DefenseKind::Shadow => Box::new(ShadowMechanism::new(1000, seed)),
            DefenseKind::DnnDefender => Box::new(DnnDefenderDefense::with_profiling(
                DefenseConfig::default(),
                2,
                seed,
            )),
        }
    }
}

impl fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Deterministic victim recipe: the same spec and seed always train the
/// same weights, so rows of one matrix are directly comparable. A
/// [`RunMemo`] builds each width once and gives every cell a clone.
#[derive(Debug, Clone)]
pub struct VictimSpec {
    /// Victim architecture.
    pub arch: Architecture,
    /// Synthetic dataset specification.
    pub spec: SyntheticSpec,
    /// Channel scaling (capacity-scaling defenses multiply this).
    pub base_width: usize,
    /// Main training schedule.
    pub train: TrainConfig,
    /// Optional fine-tune schedule (lr/5 polish pass).
    pub fine_tune: Option<TrainConfig>,
    /// Seed for dataset generation, init, and training.
    pub seed: u64,
    /// Attacker batch size (search = eval, the Table 1 grant).
    pub batch: usize,
}

impl VictimSpec {
    /// A test-sized 4-class MLP victim that trains in well under a second.
    pub fn tiny_mlp(seed: u64) -> Self {
        VictimSpec {
            arch: Architecture::Mlp,
            spec: SyntheticSpec {
                classes: 4,
                channels: 1,
                height: 8,
                width: 8,
                train_per_class: 32,
                test_per_class: 16,
                noise: 0.4,
                brightness_jitter: 0.1,
            },
            base_width: 4,
            train: TrainConfig {
                epochs: 8,
                batch_size: 32,
                lr: 0.1,
                momentum: 0.9,
                weight_decay: 0.0,
            },
            fine_tune: None,
            seed,
            batch: 48,
        }
    }

    /// The paper-shaped victim: an architecture on the CIFAR-10 stand-in
    /// with the two-phase (main + lr/5) schedule used by the experiment
    /// binaries.
    pub fn paper(arch: Architecture, base_width: usize, epochs: usize, seed: u64) -> Self {
        let spec = SyntheticSpec::cifar10_like();
        let train = TrainConfig {
            epochs,
            batch_size: 64,
            lr: 0.03,
            momentum: 0.9,
            weight_decay: 1e-4,
        };
        let fine_tune = Some(TrainConfig {
            epochs: epochs.div_ceil(3),
            lr: train.lr / 5.0,
            ..train
        });
        VictimSpec {
            arch,
            spec,
            base_width,
            train,
            fine_tune,
            seed,
            batch: 64,
        }
    }

    /// Train the victim deterministically at `width_mult ×` base width.
    pub fn build(&self, width_mult: usize) -> (Network, Dataset) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let dataset = Dataset::generate(self.spec, &mut rng);
        let config = ModelConfig {
            arch: self.arch,
            in_channels: self.spec.channels,
            image_side: self.spec.height,
            classes: self.spec.classes,
            base_width: self.base_width * width_mult.max(1),
        };
        let mut net = build_model(&config, &mut rng);
        train(&mut net, &dataset, self.train, &mut rng);
        if let Some(ft) = self.fine_tune {
            train(&mut net, &dataset, ft, &mut rng);
        }
        (net, dataset)
    }
}

impl StableHash for VictimSpec {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        hasher.write_str("VictimSpec");
        hasher.write_str(self.arch.name());
        hasher.write(&self.spec);
        hasher.write_usize(self.base_width);
        hasher.write(&self.train);
        hasher.write(&self.fine_tune);
        hasher.write_u64(self.seed);
        hasher.write_usize(self.batch);
    }
}

/// Builds a fresh defense for a cell: `(cell seed, device config)`.
pub type DefenseFactory = Box<dyn Fn(u64, &DramConfig) -> DynDefense + Send + Sync>;

/// One fully-resolved cell of the matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scenario {
    /// Defense row label.
    pub defense: String,
    /// Attacker label.
    pub attacker: String,
    /// Device label.
    pub dram: String,
    /// Background-workload label ([`BackgroundLoad::label`]).
    pub workload: String,
    /// The cell's deterministic RNG seed.
    pub seed: u64,
}

/// What the benign traffic sharing a cell's device experienced and
/// provoked (present only for cells with a background load).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenignReport {
    /// Benign ops executed across the cell's windows.
    pub ops: u64,
    /// Modeled benign activations (ops × the load's batch factor).
    pub activations: u64,
    /// Defensive operations fired during the benign-only warmup windows
    /// — false positives by construction.
    pub false_defense_ops: u64,
    /// Defensive operations fired from the online tap during attacked
    /// windows (cannot be attributed benign/attack by the mechanism).
    pub online_defense_ops: u64,
    /// Distinct benign rows whose disturbance reached `T_RH / 2`
    /// (excluding the rows under direct attack).
    pub disturbed_rows: u64,
    /// Peak disturbance observed on any non-attacked benign row.
    pub peak_disturbance: u64,
}

impl BenignReport {
    /// Serialize for the artifact pipeline.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("ops", Json::uint(self.ops))
            .with("activations", Json::uint(self.activations))
            .with("false_defense_ops", Json::uint(self.false_defense_ops))
            .with("online_defense_ops", Json::uint(self.online_defense_ops))
            .with("disturbed_rows", Json::uint(self.disturbed_rows))
            .with("peak_disturbance", Json::uint(self.peak_disturbance))
    }

    /// Deserialize an artifact-pipeline record.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields.
    pub fn from_json(value: &Json) -> Result<BenignReport, JsonError> {
        Ok(BenignReport {
            ops: value.field_u64("ops")?,
            activations: value.field_u64("activations")?,
            false_defense_ops: value.field_u64("false_defense_ops")?,
            online_defense_ops: value.field_u64("online_defense_ops")?,
            disturbed_rows: value.field_u64("disturbed_rows")?,
            peak_disturbance: value.field_u64("peak_disturbance")?,
        })
    }
}

/// One evaluated cell: the Table 3 row plus the defense's bookkeeping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellReport {
    /// The cell that produced this row.
    pub scenario: Scenario,
    /// Accuracy before the attack (real system).
    pub clean_accuracy: f32,
    /// Accuracy after the attack budget is spent (real system).
    pub post_attack_accuracy: f32,
    /// Campaigns the attacker spent.
    pub attempts: usize,
    /// Campaigns that corrupted memory.
    pub landed: usize,
    /// The defense's own bookkeeping.
    pub stats: DefenseStats,
    /// Benign-traffic measurements (cells with a background load only).
    pub benign: Option<BenignReport>,
}

/// Every cell of one matrix run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixReport {
    /// Cell rows in deterministic (defense-major) order.
    pub cells: Vec<CellReport>,
}

impl Scenario {
    /// Serialize for the artifact pipeline (`seed` travels as a hex
    /// string: it is a full-width FNV digest, too wide for a JSON number).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("defense", Json::str(&self.defense))
            .with("attacker", Json::str(&self.attacker))
            .with("dram", Json::str(&self.dram))
            .with("workload", Json::str(&self.workload))
            .with("seed", Json::hex(self.seed))
    }

    /// Deserialize an artifact-pipeline record.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields.
    pub fn from_json(value: &Json) -> Result<Scenario, JsonError> {
        Ok(Scenario {
            defense: value.field_str("defense")?.to_string(),
            attacker: value.field_str("attacker")?.to_string(),
            dram: value.field_str("dram")?.to_string(),
            workload: value.field_str("workload")?.to_string(),
            seed: value.field_hex_u64("seed")?,
        })
    }
}

impl CellReport {
    /// Serialize for the artifact pipeline and the on-disk cell cache.
    pub fn to_json(&self) -> Json {
        let mut json = Json::obj()
            .with("scenario", self.scenario.to_json())
            .with("clean_accuracy", Json::num(self.clean_accuracy))
            .with("post_attack_accuracy", Json::num(self.post_attack_accuracy))
            .with("attempts", Json::uint(self.attempts as u64))
            .with("landed", Json::uint(self.landed as u64))
            .with("stats", self.stats.to_json());
        if let Some(benign) = &self.benign {
            json = json.with("benign", benign.to_json());
        }
        json
    }

    /// Deserialize an artifact-pipeline / cell-cache record.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields.
    pub fn from_json(value: &Json) -> Result<CellReport, JsonError> {
        Ok(CellReport {
            scenario: Scenario::from_json(value.field("scenario")?)?,
            clean_accuracy: value.field_f64("clean_accuracy")? as f32,
            post_attack_accuracy: value.field_f64("post_attack_accuracy")? as f32,
            attempts: value.field_u64("attempts")? as usize,
            landed: value.field_u64("landed")? as usize,
            stats: DefenseStats::from_json(value.field("stats")?)?,
            benign: value
                .get("benign")
                .map(BenignReport::from_json)
                .transpose()?,
        })
    }
}

impl MatrixReport {
    /// The first cell matching a defense label (and attacker label, if
    /// given).
    pub fn cell(&self, defense: &str, attacker: Option<&str>) -> Option<&CellReport> {
        self.cells.iter().find(|c| {
            c.scenario.defense == defense && attacker.is_none_or(|a| c.scenario.attacker == a)
        })
    }

    /// Serialize for the artifact pipeline.
    pub fn to_json(&self) -> Json {
        Json::obj().with(
            "cells",
            Json::Arr(self.cells.iter().map(CellReport::to_json).collect()),
        )
    }

    /// Deserialize an artifact-pipeline record.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields.
    pub fn from_json(value: &Json) -> Result<MatrixReport, JsonError> {
        Ok(MatrixReport {
            cells: value
                .field_arr("cells")?
                .iter()
                .map(CellReport::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// One row of the Fig. 8 analytical comparison emitted next to the
/// matrix: time-to-break and capacity at a RowHammer threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig8Row {
    /// RowHammer threshold.
    pub t_rh: u64,
    /// DNN-Defender expected time-to-break (days).
    pub dd_days: f64,
    /// SHADOW expected time-to-break (days).
    pub shadow_days: f64,
    /// Maximum BFAs the defense absorbs per refresh interval.
    pub max_defended_bfas: u64,
    /// The attacker's BFA capacity per refresh interval.
    pub attacker_bfas: u64,
}

impl Fig8Row {
    /// Serialize for the artifact pipeline.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("t_rh", Json::uint(self.t_rh))
            .with("dd_days", Json::num(self.dd_days))
            .with("shadow_days", Json::num(self.shadow_days))
            .with("max_defended_bfas", Json::uint(self.max_defended_bfas))
            .with("attacker_bfas", Json::uint(self.attacker_bfas))
    }

    /// Deserialize an artifact-pipeline record.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields.
    pub fn from_json(value: &Json) -> Result<Fig8Row, JsonError> {
        Ok(Fig8Row {
            t_rh: value.field_u64("t_rh")?,
            dd_days: value.field_f64("dd_days")?,
            shadow_days: value.field_f64("shadow_days")?,
            max_defended_bfas: value.field_u64("max_defended_bfas")?,
            attacker_bfas: value.field_u64("attacker_bfas")?,
        })
    }
}

/// The Fig. 8 analytical rows for a device across thresholds.
pub fn fig8_rows(config: &DramConfig, t_rhs: &[u64]) -> Vec<Fig8Row> {
    let m = SecurityModel::from_config(config);
    t_rhs
        .iter()
        .map(|&t_rh| Fig8Row {
            t_rh,
            dd_days: m.time_to_break_days(t_rh, DefenseOp::DnnDefenderSwap),
            shadow_days: m.time_to_break_days(t_rh, DefenseOp::ShadowShuffle),
            max_defended_bfas: m.max_defended_bfas(t_rh),
            attacker_bfas: m.max_bfas_per_tref(t_rh),
        })
        .collect()
}

/// One finished cell, as seen by a live progress callback.
#[derive(Debug, Clone)]
pub struct CellProgress {
    /// Cells finished so far (including this one).
    pub done: usize,
    /// Total cells in the matrix.
    pub total: usize,
    /// The cell that finished.
    pub scenario: Scenario,
    /// Whether it was served from the cache.
    pub cache_hit: bool,
    /// Wall time of the cell's execution (0 for cache hits).
    pub millis: u64,
}

/// Tally of one [`ScenarioMatrix::run_with_cache`] invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixRunSummary {
    /// Cells in the matrix.
    pub cells: usize,
    /// Cells served from the cache.
    pub cache_hits: usize,
}

impl MatrixRunSummary {
    /// Fraction of cells served from the cache (1.0 for an empty matrix).
    pub fn hit_rate(&self) -> f64 {
        if self.cells == 0 {
            1.0
        } else {
            self.cache_hits as f64 / self.cells as f64
        }
    }
}

/// Builder for attacker × defense × device × background-load sweeps.
pub struct ScenarioMatrix {
    victim: VictimSpec,
    attackers: Vec<AttackerKind>,
    defenses: Vec<(String, DefenseFactory, Option<usize>)>,
    dram_configs: Vec<DramConfig>,
    loads: Vec<BackgroundLoad>,
    attack: AttackConfig,
    budget: usize,
    seed: u64,
    threads: Option<usize>,
    sweep: bool,
}

impl ScenarioMatrix {
    /// Matrix over the given victim with defaults: one BFA attacker, the
    /// LPDDR4-small device, no background load, the default attack
    /// config, budget 25.
    pub fn new(victim: VictimSpec) -> Self {
        ScenarioMatrix {
            victim,
            attackers: Vec::new(),
            defenses: Vec::new(),
            dram_configs: Vec::new(),
            loads: Vec::new(),
            attack: AttackConfig::default(),
            budget: 25,
            seed: 0x5ca1_ab1e,
            threads: None,
            sweep: true,
        }
    }

    /// Enable or disable cross-cell sweep grouping (default: on).
    ///
    /// Grouping is byte-invariant — every cell's report is identical
    /// either way, which the conformance suite's grouping-invariance law
    /// enforces — so this toggle exists for differential tests and for
    /// isolating performance effects. It is deliberately absent from
    /// [`ScenarioMatrix::config_hash`] and the cell cache keys.
    pub fn sweep_groups(mut self, on: bool) -> Self {
        self.sweep = on;
        self
    }

    /// Add an attacker axis entry.
    pub fn attacker(mut self, attacker: AttackerKind) -> Self {
        self.attackers.push(attacker);
        self
    }

    /// Add a background-workload axis entry: the cell replays its attack
    /// campaigns while this much benign traffic shares the device (see
    /// `dd-workload`). Defaults to [`BackgroundLoad::None`] only.
    pub fn background(mut self, load: BackgroundLoad) -> Self {
        self.loads.push(load);
        self
    }

    /// Add every [`BackgroundLoad`] level as axis entries.
    pub fn with_all_backgrounds(self) -> Self {
        BackgroundLoad::ALL
            .into_iter()
            .fold(self, |matrix, load| matrix.background(load))
    }

    /// Add a defense axis entry.
    pub fn defense(
        mut self,
        name: impl Into<String>,
        factory: impl Fn(u64, &DramConfig) -> DynDefense + Send + Sync + 'static,
    ) -> Self {
        self.defenses.push((name.into(), Box::new(factory), None));
        self
    }

    /// Add a defense axis entry with its own attempt budget, overriding
    /// the matrix default — blocking defenses need paper-scaled budgets
    /// for their leak *rates* to be statistically visible while the
    /// undefended/software rows collapse in tens of flips.
    pub fn defense_budgeted(
        mut self,
        name: impl Into<String>,
        budget: usize,
        factory: impl Fn(u64, &DramConfig) -> DynDefense + Send + Sync + 'static,
    ) -> Self {
        self.defenses
            .push((name.into(), Box::new(factory), Some(budget)));
        self
    }

    /// Add a device axis entry.
    pub fn dram_config(mut self, config: DramConfig) -> Self {
        self.dram_configs.push(config);
        self
    }

    /// Set the common attack configuration (collapse target, top-k, …).
    pub fn attack_config(mut self, attack: AttackConfig) -> Self {
        self.attack = attack;
        self
    }

    /// Set the attacker's flip-attempt budget per cell.
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Set the matrix base seed (cells derive theirs deterministically).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Cap the worker threads (default: one per available core, at most
    /// one per cell).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Add one canonical defense with its canonical label (and no budget
    /// override).
    pub fn defense_kind(self, kind: DefenseKind) -> Self {
        self.defense(kind.label(), move |seed, config| kind.build(seed, config))
    }

    /// Add one canonical defense with an attempt-budget override.
    pub fn defense_kind_budgeted(self, kind: DefenseKind, budget: usize) -> Self {
        self.defense_budgeted(kind.label(), budget, move |seed, config| {
            kind.build(seed, config)
        })
    }

    /// Add the Table 3 defense roster ([`DefenseKind::TABLE3`]): the
    /// undefended baseline, the three software defenses, and the four
    /// hardware families (Graphene, RRS/SRS, SHADOW) plus DNN-Defender
    /// with 2-round priority profiling.
    pub fn with_table3_defenses(self) -> Self {
        DefenseKind::TABLE3
            .into_iter()
            .fold(self, |matrix, kind| matrix.defense_kind(kind))
    }

    fn effective_attackers(&self) -> Vec<AttackerKind> {
        if self.attackers.is_empty() {
            vec![AttackerKind::Bfa]
        } else {
            self.attackers.clone()
        }
    }

    fn effective_dram(&self) -> Vec<DramConfig> {
        if self.dram_configs.is_empty() {
            vec![DramConfig::lpddr4_small()]
        } else {
            self.dram_configs.clone()
        }
    }

    fn effective_loads(&self) -> Vec<BackgroundLoad> {
        if self.loads.is_empty() {
            vec![BackgroundLoad::None]
        } else {
            self.loads.clone()
        }
    }

    fn cell_seed(
        &self,
        defense: &str,
        attacker: &AttackerKind,
        dram: &DramConfig,
        load: BackgroundLoad,
    ) -> u64 {
        let mut h: u64 = self.seed ^ 0xcbf2_9ce4_8422_2325;
        for b in defense
            .bytes()
            .chain(attacker.label().bytes())
            .chain(dram_label(dram).bytes())
            .chain(load.label().bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// Seed of a cell's benign traffic: derived from the *non-defense*
    /// axes only, so every cell sharing (attacker, device, load) builds
    /// byte-identical traffic regardless of its defense. This is what
    /// makes cross-cell sweep groups possible — grouped cells replay one
    /// decoded command stream — and it is a protocol property:
    /// [`CELL_PROTOCOL_VERSION`] v3.
    fn traffic_seed(
        &self,
        attacker: &AttackerKind,
        dram: &DramConfig,
        load: BackgroundLoad,
    ) -> u64 {
        let mut h: u64 = self.seed ^ 0xcbf2_9ce4_8422_2325;
        for b in attacker
            .label()
            .bytes()
            .chain(dram_label(dram).bytes())
            .chain(load.label().bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^ 0x00be_9114
    }

    fn scenario_for(
        &self,
        defense: &str,
        attacker: &AttackerKind,
        dram: &DramConfig,
        load: BackgroundLoad,
    ) -> Scenario {
        Scenario {
            defense: defense.to_string(),
            attacker: attacker.label(),
            dram: dram_label(dram),
            workload: load.label().to_string(),
            seed: self.cell_seed(defense, attacker, dram, load),
        }
    }

    /// The cells `run` will execute, in deterministic order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for (name, _, _) in &self.defenses {
            for attacker in self.effective_attackers() {
                for dram in self.effective_dram() {
                    for load in self.effective_loads() {
                        out.push(self.scenario_for(name, &attacker, &dram, load));
                    }
                }
            }
        }
        out
    }

    /// The Fig. 8 analytical rows for the matrix's (first) device.
    pub fn security_analysis(&self, t_rhs: &[u64]) -> Vec<Fig8Row> {
        let dram = self.effective_dram();
        fig8_rows(&dram[0], t_rhs)
    }

    /// Content hash of everything that determines this matrix's results:
    /// victim recipe, attack config, budgets, seeds, defense roster, and
    /// device list. Stable across processes and builds (see
    /// [`dnn_defender::stablehash`]); the artifact pipeline stamps it
    /// into `artifacts/*.json`.
    pub fn config_hash(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_str("ScenarioMatrix/v1");
        h.write_u64(CELL_PROTOCOL_VERSION);
        h.write_u64(WORKLOAD_PROTOCOL_VERSION);
        h.write(&self.victim);
        h.write(&self.attack);
        h.write_usize(self.budget);
        h.write_u64(self.seed);
        h.write_usize(self.defenses.len());
        for (name, _, budget_override) in &self.defenses {
            h.write_str(name);
            h.write(budget_override);
        }
        h.write(&self.effective_attackers());
        h.write(&self.effective_dram());
        h.write(&self.effective_loads());
        h.finish()
    }

    /// Content-hash cache key of one cell: the victim recipe, the attack
    /// config, the cell's effective budget, the defense label, the
    /// attacker, the full device config, the per-cell seed, and
    /// [`CELL_PROTOCOL_VERSION`].
    ///
    /// The key covers the cell's *configuration*, not its code: the
    /// defense participates through its label only (factories are opaque
    /// closures). Reuse is therefore sound exactly when equal labels
    /// imply equal behavior — true for [`DefenseKind`]-built rosters at
    /// a fixed [`CELL_PROTOCOL_VERSION`], but callers who pass custom
    /// factories under a reused label (or change a mechanism's
    /// implementation without bumping the version) will get stale hits.
    fn cell_cache_key(
        &self,
        defense_idx: usize,
        attacker: &AttackerKind,
        dram: &DramConfig,
        load: BackgroundLoad,
    ) -> u64 {
        let (name, _, budget_override) = &self.defenses[defense_idx];
        let mut h = StableHasher::new();
        h.write_str("ScenarioCell/v1");
        h.write_u64(CELL_PROTOCOL_VERSION);
        h.write_u64(WORKLOAD_PROTOCOL_VERSION);
        h.write(&self.victim);
        h.write(&self.attack);
        h.write_usize(budget_override.unwrap_or(self.budget));
        h.write_str(name);
        h.write(attacker);
        h.write(dram);
        h.write(&load);
        h.write_u64(self.cell_seed(name, attacker, dram, load));
        h.finish()
    }

    /// The cells `run` will execute with their cache keys, aligned with
    /// [`ScenarioMatrix::scenarios`].
    pub fn cell_keys(&self) -> Vec<(Scenario, u64)> {
        let attackers = self.effective_attackers();
        let drams = self.effective_dram();
        let loads = self.effective_loads();
        let mut out = Vec::new();
        for (d, (name, _, _)) in self.defenses.iter().enumerate() {
            for attacker in &attackers {
                for dram in &drams {
                    for &load in &loads {
                        out.push((
                            self.scenario_for(name, attacker, dram, load),
                            self.cell_cache_key(d, attacker, dram, load),
                        ));
                    }
                }
            }
        }
        out
    }

    /// Run every cell of the cross product in parallel and collect the
    /// report (cells stay in deterministic defense-major order regardless
    /// of scheduling).
    ///
    /// # Errors
    ///
    /// Returns the first [`DramError`] any cell produced.
    ///
    /// # Panics
    ///
    /// Panics when no defenses were added.
    pub fn run(&self) -> Result<MatrixReport, DramError> {
        self.run_with_cache(&HashMap::new(), None)
            .map(|(report, _)| report)
    }

    /// [`ScenarioMatrix::run`], reusing previously computed cells.
    ///
    /// Cells whose [cache key](ScenarioMatrix::cell_keys) appears in
    /// `cache` are taken from it verbatim (and counted in the summary);
    /// only the misses execute, in parallel. The misses of one call train
    /// each victim width once and run each distinct attacker search once,
    /// through a [`RunMemo`] that lives for this call only: nothing is
    /// kept across calls. `progress` (if given) is called once per
    /// finished cell — hits first, then misses as they complete, from
    /// worker threads — with a monotone `done` counter.
    ///
    /// # Errors
    ///
    /// Returns the first [`DramError`] any cell produced.
    ///
    /// # Panics
    ///
    /// Panics when no defenses were added.
    pub fn run_with_cache(
        &self,
        cache: &HashMap<u64, CellReport>,
        progress: Option<&(dyn Fn(&CellProgress) + Sync)>,
    ) -> Result<(MatrixReport, MatrixRunSummary), DramError> {
        self.run_with_memo(cache, progress, &RunMemo::default())
    }

    /// [`ScenarioMatrix::run_with_cache`] against a caller-owned
    /// [`RunMemo`]: the misses reuse every victim and search an earlier
    /// matrix left in `memo`, and leave theirs for later ones. Sharing
    /// never changes a cell, because memo keys cover the victim recipe
    /// and the attack config (see [`RunMemo`]).
    ///
    /// # Errors
    ///
    /// Returns the first [`DramError`] any cell produced.
    ///
    /// # Panics
    ///
    /// Panics when no defenses were added.
    pub fn run_with_memo(
        &self,
        cache: &HashMap<u64, CellReport>,
        progress: Option<&(dyn Fn(&CellProgress) + Sync)>,
        memo: &RunMemo,
    ) -> Result<(MatrixReport, MatrixRunSummary), DramError> {
        assert!(!self.defenses.is_empty(), "scenario matrix has no defenses");
        let attackers = self.effective_attackers();
        let drams = self.effective_dram();
        let loads = self.effective_loads();
        let cells: Vec<(usize, usize, usize, usize)> = (0..self.defenses.len())
            .flat_map(|d| {
                let attackers = &attackers;
                let drams = &drams;
                let loads = &loads;
                (0..attackers.len()).flat_map(move |a| {
                    (0..drams.len()).flat_map(move |m| (0..loads.len()).map(move |l| (d, a, m, l)))
                })
            })
            .collect();
        let total = cells.len();

        let slots: Vec<Mutex<Option<Result<CellReport, DramError>>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();
        let done = AtomicUsize::new(0);

        let mut pending: Vec<usize> = Vec::new();
        let mut cache_hits = 0usize;
        for (i, &(d, a, m, l)) in cells.iter().enumerate() {
            let key = self.cell_cache_key(d, &attackers[a], &drams[m], loads[l]);
            match cache.get(&key) {
                Some(hit) => {
                    cache_hits += 1;
                    dd_obs::add("matrix.cache_hits", 1);
                    *slots[i].lock().expect("cell slot") = Some(Ok(hit.clone()));
                    let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if let Some(observe) = progress {
                        observe(&CellProgress {
                            done: n,
                            total,
                            scenario: hit.scenario.clone(),
                            cache_hit: true,
                            millis: 0,
                        });
                    }
                }
                None => pending.push(i),
            }
        }

        if !pending.is_empty() {
            let workers = self
                .threads
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                })
                .min(pending.len())
                .max(1);

            // Partition the pending cells into cross-cell sweep groups:
            // same (attacker, device, load) with background traffic and
            // an untapped defense (probed on a throwaway instance — the
            // factory is cheap next to victim training). Grouped cells
            // pause after setup, run their benign warmup windows as one
            // kernel sweep, then return to the pool as attack jobs;
            // everything else runs the unchanged solo path. Grouping is
            // byte-invariant, so scheduling cannot change any report.
            let mut group_of: Vec<Option<usize>> = vec![None; pending.len()];
            let mut groups: Vec<Vec<usize>> = Vec::new();
            if self.sweep {
                let mut by_key: HashMap<(usize, usize, usize), Vec<usize>> = HashMap::new();
                for (p, &i) in pending.iter().enumerate() {
                    let (d, a, m, l) = cells[i];
                    if loads[l] == BackgroundLoad::None {
                        continue;
                    }
                    let (name, factory, _) = &self.defenses[d];
                    let probe_seed = self.cell_seed(name, &attackers[a], &drams[m], loads[l]);
                    if factory(probe_seed, &drams[m]).has_online_tap() {
                        continue;
                    }
                    by_key.entry((a, m, l)).or_default().push(p);
                }
                for members in by_key.into_values() {
                    if members.len() >= 2 {
                        let g = groups.len();
                        for &p in &members {
                            group_of[p] = Some(g);
                        }
                        groups.push(members);
                    }
                }
                dd_obs::add("matrix.sweep_groups", groups.len() as u64);
            }

            enum Job {
                Setup { p: usize },
                Attack { i: usize, state: Box<CellState> },
            }
            struct GroupSlot {
                expected: usize,
                arrived: Vec<(usize, Box<CellState>)>,
            }

            let queue: Mutex<Vec<Job>> =
                Mutex::new((0..pending.len()).rev().map(|p| Job::Setup { p }).collect());
            let group_slots: Vec<Mutex<GroupSlot>> = groups
                .iter()
                .map(|members| {
                    Mutex::new(GroupSlot {
                        expected: members.len(),
                        arrived: Vec::new(),
                    })
                })
                .collect();
            let remaining = AtomicUsize::new(pending.len());
            let pending = &pending;
            let cells = &cells;
            let attackers = &attackers;
            let drams = &drams;
            let loads = &loads;
            let group_of = &group_of;
            let queue = &queue;
            let group_slots = &group_slots;
            let remaining = &remaining;
            let done = &done;
            let slots = &slots;

            let finish_cell = move |i: usize, result: Result<CellReport, DramError>, ms: u64| {
                let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                if let (Some(observe), Ok(cell)) = (progress, &result) {
                    observe(&CellProgress {
                        done: n,
                        total,
                        scenario: cell.scenario.clone(),
                        cache_hit: false,
                        millis: ms,
                    });
                }
                *slots[i].lock().expect("cell slot") = Some(result);
                remaining.fetch_sub(1, Ordering::Release);
            };
            let finish_cell = &finish_cell;

            // Worker 0 is the calling thread; only the other workers get
            // a thread of their own, so a one-worker run spawns none.
            let worker = move || loop {
                if remaining.load(Ordering::Acquire) == 0 {
                    break;
                }
                let job = queue.lock().expect("job queue").pop();
                let Some(job) = job else {
                    // Jobs still in flight on other workers may
                    // yet push attack work back to the pool.
                    std::thread::sleep(Duration::from_micros(200));
                    continue;
                };
                match job {
                    Job::Setup { p } => {
                        let i = pending[p];
                        let (d, a, m, l) = cells[i];
                        let started = Instant::now();
                        let setup = {
                            let name: &str = &self.defenses[d].0;
                            let _span = dd_obs::span_with("matrix.cell_setup", || {
                                format!("defense={name} cell={i}")
                            });
                            self.cell_setup(d, &attackers[a], &drams[m], loads[l], memo)
                        };
                        let mut ready: Vec<(usize, Box<CellState>)> = Vec::new();
                        match (setup, group_of[p]) {
                            (Ok(mut state), None) => match self.warmup_solo(&mut state) {
                                Ok(()) => {
                                    state.millis += started.elapsed().as_millis() as u64;
                                    queue.lock().expect("job queue").push(Job::Attack {
                                        i,
                                        state: Box::new(state),
                                    });
                                }
                                Err(e) => {
                                    finish_cell(i, Err(e), started.elapsed().as_millis() as u64)
                                }
                            },
                            (Ok(mut state), Some(g)) => {
                                state.millis += started.elapsed().as_millis() as u64;
                                let mut slot = group_slots[g].lock().expect("group slot");
                                slot.arrived.push((i, Box::new(state)));
                                if slot.arrived.len() == slot.expected {
                                    ready = std::mem::take(&mut slot.arrived);
                                }
                            }
                            (Err(e), None) => {
                                finish_cell(i, Err(e), started.elapsed().as_millis() as u64)
                            }
                            (Err(e), Some(g)) => {
                                finish_cell(i, Err(e), started.elapsed().as_millis() as u64);
                                // Shrink the group so the cells
                                // that did set up still run.
                                let mut slot = group_slots[g].lock().expect("group slot");
                                slot.expected -= 1;
                                if slot.expected > 0 && slot.arrived.len() == slot.expected {
                                    ready = std::mem::take(&mut slot.arrived);
                                }
                            }
                        }
                        if !ready.is_empty() {
                            // The last member to arrive warms the
                            // whole group up in one sweep, then
                            // returns the cells to the pool.
                            let warm_started = Instant::now();
                            let (idxs, mut states): (Vec<usize>, Vec<CellState>) =
                                ready.into_iter().map(|(ci, b)| (ci, *b)).unzip();
                            match self.warmup_group(&mut states) {
                                Ok(()) => {
                                    let share = (warm_started.elapsed().as_millis() as u64)
                                        / states.len().max(1) as u64;
                                    let mut q = queue.lock().expect("job queue");
                                    for (ci, mut st) in idxs.into_iter().zip(states) {
                                        st.millis += share;
                                        q.push(Job::Attack {
                                            i: ci,
                                            state: Box::new(st),
                                        });
                                    }
                                }
                                Err(e) => {
                                    let ms = warm_started.elapsed().as_millis() as u64;
                                    for ci in idxs {
                                        finish_cell(ci, Err(e.clone()), ms);
                                    }
                                }
                            }
                        }
                    }
                    Job::Attack { i, state } => {
                        let started = Instant::now();
                        let base_ms = state.millis;
                        let (d, _, _, _) = cells[i];
                        let name: &str = &self.defenses[d].0;
                        let _span = dd_obs::span_with("matrix.cell_attack", || {
                            format!("defense={name} cell={i}")
                        });
                        let result = self.cell_attack(*state);
                        finish_cell(i, result, base_ms + started.elapsed().as_millis() as u64);
                    }
                }
            };
            std::thread::scope(|scope| {
                for _ in 1..workers {
                    scope.spawn(worker);
                }
                worker();
            });
        }

        let mut out = Vec::with_capacity(total);
        for slot in slots {
            out.push(
                slot.into_inner()
                    .expect("cell slot")
                    .expect("cell executed")?,
            );
        }
        Ok((
            MatrixReport { cells: out },
            MatrixRunSummary {
                cells: total,
                cache_hits,
            },
        ))
    }

    /// Phase 1 of a cell: deploy the memo's trained victim, run the
    /// attacker's search (both shared through `memo`), assemble the
    /// scratch device and its background traffic — everything up to (but
    /// excluding) the warmup windows.
    /// The returned state is `Send`, so a sweep group can collect its
    /// members from whichever worker threads set them up.
    fn cell_setup(
        &self,
        defense_idx: usize,
        attacker: &AttackerKind,
        dram: &DramConfig,
        load: BackgroundLoad,
        memo: &RunMemo,
    ) -> Result<CellState, DramError> {
        let (name, factory, budget_override) = &self.defenses[defense_idx];
        let budget = budget_override.unwrap_or(self.budget);
        let seed = self.cell_seed(name, attacker, dram, load);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut defense = factory(seed, dram);

        // Victim: deterministic per (spec, width), so the memo trains each
        // width once and every cell of that width attacks a clone.
        let width = defense.capacity_multiplier();
        let victim = memo.victim(&self.victim, width);
        let (trained, dataset) = victim.value.get().expect("trained by RunMemo::victim");
        let mut net = trained.clone();
        defense.prepare_victim(&mut net, dataset, &mut rng);
        let mut model = QModel::from_network(net);
        let mut data_rng = StdRng::seed_from_u64(self.victim.seed ^ 0x5eed_da7a);
        let batch = dataset.attack_batch(self.victim.batch.min(dataset.test.len()), &mut data_rng);
        let data = AttackData::single_batch(batch.images, batch.labels);

        // Deployment: priority schemes profile their secured set at least
        // as deep as the attacker's budget (round 1 covers the naive
        // greedy path; see EXPERIMENTS.md).
        let profile_cfg = AttackConfig {
            target_accuracy: 0.0,
            max_flips: budget,
            ..self.attack
        };
        defense.on_deploy(&mut model, &data, &profile_cfg);
        let clean = model.accuracy(&data.eval_images, &data.eval_labels);

        // The attacker's search runs on its belief model (flips applied).
        // target_accuracy 0.0: the search spends the whole budget — only
        // the replay loop's *real*-accuracy check exits early, matching
        // the common protocol (the attacker cannot read the real state).
        let search_cfg = AttackConfig {
            target_accuracy: 0.0,
            max_flips: budget,
            ..self.attack
        };
        let flips: Vec<BitFlip> = match attacker {
            AttackerKind::Bfa | AttackerKind::Adaptive(_) | AttackerKind::Tbfa(_) => {
                let skip = match attacker {
                    AttackerKind::Adaptive(threat) if threat.is_defense_aware() => {
                        defense.secured_bits().cloned().unwrap_or_default()
                    }
                    _ => HashSet::new(),
                };
                let key = SearchKey {
                    attacker: *attacker,
                    width,
                    budget,
                    recipe: Recipe::search(&self.victim, &self.attack),
                    skip,
                    model: ModelImage::of(&mut model),
                };
                memo.search(key, &mut model, |model, skip| match attacker {
                    AttackerKind::Tbfa(goal) => {
                        run_tbfa(model, &data, &search_cfg, *goal, skip).flips
                    }
                    _ => run_bfa(model, &data, &search_cfg, skip)
                        .steps
                        .iter()
                        .map(|s| s.flip)
                        .collect(),
                })
            }
            // Random flips draw from the cell's own RNG: never shared.
            AttackerKind::Random { flips } => {
                let weights: Vec<usize> = (0..model.num_qparams())
                    .map(|p| model.qtensor(p).len())
                    .collect();
                let total: usize = weights.iter().sum();
                (0..*flips)
                    .map(|_| {
                        let mut w = rng.gen_range(0..total);
                        let mut param = 0;
                        while w >= weights[param] {
                            w -= weights[param];
                            param += 1;
                        }
                        let bit = rng.gen_range(0..dd_qnn::WEIGHT_BITS);
                        model.flip_bit(BitAddr {
                            param,
                            index: w,
                            bit,
                        })
                    })
                    .collect()
            }
        };

        // Replay each selected campaign mechanistically through the
        // defense on a scratch device, one refresh window per campaign.
        // Bit flips commute (XOR), so blocked flips are tracked as
        // addresses and reverted by toggling.
        let mut mem = MemoryController::try_new(dram.clone())?;
        // Bulk replay: counters-only tracing (see `TraceMode`). This is
        // also what routes the cell's background traffic through the
        // batched simulation kernel — `BenignTraffic::drive_span` under
        // `IssuePath::Auto` issues counters-only devices via
        // `MemoryController::issue_batch`, bit-identical to the
        // per-command path (docs/perf.md), so cached cell reports and
        // artifact numbers are unchanged.
        mem.set_trace_mode(TraceMode::CountersOnly);
        let t_rh = dram.rowhammer_threshold;

        // The cell's background traffic: zipfian serving over a 64-row
        // "hot" working set spread across the device, scans over the
        // rest (on the scratch device there is no deployed weight image,
        // so the working set is a geometric stand-in for one).
        let traffic = {
            let cold = all_data_rows(dram);
            let hot: Vec<GlobalRowId> = cold
                .iter()
                .copied()
                .step_by((cold.len() / 64).max(1))
                .take(64)
                .collect();
            BenignTraffic::for_load(
                load,
                self.traffic_seed(attacker, dram, load),
                dram,
                &hot,
                &cold,
            )
        };
        let benign = traffic.as_ref().map(|_| BenignReport::default());
        let false_ops_base = defense.stats().defense_ops;
        Ok(CellState {
            scenario: self.scenario_for(name, attacker, dram, load),
            dram: dram.clone(),
            defense,
            model,
            data,
            flips,
            mem,
            traffic,
            benign,
            disturbed: HashSet::new(),
            clean_accuracy: clean,
            t_rh,
            false_ops_base,
            millis: 0,
        })
    }

    /// Phase 2, solo: the two benign-only measurement windows — any
    /// defensive operation fired here is a false positive (nothing is
    /// under attack yet). The window protocol (rollover notification,
    /// budget, boundary-minus-1 sampling point) is the workload driver's.
    fn warmup_solo(&self, state: &mut CellState) -> Result<(), DramError> {
        let _span = dd_obs::span("matrix.warmup_solo");
        if state.traffic.is_some() {
            for _ in 0..2 {
                let span = {
                    let CellState {
                        traffic,
                        mem,
                        defense,
                        ..
                    } = state;
                    traffic
                        .as_mut()
                        .expect("checked above")
                        .drive_benign_window(mem, &mut **defense, None)?
                };
                state.absorb_warmup_window(span);
            }
        }
        state.finish_warmup();
        Ok(())
    }

    /// Phase 2, grouped: the same two benign-only windows, but driven
    /// across a whole sweep group in one cross-cell kernel pass per
    /// window ([`drive_benign_window_sweep`]). Relies on what the
    /// scheduler's grouping guarantees — identical device configs and
    /// clocks, background traffic present, untapped defenses — and is
    /// bit-identical to running [`ScenarioMatrix::warmup_solo`] on every
    /// member, which the conformance suite's grouping-invariance law
    /// enforces.
    fn warmup_group(&self, states: &mut [CellState]) -> Result<(), DramError> {
        if states.len() == 1 {
            return self.warmup_solo(&mut states[0]);
        }
        let cells = states.len();
        let _span = dd_obs::span_with("matrix.warmup_group", || format!("cells={cells}"));
        let config = states[0].dram.clone();
        let mut sweep = CellSweep::new(&config, states.len());
        for _ in 0..2 {
            let span = {
                let mut cells: Vec<SweepCell<'_>> = states
                    .iter_mut()
                    .map(|s| {
                        let CellState {
                            mem,
                            defense,
                            traffic,
                            ..
                        } = s;
                        SweepCell {
                            mem,
                            defense: &mut **defense,
                            map: None,
                            traffic: traffic.as_mut().expect("grouped cell has traffic"),
                        }
                    })
                    .collect();
                drive_benign_window_sweep(&mut sweep, &mut cells)?
            };
            for s in states.iter_mut() {
                s.absorb_warmup_window(span);
            }
        }
        for s in states.iter_mut() {
            s.finish_warmup();
        }
        Ok(())
    }

    /// Phase 3: the attacked windows — one mechanistic RowHammer
    /// campaign per selected flip, racing the defense mid-window while
    /// benign traffic (if any) keeps flowing around it.
    fn cell_attack(&self, state: CellState) -> Result<CellReport, DramError> {
        let CellState {
            scenario,
            dram,
            mut defense,
            mut model,
            data,
            flips,
            mut mem,
            mut traffic,
            benign: mut benign_report,
            mut disturbed,
            clean_accuracy,
            t_rh,
            ..
        } = state;
        let mut blocked: Vec<BitAddr> = Vec::new();
        let mut attempts = 0usize;
        let mut landed = 0usize;
        let mut collapsed = false;
        for flip in &flips {
            if collapsed {
                // Early exit: the real system is at the target; un-apply
                // the belief flips that were never attempted.
                model.flip_bit(flip.addr);
                continue;
            }
            let victim = pseudo_victim(flip.addr, &dram);
            let bit_in_row = pseudo_bit_in_row(flip.addr, &dram);
            let addr = flip.addr;

            let outcome = match (traffic.as_mut(), benign_report.as_mut()) {
                (Some(t), Some(b)) => {
                    // The shared attacked-window protocol: half the
                    // benign budget, the campaign racing mid-window,
                    // the rest of the budget up to 1 ns before the
                    // boundary.
                    let (span, online_ops, outcome) = t.drive_attacked_window(
                        &mut mem,
                        &mut *defense,
                        None,
                        |mem, defense, _| {
                            defense.filter_flip(CampaignView {
                                mem,
                                map: None,
                                victim,
                                bit_in_row,
                                addr,
                            })
                        },
                    )?;
                    b.ops += span.ops;
                    b.activations += span.activations;
                    b.online_defense_ops += online_ops;
                    outcome
                }
                _ => {
                    mem.advance(Nanos::from_millis(65));
                    defense.on_hammer_window(mem.epoch());
                    defense.filter_flip(CampaignView {
                        mem: &mut mem,
                        map: None,
                        victim,
                        bit_in_row,
                        addr,
                    })?
                }
            };
            attempts += 1;
            if outcome.landed() {
                landed += 1;
            } else {
                blocked.push(flip.addr);
            }

            // Sample disturbance before the window rolls over (the
            // rollover zeroes it), then cross the boundary.
            if let (Some(t), Some(b)) = (traffic.as_mut(), benign_report.as_mut()) {
                if attempts.is_multiple_of(10) || attempts == flips.len() {
                    for &row in t.universe() {
                        if row == victim {
                            continue;
                        }
                        let d = mem.disturbance(row);
                        b.peak_disturbance = b.peak_disturbance.max(d);
                        if d >= t_rh / 2 {
                            disturbed.insert(row);
                        }
                    }
                }
                mem.advance(Nanos(1));
            }

            if attempts.is_multiple_of(10) {
                let acc = real_accuracy(&mut model, &data, &blocked);
                if acc <= self.attack.target_accuracy {
                    collapsed = true;
                }
            }
        }

        let post = real_accuracy(&mut model, &data, &blocked);
        Ok(CellReport {
            scenario,
            clean_accuracy,
            post_attack_accuracy: post,
            attempts,
            landed,
            stats: defense.stats(),
            benign: benign_report.map(|mut b| {
                b.disturbed_rows = disturbed.len() as u64;
                b
            }),
        })
    }
}

/// The defense-independent stages of a cell — trained victims and
/// attacker searches — computed once and copied exactly into every other
/// cell that needs them.
///
/// Its owner chooses its lifetime. [`ScenarioMatrix::run`] and
/// [`ScenarioMatrix::run_with_cache`] make one per call; a long-lived
/// owner (the sweep server keeps one per server) hands the same memo to
/// every matrix through [`ScenarioMatrix::run_with_memo`]. Entries are
/// keyed on everything their computation reads, the victim recipe and
/// the attack config included, and keys compare exactly, never by hash,
/// so matrices that differ in either never share an entry.
///
/// The first cell to need an entry computes it; concurrent cells wait
/// for that computation instead of repeating it. A computation that
/// panics leaves its entry empty, and the next cell to need it computes
/// it. Each list keeps its most recently used entries up to a fixed cap:
/// victims are few (one per recipe and width), but every cell whose
/// defense retrains the victim with the cell's own RNG (Clustering,
/// Binary weight) deploys a distinct model and adds a search key no
/// other cell will ask for. A cell holding an evicted entry keeps it.
#[derive(Default)]
pub struct RunMemo {
    /// Trained victims, keyed by width multiplier and recipe (the dataset
    /// does not depend on the width; each cell clones the network and
    /// borrows the data).
    victims: Lru<VictimEntry>,
    /// Attacker searches.
    searches: Lru<SearchEntry>,
}

/// Memo entries, least recently used first.
type Lru<E> = Mutex<VecDeque<Arc<E>>>;

/// A trained victim `(network, dataset)`, keyed by width and recipe.
type VictimEntry = Entry<(usize, Recipe), (Network, Dataset)>;

/// The flips of one attacker search.
type SearchEntry = Entry<SearchKey, Vec<BitFlip>>;

/// Most trained victims a [`RunMemo`] keeps.
const VICTIM_CAP: usize = 8;

/// Most attacker searches a [`RunMemo`] keeps: far above the handful of
/// shared keys a sweep serves, and about 2 MB of model images for the
/// sweep server's tiny victim (~32 KB per key).
const SEARCH_CAP: usize = 64;

/// One memo entry: its exact key and the value the first cell that
/// needs it computes.
struct Entry<K, V> {
    key: K,
    value: OnceLock<V>,
}

impl<K, V> Entry<K, V> {
    /// The value, from `compute` if no cell has computed it yet (`true`)
    /// or as computed before (`false`, counted under `reuse_counter`).
    fn get_or_compute(
        &self,
        reuse_counter: &'static str,
        compute: impl FnOnce() -> V,
    ) -> (&V, bool) {
        let mut computed = false;
        let value = self.value.get_or_init(|| {
            computed = true;
            compute()
        });
        if !computed {
            dd_obs::add(reuse_counter, 1);
        }
        (value, computed)
    }
}

/// The entry of `entries` whose key equals `key`, or a new empty one,
/// moved to the most recently used end; the least recently used entry
/// beyond `cap` is dropped.
fn lookup<K: PartialEq, V>(entries: &Lru<Entry<K, V>>, key: K, cap: usize) -> Arc<Entry<K, V>> {
    let mut entries = entries.lock().expect("run memo");
    let entry = match entries.iter().position(|e| e.key == key) {
        Some(i) => entries.remove(i).expect("found above"),
        None => Arc::new(Entry {
            key,
            value: OnceLock::new(),
        }),
    };
    entries.push_back(Arc::clone(&entry));
    if entries.len() > cap {
        entries.pop_front();
    }
    entry
}

/// Everything an attacker's search reads: the attacker, its budget, the
/// skip set, the deployed model, and the recipe and attack config, which
/// fix the attacker's batch and the search's knobs. Cheap fields come
/// first, so most mismatches are found before the model images.
#[derive(PartialEq)]
struct SearchKey {
    attacker: AttackerKind,
    width: usize,
    budget: usize,
    recipe: Recipe,
    skip: HashSet<BitAddr>,
    model: ModelImage,
}

/// A victim recipe, and for a search the attack config too, as exact
/// words: floats by bit pattern, as in [`ModelImage`], so `0.0` and
/// `-0.0` differ and a NaN matches itself. Every struct is destructured
/// in full, so a new field does not compile until it joins the key.
#[derive(PartialEq)]
struct Recipe {
    arch: Architecture,
    words: Vec<u64>,
}

impl Recipe {
    fn victim(victim: &VictimSpec) -> Self {
        let VictimSpec {
            arch,
            spec,
            base_width,
            train,
            fine_tune,
            seed,
            batch,
        } = victim;
        let SyntheticSpec {
            classes,
            channels,
            height,
            width,
            train_per_class,
            test_per_class,
            noise,
            brightness_jitter,
        } = *spec;
        let mut words: Vec<u64> = [
            classes,
            channels,
            height,
            width,
            train_per_class,
            test_per_class,
            *base_width,
            *batch,
        ]
        .map(|w| w as u64)
        .to_vec();
        words.extend([noise, brightness_jitter].map(|f| u64::from(f.to_bits())));
        words.push(*seed);
        for schedule in [Some(train), fine_tune.as_ref()] {
            let Some(&TrainConfig {
                epochs,
                batch_size,
                lr,
                momentum,
                weight_decay,
            }) = schedule
            else {
                words.push(0);
                continue;
            };
            words.extend([1, epochs as u64, batch_size as u64]);
            words.extend([lr, momentum, weight_decay].map(|f| u64::from(f.to_bits())));
        }
        Recipe { arch: *arch, words }
    }

    fn search(victim: &VictimSpec, attack: &AttackConfig) -> Self {
        let AttackConfig {
            target_accuracy,
            max_flips,
            evaluate_top_k,
            record_every,
        } = *attack;
        let mut recipe = Recipe::victim(victim);
        recipe.words.extend([
            u64::from(target_accuracy.to_bits()),
            max_flips as u64,
            evaluate_top_k as u64,
            record_every as u64,
        ]);
        recipe
    }
}

impl RunMemo {
    /// The entry of `victim` at `width`, trained by the first cell that
    /// needs it.
    fn victim(&self, victim: &VictimSpec, width: usize) -> Arc<VictimEntry> {
        let entry = lookup(&self.victims, (width, Recipe::victim(victim)), VICTIM_CAP);
        entry.get_or_compute("matrix.victim_reuse", || {
            let _span = dd_obs::span_with("matrix.victim_build", || format!("width={width}"));
            let (net, dataset) = victim.build(width);
            // Keep a clone: it drops the last training batch's forward
            // caches, which would otherwise stay resident.
            (net.clone(), dataset)
        });
        entry
    }

    /// The attacker's flips for `key`, applied to `model`. The first cell
    /// with this key runs `compute` on its own model; every other cell
    /// replays the stored flips, each of which must match what its equal
    /// model yields.
    fn search(
        &self,
        key: SearchKey,
        model: &mut QModel,
        compute: impl FnOnce(&mut QModel, &HashSet<BitAddr>) -> Vec<BitFlip>,
    ) -> Vec<BitFlip> {
        let entry = lookup(&self.searches, key, SEARCH_CAP);
        let (flips, computed) = entry.get_or_compute("matrix.search_reuse", || {
            let _span = dd_obs::span_with("matrix.search", || {
                format!("attacker={}", entry.key.attacker)
            });
            compute(model, &entry.key.skip)
        });
        if !computed {
            for flip in flips {
                assert_eq!(
                    model.flip_bit(flip.addr),
                    *flip,
                    "replayed flip diverged from the shared search"
                );
            }
        }
        flips.clone()
    }
}

/// A deployed model's complete inference state: quantized weights with
/// their scales, every float parameter, and the normalization running
/// statistics, floats as bit patterns. Images compare exactly (nothing is
/// hashed), so equal images are bit-identical models.
#[derive(PartialEq)]
struct ModelImage {
    qweights: Vec<(u32, Vec<i8>)>,
    params: Vec<Vec<u32>>,
    buffers: Vec<Vec<u32>>,
}

impl ModelImage {
    fn of(model: &mut QModel) -> Self {
        let qweights = (0..model.num_qparams())
            .map(|p| {
                let qt = model.qtensor(p);
                (qt.quant_params().scale.to_bits(), qt.as_q().to_vec())
            })
            .collect();
        let net = model.network_mut();
        let mut params = Vec::new();
        net.visit_params(&mut |p| params.push(f32_bits(p.value.as_slice())));
        let mut buffers = Vec::new();
        net.visit_buffers(&mut |b| buffers.push(f32_bits(b)));
        ModelImage {
            qweights,
            params,
            buffers,
        }
    }
}

fn f32_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A cell paused between its setup phase (victim training, defense
/// deployment, attack search, device + traffic assembly) and its
/// measurement phases (warmup, then attacked windows). States are `Send`
/// — [`DefenseMechanism`] and the traffic's generators carry the bound —
/// so the matrix scheduler can collect a sweep group's members from the
/// worker threads that set them up and warm them up together.
struct CellState {
    scenario: Scenario,
    dram: DramConfig,
    defense: DynDefense,
    model: QModel,
    data: AttackData,
    flips: Vec<BitFlip>,
    mem: MemoryController,
    traffic: Option<BenignTraffic>,
    benign: Option<BenignReport>,
    disturbed: HashSet<GlobalRowId>,
    clean_accuracy: f32,
    t_rh: u64,
    /// Defense-op counter at the end of setup; the warmup windows'
    /// false-positive delta is measured from here.
    false_ops_base: u64,
    /// Wall-clock milliseconds attributed to this cell so far (setup,
    /// plus its share of a grouped warmup).
    millis: u64,
}

impl CellState {
    /// Absorb one warmup window's traffic into the benign report, sample
    /// benign-row disturbance at the boundary-minus-1 instant, and cross
    /// the window boundary — identical bookkeeping for the solo and
    /// grouped warmup paths.
    fn absorb_warmup_window(&mut self, span: SpanTraffic) {
        let (Some(t), Some(b)) = (self.traffic.as_ref(), self.benign.as_mut()) else {
            return;
        };
        b.ops += span.ops;
        b.activations += span.activations;
        for &row in t.universe() {
            let d = self.mem.disturbance(row);
            b.peak_disturbance = b.peak_disturbance.max(d);
            if d >= self.t_rh / 2 {
                self.disturbed.insert(row);
            }
        }
        self.mem.advance(Nanos(1));
    }

    /// Close the warmup phase: everything the defense fired since setup
    /// was fired with nothing under attack — false positives.
    fn finish_warmup(&mut self) {
        if let Some(b) = self.benign.as_mut() {
            b.false_defense_ops = self.defense.stats().defense_ops - self.false_ops_base;
        }
    }
}

/// Device label used in report rows and cell seeds.
pub fn dram_label(config: &DramConfig) -> String {
    format!(
        "{}b/{}s/{}r T_RH={}",
        config.banks,
        config.subarrays_per_bank,
        config.rows_per_subarray,
        config.rowhammer_threshold
    )
}

/// Map a model bit to a pseudo victim row on the scratch device: spread
/// over banks/subarrays, inside the data region, away from the edges so
/// both neighbours exist.
fn pseudo_victim(addr: BitAddr, config: &DramConfig) -> GlobalRowId {
    let data_rows = config.data_rows_per_subarray();
    let span = data_rows.saturating_sub(4).max(1);
    GlobalRowId::new(
        addr.param % config.banks,
        (addr.index / 7) % config.subarrays_per_bank,
        2 + (addr.index % span),
    )
}

/// The bit offset within the pseudo victim row.
fn pseudo_bit_in_row(addr: BitAddr, config: &DramConfig) -> usize {
    (addr.index % config.row_bytes) * 8 + addr.bit as usize
}

/// Accuracy of the *real* system: the belief model minus the blocked
/// flips. Bit flips commute (XOR), so toggling each blocked address out
/// and back in is exact even when the search hit one bit repeatedly.
fn real_accuracy(model: &mut QModel, data: &AttackData, blocked: &[BitAddr]) -> f32 {
    for &addr in blocked {
        model.flip_bit(addr);
    }
    let acc = model.accuracy(&data.eval_images, &data.eval_labels);
    for &addr in blocked {
        model.flip_bit(addr);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_defender::defense::FlipAttempt;

    fn quick_matrix() -> ScenarioMatrix {
        let attack = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 40,
            ..Default::default()
        };
        ScenarioMatrix::new(VictimSpec::tiny_mlp(2002))
            .attack_config(attack)
            .budget(20)
    }

    #[test]
    fn undefended_collapses_protected_does_not() {
        let report = quick_matrix()
            .defense("Baseline", |_, _| Box::new(Undefended::named("Baseline")))
            .defense("DNN-Defender", |seed, _| {
                Box::new(DnnDefenderDefense::with_profiling(
                    DefenseConfig::default(),
                    2,
                    seed,
                ))
            })
            .run()
            .expect("matrix");

        let baseline = report.cell("Baseline", None).expect("baseline row");
        let dd = report.cell("DNN-Defender", None).expect("dd row");
        assert!(
            baseline.post_attack_accuracy < baseline.clean_accuracy - 0.2,
            "baseline did not degrade: {} -> {}",
            baseline.clean_accuracy,
            baseline.post_attack_accuracy
        );
        assert_eq!(baseline.landed, baseline.attempts);
        assert_eq!(dd.landed, 0, "a profiled flip landed");
        assert!(
            (dd.post_attack_accuracy - dd.clean_accuracy).abs() < 1e-6,
            "defended accuracy moved"
        );
        assert!(dd.stats.invariants_hold());
    }

    #[test]
    fn rrs_blocks_most_standard_campaigns() {
        let report = quick_matrix()
            .defense("RRS", |seed, _| {
                Box::new(RowSwapMechanism::new(SwapScheme::Rrs, seed))
            })
            .run()
            .expect("matrix");
        let row = &report.cells[0];
        assert!(
            row.landed < row.attempts.div_ceil(4),
            "RRS leaked too much: {}/{}",
            row.landed,
            row.attempts
        );
        assert!(row.post_attack_accuracy >= row.clean_accuracy - 0.35);
        assert!(row.stats.invariants_hold());
    }

    #[test]
    fn matrix_crosses_attackers_and_devices() {
        let report = quick_matrix()
            .budget(6)
            .attacker(AttackerKind::Bfa)
            .attacker(AttackerKind::Random { flips: 6 })
            .dram_config(DramConfig::lpddr4_small())
            .dram_config(DramConfig::lpddr4_small().with_rowhammer_threshold(2400))
            .defense("Baseline", |_, _| Box::new(Undefended::named("Baseline")))
            .defense("Graphene", |_, config| {
                Box::new(GrapheneDefense::for_config(config))
            })
            .run()
            .expect("matrix");
        // 2 defenses x 2 attackers x 2 devices.
        assert_eq!(report.cells.len(), 8);
        // Graphene resists everything, at both thresholds.
        for cell in report
            .cells
            .iter()
            .filter(|c| c.scenario.defense == "Graphene")
        {
            assert_eq!(
                cell.landed, 0,
                "graphene leaked under {}",
                cell.scenario.dram
            );
            assert!(cell.stats.defense_ops > 0);
        }
        // Baseline lands everything under the BFA attacker.
        for cell in report
            .cells
            .iter()
            .filter(|c| c.scenario.defense == "Baseline" && c.scenario.attacker == "BFA")
        {
            assert_eq!(cell.landed, cell.attempts);
        }
    }

    #[test]
    fn cells_are_deterministic() {
        let build = || {
            quick_matrix()
                .budget(8)
                .defense("RRS", |seed, _| {
                    Box::new(RowSwapMechanism::new(SwapScheme::Rrs, seed))
                })
                .run()
                .expect("matrix")
        };
        let a = build();
        let b = build();
        assert_eq!(a.cells[0].scenario.seed, b.cells[0].scenario.seed);
        assert_eq!(a.cells[0].attempts, b.cells[0].attempts);
        assert_eq!(a.cells[0].landed, b.cells[0].landed);
        assert_eq!(
            a.cells[0].post_attack_accuracy,
            b.cells[0].post_attack_accuracy
        );
    }

    #[test]
    fn sweep_grouping_is_report_invariant() {
        // The matrix-level grouping law: a run with cross-cell sweep
        // grouping on is byte-identical to the same run with every cell
        // solo. The roster mixes groupable defenses with a tapped one
        // (DNN-Defender), which the scheduler must route down the
        // per-cell path even when grouping is on.
        let build = |sweep: bool| {
            quick_matrix()
                .budget(6)
                .background(BackgroundLoad::Light)
                .defense_kind(DefenseKind::Undefended)
                .defense_kind(DefenseKind::Rrs)
                .defense_kind(DefenseKind::Shadow)
                .defense_kind(DefenseKind::DnnDefender)
                .sweep_groups(sweep)
                .run()
                .expect("matrix")
        };
        let grouped = build(true);
        let solo = build(false);
        assert_eq!(grouped.cells.len(), solo.cells.len());
        for (g, s) in grouped.cells.iter().zip(&solo.cells) {
            assert_eq!(g.scenario, s.scenario);
            assert_eq!(g.clean_accuracy, s.clean_accuracy, "{}", g.scenario.defense);
            assert_eq!(
                g.post_attack_accuracy, s.post_attack_accuracy,
                "{}",
                g.scenario.defense
            );
            assert_eq!(g.attempts, s.attempts, "{}", g.scenario.defense);
            assert_eq!(g.landed, s.landed, "{}", g.scenario.defense);
            assert_eq!(g.stats, s.stats, "{}", g.scenario.defense);
            assert_eq!(g.benign, s.benign, "{}", g.scenario.defense);
        }
    }

    /// Undefended, except that its victim preparation raises one output
    /// bias of the tiny MLP: the quantized weights are untouched, so only
    /// a search key that sees the float parameters tells this model from
    /// the undefended one (and the nudge is large enough to change what
    /// the search picks).
    #[derive(Debug, Default)]
    struct BiasNudge(Undefended);

    impl DefenseMechanism for BiasNudge {
        fn name(&self) -> &str {
            "Bias nudge"
        }

        fn prepare_victim(&mut self, net: &mut Network, _: &Dataset, _: &mut StdRng) {
            net.visit_params(&mut |p| {
                if p.name == "fc3.bias" {
                    p.value.as_mut_slice()[0] += 10.0;
                }
            });
        }

        fn filter_flip(&mut self, view: CampaignView<'_>) -> Result<FlipAttempt, DramError> {
            self.0.filter_flip(view)
        }

        fn stats(&self) -> DefenseStats {
            self.0.stats()
        }
    }

    #[test]
    fn run_memo_never_changes_a_cell() {
        // Every cell that shares victims and searches equals the same cell
        // computed alone: within one run at one worker and at two, and as
        // one-cell matrices through one memo the way a sweep server runs
        // them. The roster covers every memo path: a shared victim and
        // search (Undefended, Graphene, DNN-Defender), a second width
        // (CapacityX2), a victim whose preparation changes its weights
        // (Clustering) or only one float bias (BiasNudge) — both must
        // miss the search — a skip set from the defense (Adaptive white
        // box), and random flips, which are never shared.
        type Factory = fn(u64, &DramConfig) -> DynDefense;
        let defenses: [(&str, Factory); 6] = [
            (DefenseKind::Undefended.label(), |s, c| {
                DefenseKind::Undefended.build(s, c)
            }),
            (DefenseKind::Graphene.label(), |s, c| {
                DefenseKind::Graphene.build(s, c)
            }),
            (DefenseKind::DnnDefender.label(), |s, c| {
                DefenseKind::DnnDefender.build(s, c)
            }),
            (DefenseKind::CapacityX2.label(), |s, c| {
                DefenseKind::CapacityX2.build(s, c)
            }),
            (DefenseKind::Clustering.label(), |s, c| {
                DefenseKind::Clustering.build(s, c)
            }),
            ("Bias nudge", |_, _| Box::new(BiasNudge::default())),
        ];
        let attackers = [
            AttackerKind::Bfa,
            AttackerKind::Adaptive(ThreatModel::WhiteBox),
            AttackerKind::Random { flips: 4 },
        ];
        let matrix = |defenses: &[(&str, Factory)], attackers: &[AttackerKind]| {
            let m = defenses
                .iter()
                .fold(quick_matrix().budget(4), |m, &(name, f)| m.defense(name, f));
            attackers.iter().fold(m, |m, &a| m.attacker(a))
        };
        let render = |report: MatrixReport| -> Vec<String> {
            report
                .cells
                .iter()
                .map(|c| c.to_json().render_compact())
                .collect()
        };
        let alone: Vec<String> = defenses
            .iter()
            .flat_map(|d| attackers.iter().map(move |a| (d, a)))
            .flat_map(|(d, a)| render(matrix(&[*d], &[*a]).run().expect("one-cell matrix")))
            .collect();
        for threads in [1, 2] {
            let shared = render(
                matrix(&defenses, &attackers)
                    .threads(threads)
                    .run()
                    .expect("matrix"),
            );
            assert_eq!(shared.len(), alone.len());
            for (cell, expected) in shared.iter().zip(&alone) {
                assert_eq!(cell, expected, "threads={threads}");
            }
        }

        // One-cell matrices through one memo, in both cell orders, from
        // one thread and from two.
        let cells: Vec<(usize, usize)> = (0..defenses.len())
            .flat_map(|d| (0..attackers.len()).map(move |a| (d, a)))
            .collect();
        for reversed in [false, true] {
            for workers in [1, 2] {
                let memo = RunMemo::default();
                let mut order: Vec<usize> = (0..cells.len()).collect();
                if reversed {
                    order.reverse();
                }
                let next = AtomicUsize::new(0);
                let serve = || {
                    let mut out = Vec::new();
                    while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (d, a) = cells[i];
                        let (report, _) = matrix(&[defenses[d]], &[attackers[a]])
                            .run_with_memo(&HashMap::new(), None, &memo)
                            .expect("one-cell matrix");
                        out.push((i, render(report).remove(0)));
                    }
                    out
                };
                let mut served: Vec<(usize, String)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers).map(|_| scope.spawn(serve)).collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("worker"))
                        .collect()
                });
                served.sort();
                assert_eq!(served.len(), alone.len());
                for ((_, cell), expected) in served.iter().zip(&alone) {
                    assert_eq!(cell, expected, "reversed={reversed} workers={workers}");
                }
            }
        }

        // Matrices that differ in the victim seed or the attack config
        // share a memo but no entry (on this victim, evaluate_top_k does
        // not change the flips, so only the entry count tells).
        let attack = |top_k: usize| AttackConfig {
            target_accuracy: 0.3,
            max_flips: 40,
            evaluate_top_k: top_k,
            ..Default::default()
        };
        let variant = |seed: u64, top_k: usize| {
            ScenarioMatrix::new(VictimSpec::tiny_mlp(seed))
                .attack_config(attack(top_k))
                .budget(4)
                .defense_kind(DefenseKind::Undefended)
        };
        let variants = [(2002, 3), (2003, 3), (2002, 1)];
        let memo = RunMemo::default();
        for (seed, top_k) in variants {
            let (shared, _) = variant(seed, top_k)
                .run_with_memo(&HashMap::new(), None, &memo)
                .expect("shared-memo matrix");
            let alone = variant(seed, top_k).run().expect("solo matrix");
            assert_eq!(
                render(shared),
                render(alone),
                "victim seed {seed}, evaluate_top_k {top_k}"
            );
        }
        assert_eq!(memo.victims.lock().expect("run memo").len(), 2);
        assert_eq!(memo.searches.lock().expect("run memo").len(), 3);

        // At most SEARCH_CAP searches stay, least recently used out first:
        // a key asked for between the one-off keys is never recomputed. A
        // search that panics leaves its entry empty for the retry.
        let spec = VictimSpec::tiny_mlp(2002);
        let config = ModelConfig {
            arch: spec.arch,
            in_channels: spec.spec.channels,
            image_side: spec.spec.height,
            classes: spec.spec.classes,
            base_width: spec.base_width,
        };
        let mut model = QModel::from_network(build_model(&config, &mut StdRng::seed_from_u64(1)));
        let memo = RunMemo::default();
        let mut computed = 0;
        let mut search = |budget: usize, fail: bool| {
            let key = SearchKey {
                attacker: AttackerKind::Bfa,
                width: 1,
                budget,
                recipe: Recipe::search(&spec, &attack(3)),
                skip: HashSet::new(),
                model: ModelImage::of(&mut model),
            };
            memo.search(key, &mut model, |_, _| {
                assert!(!fail, "search failed");
                computed += 1;
                Vec::new()
            });
        };
        search(0, false);
        for one_off in 1..=SEARCH_CAP + 8 {
            search(one_off, false);
            search(0, false);
        }
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            search(SEARCH_CAP + 9, true);
        }));
        assert!(failed.is_err());
        search(SEARCH_CAP + 9, false);
        assert_eq!(computed, 1 + SEARCH_CAP + 9, "a search was recomputed");
        assert_eq!(memo.searches.lock().expect("run memo").len(), SEARCH_CAP);
    }

    #[test]
    fn defense_kind_labels_match_mechanism_names() {
        let config = DramConfig::lpddr4_small();
        for kind in DefenseKind::TABLE3 {
            let mechanism = kind.build(7, &config);
            assert_eq!(
                mechanism.name(),
                kind.label(),
                "label drifted from the mechanism's own name"
            );
            assert_eq!(format!("{kind}"), kind.label());
        }
    }

    #[test]
    fn kind_labels_parse_round_trip() {
        for kind in DefenseKind::TABLE3 {
            assert_eq!(DefenseKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(DefenseKind::parse("Fortress"), None);
        let attackers = [
            AttackerKind::Bfa,
            AttackerKind::Tbfa(TbfaGoal {
                source_class: Some(1),
                target_class: 2,
            }),
            AttackerKind::Tbfa(TbfaGoal {
                source_class: None,
                target_class: 3,
            }),
            AttackerKind::Random { flips: 17 },
            AttackerKind::Adaptive(ThreatModel::SemiWhiteBox),
            AttackerKind::Adaptive(ThreatModel::WhiteBox),
        ];
        for attacker in attackers {
            assert_eq!(AttackerKind::parse(&attacker.label()), Some(attacker));
        }
        assert_eq!(AttackerKind::parse("T-BFA(?->2)"), None);
        assert_eq!(AttackerKind::parse("Random(many)"), None);
        assert_eq!(AttackerKind::parse("Adaptive(BlackBox)"), None);
    }

    #[test]
    fn cell_report_json_round_trips() {
        let report = quick_matrix()
            .budget(4)
            .defense_kind(DefenseKind::Undefended)
            .run()
            .expect("matrix");
        let json = report.to_json();
        let text = json.render_pretty();
        let back = MatrixReport::from_json(&Json::parse(&text).expect("parse")).expect("decode");
        assert_eq!(back.cells.len(), report.cells.len());
        let (a, b) = (&report.cells[0], &back.cells[0]);
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.clean_accuracy, b.clean_accuracy);
        assert_eq!(a.post_attack_accuracy, b.post_attack_accuracy);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.landed, b.landed);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn cache_keys_are_stable_and_config_sensitive() {
        let build = |budget: usize| {
            quick_matrix()
                .budget(budget)
                .attacker(AttackerKind::Bfa)
                .defense_kind(DefenseKind::Undefended)
                .defense_kind(DefenseKind::Rrs)
        };
        let a = build(8);
        let b = build(8);
        assert_eq!(a.config_hash(), b.config_hash());
        assert_eq!(a.cell_keys(), b.cell_keys());
        let c = build(9);
        assert_ne!(a.config_hash(), c.config_hash());
        for ((_, ka), (_, kc)) in a.cell_keys().iter().zip(c.cell_keys()) {
            assert_ne!(*ka, kc, "budget change must invalidate every cell key");
        }
        // Per-defense budget overrides only touch that defense's cells.
        let d = build(8).defense_kind_budgeted(DefenseKind::Shadow, 10);
        let keys_a = a.cell_keys();
        let keys_d = d.cell_keys();
        assert_eq!(&keys_d[..keys_a.len()], &keys_a[..]);
    }

    #[test]
    fn run_with_cache_reuses_cells_and_reports_progress() {
        let matrix = quick_matrix()
            .budget(6)
            .defense_kind(DefenseKind::Undefended)
            .defense_kind(DefenseKind::Rrs);
        let (report, summary) = matrix
            .run_with_cache(&HashMap::new(), None)
            .expect("cold run");
        assert_eq!(summary.cells, 2);
        assert_eq!(summary.cache_hits, 0);

        let cache: HashMap<u64, CellReport> = matrix
            .cell_keys()
            .into_iter()
            .map(|(_, key)| key)
            .zip(report.cells.iter().cloned())
            .collect();
        let events = Mutex::new(Vec::new());
        let observe = |p: &CellProgress| {
            events.lock().unwrap().push((p.done, p.cache_hit));
        };
        let (warm, summary) = matrix
            .run_with_cache(&cache, Some(&observe))
            .expect("warm run");
        assert_eq!(summary.cache_hits, 2);
        assert!((summary.hit_rate() - 1.0).abs() < f64::EPSILON);
        assert_eq!(events.lock().unwrap().as_slice(), &[(1, true), (2, true)]);
        for (a, b) in report.cells.iter().zip(&warm.cells) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.post_attack_accuracy, b.post_attack_accuracy);
        }

        // A partial cache recomputes only the misses.
        let (_, key) = &matrix.cell_keys()[0];
        let partial: HashMap<u64, CellReport> = HashMap::from([(*key, report.cells[0].clone())]);
        let (mixed, summary) = matrix.run_with_cache(&partial, None).expect("mixed run");
        assert_eq!(summary.cache_hits, 1);
        assert_eq!(mixed.cells.len(), 2);
        assert_eq!(
            mixed.cells[1].post_attack_accuracy,
            report.cells[1].post_attack_accuracy
        );
    }

    #[test]
    fn background_load_axis_crosses_and_reports_benign_traffic() {
        let report = quick_matrix()
            .budget(10)
            .background(BackgroundLoad::None)
            .background(BackgroundLoad::Light)
            .defense("Baseline", |_, _| Box::new(Undefended::named("Baseline")))
            .run()
            .expect("matrix");
        assert_eq!(report.cells.len(), 2);
        let none = &report.cells[0];
        let light = &report.cells[1];
        assert_eq!(none.scenario.workload, "none");
        assert_eq!(light.scenario.workload, "light");
        assert_ne!(none.scenario.seed, light.scenario.seed);
        assert!(
            none.benign.is_none(),
            "no-load cell must have no benign report"
        );
        let benign = light.benign.expect("loaded cell reports benign traffic");
        // 2 warmup windows + one window per attempt, at the light rate.
        let expected = (2 + light.attempts as u64) * BackgroundLoad::Light.ops_per_window();
        assert_eq!(benign.ops, expected);
        assert_eq!(
            benign.activations,
            benign.ops * BackgroundLoad::Light.batch()
        );
        assert_eq!(
            benign.false_defense_ops, 0,
            "undefended cannot false-positive"
        );
        // The attack's campaigns land with or without background traffic.
        assert_eq!(light.landed, light.attempts);
    }

    #[test]
    fn background_load_cells_are_deterministic_and_keyed_separately() {
        let build = || {
            quick_matrix()
                .budget(6)
                .background(BackgroundLoad::MultiTenant)
                .defense_kind(DefenseKind::DnnDefender)
                .run()
                .expect("matrix")
        };
        let (a, b) = (build(), build());
        let (ca, cb) = (&a.cells[0], &b.cells[0]);
        assert_eq!(ca.benign, cb.benign, "benign traffic must be deterministic");
        assert_eq!(ca.post_attack_accuracy, cb.post_attack_accuracy);
        assert!(ca.stats.invariants_hold());

        // Load levels key cells apart: same matrix, different load ⇒
        // different cache keys for every cell.
        let keys = |load: BackgroundLoad| {
            quick_matrix()
                .budget(6)
                .background(load)
                .defense_kind(DefenseKind::DnnDefender)
                .cell_keys()
        };
        let none = keys(BackgroundLoad::None);
        let heavy = keys(BackgroundLoad::Heavy);
        assert_ne!(none[0].1, heavy[0].1, "load must be part of the cell key");
    }

    #[test]
    fn fig8_analysis_rides_along() {
        let rows = quick_matrix()
            .defense("Baseline", |_, _| Box::new(Undefended::new()))
            .security_analysis(&[1000, 2000, 4000, 8000]);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.dd_days > row.shadow_days, "DD must out-survive SHADOW");
        }
        assert!(rows.windows(2).all(|w| w[0].dd_days < w[1].dd_days));
    }

    #[test]
    fn adaptive_white_box_skips_the_secured_set() {
        let report = quick_matrix()
            .attacker(AttackerKind::Adaptive(ThreatModel::WhiteBox))
            .defense("DNN-Defender", |seed, _| {
                Box::new(DnnDefenderDefense::with_profiling(
                    DefenseConfig::default(),
                    2,
                    seed,
                ))
            })
            .run()
            .expect("matrix");
        let cell = &report.cells[0];
        // The defense-aware attacker only attempts unsecured bits, so
        // every attempt lands — the question is the damage they can do.
        assert_eq!(cell.landed, cell.attempts);
        assert!(cell.stats.invariants_hold());
    }
}
