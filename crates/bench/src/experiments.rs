//! Every figure/table of the paper as a reusable experiment function.
//!
//! This module is the single implementation behind the `repro` CLI
//! (cached, artifact-writing, docs-regenerating). Each experiment:
//!
//! * derives a cheap [content hash](ExperimentId::config_hash) of its
//!   full configuration *without running anything*, so the pipeline can
//!   decide to reuse a previous artifact;
//! * produces an [`Artifact`] with its tables, notes, and (for the
//!   matrix experiments) the raw [`dd_baselines::MatrixReport`] payload;
//! * pulls scenario-matrix cells through the shared content-addressed
//!   cell cache in [`RunContext::cells`], so reruns only execute cells
//!   whose configuration actually changed.

use std::collections::HashMap;
use std::io::Write as _;
use std::time::Instant;

use dd_attack::{attack_protected, run_bfa, run_random_attack, AttackConfig, ThreatModel};
use dd_baselines::{
    CellProgress, CellReport, DefenseKind, MatrixRunSummary, ScenarioMatrix, VictimSpec,
};
use dd_dram::{DramConfig, DramError, MemoryController};
use dd_nn::init::seeded_rng;
use dd_nn::layers::{Flatten, Linear};
use dd_nn::model::Network;
use dd_qnn::{Architecture, BitAddr, QModel};
use dd_server::{CellSpec, ServerConfig, SweepBase, SweepServer, SERVER_PROTOCOL_VERSION};
use dd_workload::{
    all_data_rows, run_workload, BackgroundLoad, BenignTraffic, DriverConfig, DriverReport, RowSet,
    Rows, WORKLOAD_PROTOCOL_VERSION,
};
use dnn_defender::budget::DEFAULT_COMMANDS_PER_SEC;
use dnn_defender::{
    overhead_table, power_table, rh_thresholds, saving_versus, CostModel, DefenseOp, Json,
    SecurityModel, StableHasher, WeightMap,
};

use crate::report::{Artifact, TableArtifact, ARTIFACT_SCHEMA_VERSION};
use crate::serve::request_inline;
use crate::{pct, prepare_victim, print_table, DatasetKind, Victim};

/// Version of the experiment *bodies*: the seeds and constants baked
/// into the implementations rather than declared as parameters (fig1b's
/// random-attack RNG seed and `chance * 1.1` target, fig9's
/// `sb_fractions`, table composition, …). [`ExperimentId::config_hash`]
/// covers configuration, not code — **bump this whenever an
/// experiment's logic or inline constants change**, so committed
/// artifacts (and the docs rendered from them) stop being reusable.
/// Matrix *cell* behavior has its own knob,
/// `dd_baselines::CELL_PROTOCOL_VERSION`.
pub const EXPERIMENT_PROTOCOL_VERSION: u64 = 1;

/// One figure/table of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentId {
    /// Fig. 1(a): RowHammer thresholds across DRAM generations.
    Fig1a,
    /// Fig. 1(b): targeted BFA vs random flips vs DNN-Defender.
    Fig1b,
    /// Table 2: hardware overhead of RowHammer mitigation frameworks.
    Table2,
    /// Table 3: the full defense-comparison scenario matrix.
    Table3,
    /// Fig. 8(a): time-to-break and BFA capacities vs `T_RH`.
    Fig8a,
    /// Fig. 8(b): defense latency per refresh interval vs number of BFAs.
    Fig8b,
    /// Fig. 9: adaptive white-box BFA vs secured-bit budget.
    Fig9,
    /// §5.1 power comparison.
    Power,
    /// Defense overhead and false-swap rate vs benign traffic intensity.
    Workload,
    /// Matrix-as-a-service: a scripted sweep-server session exercising
    /// admission pricing, budgets, regimes, and cache invalidation.
    Server,
}

impl ExperimentId {
    /// Every experiment, in docs order.
    pub const ALL: [ExperimentId; 10] = [
        ExperimentId::Fig1a,
        ExperimentId::Fig1b,
        ExperimentId::Table2,
        ExperimentId::Table3,
        ExperimentId::Fig8a,
        ExperimentId::Fig8b,
        ExperimentId::Fig9,
        ExperimentId::Power,
        ExperimentId::Workload,
        ExperimentId::Server,
    ];

    /// The experiment id: subcommand name, artifact file stem, and docs
    /// marker label.
    pub fn name(self) -> &'static str {
        match self {
            ExperimentId::Fig1a => "fig1a",
            ExperimentId::Fig1b => "fig1b",
            ExperimentId::Table2 => "table2",
            ExperimentId::Table3 => "table3",
            ExperimentId::Fig8a => "fig8a",
            ExperimentId::Fig8b => "fig8b",
            ExperimentId::Fig9 => "fig9",
            ExperimentId::Power => "power",
            ExperimentId::Workload => "workload",
            ExperimentId::Server => "server",
        }
    }

    /// Human title used in artifacts and logs.
    pub fn title(self) -> &'static str {
        match self {
            ExperimentId::Fig1a => "Fig. 1(a): RowHammer thresholds across DRAM generations",
            ExperimentId::Fig1b => "Fig. 1(b): targeted BFA vs random flips vs DNN-Defender",
            ExperimentId::Table2 => "Table 2: RowHammer mitigation hardware overhead",
            ExperimentId::Table3 => "Table 3: BFA defense comparison (scenario matrix)",
            ExperimentId::Fig8a => "Fig. 8(a): time-to-break and BFA capacities vs T_RH",
            ExperimentId::Fig8b => "Fig. 8(b): defense latency per T_ref vs number of BFAs",
            ExperimentId::Fig9 => "Fig. 9: adaptive white-box BFA vs secured-bit budget",
            ExperimentId::Power => "Power: defense energy at maximum attack rate",
            ExperimentId::Workload => {
                "Workload: defense overhead and false positives under benign traffic"
            }
            ExperimentId::Server => {
                "Server: matrix-as-a-service scheduling, budgets, and cache reuse"
            }
        }
    }

    /// Parse a subcommand / file stem.
    pub fn parse(name: &str) -> Option<ExperimentId> {
        ExperimentId::ALL.into_iter().find(|e| e.name() == name)
    }

    /// Content hash of everything that determines this experiment's
    /// numbers, computable without running the experiment. Includes the
    /// schema version, so schema bumps also invalidate reuse.
    pub fn config_hash(self, quick: bool) -> u64 {
        let mut h = StableHasher::new();
        h.write_str("experiment");
        h.write_str(self.name());
        h.write_u64(ARTIFACT_SCHEMA_VERSION);
        h.write_u64(EXPERIMENT_PROTOCOL_VERSION);
        match self {
            ExperimentId::Fig1a => {
                for p in rh_thresholds() {
                    h.write_str(p.generation);
                    h.write_u64(p.threshold);
                }
            }
            ExperimentId::Fig1b => {
                let p = Fig1bParams::new(quick);
                h.write(&quick);
                h.write_usize(p.width);
                h.write_u64(p.seed);
                h.write_usize(p.max_flips);
                h.write_usize(p.random_flips);
                h.write_usize(p.profile_rounds);
            }
            ExperimentId::Table2 => h.write(&DramConfig::ddr4_32gb()),
            ExperimentId::Table3 => {
                h.write_u64(table3_matrix(quick).config_hash());
                h.write(FIG8_THRESHOLDS.as_slice());
            }
            ExperimentId::Fig8a => {
                h.write(&DramConfig::lpddr4_small());
                h.write(FIG8_THRESHOLDS.as_slice());
            }
            ExperimentId::Fig8b => {
                h.write(&DramConfig::lpddr4_small());
                h.write(FIG8B_BFA_POINTS.as_slice());
            }
            ExperimentId::Fig9 => {
                h.write(&quick);
                for (arch, dataset, seed) in FIG9_MODELS {
                    h.write_str(arch.name());
                    h.write_str(dataset.name());
                    h.write_u64(seed);
                }
                let p = Fig9Params::new(quick);
                h.write_usize(p.width);
                h.write_usize(p.per_round);
                h.write_usize(p.extra);
            }
            ExperimentId::Power => {
                h.write(&DramConfig::lpddr4_small());
                h.write(FIG8_THRESHOLDS.as_slice());
            }
            ExperimentId::Workload => {
                h.write(&quick);
                h.write_u64(WORKLOAD_PROTOCOL_VERSION);
                h.write(&DramConfig::lpddr4_small());
                let p = WorkloadParams::new(quick);
                h.write_u64(p.seed);
                h.write_u64(p.benign_windows);
                h.write_u64(p.attack_windows);
                h.write_usize(p.secured_bits);
                for load in BackgroundLoad::ALL {
                    h.write(&load);
                }
                for kind in DefenseKind::TABLE3 {
                    h.write_str(kind.label());
                }
                h.write_u64(workload_matrix(quick).config_hash());
            }
            ExperimentId::Server => {
                h.write(&quick);
                h.write_u64(SERVER_PROTOCOL_VERSION);
                let cost = server_cost_model();
                h.write_u64(cost.commands_per_sec());
                h.write_u64(cost.reference_rows());
                let base = SweepBase::standard(quick);
                for spec in server_script().all() {
                    h.write_str(&spec.label());
                    h.write_u64(spec.priority as u64);
                    h.write_u64(base.cell_key(&spec).1);
                }
            }
        }
        h.finish()
    }

    /// The scenario-cell cache keys this experiment's configuration
    /// declares (empty for experiments that run no matrix). Computable
    /// without running anything — the pipeline uses it to prune the
    /// on-disk cell cache to the live set.
    pub fn declared_cell_keys(self, quick: bool) -> Vec<u64> {
        match self {
            ExperimentId::Table3 => table3_matrix(quick)
                .cell_keys()
                .into_iter()
                .map(|(_, key)| key)
                .collect(),
            ExperimentId::Workload => workload_matrix(quick)
                .cell_keys()
                .into_iter()
                .map(|(_, key)| key)
                .collect(),
            ExperimentId::Server => {
                let base = SweepBase::standard(quick);
                server_script()
                    .all()
                    .iter()
                    .map(|spec| base.cell_key(spec).1)
                    .collect()
            }
            _ => Vec::new(),
        }
    }

    /// Run the experiment.
    ///
    /// # Errors
    ///
    /// Returns a [`DramError`] when a scenario-matrix cell fails.
    pub fn run(self, ctx: &mut RunContext<'_>) -> Result<Artifact, DramError> {
        let started = Instant::now();
        let mut artifact = match self {
            ExperimentId::Fig1a => fig1a(),
            ExperimentId::Fig1b => fig1b(ctx),
            ExperimentId::Table2 => table2(),
            ExperimentId::Table3 => table3(ctx)?,
            ExperimentId::Fig8a => fig8a(),
            ExperimentId::Fig8b => fig8b(),
            ExperimentId::Fig9 => fig9(ctx),
            ExperimentId::Power => power(),
            ExperimentId::Workload => workload(ctx)?,
            ExperimentId::Server => server_service(ctx),
        };
        artifact.wall_millis = started.elapsed().as_millis() as u64;
        Ok(artifact)
    }
}

/// Shared state of one pipeline invocation.
pub struct RunContext<'a> {
    /// Quick (smoke) scaling: `repro --smoke`.
    pub quick: bool,
    /// Worker-thread cap for scenario-matrix cells (`None` = one per
    /// core).
    pub jobs: Option<usize>,
    /// The content-addressed scenario-cell cache: consulted before a
    /// cell executes, extended with every cell that does.
    pub cells: &'a mut HashMap<u64, CellReport>,
    /// Print per-cell progress lines while matrices run.
    pub verbose: bool,
}

fn blank_artifact(id: ExperimentId, config_hash: u64, seed: u64, quick: bool) -> Artifact {
    Artifact {
        experiment: id.name().to_string(),
        title: id.title().to_string(),
        config_hash,
        seed,
        quick,
        wall_millis: 0,
        cache: MatrixRunSummary {
            cells: 0,
            cache_hits: 0,
        },
        tables: Vec::new(),
        notes: Vec::new(),
        raw: None,
    }
}

/// Print an artifact's tables and notes.
pub fn print_artifact(artifact: &Artifact) {
    for table in &artifact.tables {
        let headers: Vec<&str> = table.headers.iter().map(String::as_str).collect();
        print_table(&table.name, &headers, &table.rows);
    }
    for note in &artifact.notes {
        println!("\n{note}");
    }
}

/// The `T_RH` sweep shared by Fig. 8(a), Table 3's analytical rows, and
/// the power comparison.
pub const FIG8_THRESHOLDS: [u64; 4] = [1000, 2000, 4000, 8000];

/// The Fig. 8(b) x-axis anchors: maximum allowable BFAs per `T_ref` at
/// thresholds 8k/4k/2k/1k.
pub const FIG8B_BFA_POINTS: [u64; 4] = [7_000, 14_000, 28_000, 55_000];

/// The Fig. 9 model roster: `(architecture, dataset, seed)`.
pub const FIG9_MODELS: [(Architecture, DatasetKind, u64); 3] = [
    (Architecture::Vgg11, DatasetKind::Cifar10, 91),
    (Architecture::ResNet18, DatasetKind::ImageNet, 92),
    (Architecture::ResNet34, DatasetKind::ImageNet, 93),
];

// ---------------------------------------------------------------- fig1a

fn fig1a() -> Artifact {
    let id = ExperimentId::Fig1a;
    let points = rh_thresholds();
    let baseline = points
        .iter()
        .find(|p| p.generation == "LPDDR4 (new)")
        .expect("survey contains LPDDR4 (new)")
        .threshold;
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.generation.to_string(),
                format!("{}", p.threshold),
                format!("{:.1}x", p.threshold as f64 / baseline as f64),
            ]
        })
        .collect();
    let ddr3_new = points
        .iter()
        .find(|p| p.generation == "DDR3 (new)")
        .expect("survey contains DDR3 (new)");
    let mut artifact = blank_artifact(id, id.config_hash(false), 0, false);
    artifact.tables = vec![TableArtifact::new(
        "Fig 1(a): RowHammer threshold (T_RH) by DRAM generation",
        &["Generation", "T_RH (hammer count)", "vs LPDDR4 (new)"],
        rows,
    )];
    artifact.notes = vec![format!(
        "Attackers need ~{:.1}x fewer hammers on LPDDR4 (new) than DDR3 (new).",
        ddr3_new.threshold as f64 / baseline as f64
    )];
    artifact
}

// ---------------------------------------------------------------- fig1b

struct Fig1bParams {
    width: usize,
    seed: u64,
    max_flips: usize,
    random_flips: usize,
    profile_rounds: usize,
}

impl Fig1bParams {
    fn new(quick: bool) -> Self {
        Fig1bParams {
            width: if quick { 2 } else { 4 },
            seed: 20240604,
            max_flips: if quick { 10 } else { 25 },
            random_flips: if quick { 40 } else { 120 },
            profile_rounds: if quick { 2 } else { 4 },
        }
    }
}

fn fig1b(ctx: &RunContext<'_>) -> Artifact {
    let id = ExperimentId::Fig1b;
    let p = Fig1bParams::new(ctx.quick);
    if ctx.verbose {
        println!(
            "[fig1b] training ResNet-34 (base width {}) on {}...",
            p.width,
            DatasetKind::ImageNet.name()
        );
    }
    let mut victim = prepare_victim(
        Architecture::ResNet34,
        DatasetKind::ImageNet,
        p.width,
        p.seed,
        ctx.quick,
    );
    let chance = DatasetKind::ImageNet.chance();
    let snapshot = victim.model.snapshot_q();

    let config = AttackConfig {
        target_accuracy: chance * 1.1,
        max_flips: p.max_flips,
        ..Default::default()
    };
    let bfa = run_bfa(
        &mut victim.model,
        &victim.data,
        &config,
        &std::collections::HashSet::new(),
    );
    victim.model.restore_q(&snapshot);

    let mut rng = seeded_rng(7);
    let random = run_random_attack(
        &mut victim.model,
        &victim.data.eval_images,
        &victim.data.eval_labels,
        p.random_flips,
        p.random_flips / 8,
        &mut rng,
    );
    victim.model.restore_q(&snapshot);

    // Defended: profile the vulnerable bits, protect them, re-attack.
    let profile_cfg = AttackConfig {
        target_accuracy: 0.0,
        ..config
    };
    let profile = dd_attack::multi_round_profile(
        &mut victim.model,
        &victim.data,
        &profile_cfg,
        p.profile_rounds,
    );
    let protected = profile.all();
    let defended = attack_protected(
        &mut victim.model,
        &victim.data,
        &config,
        &protected,
        ThreatModel::SemiWhiteBox,
    );
    victim.model.restore_q(&snapshot);

    let mut rows = Vec::new();
    for (flips, acc) in bfa.trajectory() {
        rows.push(vec!["BFA (targeted)".into(), flips.to_string(), pct(acc)]);
    }
    for (flips, acc) in &random.trajectory {
        rows.push(vec!["Random attack".into(), flips.to_string(), pct(*acc)]);
    }
    for (flips, acc) in &defended.trajectory {
        rows.push(vec!["DNN-Defender".into(), flips.to_string(), pct(*acc)]);
    }

    let mut artifact = blank_artifact(id, id.config_hash(ctx.quick), p.seed, ctx.quick);
    artifact.tables = vec![
        TableArtifact::new(
            "Fig 1(b): accuracy vs accumulated bit flips (ResNet-34, ImageNet stand-in)",
            &["Curve", "Bit flips", "Accuracy"],
            rows,
        ),
        TableArtifact::new(
            "Summary",
            &["Curve", "Flips spent", "Final accuracy"],
            vec![
                vec![
                    "BFA (targeted)".into(),
                    bfa.bit_flips.to_string(),
                    pct(bfa.final_accuracy),
                ],
                vec![
                    "Random attack".into(),
                    p.random_flips.to_string(),
                    pct(random.final_accuracy),
                ],
                vec![
                    "DNN-Defender (secured bits)".into(),
                    format!("{} attempted", defended.attempted_flips),
                    pct(defended.final_accuracy),
                ],
            ],
        ),
    ];
    artifact.notes = vec![format!(
        "Shape check: BFA needs {} flips to approach chance ({}), random keeps {} after {} \
         flips, defended system holds {} (clean {}).",
        bfa.bit_flips,
        pct(chance),
        pct(random.final_accuracy),
        p.random_flips,
        pct(defended.final_accuracy),
        pct(victim.clean_accuracy)
    )];
    artifact
}

// --------------------------------------------------------------- table2

fn table2() -> Artifact {
    let id = ExperimentId::Table2;
    let config = DramConfig::ddr4_32gb();
    let table = overhead_table(&config);
    let rows: Vec<Vec<String>> = table
        .iter()
        .map(|e| {
            let involved: Vec<&str> = e.involved.iter().map(|k| k.label()).collect();
            let capacity: Vec<String> = e.capacity.iter().map(|c| c.render()).collect();
            vec![
                e.framework.to_string(),
                involved.join("-"),
                capacity.join(" + "),
                e.area.to_string(),
                format!("{:.2}", e.total_reported_mb()),
            ]
        })
        .collect();
    let mut artifact = blank_artifact(id, id.config_hash(false), 0, false);
    artifact.tables = vec![TableArtifact::new(
        "Table 2: RowHammer mitigation hardware overhead (32GB, 16-bank DDR4)",
        &[
            "Framework",
            "Involved memory",
            "Capacity overhead",
            "Area overhead",
            "Total MB",
        ],
        rows,
    )];
    artifact.notes = vec![
        format!(
            "Computed from geometry: counter-per-row = {} MB, counter tree = {} MB.",
            dnn_defender::overhead::counter_per_row_bytes(&config) / (1 << 20) as u64,
            dnn_defender::overhead::counter_tree_bytes(&config) / (1 << 20) as u64,
        ),
        "DNN-Defender: DRAM only, zero capacity overhead, 0.02% area.".to_string(),
    ];
    artifact
}

// --------------------------------------------------------------- table3

/// Budget for undefended/software rows (attack stops early on collapse).
fn soft_budget(quick: bool) -> usize {
    if quick {
        12
    } else {
        60
    }
}

/// Budget for hardware-defense rows (scaled from the paper's attempt
/// counts; the leak *rate* is what matters, so these stay large).
fn hw_budget(quick: bool, paper: usize) -> usize {
    if quick {
        12
    } else {
        paper.min(350)
    }
}

/// The Table 3 matrix: the full [`DefenseKind::TABLE3`] roster on the
/// paper-shaped ResNet-20 victim, with paper-scaled per-defense budgets.
pub fn table3_matrix(quick: bool) -> ScenarioMatrix {
    let width = if quick { 2 } else { 4 };
    let epochs = if quick { 5 } else { 14 };
    let attack = AttackConfig {
        target_accuracy: DatasetKind::Cifar10.chance() * 1.1,
        max_flips: 400,
        ..Default::default()
    };
    DefenseKind::TABLE3
        .into_iter()
        .fold(
            ScenarioMatrix::new(VictimSpec::paper(
                Architecture::ResNet20,
                width,
                epochs,
                333,
            )),
            |matrix, kind| match kind.paper_budget() {
                Some(paper) => matrix.defense_kind_budgeted(kind, hw_budget(quick, paper)),
                None => matrix.defense_kind(kind),
            },
        )
        .attack_config(attack)
        .budget(soft_budget(quick))
        .seed(333)
}

fn table3(ctx: &mut RunContext<'_>) -> Result<Artifact, DramError> {
    let id = ExperimentId::Table3;
    let mut matrix = table3_matrix(ctx.quick);
    if let Some(jobs) = ctx.jobs {
        matrix = matrix.threads(jobs);
    }
    if ctx.verbose {
        println!(
            "[table3] running the {}-cell defense matrix (ResNet-20 on {}; the victim \
             trains once per width and each distinct search runs once; cells run in \
             parallel)...",
            matrix.scenarios().len(),
            DatasetKind::Cifar10.name(),
        );
    }
    let verbose = ctx.verbose;
    let progress = move |p: &CellProgress| {
        if verbose {
            let how = if p.cache_hit {
                "cached".to_string()
            } else {
                format!("{:.1}s", p.millis as f64 / 1000.0)
            };
            let mut out = std::io::stdout().lock();
            let _ = writeln!(
                out,
                "  [{}/{}] {} × {} ({how})",
                p.done, p.total, p.scenario.defense, p.scenario.attacker
            );
        }
    };
    let (report, summary) = matrix.run_with_cache(ctx.cells, Some(&progress))?;
    for ((_, key), cell) in matrix.cell_keys().into_iter().zip(&report.cells) {
        ctx.cells.insert(key, cell.clone());
    }

    let table: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|c| {
            vec![
                c.scenario.defense.clone(),
                pct(c.clean_accuracy),
                pct(c.post_attack_accuracy),
                c.attempts.to_string(),
                c.landed.to_string(),
                c.stats.defense_ops.to_string(),
            ]
        })
        .collect();
    let fig8_rows = matrix.security_analysis(&FIG8_THRESHOLDS);
    let fig8: Vec<Vec<String>> = fig8_rows
        .iter()
        .map(|r| {
            vec![
                r.t_rh.to_string(),
                format!("{:.0}", r.dd_days),
                format!("{:.0}", r.shadow_days),
                r.max_defended_bfas.to_string(),
                r.attacker_bfas.to_string(),
            ]
        })
        .collect();

    let mut artifact = blank_artifact(id, id.config_hash(ctx.quick), 333, ctx.quick);
    artifact.cache = summary;
    artifact.tables = vec![
        TableArtifact::new(
            "Table 3: BFA defense comparison (ResNet-20, CIFAR-10 stand-in)",
            &[
                "Defense",
                "Clean acc",
                "Post-attack acc",
                "Flip attempts",
                "Landed",
                "Defense ops",
            ],
            table,
        ),
        TableArtifact::new(
            "Fig. 8 (analytical): time-to-break and capacity per T_RH",
            &[
                "T_RH",
                "DD days",
                "SHADOW days",
                "Max defended BFAs",
                "Attacker BFAs",
            ],
            fig8,
        ),
    ];
    artifact.notes = vec![
        "Shape check (paper): baseline collapses to chance in tens of flips; software \
         defenses raise the required flips / bound the damage; RRS/SRS leak a few campaigns; \
         Graphene and SHADOW leak almost none; DNN-Defender holds clean accuracy with zero \
         landed flips."
            .to_string(),
    ];
    artifact.raw = Some(Json::obj().with("matrix", report.to_json()).with(
        "fig8",
        Json::Arr(fig8_rows.iter().map(|r| r.to_json()).collect()),
    ));
    Ok(artifact)
}

// ---------------------------------------------------------------- fig8a

fn fig8a() -> Artifact {
    let id = ExperimentId::Fig8a;
    // One computation feeds the display table, the note, and the raw
    // payload, so they cannot drift apart.
    let fig8_rows = dd_baselines::fig8_rows(&DramConfig::lpddr4_small(), &FIG8_THRESHOLDS);
    let rows: Vec<Vec<String>> = fig8_rows
        .iter()
        .map(|r| {
            vec![
                format!("{}k", r.t_rh / 1000),
                format!("{:.0}", r.dd_days),
                format!("{:.0}", r.shadow_days),
                format!("{:+.0}", r.dd_days - r.shadow_days),
                format!("{}", r.max_defended_bfas),
                format!("{}", r.attacker_bfas),
            ]
        })
        .collect();
    let at4k = fig8_rows
        .iter()
        .find(|r| r.t_rh == 4000)
        .expect("4k threshold in the sweep");
    let (dd4k, sh4k) = (at4k.dd_days, at4k.shadow_days);

    let mut artifact = blank_artifact(id, id.config_hash(false), 0, false);
    artifact.tables = vec![TableArtifact::new(
        "Fig 8(a): time-to-break and BFA capacities vs T_RH",
        &[
            "T_RH",
            "DNN-Defender (days)",
            "SHADOW (days)",
            "DD advantage",
            "Max defended BFAs",
            "Attacker BFAs / T_ref",
        ],
        rows,
    )];
    artifact.notes = vec![format!(
        "At T_RH = 4k: DNN-Defender {dd4k:.0} days vs SHADOW {sh4k:.0} days (paper: ~1180 \
         vs ~894; DD protects {:.0} more days).",
        dd4k - sh4k
    )];
    artifact.raw = Some(Json::Arr(fig8_rows.iter().map(|r| r.to_json()).collect()));
    artifact
}

// ---------------------------------------------------------------- fig8b

fn fig8b() -> Artifact {
    let id = ExperimentId::Fig8b;
    let model = SecurityModel::from_config(&DramConfig::lpddr4_small());
    let mut latency = Vec::new();
    for &n in &FIG8B_BFA_POINTS {
        let dd = model.latency_per_tref(n, DefenseOp::DnnDefenderSwap);
        let shadow = model.latency_per_tref(n, DefenseOp::ShadowShuffle);
        latency.push(vec![
            format!("{}K", n / 1000),
            format!("{:.2}", dd.as_millis_f64()),
            format!("{:.2}", shadow.as_millis_f64()),
            format!(
                "{:.1}%",
                100.0 * (1.0 - dd.as_millis_f64() / shadow.as_millis_f64())
            ),
        ]);
    }
    let mut anchors = Vec::new();
    for (t_rh, n) in [
        (8000u64, 7_000u64),
        (4000, 14_000),
        (2000, 28_000),
        (1000, 55_000),
    ] {
        anchors.push(vec![
            format!("{}k", t_rh / 1000),
            format!("{}", model.max_bfas_per_tref(t_rh)),
            format!("{n}"),
        ]);
    }
    let mut artifact = blank_artifact(id, id.config_hash(false), 0, false);
    artifact.tables = vec![
        TableArtifact::new(
            "Fig 8(b): defense latency per T_ref (ms) vs number of BFAs",
            &[
                "# BFAs",
                "DNN-Defender (ms)",
                "SHADOW (ms)",
                "DD latency saving",
            ],
            latency,
        ),
        TableArtifact::new(
            "Anchor points: attacker BFA capacity per T_ref by threshold",
            &["T_RH", "Model capacity", "Paper anchor"],
            anchors,
        ),
    ];
    artifact.notes = vec![format!(
        "Latency increase decelerates and saturates toward T_ref = {} ms; DNN-Defender \
         stays below SHADOW at every point.",
        model.timing.t_ref.as_millis_f64()
    )];
    artifact
}

// ----------------------------------------------------------------- fig9

struct Fig9Params {
    quick: bool,
    width: usize,
    per_round: usize,
    extra: usize,
}

impl Fig9Params {
    fn new(quick: bool) -> Self {
        Fig9Params {
            quick,
            width: if quick { 2 } else { 4 },
            per_round: if quick { 8 } else { 20 },
            extra: if quick { 20 } else { 100 },
        }
    }
}

/// Paper SB budgets as fractions of the model's total bits.
fn sb_fractions(arch: Architecture) -> Vec<f64> {
    // Paper absolute SBs / paper model bits (see EXPERIMENTS.md):
    // VGG-11: 2k..24k of ~74M bits; ResNet-18: 16k..311k of ~93M;
    // ResNet-34: 8k..151k of ~174M.
    match arch {
        Architecture::Vgg11 => vec![2.7e-5, 5.4e-5, 1.08e-4, 1.9e-4, 3.2e-4],
        Architecture::ResNet18 => vec![1.7e-4, 4.6e-4, 1.0e-3, 1.7e-3, 3.3e-3],
        Architecture::ResNet34 => vec![4.6e-5, 1.6e-4, 3.2e-4, 5.7e-4, 8.7e-4],
        _ => vec![1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3],
    }
}

fn fig9_model(
    arch: Architecture,
    dataset: DatasetKind,
    seed: u64,
    p: &Fig9Params,
    verbose: bool,
) -> TableArtifact {
    if verbose {
        println!("[fig9] training {} on {}...", arch.name(), dataset.name());
    }
    let mut victim: Victim = prepare_victim(arch, dataset, p.width, seed, p.quick);
    let total_bits = victim.model.total_bits() as f64;
    // Scale SB budgets but keep them small multiples of what profiling
    // can discover (each profiling round finds ~max_flips bits).
    let mut budgets: Vec<usize> = sb_fractions(arch)
        .iter()
        .map(|f| ((f * total_bits).round() as usize).max(4))
        .collect();
    budgets.dedup();

    let profile_cfg = AttackConfig {
        target_accuracy: dataset.chance() * 1.2,
        max_flips: p.per_round,
        ..Default::default()
    };
    let max_budget = *budgets.last().expect("budgets non-empty");
    let rounds = max_budget.div_ceil(p.per_round) + 1;
    let profile =
        dd_attack::multi_round_profile(&mut victim.model, &victim.data, &profile_cfg, rounds);

    let attack_cfg = AttackConfig {
        target_accuracy: 0.0, // run the full budget; we want the curve
        max_flips: p.extra,
        record_every: p.extra.div_ceil(5),
        ..Default::default()
    };

    let snapshot = victim.model.snapshot_q();
    let mut rows = Vec::new();
    for &sb in &budgets {
        let sb_eff = sb.min(profile.bits.len());
        let protected = profile.prefix(sb_eff);
        let report = attack_protected(
            &mut victim.model,
            &victim.data,
            &attack_cfg,
            &protected,
            ThreatModel::WhiteBox,
        );
        victim.model.restore_q(&snapshot);
        let mut cells = vec![format!("SB = {sb_eff}")];
        // Accuracy at SB+0, +20, ..., +100 attempted extra flips.
        let mut traj = report.trajectory.clone();
        traj.push((report.attempted_flips, report.final_accuracy));
        for k in (0..=p.extra).step_by(attack_cfg.record_every.max(1)) {
            let acc = traj
                .iter()
                .rfind(|(f, _)| *f <= k)
                .map(|(_, a)| *a)
                .unwrap_or(report.clean_accuracy);
            cells.push(pct(acc));
        }
        rows.push(cells);
    }
    let mut headers: Vec<String> = vec!["Secured bits".into()];
    for k in (0..=p.extra).step_by(attack_cfg.record_every.max(1)) {
        headers.push(format!("SB+{k}"));
    }
    TableArtifact {
        name: format!(
            "Fig 9: {} / {} — accuracy vs SB + extra flips",
            arch.name(),
            dataset.name()
        ),
        headers,
        rows,
    }
}

fn fig9(ctx: &RunContext<'_>) -> Artifact {
    let id = ExperimentId::Fig9;
    let p = Fig9Params::new(ctx.quick);
    let tables = FIG9_MODELS
        .into_iter()
        .map(|(arch, dataset, seed)| fig9_model(arch, dataset, seed, &p, ctx.verbose))
        .collect();
    let mut artifact = blank_artifact(id, id.config_hash(ctx.quick), FIG9_MODELS[0].2, ctx.quick);
    artifact.tables = tables;
    artifact.notes = vec![
        "Shape check: larger SB forces the adaptive attacker to spend more extra flips for \
         the same damage; the largest SB keeps accuracy near clean (attack degraded to \
         random level)."
            .to_string(),
    ];
    artifact
}

// ---------------------------------------------------------------- power

fn power() -> Artifact {
    let id = ExperimentId::Power;
    let config = DramConfig::lpddr4_small();
    let mut tables = Vec::new();
    for &t_rh in &FIG8_THRESHOLDS {
        let rows: Vec<Vec<String>> = power_table(&config, t_rh)
            .iter()
            .map(|p| {
                vec![
                    p.name.clone(),
                    format!("{:.1}", p.defense_energy_pj / 1e3),
                    format!("{:.4}", p.defense_power_mw),
                ]
            })
            .collect();
        tables.push(TableArtifact::new(
            format!(
                "Defense energy per T_ref at T_RH = {}k (max attack rate)",
                t_rh / 1000
            ),
            &["Scheme", "Energy (nJ)", "Power (mW)"],
            rows,
        ));
    }
    let mut artifact = blank_artifact(id, id.config_hash(false), 0, false);
    artifact.tables = tables;
    artifact.notes = vec![format!(
        "At T_RH = 1k: DNN-Defender saves {:.1}% vs SHADOW (paper: ~1.6%) and is {:.1}x \
         cheaper than SRS (paper: 3.4x).",
        100.0 * saving_versus(&config, 1000, "SHADOW"),
        1.0 / (1.0 - saving_versus(&config, 1000, "SRS")),
    )];
    artifact
}

// ------------------------------------------------------------- workload

pub(crate) struct WorkloadParams {
    seed: u64,
    /// Benign-only measurement windows per (mix, defense) run.
    benign_windows: u64,
    /// Attacked windows (one campaign each) per run.
    attack_windows: u64,
    /// Bits installed as the defense's secured set (and attacked).
    secured_bits: usize,
}

impl WorkloadParams {
    pub(crate) fn new(quick: bool) -> Self {
        WorkloadParams {
            seed: 20240605,
            benign_windows: if quick { 4 } else { 12 },
            attack_windows: if quick { 4 } else { 12 },
            secured_bits: 64,
        }
    }
}

/// The matrix slice exercising the background-load axis end-to-end: the
/// undefended baseline and DNN-Defender on the tiny victim, across every
/// load level (cells flow through the shared cell cache like Table 3's).
pub fn workload_matrix(quick: bool) -> ScenarioMatrix {
    let attack = AttackConfig {
        target_accuracy: 0.3,
        max_flips: 40,
        ..Default::default()
    };
    ScenarioMatrix::new(VictimSpec::tiny_mlp(2024))
        .attack_config(attack)
        .budget(if quick { 4 } else { 10 })
        .seed(2024)
        .with_all_backgrounds()
        .defense_kind(DefenseKind::Undefended)
        .defense_kind(DefenseKind::DnnDefender)
}

/// Deterministic pseudo-serving model for the driver runs: an untrained
/// two-layer MLP whose quantized weights fill ~148 rows of the small
/// device. The workload experiment measures traffic, not accuracy, so
/// training would add nothing but wall time.
pub(crate) fn serving_model(seed: u64) -> QModel {
    let mut rng = seeded_rng(seed);
    let net = Network::new("serving")
        .push(Flatten::new())
        .push(Linear::kaiming("fc1", 64, 128, &mut rng))
        .push(Linear::kaiming("fc2", 128, 10, &mut rng));
    QModel::from_network(net)
}

/// The secured/attacked bit set: spread across the first parameter so
/// the protected rows scatter over banks (the round-robin layout).
pub(crate) fn workload_bits(model: &QModel, n: usize) -> Vec<BitAddr> {
    let len = model.qtensor(0).len();
    (0..n)
        .map(|i| BitAddr {
            param: 0,
            index: (i * 577) % len,
            bit: 7,
        })
        .collect()
}

/// One (mix, defense) driver run of the workload experiment.
pub(crate) fn workload_run(
    load: BackgroundLoad,
    kind: DefenseKind,
    p: &WorkloadParams,
) -> Result<DriverReport, DramError> {
    let config = DramConfig::lpddr4_small();
    let mut mem = MemoryController::try_new(config.clone())?;

    let model = serving_model(p.seed);
    let mut map = WeightMap::layout(&model, &config);
    let hot_set: std::collections::HashSet<_> = map.slots().iter().map(|s| s.row).collect();
    let hot = Rows::listed(&config, map.slots().iter().map(|s| s.row));
    let cold = Rows::listed(
        &config,
        all_data_rows(&config)
            .iter()
            .filter(|row| !hot_set.contains(row)),
    );

    // The benign traffic is seeded per *mix only*: every defense row of
    // one mix faces the identical op stream, so false-op and disturbance
    // columns compare defenses, not RNG draws.
    let mut traffic_seed = p.seed ^ 0x6f2d;
    let mut defense_seed = p.seed ^ 0x00d3_f227;
    for b in load.label().bytes() {
        traffic_seed = (traffic_seed ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    for b in load.label().bytes().chain(kind.label().bytes()) {
        defense_seed = (defense_seed ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut defense = kind.build(defense_seed, &config);
    let bits = workload_bits(&model, p.secured_bits);
    defense.secure_bits(&bits, Some(&map));

    let mut traffic = BenignTraffic::for_load(load, traffic_seed, &config, &hot, &cold)
        .unwrap_or_else(
            // BackgroundLoad::None: an empty stream set that only rolls the
            // clock, so the attack-only baseline runs through the same path.
            || {
                BenignTraffic::new(
                    Vec::new(),
                    load.label(),
                    0,
                    1,
                    RowSet::new(&config),
                    &config,
                )
            },
        );
    run_workload(
        &mut mem,
        &mut *defense,
        Some(&mut map),
        &mut traffic,
        &bits,
        &DriverConfig {
            benign_windows: p.benign_windows,
            attack_windows: p.attack_windows,
            record: false,
        },
    )
}

fn workload(ctx: &mut RunContext<'_>) -> Result<Artifact, DramError> {
    let id = ExperimentId::Workload;
    let p = WorkloadParams::new(ctx.quick);
    if ctx.verbose {
        println!(
            "[workload] driving {} mixes x {} defenses through the workload engine...",
            BackgroundLoad::ALL.len(),
            DefenseKind::TABLE3.len()
        );
    }

    // Driver sweep: every mix × every defense.
    let mut rows = Vec::new();
    let mut throughput = Vec::new();
    let mut raw_runs = Vec::new();
    let mut total_commands = 0u64;
    for load in BackgroundLoad::ALL {
        for kind in DefenseKind::TABLE3 {
            let r = workload_run(load, kind, &p)?;
            total_commands += r.commands;
            let per_1k = if r.benign_ops == 0 {
                "-".to_string()
            } else {
                format!(
                    "{:.2}",
                    1000.0 * r.false_defense_ops as f64 / r.benign_ops as f64
                )
            };
            rows.push(vec![
                load.label().to_string(),
                kind.label().to_string(),
                r.benign_ops.to_string(),
                r.false_defense_ops.to_string(),
                per_1k,
                r.online_defense_ops.to_string(),
                format!("{}/{}", r.landed, r.attempts),
                r.peak_benign_disturbance.to_string(),
                r.disturbed_rows.to_string(),
            ]);
            if kind == DefenseKind::Undefended {
                let sim_secs = r.sim_nanos as f64 / 1e9;
                throughput.push(vec![
                    load.label().to_string(),
                    (r.benign_ops / (p.benign_windows + p.attack_windows)).to_string(),
                    r.benign_activations.to_string(),
                    format!("{:.3}", r.benign_bytes as f64 / 1e6 / sim_secs),
                    format!("{:.4}%", 100.0 * r.busy_nanos as f64 / r.sim_nanos as f64),
                    r.commands.to_string(),
                ]);
            }
            raw_runs.push(
                Json::obj()
                    .with("workload", Json::str(load.label()))
                    .with("defense", Json::str(kind.label()))
                    .with("benign_ops", Json::uint(r.benign_ops))
                    .with("benign_activations", Json::uint(r.benign_activations))
                    .with("benign_bytes", Json::uint(r.benign_bytes))
                    .with("commands", Json::uint(r.commands))
                    .with("sim_nanos", Json::uint(r.sim_nanos as u64))
                    .with("busy_nanos", Json::uint(r.busy_nanos as u64))
                    .with("false_defense_ops", Json::uint(r.false_defense_ops))
                    .with("online_defense_ops", Json::uint(r.online_defense_ops))
                    .with("attempts", Json::uint(r.attempts))
                    .with("landed", Json::uint(r.landed))
                    .with("disturbed_rows", Json::uint(r.disturbed_rows))
                    .with("peak_disturbance", Json::uint(r.peak_benign_disturbance)),
            );
        }
    }

    // Matrix slice: the background-load axis through the cached scenario
    // harness (accuracy under load).
    let mut matrix = workload_matrix(ctx.quick);
    if let Some(jobs) = ctx.jobs {
        matrix = matrix.threads(jobs);
    }
    let (report, summary) = matrix.run_with_cache(ctx.cells, None)?;
    for ((_, key), cell) in matrix.cell_keys().into_iter().zip(&report.cells) {
        ctx.cells.insert(key, cell.clone());
    }
    let matrix_rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|c| {
            let benign = c.benign.unwrap_or_default();
            vec![
                c.scenario.defense.clone(),
                c.scenario.workload.clone(),
                pct(c.clean_accuracy),
                pct(c.post_attack_accuracy),
                format!("{}/{}", c.landed, c.attempts),
                benign.ops.to_string(),
                benign.online_defense_ops.to_string(),
            ]
        })
        .collect();

    let mut artifact = blank_artifact(id, id.config_hash(ctx.quick), p.seed, ctx.quick);
    artifact.cache = summary;
    artifact.tables = vec![
        TableArtifact::new(
            "Workload: false positives and interference, mix x defense",
            &[
                "Mix",
                "Defense",
                "Benign ops",
                "False ops",
                "False/1k ops",
                "Online ops",
                "Landed/Attempts",
                "Peak benign dist.",
                "Rows >= T_RH/2",
            ],
            rows,
        ),
        TableArtifact::new(
            "Benign throughput by mix (undefended device)",
            &[
                "Mix",
                "Ops/window",
                "Activations",
                "Sim bandwidth (MB/s)",
                "Busy share",
                "Commands",
            ],
            throughput,
        ),
        TableArtifact::new(
            "Scenario matrix under load (tiny victim, BFA)",
            &[
                "Defense",
                "Background",
                "Clean acc",
                "Post-attack acc",
                "Landed/Attempts",
                "Benign ops",
                "Online ops",
            ],
            matrix_rows,
        ),
    ];
    artifact.notes = vec![
        "Shape check: Graphene's device-wide counter tap starts paying false refreshes once \
         a benign zipfian hotspot crosses its trip point (heavy mix), while DNN-Defender's \
         victim-focused watcher only reacts to heat on its protected rows — a much smaller \
         false-positive surface — and both keep blocking every campaign they block in the \
         quiet matrix. Defenses with no online tap (RRS/SRS, SHADOW, software) show zero \
         false ops by construction."
            .to_string(),
        "Interference check: attack campaigns push collateral disturbance past T_RH/2 on \
         benign neighbour rows under every non-refreshing defense (the `Rows >= T_RH/2` \
         column); Graphene's refreshes and DNN-Defender's mid-campaign swap are what keep \
         their peaks at or below the watermark."
            .to_string(),
    ];
    artifact.raw = Some(
        Json::obj()
            .with("runs", Json::Arr(raw_runs))
            .with("total_commands", Json::uint(total_commands))
            .with("matrix", report.to_json()),
    );
    Ok(artifact)
}

/// The pinned, machine-independent calibration of the scripted service
/// session: the conservative default throughput over the small device.
/// (`repro serve` calibrates from the measured `BENCH_kernel.json`
/// instead; the experiment pins the model so its prices — and therefore
/// its admission, rejection, and shedding decisions — are deterministic.)
pub(crate) fn server_cost_model() -> CostModel {
    CostModel::new(
        DEFAULT_COMMANDS_PER_SEC,
        crate::serve::REFERENCE_DEVICE_ROWS,
    )
}

/// The scripted session's cell specs. Alice exercises the cold → warm →
/// invalidated cache lifecycle, Bob the budget accounting, Carol the
/// storm regime (four warm cells at priority 1 riding along with four
/// expensive cold cells at priority 0).
pub(crate) struct ServerScript {
    pub(crate) alice: Vec<CellSpec>,
    pub(crate) bob: Vec<CellSpec>,
    pub(crate) carol: Vec<CellSpec>,
}

impl ServerScript {
    /// Every scripted spec, in submission order.
    pub(crate) fn all(&self) -> Vec<CellSpec> {
        [&self.alice, &self.bob, &self.carol]
            .into_iter()
            .flatten()
            .cloned()
            .collect()
    }
}

pub(crate) fn server_script() -> ServerScript {
    let s = |text: &str| CellSpec::parse_compact(text).expect("scripted cell spec");
    ServerScript {
        alice: vec![
            s("Baseline (undefended):BFA:lpddr4_small:none"),
            s("DNN-Defender:BFA:lpddr4_small:none"),
            s("Baseline (undefended):BFA:lpddr4_small:light"),
            s("DNN-Defender:BFA:lpddr4_small:light"),
        ],
        bob: vec![
            s("Baseline (undefended):BFA:lpddr4_small@3000:none"),
            s("DNN-Defender:BFA:lpddr4_small@3000:none"),
        ],
        carol: vec![
            s("Baseline (undefended):BFA:lpddr4_small:none:1"),
            s("DNN-Defender:BFA:lpddr4_small:none:1"),
            s("Baseline (undefended):BFA:lpddr4_small:light:1"),
            s("DNN-Defender:BFA:lpddr4_small:light:1"),
            s("Baseline (undefended):BFA:lpddr4_small:heavy"),
            s("DNN-Defender:BFA:lpddr4_small:heavy"),
            s("Baseline (undefended):BFA:lpddr4_small:multi-tenant"),
            s("DNN-Defender:BFA:lpddr4_small:multi-tenant"),
        ],
    }
}

/// Deterministic per-step outcome counts extracted from a response.
#[derive(Default)]
struct StepCounts {
    computed: u64,
    hits: u64,
    rejected: u64,
    shed: u64,
    evicted: u64,
}

fn submit_counts(response: &Json) -> StepCounts {
    let mut counts = StepCounts::default();
    for result in response.field_arr("results").expect("submit results") {
        match result.field_str("status").expect("status") {
            "done" => {
                if result.field_bool("cache_hit").expect("cache_hit") {
                    counts.hits += 1;
                } else {
                    counts.computed += 1;
                }
            }
            "rejected" => counts.rejected += 1,
            "shed" => counts.shed += 1,
            other => panic!("scripted session produced unexpected status `{other}`"),
        }
    }
    counts
}

/// The scripted matrix-as-a-service session. Runs a real [`SweepServer`]
/// (empty cache, pinned cost model, capacity of exactly one heavy cell)
/// through three clients and asserts the scheduler's decisions at every
/// step — the artifact's tables are the deterministic session ledger;
/// wall-clock timings stay in `raw`.
fn server_service(ctx: &mut RunContext<'_>) -> Artifact {
    let id = ExperimentId::Server;
    let script = server_script();
    let cost = server_cost_model();
    let base = SweepBase::standard(ctx.quick);
    let price =
        |spec: &CellSpec| cost.price_micros(base.estimated_commands(spec), spec.device.rows());

    // Capacity: exactly one heavy cell. Alice's light batch stays calm
    // under it; Carol's four cold cells (two heavy + two multi-tenant)
    // storm it and shed down to the single surviving heavy cell.
    let capacity_micros = price(&script.carol[4]);
    let mut config = ServerConfig::standard(ctx.quick);
    config.workers = ctx.jobs.unwrap_or(config.workers);
    config.capacity_micros = capacity_micros;
    let mut server = SweepServer::new(config, cost);

    if ctx.verbose {
        println!(
            "[server] scripted service session: {} specs over 3 clients, capacity {capacity_micros}us...",
            script.all().len()
        );
    }

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut raw_steps: Vec<Json> = Vec::new();
    let mut log =
        |step: &str, client: &str, regime: &str, counts: &StepCounts, raw_steps: &mut Vec<Json>| {
            rows.push(vec![
                step.to_string(),
                client.to_string(),
                regime.to_string(),
                counts.computed.to_string(),
                counts.hits.to_string(),
                counts.rejected.to_string(),
                counts.shed.to_string(),
                counts.evicted.to_string(),
            ]);
            raw_steps.push(
                Json::obj()
                    .with("step", Json::str(step))
                    .with("client", Json::str(client))
                    .with("regime", Json::str(regime))
                    .with("computed", Json::uint(counts.computed))
                    .with("cache_hits", Json::uint(counts.hits))
                    .with("rejected", Json::uint(counts.rejected))
                    .with("shed", Json::uint(counts.shed))
                    .with("evicted", Json::uint(counts.evicted)),
            );
        };

    // Alice: cold sweep → warm resweep → invalidate one axis → resweep.
    let alice = SweepServer::submit_request("alice", ctx.quick, &script.alice);
    let cold = request_inline(&mut server, &alice).expect("submit");
    let counts = submit_counts(&cold);
    assert_eq!(cold.field_str("regime"), Ok("calm"));
    assert_eq!((counts.computed, counts.hits), (4, 0));
    let charged_cold = cold
        .field("ledger")
        .and_then(|l| l.field_u64("charged_micros"))
        .expect("ledger");
    log("cold sweep", "alice", "calm", &counts, &mut raw_steps);

    let warm = request_inline(&mut server, &alice).expect("submit");
    let counts = submit_counts(&warm);
    assert_eq!((counts.computed, counts.hits), (0, 4));
    let charged_warm = warm
        .field("ledger")
        .and_then(|l| l.field_u64("charged_micros"))
        .expect("ledger");
    assert_eq!(charged_warm, charged_cold, "cache hits must charge nothing");
    log("warm resweep", "alice", "calm", &counts, &mut raw_steps);

    let invalidate = request_inline(
        &mut server,
        &Json::obj()
            .with("op", Json::str("invalidate"))
            .with("axis", Json::str("workload"))
            .with("value", Json::str("light")),
    )
    .expect("invalidate");
    let counts = StepCounts {
        evicted: invalidate.field_u64("evicted").expect("evicted"),
        ..StepCounts::default()
    };
    assert_eq!(counts.evicted, 2, "the light slice is two of alice's cells");
    log(
        "invalidate workload=light",
        "-",
        "-",
        &counts,
        &mut raw_steps,
    );

    let resweep = request_inline(&mut server, &alice).expect("submit");
    let counts = submit_counts(&resweep);
    assert_eq!(
        (counts.computed, counts.hits),
        (2, 2),
        "only the invalidated slice recomputes"
    );
    log(
        "incremental resweep",
        "alice",
        "calm",
        &counts,
        &mut raw_steps,
    );

    // Bob: an exact grant covers the first cell and rejects the second.
    let grant_micros = price(&script.bob[0]);
    request_inline(
        &mut server,
        &Json::obj()
            .with("op", Json::str("budget"))
            .with("client", Json::str("bob"))
            .with("grant_micros", Json::uint(grant_micros)),
    )
    .expect("grant");
    let request = SweepServer::submit_request("bob", ctx.quick, &script.bob);
    let bob = request_inline(&mut server, &request).expect("submit");
    let counts = submit_counts(&bob);
    assert_eq!((counts.computed, counts.rejected), (1, 1));
    let results = bob.field_arr("results").expect("results");
    assert_eq!(results[1].field_str("reason"), Ok("budget_exhausted"));
    assert_eq!(results[1].field_u64("remaining_micros"), Ok(0));
    log("over-budget sweep", "bob", "calm", &counts, &mut raw_steps);

    // Carol: warm riders at priority 1, four cold cells storming the
    // capacity; shedding drops the lowest priority, newest first.
    let request = SweepServer::submit_request("carol", ctx.quick, &script.carol);
    let carol = request_inline(&mut server, &request).expect("submit");
    let counts = submit_counts(&carol);
    assert_eq!(carol.field_str("regime"), Ok("storm"));
    assert_eq!((counts.computed, counts.hits, counts.shed), (1, 4, 3));
    let results = carol.field_arr("results").expect("results");
    assert_eq!(
        results[4].field_str("status"),
        Ok("done"),
        "the oldest cold cell survives the storm"
    );
    log("storm sweep", "carol", "storm", &counts, &mut raw_steps);

    let stats =
        request_inline(&mut server, &Json::obj().with("op", Json::str("stats"))).expect("stats");

    // Per-client accounting (deterministic: estimates charge, wall-clock
    // is metric-only and stays in `raw`).
    let clients = stats.field("clients").expect("clients");
    let Json::Obj(client_fields) = clients else {
        panic!("clients is an object");
    };
    let ledger_rows: Vec<Vec<String>> = client_fields
        .iter()
        .map(|(name, ledger)| {
            let f = |key: &str| ledger.field_u64(key).expect(key).to_string();
            vec![
                name.clone(),
                f("granted_micros"),
                f("charged_micros"),
                f("remaining_micros"),
                f("computed"),
                f("cache_hits"),
                f("rejected_budget"),
                f("shed"),
            ]
        })
        .collect();

    // Admission pricing across the axes the cost model keys on.
    let pricing_specs = [
        "Baseline (undefended):BFA:lpddr4_small:none",
        "Baseline (undefended):BFA:lpddr4_small:light",
        "Baseline (undefended):BFA:lpddr4_small:multi-tenant",
        "Baseline (undefended):BFA:lpddr4_small:heavy",
        "Baseline (undefended):BFA:lpddr4_small@3000:none",
        "Baseline (undefended):BFA:ddr4_32gb:none",
    ];
    let pricing_rows: Vec<Vec<String>> = pricing_specs
        .iter()
        .map(|text| {
            let spec = CellSpec::parse_compact(text).expect("pricing spec");
            vec![
                format!("{} × {}", spec.device.label(), spec.load.label()),
                spec.device.rows().to_string(),
                base.estimated_commands(&spec).to_string(),
                price(&spec).to_string(),
            ]
        })
        .collect();

    // Merge the session's computed cells into the shared batch cache:
    // server and batch paths share content-addressed keys, so `repro
    // workload` can reuse what the session just computed.
    for (key, cell) in server.into_cache() {
        ctx.cells.insert(key, cell);
    }

    let mut artifact = blank_artifact(id, id.config_hash(ctx.quick), 2024, ctx.quick);
    artifact.cache = MatrixRunSummary {
        cells: 22,
        cache_hits: 10,
    };
    artifact.tables = vec![
        TableArtifact::new(
            "Service session log (scripted; deterministic by construction)",
            &[
                "Step", "Client", "Regime", "Computed", "Hits", "Rejected", "Shed", "Evicted",
            ],
            rows,
        ),
        TableArtifact::new(
            "Per-client budget accounting (estimated microseconds)",
            &[
                "Client",
                "Granted",
                "Charged",
                "Remaining",
                "Computed",
                "Hits",
                "Rejected",
                "Shed",
            ],
            ledger_rows,
        ),
        TableArtifact::new(
            "Admission pricing (pinned calibration)",
            &["Device × load", "Rows", "Est. commands", "Price (us)"],
            pricing_rows,
        ),
    ];
    artifact.notes = vec![
        "Budget semantics: admission charges the deterministic estimate, never the measured \
         wall time, so `charged ≤ granted` holds by construction and the session ledger is \
         reproducible bit-for-bit; cache hits charge nothing, and rejected or shed cells are \
         refunded. Bob's exact grant covers his first cell and bounces the second with a \
         structured `budget_exhausted` rejection — no hang, no partial charge."
            .to_string(),
        "Regimes: Alice's batches fit the planning capacity (calm). Carol's four cold cells \
         exceed twice the capacity (storm), so the scheduler sheds the lowest-priority \
         pending cells newest-first down to capacity — her four priority-1 riders are warm \
         cache hits and never enter the backlog, and the oldest cold cell survives, keeping \
         the server live. Pricing scales with estimated commands × device rows: the same \
         no-load cell is ~256× dearer on ddr4_32gb than on lpddr4_small."
            .to_string(),
    ];
    artifact.raw = Some(
        Json::obj()
            .with("protocol", Json::uint(SERVER_PROTOCOL_VERSION))
            .with("capacity_micros", Json::uint(capacity_micros))
            .with("grant_micros_bob", Json::uint(grant_micros))
            .with("session", Json::Arr(raw_steps))
            .with("stats", stats),
    );
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;

    #[test]
    fn experiment_ids_parse_round_trip() {
        for id in ExperimentId::ALL {
            assert_eq!(ExperimentId::parse(id.name()), Some(id));
        }
        assert_eq!(ExperimentId::parse("nope"), None);
    }

    #[test]
    fn config_hashes_are_stable_and_mode_sensitive() {
        for id in ExperimentId::ALL {
            assert_eq!(id.config_hash(true), id.config_hash(true));
        }
        // Scaled experiments must key on quick mode; analytical ones
        // deliberately don't (same numbers either way).
        for id in [
            ExperimentId::Fig1b,
            ExperimentId::Table3,
            ExperimentId::Fig9,
        ] {
            assert_ne!(id.config_hash(true), id.config_hash(false));
        }
        assert_eq!(
            ExperimentId::Table2.config_hash(true),
            ExperimentId::Table2.config_hash(false)
        );
    }

    #[test]
    fn analytical_experiments_run_instantly_and_serialize() {
        let mut cells = HashMap::new();
        let mut ctx = RunContext {
            quick: true,
            jobs: Some(2),
            cells: &mut cells,
            verbose: false,
        };
        for id in [
            ExperimentId::Fig1a,
            ExperimentId::Table2,
            ExperimentId::Fig8a,
            ExperimentId::Fig8b,
            ExperimentId::Power,
        ] {
            let artifact = id.run(&mut ctx).expect("analytical run");
            assert_eq!(artifact.experiment, id.name());
            assert!(!artifact.tables.is_empty());
            let round = Artifact::parse(&artifact.to_json().render_pretty()).expect("round trip");
            assert_eq!(round.tables, artifact.tables);
            assert_eq!(round.config_hash, artifact.config_hash);
        }
    }
}
