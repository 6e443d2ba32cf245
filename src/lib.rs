//! # dnn-defender-repro — umbrella crate
//!
//! End-to-end reproduction of *DNN-Defender: A Victim-Focused In-DRAM
//! Defense Mechanism for Taming Adversarial Weight Attack on DNNs*
//! (DAC 2024). This root crate re-exports the workspace layers and hosts
//! the runnable examples (`examples/`) and the cross-crate integration
//! tests (`tests/`).
//!
//! Layer map (bottom-up):
//!
//! * [`dd_dram`] — DRAM + RowHammer simulator;
//! * [`dd_nn`] — tensor / training substrate and synthetic datasets;
//! * [`dd_qnn`] — 8-bit quantization, bit addressing, victim model zoo;
//! * [`dd_attack`] — BFA progressive bit search, random and adaptive
//!   attackers, vulnerable-bit profiling;
//! * [`dnn_defender`] — the defense layer: the
//!   [`dnn_defender::defense::DefenseMechanism`] trait, mapping, four-step
//!   swap, priority protection, the generic
//!   [`dnn_defender::ProtectedSystem`], analytical models;
//! * [`dd_baselines`] — RRS / SRS / SHADOW / Graphene and the software
//!   defenses behind the same trait, plus the
//!   [`dd_baselines::ScenarioMatrix`] attacker × defense × device sweep
//!   harness.
//!
//! See `README.md` for a guided tour and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

pub use dd_attack;
pub use dd_baselines;
pub use dd_dram;
pub use dd_nn;
pub use dd_qnn;
pub use dnn_defender;

/// Commonly used items for examples and downstream experiments.
pub mod prelude {
    pub use dd_attack::{
        attack_protected, multi_round_profile, run_bfa, run_random_attack, AttackConfig,
        AttackData, ThreatModel,
    };
    pub use dd_baselines::{AttackerKind, CellReport, MatrixReport, ScenarioMatrix, VictimSpec};
    pub use dd_dram::{DramConfig, MemoryController, Nanos, TimingParams};
    pub use dd_nn::data::{Dataset, SyntheticSpec};
    pub use dd_nn::init::seeded_rng;
    pub use dd_nn::train::{evaluate, train, TrainConfig};
    pub use dd_qnn::{build_model, Architecture, BitAddr, ModelConfig, QModel};
    pub use dnn_defender::{
        DefenseConfig, DefenseMechanism, DefenseOp, DefenseStats, DnnDefenderDefense, DynDefense,
        FlipAttempt, ProtectedSystem, SecurityModel, Undefended,
    };
}
