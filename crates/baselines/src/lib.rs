//! # dd-baselines — the mitigations DNN-Defender is compared against
//!
//! Every family implements the [`dnn_defender::defense::DefenseMechanism`]
//! trait, so they are interchangeable in
//! [`dnn_defender::ProtectedSystem`] and in the [`scenario`] matrix. Each
//! is one type with one campaign race; the scratch device and a deployed
//! model image differ only where a relocating mechanism must keep the
//! weight map coherent.
//!
//! Hardware baselines (Table 2 / Table 3):
//!
//! * [`graphene`] — counter-based victim refresh with a Misra–Gries
//!   frequent-items table (Graphene, MICRO 2020);
//! * [`swap_based`] — [`RowSwapMechanism`]: aggressor-focused randomized
//!   row swaps (RRS, ASPLOS 2022; SRS 2022), including the white-box
//!   failure mode the paper builds its case on;
//! * [`shadow`] — [`ShadowMechanism`]: intra-subarray victim shuffling
//!   (SHADOW, HPCA 2023), the strongest prior scheme and the head-to-head
//!   comparison in Fig. 8;
//!
//! Table 2's counter-per-row, Hydra and TWiCe rows are storage figures
//! ([`dnn_defender::overhead`]); no tracker here simulates them.
//!
//! Software baselines (Table 3):
//!
//! * [`software`] — piece-wise clustering (weight clipping), binary
//!   weights, capacity scaling;
//!
//! and the [`scenario`] harness — [`scenario::ScenarioMatrix`] — that
//! sweeps attacker × defense × device grids under the common BFA
//! protocol, in parallel on the [`pool`] that the sweep server shares,
//! from one entry point.
//!
//! ## Quickstart
//!
//! ```no_run
//! use dd_baselines::{AttackerKind, RowSwapMechanism, ScenarioMatrix, SwapScheme, VictimSpec};
//! use dnn_defender::Undefended;
//!
//! let report = ScenarioMatrix::new(VictimSpec::tiny_mlp(7))
//!     .attacker(AttackerKind::Bfa)
//!     .defense("Baseline", |_, _| Box::new(Undefended::new()))
//!     .defense("RRS", |seed, _| Box::new(RowSwapMechanism::new(SwapScheme::Rrs, seed)))
//!     .budget(20)
//!     .run()
//!     .expect("matrix");
//! for cell in &report.cells {
//!     println!(
//!         "{:<10} {:.1}% -> {:.1}% ({}/{} landed)",
//!         cell.scenario.defense,
//!         cell.clean_accuracy * 100.0,
//!         cell.post_attack_accuracy * 100.0,
//!         cell.landed,
//!         cell.attempts,
//!     );
//! }
//! ```

#![deny(missing_docs)]

pub mod graphene;
pub mod pool;
pub mod scenario;
pub mod shadow;
pub mod software;
pub mod swap_based;

pub use dd_workload::BackgroundLoad;
pub use graphene::{GrapheneDefense, MisraGries};
pub use pool::run_indexed;
pub use scenario::{
    dram_label, fig8_rows, AttackerKind, BenignReport, CellProgress, CellReport, DefenseFactory,
    DefenseKind, Fig8Row, MatrixReport, MatrixRunSummary, RunMemo, Scenario, ScenarioMatrix,
    VictimSpec, CELL_PROTOCOL_VERSION,
};
pub use shadow::ShadowMechanism;
pub use software::{binarize_weights, clip_weights, SoftwareDefense, SoftwareKind};
pub use swap_based::{AttackerTracking, RowSwapMechanism, SwapScheme};
