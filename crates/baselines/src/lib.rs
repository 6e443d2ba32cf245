//! # dd-baselines — the mitigations DNN-Defender is compared against
//!
//! Every family implements the [`dnn_defender::defense::DefenseMechanism`]
//! trait, so they are interchangeable in
//! [`dnn_defender::ProtectedSystem`] and in the [`scenario`] matrix.
//!
//! Hardware baselines (Table 2 / Table 3):
//!
//! * [`graphene`] — counter-based victim refresh with a Misra–Gries
//!   frequent-items table (Graphene, MICRO 2020);
//! * [`swap_based`] — aggressor-focused randomized row swaps (RRS,
//!   ASPLOS 2022; SRS 2022), including the white-box failure mode the
//!   paper builds its case on;
//! * [`shadow`] — intra-subarray victim shuffling (SHADOW, HPCA 2023),
//!   the strongest prior scheme and the head-to-head comparison in
//!   Fig. 8;
//!
//! Software baselines (Table 3):
//!
//! * [`software`] — piece-wise clustering (weight clipping), binary
//!   weights, post-attack weight reconstruction, capacity scaling;
//!
//! and the [`scenario`] harness — [`scenario::ScenarioMatrix`] — that
//! sweeps attacker × defense × device grids under the common BFA
//! protocol, in parallel, from one entry point.
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

pub mod counters;
pub mod graphene;
pub mod scenario;
pub mod shadow;
pub mod software;
pub mod swap_based;

pub use counters::{CounterPerRow, HydraTracker, TwiceTable};
pub use dd_workload::BackgroundLoad;
pub use graphene::{GrapheneDefense, MisraGries};
pub use scenario::{
    dram_label, fig8_rows, AttackerKind, BenignReport, CellProgress, CellReport, DefenseFactory,
    DefenseKind, Fig8Row, MatrixReport, MatrixRunSummary, RunMemo, Scenario, ScenarioMatrix,
    VictimSpec, CELL_PROTOCOL_VERSION,
};
pub use shadow::{ShadowDefense, ShadowMechanism};
pub use software::{
    binarize_weights, clip_weights, record_max_abs, repair_outliers, SoftwareDefense, SoftwareKind,
};
pub use swap_based::{
    AttackerTracking, RowSwapDefense, RowSwapMechanism, SwapCampaignOutcome, SwapScheme,
};
