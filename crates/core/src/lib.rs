//! # dnn-defender — victim-focused in-DRAM RowHammer defense
//!
//! Reproduction of *DNN-Defender: A Victim-Focused In-DRAM Defense
//! Mechanism for Taming Adversarial Weight Attack on DNNs* (DAC 2024).
//!
//! DNN-Defender protects the DRAM rows that hold the most BFA-vulnerable
//! bits of a quantized DNN by swapping them through a reserved-row region
//! using RowClone — refreshing the victim data and resetting the
//! attacker's aim — with a priority list obtained by running the
//! attacker's own bit search for several skip-set rounds.
//!
//! Module map:
//!
//! * [`defense`] — the [`defense::DefenseMechanism`] trait every
//!   mitigation (DNN-Defender and the `dd-baselines` families) implements,
//!   plus the unified [`defense::DefenseStats`] bookkeeping; priority
//!   protection (§4) is [`defense::DnnDefenderDefense`]'s deployment-time
//!   profiling;
//! * [`mapping`] — the weight→DRAM mapping file (Fig. 4);
//! * [`swap`] — [`swap::four_step_swap`], the four-step RowClone swap
//!   (Algorithm 1, Fig. 5) that keeps a deployed weight map coherent;
//! * [`schedule`] — the pipelined swap timeline (Fig. 6);
//! * [`system`] — [`system::ProtectedSystem`]: model + DRAM + defense,
//!   generic over the installed [`defense::DefenseMechanism`], with the
//!   attacker-vs-defense race played out on the simulator;
//! * [`analysis`] — the §5.1 security / latency formulas (Fig. 8);
//! * [`budget`] — cost model, budget ledgers, and load regimes backing the
//!   `dd-server` matrix-as-a-service layer;
//! * [`overhead`] — the Table 2 hardware-overhead comparison.
//!
//! ## Quickstart
//!
//! ```
//! use dd_nn::init::seeded_rng;
//! use dd_nn::layers::{Flatten, Linear};
//! use dd_nn::model::Network;
//! use dd_qnn::{BitAddr, QModel};
//! use dnn_defender::{DefenseConfig, ProtectedSystem};
//!
//! # fn main() -> Result<(), dd_dram::DramError> {
//! let mut rng = seeded_rng(1);
//! let net = Network::new("m")
//!     .push(Flatten::new())
//!     .push(Linear::kaiming("fc", 16, 4, &mut rng));
//! let model = QModel::from_network(net);
//!
//! // `deploy` installs DNN-Defender; `deploy_with` accepts any
//! // `DefenseMechanism` (a baseline, `Undefended`, or a boxed
//! // `DynDefense`).
//! let mut system = ProtectedSystem::deploy(
//!     model,
//!     dd_dram::DramConfig::lpddr4_small(),
//!     DefenseConfig::default(),
//!     42,
//! )?;
//!
//! // Secure one bit; the RowHammer campaign against it is resisted.
//! let bit = BitAddr { param: 0, index: 0, bit: 7 };
//! system.protect([bit]);
//! let attempt = system.attack_bit(bit)?;
//! assert!(!attempt.landed());
//! assert!(system.stats().invariants_hold());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod analysis;
pub mod budget;
pub mod conformance;
pub mod defense;
pub mod json;
pub mod mapping;
pub mod overhead;
pub mod power;
pub mod schedule;
pub mod stablehash;
pub mod swap;
pub mod system;

pub use analysis::{rh_thresholds, DefenseOp, SecurityModel};
pub use budget::{BudgetAccount, BudgetExhausted, CostModel, Regime};
pub use defense::{
    CampaignView, DefenseConfig, DefenseMechanism, DefenseStats, DnnDefenderDefense, DynDefense,
    FlipAttempt, Undefended,
};
pub use json::{Json, JsonError};
pub use mapping::{BitLocation, RowSlot, WeightMap};
pub use overhead::{overhead_table, CapacityCost, MemKind, OverheadEntry};
pub use power::{power_table, saving_versus, PowerProfile};
pub use schedule::{chain_schedule, parallel_schedule, SwapSchedule};
pub use stablehash::{stable_digest, StableHash, StableHasher};
pub use swap::SwapOutcome;
pub use system::ProtectedSystem;
