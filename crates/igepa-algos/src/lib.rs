//! # igepa-algos — arrangement algorithms for IGEPA
//!
//! The paper's contribution and every comparison point of its evaluation:
//!
//! | Algorithm | Paper role | Type |
//! |---|---|---|
//! | [`LpPacking`] | Algorithm 1, the proposed ¼-approximation | randomised, LP-guided |
//! | [`GreedyArrangement`] (GG) | strongest baseline (extension of Greedy-GEACC) | deterministic greedy |
//! | [`RandomU`], [`RandomV`] | randomized baselines from GEACC | randomised |
//! | [`ExactIlp`] | optimal solution on small instances (ratio study) | branch & bound |
//! | [`LocalSearch`], [`OnlineGreedy`] | extensions/ablations beyond the paper | heuristic |
//!
//! All algorithms implement [`ArrangementAlgorithm`] and always return
//! feasible arrangements.
//!
//! ```
//! use igepa_algos::{ArrangementAlgorithm, GreedyArrangement, LpPacking, RandomU};
//! use igepa_datagen::{generate_synthetic, SyntheticConfig};
//!
//! let instance = generate_synthetic(&SyntheticConfig::tiny(), 1);
//! let lp = LpPacking::default().run_seeded(&instance, 1);
//! let gg = GreedyArrangement.run_seeded(&instance, 1);
//! let ru = RandomU.run_seeded(&instance, 1);
//! assert!(lp.is_feasible(&instance));
//! assert!(gg.is_feasible(&instance));
//! assert!(ru.is_feasible(&instance));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bottleneck;
pub mod exact;
pub mod greedy;
pub mod lagrangian;
pub mod local_search;
pub mod lp_deterministic;
pub mod lp_packing;
pub mod online_greedy;
pub mod online_ranking;
pub mod portfolio;
pub mod randomized;
pub mod repair;
pub mod runner;
pub mod simulated_annealing;
pub mod tabu_search;
pub mod warm_start;

pub use bottleneck::BottleneckGreedy;
pub use exact::ExactIlp;
pub use greedy::GreedyArrangement;
pub use lagrangian::Lagrangian;
pub use local_search::LocalSearch;
pub use lp_deterministic::LpDeterministic;
pub use lp_packing::{LpBackend, LpPacking};
pub use online_greedy::OnlineGreedy;
pub use online_ranking::OnlineRanking;
pub use portfolio::Portfolio;
pub use randomized::{RandomU, RandomV};
pub use repair::{patch_region, PatchOps};
pub use runner::{run_and_record, run_repeated, ArrangementAlgorithm, RunRecord};
pub use simulated_annealing::SimulatedAnnealing;
pub use tabu_search::TabuSearch;
pub use warm_start::{
    admit_greedily, admit_greedily_with, can_assign, carry_over_feasible, WarmStart,
};
