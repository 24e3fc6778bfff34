//! # igepa — interaction-aware event-participant arrangement
//!
//! Facade crate for the reproduction of *"Interaction-Aware Arrangement for
//! Event-Based Social Networks"* (Kou, Zhou, Cheng, Du, Shi, Xu — ICDE 2019).
//!
//! The workspace is split into focused crates; this facade re-exports them
//! under stable module names so applications can depend on a single crate:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `igepa-core` | problem model: events, users, conflicts, interest, arrangements, admissible sets |
//! | [`graph`] | `igepa-graph` | social-network substrate and generators, degree of potential interaction |
//! | [`lp`] | `igepa-lp` | LP/ILP substrate: bounded-variable simplex, packing solver, branch & bound |
//! | [`datagen`] | `igepa-datagen` | Table-I synthetic workloads and the Meetup-SF simulator |
//! | [`algos`] | `igepa-algos` | LP-packing (Algorithm 1), GG greedy, Random-U/V, exact ILP, extensions |
//! | [`engine`] | `igepa-engine` | incremental arrangement serving: deltas, warm-start repair, replayable request log |
//! | [`experiments`] | `igepa-experiments` | reproduction harness for every table and figure of the paper |
//!
//! The most common entry points are also re-exported at the crate root.
//!
//! ```
//! use igepa::prelude::*;
//!
//! // Generate a small synthetic workload (Table I model, scaled down)...
//! let config = SyntheticConfig::small();
//! let instance = generate_synthetic(&config, 42);
//!
//! // ...and run the paper's LP-packing algorithm against the greedy baseline.
//! let lp = LpPacking::default().run_seeded(&instance, 1);
//! let gg = GreedyArrangement::default().run_seeded(&instance, 1);
//! assert!(lp.is_feasible(&instance));
//! assert!(gg.is_feasible(&instance));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use igepa_algos as algos;
pub use igepa_core as core;
pub use igepa_datagen as datagen;
pub use igepa_engine as engine;
pub use igepa_experiments as experiments;
pub use igepa_graph as graph;
pub use igepa_lp as lp;

/// Convenience re-exports of the most frequently used items.
pub mod prelude {
    pub use igepa_algos::{
        ArrangementAlgorithm, BottleneckGreedy, ExactIlp, GreedyArrangement, Lagrangian,
        LocalSearch, LpDeterministic, LpPacking, OnlineGreedy, OnlineRanking, Portfolio, RandomU,
        RandomV, SimulatedAnnealing, TabuSearch,
    };
    pub use igepa_core::{
        AdmissibleSetIndex, Arrangement, ArrangementStats, AttributeVector, ConflictMatrix,
        ContentionStats, EventId, Instance, InstanceStats, UserId,
    };
    pub use igepa_datagen::{
        generate_clustered, generate_meetup, generate_synthetic, generate_trace, ClusteredConfig,
        DeltaTrace, MeetupConfig, SyntheticConfig, TraceConfig,
    };
    pub use igepa_engine::{
        EngineConfig, EngineRequest, EngineResponse, ShardedConfig, ShardedEngine,
    };
    pub use igepa_graph::{InteractionMeasure, SocialNetwork};
}
