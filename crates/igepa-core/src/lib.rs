//! # igepa-core — the IGEPA problem model
//!
//! This crate defines the data model of the **Interaction-aware Global
//! Event-Participant Arrangement (IGEPA)** problem from *"Interaction-Aware
//! Arrangement for Event-Based Social Networks"* (Kou et al., ICDE 2019):
//!
//! * [`Event`] and [`User`] with capacities, attribute vectors and bid sets
//!   (Definitions 1–2);
//! * conflict functions and the precomputed [`ConflictMatrix`]
//!   (Definition 3);
//! * feasible [`Arrangement`]s with bid/capacity/conflict checking
//!   (Definition 4) and their [`UtilityBreakdown`] (Definition 7);
//! * interest functions `SI(l_v, l_u)` (Definition 5);
//! * the per-user degree of potential interaction `D(G, u)` (Definition 6),
//!   stored on the [`Instance`] as a validated score vector (computed by the
//!   `igepa-graph` crate);
//! * admissible event sets, the building block of the LP-packing algorithm's
//!   benchmark LP (Section III).
//!
//! The crate deliberately contains **no algorithms and no randomness** — it
//! is the shared vocabulary of the workload generators (`igepa-datagen`),
//! the solvers (`igepa-algos`) and the experiment harness
//! (`igepa-experiments`).
//!
//! ## Quick example
//!
//! ```
//! use igepa_core::{AttributeVector, Instance, ConstantInterest, NeverConflict,
//!                  Arrangement};
//!
//! let mut builder = Instance::builder();
//! let concert = builder.add_event(2, AttributeVector::empty());
//! let lecture = builder.add_event(1, AttributeVector::empty());
//! let alice = builder.add_user(1, AttributeVector::empty(), vec![concert, lecture]);
//! let bob = builder.add_user(1, AttributeVector::empty(), vec![concert]);
//! builder.interaction_scores(vec![1.0, 0.0]);
//! let instance = builder.build(&NeverConflict, &ConstantInterest(0.5)).unwrap();
//!
//! let mut arrangement = Arrangement::empty_for(&instance);
//! arrangement.assign(concert, alice);
//! arrangement.assign(concert, bob);
//! assert!(arrangement.is_feasible(&instance));
//! assert!(arrangement.utility(&instance).total > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admissible;
pub mod arrangement;
pub mod attrs;
pub mod conflict;
pub mod contention;
pub mod csv_io;
pub mod delta;
pub mod error;
pub mod event;
pub mod exact;
pub mod ids;
pub mod instance;
pub mod interest;
pub mod io;
pub mod partition;
pub mod stats;
pub mod travel;
pub mod user;

pub use admissible::{
    count_for_user, enumerate_for_user, AdmissibleSetIndex, UserAdmissibleSets, DEFAULT_SET_LIMIT,
};
pub use arrangement::{Arrangement, ArrangementDiff, UtilityBreakdown, UtilityTracker, Violation};
pub use attrs::{AttributeVector, Location, TimeWindow};
pub use conflict::{
    AlwaysConflict, ConflictFn, ConflictMatrix, NeverConflict, PairSetConflict, TimeOverlapConflict,
};
pub use contention::ContentionStats;
pub use csv_io::{
    arrangement_from_csv, arrangement_to_csv, instance_from_csv, instance_to_csv, CsvError,
};
pub use delta::{CapacityTarget, DeltaEffect, DirtySet, InstanceDelta};
pub use error::CoreError;
pub use event::Event;
pub use exact::ExactSum;
pub use ids::{EventId, UserId};
pub use instance::{Instance, InstanceBuilder};
pub use interest::{ConstantInterest, CosineInterest, InterestFn, JaccardInterest, TableInterest};
pub use io::{
    instance_from_json, instance_to_json, ArrangementSnapshot, InstanceSnapshot, SnapshotError,
};
pub use partition::{
    assign_users, boundary_events, spans_shards, HashPartitioner, LocalityPartitioner,
    PartitionCut, Partitioner,
};
pub use stats::{ArrangementStats, InstanceStats};
pub use travel::{DistanceConflict, TravelTimeConflict};
pub use user::User;
