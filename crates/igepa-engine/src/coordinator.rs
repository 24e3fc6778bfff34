//! The sharded engine: N independent [`Shard`]s behind one coordinator.
//!
//! ## Partitioned state
//!
//! Users are placed onto shards by a pluggable
//! [`Partitioner`] when they first appear, and
//! stay put until a live resharding pass
//! ([`ShardedEngine::reshard`]) re-places them. Every shard serves a
//! **sub-instance** holding *all* events
//! but only the shard's users; event capacities in a sub-instance are
//! per-shard **quotas** that always sum to the true capacity. Because bid,
//! user-capacity and conflict constraints are per user, each shard's
//! repair loop is independent, and the quota invariant makes the merged
//! arrangement feasible *by construction*: per-event merged load is the
//! sum of shard loads, each bounded by its quota.
//!
//! ## Routing
//!
//! The coordinator validates every delta against a full-capacity **mirror
//! instance** first (so rejection semantics match a bare [`Shard`] over
//! the full instance exactly), then routes it:
//!
//! * user-scoped deltas go to the owning shard with the user id rewritten
//!   to the shard-local dense id;
//! * `AddEvent` is broadcast, splitting the capacity into quotas;
//! * `UpdateCapacity` on an event re-splits the quota, preserving current
//!   shard loads where possible (evictions only when the total shrinks
//!   below the merged load).
//!
//! ## Reconciliation
//!
//! Boundary events — events whose bidders span shards — can strand quota
//! on a shard with no demand while another shard's bidders go unseated.
//! Every [`ShardedConfig::reconcile_interval`] applied deltas (and on
//! explicit [`ShardedEngine::rebalance`]) the coordinator runs the bounded
//! exchange protocol of [`crate::reconcile`], moving slack quota toward
//! unmet demand and re-repairing the shards it touched. When the pass
//! observes persistent load skew it counts a **migration proposal**
//! ([`CoordinatorStats::migration_proposals`]) — quota exchange fixes
//! stranded capacity, but only moving *users* fixes structural skew.
//!
//! ## Elastic resharding
//!
//! [`ShardedEngine::reshard`] changes the shard count **live**:
//! every user's sub-state — interest columns, arrangement slice,
//! per-event quota share, and exact-sum `UtilityTracker` contribution —
//! moves with it. The pass is a pure re-partitioning: each new shard's
//! quota for an event starts at exactly the load its users bring (so no
//! pair is ever evicted) before slack is dealt by bidder counts, and
//! exact-sum absorption makes the merged utility bit-identical before
//! and after. The serving transport runs the pass at a worker barrier,
//! with the durability layer as the transaction seam: WAL-log the
//! `Reshard` request (catalogue-epoch-tagged, so it orders against
//! event broadcasts), checkpoint the pre-migration state, migrate, then
//! checkpoint the post-migration state — a crash on either side of the
//! cut recovers bit-exactly, replaying the logged reshard when needed.
//!
//! With `num_shards == 1` ([`ShardedEngine::single`]) the single shard
//! serves a clone of the full instance, so every apply takes exactly the
//! code path of a bare [`Shard`] over it, bit for bit.

use crate::catalog::{CatalogSnapshot, EventCatalog};
use crate::durability::snapshot::{EngineSnapshotState, ShardRecord, STATE_VERSION};
use crate::protocol::MigrationRecord;
use crate::reconcile::{self, ReconcileReport};
use crate::shard::{
    ApplyOutcome, EngineConfig, EngineStats, RepairKind, Shard, ShardOp, ShardResume,
    SharedConflict, SharedInterest, SharedSolver,
};
use igepa_algos::WarmStart;
use igepa_core::{
    Arrangement, AttributeVector, CapacityTarget, ConflictFn, CoreError, DeltaEffect, Event,
    EventId, Instance, InstanceDelta, InstanceSnapshot, InterestFn, Partitioner, User, UserId,
    UtilityBreakdown, UtilityTracker,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Configuration of the sharded coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedConfig {
    /// Number of shards (1 reproduces a bare [`Shard`] bit for bit).
    pub num_shards: usize,
    /// Per-shard repair-loop knobs; shard `k` solves with base seed
    /// `shard.seed + k` so shards draw decorrelated solver streams.
    pub shard: EngineConfig,
    /// Run a reconciliation pass every this many applied deltas
    /// (0 = only on explicit [`ShardedEngine::rebalance`] calls).
    pub reconcile_interval: u64,
    /// Bounded exchange rounds per reconciliation pass.
    pub reconcile_rounds: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            num_shards: 1,
            shard: EngineConfig::default(),
            reconcile_interval: 64,
            reconcile_rounds: 3,
        }
    }
}

impl ShardedConfig {
    /// A config with `num_shards` shards and defaults everywhere else.
    pub fn with_shards(num_shards: usize) -> Self {
        ShardedConfig {
            num_shards,
            ..ShardedConfig::default()
        }
    }
}

/// Aggregate counters of the coordinator itself (shard counters live in
/// each shard's [`EngineStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoordinatorStats {
    /// Reconciliation passes run (periodic and explicit).
    pub reconcile_passes: u64,
    /// Capacity units moved between shards across all passes.
    pub quota_moved: u64,
    /// Boundary events seen by the most recent pass.
    pub last_boundary_events: usize,
    /// Live resharding passes completed ([`ShardedEngine::reshard`]).
    pub reshards: u64,
    /// Users whose owning shard changed, summed across all reshards.
    pub users_migrated: u64,
    /// Reconcile passes that ended with skewed shard load: the busiest
    /// shard serves at least `2 × least + 8` pairs. Only a count; no
    /// migration plan is built or executed.
    pub migration_proposals: u64,
}

/// Hand-written so stats from an engine that never resharded serialize
/// exactly as they did before the migration counters existed — the
/// version-1/2 checkpoint payloads stay byte-identical. The migration
/// counters are emitted only when nonzero.
impl serde::Serialize for CoordinatorStats {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            (
                "reconcile_passes".to_string(),
                serde::Serialize::to_value(&self.reconcile_passes),
            ),
            (
                "quota_moved".to_string(),
                serde::Serialize::to_value(&self.quota_moved),
            ),
            (
                "last_boundary_events".to_string(),
                serde::Serialize::to_value(&self.last_boundary_events),
            ),
        ];
        if self.reshards != 0 {
            entries.push((
                "reshards".to_string(),
                serde::Serialize::to_value(&self.reshards),
            ));
        }
        if self.users_migrated != 0 {
            entries.push((
                "users_migrated".to_string(),
                serde::Serialize::to_value(&self.users_migrated),
            ));
        }
        if self.migration_proposals != 0 {
            entries.push((
                "migration_proposals".to_string(),
                serde::Serialize::to_value(&self.migration_proposals),
            ));
        }
        serde::Value::Object(entries)
    }
}

/// Hand-written because pre-resharding checkpoints carry no migration
/// counters and the vendored serde derive has no `#[serde(default)]`:
/// missing counters decode as 0.
impl serde::Deserialize for CoordinatorStats {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let entries = serde::expect_object(value, "CoordinatorStats")?;
        let required = |name: &str| serde::object_field(entries, name, "CoordinatorStats");
        let counter = |name: &str| -> Result<u64, serde::DeError> {
            match entries.iter().find(|(k, _)| k == name) {
                Some((_, v)) => serde::Deserialize::from_value(v),
                None => Ok(0),
            }
        };
        Ok(CoordinatorStats {
            reconcile_passes: serde::Deserialize::from_value(required("reconcile_passes")?)?,
            quota_moved: serde::Deserialize::from_value(required("quota_moved")?)?,
            last_boundary_events: serde::Deserialize::from_value(required(
                "last_boundary_events",
            )?)?,
            reshards: counter("reshards")?,
            users_migrated: counter("users_migrated")?,
            migration_proposals: counter("migration_proposals")?,
        })
    }
}

/// Per-shard summary answered to the `ShardStats` query.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStatsEntry {
    /// Shard index.
    pub shard: usize,
    /// Users owned by the shard (including retired ones).
    pub users: usize,
    /// Pairs the shard currently serves.
    pub pairs: usize,
    /// Utility of the shard's slice of the arrangement.
    pub utility: f64,
    /// The shard's repair-loop counters.
    pub stats: EngineStats,
    /// Users migrated *into* this shard by live resharding (0 until a
    /// [`ShardedEngine::reshard`] runs).
    pub moved_in: u64,
    /// Users migrated *out of* this shard by live resharding.
    pub moved_out: u64,
}

/// Hand-written so entries from an engine that never resharded serialize
/// exactly as before the migration counters existed — the golden
/// response logs stay byte-identical. `moved_in` / `moved_out` are
/// emitted only when nonzero.
impl serde::Serialize for ShardStatsEntry {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("shard".to_string(), serde::Serialize::to_value(&self.shard)),
            ("users".to_string(), serde::Serialize::to_value(&self.users)),
            ("pairs".to_string(), serde::Serialize::to_value(&self.pairs)),
            (
                "utility".to_string(),
                serde::Serialize::to_value(&self.utility),
            ),
            ("stats".to_string(), serde::Serialize::to_value(&self.stats)),
        ];
        if self.moved_in != 0 {
            entries.push((
                "moved_in".to_string(),
                serde::Serialize::to_value(&self.moved_in),
            ));
        }
        if self.moved_out != 0 {
            entries.push((
                "moved_out".to_string(),
                serde::Serialize::to_value(&self.moved_out),
            ));
        }
        serde::Value::Object(entries)
    }
}

/// Hand-written because pre-resharding response logs carry no migration
/// counters (the vendored serde derive has no `#[serde(default)]`):
/// missing counters decode as 0.
impl serde::Deserialize for ShardStatsEntry {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let entries = serde::expect_object(value, "ShardStatsEntry")?;
        let required = |name: &str| serde::object_field(entries, name, "ShardStatsEntry");
        let counter = |name: &str| -> Result<u64, serde::DeError> {
            match entries.iter().find(|(k, _)| k == name) {
                Some((_, v)) => serde::Deserialize::from_value(v),
                None => Ok(0),
            }
        };
        Ok(ShardStatsEntry {
            shard: serde::Deserialize::from_value(required("shard")?)?,
            users: serde::Deserialize::from_value(required("users")?)?,
            pairs: serde::Deserialize::from_value(required("pairs")?)?,
            utility: serde::Deserialize::from_value(required("utility")?)?,
            stats: serde::Deserialize::from_value(required("stats")?)?,
            moved_in: counter("moved_in")?,
            moved_out: counter("moved_out")?,
        })
    }
}

/// Interest adapter that copies cached values out of the global instance
/// instead of re-evaluating the interest function (which may be stateful
/// or expensive). `to_global` maps shard-local user ids to global ids.
struct CopiedInterest<'a> {
    global: &'a Instance,
    to_global: &'a [UserId],
}

impl InterestFn for CopiedInterest<'_> {
    fn interest(&self, event: &Event, user: &User) -> f64 {
        self.global
            .interest(event.id, self.to_global[user.id.index()])
    }
}

/// A partitioned arrangement-serving engine. See the module docs.
pub struct ShardedEngine {
    shards: Vec<Shard>,
    /// Shard count, independent of `shards.len()`: the TCP transport's
    /// per-shard dispatcher temporarily detaches the shards into worker
    /// threads, and routing decisions must keep working while they are
    /// out (see [`ShardedEngine::detach_shards`]).
    num_shards: usize,
    /// The shared event catalogue: the single writer of event-side state.
    /// Announcements are published here once (one σ evaluation) and
    /// adopted by the mirror and every shard as `Arc`-shared snapshots,
    /// so resident conflict memory is O(|V|²) independent of shard count.
    catalog: EventCatalog,
    /// Full-capacity global instance, kept in lockstep with the shards.
    mirror: Instance,
    sigma: SharedConflict,
    interest: SharedInterest,
    solver: SharedSolver,
    partitioner: Box<dyn Partitioner + Send>,
    /// Per global user: `(owning shard, shard-local id)`.
    owners: Vec<(usize, UserId)>,
    /// Per shard: shard-local id → global id.
    locals: Vec<Vec<UserId>>,
    config: ShardedConfig,
    /// Cached per-shard utility / pair counts (refreshed on every shard
    /// touch) so apply outcomes report merged totals in O(num_shards).
    shard_utility: Vec<f64>,
    shard_pairs: Vec<usize>,
    /// Rejections caught by mirror validation (shards never see them).
    rejected: u64,
    deltas_since_reconcile: u64,
    /// Events touched by deltas since the last reconciliation pass —
    /// the only places quota can newly strand, so the periodic pass
    /// scans just these instead of the whole catalogue.
    reconcile_candidates: BTreeSet<EventId>,
    coordinator_stats: CoordinatorStats,
    /// Per shard: users migrated `(in, out)` by live resharding. Feeds
    /// the `ShardStats` migration counters; checkpointed so recovered
    /// engines answer identical stats.
    migrations: Vec<(u64, u64)>,
    /// Seed counter of the ad-hoc cold solves run by
    /// [`ShardedEngine::cold_solve_ratio`].
    probe_counter: u64,
}

impl ShardedEngine {
    /// Creates a sharded engine over `instance`.
    ///
    /// `sigma` / `interest` are consulted only for event pairs and bid
    /// pairs introduced by future deltas, exactly as in a bare
    /// [`Shard`] — but routed deltas evaluate them against **shard-local**
    /// user ids (attributes are preserved; ids are remapped), so both
    /// functions must be *id-independent*: pure functions of the event
    /// and user attribute vectors (`NeverConflict`, `TimeOverlapConflict`,
    /// `ConstantInterest`, `CosineInterest`, …). Id- or table-keyed
    /// implementations such as `TableInterest` would cache values for the
    /// wrong rows; if one slips through and a shard rejects a
    /// mirror-validated delta, the engine panics rather than desync.
    /// The solver is shared by all shards (solvers are stateless);
    /// shard `k` seeds it with `config.shard.seed + k`.
    pub fn new(
        instance: Instance,
        sigma: Box<dyn ConflictFn + Send + Sync>,
        interest: Box<dyn InterestFn + Send + Sync>,
        solver: Box<dyn WarmStart + Send + Sync>,
        partitioner: Box<dyn Partitioner + Send>,
        config: ShardedConfig,
    ) -> Self {
        let num_shards = config.num_shards.max(1);
        let sigma: SharedConflict = Arc::from(sigma);
        let interest: SharedInterest = Arc::from(interest);
        let solver: SharedSolver = Arc::from(solver);

        // Place every existing user.
        let assignment = igepa_core::assign_users(&instance, partitioner.as_ref(), num_shards);
        let mut locals: Vec<Vec<UserId>> = vec![Vec::new(); num_shards];
        let mut owners = Vec::with_capacity(instance.num_users());
        for (u, &k) in assignment.iter().enumerate() {
            owners.push((k, UserId::new(locals[k].len())));
            locals[k].push(UserId::new(u));
        }

        // Split every event's capacity into per-shard quotas, proportional
        // to each shard's bidder count (even when nobody bids yet).
        let quotas: Vec<Vec<usize>> = instance
            .events()
            .iter()
            .map(|event| {
                let mut bidders = vec![0usize; num_shards];
                for &u in &event.bidders {
                    bidders[assignment[u.index()]] += 1;
                }
                proportional_split(event.capacity, &bidders)
            })
            .collect();

        // The catalogue starts by sharing the instance's matrix
        // allocation; sub-instances adopt the same handle below, so the
        // O(|V|²) table exists once across mirror + catalogue + shards.
        let catalog = EventCatalog::from_instance(&instance);

        let mut shards = Vec::with_capacity(num_shards);
        for k in 0..num_shards {
            let sub_instance = if num_shards == 1 {
                // Bit-for-bit path: the single shard serves the instance
                // itself, exactly as a bare shard over it would.
                instance.clone()
            } else {
                build_sub_instance(&instance, &locals[k], |v| quotas[v.index()][k])
            };
            let shard_config = EngineConfig {
                seed: config.shard.seed.wrapping_add(k as u64),
                ..config.shard.clone()
            };
            shards.push(Shard::new(
                sub_instance,
                Arc::clone(&sigma),
                Arc::clone(&interest),
                Arc::clone(&solver),
                shard_config,
            ));
        }

        let shard_utility = shards.iter().map(Shard::utility).collect();
        let shard_pairs = shards.iter().map(|s| s.arrangement().len()).collect();
        ShardedEngine {
            shards,
            num_shards,
            catalog,
            mirror: instance,
            sigma,
            interest,
            solver,
            partitioner,
            owners,
            locals,
            config,
            shard_utility,
            shard_pairs,
            rejected: 0,
            deltas_since_reconcile: 0,
            reconcile_candidates: BTreeSet::new(),
            coordinator_stats: CoordinatorStats::default(),
            migrations: vec![(0, 0); num_shards],
            probe_counter: 0,
        }
    }

    /// Creates a one-shard engine over `instance`: the single shard serves
    /// the full instance itself, so applies, repairs and responses are
    /// exactly those of a bare [`Shard`] over it. Resharding later places
    /// users with a [`HashPartitioner`](igepa_core::HashPartitioner).
    pub fn single(
        instance: Instance,
        sigma: Box<dyn ConflictFn + Send + Sync>,
        interest: Box<dyn InterestFn + Send + Sync>,
        solver: Box<dyn WarmStart + Send + Sync>,
        config: EngineConfig,
    ) -> Self {
        ShardedEngine::new(
            instance,
            sigma,
            interest,
            solver,
            Box::new(igepa_core::HashPartitioner),
            ShardedConfig {
                num_shards: 1,
                shard: config,
                ..ShardedConfig::default()
            },
        )
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The full-capacity global instance (kept in lockstep with shards).
    pub fn instance(&self) -> &Instance {
        &self.mirror
    }

    /// One shard, for inspection.
    pub fn shard(&self, k: usize) -> &Shard {
        &self.shards[k]
    }

    /// The coordinator's configuration.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// Owning shard of a global user id, if the user exists.
    pub fn shard_of(&self, user: UserId) -> Option<usize> {
        self.owners.get(user.index()).map(|&(k, _)| k)
    }

    /// Coordinator-level counters (reconciliation activity).
    pub fn coordinator_stats(&self) -> &CoordinatorStats {
        &self.coordinator_stats
    }

    /// The shared event catalogue (epoch, true capacities, shared
    /// conflict matrix).
    pub fn catalog(&self) -> &EventCatalog {
        &self.catalog
    }

    /// Aggregated repair-loop counters across shards, plus the rejections
    /// caught by mirror validation. With one shard this equals the stats
    /// of a bare [`Shard`] over the full instance.
    pub fn stats(&self) -> EngineStats {
        // Seed the fold from the first shard (not `default()`) so a
        // single shard's counters — including a *negative* observed
        // drift, which `merged`'s max would clobber with 0.0 — pass
        // through unchanged. A shardless engine cannot be constructed,
        // but `unwrap_or_default` keeps this read path panic-free.
        let mut total = self
            .shards
            .iter()
            .map(|shard| *shard.stats())
            .reduce(|a, b| a.merged(&b))
            .unwrap_or_default();
        total.deltas_rejected += self.rejected;
        total
    }

    /// Total utility currently served (sum of shard utilities).
    pub fn utility(&self) -> f64 {
        // lint:allow(no-raw-float-accum): shard-order-fixed fold of per-shard exact totals; shard count and order are deterministic, so replay and recovery reproduce this sum bit for bit
        self.shard_utility.iter().sum()
    }

    /// Total pairs currently served.
    pub fn num_pairs(&self) -> usize {
        self.shard_pairs.iter().sum()
    }

    /// The merged arrangement over the global instance: every shard's
    /// assignments with local user ids mapped back to global ids. Always
    /// feasible for [`ShardedEngine::instance`] (the quota invariant).
    pub fn merged_arrangement(&self) -> Arrangement {
        let mut merged = Arrangement::new(self.mirror.num_events(), self.mirror.num_users());
        for (k, shard) in self.shards.iter().enumerate() {
            for (local, &global) in self.locals[k].iter().enumerate() {
                for &v in shard.arrangement().events_of(UserId::new(local)) {
                    merged.assign(v, global);
                }
            }
        }
        merged
    }

    /// Utility breakdown of the merged arrangement, computed by absorbing
    /// the per-shard exact accumulators into one tracker — O(num_shards),
    /// no pair iteration — and then rounding once. Exact sums are
    /// order-independent, so the result is bit-identical to a
    /// from-scratch [`Arrangement::utility`] recompute over the merged
    /// arrangement (summing the shards' already-rounded totals instead
    /// can drift by an ulp per shard).
    pub fn merged_utility(&self) -> UtilityBreakdown {
        let mut merged = UtilityTracker::new();
        for shard in &self.shards {
            merged.absorb(shard.tracker());
        }
        merged.breakdown(self.mirror.beta())
    }

    /// Runs one cold solve of the full instance with the shared solver and
    /// reports `served / cold` (1.0 when the cold solve is empty). The
    /// unpartitioned quality yardstick; does not modify the served state.
    pub fn cold_solve_ratio(&mut self) -> f64 {
        let seed = self.config.shard.seed.wrapping_add(self.probe_counter);
        self.probe_counter += 1;
        let cold = self.solver.run_seeded(&self.mirror, seed);
        let cold_utility = cold.utility_value(&self.mirror);
        if cold_utility <= 0.0 {
            return 1.0;
        }
        self.merged_utility().total / cold_utility
    }

    /// Applies one delta: validate on the mirror, route to the owning
    /// shard(s), repair, and reconcile when the interval elapsed.
    ///
    /// Event announcements take the catalogue path instead: one
    /// coordinator-side publish (σ evaluated once), then every shard
    /// adopts the new snapshot in O(1) — the pre-catalogue cost of k+1
    /// full σ scans per broadcast is gone.
    pub fn apply(&mut self, delta: &InstanceDelta) -> Result<ApplyOutcome, CoreError> {
        if let InstanceDelta::AddEvent { capacity, attrs } = delta {
            let (snapshot, effect) = self.publish_add_event(*capacity, attrs);
            self.note_candidates(&effect);
            let split = proportional_split(*capacity, &vec![0usize; self.num_shards]);
            let mut worst = RepairKind::Untouched;
            for k in 0..self.num_shards {
                let outcome = self.shards[k].apply_announcement(&snapshot, split[k]);
                if outcome.repair.severity() > worst.severity() {
                    worst = outcome.repair;
                }
                self.refresh(k, &outcome);
            }
            let outcome = ApplyOutcome {
                kind: delta.kind().to_string(),
                repair: worst,
                utility: self.utility(),
                num_pairs: self.num_pairs(),
            };
            self.after_deltas(1);
            return Ok(outcome);
        }
        let effect =
            match self
                .mirror
                .apply_delta(delta, self.sigma.as_ref(), self.interest.as_ref())
            {
                Ok(effect) => effect,
                Err(e) => {
                    self.rejected += 1;
                    return Err(e);
                }
            };
        self.note_candidates(&effect);
        let repair = self.route(delta, effect.created_user);
        let outcome = ApplyOutcome {
            kind: delta.kind().to_string(),
            repair,
            utility: self.utility(),
            num_pairs: self.num_pairs(),
        };
        self.after_deltas(1);
        Ok(outcome)
    }

    /// Publishes one `AddEvent` to the catalogue and brings the mirror
    /// into lockstep by adopting the published matrix (σ evaluated
    /// exactly once, inside the publish). Infallible, like `AddEvent`
    /// validation on a bare [`Shard`].
    fn publish_add_event(
        &mut self,
        capacity: usize,
        attrs: &AttributeVector,
    ) -> (Arc<CatalogSnapshot>, DeltaEffect) {
        let snapshot = self
            .catalog
            .publish_event(capacity, attrs.clone(), self.sigma.as_ref());
        let effect = self
            .mirror
            .apply_add_event_shared(capacity, attrs.clone(), snapshot.conflicts_handle())
            // lint:allow(no-panic-in-server-paths): the mirror is rebuilt from the same catalogue this publish just extended; a disagreement means mirror/catalogue desync, which no response could paper over
            .expect("mirror tracks the catalogue");
        (snapshot, effect)
    }

    /// Applies a batch with one repair pass per touched shard. Semantics
    /// match [`Shard::apply_batch`]: the prefix before the first invalid
    /// delta stays applied (and repaired) and the error is returned.
    pub fn apply_batch(&mut self, deltas: &[InstanceDelta]) -> Result<ApplyOutcome, CoreError> {
        let num_shards = self.num_shards;
        let mut per_shard: Vec<Vec<ShardOp>> = vec![Vec::new(); num_shards];
        let mut first_error = None;
        let mut accepted = 0u64;

        for delta in deltas {
            // Announcements go through the catalogue: publish once,
            // enqueue an O(1) adopt op for every shard (ordering within
            // the burst is preserved, so later deltas may reference the
            // new event).
            if let InstanceDelta::AddEvent { capacity, attrs } = delta {
                let (snapshot, effect) = self.publish_add_event(*capacity, attrs);
                accepted += 1;
                self.note_candidates(&effect);
                let split = proportional_split(*capacity, &vec![0usize; num_shards]);
                for (k, ops) in per_shard.iter_mut().enumerate() {
                    ops.push(ShardOp::Announce {
                        snapshot: Arc::clone(&snapshot),
                        quota: split[k],
                    });
                }
                continue;
            }
            let effect =
                match self
                    .mirror
                    .apply_delta(delta, self.sigma.as_ref(), self.interest.as_ref())
                {
                    Ok(effect) => effect,
                    Err(e) => {
                        self.rejected += 1;
                        first_error = Some(e);
                        break;
                    }
                };
            accepted += 1;
            self.note_candidates(&effect);
            self.plan(delta, effect.created_user, &mut per_shard);
        }

        let mut worst = RepairKind::Untouched;
        for k in 0..num_shards {
            // A single shard always receives the batch (even an empty
            // one) so the bare shard's repair-once path is reproduced.
            if per_shard[k].is_empty() && num_shards > 1 {
                continue;
            }
            let outcome = self.shards[k].apply_ops(&per_shard[k]).unwrap_or_else(|e| {
                // lint:allow(no-panic-in-server-paths): documented contract — the mirror validated this batch, so a shard rejection means the caller's conflict/interest functions are id-dependent; continuing would silently desync mirror and shards
                panic!(
                    "shard {k} rejected a mirror-validated batch ({e});                      ShardedEngine requires attribute-based (id-independent)                      conflict and interest functions"
                )
            });
            if outcome.repair.severity() > worst.severity() {
                worst = outcome.repair;
            }
            self.refresh(k, &outcome);
        }
        self.after_deltas(accepted);
        if let Some(e) = first_error {
            return Err(e);
        }
        Ok(ApplyOutcome {
            kind: "batch".to_string(),
            repair: worst,
            utility: self.utility(),
            num_pairs: self.num_pairs(),
        })
    }

    /// Runs an explicit full reconciliation pass (every event examined)
    /// and reports what moved.
    pub fn rebalance(&mut self) -> ReconcileReport {
        self.reconcile_now(true)
    }

    /// Live resharding: re-places every user with the partitioner at
    /// `new_shards` shards and rebuilds the engine around the new
    /// layout, moving each migrating user's complete sub-state —
    /// interest columns, arrangement slice, per-event quota share, and
    /// exact-sum tracker contribution — to its new owner.
    ///
    /// The pass is a pure re-partitioning of served state, never a
    /// re-solve: every `(event, user)` pair is preserved (each new
    /// shard's quota for an event starts at exactly the load its users
    /// bring before slack is dealt by bidder counts), so the merged
    /// arrangement is identical pair for pair, stays feasible by the
    /// quota invariant, and the merged utility is bit-identical by
    /// exact-sum partition independence. Deterministic for a
    /// deterministic partitioner, which is what makes a WAL-logged
    /// `Reshard` replay to the identical engine during recovery.
    ///
    /// Must run at a barrier (shards attached and quiescent). Shard
    /// counts may grow or shrink; `new_shards == num_shards` re-places
    /// users without changing the count. Errors only on a zero target;
    /// the engine is untouched on error.
    pub fn reshard(&mut self, new_shards: usize) -> Result<MigrationRecord, String> {
        debug_assert_eq!(self.shards.len(), self.num_shards, "barrier first");
        debug_assert!(
            self.shards.iter().all(Shard::is_quiescent),
            "reshard must observe a quiescent engine"
        );
        if new_shards == 0 {
            return Err("cannot reshard to zero shards".to_string());
        }
        let old_shards = self.num_shards;
        let num_events = self.mirror.num_events();

        // New placement for every user, visited in global id order —
        // exactly how registration consults the partitioner. Retired
        // users move with their slot (they carry no pairs or bids).
        let mut new_locals: Vec<Vec<UserId>> = vec![Vec::new(); new_shards];
        let mut new_owners = Vec::with_capacity(self.owners.len());
        let mut moved_users = 0u64;
        let mut moved_in = vec![0u64; new_shards];
        let mut moved_out = vec![0u64; old_shards];
        for u in 0..self.owners.len() {
            let global = UserId::new(u);
            let bids = &self.mirror.user(global).bids;
            let k = self
                .partitioner
                .shard_for(global, bids, new_shards)
                .min(new_shards - 1);
            if k != self.owners[u].0 {
                moved_users += 1;
                moved_in[k] += 1;
                moved_out[self.owners[u].0] += 1;
            }
            new_owners.push((k, UserId::new(new_locals[k].len())));
            new_locals[k].push(global);
        }

        // Per-event per-new-shard loads under the new placement: the
        // floor of each new quota, so no shard ever needs to evict.
        let mut new_loads: Vec<Vec<usize>> = vec![vec![0; new_shards]; num_events];
        for (k, shard) in self.shards.iter().enumerate() {
            for (local, &global) in self.locals[k].iter().enumerate() {
                let j = new_owners[global.index()].0;
                for &v in shard.arrangement().events_of(UserId::new(local)) {
                    new_loads[v.index()][j] += 1;
                }
            }
        }
        let new_quotas: Vec<Vec<usize>> = (0..num_events)
            .map(|v| {
                let event = EventId::new(v);
                let capacity = self.mirror.event(event).capacity;
                let loads = &new_loads[v];
                let total_load: usize = loads.iter().sum();
                debug_assert!(capacity >= total_load, "merged arrangement was feasible");
                let mut bidders = vec![0usize; new_shards];
                for &u in &self.mirror.event(event).bidders {
                    bidders[new_owners[u.index()].0] += 1;
                }
                let slack = proportional_split(capacity - total_load, &bidders);
                loads.iter().zip(slack).map(|(&l, s)| l + s).collect()
            })
            .collect();

        // Quota units leaving their old shard (the migration's quota
        // movement, mirroring ReconcileReport::quota_moved).
        let mut quota_moved = 0u64;
        for v in 0..num_events {
            let event = EventId::new(v);
            for k in 0..old_shards {
                let old_q = self.shards[k].quota_of(event);
                let new_q = if k < new_shards { new_quotas[v][k] } else { 0 };
                quota_moved += old_q.saturating_sub(new_q) as u64;
            }
        }

        // Re-index every shard-local arrangement slice to the new
        // owners: pair-for-pair transfer, per-user event order kept.
        let mut new_arrangements: Vec<Arrangement> = new_locals
            .iter()
            .map(|locals| Arrangement::new(num_events, locals.len()))
            .collect();
        for (j, locals) in new_locals.iter().enumerate() {
            for (new_local, &global) in locals.iter().enumerate() {
                let (k, old_local) = self.owners[global.index()];
                for &v in self.shards[k].arrangement().events_of(old_local) {
                    new_arrangements[j].assign(v, UserId::new(new_local));
                }
            }
        }

        // Counters transfer by shard slot: surviving slots keep their
        // history, retired slots fold into slot 0 (exactly how the
        // engine-level aggregate folds), grown slots start fresh.
        let mut new_stats: Vec<EngineStats> = (0..new_shards)
            .map(|j| {
                if j < old_shards {
                    *self.shards[j].stats()
                } else {
                    EngineStats::default()
                }
            })
            .collect();
        for k in new_shards..old_shards {
            new_stats[0] = new_stats[0].merged(self.shards[k].stats());
        }
        let mut new_migrations: Vec<(u64, u64)> = (0..new_shards)
            .map(|j| {
                if j < old_shards {
                    self.migrations[j]
                } else {
                    (0, 0)
                }
            })
            .collect();
        for k in new_shards..old_shards {
            new_migrations[0].0 += self.migrations[k].0;
            new_migrations[0].1 += self.migrations[k].1;
        }
        for (j, &m) in moved_in.iter().enumerate() {
            new_migrations[j].0 += m;
        }
        for (k, &m) in moved_out.iter().enumerate() {
            let slot = if k < new_shards { k } else { 0 };
            new_migrations[slot].1 += m;
        }

        let catalog_epoch = self.catalog.epoch();
        let mut rebuilt = Vec::with_capacity(new_shards);
        for (j, arrangement) in new_arrangements.into_iter().enumerate() {
            let sub_instance = if new_shards == 1 {
                // The one-shard bit-for-bit path of `new` / `restore`.
                self.mirror.clone()
            } else {
                build_sub_instance(&self.mirror, &new_locals[j], |v| new_quotas[v.index()][j])
            };
            let shard_config = EngineConfig {
                seed: self.config.shard.seed.wrapping_add(j as u64),
                ..self.config.shard.clone()
            };
            let (solve_counter, last_staleness_check) = if j < old_shards {
                (
                    self.shards[j].solve_counter(),
                    self.shards[j].last_staleness_check(),
                )
            } else {
                (0, 0)
            };
            rebuilt.push(Shard::restore(
                ShardResume {
                    instance: sub_instance,
                    arrangement,
                    stats: new_stats[j],
                    solve_counter,
                    last_staleness_check,
                    catalog_epoch,
                },
                Arc::clone(&self.sigma),
                Arc::clone(&self.interest),
                Arc::clone(&self.solver),
                shard_config,
            ));
        }

        self.shards = rebuilt;
        self.num_shards = new_shards;
        self.config.num_shards = new_shards;
        self.owners = new_owners;
        self.locals = new_locals;
        self.migrations = new_migrations;
        self.shard_utility = self.shards.iter().map(Shard::utility).collect();
        self.shard_pairs = self.shards.iter().map(|s| s.arrangement().len()).collect();
        self.coordinator_stats.reshards += 1;
        self.coordinator_stats.users_migrated += moved_users;
        Ok(MigrationRecord {
            from_shards: old_shards,
            to_shards: new_shards,
            moved_users,
            quota_moved,
            catalog_epoch,
        })
    }

    /// Whether shard load is skewed enough to count a migration
    /// proposal: the busiest shard serves at least `2 × least + 8`
    /// pairs. O(shards); the `+ 8` floor keeps near-empty engines quiet.
    fn load_is_skewed(&self) -> bool {
        if self.num_shards <= 1 || self.shards.len() != self.num_shards {
            return false;
        }
        let heavy = self.shard_pairs.iter().copied().max().unwrap_or(0);
        let light = self.shard_pairs.iter().copied().min().unwrap_or(0);
        heavy >= 2 * light + 8
    }

    /// Applies a shard-local delta, turning a rejection into a loud
    /// invariant panic: the mirror already validated the delta, so a
    /// shard can only disagree when the caller's σ/interest functions
    /// violate the id-independence contract of [`ShardedEngine::new`] —
    /// continuing would silently desync the mirror from the shards.
    fn shard_apply(&mut self, k: usize, delta: &InstanceDelta) -> ApplyOutcome {
        let outcome = self.shards[k].apply(delta).unwrap_or_else(|e| {
            // lint:allow(no-panic-in-server-paths): documented contract (see the doc comment above) — a mirror-validated delta failing on its shard means id-dependent σ/interest functions; continuing would silently desync the mirror
            panic!(
                "shard {k} rejected a mirror-validated delta ({e});                  ShardedEngine requires attribute-based (id-independent)                  conflict and interest functions"
            )
        });
        self.refresh(k, &outcome);
        outcome
    }

    /// Maps a mirror-validated *user-scoped* delta (including `AddUser`,
    /// which registers the new user) to its owning shard and the
    /// shard-local delta. The single source of user routing, shared by
    /// [`ShardedEngine::route`], batch planning, and the TCP transport's
    /// per-shard dispatcher.
    fn user_route(
        &mut self,
        delta: &InstanceDelta,
        created_user: Option<UserId>,
    ) -> (usize, InstanceDelta) {
        match delta {
            InstanceDelta::AddUser { .. } => {
                // lint:allow(no-panic-in-server-paths): the mirror's DeltaEffect always carries the created id for AddUser; its absence is a dispatch bug in this file, not a client-recoverable state
                let k = self.register_new_user(created_user.expect("AddUser creates a user"));
                (k, delta.clone())
            }
            _ => self.rewrite_owner(delta),
        }
    }

    /// Validates a user-scoped delta on the mirror and routes it, without
    /// touching any shard: the per-shard worker dispatcher's fast path
    /// (the owning worker applies the returned shard-local delta).
    pub(crate) fn plan_user_delta(
        &mut self,
        delta: &InstanceDelta,
    ) -> Result<(usize, InstanceDelta), CoreError> {
        debug_assert!(
            !matches!(
                delta,
                InstanceDelta::AddEvent { .. }
                    | InstanceDelta::UpdateCapacity {
                        target: CapacityTarget::Event(_),
                        ..
                    }
            ),
            "event-scoped deltas broadcast to every shard and must barrier"
        );
        let effect =
            match self
                .mirror
                .apply_delta(delta, self.sigma.as_ref(), self.interest.as_ref())
            {
                Ok(effect) => effect,
                Err(e) => {
                    self.rejected += 1;
                    return Err(e);
                }
            };
        self.note_candidates(&effect);
        Ok(self.user_route(delta, effect.created_user))
    }

    /// Routes one mirror-validated delta and returns the worst repair the
    /// shards ran for it. `AddEvent` never reaches here — it takes the
    /// catalogue publish path in [`ShardedEngine::apply`].
    fn route(&mut self, delta: &InstanceDelta, created_user: Option<UserId>) -> RepairKind {
        let num_shards = self.num_shards;
        match delta {
            InstanceDelta::AddUser { .. } => {
                let (k, local) = self.user_route(delta, created_user);
                self.shard_apply(k, &local).repair
            }
            InstanceDelta::AddEvent { .. } => {
                // lint:allow(no-panic-in-server-paths): ShardedEngine::apply intercepts AddEvent before routing; reaching this arm is a dispatch bug in this file, with no request-scoped recovery
                unreachable!("AddEvent publishes through the catalogue")
            }
            InstanceDelta::UpdateCapacity {
                target: CapacityTarget::Event(event),
                capacity,
            } => {
                self.catalog.set_capacity(*event, *capacity);
                let quotas = self.resplit_event(*event, *capacity);
                let mut worst = RepairKind::Untouched;
                for k in 0..num_shards {
                    let outcome = self.shard_apply(
                        k,
                        &InstanceDelta::UpdateCapacity {
                            target: CapacityTarget::Event(*event),
                            capacity: quotas[k],
                        },
                    );
                    if outcome.repair.severity() > worst.severity() {
                        worst = outcome.repair;
                    }
                }
                worst
            }
            _ => {
                let (k, local) = self.user_route(delta, created_user);
                self.shard_apply(k, &local).repair
            }
        }
    }

    /// Batch planning: registers new users, splits broadcast capacities
    /// and pushes the shard-local op(s) onto `per_shard`. `AddEvent` is
    /// handled by the catalogue publish in [`ShardedEngine::apply_batch`].
    fn plan(
        &mut self,
        delta: &InstanceDelta,
        created_user: Option<UserId>,
        per_shard: &mut [Vec<ShardOp>],
    ) {
        match delta {
            InstanceDelta::AddUser { .. } => {
                let (k, local) = self.user_route(delta, created_user);
                per_shard[k].push(ShardOp::Delta(local));
            }
            InstanceDelta::AddEvent { .. } => {
                // lint:allow(no-panic-in-server-paths): apply_batch publishes AddEvent through the catalogue before planning; reaching this arm is a dispatch bug in this file, with no request-scoped recovery
                unreachable!("AddEvent publishes through the catalogue")
            }
            InstanceDelta::UpdateCapacity {
                target: CapacityTarget::Event(event),
                capacity,
            } => {
                self.catalog.set_capacity(*event, *capacity);
                let quotas = self.resplit_event(*event, *capacity);
                for (k, batch) in per_shard.iter_mut().enumerate() {
                    batch.push(ShardOp::Delta(InstanceDelta::UpdateCapacity {
                        target: CapacityTarget::Event(*event),
                        capacity: quotas[k],
                    }));
                }
            }
            _ => {
                let (k, local) = self.user_route(delta, created_user);
                per_shard[k].push(ShardOp::Delta(local));
            }
        }
    }

    /// Assigns a freshly created global user to a shard and records the
    /// global → (shard, local) mapping. Returns the shard.
    fn register_new_user(&mut self, global: UserId) -> usize {
        let bids = &self.mirror.user(global).bids;
        let k = self
            .partitioner
            .shard_for(global, bids, self.num_shards)
            .min(self.num_shards - 1);
        self.owners.push((k, UserId::new(self.locals[k].len())));
        self.locals[k].push(global);
        k
    }

    /// Rewrites a user-scoped delta to the owning shard's local id.
    fn rewrite_owner(&self, delta: &InstanceDelta) -> (usize, InstanceDelta) {
        let global = match delta {
            InstanceDelta::RemoveUser { user }
            | InstanceDelta::UpdateBids { user, .. }
            | InstanceDelta::UpdateInteractionScore { user, .. }
            | InstanceDelta::UpdateCapacity {
                target: CapacityTarget::User(user),
                ..
            } => *user,
            // lint:allow(no-panic-in-server-paths): route/plan only call rewrite_owner for the four user-scoped kinds matched above; any other kind here is a dispatch bug in this file
            _ => unreachable!("route/plan dispatch covers the other kinds"),
        };
        let (k, local) = self.owners[global.index()];
        let rewritten = match delta {
            InstanceDelta::RemoveUser { .. } => InstanceDelta::RemoveUser { user: local },
            InstanceDelta::UpdateBids { bids, .. } => InstanceDelta::UpdateBids {
                user: local,
                bids: bids.clone(),
            },
            InstanceDelta::UpdateInteractionScore { score, .. } => {
                InstanceDelta::UpdateInteractionScore {
                    user: local,
                    score: *score,
                }
            }
            InstanceDelta::UpdateCapacity { capacity, .. } => InstanceDelta::UpdateCapacity {
                target: CapacityTarget::User(local),
                capacity: *capacity,
            },
            // lint:allow(no-panic-in-server-paths): the match above already proved this delta is one of the four user-scoped kinds; this arm only exists to satisfy exhaustiveness
            _ => unreachable!(),
        };
        (k, rewritten)
    }

    /// Re-splits an event's (possibly changed) total capacity into quotas,
    /// preserving each shard's current load when the total allows it;
    /// slack is dealt proportionally to bidder counts. When the total
    /// shrinks below the merged load, loads are cut proportionally (the
    /// shards evict through their normal repair path).
    fn resplit_event(&self, event: EventId, capacity: usize) -> Vec<usize> {
        debug_assert!(
            !self.shards.is_empty(),
            "event capacity changes need the shard loads; barrier first"
        );
        let num_shards = self.num_shards;
        let loads: Vec<usize> = self
            .shards
            .iter()
            .map(|s| {
                if event.index() < s.arrangement().num_events() {
                    s.load_of(event)
                } else {
                    0
                }
            })
            .collect();
        let total_load: usize = loads.iter().sum();
        if capacity >= total_load {
            let mut bidders = vec![0usize; num_shards];
            if event.index() < self.mirror.num_events() {
                for &u in &self.mirror.event(event).bidders {
                    bidders[self.owners[u.index()].0] += 1;
                }
            }
            let slack = proportional_split(capacity - total_load, &bidders);
            loads.iter().zip(slack).map(|(&l, s)| l + s).collect()
        } else {
            proportional_split(capacity, &loads)
        }
    }

    /// Updates the cached utility / pair count of a shard from its latest
    /// apply outcome.
    fn refresh(&mut self, k: usize, outcome: &ApplyOutcome) {
        self.shard_utility[k] = outcome.utility;
        self.shard_pairs[k] = outcome.num_pairs;
    }

    /// Reconciliation bookkeeping after `accepted` applied deltas.
    fn after_deltas(&mut self, accepted: u64) {
        self.note_applied(accepted);
        if self.periodic_reconcile_pending() {
            self.run_pending_reconcile();
        }
    }

    /// Counts applied deltas toward the periodic reconcile interval. The
    /// per-shard worker dispatcher calls this from its completion handler
    /// (where `after_deltas` would run on the serial path).
    pub(crate) fn note_applied(&mut self, accepted: u64) {
        self.deltas_since_reconcile += accepted;
    }

    /// Whether the periodic reconcile interval has elapsed. The dispatcher
    /// checks this after every completion and barriers the workers before
    /// calling [`ShardedEngine::run_pending_reconcile`].
    pub(crate) fn periodic_reconcile_pending(&self) -> bool {
        self.num_shards > 1
            && self.config.reconcile_interval > 0
            && self.deltas_since_reconcile >= self.config.reconcile_interval
    }

    /// Runs the due periodic reconcile pass (shards must be attached).
    pub(crate) fn run_pending_reconcile(&mut self) {
        self.deltas_since_reconcile = 0;
        self.reconcile_now(false);
    }

    /// Updates the cached utility / pair count for a shard whose apply ran
    /// on a worker thread (the dispatcher's analogue of `refresh`).
    pub(crate) fn note_outcome(&mut self, k: usize, outcome: &ApplyOutcome) {
        self.refresh(k, outcome);
    }

    /// Rejections caught by mirror validation (shards never see them);
    /// the transport's query cache folds this into cached stats exactly
    /// as [`ShardedEngine::stats`] and the shard-stats entries do.
    pub(crate) fn rejected_count(&self) -> u64 {
        self.rejected
    }

    /// The global-user → `(shard, shard-local id)` table. The transport's
    /// query cache mirrors it (append-only between barriers) so
    /// connection threads can route per-entity reads without entering the
    /// dispatch queue.
    pub(crate) fn owners(&self) -> &[(usize, UserId)] {
        &self.owners
    }

    /// Per-shard `(moved in, moved out)` live-migration counters, in
    /// shard order. The transport's query cache mirrors them (they only
    /// change at barrier-executed reshards, which refresh the whole
    /// cache) so cached `ShardStats` answers stay bit-identical to the
    /// in-process service's.
    pub(crate) fn shard_migrations(&self) -> &[(u64, u64)] {
        &self.migrations
    }

    /// Moves the shards out of the coordinator so per-shard worker
    /// threads can own them. While detached, only mirror-side routing
    /// ([`ShardedEngine::plan_user_delta`]) and the cached aggregates
    /// (`utility`, `num_pairs`) keep working; anything that reads shard
    /// state must [`ShardedEngine::attach_shards`] first.
    pub(crate) fn detach_shards(&mut self) -> Vec<Shard> {
        debug_assert_eq!(self.shards.len(), self.num_shards, "shards already out");
        std::mem::take(&mut self.shards)
    }

    /// Puts the shards back after a worker barrier, in shard order.
    pub(crate) fn attach_shards(&mut self, shards: Vec<Shard>) {
        debug_assert!(self.shards.is_empty(), "shards already attached");
        debug_assert_eq!(shards.len(), self.num_shards);
        self.shards = shards;
    }

    /// Records where a delta may have stranded quota: the events it
    /// dirtied plus every bid of the users it dirtied (a user-capacity
    /// change shifts demand at all of their events).
    fn note_candidates(&mut self, effect: &igepa_core::DeltaEffect) {
        if self.num_shards <= 1 {
            return;
        }
        self.reconcile_candidates
            .extend(effect.dirty_events.iter().copied());
        if let Some(event) = effect.created_event {
            self.reconcile_candidates.insert(event);
        }
        for &user in &effect.dirty_users {
            if user.index() < self.mirror.num_users() {
                self.reconcile_candidates
                    .extend(self.mirror.user(user).bids.iter().copied());
            }
        }
    }

    fn reconcile_now(&mut self, full: bool) -> ReconcileReport {
        let events: Vec<EventId> = if full {
            self.mirror.events().iter().map(|e| e.id).collect()
        } else {
            self.reconcile_candidates.iter().copied().collect()
        };
        self.reconcile_candidates.clear();
        let report = reconcile::run(
            &mut self.shards,
            &self.mirror,
            &self.owners,
            &events,
            self.config.reconcile_rounds,
        );
        self.coordinator_stats.reconcile_passes += 1;
        self.coordinator_stats.quota_moved += report.quota_moved as u64;
        self.coordinator_stats.last_boundary_events = report.boundary_events;
        if report.quota_moved > 0 {
            for (k, shard) in self.shards.iter().enumerate() {
                self.shard_utility[k] = shard.utility();
                self.shard_pairs[k] = shard.arrangement().len();
            }
        }
        // Quota exchange cannot fix structural skew — only moving users
        // can. When the post-pass load remains skewed, count a migration
        // proposal.
        if self.load_is_skewed() {
            self.coordinator_stats.migration_proposals += 1;
        }
        report
    }

    /// Events currently assigned to a global user (empty for unknown
    /// ids), read from the owning shard.
    pub fn assignments_of(&self, user: UserId) -> Vec<EventId> {
        self.owners
            .get(user.index())
            .map(|&(k, local)| self.shards[k].arrangement().events_of(local).to_vec())
            .unwrap_or_default()
    }

    /// Captures the engine's complete logical state as a versioned,
    /// serializable checkpoint covering WAL sequence `wal_seq`. Must be
    /// called at a barrier (shards attached and quiescent); together with
    /// [`ShardedEngine::restore_state`] it reproduces the engine **bit
    /// for bit** — arrangement, utility sums, seed counters, routing
    /// tables and rejection counters all round-trip exactly.
    pub fn snapshot_state(&self, wal_seq: u64) -> EngineSnapshotState {
        debug_assert_eq!(self.shards.len(), self.num_shards, "barrier first");
        debug_assert!(
            self.shards.iter().all(Shard::is_quiescent),
            "checkpoints must observe a quiescent engine"
        );
        let shards = self
            .shards
            .iter()
            .map(|shard| {
                let breakdown = shard.utility_breakdown();
                ShardRecord {
                    quotas: (0..self.mirror.num_events())
                        .map(|v| shard.quota_of(EventId::new(v)))
                        .collect(),
                    arrangement: shard.arrangement().clone(),
                    stats: *shard.stats(),
                    solve_counter: shard.solve_counter(),
                    last_staleness_check: shard.last_staleness_check(),
                    catalog_epoch: shard.catalog_epoch(),
                    interest_sum: breakdown.interest_sum,
                    interaction_sum: breakdown.interaction_sum,
                }
            })
            .collect();
        EngineSnapshotState {
            version: STATE_VERSION,
            wal_seq,
            catalog_epoch: self.catalog.epoch(),
            config: self.config.clone(),
            mirror: InstanceSnapshot::capture(&self.mirror),
            owners: self
                .owners
                .iter()
                .map(|&(k, local)| (k as u32, local.index() as u32))
                .collect(),
            rejected: self.rejected,
            deltas_since_reconcile: self.deltas_since_reconcile,
            reconcile_candidates: self.reconcile_candidates.iter().copied().collect(),
            coordinator_stats: self.coordinator_stats,
            probe_counter: self.probe_counter,
            shard_migrations: self.migrations.clone(),
            shards,
        }
    }

    /// Rebuilds an engine from a checkpoint. The caller supplies the same
    /// σ / interest / solver / partitioner the original engine ran with
    /// (they are code, not data — checkpoints carry only state). After
    /// the structural rebuild every shard's utility tracker is verified
    /// bit-for-bit against the sums the checkpoint recorded; any mismatch
    /// (schema drift, an id-dependent interest function, a doctored
    /// snapshot) fails the restore instead of silently serving a
    /// different arrangement.
    pub fn restore_state(
        state: &EngineSnapshotState,
        sigma: Box<dyn ConflictFn + Send + Sync>,
        interest: Box<dyn InterestFn + Send + Sync>,
        solver: Box<dyn WarmStart + Send + Sync>,
        partitioner: Box<dyn Partitioner + Send>,
    ) -> Result<ShardedEngine, String> {
        let mirror = state
            .mirror
            .restore()
            .map_err(|e| format!("mirror restore failed: {e}"))?;
        let num_shards = state.config.num_shards.max(1);
        if state.shards.len() != num_shards {
            return Err(format!(
                "snapshot carries {} shard records for a {num_shards}-shard config",
                state.shards.len()
            ));
        }
        if state.owners.len() != mirror.num_users() {
            return Err(format!(
                "owner table covers {} users but the mirror has {}",
                state.owners.len(),
                mirror.num_users()
            ));
        }
        let mut locals: Vec<Vec<UserId>> = vec![Vec::new(); num_shards];
        let mut owners = Vec::with_capacity(state.owners.len());
        for (u, &(k, local)) in state.owners.iter().enumerate() {
            let (k, local) = (k as usize, local as usize);
            if k >= num_shards {
                return Err(format!("user {u} owned by shard {k} of {num_shards}"));
            }
            if local != locals[k].len() {
                return Err(format!(
                    "user {u} has non-dense local id {local} on shard {k}"
                ));
            }
            owners.push((k, UserId::new(local)));
            locals[k].push(UserId::new(u));
        }
        let sigma: SharedConflict = Arc::from(sigma);
        let interest: SharedInterest = Arc::from(interest);
        let solver: SharedSolver = Arc::from(solver);
        let catalog = EventCatalog::from_instance_at_epoch(&mirror, state.catalog_epoch);
        let mut shards = Vec::with_capacity(num_shards);
        for (k, record) in state.shards.iter().enumerate() {
            if record.quotas.len() != mirror.num_events() {
                return Err(format!(
                    "shard {k} quota vector covers {} events but the mirror has {}",
                    record.quotas.len(),
                    mirror.num_events()
                ));
            }
            let sub_instance = if num_shards == 1 {
                mirror.clone()
            } else {
                build_sub_instance(&mirror, &locals[k], |v| record.quotas[v.index()])
            };
            let shard_config = EngineConfig {
                seed: state.config.shard.seed.wrapping_add(k as u64),
                ..state.config.shard.clone()
            };
            let shard = Shard::restore(
                ShardResume {
                    instance: sub_instance,
                    arrangement: record.arrangement.clone(),
                    stats: record.stats,
                    solve_counter: record.solve_counter,
                    last_staleness_check: record.last_staleness_check,
                    catalog_epoch: record.catalog_epoch,
                },
                Arc::clone(&sigma),
                Arc::clone(&interest),
                Arc::clone(&solver),
                shard_config,
            );
            let breakdown = shard.utility_breakdown();
            if breakdown.interest_sum.to_bits() != record.interest_sum.to_bits()
                || breakdown.interaction_sum.to_bits() != record.interaction_sum.to_bits()
            {
                return Err(format!(
                    "shard {k} utility diverged after restore: checkpoint recorded ({}, {}), the rebuilt tracker reads ({}, {})",
                    record.interest_sum,
                    record.interaction_sum,
                    breakdown.interest_sum,
                    breakdown.interaction_sum
                ));
            }
            shards.push(shard);
        }
        let migrations = if state.shard_migrations.is_empty() {
            // Pre-resharding checkpoints carry no migration counters.
            vec![(0, 0); num_shards]
        } else if state.shard_migrations.len() == num_shards {
            state.shard_migrations.clone()
        } else {
            return Err(format!(
                "snapshot carries {} migration counter entries for {num_shards} shards",
                state.shard_migrations.len()
            ));
        };
        let shard_utility = shards.iter().map(Shard::utility).collect();
        let shard_pairs = shards.iter().map(|s| s.arrangement().len()).collect();
        Ok(ShardedEngine {
            shards,
            num_shards,
            catalog,
            mirror,
            sigma,
            interest,
            solver,
            partitioner,
            owners,
            locals,
            config: state.config.clone(),
            shard_utility,
            shard_pairs,
            rejected: state.rejected,
            deltas_since_reconcile: state.deltas_since_reconcile,
            reconcile_candidates: state.reconcile_candidates.iter().copied().collect(),
            coordinator_stats: state.coordinator_stats,
            migrations,
            probe_counter: state.probe_counter,
        })
    }

    /// Per-shard summaries for the `ShardStats` query. Mirror-level
    /// rejections never reach a shard, so they are attributed to shard 0
    /// — exactly where a bare shard counts them, keeping the
    /// one-shard response bit-for-bit identical.
    pub(crate) fn shard_stats_entries(&self) -> Vec<ShardStatsEntry> {
        self.shards
            .iter()
            .enumerate()
            .map(|(k, shard)| {
                let mut stats = *shard.stats();
                if k == 0 {
                    stats.deltas_rejected += self.rejected;
                }
                ShardStatsEntry {
                    shard: k,
                    users: shard.instance().num_users(),
                    pairs: shard.arrangement().len(),
                    utility: shard.utility(),
                    stats,
                    moved_in: self.migrations[k].0,
                    moved_out: self.migrations[k].1,
                }
            })
            .collect()
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("num_shards", &self.shards.len())
            .field("num_events", &self.mirror.num_events())
            .field("num_users", &self.mirror.num_users())
            .field("num_pairs", &self.num_pairs())
            .field("coordinator_stats", &self.coordinator_stats)
            .finish()
    }
}

/// Builds shard `k`'s sub-instance: all events (with quota capacities),
/// only the mapped users, interest values copied from the global instance
/// rather than re-evaluated, and the global conflict matrix **adopted by
/// handle** — the shard shares the coordinator's O(|V|²) table instead of
/// materialising a private copy (events keep their global ids inside
/// every sub-instance, so lookups are direct).
fn build_sub_instance(
    global: &Instance,
    to_global: &[UserId],
    quota_of: impl Fn(EventId) -> usize,
) -> Instance {
    let mut builder = Instance::builder();
    builder.beta(global.beta());
    for event in global.events() {
        builder.add_event(quota_of(event.id), event.attrs.clone());
    }
    for &g in to_global {
        let user = global.user(g);
        builder.add_user(user.capacity, user.attrs.clone(), user.bids.clone());
    }
    builder.interaction_scores(to_global.iter().map(|&g| global.interaction(g)).collect());
    builder
        .build_shared(
            Arc::clone(global.conflicts_handle()),
            &CopiedInterest { global, to_global },
        )
        // lint:allow(no-panic-in-server-paths): every user/event/bid here was copied from an instance that already validated them; a build failure means the copy above is wrong, not that the request is bad
        .expect("sub-instance of a valid instance is valid")
}

/// Largest-remainder split of `capacity` into `weights.len()` parts,
/// proportional to `weights`; an even split when all weights are zero.
/// Deterministic: remainders go to the largest fractional part, ties to
/// the lowest index. The parts always sum to `capacity`.
fn proportional_split(capacity: usize, weights: &[usize]) -> Vec<usize> {
    let n = weights.len().max(1);
    let total: usize = weights.iter().sum();
    if total == 0 {
        let base = capacity / n;
        let rem = capacity % n;
        return (0..n).map(|k| base + usize::from(k < rem)).collect();
    }
    let mut parts: Vec<usize> = weights.iter().map(|&w| capacity * w / total).collect();
    let mut remainder = capacity - parts.iter().sum::<usize>();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&k| (std::cmp::Reverse(capacity * weights[k] % total), k));
    for &k in &order {
        if remainder == 0 {
            break;
        }
        parts[k] += 1;
        remainder -= 1;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use igepa_algos::GreedyArrangement;
    use igepa_core::{AttributeVector, ConstantInterest, HashPartitioner, NeverConflict};

    fn sharded_for(num_events: usize, num_users: usize, num_shards: usize) -> ShardedEngine {
        let mut b = Instance::builder();
        let events: Vec<EventId> = (0..num_events)
            .map(|_| b.add_event(2, AttributeVector::empty()))
            .collect();
        for _ in 0..num_users {
            b.add_user(2, AttributeVector::empty(), events.clone());
        }
        b.interaction_scores(vec![0.5; num_users]);
        let instance = b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap();
        ShardedEngine::new(
            instance,
            Box::new(NeverConflict),
            Box::new(ConstantInterest(0.5)),
            Box::new(GreedyArrangement),
            Box::new(HashPartitioner),
            ShardedConfig::with_shards(num_shards),
        )
    }

    #[test]
    fn proportional_split_sums_and_orders_deterministically() {
        assert_eq!(proportional_split(7, &[0, 0, 0]), vec![3, 2, 2]);
        assert_eq!(proportional_split(0, &[1, 2]), vec![0, 0]);
        let parts = proportional_split(10, &[1, 1, 3]);
        assert_eq!(parts.iter().sum::<usize>(), 10);
        assert_eq!(parts, vec![2, 2, 6]);
        // Remainders go to the largest fractional part, ties to low index.
        assert_eq!(proportional_split(5, &[1, 1]), vec![3, 2]);
    }

    #[test]
    fn quotas_partition_every_event_capacity() {
        let engine = sharded_for(5, 12, 3);
        for event in engine.instance().events() {
            let total: usize = (0..engine.num_shards())
                .map(|k| engine.shard(k).quota_of(event.id))
                .sum();
            assert_eq!(total, event.capacity, "quota invariant on {}", event.id);
        }
    }

    #[test]
    fn merged_arrangement_is_feasible_from_the_start() {
        let engine = sharded_for(4, 10, 3);
        let merged = engine.merged_arrangement();
        assert!(merged.is_feasible(engine.instance()));
        assert_eq!(merged.len(), engine.num_pairs());
    }

    #[test]
    fn deltas_route_and_keep_the_merged_arrangement_feasible() {
        let mut engine = sharded_for(3, 9, 2);
        engine
            .apply(&InstanceDelta::AddUser {
                capacity: 2,
                attrs: AttributeVector::empty(),
                bids: vec![EventId::new(0), EventId::new(2)],
                interaction: 0.9,
            })
            .unwrap();
        engine
            .apply(&InstanceDelta::AddEvent {
                capacity: 5,
                attrs: AttributeVector::empty(),
            })
            .unwrap();
        engine
            .apply(&InstanceDelta::UpdateCapacity {
                target: CapacityTarget::Event(EventId::new(0)),
                capacity: 1,
            })
            .unwrap();
        engine
            .apply(&InstanceDelta::RemoveUser {
                user: UserId::new(3),
            })
            .unwrap();
        let merged = engine.merged_arrangement();
        assert!(merged.is_feasible(engine.instance()));
        // Quota invariant survives every routed delta.
        for event in engine.instance().events() {
            let total: usize = (0..engine.num_shards())
                .map(|k| engine.shard(k).quota_of(event.id))
                .sum();
            assert_eq!(total, event.capacity);
        }
        // Mirror and shards agree on the population.
        assert_eq!(engine.instance().num_users(), 10);
        let shard_users: usize = (0..engine.num_shards())
            .map(|k| engine.shard(k).instance().num_users())
            .sum();
        assert_eq!(shard_users, 10);
    }

    /// The tentpole memory invariant: the O(|V|²) conflict matrix exists
    /// once — mirror, catalogue and every shard return `Arc::ptr_eq`
    /// handles — and event broadcasts keep it that way.
    #[test]
    fn conflict_matrix_is_shared_across_mirror_catalog_and_shards() {
        let assert_shared = |engine: &ShardedEngine| {
            let mirror = engine.instance().conflicts_handle();
            assert!(Arc::ptr_eq(
                mirror,
                engine.catalog().snapshot().conflicts_handle()
            ));
            for k in 0..engine.num_shards() {
                assert!(
                    Arc::ptr_eq(mirror, engine.shard(k).instance().conflicts_handle()),
                    "shard {k} holds a private conflict matrix"
                );
            }
        };
        for shards in [1, 2, 4] {
            let mut engine = sharded_for(3, 8, shards);
            assert_shared(&engine);
            // Broadcasts republish; everyone adopts the same new table.
            for i in 0..6 {
                engine
                    .apply(&InstanceDelta::AddEvent {
                        capacity: 2 + i,
                        attrs: AttributeVector::empty(),
                    })
                    .unwrap();
                assert_shared(&engine);
            }
            // User churn and capacity edits never split the sharing.
            engine
                .apply(&InstanceDelta::AddUser {
                    capacity: 1,
                    attrs: AttributeVector::empty(),
                    bids: vec![EventId::new(4)],
                    interaction: 0.5,
                })
                .unwrap();
            engine
                .apply(&InstanceDelta::UpdateCapacity {
                    target: CapacityTarget::Event(EventId::new(3)),
                    capacity: 7,
                })
                .unwrap();
            assert_shared(&engine);
            assert_eq!(engine.catalog().num_events(), 9);
            // Steady-state broadcasts stop copying: only the first publish
            // splits the construction-time buffer sharing.
            assert_eq!(engine.catalog().cow_copies(), 1);
        }
    }

    #[test]
    fn catalog_capacities_track_the_mirror() {
        let mut engine = sharded_for(2, 6, 3);
        engine
            .apply(&InstanceDelta::AddEvent {
                capacity: 5,
                attrs: AttributeVector::empty(),
            })
            .unwrap();
        engine
            .apply(&InstanceDelta::UpdateCapacity {
                target: CapacityTarget::Event(EventId::new(0)),
                capacity: 9,
            })
            .unwrap();
        for event in engine.instance().events() {
            assert_eq!(
                engine.catalog().true_capacity(event.id),
                event.capacity,
                "catalogue capacity of {} diverged from the mirror",
                event.id
            );
            let quota_sum: usize = (0..engine.num_shards())
                .map(|k| engine.shard(k).quota_of(event.id))
                .sum();
            assert_eq!(quota_sum, event.capacity);
        }
        assert_eq!(engine.catalog().epoch(), 2);
        assert_eq!(
            engine.shard(0).catalog_epoch(),
            1,
            "capacity publishes need no shard sync"
        );
    }

    #[test]
    fn batched_announcements_publish_through_the_catalog() {
        let mut engine = sharded_for(2, 6, 2);
        let deltas = vec![
            InstanceDelta::AddEvent {
                capacity: 4,
                attrs: AttributeVector::empty(),
            },
            // A user delta referencing the event announced one op earlier
            // in the same burst: ordering within the burst must hold.
            InstanceDelta::AddUser {
                capacity: 1,
                attrs: AttributeVector::empty(),
                bids: vec![EventId::new(2)],
                interaction: 0.5,
            },
            InstanceDelta::AddEvent {
                capacity: 3,
                attrs: AttributeVector::empty(),
            },
        ];
        engine.apply_batch(&deltas).unwrap();
        assert_eq!(engine.instance().num_events(), 4);
        assert_eq!(engine.catalog().num_events(), 4);
        assert_eq!(engine.catalog().epoch(), 2);
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
        for k in 0..engine.num_shards() {
            assert_eq!(engine.shard(k).instance().num_events(), 4);
            assert_eq!(engine.shard(k).catalog_epoch(), 2);
            assert!(Arc::ptr_eq(
                engine.instance().conflicts_handle(),
                engine.shard(k).instance().conflicts_handle()
            ));
        }
    }

    #[test]
    fn rejected_deltas_touch_no_shard() {
        let mut engine = sharded_for(2, 4, 2);
        let before = engine.stats();
        let err = engine.apply(&InstanceDelta::UpdateInteractionScore {
            user: UserId::new(99),
            score: 0.5,
        });
        assert!(err.is_err());
        let after = engine.stats();
        assert_eq!(after.deltas_rejected, before.deltas_rejected + 1);
        assert_eq!(after.deltas_applied, before.deltas_applied);
    }

    #[test]
    fn rebalance_is_a_noop_when_quota_matches_demand() {
        // Bidder-proportional initial quotas put all capacity where the
        // users are, so there is nothing for the exchange to move.
        let mut b = Instance::builder();
        let v = b.add_event(2, AttributeVector::empty());
        for _ in 0..3 {
            b.add_user(1, AttributeVector::empty(), vec![v]);
        }
        b.interaction_scores(vec![0.5; 3]);
        let instance = b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap();

        #[derive(Debug)]
        struct AllToZero;
        impl Partitioner for AllToZero {
            fn shard_for(&self, _u: UserId, _b: &[EventId], _n: usize) -> usize {
                0
            }
        }
        let mut engine = ShardedEngine::new(
            instance,
            Box::new(NeverConflict),
            Box::new(ConstantInterest(0.5)),
            Box::new(GreedyArrangement),
            Box::new(AllToZero),
            ShardedConfig {
                num_shards: 2,
                reconcile_interval: 0,
                ..ShardedConfig::with_shards(2)
            },
        );
        assert_eq!(engine.shard(0).quota_of(v), 2);
        let before_pairs = engine.num_pairs();
        let report = engine.rebalance();
        assert_eq!(report.quota_moved, 0);
        assert_eq!(engine.num_pairs(), before_pairs);
    }

    #[test]
    fn stranded_quota_is_reclaimed_by_reconciliation() {
        // Capacity 4 event, 4 bidders all hashed onto both shards; force a
        // bad split by routing every user to shard 1 while the quota is
        // dealt evenly (no bidders at construction time).
        let mut b = Instance::builder();
        let v = b.add_event(4, AttributeVector::empty());
        // No users yet: quotas split evenly 2/2.
        b.interaction_scores(vec![]);
        let _ = v;
        let instance = b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap();

        #[derive(Debug)]
        struct AllToOne;
        impl Partitioner for AllToOne {
            fn shard_for(&self, _u: UserId, _b: &[EventId], n: usize) -> usize {
                n - 1
            }
        }
        let mut engine = ShardedEngine::new(
            instance,
            Box::new(NeverConflict),
            Box::new(ConstantInterest(0.5)),
            Box::new(GreedyArrangement),
            Box::new(AllToOne),
            ShardedConfig {
                num_shards: 2,
                reconcile_interval: 0,
                ..ShardedConfig::with_shards(2)
            },
        );
        assert_eq!(engine.shard(0).quota_of(EventId::new(0)), 2);
        for _ in 0..4 {
            engine
                .apply(&InstanceDelta::AddUser {
                    capacity: 1,
                    attrs: AttributeVector::empty(),
                    bids: vec![EventId::new(0)],
                    interaction: 0.5,
                })
                .unwrap();
        }
        // Only 2 of 4 bidders fit into shard 1's quota before reconciling.
        assert_eq!(engine.num_pairs(), 2);
        let report = engine.rebalance();
        assert_eq!(report.quota_moved, 2);
        assert_eq!(engine.num_pairs(), 4);
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
        assert_eq!(engine.coordinator_stats().quota_moved, 2);
    }

    #[test]
    fn periodic_reconcile_fires_on_the_interval() {
        let mut b = Instance::builder();
        b.add_event(4, AttributeVector::empty());
        b.interaction_scores(vec![]);
        let instance = b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap();

        #[derive(Debug)]
        struct AllToOne;
        impl Partitioner for AllToOne {
            fn shard_for(&self, _u: UserId, _b: &[EventId], n: usize) -> usize {
                n - 1
            }
        }
        let mut engine = ShardedEngine::new(
            instance,
            Box::new(NeverConflict),
            Box::new(ConstantInterest(0.5)),
            Box::new(GreedyArrangement),
            Box::new(AllToOne),
            ShardedConfig {
                num_shards: 2,
                reconcile_interval: 4,
                ..ShardedConfig::with_shards(2)
            },
        );
        for _ in 0..4 {
            engine
                .apply(&InstanceDelta::AddUser {
                    capacity: 1,
                    attrs: AttributeVector::empty(),
                    bids: vec![EventId::new(0)],
                    interaction: 0.5,
                })
                .unwrap();
        }
        // The fourth delta crossed the interval: quota was reclaimed
        // automatically and all four bidders are seated.
        assert!(engine.coordinator_stats().reconcile_passes >= 1);
        assert_eq!(engine.num_pairs(), 4);
    }

    #[test]
    fn batch_routes_to_multiple_shards_with_one_repair_each() {
        let mut engine = sharded_for(2, 8, 2);
        let deltas: Vec<InstanceDelta> = (0..8)
            .map(|u| InstanceDelta::UpdateInteractionScore {
                user: UserId::new(u),
                score: 0.7,
            })
            .collect();
        let outcome = engine.apply_batch(&deltas).unwrap();
        assert_eq!(outcome.kind, "batch");
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
        let stats = engine.stats();
        assert_eq!(stats.deltas_applied, 8);
    }

    /// Deltas exercising every routing path, for checkpoint tests.
    fn churn(engine: &mut ShardedEngine) {
        let num_events = engine.instance().num_events();
        for i in 0..6 {
            engine
                .apply(&InstanceDelta::AddUser {
                    capacity: 2,
                    attrs: AttributeVector::empty(),
                    bids: vec![EventId::new(i % num_events)],
                    interaction: 0.3 + 0.1 * i as f64,
                })
                .unwrap();
        }
        engine
            .apply(&InstanceDelta::AddEvent {
                capacity: 3,
                attrs: AttributeVector::empty(),
            })
            .unwrap();
        engine
            .apply(&InstanceDelta::UpdateCapacity {
                target: CapacityTarget::Event(EventId::new(1)),
                capacity: 1,
            })
            .unwrap();
        engine
            .apply(&InstanceDelta::RemoveUser {
                user: UserId::new(2),
            })
            .unwrap();
        // A rejection, so the rejected counter round-trips too.
        let _ = engine.apply(&InstanceDelta::UpdateInteractionScore {
            user: UserId::new(500),
            score: 0.5,
        });
        engine.rebalance();
    }

    /// Checkpoint → serde → restore reproduces the engine bit for bit,
    /// including its future: both copies must answer identical responses
    /// to an identical request suffix (same solver seeds, same staleness
    /// countdowns, same reconcile phase).
    #[test]
    fn snapshot_state_roundtrips_bit_for_bit() {
        for num_shards in [1, 2, 3] {
            let mut original = sharded_for(3, 9, num_shards);
            churn(&mut original);

            let state = original.snapshot_state(17);
            let json = serde_json::to_string(&state).unwrap();
            let decoded: EngineSnapshotState = serde_json::from_str(&json).unwrap();
            assert_eq!(
                decoded, state,
                "checkpoint serde drift ({num_shards} shards)"
            );

            let mut restored = ShardedEngine::restore_state(
                &decoded,
                Box::new(NeverConflict),
                Box::new(ConstantInterest(0.5)),
                Box::new(GreedyArrangement),
                Box::new(HashPartitioner),
            )
            .unwrap();

            assert_eq!(
                restored.merged_arrangement().pairs().collect::<Vec<_>>(),
                original.merged_arrangement().pairs().collect::<Vec<_>>(),
                "arrangement diverged ({num_shards} shards)"
            );
            assert_eq!(
                restored.merged_utility().total.to_bits(),
                original.merged_utility().total.to_bits(),
                "utility diverged ({num_shards} shards)"
            );
            assert_eq!(restored.stats(), original.stats());
            assert_eq!(restored.catalog().epoch(), original.catalog().epoch());

            // The decisive check: identical futures. Any unsaved seed or
            // counter would surface as a different repair below.
            churn(&mut restored);
            churn(&mut original);
            assert_eq!(
                restored.merged_arrangement().pairs().collect::<Vec<_>>(),
                original.merged_arrangement().pairs().collect::<Vec<_>>(),
                "post-restore future diverged ({num_shards} shards)"
            );
            assert_eq!(
                restored.merged_utility().total.to_bits(),
                original.merged_utility().total.to_bits()
            );
            assert_eq!(restored.stats(), original.stats());
        }
    }

    #[test]
    fn restore_state_rejects_structural_corruption() {
        let mut engine = sharded_for(2, 6, 2);
        churn(&mut engine);
        let state = engine.snapshot_state(5);
        let rebuild = |s: &EngineSnapshotState| {
            ShardedEngine::restore_state(
                s,
                Box::new(NeverConflict),
                Box::new(ConstantInterest(0.5)),
                Box::new(GreedyArrangement),
                Box::new(HashPartitioner),
            )
        };
        let mut missing_shard = state.clone();
        missing_shard.shards.pop();
        assert!(rebuild(&missing_shard).is_err());
        let mut bad_owner = state.clone();
        bad_owner.owners[0].0 = 9;
        assert!(rebuild(&bad_owner).is_err());
        let mut bad_sums = state.clone();
        bad_sums.shards[0].interest_sum += 1.0;
        assert!(rebuild(&bad_sums)
            .err()
            .unwrap()
            .contains("utility diverged"));
        assert!(rebuild(&state).is_ok(), "pristine state must still load");
    }

    #[test]
    fn reshard_grow_preserves_pairs_utility_and_quotas() {
        let mut engine = sharded_for(4, 12, 4);
        churn(&mut engine);
        let before_pairs: Vec<_> = engine.merged_arrangement().pairs().collect();
        let before_utility = engine.merged_utility().total;
        let before_stats = engine.stats();

        let record = engine.reshard(6).unwrap();
        assert_eq!(record.from_shards, 4);
        assert_eq!(record.to_shards, 6);
        assert!(record.moved_users > 0, "hash mod 6 re-places some users");
        assert_eq!(record.catalog_epoch, engine.catalog().epoch());
        assert_eq!(engine.num_shards(), 6);

        // A pure re-partitioning: pair-for-pair and bit-for-bit.
        assert_eq!(
            engine.merged_arrangement().pairs().collect::<Vec<_>>(),
            before_pairs
        );
        assert_eq!(
            engine.merged_utility().total.to_bits(),
            before_utility.to_bits()
        );
        assert_eq!(engine.stats(), before_stats, "counters transfer exactly");
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
        for event in engine.instance().events() {
            let total: usize = (0..engine.num_shards())
                .map(|k| engine.shard(k).quota_of(event.id))
                .sum();
            assert_eq!(total, event.capacity, "quota invariant on {}", event.id);
        }
        // Migration counters balance: every departure has an arrival.
        let entries = engine.shard_stats_entries();
        let moved_in: u64 = entries.iter().map(|e| e.moved_in).sum();
        let moved_out: u64 = entries.iter().map(|e| e.moved_out).sum();
        assert_eq!(moved_in, record.moved_users);
        assert_eq!(moved_out, record.moved_users);

        // The resharded engine keeps serving correctly.
        churn(&mut engine);
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
    }

    #[test]
    fn reshard_shrink_to_one_matches_the_merged_arrangement() {
        let mut engine = sharded_for(3, 10, 3);
        churn(&mut engine);
        let before_pairs: Vec<_> = engine.merged_arrangement().pairs().collect();
        let before_utility = engine.merged_utility().total;
        let before_stats = engine.stats();

        let record = engine.reshard(1).unwrap();
        assert_eq!((record.from_shards, record.to_shards), (3, 1));
        assert_eq!(engine.num_shards(), 1);
        // One shard serves the old merged arrangement verbatim.
        assert_eq!(
            engine.shard(0).arrangement().pairs().collect::<Vec<_>>(),
            before_pairs
        );
        assert_eq!(
            engine.merged_utility().total.to_bits(),
            before_utility.to_bits()
        );
        // Retired slots folded into slot 0, so the aggregate is intact.
        assert_eq!(engine.stats(), before_stats);
        churn(&mut engine);
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
    }

    /// The property WAL replay rests on: two engines with identical
    /// histories reshard identically, down to their futures.
    #[test]
    fn reshard_is_deterministic_including_the_future() {
        let mut a = sharded_for(3, 9, 2);
        let mut b = sharded_for(3, 9, 2);
        churn(&mut a);
        churn(&mut b);
        a.reshard(5).unwrap();
        b.reshard(5).unwrap();
        churn(&mut a);
        churn(&mut b);
        assert_eq!(
            a.merged_arrangement().pairs().collect::<Vec<_>>(),
            b.merged_arrangement().pairs().collect::<Vec<_>>()
        );
        assert_eq!(
            a.merged_utility().total.to_bits(),
            b.merged_utility().total.to_bits()
        );
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn reshard_state_roundtrips_through_a_checkpoint() {
        let mut original = sharded_for(3, 9, 4);
        churn(&mut original);
        original.reshard(6).unwrap();
        churn(&mut original);

        let state = original.snapshot_state(23);
        let json = serde_json::to_string(&state).unwrap();
        let decoded: EngineSnapshotState = serde_json::from_str(&json).unwrap();
        assert_eq!(decoded, state);
        let mut restored = ShardedEngine::restore_state(
            &decoded,
            Box::new(NeverConflict),
            Box::new(ConstantInterest(0.5)),
            Box::new(GreedyArrangement),
            Box::new(HashPartitioner),
        )
        .unwrap();

        // Migration counters survive the round trip.
        let restored_entries = restored.shard_stats_entries();
        let original_entries = original.shard_stats_entries();
        assert_eq!(restored_entries, original_entries);
        assert!(restored_entries.iter().any(|e| e.moved_in > 0));

        churn(&mut restored);
        churn(&mut original);
        assert_eq!(
            restored.merged_arrangement().pairs().collect::<Vec<_>>(),
            original.merged_arrangement().pairs().collect::<Vec<_>>()
        );
        assert_eq!(
            restored.merged_utility().total.to_bits(),
            original.merged_utility().total.to_bits()
        );
        assert_eq!(restored.stats(), original.stats());
    }

    #[test]
    fn reshard_to_zero_is_refused_and_harmless() {
        let mut engine = sharded_for(2, 6, 2);
        churn(&mut engine);
        let before: Vec<_> = engine.merged_arrangement().pairs().collect();
        assert!(engine.reshard(0).is_err());
        assert_eq!(engine.num_shards(), 2);
        assert_eq!(
            engine.merged_arrangement().pairs().collect::<Vec<_>>(),
            before
        );
    }

    /// Three of every four users on shard 0: a skew that quota exchange
    /// cannot fix.
    struct MostlyToZero;
    impl Partitioner for MostlyToZero {
        fn shard_for(&self, user: UserId, _bids: &[EventId], _num_shards: usize) -> usize {
            usize::from(user.index() % 4 == 3)
        }
        fn name(&self) -> &'static str {
            "mostly-to-zero"
        }
    }

    #[test]
    fn skewed_trace_pins_the_migration_proposal_counter() {
        let mut b = Instance::builder();
        let events: Vec<EventId> = (0..6)
            .map(|_| b.add_event(10, AttributeVector::empty()))
            .collect();
        b.add_user(2, AttributeVector::empty(), vec![events[0]]);
        b.interaction_scores(vec![0.5]);
        let instance = b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap();
        let mut engine = ShardedEngine::new(
            instance,
            Box::new(NeverConflict),
            Box::new(ConstantInterest(0.5)),
            Box::new(GreedyArrangement),
            Box::new(MostlyToZero),
            ShardedConfig {
                reconcile_interval: 4,
                ..ShardedConfig::with_shards(2)
            },
        );
        for i in 0..48usize {
            let delta = if i % 6 == 5 {
                InstanceDelta::RemoveUser {
                    user: UserId::new(i / 2),
                }
            } else {
                InstanceDelta::AddUser {
                    capacity: 2,
                    attrs: AttributeVector::empty(),
                    bids: vec![events[i % 6], events[(i + 1) % 6]],
                    interaction: 0.3 + 0.01 * i as f64,
                }
            };
            engine.apply(&delta).unwrap();
        }
        // Expected values were recorded from the plan-building
        // implementation the O(shards) skew test replaced; 5 of the 12
        // passes see too little skew to count.
        let stats = engine.coordinator_stats();
        assert_eq!(stats.reconcile_passes, 12);
        assert_eq!(stats.migration_proposals, 7);
        assert_eq!(engine.shard(0).arrangement().len(), 41);
        assert_eq!(engine.shard(1).arrangement().len(), 13);
    }

    #[test]
    fn batch_error_keeps_prefix_applied() {
        let mut engine = sharded_for(2, 2, 2);
        let deltas = vec![
            InstanceDelta::UpdateInteractionScore {
                user: UserId::new(0),
                score: 0.9,
            },
            InstanceDelta::UpdateInteractionScore {
                user: UserId::new(77),
                score: 0.9,
            },
            InstanceDelta::UpdateInteractionScore {
                user: UserId::new(1),
                score: 0.9,
            },
        ];
        let err = engine.apply_batch(&deltas);
        assert!(err.is_err());
        assert_eq!(engine.instance().interaction(UserId::new(0)), 0.9);
        // The delta after the invalid one was not applied.
        assert_eq!(engine.instance().interaction(UserId::new(1)), 0.5);
        assert_eq!(engine.stats().deltas_applied, 1);
        assert_eq!(engine.stats().deltas_rejected, 1);
    }

    /// A one-shard engine over `num_events` capacity-2 events and
    /// `num_users` capacity-2 users bidding on every event.
    fn single_for(num_events: usize, num_users: usize) -> ShardedEngine {
        let mut b = Instance::builder();
        let events: Vec<EventId> = (0..num_events)
            .map(|_| b.add_event(2, AttributeVector::empty()))
            .collect();
        for _ in 0..num_users {
            b.add_user(2, AttributeVector::empty(), events.clone());
        }
        b.interaction_scores(vec![0.5; num_users]);
        let instance = b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap();
        ShardedEngine::single(
            instance,
            Box::new(NeverConflict),
            Box::new(ConstantInterest(0.5)),
            Box::new(GreedyArrangement),
            EngineConfig::default(),
        )
    }

    #[test]
    fn single_initial_solve_is_feasible_and_nonempty() {
        let engine = single_for(3, 4);
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
        assert!(!engine.merged_arrangement().is_empty());
    }

    #[test]
    fn single_add_user_gets_seated_by_greedy_patch() {
        let mut engine = single_for(2, 1);
        let before_pairs = engine.merged_arrangement().len();
        let outcome = engine
            .apply(&InstanceDelta::AddUser {
                capacity: 1,
                attrs: AttributeVector::empty(),
                bids: vec![EventId::new(0)],
                interaction: 1.0,
            })
            .unwrap();
        assert!(matches!(outcome.repair, RepairKind::GreedyPatch { .. }));
        assert_eq!(outcome.num_pairs, before_pairs + 1);
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
    }

    #[test]
    fn single_capacity_shrink_evicts_overflow() {
        let mut engine = single_for(1, 2);
        assert_eq!(engine.merged_arrangement().load_of(EventId::new(0)), 2);
        let outcome = engine
            .apply(&InstanceDelta::UpdateCapacity {
                target: CapacityTarget::Event(EventId::new(0)),
                capacity: 1,
            })
            .unwrap();
        assert!(matches!(
            outcome.repair,
            RepairKind::GreedyPatch { pruned: 1, .. }
        ));
        assert_eq!(engine.merged_arrangement().load_of(EventId::new(0)), 1);
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
    }

    #[test]
    fn single_remove_user_clears_their_assignments() {
        let mut engine = single_for(2, 2);
        engine
            .apply(&InstanceDelta::RemoveUser {
                user: UserId::new(0),
            })
            .unwrap();
        assert!(engine
            .merged_arrangement()
            .events_of(UserId::new(0))
            .is_empty());
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
    }

    #[test]
    fn single_rejected_delta_leaves_engine_intact() {
        let mut engine = single_for(2, 2);
        let utility = engine.utility();
        let err = engine.apply(&InstanceDelta::UpdateInteractionScore {
            user: UserId::new(9),
            score: 0.5,
        });
        assert!(err.is_err());
        assert_eq!(engine.utility(), utility);
        assert_eq!(engine.stats().deltas_rejected, 1);
        assert_eq!(engine.stats().deltas_applied, 0);
    }

    #[test]
    fn single_batch_apply_repairs_once() {
        let mut engine = single_for(2, 2);
        let deltas: Vec<InstanceDelta> = (0..5)
            .map(|i| InstanceDelta::AddUser {
                capacity: 1,
                attrs: AttributeVector::empty(),
                bids: vec![EventId::new(i % 2)],
                interaction: 0.5,
            })
            .collect();
        let patches_before = engine.stats().greedy_patches + engine.stats().full_resolves;
        engine.apply_batch(&deltas).unwrap();
        let patches_after = engine.stats().greedy_patches + engine.stats().full_resolves;
        assert_eq!(patches_after - patches_before, 1);
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
    }

    #[test]
    fn single_large_dirty_set_escalates_to_full_resolve() {
        let mut engine = single_for(2, 4);
        // Touch every user in one batch: dirty users (4) > 25% of 4 users.
        let deltas: Vec<InstanceDelta> = (0..4)
            .map(|u| InstanceDelta::UpdateInteractionScore {
                user: UserId::new(u),
                score: 0.9,
            })
            .collect();
        let outcome = engine.apply_batch(&deltas).unwrap();
        assert_eq!(outcome.repair, RepairKind::FullResolve);
        assert_eq!(engine.stats().full_resolves, 1);
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
    }

    #[test]
    fn single_staleness_check_fires_on_interval() {
        let mut b = Instance::builder();
        let v = b.add_event(4, AttributeVector::empty());
        b.add_user(1, AttributeVector::empty(), vec![v]);
        b.interaction_scores(vec![0.5]);
        let instance = b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap();
        let mut engine = ShardedEngine::single(
            instance,
            Box::new(NeverConflict),
            Box::new(ConstantInterest(0.5)),
            Box::new(GreedyArrangement),
            EngineConfig {
                staleness_check_interval: 2,
                ..EngineConfig::default()
            },
        );
        for u in 0..4u32 {
            engine
                .apply(&InstanceDelta::UpdateInteractionScore {
                    user: UserId::new(0),
                    score: 0.1 + 0.1 * f64::from(u),
                })
                .unwrap();
        }
        assert_eq!(engine.stats().staleness_checks, 2);
    }

    #[test]
    fn single_cold_solve_ratio_is_high_after_repairs() {
        let mut engine = single_for(3, 3);
        for i in 0..6 {
            engine
                .apply(&InstanceDelta::AddUser {
                    capacity: 1,
                    attrs: AttributeVector::empty(),
                    bids: vec![EventId::new(i % 3)],
                    interaction: 0.25,
                })
                .unwrap();
        }
        let ratio = engine.cold_solve_ratio();
        assert!(ratio >= 0.95, "ratio {ratio} too low");
    }
}
