//! Property tests for the sharded engine:
//!
//! * under arbitrary valid delta sequences and **any shard count**, the
//!   merged arrangement stays feasible for the full-capacity global
//!   instance (capacities, conflicts, bids — Definition 4) and the
//!   per-event quota invariant holds;
//! * a `ShardedEngine` with **one shard** reproduces a bare `Shard` over
//!   the full instance **bit for bit** — apply outcomes, rejections,
//!   stats, utility bits and pair sets — across applies, batches,
//!   queries and rebalances;
//! * reconciliation (periodic and explicit) never breaks feasibility and
//!   never loses pairs.

use igepa_algos::GreedyArrangement;
use igepa_core::{
    AttributeVector, CapacityTarget, ConstantInterest, EventId, HashPartitioner, Instance,
    InstanceDelta, NeverConflict, PairSetConflict, UserId,
};
use igepa_engine::{
    encode_response, EngineConfig, EngineError, EngineQuery, EngineRequest, EngineResponse,
    ReconcileReport, Shard, ShardStatsEntry, ShardedConfig, ShardedEngine,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A delta described by raw numbers; resolved against the engine's evolving
/// population at apply time so it is always valid.
#[derive(Debug, Clone)]
struct RawDelta {
    kind: u8,
    a: usize,
    b: usize,
    score: f64,
}

fn raw_delta_strategy() -> impl Strategy<Value = RawDelta> {
    (0u8..6, 0usize..64, 0usize..64, 0.0f64..=1.0).prop_map(|(kind, a, b, score)| RawDelta {
        kind,
        a,
        b,
        score,
    })
}

/// Event-churn-heavy sequences: announcements and capacity edits (the
/// broadcast kinds, which take the catalogue publish path) drawn with
/// ~4x the weight of user-side churn.
fn churn_heavy_strategy() -> impl Strategy<Value = RawDelta> {
    (0u8..10, 0usize..64, 0usize..64, 0.0f64..=1.0).prop_map(|(pick, a, b, score)| {
        // 0..6 map onto AddEvent (2) / UpdateCapacity (3, event-target
        // biased via even b); 6..10 onto the user-side kinds.
        let (kind, b) = match pick {
            0..=2 => (2, b),
            3..=5 => (3, b & !1),
            6 => (0, b),
            7 => (4, b),
            8 => (5, b),
            _ => (1, b),
        };
        RawDelta { kind, a, b, score }
    })
}

/// Resolves a raw delta against current instance dimensions.
fn resolve(raw: &RawDelta, instance: &Instance) -> InstanceDelta {
    let num_events = instance.num_events();
    let num_users = instance.num_users();
    match raw.kind {
        0 => InstanceDelta::AddUser {
            capacity: 1 + raw.a % 3,
            attrs: AttributeVector::empty(),
            bids: if num_events == 0 {
                Vec::new()
            } else {
                vec![
                    EventId::new(raw.a % num_events),
                    EventId::new(raw.b % num_events),
                ]
            },
            interaction: raw.score,
        },
        1 if num_users > 0 => InstanceDelta::RemoveUser {
            user: UserId::new(raw.a % num_users),
        },
        2 => InstanceDelta::AddEvent {
            capacity: 1 + raw.b % 4,
            attrs: AttributeVector::empty(),
        },
        3 if num_events > 0 && raw.b.is_multiple_of(2) => InstanceDelta::UpdateCapacity {
            target: CapacityTarget::Event(EventId::new(raw.a % num_events)),
            capacity: raw.b % 5,
        },
        3 | 4 if num_users > 0 => {
            if raw.kind == 3 {
                InstanceDelta::UpdateCapacity {
                    target: CapacityTarget::User(UserId::new(raw.a % num_users)),
                    capacity: raw.b % 4,
                }
            } else {
                InstanceDelta::UpdateBids {
                    user: UserId::new(raw.a % num_users),
                    bids: if num_events == 0 {
                        Vec::new()
                    } else {
                        vec![EventId::new(raw.b % num_events)]
                    },
                }
            }
        }
        5 if num_users > 0 => InstanceDelta::UpdateInteractionScore {
            user: UserId::new(raw.a % num_users),
            score: raw.score,
        },
        // Population too small for the drawn kind: fall back to growth.
        _ => InstanceDelta::AddEvent {
            capacity: 1 + raw.b % 4,
            attrs: AttributeVector::empty(),
        },
    }
}

fn seeded_instance(num_events: usize, num_users: usize, conflicts: bool) -> Instance {
    let mut b = Instance::builder();
    let events: Vec<EventId> = (0..num_events)
        .map(|i| b.add_event(1 + i % 3, AttributeVector::empty()))
        .collect();
    for u in 0..num_users {
        let bids: Vec<EventId> = events
            .iter()
            .copied()
            .filter(|v| (v.index() + u) % 2 == 0)
            .collect();
        b.add_user(1 + u % 3, AttributeVector::empty(), bids);
    }
    b.interaction_scores((0..num_users).map(|u| (u as f64 * 0.13) % 1.0).collect());
    if conflicts && num_events >= 2 {
        let mut sigma = PairSetConflict::new();
        sigma.add(EventId::new(0), EventId::new(1));
        b.build(&sigma, &ConstantInterest(0.5)).unwrap()
    } else {
        b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap()
    }
}

fn sharded_over(instance: Instance, seed: u64, shards: usize, interval: u64) -> ShardedEngine {
    ShardedEngine::new(
        instance,
        Box::new(NeverConflict),
        Box::new(ConstantInterest(0.5)),
        Box::new(GreedyArrangement),
        Box::new(HashPartitioner),
        ShardedConfig {
            num_shards: shards,
            shard: EngineConfig {
                seed,
                staleness_check_interval: 8,
                ..EngineConfig::default()
            },
            reconcile_interval: interval,
            reconcile_rounds: 2,
        },
    )
}

/// The reference a one-shard engine must reproduce: a bare [`Shard`]
/// serving the full instance with the same knobs.
fn bare_shard_over(instance: Instance, seed: u64) -> Shard {
    Shard::new(
        instance,
        Arc::new(NeverConflict),
        Arc::new(ConstantInterest(0.5)),
        Arc::new(GreedyArrangement),
        EngineConfig {
            seed,
            staleness_check_interval: 8,
            ..EngineConfig::default()
        },
    )
}

/// Legacy-dialect answer of `request` computed from a bare shard alone:
/// applies run on the shard, queries read its state, and a rebalance is
/// a no-op (one shard has no boundary to reconcile).
fn bare_shard_response(shard: &mut Shard, request: &EngineRequest) -> EngineResponse {
    let applied = |result: Result<igepa_engine::ApplyOutcome, igepa_core::CoreError>| match result {
        Ok(outcome) => EngineResponse::Applied {
            kind: outcome.kind,
            repair: outcome.repair,
            utility: outcome.utility,
            num_pairs: outcome.num_pairs,
        },
        Err(e) => EngineResponse::Rejected {
            reason: match EngineError::from(&e) {
                EngineError::Rejected { reason } => reason.to_string(),
                other => other.to_string(),
            },
        },
    };
    match request {
        EngineRequest::Apply { delta } => applied(shard.apply(delta)),
        EngineRequest::ApplyBatch { deltas } => applied(shard.apply_batch(deltas)),
        EngineRequest::Rebalance => EngineResponse::Rebalanced {
            report: ReconcileReport::default(),
            utility: shard.utility(),
        },
        EngineRequest::Query { query } => match *query {
            EngineQuery::Utility => {
                let breakdown = shard.utility_breakdown();
                EngineResponse::Utility {
                    total: breakdown.total,
                    interest_sum: breakdown.interest_sum,
                    interaction_sum: breakdown.interaction_sum,
                }
            }
            EngineQuery::AssignmentsOf { user } => EngineResponse::Assignments {
                user,
                events: if user.index() < shard.instance().num_users() {
                    shard.arrangement().events_of(user).to_vec()
                } else {
                    Vec::new()
                },
            },
            EngineQuery::EventLoad { event } => {
                let (load, capacity) = if event.index() < shard.instance().num_events() {
                    (
                        shard.arrangement().load_of(event),
                        shard.instance().event(event).capacity,
                    )
                } else {
                    (0, 0)
                };
                EngineResponse::EventLoad {
                    event,
                    load,
                    capacity,
                }
            }
            EngineQuery::Stats => EngineResponse::Stats {
                stats: *shard.stats(),
            },
            EngineQuery::ShardStats => EngineResponse::ShardStats {
                shards: vec![ShardStatsEntry {
                    shard: 0,
                    users: shard.instance().num_users(),
                    pairs: shard.arrangement().len(),
                    utility: shard.utility(),
                    stats: *shard.stats(),
                    moved_in: 0,
                    moved_out: 0,
                }],
            },
            EngineQuery::MergedSnapshot => EngineResponse::Snapshot {
                num_events: shard.instance().num_events(),
                num_users: shard.instance().num_users(),
                utility: shard.utility(),
                pairs: shard.arrangement().pairs().collect(),
            },
            other => panic!("query {other:?} is not part of the one-shard pin"),
        },
        other => panic!("request {other:?} is not part of the one-shard pin"),
    }
}

/// Full-state comparison of a one-shard engine against its bare-shard
/// reference: stats, utility bits and the served pair set.
fn assert_one_shard_matches(shard: &Shard, sharded: &ShardedEngine) {
    assert_eq!(
        format!("{:?}", shard.stats()),
        format!("{:?}", sharded.stats())
    );
    let bare = shard.utility_breakdown();
    let merged = sharded.merged_utility();
    assert_eq!(bare.total.to_bits(), merged.total.to_bits());
    assert_eq!(bare.interest_sum.to_bits(), merged.interest_sum.to_bits());
    assert_eq!(
        bare.interaction_sum.to_bits(),
        merged.interaction_sum.to_bits()
    );
    assert_eq!(shard.utility().to_bits(), sharded.utility().to_bits());
    assert_eq!(
        shard.arrangement().pairs().collect::<Vec<_>>(),
        sharded.merged_arrangement().pairs().collect::<Vec<_>>()
    );
}

/// Quota invariant: per event, shard quotas sum to the mirror capacity.
fn assert_quota_invariant(engine: &ShardedEngine) {
    for event in engine.instance().events() {
        let total: usize = (0..engine.num_shards())
            .map(|k| engine.shard(k).quota_of(event.id))
            .sum();
        assert_eq!(
            total, event.capacity,
            "quota invariant broken on {}",
            event.id
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn merged_arrangement_stays_feasible_for_any_shard_count(
        num_events in 1usize..5,
        num_users in 1usize..6,
        with_conflicts in any::<bool>(),
        shards in 1usize..5,
        raws in proptest::collection::vec(raw_delta_strategy(), 1..40),
        seed in 0u64..50,
    ) {
        let instance = seeded_instance(num_events, num_users, with_conflicts);
        // A short reconcile interval so the exchange protocol runs often.
        let mut engine = sharded_over(instance, seed, shards, 4);
        prop_assert!(engine.merged_arrangement().is_feasible(engine.instance()));
        for raw in &raws {
            let delta = resolve(raw, engine.instance());
            let outcome = engine.apply(&delta);
            prop_assert!(outcome.is_ok(), "resolved delta rejected: {:?}", outcome.err());
            // The serving invariant, merged across shards, after every
            // single delta: bids, capacities, conflicts all hold on the
            // full-capacity global instance.
            let merged = engine.merged_arrangement();
            prop_assert!(
                merged.is_feasible(engine.instance()),
                "infeasible after {:?}: {:?}",
                delta.kind(),
                merged.violations(engine.instance())
            );
            assert_quota_invariant(&engine);
        }
        // An explicit full rebalance keeps everything feasible and never
        // drops served pairs.
        let before = engine.num_pairs();
        engine.rebalance();
        prop_assert!(engine.num_pairs() >= before);
        prop_assert!(engine.merged_arrangement().is_feasible(engine.instance()));
        assert_quota_invariant(&engine);
    }

    /// The monolithic reference is a bare [`Shard`] over the full
    /// instance: one shard must answer every request exactly as it does.
    #[test]
    fn one_shard_reproduces_monolithic_responses_bit_for_bit(
        num_events in 1usize..4,
        num_users in 1usize..4,
        raws in proptest::collection::vec(raw_delta_strategy(), 1..30),
        batch_every in 2usize..5,
        seed in 0u64..50,
    ) {
        let instance = seeded_instance(num_events, num_users, true);
        let mut bare = bare_shard_over(instance.clone(), seed);
        let mut sharded = sharded_over(instance, seed, 1, 4);

        // Interleave applies, batches, every query kind and rebalances,
        // resolving raw deltas against the bare shard's state.
        let mut pending_batch: Vec<InstanceDelta> = Vec::new();
        let mut requests: Vec<EngineRequest> = Vec::new();
        for (i, raw) in raws.iter().enumerate() {
            let delta = resolve(raw, bare.instance());
            if i % batch_every == 0 {
                pending_batch.push(delta);
                if pending_batch.len() == 2 {
                    requests.push(EngineRequest::ApplyBatch {
                        deltas: std::mem::take(&mut pending_batch),
                    });
                }
            } else {
                requests.push(EngineRequest::Apply { delta });
            }
            if i % 5 == 4 {
                // An always-invalid delta: both engines must reject it
                // identically AND report it identically in later stats.
                requests.push(EngineRequest::Apply {
                    delta: InstanceDelta::UpdateInteractionScore {
                        user: UserId::new(bare.instance().num_users() + 7),
                        score: 0.5,
                    },
                });
            }
            match i % 7 {
                1 => requests.push(EngineRequest::Query { query: EngineQuery::Utility }),
                2 => requests.push(EngineRequest::Query {
                    query: EngineQuery::AssignmentsOf { user: UserId::new(raw.a % 8) },
                }),
                3 => requests.push(EngineRequest::Query {
                    query: EngineQuery::EventLoad { event: EventId::new(raw.b % 8) },
                }),
                4 => requests.push(EngineRequest::Query { query: EngineQuery::Stats }),
                5 => requests.push(EngineRequest::Query { query: EngineQuery::ShardStats }),
                6 => requests.push(EngineRequest::Rebalance),
                _ => requests.push(EngineRequest::Query { query: EngineQuery::MergedSnapshot }),
            }
            // Process the interleaved stream immediately so the next raw
            // delta resolves against the evolved population.
            for request in requests.drain(..) {
                let bare_response = bare_shard_response(&mut bare, &request);
                let sharded_response = sharded.handle(&request);
                // Bit-for-bit: the serialized lines must be identical
                // (covers every f64 exactly as it will hit a replay log).
                prop_assert_eq!(
                    encode_response(&bare_response),
                    encode_response(&sharded_response),
                    "diverged on request {:?}",
                    request
                );
                assert_one_shard_matches(&bare, &sharded);
            }
        }
        prop_assert_eq!(bare.arrangement().len(), sharded.num_pairs());
    }

    /// The tentpole memory invariant under the workload it exists for:
    /// arbitrary churn-heavy delta sequences (announcement/capacity
    /// dominated) never split the shared conflict matrix — mirror,
    /// catalogue and every shard keep `Arc::ptr_eq` handles — while the
    /// catalogue's true capacities track the mirror, quotas keep summing
    /// to true capacity, and the merged arrangement stays feasible.
    #[test]
    fn churn_heavy_sequences_keep_one_shared_conflict_matrix(
        shards in 1usize..5,
        raws in proptest::collection::vec(churn_heavy_strategy(), 1..40),
        seed in 0u64..50,
    ) {

        let instance = seeded_instance(3, 5, true);
        let mut engine = sharded_over(instance, seed, shards, 4);
        for raw in &raws {
            let delta = resolve(raw, engine.instance());
            let outcome = engine.apply(&delta);
            prop_assert!(outcome.is_ok(), "resolved delta rejected: {:?}", outcome.err());
            let mirror = engine.instance().conflicts_handle();
            prop_assert!(
                Arc::ptr_eq(mirror, engine.catalog().snapshot().conflicts_handle()),
                "catalogue forked its matrix after {:?}", delta.kind()
            );
            for k in 0..engine.num_shards() {
                prop_assert!(
                    Arc::ptr_eq(mirror, engine.shard(k).instance().conflicts_handle()),
                    "shard {} forked its matrix after {:?}", k, delta.kind()
                );
            }
            for event in engine.instance().events() {
                prop_assert_eq!(engine.catalog().true_capacity(event.id), event.capacity);
            }
            assert_quota_invariant(&engine);
            prop_assert!(engine.merged_arrangement().is_feasible(engine.instance()));
        }
    }

    /// Heavy event churn through the catalogue publish path must not
    /// perturb the one-shard ≡ bare-shard equivalence: applies and
    /// batches answer bit-for-bit identically.
    #[test]
    fn one_shard_stays_bit_for_bit_under_heavy_event_churn(
        raws in proptest::collection::vec(churn_heavy_strategy(), 1..40),
        batch_every in 2usize..4,
        seed in 0u64..50,
    ) {
        let instance = seeded_instance(2, 3, true);
        let mut bare = bare_shard_over(instance.clone(), seed);
        let mut sharded = sharded_over(instance, seed, 1, 4);
        let mut pending: Vec<InstanceDelta> = Vec::new();
        for (i, raw) in raws.iter().enumerate() {
            let delta = resolve(raw, bare.instance());
            let request = if i % batch_every == 0 {
                pending.push(delta);
                if pending.len() < 2 {
                    continue;
                }
                EngineRequest::ApplyBatch { deltas: std::mem::take(&mut pending) }
            } else {
                EngineRequest::Apply { delta }
            };
            let bare_response = bare_shard_response(&mut bare, &request);
            let sharded_response = sharded.handle(&request);
            prop_assert_eq!(
                encode_response(&bare_response),
                encode_response(&sharded_response),
                "diverged on request {:?}",
                request
            );
            assert_one_shard_matches(&bare, &sharded);
        }
        prop_assert_eq!(bare.arrangement().len(), sharded.num_pairs());
    }

    /// The tracker pin of the O(1)-utility redesign: after *any* valid
    /// delta sequence, on a bare shard and on every shard of a sharded
    /// engine, the incrementally maintained
    /// utility breakdown (what `Utility` queries and apply outcomes now
    /// read in O(1)) equals a from-scratch exact recompute over the
    /// served arrangement — bit for bit, component by component. The
    /// reverse attendee index is cross-checked against a brute-force
    /// per-user scan at the same time.
    #[test]
    fn tracked_breakdown_equals_from_scratch_recompute_bit_for_bit(
        num_events in 1usize..5,
        num_users in 1usize..6,
        shards in 1usize..4,
        raws in proptest::collection::vec(raw_delta_strategy(), 1..40),
        seed in 0u64..50,
    ) {
        let instance = seeded_instance(num_events, num_users, true);
        let mut bare = bare_shard_over(instance.clone(), seed);
        let mut sharded = sharded_over(instance, seed, shards, 4);
        for raw in &raws {
            let delta = resolve(raw, bare.instance());
            bare.apply(&delta).unwrap();
            sharded.apply(&delta).unwrap();

            // A bare shard over the full instance.
            let tracked = bare.utility_breakdown();
            let fresh = bare.arrangement().utility(bare.instance());
            prop_assert_eq!(tracked.total.to_bits(), fresh.total.to_bits());
            prop_assert_eq!(tracked.interest_sum.to_bits(), fresh.interest_sum.to_bits());
            prop_assert_eq!(
                tracked.interaction_sum.to_bits(),
                fresh.interaction_sum.to_bits()
            );

            // Every shard of the sharded backend, plus its reverse index.
            for k in 0..sharded.num_shards() {
                let shard = sharded.shard(k);
                let tracked = shard.utility_breakdown();
                let fresh = shard.arrangement().utility(shard.instance());
                prop_assert_eq!(tracked.total.to_bits(), fresh.total.to_bits());
                prop_assert_eq!(
                    tracked.interest_sum.to_bits(),
                    fresh.interest_sum.to_bits()
                );
                prop_assert_eq!(
                    tracked.interaction_sum.to_bits(),
                    fresh.interaction_sum.to_bits()
                );

                let m = shard.arrangement();
                for v in 0..m.num_events() {
                    let v = EventId::new(v);
                    let scan: Vec<UserId> = (0..m.num_users())
                        .map(UserId::new)
                        .filter(|&u| m.contains(v, u))
                        .collect();
                    prop_assert_eq!(m.users_of(v), scan.as_slice());
                    prop_assert_eq!(m.load_of(v), m.users_of(v).len());
                }
            }
        }
    }

    #[test]
    fn stats_aggregate_matches_shard_totals(
        shards in 1usize..4,
        raws in proptest::collection::vec(raw_delta_strategy(), 1..20),
        seed in 0u64..20,
    ) {
        let instance = seeded_instance(3, 4, false);
        let mut engine = sharded_over(instance, seed, shards, 0);
        let mut applied = 0u64;
        for raw in &raws {
            let delta = resolve(raw, engine.instance());
            if engine.apply(&delta).is_ok() {
                applied += 1;
            }
        }
        let stats = engine.stats();
        // Broadcast deltas count once per shard; user-routed ones once.
        prop_assert!(stats.deltas_applied >= applied);
        prop_assert_eq!(stats.deltas_rejected, 0);
        let per_shard: u64 = (0..engine.num_shards())
            .map(|k| engine.shard(k).stats().deltas_applied)
            .sum();
        prop_assert_eq!(stats.deltas_applied, per_shard);
    }
}
