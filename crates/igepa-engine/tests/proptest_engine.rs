//! Property tests for the serving engine:
//!
//! * any sequence of valid deltas keeps the served arrangement feasible at
//!   every step;
//! * replaying a recorded request log from the same initial state
//!   reproduces responses — and the final utility — bit for bit;
//! * validation rejections never corrupt the engine.

use igepa_algos::{GreedyArrangement, LocalSearch};
use igepa_core::{
    AttributeVector, CapacityTarget, ConstantInterest, EventId, Instance, InstanceDelta,
    NeverConflict, PairSetConflict, UserId,
};
use igepa_datagen::{generate_trace, TraceConfig};
use igepa_engine::{replay, EngineConfig, EngineRequest, ShardedEngine};
use proptest::prelude::*;

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

fn engine_over(instance: Instance, seed: u64) -> ShardedEngine {
    ShardedEngine::single(
        instance,
        Box::new(NeverConflict),
        Box::new(ConstantInterest(0.5)),
        Box::new(GreedyArrangement),
        EngineConfig {
            seed,
            // Tight staleness control so the check path is exercised often.
            staleness_check_interval: 8,
            ..EngineConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_valid_delta_sequence_keeps_the_arrangement_feasible(
        num_events in 1usize..5,
        num_users in 1usize..5,
        with_conflicts in any::<bool>(),
        raws in proptest::collection::vec(raw_delta_strategy(), 1..40),
        seed in 0u64..100,
    ) {
        let instance = seeded_instance(num_events, num_users, with_conflicts);
        let mut engine = engine_over(instance, seed);
        prop_assert!(engine.merged_arrangement().is_feasible(engine.instance()));
        for raw in &raws {
            let delta = resolve(raw, engine.instance());
            let outcome = engine.apply(&delta);
            prop_assert!(outcome.is_ok(), "resolved delta rejected: {:?}", outcome.err());
            // The serving invariant: feasible after every single delta.
            prop_assert!(
                engine.merged_arrangement().is_feasible(engine.instance()),
                "infeasible after {:?}",
                delta.kind()
            );
        }
    }

    #[test]
    fn replaying_a_recorded_log_reproduces_utility_bit_for_bit(
        num_events in 1usize..4,
        num_users in 1usize..4,
        raws in proptest::collection::vec(raw_delta_strategy(), 1..30),
        seed in 0u64..50,
    ) {
        // Record: resolve raw deltas against a live engine, keeping the log.
        let instance = seeded_instance(num_events, num_users, false);
        let mut recorder = engine_over(instance.clone(), seed);
        let mut log: Vec<EngineRequest> = Vec::new();
        for raw in &raws {
            let delta = resolve(raw, recorder.instance());
            recorder.apply(&delta).unwrap();
            log.push(EngineRequest::Apply { delta });
        }
        let recorded_utility = recorder.utility();

        // Replay the recorded log twice from fresh engines.
        let first = replay(&mut engine_over(instance.clone(), seed), &log);
        let second = replay(&mut engine_over(instance, seed), &log);
        prop_assert_eq!(&first.responses, &second.responses);
        prop_assert_eq!(
            first.report.final_utility.to_bits(),
            second.report.final_utility.to_bits()
        );
        prop_assert_eq!(first.report.final_utility.to_bits(), recorded_utility.to_bits());
    }

    #[test]
    fn rejected_deltas_leave_served_state_untouched(
        num_events in 1usize..4,
        num_users in 1usize..4,
        offset in 0usize..10,
        score in 0.0f64..=1.0,
    ) {
        let instance = seeded_instance(num_events, num_users, false);
        let mut engine = engine_over(instance, 1);
        let utility_before = engine.utility();
        let pairs_before = engine.num_pairs();
        let bad_user = UserId::new(engine.instance().num_users() + offset);
        let result = engine.apply(&InstanceDelta::UpdateInteractionScore {
            user: bad_user,
            score,
        });
        prop_assert!(result.is_err());
        prop_assert_eq!(engine.utility().to_bits(), utility_before.to_bits());
        prop_assert_eq!(engine.num_pairs(), pairs_before);
    }
}

/// End-to-end: a generated arrival trace replays with every intermediate
/// arrangement feasible and the final utility within reach of a cold solve
/// of the final instance (the acceptance bar of the serving engine).
#[test]
fn generated_trace_replays_end_to_end_with_bounded_drift() {
    let instance = seeded_instance(4, 6, true);
    let trace = generate_trace(
        &instance,
        &TraceConfig {
            num_deltas: 600,
            ..TraceConfig::default()
        },
        42,
    );
    let mut engine = ShardedEngine::single(
        instance,
        Box::new(NeverConflict),
        Box::new(ConstantInterest(0.5)),
        Box::new(LocalSearch::default()),
        EngineConfig {
            seed: 9,
            staleness_check_interval: 64,
            max_staleness: 0.05,
            ..EngineConfig::default()
        },
    );
    for timed in &trace.deltas {
        engine.apply(&timed.delta).expect("trace deltas are valid");
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
    }
    let ratio = engine.cold_solve_ratio();
    assert!(ratio >= 0.95, "final utility only {ratio:.3} of cold solve");
}
