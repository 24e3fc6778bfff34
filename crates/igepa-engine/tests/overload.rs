//! Overload-control and fault-injection liveness tests.
//!
//! The engine's degradation contract, exercised end to end over TCP:
//! under a randomized request trace, a randomized (possibly tiny)
//! admission cap, and a randomized deterministic fault plan (slow
//! applies, lost view shipments), every request the client puts on the
//! wire gets **exactly one typed response** — an ack, an engine
//! rejection, or an overload shed — never a silent drop, a panic, or a
//! deadlock; cached reads keep answering from a concurrent connection
//! the whole time; and the server shuts down with a feasible merged
//! arrangement. Degrade, never collapse.

use igepa_algos::GreedyArrangement;
use igepa_core::{
    AttributeVector, ConstantInterest, EventId, HashPartitioner, Instance, InstanceDelta,
    NeverConflict, UserId,
};
use igepa_engine::{
    AdmissionPolicy, ClientError, EngineClient, EngineConfig, EngineError, EngineQuery,
    EngineRequest, EngineResponse, EngineServer, FaultInjector, FaultPlan, Framing, ServerOptions,
    ShardedConfig, ShardedEngine,
};
use proptest::prelude::*;
use std::net::TcpListener;
use std::sync::Arc;

fn seeded_instance(num_events: usize, num_users: usize) -> Instance {
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
    b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap()
}

/// A 4-shard engine under the given admission policy.
fn engine_with_admission(seed: u64, admission: AdmissionPolicy) -> ShardedEngine {
    ShardedEngine::new(
        seeded_instance(4, 6),
        Box::new(NeverConflict),
        Box::new(ConstantInterest(0.5)),
        Box::new(GreedyArrangement),
        Box::new(HashPartitioner),
        ShardedConfig {
            num_shards: 4,
            shard: EngineConfig {
                seed,
                admission,
                ..EngineConfig::default()
            },
            reconcile_interval: 8,
            reconcile_rounds: 2,
        },
    )
}

/// A raw draw resolved into a protocol request: growth deltas, score
/// updates, an out-of-range probe the engine rejects (a *typed*
/// rejection is a valid response under overload too), and reads.
fn request_for(raw: (u8, usize, f64)) -> EngineRequest {
    let (op, a, score) = raw;
    match op {
        0 | 1 => EngineRequest::Apply {
            delta: InstanceDelta::AddUser {
                capacity: 1 + a % 3,
                attrs: AttributeVector::empty(),
                bids: vec![EventId::new(a % 4)],
                interaction: score,
            },
        },
        2 => EngineRequest::Apply {
            delta: InstanceDelta::AddEvent {
                capacity: 1 + a % 4,
                attrs: AttributeVector::empty(),
            },
        },
        3 => EngineRequest::Apply {
            delta: InstanceDelta::UpdateInteractionScore {
                user: UserId::new(a % 6),
                score,
            },
        },
        4 => EngineRequest::Apply {
            delta: InstanceDelta::UpdateInteractionScore {
                user: UserId::new(9999),
                score,
            },
        },
        5 => EngineRequest::Query {
            query: EngineQuery::Utility,
        },
        6 => EngineRequest::Query {
            query: EngineQuery::EventLoad {
                event: EventId::new(a % 4),
            },
        },
        _ => EngineRequest::Rebalance,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// See the module docs: exactly one typed response per request,
    /// reads keep flowing, feasible shutdown — under random traces,
    /// caps, and fault plans.
    #[test]
    fn overload_sheds_are_typed_and_liveness_holds(
        raws in proptest::collection::vec((0u8..8, 0usize..64, 0.0f64..=1.0), 1..40),
        cap in 0usize..6,
        fault_seed in 0u64..1_000_000,
        slow_permille in (0u8..3).prop_map(|i| [0u16, 200, 1000][i as usize]),
        drop_permille in (0u8..3).prop_map(|i| [0u16, 200, 1000][i as usize]),
        window in 1usize..9,
    ) {
        let requests: Vec<EngineRequest> = raws.into_iter().map(request_for).collect();
        let total = requests.len();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let faults = Arc::new(FaultInjector::new(FaultPlan {
            seed: fault_seed,
            slow_apply_permille: slow_permille,
            slow_apply_ms: 1,
            drop_view_permille: drop_permille,
            ..FaultPlan::quiet()
        }));
        let engine = engine_with_admission(fault_seed ^ 0x5eed, AdmissionPolicy::bounded(cap));
        let handle = EngineServer::serve(listener, engine, ServerOptions { framing: Framing::Lines, durability: None, faults: Some(Arc::clone(&faults)) })
        .unwrap();
        let addr = handle.local_addr();

        // A concurrent reader on its own connection: cached reads must
        // keep answering while the writer floods the admission gate.
        let reader = std::thread::spawn(move || {
            let mut client = EngineClient::connect(addr, Framing::Lines).unwrap();
            let mut answered = 0usize;
            for _ in 0..16 {
                match client.query(EngineQuery::Utility) {
                    Ok(EngineResponse::Utility { .. }) => answered += 1,
                    other => panic!("reader starved or got garbage: {other:?}"),
                }
            }
            answered
        });

        let mut client = EngineClient::connect(addr, Framing::Lines).unwrap();
        client.set_pipeline_window(window);

        // Two zero-budget probes: deterministic DeadlineExceeded unless
        // admission sheds them first — either way a typed refusal.
        for _ in 0..2 {
            let id = client
                .send_with_deadline(request_for((0, 1, 0.5)), Some(0))
                .unwrap();
            match client.recv(id) {
                Err(ClientError::Engine(
                    EngineError::DeadlineExceeded { deadline_ms: 0 }
                    | EngineError::Overloaded { .. },
                )) => {}
                other => prop_assert!(false, "zero-budget probe got {other:?}"),
            }
        }

        let results = client.pipeline(requests).unwrap();
        // Exactly one response per request, in order, every one typed.
        prop_assert_eq!(results.len(), total);
        for result in &results {
            match result {
                Ok(_) => {}
                Err(
                    EngineError::Overloaded { .. }
                    | EngineError::DeadlineExceeded { .. }
                    | EngineError::Rejected { .. }
                    | EngineError::NotFound { .. },
                ) => {}
                Err(other) => prop_assert!(false, "untyped/unexpected failure: {other:?}"),
            }
        }

        prop_assert_eq!(reader.join().expect("reader panicked"), 16);
        drop(client);
        let engine = handle.shutdown().unwrap();
        prop_assert!(engine.merged_arrangement().is_feasible(engine.instance()));
    }
}

/// Regression pin at the integration level: a pre-admission config (no
/// `admission` key) decodes to the unbounded policy, and a server built
/// from it admits every mutation — the legacy behaviour, bit for bit. A
/// config carrying the retired cost-model batch policy, its online
/// calibration and a repair thread count decodes to the same config.
#[test]
fn legacy_config_decodes_unbounded_and_serves_unthrottled() {
    let pre_admission = "{\"seed\":7,\"escalation_fraction\":0.25,\
                         \"staleness_check_interval\":256,\"max_staleness\":0.05,\
                         \"batch_policy\":\"Escalation\",\
                         \"online_cost_calibration\":false,\
                         \"durability\":\"Off\",\"repair_threads\":1}";
    let retired = "{\"seed\":7,\"escalation_fraction\":0.25,\
                   \"staleness_check_interval\":256,\"max_staleness\":0.05,\
                   \"batch_policy\":{\"CostModel\":{\"patch_cost_per_candidate\":175.0,\
                   \"solve_cost_per_bid\":115.0}},\
                   \"online_cost_calibration\":true,\
                   \"durability\":\"Off\",\"repair_threads\":4}";
    for legacy in [pre_admission, retired] {
        let decoded: EngineConfig = serde_json::from_str(legacy).unwrap();
        assert_eq!(decoded.admission, AdmissionPolicy::Unbounded);
        let expected = EngineConfig {
            seed: 7,
            ..EngineConfig::default()
        };
        assert_eq!(decoded, expected);
        assert_eq!(
            serde_json::to_string(&decoded).unwrap(),
            serde_json::to_string(&expected).unwrap()
        );

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let engine = ShardedEngine::new(
            seeded_instance(4, 6),
            Box::new(NeverConflict),
            Box::new(ConstantInterest(0.5)),
            Box::new(GreedyArrangement),
            Box::new(HashPartitioner),
            ShardedConfig {
                num_shards: 4,
                shard: decoded,
                reconcile_interval: 8,
                reconcile_rounds: 2,
            },
        );
        let handle =
            EngineServer::serve(listener, engine, ServerOptions::from(Framing::Lines)).unwrap();
        let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();
        for i in 0..32 {
            let response = client.call(request_for((0, i, 0.5))).unwrap();
            assert!(matches!(response, EngineResponse::Applied { .. }));
        }
        drop(client);
        handle.shutdown().unwrap();
    }
}
