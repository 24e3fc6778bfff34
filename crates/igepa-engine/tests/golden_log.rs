//! Golden-log compatibility suite.
//!
//! `tests/golden/pre_envelope_requests.jsonl` is a checked-in request log
//! in the *pre-envelope* wire format (bare `EngineRequest` lines, as every
//! log recorded before the service-layer redesign). The contract pinned
//! here: that log must keep decoding, and replaying it through the new
//! [`EngineService`] over a one-shard `ShardedEngine` must keep producing
//! **byte-identical** responses, matching
//! `tests/golden/pre_envelope_responses.jsonl`.
//!
//! Regenerate both files with `UPDATE_GOLDEN=1 cargo test -p igepa-engine
//! --test golden_log` after an *intentional* protocol change, and review
//! the diff like any other API break.

use igepa_algos::GreedyArrangement;
use igepa_core::{
    AttributeVector, CapacityTarget, ConstantInterest, EventId, Instance, InstanceDelta,
    NeverConflict, UserId,
};
use igepa_engine::{
    encode_response, replay, requests_from_jsonl, requests_to_jsonl, EngineConfig, EngineQuery,
    EngineRequest, EngineService, ShardedEngine,
};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The deterministic base instance the log was recorded against: three
/// capacity-2 events, four capacity-2 users bidding on everything.
fn base_instance() -> Instance {
    let mut b = Instance::builder();
    let events: Vec<EventId> = (0..3)
        .map(|_| b.add_event(2, AttributeVector::empty()))
        .collect();
    for _ in 0..4 {
        b.add_user(2, AttributeVector::empty(), events.clone());
    }
    b.interaction_scores(vec![0.5; 4]);
    b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap()
}

fn one_shard() -> ShardedEngine {
    ShardedEngine::single(
        base_instance(),
        Box::new(NeverConflict),
        Box::new(ConstantInterest(0.5)),
        Box::new(GreedyArrangement),
        EngineConfig::default(),
    )
}

/// The scripted request sequence behind the checked-in log: every delta
/// kind, a batch, a rebalance, every query — including the out-of-range
/// `AssignmentsOf` / `EventLoad` lookups whose silent `[]` / `(0, 0)`
/// answers the legacy dialect pins — and one rejected delta.
fn scripted_requests() -> Vec<EngineRequest> {
    vec![
        EngineRequest::Query {
            query: EngineQuery::Utility,
        },
        EngineRequest::Apply {
            delta: InstanceDelta::AddUser {
                capacity: 1,
                attrs: AttributeVector::empty(),
                bids: vec![EventId::new(0)],
                interaction: 0.8,
            },
        },
        EngineRequest::Apply {
            delta: InstanceDelta::AddEvent {
                capacity: 3,
                attrs: AttributeVector::from_time(10, 60),
            },
        },
        EngineRequest::Apply {
            delta: InstanceDelta::UpdateCapacity {
                target: CapacityTarget::Event(EventId::new(0)),
                capacity: 1,
            },
        },
        EngineRequest::Apply {
            delta: InstanceDelta::UpdateCapacity {
                target: CapacityTarget::User(UserId::new(1)),
                capacity: 1,
            },
        },
        EngineRequest::Apply {
            delta: InstanceDelta::UpdateBids {
                user: UserId::new(2),
                bids: vec![EventId::new(1), EventId::new(3)],
            },
        },
        EngineRequest::Apply {
            delta: InstanceDelta::UpdateInteractionScore {
                user: UserId::new(0),
                score: 0.9,
            },
        },
        EngineRequest::Apply {
            delta: InstanceDelta::RemoveUser {
                user: UserId::new(3),
            },
        },
        // Rejected: the user does not exist.
        EngineRequest::Apply {
            delta: InstanceDelta::UpdateInteractionScore {
                user: UserId::new(99),
                score: 0.5,
            },
        },
        EngineRequest::ApplyBatch {
            deltas: vec![
                InstanceDelta::AddUser {
                    capacity: 2,
                    attrs: AttributeVector::empty(),
                    bids: vec![EventId::new(1), EventId::new(3)],
                    interaction: 0.6,
                },
                InstanceDelta::UpdateInteractionScore {
                    user: UserId::new(1),
                    score: 0.7,
                },
            ],
        },
        EngineRequest::Rebalance,
        // Legacy silent answers for out-of-range ids.
        EngineRequest::Query {
            query: EngineQuery::AssignmentsOf {
                user: UserId::new(99),
            },
        },
        EngineRequest::Query {
            query: EngineQuery::EventLoad {
                event: EventId::new(99),
            },
        },
        EngineRequest::Query {
            query: EngineQuery::AssignmentsOf {
                user: UserId::new(0),
            },
        },
        EngineRequest::Query {
            query: EngineQuery::EventLoad {
                event: EventId::new(0),
            },
        },
        EngineRequest::Query {
            query: EngineQuery::Stats,
        },
        EngineRequest::Query {
            query: EngineQuery::ShardStats,
        },
        EngineRequest::Query {
            query: EngineQuery::MergedSnapshot,
        },
        EngineRequest::Query {
            query: EngineQuery::Utility,
        },
    ]
}

/// Replays `requests` through a fresh service and renders the responses
/// as JSONL, exactly as a response recorder would.
fn responses_jsonl(engine: ShardedEngine, requests: &[EngineRequest]) -> String {
    let mut service = EngineService::new(engine);
    requests
        .iter()
        .map(|request| encode_response(&service.handle(request)) + "\n")
        .collect()
}

#[test]
fn golden_log_replays_byte_identically_through_the_service() {
    let dir = golden_dir();
    let requests_path = dir.join("pre_envelope_requests.jsonl");
    let responses_path = dir.join("pre_envelope_responses.jsonl");

    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&requests_path, requests_to_jsonl(&scripted_requests())).unwrap();
        std::fs::write(
            &responses_path,
            responses_jsonl(one_shard(), &scripted_requests()),
        )
        .unwrap();
    }

    let log =
        std::fs::read_to_string(&requests_path).expect("checked-in golden request log is readable");
    let requests = requests_from_jsonl(&log).expect("pre-envelope log still decodes");
    assert_eq!(
        requests,
        scripted_requests(),
        "checked-in golden requests drifted from the script in this file"
    );

    let golden = std::fs::read_to_string(&responses_path)
        .expect("checked-in golden response log is readable");
    assert_eq!(
        responses_jsonl(one_shard(), &requests),
        golden,
        "one-shard responses drifted from the golden log"
    );
}

#[test]
fn golden_log_replays_through_the_replay_driver() {
    // The replay driver takes the same service path, so its response
    // stream must match a hand-driven service byte for byte too.
    let log = std::fs::read_to_string(golden_dir().join("pre_envelope_requests.jsonl")).unwrap();
    let requests = requests_from_jsonl(&log).unwrap();
    let outcome = replay(&mut one_shard(), &requests);
    let driven: String = outcome
        .responses
        .iter()
        .map(|response| encode_response(response) + "\n")
        .collect();
    let golden =
        std::fs::read_to_string(golden_dir().join("pre_envelope_responses.jsonl")).unwrap();
    assert_eq!(driven, golden);
    assert_eq!(outcome.report.rejected, 1);
    assert_eq!(outcome.report.requests, requests.len());
}
