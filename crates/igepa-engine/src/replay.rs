//! Replay driver: feed a recorded request log to an engine and measure it.
//!
//! Replaying the same log against the same initial engine state reproduces
//! every response bit-for-bit (latencies are reported separately so the
//! response stream itself stays deterministic).

use crate::coordinator::ShardedEngine;
use crate::protocol::{requests_from_jsonl, EngineRequest, EngineResponse, ProtocolError};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Latency distribution over the replayed requests, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Mean per-request latency.
    pub mean_us: f64,
    /// Median per-request latency.
    pub p50_us: f64,
    /// 95th-percentile latency.
    pub p95_us: f64,
    /// 99th-percentile latency.
    pub p99_us: f64,
    /// Worst-case latency.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarizes a list of per-request latencies (microseconds).
    pub fn from_latencies(mut latencies: Vec<f64>) -> Self {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = latencies.len();
        let pct = |p: f64| latencies[(((n - 1) as f64) * p).round() as usize];
        LatencySummary {
            // lint:allow(no-raw-float-accum): latency reporting over one replay run; measurement output, not replayed engine state
            mean_us: latencies.iter().sum::<f64>() / n as f64,
            p50_us: pct(0.50),
            p95_us: pct(0.95),
            p99_us: pct(0.99),
            max_us: latencies[n - 1],
        }
    }
}

/// Aggregate report of one replay run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Total requests replayed.
    pub requests: usize,
    /// Requests that applied a delta (or batch) successfully.
    pub applied: usize,
    /// Requests rejected by validation.
    pub rejected: usize,
    /// Read-only queries answered.
    pub queries: usize,
    /// Per-request latency distribution.
    pub latency: LatencySummary,
    /// Utility served after the final request.
    pub final_utility: f64,
    /// Pairs served after the final request.
    pub final_pairs: usize,
}

/// Responses plus measurements from one replay run.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// One response per request, in order.
    pub responses: Vec<EngineResponse>,
    /// Aggregate measurements.
    pub report: ReplayReport,
}

/// Replays a request log against `engine`, measuring per-request latency.
pub fn replay(engine: &mut ShardedEngine, requests: &[EngineRequest]) -> ReplayOutcome {
    let mut responses = Vec::with_capacity(requests.len());
    let mut latencies = Vec::with_capacity(requests.len());
    let mut applied = 0usize;
    let mut rejected = 0usize;
    let mut queries = 0usize;

    for request in requests {
        let start = Instant::now();
        let response = engine.handle(request);
        latencies.push(start.elapsed().as_secs_f64() * 1e6);
        match &response {
            EngineResponse::Applied { .. } => applied += 1,
            EngineResponse::Rejected { .. } => rejected += 1,
            _ => queries += 1,
        }
        responses.push(response);
    }

    let report = ReplayReport {
        requests: requests.len(),
        applied,
        rejected,
        queries,
        latency: LatencySummary::from_latencies(latencies),
        final_utility: engine.utility(),
        final_pairs: engine.num_pairs(),
    };
    ReplayOutcome { responses, report }
}

/// Parses a JSONL request log and replays it.
pub fn replay_jsonl(
    engine: &mut ShardedEngine,
    text: &str,
) -> Result<ReplayOutcome, ProtocolError> {
    let requests = requests_from_jsonl(text)?;
    Ok(replay(engine, &requests))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::EngineQuery;
    use crate::shard::EngineConfig;
    use igepa_algos::GreedyArrangement;
    use igepa_core::{
        AttributeVector, ConstantInterest, EventId, Instance, InstanceDelta, NeverConflict,
    };

    fn fresh_engine() -> ShardedEngine {
        let mut b = Instance::builder();
        let v0 = b.add_event(2, AttributeVector::empty());
        let v1 = b.add_event(2, AttributeVector::empty());
        b.add_user(1, AttributeVector::empty(), vec![v0, v1]);
        b.interaction_scores(vec![0.6]);
        let instance = b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap();
        ShardedEngine::single(
            instance,
            Box::new(NeverConflict),
            Box::new(ConstantInterest(0.5)),
            Box::new(GreedyArrangement),
            EngineConfig::default(),
        )
    }

    fn sample_requests() -> Vec<EngineRequest> {
        vec![
            EngineRequest::Apply {
                delta: InstanceDelta::AddUser {
                    capacity: 2,
                    attrs: AttributeVector::empty(),
                    bids: vec![EventId::new(0), EventId::new(1)],
                    interaction: 0.8,
                },
            },
            EngineRequest::Query {
                query: EngineQuery::Utility,
            },
            EngineRequest::Apply {
                delta: InstanceDelta::AddEvent {
                    capacity: 3,
                    attrs: AttributeVector::empty(),
                },
            },
            EngineRequest::Apply {
                delta: InstanceDelta::UpdateInteractionScore {
                    user: igepa_core::UserId::new(99),
                    score: 0.5,
                },
            },
            EngineRequest::Query {
                query: EngineQuery::Stats,
            },
        ]
    }

    #[test]
    fn replay_counts_and_measures() {
        let mut engine = fresh_engine();
        let outcome = replay(&mut engine, &sample_requests());
        assert_eq!(outcome.report.requests, 5);
        assert_eq!(outcome.report.applied, 2);
        assert_eq!(outcome.report.rejected, 1);
        assert_eq!(outcome.report.queries, 2);
        assert!(outcome.report.latency.max_us >= outcome.report.latency.p50_us);
        assert!(outcome.report.final_utility > 0.0);
    }

    #[test]
    fn replaying_the_same_log_reproduces_responses_bit_for_bit() {
        let requests = sample_requests();
        let first = replay(&mut fresh_engine(), &requests);
        let second = replay(&mut fresh_engine(), &requests);
        assert_eq!(first.responses, second.responses);
        assert_eq!(
            first.report.final_utility.to_bits(),
            second.report.final_utility.to_bits()
        );
    }

    #[test]
    fn replay_jsonl_roundtrips_through_text() {
        let requests = sample_requests();
        let jsonl = crate::protocol::requests_to_jsonl(&requests);
        let from_memory = replay(&mut fresh_engine(), &requests);
        let from_text = replay_jsonl(&mut fresh_engine(), &jsonl).unwrap();
        assert_eq!(from_memory.responses, from_text.responses);
    }

    #[test]
    fn latency_summary_percentiles_are_ordered() {
        let summary = LatencySummary::from_latencies((1..=100).map(f64::from).collect());
        assert!(summary.p50_us <= summary.p95_us);
        assert!(summary.p95_us <= summary.p99_us);
        assert!(summary.p99_us <= summary.max_us);
        assert_eq!(summary.max_us, 100.0);
        assert_eq!(
            LatencySummary::from_latencies(vec![]),
            LatencySummary::default()
        );
    }
}
