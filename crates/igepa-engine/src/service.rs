//! The service layer: protocol semantics defined once.
//!
//! Every semantic decision of the protocol lives here, against the one
//! serving engine, [`ShardedEngine`] (a one-shard engine built by
//! [`ShardedEngine::single`] serves the unpartitioned instance). The
//! TCP transport's dispatcher, the replay driver and crash recovery all
//! call into this module, so they cannot drift apart.
//!
//! [`EngineService`] speaks two dialects: the **legacy** path reproduces
//! the pre-envelope protocol bit for bit (stringly `Rejected`, silent
//! `[]` / `(0, 0)` answers for unknown ids), and the **strict** path —
//! used for [`RequestEnvelope`]s at [`PROTOCOL_VERSION`] — returns typed
//! [`EngineError`]s instead.
//!
//! A recorded pre-envelope JSONL log therefore replays through
//! [`EngineService`] with byte-identical responses, while new clients get
//! a versioned, typed API on the same code path.

use crate::coordinator::ShardedEngine;
use crate::error::{EngineError, EntityRef};
use crate::protocol::{
    decode_request_envelope, EngineQuery, EngineRequest, EngineResponse, RequestEnvelope,
    ResponseEnvelope, LEGACY_VERSION, PROTOCOL_VERSION,
};
use crate::shard::ApplyOutcome;

/// Builds the `Applied` response from an apply outcome (shared by the
/// service dispatch and the per-shard worker transport).
pub(crate) fn applied_response(outcome: ApplyOutcome) -> EngineResponse {
    EngineResponse::Applied {
        kind: outcome.kind,
        repair: outcome.repair,
        utility: outcome.utility,
        num_pairs: outcome.num_pairs,
    }
}

/// The single protocol interpretation. `strict` selects the enveloped
/// dialect: out-of-range query ids become [`EngineError::NotFound`]
/// instead of the legacy silent `[]` / `(0, 0)` answers.
fn try_dispatch(
    engine: &mut ShardedEngine,
    request: &EngineRequest,
    strict: bool,
) -> Result<EngineResponse, EngineError> {
    match request {
        EngineRequest::Apply { delta } => engine
            .apply(delta)
            .map(applied_response)
            .map_err(|e| EngineError::from(&e)),
        EngineRequest::ApplyBatch { deltas } => engine
            .apply_batch(deltas)
            .map(applied_response)
            .map_err(|e| EngineError::from(&e)),
        EngineRequest::Rebalance => {
            let report = engine.rebalance();
            let utility = engine.merged_utility().total;
            Ok(EngineResponse::Rebalanced { report, utility })
        }
        // Checkpoints are an admin action on the durability layer; the
        // durable TCP server intercepts them before dispatch. An engine
        // reached directly has no WAL to checkpoint.
        EngineRequest::Checkpoint => Err(EngineError::Rejected {
            reason: crate::error::RejectReason::Invalid {
                detail: "durability not enabled on this server".to_string(),
            },
        }),
        // The TCP server wraps this arm in its migration seam (barrier,
        // pre/post checkpoints, worker-pool resize); dispatched directly it
        // is the bare engine-side migration, which is what WAL replay needs
        // to re-perform the identical re-placement.
        EngineRequest::Reshard { num_shards } => engine
            .reshard(*num_shards)
            .map(|record| {
                let utility = engine.utility();
                EngineResponse::Resharded { record, utility }
            })
            .map_err(|detail| EngineError::Rejected {
                reason: crate::error::RejectReason::Invalid { detail },
            }),
        EngineRequest::Query { query } => answer(engine, *query, strict),
    }
}

fn answer(
    engine: &ShardedEngine,
    query: EngineQuery,
    strict: bool,
) -> Result<EngineResponse, EngineError> {
    match query {
        EngineQuery::Utility => {
            let breakdown = engine.merged_utility();
            Ok(EngineResponse::Utility {
                total: breakdown.total,
                interest_sum: breakdown.interest_sum,
                interaction_sum: breakdown.interaction_sum,
            })
        }
        EngineQuery::AssignmentsOf { user } => {
            if user.index() >= engine.instance().num_users() {
                if strict {
                    return Err(EngineError::NotFound {
                        entity: EntityRef::User { user },
                    });
                }
                return Ok(EngineResponse::Assignments {
                    user,
                    events: Vec::new(),
                });
            }
            Ok(EngineResponse::Assignments {
                user,
                events: engine.assignments_of(user),
            })
        }
        EngineQuery::EventLoad { event } => {
            if event.index() >= engine.instance().num_events() {
                if strict {
                    return Err(EngineError::NotFound {
                        entity: EntityRef::Event { event },
                    });
                }
                return Ok(EngineResponse::EventLoad {
                    event,
                    load: 0,
                    capacity: 0,
                });
            }
            Ok(EngineResponse::EventLoad {
                event,
                load: (0..engine.num_shards())
                    .map(|k| engine.shard(k).load_of(event))
                    .sum(),
                capacity: engine.instance().event(event).capacity,
            })
        }
        EngineQuery::Stats => Ok(EngineResponse::Stats {
            stats: engine.stats(),
        }),
        EngineQuery::ShardStats => Ok(EngineResponse::ShardStats {
            shards: engine.shard_stats_entries(),
        }),
        EngineQuery::MergedSnapshot => {
            let merged = engine.merged_arrangement();
            Ok(EngineResponse::Snapshot {
                num_events: engine.instance().num_events(),
                num_users: engine.instance().num_users(),
                utility: merged.utility_value(engine.instance()),
                pairs: merged.pairs().collect(),
            })
        }
        // The durable TCP server answers this at its dispatcher with live
        // counters; an engine reached directly reports durability off.
        EngineQuery::DurabilityStats => Ok(EngineResponse::DurabilityStats {
            enabled: false,
            policy: "off".to_string(),
            wal_records: 0,
            wal_bytes: 0,
            fsyncs: 0,
            segments: 0,
            checkpoints: 0,
            last_checkpoint_seq: 0,
        }),
        // The TCP server answers this at its connection threads with live
        // counters; an engine reached directly has no dispatch queue.
        EngineQuery::OverloadStats => Ok(EngineResponse::OverloadStats {
            stats: crate::protocol::OverloadStats {
                policy: "unbounded".to_string(),
                queue_depth: 0,
                high_water: 0,
                shed: 0,
                deadline_expired: 0,
                read_only: false,
            },
        }),
    }
}

/// Handles one request with legacy (pre-envelope) semantics: rejections
/// come back as the stringly `Rejected` response and out-of-range query
/// ids answer silently. This is the path replayed request logs take.
pub fn handle_request(engine: &mut ShardedEngine, request: &EngineRequest) -> EngineResponse {
    match try_dispatch(engine, request, false) {
        Ok(response) => response,
        Err(EngineError::Rejected { reason }) => EngineResponse::Rejected {
            reason: reason.to_string(),
        },
        // Non-strict dispatch only fails on rejected deltas, but keep the
        // mapping total rather than panic on a future error kind.
        Err(other) => EngineResponse::Rejected {
            reason: other.to_string(),
        },
    }
}

/// Version-gated envelope dispatch; shared by
/// [`EngineService::handle_envelope`] and the TCP transport's barrier
/// path so the two can never disagree.
pub(crate) fn dispatch_envelope(
    engine: &mut ShardedEngine,
    envelope: &RequestEnvelope,
) -> ResponseEnvelope {
    let result = match envelope.version {
        PROTOCOL_VERSION => try_dispatch(engine, &envelope.body, true),
        LEGACY_VERSION => Ok(handle_request(engine, &envelope.body)),
        version => Err(EngineError::Unsupported { version }),
    };
    ResponseEnvelope {
        id: envelope.id,
        result,
    }
}

/// The engine service: the serving engine plus the protocol
/// interpretation.
///
/// The type parameter is always [`ShardedEngine`]: it is defaulted, and
/// the only `impl` block fixes it, so `EngineService` and
/// `EngineService<ShardedEngine>` name the same type. It exists only so
/// that callers which spell the type out as
/// `EngineService<ShardedEngine>` (the end-to-end benchmark does) keep
/// compiling.
///
/// ```
/// use igepa_core::{AttributeVector, ConstantInterest, Instance, NeverConflict};
/// use igepa_algos::GreedyArrangement;
/// use igepa_engine::{EngineConfig, EngineQuery, EngineRequest, EngineService, ShardedEngine};
///
/// let mut b = Instance::builder();
/// let v = b.add_event(2, AttributeVector::empty());
/// b.add_user(1, AttributeVector::empty(), vec![v]);
/// b.interaction_scores(vec![0.4]);
/// let instance = b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap();
/// let engine = ShardedEngine::single(
///     instance,
///     Box::new(NeverConflict),
///     Box::new(ConstantInterest(0.5)),
///     Box::new(GreedyArrangement),
///     EngineConfig::default(),
/// );
///
/// let mut service = EngineService::new(engine);
/// let response = service.handle(&EngineRequest::Query {
///     query: EngineQuery::Utility,
/// });
/// assert!(matches!(response, igepa_engine::EngineResponse::Utility { .. }));
/// ```
pub struct EngineService<E = ShardedEngine> {
    backend: E,
}

impl EngineService {
    /// Wraps an engine.
    pub fn new(engine: ShardedEngine) -> Self {
        EngineService { backend: engine }
    }

    /// The wrapped engine, read-only.
    pub fn backend(&self) -> &ShardedEngine {
        &self.backend
    }

    /// Unwraps the engine.
    pub fn into_backend(self) -> ShardedEngine {
        self.backend
    }

    /// Handles one request with legacy semantics (see [`handle_request`]).
    pub fn handle(&mut self, request: &EngineRequest) -> EngineResponse {
        handle_request(&mut self.backend, request)
    }

    /// Handles one request with strict semantics: typed errors, and
    /// `NotFound` for out-of-range query ids.
    pub fn try_handle(&mut self, request: &EngineRequest) -> Result<EngineResponse, EngineError> {
        try_dispatch(&mut self.backend, request, true)
    }

    /// Handles one enveloped request. The envelope's version selects the
    /// dialect: [`PROTOCOL_VERSION`] is strict, [`LEGACY_VERSION`] (the
    /// version assigned to bare pre-envelope requests by the decoder)
    /// keeps legacy semantics, and anything else is
    /// [`EngineError::Unsupported`].
    pub fn handle_envelope(&mut self, envelope: &RequestEnvelope) -> ResponseEnvelope {
        dispatch_envelope(&mut self.backend, envelope)
    }

    /// Decodes one wire line (enveloped or legacy-bare) and handles it.
    /// Undecodable lines answer [`EngineError::Malformed`] under
    /// `fallback_id` instead of tearing down the connection.
    pub fn handle_line(&mut self, line: &str, fallback_id: u64) -> ResponseEnvelope {
        match decode_request_envelope(line, fallback_id) {
            Ok(envelope) => self.handle_envelope(&envelope),
            Err(e) => ResponseEnvelope {
                id: fallback_id,
                result: Err(EngineError::Malformed { detail: e.message }),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RejectReason;
    use crate::shard::EngineConfig;
    use igepa_algos::GreedyArrangement;
    use igepa_core::{AttributeVector, ConstantInterest, EventId, Instance, NeverConflict, UserId};

    fn service_for(num_events: usize, num_users: usize) -> EngineService {
        let mut b = Instance::builder();
        let events: Vec<EventId> = (0..num_events)
            .map(|_| b.add_event(2, AttributeVector::empty()))
            .collect();
        for _ in 0..num_users {
            b.add_user(2, AttributeVector::empty(), events.clone());
        }
        b.interaction_scores(vec![0.5; num_users]);
        let instance = b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap();
        EngineService::new(ShardedEngine::single(
            instance,
            Box::new(NeverConflict),
            Box::new(ConstantInterest(0.5)),
            Box::new(GreedyArrangement),
            EngineConfig::default(),
        ))
    }

    #[test]
    fn legacy_out_of_range_queries_answer_silently() {
        let mut service = service_for(2, 2);
        let assignments = service.handle(&EngineRequest::Query {
            query: EngineQuery::AssignmentsOf {
                user: UserId::new(99),
            },
        });
        assert_eq!(
            assignments,
            EngineResponse::Assignments {
                user: UserId::new(99),
                events: Vec::new(),
            }
        );
        let load = service.handle(&EngineRequest::Query {
            query: EngineQuery::EventLoad {
                event: EventId::new(99),
            },
        });
        assert_eq!(
            load,
            EngineResponse::EventLoad {
                event: EventId::new(99),
                load: 0,
                capacity: 0,
            }
        );
    }

    #[test]
    fn strict_out_of_range_queries_are_not_found() {
        let mut service = service_for(2, 2);
        let err = service
            .try_handle(&EngineRequest::Query {
                query: EngineQuery::AssignmentsOf {
                    user: UserId::new(99),
                },
            })
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::NotFound {
                entity: EntityRef::User {
                    user: UserId::new(99),
                },
            }
        );
        let err = service
            .try_handle(&EngineRequest::Query {
                query: EngineQuery::EventLoad {
                    event: EventId::new(99),
                },
            })
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::NotFound {
                entity: EntityRef::Event {
                    event: EventId::new(99),
                },
            }
        );
    }

    #[test]
    fn strict_rejections_are_typed() {
        let mut service = service_for(2, 2);
        let err = service
            .try_handle(&EngineRequest::Apply {
                delta: igepa_core::InstanceDelta::UpdateInteractionScore {
                    user: UserId::new(9),
                    score: 0.5,
                },
            })
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::Rejected {
                reason: RejectReason::UnknownUser {
                    user: UserId::new(9),
                },
            }
        );
    }

    #[test]
    fn envelope_version_gates_the_dialect() {
        let mut service = service_for(2, 2);
        let query = EngineRequest::Query {
            query: EngineQuery::AssignmentsOf {
                user: UserId::new(99),
            },
        };
        // Strict version: NotFound.
        let strict =
            service.handle_envelope(&RequestEnvelope::new(1, PROTOCOL_VERSION, query.clone()));
        assert_eq!(strict.id, 1);
        assert!(matches!(strict.result, Err(EngineError::NotFound { .. })));
        // Legacy version: silent empty answer.
        let legacy =
            service.handle_envelope(&RequestEnvelope::new(2, LEGACY_VERSION, query.clone()));
        assert!(matches!(
            legacy.result,
            Ok(EngineResponse::Assignments { ref events, .. }) if events.is_empty()
        ));
        // Future version: unsupported.
        let future = service.handle_envelope(&RequestEnvelope::new(3, 42, query));
        assert_eq!(future.result, Err(EngineError::Unsupported { version: 42 }));
    }

    #[test]
    fn handle_line_reports_malformed_input() {
        let mut service = service_for(1, 1);
        let response = service.handle_line("not json at all", 7);
        assert_eq!(response.id, 7);
        assert!(matches!(
            response.result,
            Err(EngineError::Malformed { .. })
        ));
    }
}
