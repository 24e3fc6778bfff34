//! The serde-backed JSON-lines request/response protocol.
//!
//! One request per line, one response per request. Keeping the protocol as
//! plain data makes traces *reproducible artifacts*: a recorded JSONL file
//! plus the initial instance snapshot fully determines every intermediate
//! arrangement the engine served (the engine is deterministic).
//!
//! The protocol is **shard-aware** but degrades gracefully: a
//! [`ShardedEngine`] with one shard answers every request too
//! (`ShardStats` returns a single entry, `Rebalance` moves no quota), so a
//! request log recorded at one shard count replays at another.
//!
//! ## Envelopes
//!
//! On a wire, bare requests are not enough: responses need correlation
//! ids, failures need a typed representation, and the protocol needs room
//! to evolve. [`RequestEnvelope`] / [`ResponseEnvelope`] add exactly that
//! — `{id, version, body}` in, `{id, result}` out, where `result` is a
//! standard `Ok`/`Err` pairing of [`EngineResponse`] with
//! [`EngineError`]. Decoding stays **backwards
//! compatible**: [`decode_request_envelope`] accepts both enveloped lines
//! and bare pre-envelope requests (wrapped under [`LEGACY_VERSION`], which
//! the service layer answers with the original silent-and-stringly
//! semantics), and the envelope decoder tolerates the field aliases `seq`
//! (for `id`), `v` (for `version`) and `request` / `req` (for `body`).

use crate::coordinator::{ShardStatsEntry, ShardedEngine};
use crate::error::EngineError;
use crate::reconcile::ReconcileReport;
use crate::shard::{EngineStats, RepairKind};
use igepa_core::{EventId, InstanceDelta, UserId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Version tag of the current (strict, typed-error) protocol dialect.
pub const PROTOCOL_VERSION: u32 = 1;

/// Version assigned to bare pre-envelope requests by the legacy decode
/// path. The service layer answers this dialect with the original
/// pre-envelope semantics so recorded logs replay bit for bit.
pub const LEGACY_VERSION: u32 = 0;

/// A request to the serving engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EngineRequest {
    /// Apply one instance delta and repair.
    Apply {
        /// The mutation to apply.
        delta: InstanceDelta,
    },
    /// Apply a burst of deltas with a single repair pass.
    ApplyBatch {
        /// The mutations to apply, in order.
        deltas: Vec<InstanceDelta>,
    },
    /// Run a cross-shard reconciliation pass now (a one-shard engine has
    /// no boundary to reconcile, so the pass moves no quota).
    Rebalance,
    /// Write a durability checkpoint now: serialize the engine state,
    /// compact the WAL segments it covers. Answered with
    /// [`EngineResponse::CheckpointDone`] by a durable server and
    /// rejected when durability is not enabled.
    Checkpoint,
    /// Re-shard the serving engine to `num_shards` live: recompute user
    /// placement, move every migrating user's sub-state (interest
    /// columns, arrangement slice, exact-sum tracker contributions) and
    /// per-event quota share to its new owner, and rewrite the owner
    /// table — all without dropping a request. Answered with
    /// [`EngineResponse::Resharded`]. On a durable server
    /// the request is WAL-logged (catalogue-epoch-tagged, so it orders
    /// against event broadcasts) before execution; replaying the log
    /// re-performs the identical migration, so recovery across a
    /// reshard stays bit-exact.
    Reshard {
        /// The new shard count (≥ 1).
        num_shards: usize,
    },
    /// Read-only query against the served state.
    Query {
        /// The query to answer.
        query: EngineQuery,
    },
}

/// Summary of one completed live migration (the payload of
/// [`EngineResponse::Resharded`], and the shape recovery sees when it
/// replays a WAL-logged [`EngineRequest::Reshard`]).
///
/// The record is *catalogue-epoch-tagged*: `catalog_epoch` names the
/// event-catalogue version the migration executed under, which totally
/// orders it against `AddEvent` broadcasts in the WAL — a replayed log
/// re-runs the reshard against the identical catalogue and therefore
/// reproduces the identical placement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// Shard count before the migration.
    pub from_shards: usize,
    /// Shard count after the migration.
    pub to_shards: usize,
    /// Users whose owning shard changed.
    pub moved_users: u64,
    /// Per-event quota units re-assigned between shards.
    pub quota_moved: u64,
    /// Event-catalogue epoch the migration executed under.
    pub catalog_epoch: u64,
}

/// Read-only queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineQuery {
    /// Total utility of the served arrangement.
    Utility,
    /// Events currently assigned to a user.
    AssignmentsOf {
        /// The user to look up.
        user: UserId,
    },
    /// Load and capacity of an event.
    EventLoad {
        /// The event to look up.
        event: EventId,
    },
    /// Engine activity counters.
    Stats,
    /// Per-shard activity summaries (one entry on a one-shard engine).
    ShardStats,
    /// The full served arrangement, merged across shards.
    MergedSnapshot,
    /// Write-ahead log and checkpoint counters of a durable server
    /// (answered with `enabled: false` when durability is off).
    DurabilityStats,
    /// Overload counters of the serving endpoint: queue depth, shed
    /// and deadline-expired counts. A TCP server answers this from the
    /// connection thread without barriering the dispatcher; in-process
    /// engines have no dispatch queue and answer all-zero counters.
    OverloadStats,
}

/// Overload counters of a serving endpoint (the payload of
/// [`EngineResponse::OverloadStats`]).
///
/// All counters are cumulative since the server started. The TCP
/// transport maintains them on the connection threads' shared overload
/// state, so answering this query never barriers the dispatcher.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadStats {
    /// Admission policy in force (`"unbounded"`, `"bounded(64)"`, …).
    pub policy: String,
    /// Requests currently admitted but not yet dispatched.
    pub queue_depth: u64,
    /// High-water mark of the dispatch queue depth.
    pub high_water: u64,
    /// Mutations refused with
    /// [`EngineError::Overloaded`].
    pub shed: u64,
    /// Requests dropped with
    /// [`EngineError::DeadlineExceeded`]
    /// because their budget expired before dispatch.
    pub deadline_expired: u64,
    /// Whether the server is in read-only degraded mode (mutations
    /// shed, cached reads keep answering).
    pub read_only: bool,
}

/// A response from the serving engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EngineResponse {
    /// A delta (or batch) was applied.
    Applied {
        /// Delta kind (or `"batch"`).
        kind: String,
        /// How the arrangement was repaired.
        repair: RepairKind,
        /// Utility after repair.
        utility: f64,
        /// Pairs served after repair.
        num_pairs: usize,
    },
    /// A delta was rejected by validation; the engine state is unchanged
    /// (for batches: the prefix before the invalid delta stays applied).
    Rejected {
        /// Human-readable rejection reason.
        reason: String,
    },
    /// Answer to [`EngineQuery::Utility`].
    Utility {
        /// `β · Σ SI + (1 − β) · Σ D`.
        total: f64,
        /// Unweighted interest sum.
        interest_sum: f64,
        /// Unweighted interaction sum.
        interaction_sum: f64,
    },
    /// Answer to [`EngineQuery::AssignmentsOf`].
    Assignments {
        /// The queried user.
        user: UserId,
        /// Events assigned to the user, in id order.
        events: Vec<EventId>,
    },
    /// Answer to [`EngineQuery::EventLoad`].
    EventLoad {
        /// The queried event.
        event: EventId,
        /// Current number of attendees.
        load: usize,
        /// Capacity `c_v`.
        capacity: usize,
    },
    /// Answer to [`EngineQuery::Stats`].
    Stats {
        /// Engine activity counters (aggregated across shards).
        stats: EngineStats,
    },
    /// Answer to [`EngineQuery::ShardStats`].
    ShardStats {
        /// One entry per shard.
        shards: Vec<ShardStatsEntry>,
    },
    /// Answer to [`EngineQuery::MergedSnapshot`].
    Snapshot {
        /// Events the snapshot was sized for.
        num_events: usize,
        /// Users the snapshot was sized for.
        num_users: usize,
        /// Utility of the snapshot.
        utility: f64,
        /// The served `(event, user)` pairs, grouped by user.
        pairs: Vec<(EventId, UserId)>,
    },
    /// A [`EngineRequest::Rebalance`] ran.
    Rebalanced {
        /// What the reconciliation pass did.
        report: ReconcileReport,
        /// Utility after the pass.
        utility: f64,
    },
    /// A [`EngineRequest::Reshard`] completed: the engine now serves
    /// from the new shard layout, with every in-flight request for a
    /// moved user parked and replayed on its new owner.
    Resharded {
        /// What the migration did.
        record: MigrationRecord,
        /// Utility after the migration (bit-identical to the utility
        /// before it — migration re-partitions state, never re-solves).
        utility: f64,
    },
    /// A [`EngineRequest::Checkpoint`] was written.
    CheckpointDone {
        /// WAL sequence the checkpoint covers.
        wal_seq: u64,
        /// Size of the snapshot file in bytes.
        bytes: u64,
    },
    /// Answer to [`EngineQuery::DurabilityStats`].
    DurabilityStats {
        /// Whether the server runs with durability enabled.
        enabled: bool,
        /// Human-readable fsync policy (`"off"`, `"always"`, …).
        policy: String,
        /// Records appended to the WAL.
        wal_records: u64,
        /// Bytes appended to the WAL (frames, including headers).
        wal_bytes: u64,
        /// Fsyncs issued by the policy.
        fsyncs: u64,
        /// WAL segment files created.
        segments: u64,
        /// Checkpoints written.
        checkpoints: u64,
        /// WAL sequence covered by the last checkpoint (0: none yet).
        last_checkpoint_seq: u64,
    },
    /// Answer to [`EngineQuery::OverloadStats`].
    OverloadStats {
        /// Overload counters of the answering endpoint.
        stats: OverloadStats,
    },
}

/// Error raised when decoding protocol lines.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// 1-based line number of the offending input, when known.
    pub line: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "protocol error on line {line}: {}", self.message),
            None => write!(f, "protocol error: {}", self.message),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Encodes a request as one JSON line (no trailing newline).
pub fn encode_request(request: &EngineRequest) -> String {
    serde_json::to_string(request).expect("requests always serialize")
}

/// Decodes a request from one JSON line.
pub fn decode_request(line: &str) -> Result<EngineRequest, ProtocolError> {
    serde_json::from_str(line).map_err(|e| ProtocolError {
        line: None,
        message: e.to_string(),
    })
}

/// Encodes a response as one JSON line (no trailing newline).
pub fn encode_response(response: &EngineResponse) -> String {
    serde_json::to_string(response).expect("responses always serialize")
}

/// Decodes a response from one JSON line.
pub fn decode_response(line: &str) -> Result<EngineResponse, ProtocolError> {
    serde_json::from_str(line).map_err(|e| ProtocolError {
        line: None,
        message: e.to_string(),
    })
}

/// Serializes a request log to JSONL text (one request per line).
pub fn requests_to_jsonl(requests: &[EngineRequest]) -> String {
    let mut out = String::new();
    for request in requests {
        out.push_str(&encode_request(request));
        out.push('\n');
    }
    out
}

/// Parses a JSONL request log. Blank lines and `#`-prefixed comment lines
/// are skipped.
pub fn requests_from_jsonl(text: &str) -> Result<Vec<EngineRequest>, ProtocolError> {
    let mut requests = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let request = decode_request(trimmed).map_err(|mut e| {
            e.line = Some(idx + 1);
            e
        })?;
        requests.push(request);
    }
    Ok(requests)
}

// ------------------------------------------------------------ envelopes

/// A versioned, correlated request: what actually travels on a wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// Client-chosen correlation id, echoed in the response envelope.
    pub id: u64,
    /// Protocol dialect of `body` (see [`PROTOCOL_VERSION`]).
    pub version: u32,
    /// The request itself.
    pub body: EngineRequest,
    /// Optional per-request budget in milliseconds from arrival at the
    /// server. A request whose budget has already expired when the
    /// dispatcher dequeues it is dropped with
    /// [`EngineError::DeadlineExceeded`]
    /// instead of doing dead work. `None` (the legacy wire shape) means
    /// no deadline.
    pub deadline_ms: Option<u64>,
}

impl RequestEnvelope {
    /// An envelope without a deadline — the shape every pre-deadline
    /// client sent.
    pub fn new(id: u64, version: u32, body: EngineRequest) -> Self {
        RequestEnvelope {
            id,
            version,
            body,
            deadline_ms: None,
        }
    }
}

/// Hand-written so an envelope without a deadline serializes exactly as
/// it did before the field existed: `deadline_ms` is emitted only when
/// set, keeping recorded legacy envelope logs byte-identical.
impl serde::Serialize for RequestEnvelope {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("id".to_string(), serde::Serialize::to_value(&self.id)),
            (
                "version".to_string(),
                serde::Serialize::to_value(&self.version),
            ),
            ("body".to_string(), serde::Serialize::to_value(&self.body)),
        ];
        if let Some(deadline) = self.deadline_ms {
            entries.push((
                "deadline_ms".to_string(),
                serde::Serialize::to_value(&deadline),
            ));
        }
        serde::Value::Object(entries)
    }
}

/// Hand-written so the decoder accepts field aliases (`seq` for `id`, `v`
/// for `version`, `request` / `req` for `body`), defaults a missing
/// `version` to [`PROTOCOL_VERSION`] and a missing `deadline_ms` to
/// `None` (legacy payloads keep parsing) — the vendored serde derive has
/// no `#[serde(alias)]` / `#[serde(default)]`.
impl serde::Deserialize for RequestEnvelope {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let entries = serde::expect_object(value, "RequestEnvelope")?;
        let field = |names: &[&str]| {
            entries
                .iter()
                .find(|(k, _)| names.contains(&k.as_str()))
                .map(|(_, v)| v)
        };
        let id = match field(&["id", "seq"]) {
            Some(v) => serde::Deserialize::from_value(v)?,
            None => return Err(serde::DeError::msg("missing field `id` of RequestEnvelope")),
        };
        let version = match field(&["version", "v"]) {
            Some(v) => serde::Deserialize::from_value(v)?,
            None => PROTOCOL_VERSION,
        };
        let body = match field(&["body", "request", "req"]) {
            Some(v) => serde::Deserialize::from_value(v)?,
            None => {
                return Err(serde::DeError::msg(
                    "missing field `body` of RequestEnvelope",
                ))
            }
        };
        let deadline_ms = match field(&["deadline_ms", "deadline"]) {
            Some(v) => serde::Deserialize::from_value(v)?,
            None => None,
        };
        Ok(RequestEnvelope {
            id,
            version,
            body,
            deadline_ms,
        })
    }
}

/// The enveloped reply: the request's `id` plus a typed outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// Correlation id copied from the request envelope.
    pub id: u64,
    /// The response, or the typed failure.
    pub result: Result<EngineResponse, EngineError>,
}

/// Encodes a request envelope as one JSON line (no trailing newline).
pub fn encode_request_envelope(envelope: &RequestEnvelope) -> String {
    serde_json::to_string(envelope).expect("envelopes always serialize")
}

/// Decodes a request envelope from one wire line, accepting both
/// enveloped and bare pre-envelope requests.
///
/// A line whose top-level object carries a `body` / `request` / `req`
/// field decodes as an envelope; anything else takes the legacy path and
/// decodes as a bare [`EngineRequest`], wrapped under [`LEGACY_VERSION`]
/// with `fallback_id` as the correlation id.
pub fn decode_request_envelope(
    line: &str,
    fallback_id: u64,
) -> Result<RequestEnvelope, ProtocolError> {
    let value: serde::Value = serde_json::from_str(line).map_err(|e| ProtocolError {
        line: None,
        message: e.to_string(),
    })?;
    let enveloped = matches!(
        &value,
        serde::Value::Object(entries)
            if entries
                .iter()
                .any(|(k, _)| matches!(k.as_str(), "body" | "request" | "req"))
    );
    if enveloped {
        serde::Deserialize::from_value(&value).map_err(|e: serde::DeError| ProtocolError {
            line: None,
            message: e.to_string(),
        })
    } else {
        let body: EngineRequest =
            serde::Deserialize::from_value(&value).map_err(|e: serde::DeError| ProtocolError {
                line: None,
                message: e.to_string(),
            })?;
        Ok(RequestEnvelope::new(fallback_id, LEGACY_VERSION, body))
    }
}

/// Encodes a response envelope as one JSON line (no trailing newline).
pub fn encode_response_envelope(envelope: &ResponseEnvelope) -> String {
    serde_json::to_string(envelope).expect("envelopes always serialize")
}

/// Decodes a response envelope from one JSON line.
pub fn decode_response_envelope(line: &str) -> Result<ResponseEnvelope, ProtocolError> {
    serde_json::from_str(line).map_err(|e| ProtocolError {
        line: None,
        message: e.to_string(),
    })
}

// ------------------------------------------------- thin handle wrappers

impl ShardedEngine {
    /// Handles one protocol request, mutating the engine for `Apply` /
    /// `ApplyBatch` and answering queries read-only. Protocol semantics
    /// live in [`crate::service`]; this wrapper exists for callers that
    /// do not need a full [`EngineService`](crate::EngineService).
    pub fn handle(&mut self, request: &EngineRequest) -> EngineResponse {
        crate::service::handle_request(self, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igepa_core::AttributeVector;

    #[test]
    fn requests_roundtrip_through_jsonl() {
        let requests = vec![
            EngineRequest::Apply {
                delta: InstanceDelta::AddEvent {
                    capacity: 5,
                    attrs: AttributeVector::from_time(10, 60),
                },
            },
            EngineRequest::ApplyBatch {
                deltas: vec![
                    InstanceDelta::RemoveUser {
                        user: UserId::new(1),
                    },
                    InstanceDelta::UpdateInteractionScore {
                        user: UserId::new(0),
                        score: 0.75,
                    },
                ],
            },
            EngineRequest::Rebalance,
            EngineRequest::Query {
                query: EngineQuery::Utility,
            },
            EngineRequest::Query {
                query: EngineQuery::AssignmentsOf {
                    user: UserId::new(2),
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
            EngineRequest::Checkpoint,
            EngineRequest::Reshard { num_shards: 6 },
            EngineRequest::Query {
                query: EngineQuery::DurabilityStats,
            },
            EngineRequest::Query {
                query: EngineQuery::OverloadStats,
            },
        ];
        let jsonl = requests_to_jsonl(&requests);
        assert_eq!(jsonl.lines().count(), requests.len());
        let back = requests_from_jsonl(&jsonl).unwrap();
        assert_eq!(back, requests);
    }

    #[test]
    fn jsonl_skips_blanks_and_comments() {
        let text = "\n# a comment\n{\"Query\":{\"query\":\"Utility\"}}\n\n";
        let requests = requests_from_jsonl(text).unwrap();
        assert_eq!(requests.len(), 1);
    }

    #[test]
    fn pre_sharding_logs_still_decode() {
        // A request log recorded before the protocol grew shard-aware
        // variants must keep parsing unchanged.
        let legacy = "{\"Apply\":{\"delta\":{\"AddEvent\":{\"capacity\":2,\"attrs\":{\"time\":null,\"location\":null,\"categories\":[]}}}}}\n{\"Query\":{\"query\":\"Stats\"}}\n";
        let requests = requests_from_jsonl(legacy).unwrap();
        assert_eq!(requests.len(), 2);
        assert!(matches!(requests[0], EngineRequest::Apply { .. }));
    }

    #[test]
    fn decode_errors_carry_line_numbers() {
        let err =
            requests_from_jsonl("{\"Query\":{\"query\":\"Utility\"}}\nnot json\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn envelopes_roundtrip() {
        let envelope = RequestEnvelope::new(
            17,
            PROTOCOL_VERSION,
            EngineRequest::Query {
                query: EngineQuery::Utility,
            },
        );
        let line = encode_request_envelope(&envelope);
        assert_eq!(decode_request_envelope(&line, 0).unwrap(), envelope);
        // No deadline → the pre-deadline wire bytes, exactly.
        assert_eq!(
            line,
            "{\"id\":17,\"version\":1,\"body\":{\"Query\":{\"query\":\"Utility\"}}}"
        );

        let with_deadline = RequestEnvelope {
            deadline_ms: Some(250),
            ..envelope
        };
        let line = encode_request_envelope(&with_deadline);
        assert!(line.contains("\"deadline_ms\":250"));
        assert_eq!(decode_request_envelope(&line, 0).unwrap(), with_deadline);

        let response = ResponseEnvelope {
            id: 17,
            result: Ok(EngineResponse::Rejected {
                reason: "nope".to_string(),
            }),
        };
        let line = encode_response_envelope(&response);
        assert_eq!(decode_response_envelope(&line).unwrap(), response);

        let failure = ResponseEnvelope {
            id: 18,
            result: Err(crate::error::EngineError::Unsupported { version: 9 }),
        };
        let line = encode_response_envelope(&failure);
        assert_eq!(decode_response_envelope(&line).unwrap(), failure);
    }

    #[test]
    fn envelope_decoder_accepts_field_aliases() {
        let aliased = "{\"seq\":4,\"v\":1,\"request\":{\"Query\":{\"query\":\"Utility\"}}}";
        let envelope = decode_request_envelope(aliased, 0).unwrap();
        assert_eq!(envelope.id, 4);
        assert_eq!(envelope.version, PROTOCOL_VERSION);
        assert!(matches!(envelope.body, EngineRequest::Query { .. }));
        // A missing version defaults to the current dialect.
        let no_version = "{\"id\":5,\"body\":\"Rebalance\"}";
        let envelope = decode_request_envelope(no_version, 0).unwrap();
        assert_eq!(envelope.version, PROTOCOL_VERSION);
        assert_eq!(envelope.body, EngineRequest::Rebalance);
        // Legacy payloads carry no deadline; the decode arm defaults it.
        assert_eq!(envelope.deadline_ms, None);
        // The `deadline` alias and an explicit null both decode.
        let aliased = "{\"id\":6,\"body\":\"Rebalance\",\"deadline\":75}";
        assert_eq!(
            decode_request_envelope(aliased, 0).unwrap().deadline_ms,
            Some(75)
        );
        let null = "{\"id\":7,\"body\":\"Rebalance\",\"deadline_ms\":null}";
        assert_eq!(decode_request_envelope(null, 0).unwrap().deadline_ms, None);
    }

    #[test]
    fn bare_requests_decode_under_the_legacy_version() {
        let bare = "{\"Query\":{\"query\":\"Stats\"}}";
        let envelope = decode_request_envelope(bare, 41).unwrap();
        assert_eq!(envelope.id, 41);
        assert_eq!(envelope.version, LEGACY_VERSION);
        assert_eq!(
            envelope.body,
            EngineRequest::Query {
                query: EngineQuery::Stats,
            }
        );
        // Unit variants serialize as bare strings; those too.
        let envelope = decode_request_envelope("\"Rebalance\"", 2).unwrap();
        assert_eq!(envelope.version, LEGACY_VERSION);
        assert_eq!(envelope.body, EngineRequest::Rebalance);
    }

    #[test]
    fn undecodable_envelope_lines_error() {
        assert!(decode_request_envelope("not json", 0).is_err());
        assert!(decode_request_envelope("{\"id\":1,\"body\":{\"Nope\":3}}", 0).is_err());
    }

    #[test]
    fn responses_roundtrip() {
        let responses = vec![
            EngineResponse::Applied {
                kind: "add_user".to_string(),
                repair: RepairKind::GreedyPatch {
                    pruned: 1,
                    added: 2,
                },
                utility: 3.25,
                num_pairs: 7,
            },
            EngineResponse::Rejected {
                reason: "nope".to_string(),
            },
            EngineResponse::Stats {
                stats: EngineStats::default(),
            },
            EngineResponse::ShardStats {
                shards: vec![ShardStatsEntry {
                    shard: 1,
                    users: 4,
                    pairs: 3,
                    utility: 1.5,
                    stats: EngineStats::default(),
                    moved_in: 2,
                    moved_out: 1,
                }],
            },
            EngineResponse::Snapshot {
                num_events: 2,
                num_users: 3,
                utility: 0.75,
                pairs: vec![(EventId::new(0), UserId::new(2))],
            },
            EngineResponse::Rebalanced {
                report: ReconcileReport {
                    rounds_run: 1,
                    boundary_events: 2,
                    contended_events: 1,
                    quota_moved: 3,
                    shard_repairs: 1,
                },
                utility: 9.5,
            },
            EngineResponse::Resharded {
                record: MigrationRecord {
                    from_shards: 4,
                    to_shards: 6,
                    moved_users: 11,
                    quota_moved: 5,
                    catalog_epoch: 3,
                },
                utility: 2.5,
            },
            EngineResponse::CheckpointDone {
                wal_seq: 42,
                bytes: 8192,
            },
            EngineResponse::DurabilityStats {
                enabled: true,
                policy: "every(32)".to_string(),
                wal_records: 100,
                wal_bytes: 20480,
                fsyncs: 4,
                segments: 2,
                checkpoints: 1,
                last_checkpoint_seq: 64,
            },
            EngineResponse::OverloadStats {
                stats: OverloadStats {
                    policy: "bounded(8)".to_string(),
                    queue_depth: 3,
                    high_water: 8,
                    shed: 17,
                    deadline_expired: 2,
                    read_only: false,
                },
            },
        ];
        for response in responses {
            let line = encode_response(&response);
            assert_eq!(decode_response(&line).unwrap(), response);
        }
    }
}
