//! TCP transport: framed envelope JSONL, a blocking client, and servers.
//!
//! The protocol was designed as data ([`crate::protocol`]); this module
//! puts it on a wire. Three pieces:
//!
//! * **Framing** — [`Framing::Lines`] sends one JSON document per
//!   `\n`-terminated line (telnet-debuggable, the JSONL logs verbatim);
//!   [`Framing::LengthPrefixed`] sends a `u32` big-endian byte length
//!   followed by the JSON payload (binary-safe, no scan for delimiters).
//!   Both carry exactly the envelope codecs of [`crate::protocol`].
//! * **[`EngineClient`]** — a blocking request/response client: every
//!   call sends one [`RequestEnvelope`] at [`PROTOCOL_VERSION`] and waits
//!   for the matching [`ResponseEnvelope`]. It also **pipelines**
//!   ([`EngineClient::send`] / [`EngineClient::recv`] /
//!   [`EngineClient::pipeline`]): a whole burst goes on the wire before
//!   the first response is read, with responses matched to outstanding
//!   correlation ids on receipt — removing the RTT-per-request floor.
//! * **[`EngineServer`]** — [`EngineServer::serve`] detaches a
//!   [`ShardedEngine`]'s shards into **per-shard worker threads**. Shards
//!   are independent between reconcile passes, so user-scoped `Apply`
//!   requests are validated on the coordinator and executed concurrently
//!   on the owning shard's worker, while event broadcasts, batches,
//!   `Checkpoint` and `Rebalance` run a barrier (drain in-flight
//!   applies, collect the shards, execute on the attached engine,
//!   redistribute). With [`ServerOptions::durability`] set, a
//!   [`DurabilityController`] sits in front of the dispatcher: every
//!   admitted mutating request is appended to the write-ahead log
//!   *before* it is dispatched (and so before its ack — a failed append
//!   refuses the request), `Checkpoint` requests and automatic every-N
//!   checkpoints serialize the engine at a barrier, and the
//!   `DurabilityStats` query reads the live counters.
//!
//! **Barrier-free reads**: every read query — the aggregates `Utility` /
//! `Stats` / `ShardStats`, the per-entity reads `AssignmentsOf` /
//! `EventLoad`, *and* `MergedSnapshot` — is answered without stopping
//! the worker pool. Every worker ships an epoch-tagged read-state view
//! (utility breakdown, utility tracker, counters, and a snapshot of its
//! assignment slices) with each apply completion; the dispatcher
//! installs it in a shared `QueryCache` — together with the
//! coordinator's user→shard owner table — *before* acking the apply, and
//! connection threads answer straight from that cache (`EventLoad`
//! merges the per-shard loads right there; `MergedSnapshot` rebuilds the
//! global pair list through the owner table and absorbs the per-shard
//! trackers for an *exact* merged utility, falling back to the
//! dispatch-queue barrier only when an owner row is newer than its
//! shard's view). A reader therefore cannot stall the repair path, and a
//! client that has seen an apply ack can never be served the pre-apply
//! epoch.
//!
//! A client driving requests synchronously observes exactly the
//! in-process [`EngineService`](crate::EngineService) responses — the
//! worker pool and the query cache change *where* work runs, never what
//! it produces.
//! Concurrent clients interleave at request granularity in coordinator
//! arrival order; the merged arrangement stays feasible because every
//! delta still passes the coordinator's mirror validation and quota
//! accounting.

use crate::coordinator::{ShardStatsEntry, ShardedEngine};
use crate::durability::{is_mutating, DurabilityController};
use crate::error::EngineError;
use crate::faults::{splitmix64, FaultInjector};
use crate::protocol::{
    decode_request_envelope, decode_response_envelope, encode_request_envelope,
    encode_response_envelope, EngineQuery, EngineRequest, EngineResponse, OverloadStats,
    ProtocolError, RequestEnvelope, ResponseEnvelope, LEGACY_VERSION, PROTOCOL_VERSION,
};
use crate::service::{applied_response, dispatch_envelope};
use crate::shard::{AdmissionPolicy, ApplyOutcome, EngineStats, Shard};
use igepa_core::{
    ArrangementDiff, CapacityTarget, InstanceDelta, UserId, UtilityBreakdown, UtilityTracker,
};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How JSON documents are delimited on the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Framing {
    /// One document per `\n`-terminated line (blank lines are skipped).
    #[default]
    Lines,
    /// `u32` big-endian payload length, then the payload bytes.
    LengthPrefixed,
}

/// Upper bound on a length-prefixed frame. The length word is
/// attacker-controlled bytes off a socket; allocating whatever it says
/// (up to 4 GiB) before reading the payload would let a handful of
/// connections exhaust memory. 64 MiB comfortably fits any batch this
/// protocol produces.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Writes one framed payload.
pub fn write_frame(writer: &mut impl Write, framing: Framing, payload: &str) -> io::Result<()> {
    match framing {
        Framing::Lines => {
            writer.write_all(payload.as_bytes())?;
            writer.write_all(b"\n")?;
        }
        Framing::LengthPrefixed => {
            let len = u32::try_from(payload.len())
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32"))?;
            writer.write_all(&len.to_be_bytes())?;
            writer.write_all(payload.as_bytes())?;
        }
    }
    writer.flush()
}

/// Reads one framed payload; `Ok(None)` signals a clean end of stream.
pub fn read_frame(reader: &mut impl BufRead, framing: Framing) -> io::Result<Option<String>> {
    match framing {
        Framing::Lines => loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                return Ok(Some(trimmed.to_string()));
            }
        },
        Framing::LengthPrefixed => {
            let mut len_bytes = [0u8; 4];
            match reader.read_exact(&mut len_bytes) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
                Err(e) => return Err(e),
            }
            let len = u32::from_be_bytes(len_bytes) as usize;
            if len > MAX_FRAME_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
                ));
            }
            let mut payload = vec![0u8; len];
            reader.read_exact(&mut payload)?;
            String::from_utf8(payload)
                .map(Some)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
        }
    }
}

// ----------------------------------------------------------------- client

/// Everything a blocking call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server's reply did not decode.
    Protocol(ProtocolError),
    /// The server answered with a typed engine error.
    Engine(EngineError),
    /// The server closed the stream mid-call.
    Disconnected,
    /// The reply's correlation id did not match the request.
    IdMismatch {
        /// Id the client sent.
        expected: u64,
        /// Id the server echoed.
        got: u64,
    },
    /// [`EngineClient::recv`] was asked for an id this client never sent
    /// (or whose response was already consumed) — a local API misuse,
    /// unlike [`ClientError::IdMismatch`], which is a server protocol
    /// violation.
    UnknownId {
        /// The id that was never outstanding.
        id: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "undecodable reply: {e}"),
            ClientError::Engine(e) => write!(f, "{e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::IdMismatch { expected, got } => {
                write!(f, "response id {got} does not match request id {expected}")
            }
            ClientError::UnknownId { id } => {
                write!(
                    f,
                    "request id {id} was never sent (or its response was already consumed)"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking request/response client speaking [`PROTOCOL_VERSION`].
///
/// Besides the one-at-a-time [`EngineClient::call`], the client
/// **pipelines**: [`EngineClient::send`] puts a request on the wire
/// without waiting and [`EngineClient::recv`] matches responses to
/// outstanding correlation ids on receipt (buffering any that arrive for
/// a different id). [`EngineClient::pipeline`] drives a whole burst this
/// way — every request is in flight before the first response is read —
/// which removes the RTT-per-request floor the serial call pattern pays:
/// throughput becomes server-bound instead of round-trip-bound, and the
/// responses are byte-identical to the serial pattern's (pinned by test).
pub struct EngineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    framing: Framing,
    next_id: u64,
    /// The peer actually connected to, kept for
    /// [`EngineClient::reconnect`].
    addr: SocketAddr,
    /// Send-ahead bound for [`EngineClient::pipeline`]; defaults to
    /// [`EngineClient::PIPELINE_WINDOW`].
    pipeline_window: usize,
    /// Ids sent but not yet handed to the caller.
    outstanding: std::collections::BTreeSet<u64>,
    /// Responses that arrived while waiting for a different id.
    received: std::collections::BTreeMap<u64, Result<EngineResponse, EngineError>>,
}

impl EngineClient {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs, framing: Framing) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(EngineClient {
            reader: BufReader::new(stream.try_clone()?),
            addr: stream.peer_addr()?,
            writer: stream,
            framing,
            next_id: 1,
            pipeline_window: Self::PIPELINE_WINDOW,
            outstanding: std::collections::BTreeSet::new(),
            received: std::collections::BTreeMap::new(),
        })
    }

    /// Tears the socket down and dials the same server again. All
    /// outstanding pipelined ids are forgotten — their responses died
    /// with the old connection — which is exactly why only idempotent
    /// reads ([`EngineClient::query_resilient`]) replay across a
    /// reconnect: a mutation whose ack was lost may or may not have
    /// applied.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = stream;
        self.outstanding.clear();
        self.received.clear();
        Ok(())
    }

    /// Sends one request without waiting for its response; returns the
    /// correlation id to later [`EngineClient::recv`] with. The send-side
    /// half of pipelining.
    pub fn send(&mut self, body: EngineRequest) -> Result<u64, ClientError> {
        self.send_with_deadline(body, None)
    }

    /// [`EngineClient::send`] with a per-request budget: the server
    /// drops the request with [`EngineError::DeadlineExceeded`] if
    /// `deadline_ms` milliseconds (counted from arrival at the server)
    /// have already elapsed when the dispatcher dequeues it. The check
    /// uses `elapsed >= deadline`, so `deadline_ms = 0` expires
    /// deterministically — a zero-budget probe that measures queue
    /// pressure without ever doing work.
    pub fn send_with_deadline(
        &mut self,
        body: EngineRequest,
        deadline_ms: Option<u64>,
    ) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut envelope = RequestEnvelope::new(id, PROTOCOL_VERSION, body);
        envelope.deadline_ms = deadline_ms;
        write_frame(
            &mut self.writer,
            self.framing,
            &encode_request_envelope(&envelope),
        )?;
        self.outstanding.insert(id);
        Ok(id)
    }

    /// Receives the response for a previously [`EngineClient::send`]-sent
    /// id, buffering responses that arrive for other outstanding ids. A
    /// response for an id this client never sent is a protocol violation
    /// ([`ClientError::IdMismatch`]).
    pub fn recv(&mut self, id: u64) -> Result<EngineResponse, ClientError> {
        if !self.outstanding.remove(&id) && !self.received.contains_key(&id) {
            return Err(ClientError::UnknownId { id });
        }
        if let Some(result) = self.received.remove(&id) {
            return result.map_err(ClientError::Engine);
        }
        loop {
            let line =
                read_frame(&mut self.reader, self.framing)?.ok_or(ClientError::Disconnected)?;
            let response: ResponseEnvelope =
                decode_response_envelope(&line).map_err(ClientError::Protocol)?;
            if response.id == id {
                return response.result.map_err(ClientError::Engine);
            }
            if !self.outstanding.remove(&response.id) {
                return Err(ClientError::IdMismatch {
                    expected: id,
                    got: response.id,
                });
            }
            self.received.insert(response.id, response.result);
        }
    }

    /// Sends one request and waits for its response. Typed failures the
    /// server reports ([`EngineError`]) come back as
    /// [`ClientError::Engine`].
    pub fn call(&mut self, body: EngineRequest) -> Result<EngineResponse, ClientError> {
        let id = self.send(body)?;
        self.recv(id)
    }

    /// Pipelines a burst: requests are sent ahead without waiting, and
    /// responses are matched by correlation id in request order.
    /// Engine-level failures come back per request; only transport
    /// failures abort the whole burst.
    ///
    /// In-flight requests are capped at the configured
    /// [`EngineClient::pipeline_window`] — a fully unbounded send-ahead
    /// would deadlock once a burst outgrows the TCP socket buffers (the
    /// server stops reading while its response writes block, the client
    /// stops reading while its sends block). The window keeps the RTT
    /// floor amortised away while bounding buffered bytes.
    pub fn pipeline(
        &mut self,
        bodies: Vec<EngineRequest>,
    ) -> Result<Vec<Result<EngineResponse, EngineError>>, ClientError> {
        let mut results = Vec::with_capacity(bodies.len());
        let mut in_flight: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
        let mut bodies = bodies.into_iter();
        loop {
            while in_flight.len() < self.pipeline_window {
                match bodies.next() {
                    Some(body) => in_flight.push_back(self.send(body)?),
                    None => break,
                }
            }
            let Some(id) = in_flight.pop_front() else {
                break;
            };
            results.push(match self.recv(id) {
                Ok(response) => Ok(Ok(response)),
                Err(ClientError::Engine(e)) => Ok(Err(e)),
                Err(other) => Err(other),
            }?);
        }
        Ok(results)
    }

    /// Default for [`EngineClient::pipeline_window`]. At typical
    /// envelope sizes this stays far below loopback socket buffers;
    /// bursts of larger responses (e.g. `MergedSnapshot` of a big
    /// instance) should be driven at a window sized to the expected
    /// response volume ([`EngineClient::set_pipeline_window`], or
    /// `send`/`recv` directly).
    pub const PIPELINE_WINDOW: usize = 32;

    /// The current pipelining send-ahead window.
    pub fn pipeline_window(&self) -> usize {
        self.pipeline_window
    }

    /// Reconfigures the pipelining send-ahead window, clamped to at
    /// least 1 (a window of 1 degenerates to the serial call pattern —
    /// same responses, RTT floor back in force). Large windows trade
    /// buffered bytes for throughput; see the deadlock note on
    /// [`EngineClient::pipeline`] before exceeding socket-buffer scale.
    pub fn set_pipeline_window(&mut self, window: usize) {
        self.pipeline_window = window.max(1);
    }

    /// Applies one delta.
    pub fn apply(&mut self, delta: InstanceDelta) -> Result<EngineResponse, ClientError> {
        self.call(EngineRequest::Apply { delta })
    }

    /// Answers one read-only query.
    pub fn query(&mut self, query: EngineQuery) -> Result<EngineResponse, ClientError> {
        self.call(EngineRequest::Query { query })
    }

    /// [`EngineClient::call`] with deterministic seeded backoff:
    /// an [`EngineError::Overloaded`] refusal sleeps (honouring the
    /// server's `retry_after_ms` hint as a floor) and resends, up to
    /// `policy.max_retries` times. `Overloaded` guarantees nothing was
    /// enqueued or applied, so resending is safe for mutations too.
    /// Every other outcome — success, other typed errors, transport
    /// failures — returns immediately.
    pub fn call_with_retry(
        &mut self,
        body: EngineRequest,
        policy: &RetryPolicy,
    ) -> Result<EngineResponse, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.call(body.clone()) {
                Err(ClientError::Engine(EngineError::Overloaded { retry_after_ms, .. }))
                    if attempt < policy.max_retries =>
                {
                    thread::sleep(Duration::from_millis(
                        policy.backoff_ms(attempt, retry_after_ms),
                    ));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// A read-only query that additionally survives transport
    /// failures: reads are idempotent, so a broken connection
    /// reconnects to the same server and replays the query (mutations
    /// must never do this — see [`EngineClient::reconnect`]).
    /// `Overloaded` refusals back off exactly like
    /// [`EngineClient::call_with_retry`]; both recovery kinds share
    /// the `policy.max_retries` budget.
    pub fn query_resilient(
        &mut self,
        query: EngineQuery,
        policy: &RetryPolicy,
    ) -> Result<EngineResponse, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.call(EngineRequest::Query { query }) {
                Err(ClientError::Engine(EngineError::Overloaded { retry_after_ms, .. }))
                    if attempt < policy.max_retries =>
                {
                    thread::sleep(Duration::from_millis(
                        policy.backoff_ms(attempt, retry_after_ms),
                    ));
                    attempt += 1;
                }
                Err(ClientError::Io(_)) | Err(ClientError::Disconnected)
                    if attempt < policy.max_retries =>
                {
                    thread::sleep(Duration::from_millis(policy.backoff_ms(attempt, 0)));
                    attempt += 1;
                    // A failed redial leaves the old (dead) socket in
                    // place; the next iteration's call fails fast and
                    // spends another retry redialing.
                    let _ = self.reconnect();
                }
                other => return other,
            }
        }
    }
}

/// Deterministic retry schedule for [`EngineClient::call_with_retry`]
/// and [`EngineClient::query_resilient`]: exponential backoff whose
/// jitter comes from a seeded hash, so a given `(seed, attempt)` always
/// sleeps the same amount — reproducible in tests, yet two clients
/// seeded differently fan out instead of retrying in lockstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff scale before the first retry; doubles per attempt.
    pub base_ms: u64,
    /// Cap on any single backoff.
    pub cap_ms: u64,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_ms: 10,
            cap_ms: 1_000,
            seed: 0x1ce_b00da,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (0-based): half the capped
    /// exponential step is kept, half is jittered by the seeded hash,
    /// and the server's `retry_after_ms` hint acts as a floor. A pure
    /// function of `(self, attempt, retry_after_ms)`.
    pub fn backoff_ms(&self, attempt: u32, retry_after_ms: u64) -> u64 {
        let step = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.cap_ms);
        let jitter = splitmix64(self.seed ^ u64::from(attempt)) % (step / 2 + 1);
        (step - step / 2 + jitter).max(retry_after_ms)
    }
}

// ----------------------------------------------------------------- server

/// One shard's read-side state, computed by its worker after every apply
/// and cached coordinator-side, tagged with the count of applies the
/// shard has absorbed (its *repair epoch*). The dispatcher answers
/// `Utility` / `Stats` / `ShardStats` **and the per-entity reads**
/// (`AssignmentsOf`, `EventLoad`) from these views without barriering
/// the worker pool; the view is installed **before** the corresponding
/// apply is acked, so a reader that has seen an ack can never be served
/// the pre-apply epoch.
#[derive(Debug, Clone)]
struct ShardView {
    /// Applies absorbed by the shard when this view was taken.
    epoch: u64,
    /// Users owned by the shard (including retired ones).
    users: usize,
    /// Pairs the shard currently serves.
    pairs: usize,
    /// Utility breakdown of the shard's slice of the arrangement.
    breakdown: UtilityBreakdown,
    /// The shard's exact-sum utility accumulators. Absorbing every view's
    /// tracker into a fresh one reproduces the merged arrangement's
    /// utility bit for bit ([`UtilityTracker::absorb`] is exact and
    /// partition-independent), which lets `MergedSnapshot` be served
    /// from the cache without a barrier.
    tracker: UtilityTracker,
    /// The shard's repair-loop counters.
    stats: EngineStats,
    /// Snapshot of the shard's arrangement (shard-local user ids), taken
    /// on the worker after the repair. Backs the cached per-entity reads:
    /// `AssignmentsOf` borrows the owning shard's `events_of` slice and
    /// `EventLoad` merges `load_of` across shards — both in the
    /// connection thread. The snapshot is an O(shard pairs) clone per
    /// apply, taken off the dispatch thread.
    assignments: Arc<igepa_core::Arrangement>,
}

impl ShardView {
    fn of(shard: &Shard) -> Self {
        let stats = *shard.stats();
        ShardView {
            epoch: stats.deltas_applied,
            users: shard.instance().num_users(),
            pairs: shard.arrangement().len(),
            breakdown: shard.utility_breakdown(),
            tracker: shard.tracker().clone(),
            stats,
            assignments: Arc::new(shard.arrangement().clone()),
        }
    }
}

/// A [`ShardView`] shipped as a **diff** against the view the cache
/// already holds: full replacement metadata (all O(1) to produce) plus
/// the net pair edits of the repair ([`ArrangementDiff`]), instead of an
/// O(shard pairs) arrangement clone. The worker records the edits as the
/// repair makes them, so producing the delta is O(changed); the cache
/// replays them onto its installed snapshot in place. `parent_epoch`
/// names the view the diff applies on top of — the chain is unbroken by
/// construction (single dispatcher writer, worker resync on every
/// barrier resume), and a full [`ShardView`] remains the fallback
/// whenever the worker cannot vouch for the chain (first apply after a
/// resume with a discarded recorder, full re-solves, staleness adoptions).
struct ViewDelta {
    /// Epoch of the installed view this diff extends.
    parent_epoch: u64,
    /// Epoch of the view after applying this diff.
    epoch: u64,
    /// Users owned by the shard (replacement value).
    users: usize,
    /// Pairs the shard serves after the apply (replacement value).
    pairs: usize,
    /// Post-apply utility breakdown (replacement value).
    breakdown: UtilityBreakdown,
    /// Post-apply exact-sum accumulators (replacement value).
    tracker: UtilityTracker,
    /// Post-apply repair-loop counters (replacement value).
    stats: EngineStats,
    /// Net pair edits since the parent view.
    diff: ArrangementDiff,
}

/// How a worker ships its post-apply read-state to the query cache:
/// a full snapshot or a diff against the previously shipped view.
enum ViewUpdate {
    /// Replace the installed view wholesale (resync fallback).
    Full(Box<ShardView>),
    /// Patch the installed view in place (the O(changed) hot path).
    Diff(Box<ViewDelta>),
    /// The shipment was lost (fault injection: a dropped worker
    /// reply). The apply itself executed; the dispatcher recovers the
    /// never-stale-after-ack guarantee by refreshing the cache from
    /// the authoritative shards at a barrier *before* releasing the
    /// ack.
    Lost,
}

/// The coordinator-side query cache: per-shard views plus the mirror's
/// rejection count, shared between the dispatcher (sole writer) and
/// every connection thread (readers). Aggregate queries are answered
/// straight from here **in the connection thread** — they never enter
/// the dispatch queue, so readers cannot stall the repair path, let
/// alone barrier it.
struct QueryCache {
    inner: RwLock<CacheInner>,
}

struct CacheInner {
    views: Vec<ShardView>,
    /// Mirror-validation rejections, attributed exactly as
    /// [`ShardedEngine::stats`] attributes them (aggregate stats and
    /// shard 0's entry).
    rejected: u64,
    /// Global-user → `(shard, shard-local id)`, mirroring the
    /// coordinator's table. Append-only between barriers (`AddUser`
    /// completions extend it); routes cached `AssignmentsOf` reads.
    owners: Vec<(usize, UserId)>,
    /// True event capacities from the mirror. Event-side state only
    /// changes on barrier-executed broadcasts, which refresh the whole
    /// cache, so fast-path installs never need to touch this.
    capacities: Vec<usize>,
    /// Per-shard `(moved_in, moved_out)` migration counters, mirroring
    /// the coordinator's. They only change at barrier-executed reshards,
    /// which refresh the whole cache, so fast-path installs never need
    /// to touch this.
    migrations: Vec<(u64, u64)>,
}

impl CacheInner {
    /// The merged utility breakdown: a fresh [`UtilityTracker`] absorbing
    /// every view's exact accumulators, rounded once — the same
    /// computation as [`ShardedEngine::merged_utility`], so the cached
    /// answer equals the in-process one bit for bit (summing the views'
    /// rounded per-shard totals instead can drift by an ulp per shard).
    fn merged_breakdown(&self) -> UtilityBreakdown {
        let mut tracker = UtilityTracker::new();
        for view in &self.views {
            tracker.absorb(&view.tracker);
        }
        tracker.breakdown(self.views[0].breakdown.beta)
    }
}

impl QueryCache {
    /// Read-locks the cache, recovering a poisoned guard. A poisoned
    /// cache means some thread panicked while holding the lock — the
    /// server is already failing loudly elsewhere; the last installed
    /// views are still structurally valid (every writer below keeps
    /// `CacheInner` consistent between lock acquisitions), so draining
    /// readers keep serving them instead of cascading the panic into
    /// every connection thread.
    fn read_inner(&self) -> RwLockReadGuard<'_, CacheInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write-locks the cache, recovering a poisoned guard (see
    /// [`QueryCache::read_inner`] for why recovery beats cascading).
    fn write_inner(&self) -> RwLockWriteGuard<'_, CacheInner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn from_engine(engine: &ShardedEngine) -> Arc<Self> {
        Arc::new(QueryCache {
            inner: RwLock::new(CacheInner {
                views: (0..engine.num_shards())
                    .map(|k| ShardView::of(engine.shard(k)))
                    .collect(),
                rejected: engine.rejected_count(),
                owners: engine.owners().to_vec(),
                capacities: engine
                    .instance()
                    .events()
                    .iter()
                    .map(|e| e.capacity)
                    .collect(),
                migrations: engine.shard_migrations().to_vec(),
            }),
        })
    }

    /// Installs one shard's post-apply view (the per-completion hot
    /// path), extending the owner table by any users registered since
    /// the last install (`owners` is the coordinator's current table).
    ///
    /// A [`ViewUpdate::Diff`] patches the installed view in place —
    /// replacement metadata plus an [`ArrangementDiff`] replay onto the
    /// cached snapshot — so the write-lock hold is O(changed), not
    /// O(shard pairs). The snapshot `Arc` is mutated through
    /// [`Arc::make_mut`]: unique in steady state (in-place patch), and a
    /// reader still holding the old buffer mid-answer just forces one
    /// fresh clone, exactly like the old double-buffer scheme.
    fn install(&self, shard: usize, update: ViewUpdate, rejected: u64, owners: &[(usize, UserId)]) {
        let mut inner = self.write_inner();
        match update {
            ViewUpdate::Full(view) => {
                debug_assert!(
                    view.epoch >= inner.views[shard].epoch,
                    "views are monotonic"
                );
                inner.views[shard] = *view;
            }
            ViewUpdate::Diff(delta) => {
                let view = &mut inner.views[shard];
                debug_assert_eq!(
                    view.epoch, delta.parent_epoch,
                    "a view diff must extend the installed view (shard {shard})"
                );
                if view.epoch == delta.parent_epoch {
                    Arc::make_mut(&mut view.assignments).apply_diff(&delta.diff);
                }
                view.epoch = delta.epoch;
                view.users = delta.users;
                view.pairs = delta.pairs;
                view.breakdown = delta.breakdown;
                view.tracker = delta.tracker;
                view.stats = delta.stats;
            }
            // Never installed: the dispatcher treats a lost shipment
            // as a cache-dirty event and refreshes wholesale at the
            // recovery barrier instead.
            ViewUpdate::Lost => return,
        }
        inner.rejected = rejected;
        if owners.len() > inner.owners.len() {
            let from = inner.owners.len();
            inner.owners.extend_from_slice(&owners[from..]);
        }
    }

    /// Re-reads every shard plus the entity tables (after
    /// barrier-executed operations — the only place event-side state can
    /// change). Rebuilds the view vector from scratch rather than
    /// patching it in place so a reshard that changed the shard count
    /// installs a complete, torn-free replacement in one write-lock
    /// hold: readers see either the old owner table with the old views
    /// or the new with the new, never a mix.
    fn refresh_all(&self, engine: &ShardedEngine) {
        let views = (0..engine.num_shards())
            .map(|k| ShardView::of(engine.shard(k)))
            .collect();
        let mut inner = self.write_inner();
        inner.views = views;
        inner.rejected = engine.rejected_count();
        inner.owners.clear();
        inner.owners.extend_from_slice(engine.owners());
        inner.capacities.clear();
        inner
            .capacities
            .extend(engine.instance().events().iter().map(|e| e.capacity));
        inner.migrations.clear();
        inner
            .migrations
            .extend_from_slice(engine.shard_migrations());
    }

    /// Records a mirror-validation rejection (fast-path apply refused).
    fn note_rejected(&self, rejected: u64) {
        self.write_inner().rejected = rejected;
    }

    /// Answers one cacheable query, reproducing the in-process
    /// [`EngineService`](crate::EngineService) semantics bit for bit:
    /// same shard order, the same exact utility merge, the same
    /// rejected-delta attribution for the aggregates, and the same
    /// dialect split for the per-entity reads (`strict` selects typed
    /// `NotFound` over the legacy silent `[]` / `(0, 0)` answers).
    ///
    /// Returns `None` for the queries the cache cannot serve
    /// (`MergedSnapshot` consistency is checked separately by
    /// [`QueryCache::merged_snapshot`]; `DurabilityStats` lives with
    /// the dispatcher) — the caller falls through to the dispatch
    /// queue.
    fn answer(
        &self,
        query: EngineQuery,
        strict: bool,
    ) -> Option<Result<EngineResponse, EngineError>> {
        let inner = self.read_inner();
        match query {
            EngineQuery::Utility => {
                let breakdown = inner.merged_breakdown();
                Some(Ok(EngineResponse::Utility {
                    total: breakdown.total,
                    interest_sum: breakdown.interest_sum,
                    interaction_sum: breakdown.interaction_sum,
                }))
            }
            EngineQuery::Stats => {
                // `reduce` seeds the fold from the first shard — not
                // `Default` — so a single shard's counters (including a
                // *negative* observed drift, which `merged`'s max would
                // clobber with 0.0) pass through unchanged. An engine
                // always has at least one shard; the empty-cache default
                // is unreachable but panic-free.
                let mut merged = inner
                    .views
                    .iter()
                    .map(|view| view.stats)
                    .reduce(|a, b| a.merged(&b))
                    .unwrap_or_default();
                merged.deltas_rejected += inner.rejected;
                Some(Ok(EngineResponse::Stats { stats: merged }))
            }
            EngineQuery::ShardStats => {
                let shards = inner
                    .views
                    .iter()
                    .enumerate()
                    .map(|(k, view)| {
                        let mut stats = view.stats;
                        if k == 0 {
                            stats.deltas_rejected += inner.rejected;
                        }
                        let moved = inner.migrations.get(k).copied().unwrap_or((0, 0));
                        ShardStatsEntry {
                            shard: k,
                            users: view.users,
                            pairs: view.pairs,
                            utility: view.breakdown.total,
                            stats,
                            moved_in: moved.0,
                            moved_out: moved.1,
                        }
                    })
                    .collect();
                Some(Ok(EngineResponse::ShardStats { shards }))
            }
            EngineQuery::AssignmentsOf { user } => {
                let Some(&(shard, local)) = inner.owners.get(user.index()) else {
                    if strict {
                        return Some(Err(EngineError::NotFound {
                            entity: crate::error::EntityRef::User { user },
                        }));
                    }
                    return Some(Ok(EngineResponse::Assignments {
                        user,
                        events: Vec::new(),
                    }));
                };
                // A just-registered user whose creating apply has not yet
                // installed its shard view (only possible concurrently
                // with that apply, never after its ack) reads as having
                // no assignments yet.
                let view = &inner.views[shard].assignments;
                let events = if local.index() < view.num_users() {
                    view.events_of(local).to_vec()
                } else {
                    Vec::new()
                };
                Some(Ok(EngineResponse::Assignments { user, events }))
            }
            EngineQuery::EventLoad { event } => {
                let Some(&capacity) = inner.capacities.get(event.index()) else {
                    if strict {
                        return Some(Err(EngineError::NotFound {
                            entity: crate::error::EntityRef::Event { event },
                        }));
                    }
                    return Some(Ok(EngineResponse::EventLoad {
                        event,
                        load: 0,
                        capacity: 0,
                    }));
                };
                // Merge the per-shard loads in the connection thread —
                // the read never touches the dispatch queue, exactly
                // like the aggregate queries. (Event-side growth always
                // barriers and refreshes every view, so the bound check
                // only matters mid-barrier.)
                let load = inner
                    .views
                    .iter()
                    .map(|view| {
                        if event.index() < view.assignments.num_events() {
                            view.assignments.load_of(event)
                        } else {
                            0
                        }
                    })
                    .sum();
                Some(Ok(EngineResponse::EventLoad {
                    event,
                    load,
                    capacity,
                }))
            }
            // `MergedSnapshot` consistency is checked separately by
            // `merged_snapshot`; `DurabilityStats` lives with the
            // dispatcher; `OverloadStats` is answered even earlier, in
            // the connection loop, straight from the shared counters.
            EngineQuery::MergedSnapshot
            | EngineQuery::DurabilityStats
            | EngineQuery::OverloadStats => None,
        }
    }

    /// Serves `MergedSnapshot` from the cached per-shard views when they
    /// form a *consistent checkpoint* — every user in the owner table
    /// resolves inside its shard's assignment snapshot. Returns `None`
    /// (→ barrier fallback) while a user-creating apply is still in
    /// flight, i.e. its view has not been installed yet.
    ///
    /// Bit-exactness: pairs are re-emitted per global user in ascending
    /// id order — exactly [`igepa_core::Arrangement::pairs`]'s order on
    /// the merged arrangement — and the utility is
    /// [`CacheInner::merged_breakdown`], which by exact-sum partition
    /// independence equals the in-process from-scratch
    /// `merged.utility_value(instance)` bit for bit.
    fn merged_snapshot(&self) -> Option<EngineResponse> {
        let inner = self.read_inner();
        let mut pairs = Vec::new();
        for (u, &(shard, local)) in inner.owners.iter().enumerate() {
            let view = &inner.views[shard].assignments;
            if local.index() >= view.num_users() {
                return None;
            }
            let user = UserId::new(u);
            pairs.extend(view.events_of(local).iter().map(|&v| (v, user)));
        }
        Some(EngineResponse::Snapshot {
            num_events: inner.capacities.len(),
            num_users: inner.owners.len(),
            utility: inner.merged_breakdown().total,
            pairs,
        })
    }
}

/// Shared overload-control state: the admission policy plus the live
/// counters behind the `OverloadStats` query. Connection threads are
/// the admission side (check-and-increment before enqueueing, shed
/// accounting); the dispatcher is the drain side (decrement at
/// dequeue, deadline-expiry accounting, the read-only latch). Worker
/// completions never touch the depth — admission bounds *requests*,
/// not internal bookkeeping traffic.
struct OverloadState {
    policy: AdmissionPolicy,
    /// Requests admitted to the dispatch queue (or a barrier backlog)
    /// and not yet picked up for execution.
    queue_depth: AtomicUsize,
    /// High-water mark of `queue_depth` since the server started.
    high_water: AtomicUsize,
    /// Mutations refused with [`EngineError::Overloaded`].
    shed: AtomicU64,
    /// Requests dropped with [`EngineError::DeadlineExceeded`].
    deadline_expired: AtomicU64,
    /// Read-only degraded mode: latched when the write-ahead log
    /// reports an append failure. Mutations shed from then on; cached
    /// reads keep answering. Only a restart (with a repaired WAL)
    /// clears it — a log that failed once cannot be trusted to have
    /// appended the next record either.
    read_only: AtomicBool,
}

impl OverloadState {
    fn shared(policy: AdmissionPolicy) -> Arc<Self> {
        Arc::new(OverloadState {
            policy,
            queue_depth: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            read_only: AtomicBool::new(false),
        })
    }

    /// Admission check-and-enqueue for one mutating request, called
    /// from a connection thread. On refusal nothing was enqueued and
    /// the caller answers immediately — refusal is *typed and
    /// instant*, never a silent drop or an unbounded wait.
    fn try_enqueue_mutation(&self) -> Result<(), EngineError> {
        let refuse = |depth: usize| {
            self.shed.fetch_add(1, Ordering::SeqCst);
            EngineError::Overloaded {
                queue_depth: depth,
                retry_after_ms: self.policy.retry_after_ms(),
            }
        };
        if self.read_only.load(Ordering::SeqCst) {
            return Err(refuse(self.queue_depth.load(Ordering::SeqCst)));
        }
        match self.policy.max_queue() {
            None => {
                self.note_enqueued();
                Ok(())
            }
            Some(cap) => {
                // One CAS covers check + increment, so concurrent
                // connections cannot stampede past the cap.
                let admitted =
                    self.queue_depth
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |depth| {
                            if depth < cap {
                                Some(depth + 1)
                            } else {
                                None
                            }
                        });
                match admitted {
                    Ok(prev) => {
                        self.high_water.fetch_max(prev + 1, Ordering::SeqCst);
                        Ok(())
                    }
                    Err(depth) => Err(refuse(depth)),
                }
            }
        }
    }

    /// One non-mutating message entered the queue.
    /// Reads are always admitted: each connection keeps at most one
    /// request in the queue, so read depth is bounded by the
    /// connection count, and shedding them would defeat the "reads
    /// keep flowing" degradation contract.
    fn note_enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
        self.high_water.fetch_max(depth, Ordering::SeqCst);
    }

    /// One counted message was picked up for execution. Saturating, so a
    /// miscount can never wrap the gauge.
    fn note_dequeued(&self) {
        let _ = self
            .queue_depth
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |d| d.checked_sub(1));
    }

    fn note_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::SeqCst);
    }

    /// Builds (and accounts) a shed refusal outside the enqueue CAS —
    /// the dispatcher's re-check of the read-only latch.
    fn shed_now(&self) -> EngineError {
        self.shed.fetch_add(1, Ordering::SeqCst);
        EngineError::Overloaded {
            queue_depth: self.queue_depth.load(Ordering::SeqCst),
            retry_after_ms: self.policy.retry_after_ms(),
        }
    }

    fn enter_read_only(&self) {
        self.read_only.store(true, Ordering::SeqCst);
    }

    fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::SeqCst)
    }

    fn stats(&self) -> OverloadStats {
        OverloadStats {
            policy: self.policy.describe(),
            queue_depth: self.queue_depth.load(Ordering::SeqCst) as u64,
            high_water: self.high_water.load(Ordering::SeqCst) as u64,
            shed: self.shed.load(Ordering::SeqCst),
            deadline_expired: self.deadline_expired.load(Ordering::SeqCst),
            read_only: self.read_only.load(Ordering::SeqCst),
        }
    }
}

/// Messages flowing into a server's dispatch thread.
enum ServerMsg {
    /// One envelope already decoded by the connection thread (cacheable
    /// queries were answered before ever reaching this queue).
    Envelope {
        envelope: RequestEnvelope,
        /// When the connection thread admitted the envelope; the
        /// dispatcher checks the envelope's `deadline_ms` budget
        /// against this at dequeue.
        received_at: Instant,
        reply: Sender<String>,
    },
    /// A per-shard worker finished an apply.
    Completion {
        shard: usize,
        outcome: ApplyOutcome,
        /// The shard's post-apply read-state, for the query cache —
        /// usually a diff against the previously shipped view.
        view: ViewUpdate,
        envelope_id: u64,
        reply: Sender<String>,
    },
    /// Stop dispatching and return the engine.
    Shutdown,
}

/// Messages a per-shard worker consumes.
enum WorkerMsg {
    /// Apply a shard-local, mirror-validated delta.
    Apply {
        delta: InstanceDelta,
        envelope_id: u64,
        reply: Sender<String>,
    },
    /// Hand the shard back to the coordinator (barrier).
    Surrender,
    /// Receive the shard back after a barrier (boxed: a `Shard` is a few
    /// hundred bytes and barriers are rare, so keep the common `Apply`
    /// variant small).
    Resume(Box<Shard>),
    /// Exit the worker loop (the shard was already surrendered).
    Shutdown,
}

/// A running server: the bound address plus the handles needed to stop it
/// and recover the engine.
pub struct ServerHandle {
    addr: SocketAddr,
    queue: Sender<ServerMsg>,
    shutdown: Arc<AtomicBool>,
    accept_handle: JoinHandle<()>,
    dispatch_handle: JoinHandle<ShardedEngine>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains in-flight work, joins every thread and
    /// returns the engine (with all shards re-attached) so callers can
    /// inspect the final served state.
    pub fn shutdown(self) -> io::Result<ShardedEngine> {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.queue.send(ServerMsg::Shutdown);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.accept_handle
            .join()
            .map_err(|_| io::Error::other("accept thread panicked"))?;
        self.dispatch_handle
            .join()
            .map_err(|_| io::Error::other("dispatch thread panicked"))
    }
}

/// How [`EngineServer::serve`] runs: the wire framing plus the optional
/// durability and fault-injection layers. `ServerOptions::from(framing)`
/// (or [`Default`], line framing) serves with neither.
#[derive(Default)]
pub struct ServerOptions {
    /// How documents are delimited on every connection.
    pub framing: Framing,
    /// Write-ahead log and checkpoints: every admitted mutating request
    /// is appended **before** it executes (and before its ack goes out),
    /// `Checkpoint` requests write a consistent snapshot at a barrier and
    /// compact covered WAL segments, `DurabilityStats` reads live
    /// counters, and automatic checkpoints run every
    /// [`DurabilityController::set_snapshot_every`] logged requests.
    /// After a crash, [`crate::durability::recover`] rebuilds the served
    /// state bit for bit from the durability directory.
    pub durability: Option<DurabilityController>,
    /// A deterministic [`FaultInjector`] wired into the worker pool and
    /// the WAL path — the entry point of the fault-injection harness
    /// ([`crate::faults`]). Keep a clone of the `Arc` to read
    /// [`FaultInjector::counts`] after shutdown. A
    /// [`FaultPlan::quiet`](crate::faults::FaultPlan::quiet) injector
    /// serves identically to `None`.
    pub faults: Option<Arc<FaultInjector>>,
}

impl From<Framing> for ServerOptions {
    fn from(framing: Framing) -> Self {
        ServerOptions {
            framing,
            ..ServerOptions::default()
        }
    }
}

/// The entry point for serving an engine over TCP.
pub struct EngineServer;

impl EngineServer {
    /// Serves `engine` with one worker thread per shard: user-scoped
    /// `Apply` requests run concurrently on the owning shard's worker;
    /// read queries are answered from the shared query cache in the
    /// connection threads (no barrier, no dispatch queue); everything
    /// else barriers (see the module docs).
    pub fn serve(
        listener: TcpListener,
        engine: ShardedEngine,
        options: ServerOptions,
    ) -> io::Result<ServerHandle> {
        let ServerOptions {
            framing,
            durability,
            faults,
        } = options;
        let addr = listener.local_addr()?;
        let cache = QueryCache::from_engine(&engine);
        // Admission comes from the engine's own config: the default
        // `AdmissionPolicy::Unbounded` reproduces the pre-admission
        // server exactly; a bounded policy makes overload a typed,
        // immediate refusal instead of unbounded queue growth.
        let overload = OverloadState::shared(engine.config().shard.admission);
        let (queue_tx, queue_rx) = mpsc::channel::<ServerMsg>();
        let shutdown = Arc::new(AtomicBool::new(false));

        // Workers feed their completions into the same queue.
        let completion_tx = queue_tx.clone();
        let dispatch_cache = Arc::clone(&cache);
        let dispatch_overload = Arc::clone(&overload);
        let dispatch_handle = thread::spawn(move || {
            ShardDispatcher::new(
                engine,
                completion_tx,
                dispatch_cache,
                durability,
                dispatch_overload,
                faults,
            )
            .run(queue_rx)
        });

        let accept_queue = queue_tx.clone();
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_handle = thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let queue = accept_queue.clone();
                let cache = Arc::clone(&cache);
                let overload = Arc::clone(&overload);
                thread::spawn(move || connection_loop(stream, queue, framing, cache, overload));
            }
        });

        Ok(ServerHandle {
            addr,
            queue: queue_tx,
            shutdown,
            accept_handle,
            dispatch_handle,
        })
    }
}

/// Per-connection read/dispatch/write loop. Requests from one connection
/// are answered in order; the loop ends on client disconnect, a dead
/// dispatcher, or a write failure.
///
/// The connection thread itself decodes each line: cacheable queries are
/// answered straight from the cache — the read path shares nothing with
/// the dispatch queue — and everything else is forwarded pre-decoded.
/// Malformed lines answer locally under a per-connection fallback id.
///
/// The connection thread is also the **admission side** of overload
/// control: a mutation is checked against the [`OverloadState`] *before*
/// it is enqueued, and at saturation (or in read-only degraded mode) it
/// is refused right here with a typed [`EngineError::Overloaded`] —
/// nothing enters the queue, so queue depth is bounded by the policy cap
/// no matter how hard clients push. Cache-answered reads never touch
/// admission at all, which is what keeps them flowing while mutations
/// shed.
fn connection_loop(
    stream: TcpStream,
    queue: Sender<ServerMsg>,
    framing: Framing,
    cache: Arc<QueryCache>,
    overload: Arc<OverloadState>,
) {
    stream.set_nodelay(true).ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut fallback_seq = 0u64;
    while let Ok(Some(line)) = read_frame(&mut reader, framing) {
        fallback_seq += 1;
        let response = match admit(&line, fallback_seq, &cache, &overload) {
            Err(local) => encode_response_envelope(&local),
            Ok(envelope) => {
                let (reply_tx, reply_rx) = mpsc::channel();
                let msg = ServerMsg::Envelope {
                    envelope,
                    received_at: Instant::now(),
                    reply: reply_tx,
                };
                if queue.send(msg).is_err() {
                    break;
                }
                let Ok(response) = reply_rx.recv() else {
                    break;
                };
                response
            }
        };
        if write_frame(&mut writer, framing, &response).is_err() {
            break;
        }
    }
}

/// Decodes one wire line in the connection thread and either answers it
/// right here — `Err` with the response: malformed lines (under
/// `fallback_id`), cache-served reads, admission refusals — or admits it
/// to the dispatch queue — `Ok` with the envelope, already counted in the
/// queue-depth gauge.
fn admit(
    line: &str,
    fallback_id: u64,
    cache: &QueryCache,
    overload: &OverloadState,
) -> Result<RequestEnvelope, ResponseEnvelope> {
    let envelope = decode_request_envelope(line, fallback_id).map_err(|e| ResponseEnvelope {
        id: fallback_id,
        result: Err(EngineError::Malformed { detail: e.message }),
    })?;
    let supported = envelope.version == PROTOCOL_VERSION || envelope.version == LEGACY_VERSION;
    // `strict` selects the dialect: typed errors (NotFound, Overloaded)
    // vs the legacy silent answers and `Rejected` strings.
    let strict = envelope.version == PROTOCOL_VERSION;
    if let (true, EngineRequest::Query { query }) = (supported, &envelope.body) {
        let local = match query {
            // Answered from the shared atomics: observing overload must
            // neither queue behind it nor barrier anything.
            EngineQuery::OverloadStats => Some(Ok(EngineResponse::OverloadStats {
                stats: overload.stats(),
            })),
            // Served from the cache when the views form a consistent
            // checkpoint (both dialects answer identically); falls through
            // to the barrier path while an owner row is still unresolved.
            EngineQuery::MergedSnapshot => cache.merged_snapshot().map(Ok),
            _ => cache.answer(*query, strict),
        };
        if let Some(result) = local {
            return Err(ResponseEnvelope {
                id: envelope.id,
                result,
            });
        }
    }
    // Admission: mutations pass the cap-and-degraded-mode gate (refusals
    // are typed and immediate); everything else heading for the queue —
    // the non-cacheable reads and barrier fallbacks — is always admitted,
    // each connection contributing at most one queued request.
    // Unsupported versions skip the gate so the dispatcher can answer
    // `Unsupported` (the more specific error).
    if supported && is_mutating(&envelope.body) {
        if let Err(refusal) = overload.try_enqueue_mutation() {
            return Err(ResponseEnvelope {
                id: envelope.id,
                result: shed_error(strict, refusal),
            });
        }
    } else {
        overload.note_enqueued();
    }
    Ok(envelope)
}

/// Whether a delta routes to a single owning shard (the worker fast
/// path). Event-scoped deltas broadcast and must barrier.
fn is_user_scoped(delta: &InstanceDelta) -> bool {
    !matches!(
        delta,
        InstanceDelta::AddEvent { .. }
            | InstanceDelta::UpdateCapacity {
                target: CapacityTarget::Event(_),
                ..
            }
    )
}

struct WorkerHandle {
    tx: Sender<WorkerMsg>,
    join: JoinHandle<()>,
}

/// The per-shard worker dispatcher. Owns the coordinator (mirror, quota
/// tables, routing) while the shards live on worker threads; see the
/// module docs for the fast-path/barrier split.
struct ShardDispatcher {
    engine: ShardedEngine,
    workers: Vec<WorkerHandle>,
    /// Shards handed back by workers during a barrier.
    shard_return_rx: Receiver<(usize, Shard)>,
    /// Sender side of the completion queue, kept so a reshard can spawn
    /// replacement workers wired exactly like the initial pool.
    completion_tx: Sender<ServerMsg>,
    /// Sender side of the shard-return channel (same purpose).
    shard_return_tx: Sender<(usize, Shard)>,
    /// Worker applies in flight (fast-path requests not yet completed).
    pending: usize,
    /// Whether the shards currently live in `engine` (true) or on the
    /// workers (false).
    attached: bool,
    /// Requests buffered while a barrier drained completions.
    backlog: VecDeque<ServerMsg>,
    /// The query cache shared with every connection thread; this
    /// dispatcher is its only writer.
    cache: Arc<QueryCache>,
    /// The write-ahead log + checkpoint controller
    /// ([`ServerOptions::durability`]). Mutating requests are logged
    /// through it *before* they run.
    durability: Option<DurabilityController>,
    /// The shared overload counters: this dispatcher is the drain side
    /// (dequeue accounting, deadline expiry, the read-only latch).
    overload: Arc<OverloadState>,
    /// The fault-injection harness ([`ServerOptions::faults`]).
    faults: Option<Arc<FaultInjector>>,
    /// True after a lost view shipment (fault injection) until the
    /// recovery barrier refreshes the cache: installs are suppressed
    /// (the chain is broken) and apply acks are parked in
    /// `deferred_acks` so no client sees an ack before the cache
    /// reflects its apply.
    cache_dirty: bool,
    /// Acks parked while `cache_dirty`; released by `barrier` right
    /// after the wholesale cache refresh.
    deferred_acks: Vec<(Sender<String>, ResponseEnvelope)>,
}

impl ShardDispatcher {
    fn new(
        mut engine: ShardedEngine,
        completion_tx: Sender<ServerMsg>,
        cache: Arc<QueryCache>,
        durability: Option<DurabilityController>,
        overload: Arc<OverloadState>,
        faults: Option<Arc<FaultInjector>>,
    ) -> Self {
        let (shard_return_tx, shard_return_rx) = mpsc::channel();
        let shards = engine.detach_shards();
        let workers = shards
            .into_iter()
            .enumerate()
            .map(|(k, shard)| {
                spawn_worker(
                    k,
                    shard,
                    completion_tx.clone(),
                    shard_return_tx.clone(),
                    faults.clone(),
                )
            })
            .collect();
        ShardDispatcher {
            engine,
            workers,
            shard_return_rx,
            completion_tx,
            shard_return_tx,
            pending: 0,
            attached: false,
            backlog: VecDeque::new(),
            cache,
            durability,
            overload,
            faults,
            cache_dirty: false,
            deferred_acks: Vec::new(),
        }
    }

    fn run(mut self, queue: Receiver<ServerMsg>) -> ShardedEngine {
        loop {
            // Barrier leftovers first, then the shared queue (requests
            // and worker completions interleave there in arrival order).
            let msg = match self.backlog.pop_front() {
                Some(msg) => msg,
                None => match queue.recv() {
                    Ok(msg) => msg,
                    Err(_) => break,
                },
            };
            match msg {
                ServerMsg::Envelope {
                    envelope,
                    received_at,
                    reply,
                } => {
                    // Dequeued for execution (backlogged envelopes stay
                    // counted while they wait out a barrier and land
                    // here exactly once afterwards).
                    self.overload.note_dequeued();
                    self.on_request(envelope, received_at, reply, &queue)
                }
                ServerMsg::Completion {
                    shard,
                    outcome,
                    view,
                    envelope_id,
                    reply,
                } => self.on_completion(shard, outcome, view, envelope_id, reply, &queue),
                ServerMsg::Shutdown => break,
            }
        }
        // Drain in-flight applies and bring every shard home before
        // handing the engine back.
        self.barrier(&queue);
        for worker in &self.workers {
            let _ = worker.tx.send(WorkerMsg::Shutdown);
        }
        for worker in self.workers {
            let _ = worker.join.join();
        }
        self.engine
    }

    fn on_request(
        &mut self,
        envelope: RequestEnvelope,
        received_at: Instant,
        reply: Sender<String>,
        queue: &Receiver<ServerMsg>,
    ) {
        // Version-gate BEFORE routing, mirroring `dispatch_envelope`: an
        // unsupported dialect must never reach the fast path and mutate
        // state (the in-process service answers `Unsupported` and so must
        // we).
        let strict = envelope.version == PROTOCOL_VERSION;
        if !strict && envelope.version != LEGACY_VERSION {
            respond(
                &reply,
                ResponseEnvelope {
                    id: envelope.id,
                    result: Err(EngineError::Unsupported {
                        version: envelope.version,
                    }),
                },
            );
            return;
        }
        // Deadline gate: a budget that expired while the request sat in
        // the queue drops it before any dead work — before the WAL sees
        // it, before any shard executes it. (`elapsed >= deadline`, so
        // a zero budget expires deterministically.)
        if let Some(deadline_ms) = envelope.deadline_ms {
            let waited_ms = u64::try_from(received_at.elapsed().as_millis()).unwrap_or(u64::MAX);
            if waited_ms >= deadline_ms {
                self.overload.note_deadline_expired();
                respond(
                    &reply,
                    ResponseEnvelope {
                        id: envelope.id,
                        result: shed_error(strict, EngineError::DeadlineExceeded { deadline_ms }),
                    },
                );
                return;
            }
        }
        // A mutation that slipped past the connection-side gate before
        // the read-only latch flipped still must not execute: the gate
        // is re-checked at the authoritative single-threaded point.
        if is_mutating(&envelope.body) && self.overload.is_read_only() {
            respond(
                &reply,
                ResponseEnvelope {
                    id: envelope.id,
                    result: shed_error(strict, self.overload.shed_now()),
                },
            );
            return;
        }
        // Write-ahead: an admitted mutating request hits the log before
        // it executes and before any ack can go out. Rejections are
        // logged too — replay reproduces them (and their absence from
        // the state) deterministically. A failed append refuses the
        // request (what is not logged must not execute) AND latches
        // read-only degraded mode: a WAL that failed once cannot vouch
        // for the next append either, so every subsequent mutation is
        // shed while cached reads keep answering.
        if is_mutating(&envelope.body) {
            // Fault injection: a planned stall sleeps here (ack latency
            // absorbs it, exactly like a congested disk); a planned
            // append failure takes the same degraded path as a real one.
            let forced_fail = self
                .faults
                .as_ref()
                .is_some_and(|f| self.durability.is_some() && f.wal_append_fault());
            if let Some(controller) = &mut self.durability {
                let epoch = self.engine.catalog().epoch();
                let logged = if forced_fail {
                    Err(io::Error::other("fault injection"))
                } else {
                    controller
                        .log(envelope.id, epoch, &envelope.body)
                        .map(|_| ())
                };
                if let Err(e) = logged {
                    self.overload.enter_read_only();
                    respond(
                        &reply,
                        ResponseEnvelope {
                            id: envelope.id,
                            result: durability_error(
                                strict,
                                format!(
                                    "write-ahead log append failed: {e}; serving is now read-only"
                                ),
                            ),
                        },
                    );
                    return;
                }
            }
        }
        match &envelope.body {
            // A consistent checkpoint: drain to a barrier, serialize the
            // quiescent engine at the WAL coverage point, compact. The
            // non-durable server falls through to `dispatch_envelope`,
            // which rejects the request.
            EngineRequest::Checkpoint if self.durability.is_some() => {
                self.barrier(queue);
                let result = match self.durability.as_mut() {
                    Some(controller) => {
                        let state = self.engine.snapshot_state(controller.last_seq());
                        match controller.checkpoint(&state) {
                            Ok(outcome) => Ok(EngineResponse::CheckpointDone {
                                wal_seq: outcome.wal_seq,
                                bytes: outcome.bytes,
                            }),
                            Err(e) => durability_error(strict, format!("checkpoint failed: {e}")),
                        }
                    }
                    // Unreachable (the arm guard checked `is_some`),
                    // but refusing beats panicking the dispatcher.
                    None => durability_error(strict, "durability is not enabled".to_string()),
                };
                self.cache.refresh_all(&self.engine);
                respond(
                    &reply,
                    ResponseEnvelope {
                        id: envelope.id,
                        result,
                    },
                );
                self.redistribute();
            }
            // Live resharding: the durability layer is the transaction
            // seam. The `Reshard` record is already in the WAL (logged
            // above, say at sequence S), so the pre-migration checkpoint
            // is cut at S-1: a crash *before* the migration lands recovers
            // the old shape and replays the record — re-performing the
            // identical migration — while a crash *after* the
            // post-migration checkpoint at S restores the new shape
            // directly. Requests that arrived while the barrier drained
            // are parked in the backlog and replayed afterwards against
            // the rewritten owner table — moved users are re-routed to
            // their new owner, never refused. Checkpoint failures are
            // non-fatal (the WAL record alone makes replay exact); they
            // only widen the replay window.
            EngineRequest::Reshard { .. } => {
                self.barrier(queue);
                if let Some(controller) = self.durability.as_mut() {
                    // Skip the pre-cut when S-1 is already covered:
                    // snapshots write in place under their coverage
                    // sequence, and a torn rewrite of an existing valid
                    // file would destroy it.
                    let pre_seq = controller.last_seq().saturating_sub(1);
                    if controller.last_checkpoint_seq() < pre_seq {
                        let state = self.engine.snapshot_state(pre_seq);
                        if let Err(e) = controller.checkpoint(&state) {
                            eprintln!("igepa-engine: pre-migration checkpoint failed: {e}");
                        }
                    }
                }
                let response = dispatch_envelope(&mut self.engine, &envelope);
                if matches!(&response.result, Ok(EngineResponse::Resharded { .. })) {
                    if let Some(controller) = self.durability.as_mut() {
                        let state = self.engine.snapshot_state(controller.last_seq());
                        if let Err(e) = controller.checkpoint(&state) {
                            eprintln!("igepa-engine: post-migration checkpoint failed: {e}");
                        }
                    }
                }
                self.cache.refresh_all(&self.engine);
                respond(&reply, response);
                self.resize_workers();
            }
            // Live durability counters, answered right here — no barrier,
            // no engine dispatch. (The in-process service answers the
            // durability-off shape for an engine reached directly.)
            EngineRequest::Query {
                query: EngineQuery::DurabilityStats,
            } => {
                let response = match &self.durability {
                    Some(controller) => {
                        let view = controller.stats();
                        EngineResponse::DurabilityStats {
                            enabled: true,
                            policy: view.policy,
                            wal_records: view.wal_records,
                            wal_bytes: view.wal_bytes,
                            fsyncs: view.fsyncs,
                            segments: view.segments,
                            checkpoints: view.checkpoints,
                            last_checkpoint_seq: view.last_checkpoint_seq,
                        }
                    }
                    None => EngineResponse::DurabilityStats {
                        enabled: false,
                        policy: "off".to_string(),
                        wal_records: 0,
                        wal_bytes: 0,
                        fsyncs: 0,
                        segments: 0,
                        checkpoints: 0,
                        last_checkpoint_seq: 0,
                    },
                };
                respond(
                    &reply,
                    ResponseEnvelope {
                        id: envelope.id,
                        result: Ok(response),
                    },
                );
            }
            // Fast path: a user-scoped delta validated on the mirror runs
            // on the owning shard's worker, concurrently with other
            // shards' applies.
            EngineRequest::Apply { delta } if !self.attached && is_user_scoped(delta) => {
                match self.engine.plan_user_delta(delta) {
                    Ok((k, local)) => {
                        // Count the apply as pending only once the worker
                        // has it; a dead worker (its thread panicked and
                        // dropped the receiver) turns into a typed refusal
                        // instead of poisoning the barrier accounting.
                        match self.workers[k].tx.send(WorkerMsg::Apply {
                            delta: local,
                            envelope_id: envelope.id,
                            reply,
                        }) {
                            Ok(()) => self.pending += 1,
                            Err(mpsc::SendError(msg)) => {
                                if let WorkerMsg::Apply { reply, .. } = msg {
                                    respond(
                                        &reply,
                                        ResponseEnvelope {
                                            id: envelope.id,
                                            result: internal_error(
                                                strict,
                                                format!("shard {k} worker is gone"),
                                            ),
                                        },
                                    );
                                }
                            }
                        }
                    }
                    Err(e) => {
                        self.cache.note_rejected(self.engine.rejected_count());
                        let result = if strict {
                            Err(EngineError::from(&e))
                        } else {
                            Ok(EngineResponse::Rejected {
                                reason: e.to_string(),
                            })
                        };
                        respond(
                            &reply,
                            ResponseEnvelope {
                                id: envelope.id,
                                result,
                            },
                        );
                    }
                }
            }
            // Everything else executes on the fully attached engine
            // through the one service implementation. (Cacheable queries
            // never reach this queue — connection threads answer them
            // from the shared cache.) The cache refreshes BEFORE the
            // response goes out, preserving the never-stale-after-ack
            // guarantee for barrier-executed applies (broadcasts,
            // batches, rebalances) too.
            _ => {
                self.barrier(queue);
                let response = dispatch_envelope(&mut self.engine, &envelope);
                self.cache.refresh_all(&self.engine);
                respond(&reply, response);
                self.redistribute();
                self.maybe_auto_checkpoint(queue);
            }
        }
    }

    /// Runs an automatic checkpoint when enough requests were logged
    /// since the last one (after the triggering ack — checkpointing is
    /// amortized maintenance, never ack latency).
    fn maybe_auto_checkpoint(&mut self, queue: &Receiver<ServerMsg>) {
        let due = self
            .durability
            .as_ref()
            .is_some_and(|c| c.auto_checkpoint_due());
        if !due {
            return;
        }
        self.barrier(queue);
        let Some(controller) = self.durability.as_mut() else {
            return; // unreachable: `due` implies durable
        };
        let state = self.engine.snapshot_state(controller.last_seq());
        if let Err(e) = controller.checkpoint(&state) {
            // Serving continues on the WAL alone; the next checkpoint
            // (automatic or explicit) retries.
            eprintln!("igepa-engine: automatic checkpoint failed: {e}");
        }
        self.cache.refresh_all(&self.engine);
        self.redistribute();
    }

    /// Completion bookkeeping: account the shard outcome, install the
    /// post-apply view in the query cache, count the delta toward the
    /// reconcile interval, and build the client's response with merged
    /// totals (exactly the serial coordinator's `ApplyOutcome`,
    /// pre-reconcile). The caller decides when to send it.
    fn account_apply(
        &mut self,
        shard: usize,
        outcome: ApplyOutcome,
        view: ViewUpdate,
        envelope_id: u64,
    ) -> ResponseEnvelope {
        self.pending -= 1;
        self.engine.note_outcome(shard, &outcome);
        // A lost view shipment (fault injection) breaks the diff chain:
        // stop installing — for this completion and every later one —
        // until the recovery barrier refreshes the cache wholesale.
        // Acks are parked by the callers while `cache_dirty` holds, so
        // the never-stale-after-ack guarantee survives the fault.
        if matches!(view, ViewUpdate::Lost) {
            self.cache_dirty = true;
        }
        // Install the post-apply view BEFORE the ack can go out: once a
        // client sees the ack, every cached read reflects this apply.
        // The owner table rides along so cached `AssignmentsOf` reads can
        // route users registered by this (or any earlier) apply.
        if !self.cache_dirty {
            self.cache.install(
                shard,
                view,
                self.engine.rejected_count(),
                self.engine.owners(),
            );
        }
        let merged = ApplyOutcome {
            kind: outcome.kind,
            repair: outcome.repair,
            utility: self.engine.utility(),
            num_pairs: self.engine.num_pairs(),
        };
        self.engine.note_applied(1);
        ResponseEnvelope {
            id: envelope_id,
            result: Ok(applied_response(merged)),
        }
    }

    /// Barrier-drain variant: account and answer immediately. Applies
    /// drained here did not trigger the pending reconcile themselves, so
    /// a pre-reconcile ack matches the serial semantics (their requests
    /// are concurrent with the triggering one).
    fn complete_apply(
        &mut self,
        shard: usize,
        outcome: ApplyOutcome,
        view: ViewUpdate,
        envelope_id: u64,
        reply: &Sender<String>,
    ) {
        let response = self.account_apply(shard, outcome, view, envelope_id);
        if self.cache_dirty {
            // Mid-barrier with a broken view chain: park the ack until
            // the barrier's wholesale refresh, instead of acking
            // against a cache that does not reflect this apply yet.
            self.deferred_acks.push((reply.clone(), response));
        } else {
            respond(reply, response);
        }
    }

    fn on_completion(
        &mut self,
        shard: usize,
        outcome: ApplyOutcome,
        view: ViewUpdate,
        envelope_id: u64,
        reply: Sender<String>,
        queue: &Receiver<ServerMsg>,
    ) {
        let response = self.account_apply(shard, outcome, view, envelope_id);
        if self.cache_dirty {
            // Recover from the lost shipment now: park this ack, then
            // barrier — which drains the remaining in-flight applies
            // (their acks park too), refreshes the cache from the
            // attached shards, and only then releases every parked ack.
            self.deferred_acks.push((reply, response));
            self.barrier(queue);
            self.redistribute();
            self.maybe_auto_checkpoint(queue);
            return;
        }
        if self.engine.periodic_reconcile_pending() {
            // This apply crossed the reconcile interval. The serial
            // coordinator reconciles before returning from apply, so the
            // reconcile (and the cache refresh reflecting it) must land
            // BEFORE this ack — a synchronous client's post-ack cached
            // reads are then post-reconcile, exactly like the serial
            // service's. The response itself keeps its pre-reconcile
            // merged totals, also exactly like the serial outcome.
            self.barrier(queue);
            self.cache.refresh_all(&self.engine);
            respond(&reply, response);
            self.redistribute();
        } else {
            respond(&reply, response);
        }
        self.maybe_auto_checkpoint(queue);
    }

    /// Drains in-flight applies, collects every shard from its worker and
    /// re-attaches them to the engine (running any due periodic reconcile
    /// while everything is home). No-op when already attached.
    fn barrier(&mut self, queue: &Receiver<ServerMsg>) {
        if self.attached {
            return;
        }
        while self.pending > 0 {
            // The queue can only close if every sender (workers included)
            // is gone; the surrender below then fails loudly instead.
            let Ok(msg) = queue.recv() else { break };
            match msg {
                ServerMsg::Completion {
                    shard,
                    outcome,
                    view,
                    envelope_id,
                    reply,
                } => self.complete_apply(shard, outcome, view, envelope_id, &reply),
                msg => self.backlog.push_back(msg),
            }
        }
        // From here the panics are deliberate: a worker can only die by
        // panicking while it holds its shard, and a shard lost to a dead
        // thread is unrecoverable in-process — no response the dispatcher
        // could synthesize would be correct. Failing loudly here is the
        // robustness contract (durable deployments recover from the WAL).
        for worker in &self.workers {
            worker
                .tx
                .send(WorkerMsg::Surrender)
                // lint:allow(no-panic-in-server-paths): a dead worker took its shard with it; the engine cannot be reassembled, so fail loudly (see the barrier comment)
                .expect("worker alive until shutdown");
        }
        let mut collected: Vec<Option<Shard>> = (0..self.workers.len()).map(|_| None).collect();
        for _ in 0..self.workers.len() {
            let (k, shard) = self
                .shard_return_rx
                .recv()
                // lint:allow(no-panic-in-server-paths): a dead worker took its shard with it; the engine cannot be reassembled, so fail loudly (see the barrier comment)
                .expect("every worker surrenders its shard");
            collected[k] = Some(shard);
        }
        self.engine.attach_shards(
            collected
                .into_iter()
                // lint:allow(no-panic-in-server-paths): a missing shard here means a worker returned another worker's slot — state corruption, not a recoverable request failure
                .map(|s| s.expect("each worker returned one shard"))
                .collect(),
        );
        self.attached = true;
        if self.engine.periodic_reconcile_pending() {
            self.engine.run_pending_reconcile();
        }
        if self.cache_dirty || !self.deferred_acks.is_empty() {
            // A lost view shipment parked acks on the way here: the
            // shards are home and authoritative, so refresh the cache
            // wholesale and only then release the parked responses —
            // every ack a client sees is again backed by the cache.
            self.cache.refresh_all(&self.engine);
            self.cache_dirty = false;
            for (reply, response) in std::mem::take(&mut self.deferred_acks) {
                respond(&reply, response);
            }
        }
    }

    /// Sends the shards back to their workers after a barrier. Callers
    /// refresh the query cache themselves before responding (both barrier
    /// paths do it pre-ack), so no refresh happens here.
    fn redistribute(&mut self) {
        if !self.attached {
            return;
        }
        let shards = self.engine.detach_shards();
        for (k, shard) in shards.into_iter().enumerate() {
            self.workers[k]
                .tx
                .send(WorkerMsg::Resume(Box::new(shard)))
                // lint:allow(no-panic-in-server-paths): a send failure drops the shard on the floor (the worker thread panicked); serving without it would silently corrupt every merged answer
                .expect("worker alive until shutdown");
        }
        self.attached = false;
    }

    /// Hands the shards back to the workers after a reshard. When the
    /// shard count changed, the old pool (every worker idle: barriered,
    /// shard surrendered) is shut down and a fresh pool is spawned with
    /// the rebuilt shards — wired exactly like initial construction, so
    /// each worker's view-diff chain restarts from the full views the
    /// caller just installed. With an unchanged count this is the
    /// ordinary [`ShardDispatcher::redistribute`].
    fn resize_workers(&mut self) {
        if !self.attached {
            return;
        }
        if self.workers.len() == self.engine.num_shards() {
            self.redistribute();
            return;
        }
        for worker in &self.workers {
            let _ = worker.tx.send(WorkerMsg::Shutdown);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join.join();
        }
        let shards = self.engine.detach_shards();
        self.workers = shards
            .into_iter()
            .enumerate()
            .map(|(k, shard)| {
                spawn_worker(
                    k,
                    shard,
                    self.completion_tx.clone(),
                    self.shard_return_tx.clone(),
                    self.faults.clone(),
                )
            })
            .collect();
        self.attached = false;
    }
}

fn respond(reply: &Sender<String>, envelope: ResponseEnvelope) {
    // A dead connection is not the dispatcher's problem.
    let _ = reply.send(encode_response_envelope(&envelope));
}

/// A durability-layer failure (WAL append, checkpoint) as a response in
/// the requested dialect: a typed rejection for envelope clients, the
/// legacy `Rejected` string for bare ones.
fn durability_error(strict: bool, detail: String) -> Result<EngineResponse, EngineError> {
    let reason = crate::error::RejectReason::Invalid { detail };
    if strict {
        Err(EngineError::Rejected { reason })
    } else {
        Ok(EngineResponse::Rejected {
            reason: reason.to_string(),
        })
    }
}

/// An infrastructure failure (a dead worker, a dispatch invariant that
/// broke) as a response in the requested dialect: [`EngineError::Internal`]
/// for envelope clients, the legacy `Rejected` string for bare ones.
fn internal_error(strict: bool, detail: String) -> Result<EngineResponse, EngineError> {
    if strict {
        Err(EngineError::Internal { detail })
    } else {
        Ok(EngineResponse::Rejected {
            reason: format!("internal error: {detail}"),
        })
    }
}

/// An overload-control refusal ([`EngineError::Overloaded`] /
/// [`EngineError::DeadlineExceeded`]) in the requested dialect: the
/// typed error for envelope clients, the legacy `Rejected` string —
/// carrying the same Display text — for bare ones. Either way the
/// refusal is a *response*, never a silent drop.
fn shed_error(strict: bool, err: EngineError) -> Result<EngineResponse, EngineError> {
    if strict {
        Err(err)
    } else {
        Ok(EngineResponse::Rejected {
            reason: err.to_string(),
        })
    }
}

fn spawn_worker(
    k: usize,
    shard: Shard,
    completion_tx: Sender<ServerMsg>,
    shard_return_tx: Sender<(usize, Shard)>,
    faults: Option<Arc<FaultInjector>>,
) -> WorkerHandle {
    let (tx, rx) = mpsc::channel::<WorkerMsg>();
    let join = thread::spawn(move || {
        // Arm the shard's pair-edit recorder so the next apply can ship
        // its view as a diff, and remember which view epoch the cache
        // holds for this shard: the coordinator installed a full view of
        // exactly this state (`QueryCache::from_engine`) before the shard
        // was detached. Every shipped update extends that chain.
        let mut shard = shard;
        let _ = shard.take_view_diff();
        let mut last_view_epoch = shard.stats().deltas_applied;
        let mut slot = Some(shard);
        while let Ok(msg) = rx.recv() {
            match msg {
                WorkerMsg::Apply {
                    delta,
                    envelope_id,
                    reply,
                } => {
                    // Fault injection: a planned slow apply sleeps
                    // before executing — the shard is "contended", the
                    // dispatch queue backs up, bounded admission sheds.
                    if let Some(faults) = &faults {
                        faults.before_apply();
                    }
                    // lint:allow(no-panic-in-server-paths): the dispatcher only fast-paths while detached; an Apply without a shard is a protocol bug, and replying here instead would leak the dispatcher's pending count and hang the next barrier
                    let shard = slot.as_mut().expect("apply while surrendered");
                    let (outcome, breakdown) = shard.apply_measured(&delta).unwrap_or_else(|e| {
                        // lint:allow(no-panic-in-server-paths): documented contract — sharded serving requires id-independent conflict/interest functions, and a mirror-validated delta failing on its shard means that contract is broken, not that this request is bad
                        panic!(
                            "shard {k} rejected a mirror-validated delta ({e}); \
                             ShardedEngine requires attribute-based (id-independent) \
                             conflict and interest functions"
                        )
                    });
                    // Read-state for the coordinator's query cache,
                    // computed here so readers never barrier. The repair
                    // recorded its net pair edits, so the common case
                    // ships an O(changed) diff; a repair that rebuilt the
                    // arrangement wholesale (full re-solve, staleness adoption)
                    // disarmed the recorder and ships a full snapshot,
                    // re-syncing the chain.
                    let stats = *shard.stats();
                    let epoch = stats.deltas_applied;
                    let view = match shard.take_view_diff() {
                        Some(diff) => ViewUpdate::Diff(Box::new(ViewDelta {
                            parent_epoch: last_view_epoch,
                            epoch,
                            users: shard.instance().num_users(),
                            pairs: shard.arrangement().len(),
                            breakdown,
                            tracker: shard.tracker().clone(),
                            stats,
                            diff,
                        })),
                        None => ViewUpdate::Full(Box::new(ShardView {
                            epoch,
                            users: shard.instance().num_users(),
                            pairs: shard.arrangement().len(),
                            breakdown,
                            tracker: shard.tracker().clone(),
                            stats,
                            assignments: Arc::new(shard.arrangement().clone()),
                        })),
                    };
                    // Fault injection: a planned dropped reply loses the
                    // view shipment (the apply itself succeeded). The
                    // dispatcher barriers and refreshes before acking;
                    // the Resume below restarts this worker's chain.
                    let view = match &faults {
                        Some(f) if f.drop_view() => ViewUpdate::Lost,
                        _ => view,
                    };
                    last_view_epoch = epoch;
                    if completion_tx
                        .send(ServerMsg::Completion {
                            shard: k,
                            outcome,
                            view,
                            envelope_id,
                            reply,
                        })
                        .is_err()
                    {
                        break;
                    }
                }
                WorkerMsg::Surrender => {
                    // lint:allow(no-panic-in-server-paths): a double surrender means the dispatcher's attached-state tracking broke; returning nothing would deadlock the barrier waiting for this shard
                    let shard = slot.take().expect("surrender while surrendered");
                    if shard_return_tx.send((k, shard)).is_err() {
                        break;
                    }
                }
                WorkerMsg::Resume(shard) => {
                    // The coordinator may have mutated the shard at the
                    // barrier (reconcile, broadcasts, batches) and always
                    // refreshes the cache with full views before handing
                    // shards back: discard whatever the recorder caught
                    // coordinator-side (re-arming it) and restart the
                    // diff chain from the freshly installed epoch.
                    let mut shard = *shard;
                    let _ = shard.take_view_diff();
                    last_view_epoch = shard.stats().deltas_applied;
                    slot = Some(shard);
                }
                WorkerMsg::Shutdown => break,
            }
        }
    });
    WorkerHandle { tx, join }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::ShardedConfig;
    use crate::service::EngineService;
    use crate::shard::EngineConfig;
    use igepa_algos::GreedyArrangement;
    use igepa_core::{
        AttributeVector, ConstantInterest, EventId, HashPartitioner, Instance, NeverConflict,
        UserId,
    };
    use std::io::Cursor;

    fn base_instance(num_events: usize, num_users: usize) -> Instance {
        let mut b = Instance::builder();
        let events: Vec<EventId> = (0..num_events)
            .map(|_| b.add_event(2, AttributeVector::empty()))
            .collect();
        for _ in 0..num_users {
            b.add_user(2, AttributeVector::empty(), events.clone());
        }
        b.interaction_scores(vec![0.5; num_users]);
        b.build(&NeverConflict, &ConstantInterest(0.5)).unwrap()
    }

    fn sharded_for(num_events: usize, num_users: usize, num_shards: usize) -> ShardedEngine {
        ShardedEngine::new(
            base_instance(num_events, num_users),
            Box::new(NeverConflict),
            Box::new(ConstantInterest(0.5)),
            Box::new(GreedyArrangement),
            Box::new(HashPartitioner),
            ShardedConfig::with_shards(num_shards),
        )
    }

    fn add_user_request(event: usize) -> EngineRequest {
        EngineRequest::Apply {
            delta: InstanceDelta::AddUser {
                capacity: 1,
                attrs: AttributeVector::empty(),
                bids: vec![EventId::new(event)],
                interaction: 0.5,
            },
        }
    }

    #[test]
    fn frames_roundtrip_in_both_framings() {
        for framing in [Framing::Lines, Framing::LengthPrefixed] {
            let mut buffer = Vec::new();
            write_frame(&mut buffer, framing, "{\"a\":1}").unwrap();
            write_frame(&mut buffer, framing, "second payload").unwrap();
            let mut reader = Cursor::new(buffer);
            assert_eq!(
                read_frame(&mut reader, framing).unwrap().as_deref(),
                Some("{\"a\":1}")
            );
            assert_eq!(
                read_frame(&mut reader, framing).unwrap().as_deref(),
                Some("second payload")
            );
            assert_eq!(read_frame(&mut reader, framing).unwrap(), None);
        }
    }

    #[test]
    fn line_framing_skips_blank_lines() {
        let mut reader = Cursor::new(b"\n\n{\"x\":2}\n\n".to_vec());
        assert_eq!(
            read_frame(&mut reader, Framing::Lines).unwrap().as_deref(),
            Some("{\"x\":2}")
        );
        assert_eq!(read_frame(&mut reader, Framing::Lines).unwrap(), None);
    }

    #[test]
    fn single_shard_server_round_trips_requests() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let engine = ShardedEngine::single(
            base_instance(2, 3),
            Box::new(NeverConflict),
            Box::new(ConstantInterest(0.5)),
            Box::new(GreedyArrangement),
            EngineConfig::default(),
        );
        let handle = EngineServer::serve(listener, engine, Framing::Lines.into()).unwrap();
        let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();

        let applied = client.apply(InstanceDelta::AddUser {
            capacity: 1,
            attrs: AttributeVector::empty(),
            bids: vec![EventId::new(0)],
            interaction: 0.9,
        });
        assert!(matches!(applied, Ok(EngineResponse::Applied { .. })));

        // Typed errors surface client-side.
        let missing = client.query(EngineQuery::AssignmentsOf {
            user: UserId::new(99),
        });
        assert!(matches!(
            missing,
            Err(ClientError::Engine(EngineError::NotFound { .. }))
        ));

        let utility = client.query(EngineQuery::Utility).unwrap();
        assert!(matches!(utility, EngineResponse::Utility { total, .. } if total > 0.0));

        drop(client);
        let engine = handle.shutdown().unwrap();
        assert_eq!(engine.instance().num_users(), 4);
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
    }

    #[test]
    fn sharded_server_matches_in_process_responses() {
        // A synchronous client must observe exactly the in-process
        // service's responses: the worker pool changes where repairs run, not what
        // they produce.
        let requests: Vec<EngineRequest> = (0..40)
            .map(|i| match i % 7 {
                6 => EngineRequest::Query {
                    query: EngineQuery::Utility,
                },
                3 => EngineRequest::Query {
                    query: EngineQuery::EventLoad {
                        event: EventId::new(i % 3),
                    },
                },
                5 => EngineRequest::Apply {
                    delta: InstanceDelta::AddEvent {
                        capacity: 3,
                        attrs: AttributeVector::empty(),
                    },
                },
                _ => add_user_request(i % 3),
            })
            .collect();

        let mut serial = EngineService::new(sharded_for(3, 8, 2));
        let expected: Vec<Result<EngineResponse, EngineError>> =
            requests.iter().map(|r| serial.try_handle(r)).collect();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = EngineServer::serve(
            listener,
            sharded_for(3, 8, 2),
            ServerOptions::from(Framing::LengthPrefixed),
        )
        .unwrap();
        let mut client =
            EngineClient::connect(handle.local_addr(), Framing::LengthPrefixed).unwrap();
        let got: Vec<Result<EngineResponse, EngineError>> = requests
            .iter()
            .map(|r| match client.call(r.clone()) {
                Ok(response) => Ok(response),
                Err(ClientError::Engine(e)) => Err(e),
                Err(other) => panic!("transport failure: {other}"),
            })
            .collect();
        assert_eq!(got, expected);

        drop(client);
        let engine = handle.shutdown().unwrap();
        let serial_engine = serial.into_backend();
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
        assert_eq!(
            engine.merged_utility().total.to_bits(),
            serial_engine.merged_utility().total.to_bits()
        );
    }

    /// The headline robustness property: the worker pool grows and
    /// shrinks mid-trace while concurrent clients stream mutations, and
    /// not one request is refused — requests racing the migration are
    /// parked in the dispatcher's backlog and replayed against the
    /// rewritten owner table.
    #[test]
    fn live_reshard_grows_and_shrinks_with_zero_rejections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = EngineServer::serve(
            listener,
            sharded_for(3, 8, 4),
            ServerOptions::from(Framing::Lines),
        )
        .unwrap();
        let addr = handle.local_addr();

        // Two background clients hammer applies across both reshards.
        let writers: Vec<_> = (0..2)
            .map(|w| {
                thread::spawn(move || {
                    let mut client = EngineClient::connect(addr, Framing::Lines).unwrap();
                    for i in 0..30 {
                        let response = client.call(add_user_request((w + i) % 3)).unwrap();
                        assert!(
                            matches!(response, EngineResponse::Applied { .. }),
                            "writer {w} request {i} refused mid-migration: {response:?}"
                        );
                    }
                })
            })
            .collect();

        let mut client = EngineClient::connect(addr, Framing::Lines).unwrap();
        let grown = client
            .call(EngineRequest::Reshard { num_shards: 6 })
            .unwrap();
        let EngineResponse::Resharded { record, .. } = grown else {
            panic!("grow refused: {grown:?}");
        };
        assert_eq!((record.from_shards, record.to_shards), (4, 6));
        assert!(record.moved_users > 0);

        // The cache now answers six per-shard entries whose migration
        // counters balance against the record.
        let EngineResponse::ShardStats { shards } = client.query(EngineQuery::ShardStats).unwrap()
        else {
            panic!("ShardStats answered wrong variant");
        };
        assert_eq!(shards.len(), 6);
        assert_eq!(
            shards.iter().map(|e| e.moved_in).sum::<u64>(),
            record.moved_users
        );
        assert_eq!(
            shards.iter().map(|e| e.moved_out).sum::<u64>(),
            record.moved_users
        );

        let shrunk = client
            .call(EngineRequest::Reshard { num_shards: 3 })
            .unwrap();
        assert!(
            matches!(shrunk, EngineResponse::Resharded { .. }),
            "shrink refused: {shrunk:?}"
        );

        for writer in writers {
            writer.join().unwrap();
        }
        // Post-migration reads still serve every user through the cache.
        let EngineResponse::Snapshot {
            num_users, pairs, ..
        } = client.query(EngineQuery::MergedSnapshot).unwrap()
        else {
            panic!("MergedSnapshot answered wrong variant");
        };
        assert_eq!(num_users, 8 + 60);
        assert!(!pairs.is_empty());

        drop(client);
        let engine = handle.shutdown().unwrap();
        assert_eq!(engine.num_shards(), 3);
        assert_eq!(engine.rejected_count(), 0, "zero rejected requests");
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
    }

    /// A `num_shards`-shard engine whose pair utilities are not dyadic
    /// rationals (interest 0.3, interaction scores in tenths), so each
    /// shard's rounded utility total carries its own rounding error and
    /// summing those totals differs from the exact merged sum.
    fn non_dyadic_sharded(num_shards: usize) -> ShardedEngine {
        let mut b = Instance::builder();
        let events: Vec<EventId> = (0..3)
            .map(|_| b.add_event(4, AttributeVector::empty()))
            .collect();
        for _ in 0..6 {
            b.add_user(2, AttributeVector::empty(), events.clone());
        }
        b.interaction_scores((0..6).map(|u| 0.1 + 0.1 * f64::from(u)).collect());
        let instance = b.build(&NeverConflict, &ConstantInterest(0.3)).unwrap();
        ShardedEngine::new(
            instance,
            Box::new(NeverConflict),
            Box::new(ConstantInterest(0.3)),
            Box::new(GreedyArrangement),
            Box::new(HashPartitioner),
            ShardedConfig::with_shards(num_shards),
        )
    }

    #[test]
    fn cached_reads_are_never_stale_after_apply_acks() {
        // The consistency pin of the barrier-free read path: the cache is
        // updated BEFORE an apply is acked — per completion on the worker
        // fast path, and by the pre-respond refresh on the barrier path
        // (broadcasts) — so a client that has seen the ack can never read
        // the pre-apply epoch. Drive both apply kinds over TCP and, after
        // every single ack, compare each cacheable query against an
        // in-process service fed the same stream — bit for bit.
        assert_cached_reads_match_in_process(|| sharded_for(3, 6, 3));
        // Non-dyadic utilities over three shards: the cached `Utility`
        // must merge the views' exact accumulators like the in-process
        // engine does, not sum their rounded per-shard totals.
        assert_cached_reads_match_in_process(|| non_dyadic_sharded(3));
    }

    fn assert_cached_reads_match_in_process(engine: impl Fn() -> ShardedEngine) {
        let mut serial = EngineService::new(engine());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle =
            EngineServer::serve(listener, engine(), ServerOptions::from(Framing::Lines)).unwrap();
        let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();

        // Run past the periodic reconcile interval (64): the apply that
        // crosses it must reconcile-and-refresh BEFORE its ack, exactly
        // like the serial coordinator reconciles before returning.
        for i in 0..70 {
            let apply = if i % 5 == 4 {
                // Event-scoped: takes the barrier path, not the worker
                // fast path.
                EngineRequest::Apply {
                    delta: InstanceDelta::AddEvent {
                        capacity: 2,
                        attrs: AttributeVector::empty(),
                    },
                }
            } else {
                add_user_request(i % 3)
            };
            let expected_ack = serial.try_handle(&apply).unwrap();
            let ack = client.call(apply).unwrap();
            assert_eq!(ack, expected_ack);
            for query in [
                EngineQuery::Utility,
                EngineQuery::Stats,
                EngineQuery::ShardStats,
                // The per-entity reads are cached too (PR 5): a user
                // created by the apply acked just above must already be
                // visible, with exactly the serial assignments/loads.
                EngineQuery::AssignmentsOf {
                    user: UserId::new(i % 8),
                },
                EngineQuery::AssignmentsOf {
                    user: UserId::new(5 + i),
                },
                EngineQuery::EventLoad {
                    event: EventId::new(i % 4),
                },
                EngineQuery::EventLoad {
                    event: EventId::new(999),
                },
                // The full merged snapshot is served from the cached
                // views when they form a consistent checkpoint (PR 6) —
                // after an ack they always do, and the tracker-absorb
                // utility must equal the serial recompute bit for bit.
                EngineQuery::MergedSnapshot,
                // Answered at the dispatcher; durability is off on both
                // sides here.
                EngineQuery::DurabilityStats,
            ] {
                let expected = serial.try_handle(&EngineRequest::Query { query });
                let got = match client.query(query) {
                    Ok(response) => Ok(response),
                    Err(ClientError::Engine(e)) => Err(e),
                    Err(other) => panic!("transport failure: {other}"),
                };
                assert_eq!(got, expected, "stale cached read after ack {i}");
            }
        }

        drop(client);
        handle.shutdown().unwrap();
    }

    #[test]
    fn pipelined_client_matches_serial_client_bit_for_bit() {
        // The same request mix — applies, aggregate queries, invalid
        // deltas — driven once serially (call per request) and once as a
        // single pipelined burst against identically-constructed servers.
        // Pipelining changes only when requests hit the wire, never what
        // they produce.
        let requests: Vec<EngineRequest> = (0..60)
            .map(|i| match i % 6 {
                1 => EngineRequest::Query {
                    query: EngineQuery::Utility,
                },
                3 => EngineRequest::Query {
                    query: EngineQuery::Stats,
                },
                4 => EngineRequest::Apply {
                    delta: InstanceDelta::UpdateInteractionScore {
                        user: UserId::new(9999),
                        score: 0.5,
                    },
                },
                5 => EngineRequest::Query {
                    query: EngineQuery::ShardStats,
                },
                _ => add_user_request(i % 3),
            })
            .collect();

        let run = |pipelined: bool| -> Vec<Result<EngineResponse, EngineError>> {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let handle = EngineServer::serve(
                listener,
                sharded_for(3, 6, 2),
                ServerOptions::from(Framing::Lines),
            )
            .unwrap();
            let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();
            let results = if pipelined {
                client.pipeline(requests.clone()).unwrap()
            } else {
                requests
                    .iter()
                    .map(|r| match client.call(r.clone()) {
                        Ok(response) => Ok(response),
                        Err(ClientError::Engine(e)) => Err(e),
                        Err(other) => panic!("transport failure: {other}"),
                    })
                    .collect()
            };
            drop(client);
            handle.shutdown().unwrap();
            results
        };

        assert_eq!(run(true), run(false));
    }

    #[test]
    fn large_pipelined_bursts_do_not_deadlock() {
        // A burst far beyond the in-flight window (and beyond what
        // unbounded send-ahead could push through loopback socket
        // buffers without the server stalling) completes, in order.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = EngineServer::serve(
            listener,
            sharded_for(2, 4, 2),
            ServerOptions::from(Framing::Lines),
        )
        .unwrap();
        let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();
        let burst: Vec<EngineRequest> = (0..2000)
            .map(|i| match i % 2 {
                0 => EngineRequest::Query {
                    query: EngineQuery::Utility,
                },
                _ => add_user_request(i % 2),
            })
            .collect();
        let results = client.pipeline(burst).unwrap();
        assert_eq!(results.len(), 2000);
        assert!(results.iter().all(|r| r.is_ok()));
        drop(client);
        let engine = handle.shutdown().unwrap();
        assert_eq!(engine.instance().num_users(), 4 + 1000);
    }

    #[test]
    fn recv_rejects_ids_never_sent() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = EngineServer::serve(
            listener,
            sharded_for(2, 2, 1),
            ServerOptions::from(Framing::Lines),
        )
        .unwrap();
        let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();
        assert!(matches!(
            client.recv(42),
            Err(ClientError::UnknownId { id: 42 })
        ));
        // Out-of-order receive of a real burst still works.
        let a = client
            .send(EngineRequest::Query {
                query: EngineQuery::Utility,
            })
            .unwrap();
        let b = client
            .send(EngineRequest::Query {
                query: EngineQuery::Stats,
            })
            .unwrap();
        assert!(matches!(client.recv(b), Ok(EngineResponse::Stats { .. })));
        assert!(matches!(client.recv(a), Ok(EngineResponse::Utility { .. })));
        drop(client);
        handle.shutdown().unwrap();
    }

    #[test]
    fn sharded_server_survives_concurrent_clients() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = EngineServer::serve(
            listener,
            sharded_for(4, 8, 4),
            ServerOptions::from(Framing::Lines),
        )
        .unwrap();
        let addr = handle.local_addr();

        let clients: Vec<_> = (0..4)
            .map(|c| {
                thread::spawn(move || {
                    let mut client = EngineClient::connect(addr, Framing::Lines).unwrap();
                    for i in 0..25 {
                        client.call(add_user_request((c + i) % 4)).unwrap();
                    }
                    client.query(EngineQuery::MergedSnapshot).unwrap()
                })
            })
            .collect();
        for c in clients {
            assert!(matches!(c.join().unwrap(), EngineResponse::Snapshot { .. }));
        }

        let engine = handle.shutdown().unwrap();
        assert_eq!(engine.instance().num_users(), 8 + 4 * 25);
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
    }

    #[test]
    fn length_prefixed_frames_are_size_capped() {
        let mut reader = Cursor::new(0xFFFF_FFFFu32.to_be_bytes().to_vec());
        let err = read_frame(&mut reader, Framing::LengthPrefixed).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn fast_path_version_gates_like_the_in_process_service() {
        // An unsupported protocol version must answer Unsupported and
        // leave the engine untouched — even on the worker fast path.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = EngineServer::serve(
            listener,
            sharded_for(2, 4, 2),
            ServerOptions::from(Framing::Lines),
        )
        .unwrap();

        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let envelope = RequestEnvelope::new(7, 42, add_user_request(0));
        write_frame(
            &mut writer,
            Framing::Lines,
            &crate::protocol::encode_request_envelope(&envelope),
        )
        .unwrap();
        let line = read_frame(&mut reader, Framing::Lines).unwrap().unwrap();
        let response = decode_response_envelope(&line).unwrap();
        assert_eq!(response.id, 7);
        assert_eq!(
            response.result,
            Err(EngineError::Unsupported { version: 42 })
        );

        drop(writer);
        let engine = handle.shutdown().unwrap();
        assert_eq!(
            engine.instance().num_users(),
            4,
            "unsupported-version Apply must not mutate the engine"
        );
    }

    #[test]
    fn legacy_bare_requests_work_over_the_wire() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = EngineServer::serve(
            listener,
            sharded_for(2, 4, 2),
            ServerOptions::from(Framing::Lines),
        )
        .unwrap();

        // A hand-rolled legacy client: bare pre-envelope request lines.
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_frame(
            &mut writer,
            Framing::Lines,
            "{\"Query\":{\"query\":{\"AssignmentsOf\":{\"user\":99}}}}",
        )
        .unwrap();
        let line = read_frame(&mut reader, Framing::Lines).unwrap().unwrap();
        let envelope = decode_response_envelope(&line).unwrap();
        // Legacy dialect: silent empty answer instead of NotFound.
        assert_eq!(
            envelope.result,
            Ok(EngineResponse::Assignments {
                user: UserId::new(99),
                events: Vec::new(),
            })
        );

        drop(writer);
        handle.shutdown().unwrap();
    }

    #[test]
    fn deeply_nested_lines_answer_malformed_and_the_server_keeps_serving() {
        // 100k nested `[` used to overflow the connection thread's stack
        // in the JSON parser and abort the whole server process.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = EngineServer::serve(
            listener,
            sharded_for(2, 4, 2),
            ServerOptions::from(Framing::Lines),
        )
        .unwrap();

        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_frame(&mut writer, Framing::Lines, &"[".repeat(100_000)).unwrap();
        let line = read_frame(&mut reader, Framing::Lines).unwrap().unwrap();
        let response = decode_response_envelope(&line).unwrap();
        assert!(
            matches!(&response.result, Err(EngineError::Malformed { detail }) if detail.contains("nesting")),
            "{response:?}"
        );
        drop(writer);

        let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();
        let response = client.call(add_user_request(0)).unwrap();
        assert!(
            matches!(response, EngineResponse::Applied { .. }),
            "{response:?}"
        );
        drop(client);
        let engine = handle.shutdown().unwrap();
        assert_eq!(engine.instance().num_users(), 5);
    }

    #[test]
    fn durable_server_logs_checkpoints_and_recovers_bit_for_bit() {
        use crate::durability::{recover, test_dir, DurabilityController};
        use crate::shard::DurabilityPolicy;
        let dir = test_dir("transport-durable");

        // Serve durable and drive a mix: fast-path applies, event
        // broadcasts (barrier path), a rejected delta (logged too), one
        // explicit checkpoint mid-stream.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let controller = DurabilityController::create(&dir, DurabilityPolicy::Always).unwrap();
        let handle = EngineServer::serve(
            listener,
            sharded_for(3, 6, 2),
            ServerOptions {
                framing: Framing::Lines,
                durability: Some(controller),
                faults: None,
            },
        )
        .unwrap();
        let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();
        for i in 0..25 {
            let request = match i % 6 {
                5 => EngineRequest::Apply {
                    delta: InstanceDelta::AddEvent {
                        capacity: 2,
                        attrs: AttributeVector::empty(),
                    },
                },
                4 => EngineRequest::Apply {
                    delta: InstanceDelta::UpdateInteractionScore {
                        user: UserId::new(9999),
                        score: 0.5,
                    },
                },
                _ => add_user_request(i % 3),
            };
            let _ = client.call(request);
            if i == 11 {
                match client.call(EngineRequest::Checkpoint).unwrap() {
                    EngineResponse::CheckpointDone { wal_seq, bytes } => {
                        assert_eq!(wal_seq, 12, "12 mutating requests logged so far");
                        assert!(bytes > 0);
                    }
                    other => panic!("expected CheckpointDone, got {other:?}"),
                }
            }
        }
        match client.query(EngineQuery::DurabilityStats).unwrap() {
            EngineResponse::DurabilityStats {
                enabled,
                policy,
                wal_records,
                fsyncs,
                checkpoints,
                last_checkpoint_seq,
                ..
            } => {
                assert!(enabled);
                assert_eq!(policy, "always");
                assert_eq!(wal_records, 25, "every mutating request is logged");
                assert_eq!(checkpoints, 1);
                assert_eq!(last_checkpoint_seq, 12);
                assert_eq!(fsyncs, 25, "policy `always` fsyncs per append");
            }
            other => panic!("expected DurabilityStats, got {other:?}"),
        }
        drop(client);
        let engine = handle.shutdown().unwrap();

        // Recover from the directory alone: newest snapshot + WAL tail
        // must reproduce the served state bit for bit.
        let recovered = recover(
            &dir,
            || sharded_for(3, 6, 2),
            |state| {
                ShardedEngine::restore_state(
                    state,
                    Box::new(NeverConflict),
                    Box::new(ConstantInterest(0.5)),
                    Box::new(GreedyArrangement),
                    Box::new(HashPartitioner),
                )
            },
        )
        .unwrap();
        assert_eq!(recovered.report.snapshot_seq, Some(12));
        assert_eq!(recovered.report.replayed, 13, "the WAL tail past seq 12");
        assert_eq!(recovered.next_seq, 26);
        let restored = recovered.engine;
        assert_eq!(
            restored.merged_utility().total.to_bits(),
            engine.merged_utility().total.to_bits()
        );
        assert_eq!(
            restored.merged_arrangement().pairs().collect::<Vec<_>>(),
            engine.merged_arrangement().pairs().collect::<Vec<_>>()
        );
        assert_eq!(restored.stats(), engine.stats());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Builds a single-view cache seeded from the shard's current state,
    /// the way `spawn_worker`'s dispatcher-side counterpart starts out.
    fn cache_over(shard: &Shard) -> QueryCache {
        QueryCache {
            inner: RwLock::new(CacheInner {
                views: vec![ShardView::of(shard)],
                rejected: 0,
                owners: Vec::new(),
                capacities: Vec::new(),
                migrations: vec![(0, 0)],
            }),
        }
    }

    /// Ships the shard's post-apply read state exactly like the worker
    /// loop does: a [`ViewUpdate::Diff`] whenever the recorder is armed,
    /// a full [`ShardView`] otherwise. Returns the update plus whether it
    /// took the diff path.
    fn ship_update(shard: &mut Shard, parent_epoch: u64) -> (ViewUpdate, bool) {
        let stats = *shard.stats();
        let epoch = stats.deltas_applied;
        match shard.take_view_diff() {
            Some(diff) => (
                ViewUpdate::Diff(Box::new(ViewDelta {
                    parent_epoch,
                    epoch,
                    users: shard.instance().num_users(),
                    pairs: shard.arrangement().len(),
                    breakdown: shard.utility_breakdown(),
                    tracker: shard.tracker().clone(),
                    stats,
                    diff,
                })),
                true,
            ),
            None => (ViewUpdate::Full(Box::new(ShardView::of(shard))), false),
        }
    }

    fn assert_views_bit_identical(diffed: &ShardView, full: &ShardView) {
        assert_eq!(diffed.epoch, full.epoch);
        assert_eq!(diffed.users, full.users);
        assert_eq!(diffed.pairs, full.pairs);
        assert_eq!(
            diffed.breakdown.total.to_bits(),
            full.breakdown.total.to_bits()
        );
        assert_eq!(
            diffed.breakdown.interest_sum.to_bits(),
            full.breakdown.interest_sum.to_bits()
        );
        assert_eq!(
            diffed.breakdown.interaction_sum.to_bits(),
            full.breakdown.interaction_sum.to_bits()
        );
        assert_eq!(diffed.stats, full.stats);
        assert_eq!(*diffed.assignments, *full.assignments);
    }

    #[test]
    fn greedy_patch_applies_ship_diffs_and_patch_the_cached_view() {
        // AddUser applies take the greedy-patch path, so after the worker
        // arms the recorder every one of them must ship a diff — and the
        // diff-patched cache view must equal a fresh full snapshot.
        let mut shard = Shard::new(
            base_instance(3, 4),
            Arc::new(NeverConflict),
            Arc::new(ConstantInterest(0.5)),
            Arc::new(GreedyArrangement),
            EngineConfig::default(),
        );
        let cache = cache_over(&shard);
        let _ = shard.take_view_diff();
        let mut parent_epoch = shard.stats().deltas_applied;
        for i in 0..10 {
            shard
                .apply(&InstanceDelta::AddUser {
                    capacity: 1,
                    attrs: AttributeVector::empty(),
                    bids: vec![EventId::new(i % 3)],
                    interaction: 0.5,
                })
                .unwrap();
            let (update, was_diff) = ship_update(&mut shard, parent_epoch);
            assert!(was_diff, "greedy-patch apply {i} shipped a full snapshot");
            parent_epoch = shard.stats().deltas_applied;
            cache.install(0, update, 0, &[]);
            let installed = cache.inner.read().unwrap().views[0].clone();
            assert_views_bit_identical(&installed, &ShardView::of(&shard));
        }
    }

    /// Resolves raw numbers into an always-valid delta against the
    /// shard's evolving population (the `proptest_engine` idiom).
    fn resolve_raw(kind: u8, a: usize, b: usize, score: f64, instance: &Instance) -> InstanceDelta {
        let num_events = instance.num_events();
        let num_users = instance.num_users();
        match kind {
            0 => InstanceDelta::AddUser {
                capacity: 1 + a % 3,
                attrs: AttributeVector::empty(),
                bids: if num_events == 0 {
                    Vec::new()
                } else {
                    vec![EventId::new(a % num_events), EventId::new(b % num_events)]
                },
                interaction: score,
            },
            1 if num_users > 0 => InstanceDelta::RemoveUser {
                user: UserId::new(a % num_users),
            },
            2 => InstanceDelta::AddEvent {
                capacity: 1 + b % 4,
                attrs: AttributeVector::empty(),
            },
            3 if num_events > 0 && b.is_multiple_of(2) => InstanceDelta::UpdateCapacity {
                target: CapacityTarget::Event(EventId::new(a % num_events)),
                capacity: b % 5,
            },
            3 | 4 if num_users > 0 => {
                if kind == 3 {
                    InstanceDelta::UpdateCapacity {
                        target: CapacityTarget::User(UserId::new(a % num_users)),
                        capacity: b % 4,
                    }
                } else {
                    InstanceDelta::UpdateBids {
                        user: UserId::new(a % num_users),
                        bids: if num_events == 0 {
                            Vec::new()
                        } else {
                            vec![EventId::new(b % num_events)]
                        },
                    }
                }
            }
            5 if num_users > 0 => InstanceDelta::UpdateInteractionScore {
                user: UserId::new(a % num_users),
                score,
            },
            _ => InstanceDelta::AddEvent {
                capacity: 1 + b % 4,
                attrs: AttributeVector::empty(),
            },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The tentpole cache pin: under arbitrary valid delta sequences
        /// — greedy patches (diff path), full re-solves and wholesale
        /// rebuilds (snapshot fallback), user churn, capacity and bid
        /// edits — a cache fed the worker's real mix of diffs and
        /// snapshots holds, after every single install, exactly the view
        /// a clone_from-style full snapshot would have installed: same
        /// epoch, same counters, utility breakdown bit for bit, and the
        /// patched assignment snapshot equal to the shard's arrangement.
        #[test]
        fn diff_applied_views_equal_full_snapshots_bit_for_bit(
            raws in proptest::collection::vec(
                (0u8..6, 0usize..64, 0usize..64, 0.0f64..=1.0),
                1..40,
            ),
            seed in 0u64..50,
        ) {
            let mut shard = Shard::new(
                base_instance(3, 4),
                Arc::new(NeverConflict),
                Arc::new(ConstantInterest(0.5)),
                Arc::new(GreedyArrangement),
                EngineConfig {
                    seed,
                    staleness_check_interval: 8,
                    ..EngineConfig::default()
                },
            );
            let diff_fed = cache_over(&shard);
            let snapshot_fed = cache_over(&shard);
            let _ = shard.take_view_diff();
            let mut parent_epoch = shard.stats().deltas_applied;
            for &(kind, a, b, score) in &raws {
                let delta = resolve_raw(kind, a, b, score, shard.instance());
                proptest::prop_assert!(shard.apply(&delta).is_ok());
                let (update, _) = ship_update(&mut shard, parent_epoch);
                parent_epoch = shard.stats().deltas_applied;
                diff_fed.install(0, update, 0, &[]);
                snapshot_fed.install(0, ViewUpdate::Full(Box::new(ShardView::of(&shard))), 0, &[]);
                let diffed = diff_fed.inner.read().unwrap().views[0].clone();
                let full = snapshot_fed.inner.read().unwrap().views[0].clone();
                assert_views_bit_identical(&diffed, &full);
            }
        }
    }

    #[test]
    fn auto_checkpoints_trigger_on_the_logged_request_interval() {
        use crate::durability::{test_dir, DurabilityController};
        use crate::shard::DurabilityPolicy;
        let dir = test_dir("transport-autockpt");

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut controller = DurabilityController::create(&dir, DurabilityPolicy::Off).unwrap();
        controller.set_snapshot_every(8);
        let handle = EngineServer::serve(
            listener,
            sharded_for(2, 4, 2),
            ServerOptions {
                framing: Framing::Lines,
                durability: Some(controller),
                faults: None,
            },
        )
        .unwrap();
        let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();
        for i in 0..20 {
            client.call(add_user_request(i % 2)).unwrap();
        }
        match client.query(EngineQuery::DurabilityStats).unwrap() {
            EngineResponse::DurabilityStats {
                checkpoints,
                last_checkpoint_seq,
                ..
            } => {
                assert_eq!(checkpoints, 2, "20 logged requests, one checkpoint per 8");
                assert_eq!(last_checkpoint_seq, 16);
            }
            other => panic!("expected DurabilityStats, got {other:?}"),
        }
        drop(client);
        handle.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sharded_with_admission(
        num_events: usize,
        num_users: usize,
        num_shards: usize,
        admission: AdmissionPolicy,
    ) -> ShardedEngine {
        let mut config = ShardedConfig::with_shards(num_shards);
        config.shard.admission = admission;
        ShardedEngine::new(
            base_instance(num_events, num_users),
            Box::new(NeverConflict),
            Box::new(ConstantInterest(0.5)),
            Box::new(GreedyArrangement),
            Box::new(HashPartitioner),
            config,
        )
    }

    fn overload_stats(client: &mut EngineClient) -> OverloadStats {
        match client.query(EngineQuery::OverloadStats).unwrap() {
            EngineResponse::OverloadStats { stats } => stats,
            other => panic!("expected OverloadStats, got {other:?}"),
        }
    }

    #[test]
    fn bounded_admission_sheds_mutations_and_keeps_reads_flowing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let engine = sharded_with_admission(2, 4, 2, AdmissionPolicy::bounded(0));
        let handle =
            EngineServer::serve(listener, engine, ServerOptions::from(Framing::Lines)).unwrap();
        let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();

        // Every mutation is refused immediately with the typed error —
        // never a silent drop, never an unbounded wait.
        for i in 0..3 {
            match client.call(add_user_request(i % 2)) {
                Err(ClientError::Engine(EngineError::Overloaded {
                    queue_depth,
                    retry_after_ms,
                })) => {
                    assert_eq!(queue_depth, 0);
                    assert_eq!(retry_after_ms, 50);
                }
                other => panic!("expected Overloaded, got {other:?}"),
            }
        }

        // Reads keep answering from the barrier-free cache throughout.
        let utility = client.query(EngineQuery::Utility).unwrap();
        assert!(matches!(utility, EngineResponse::Utility { total, .. } if total > 0.0));

        let stats = overload_stats(&mut client);
        assert_eq!(stats.policy, "bounded(0)");
        assert_eq!(stats.shed, 3);
        assert_eq!(stats.queue_depth, 0);
        assert!(!stats.read_only);

        drop(client);
        let engine = handle.shutdown().unwrap();
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
    }

    #[test]
    fn legacy_clients_get_sheds_as_rejected_strings() {
        // The legacy dialect predates the typed overload errors; a shed
        // must still be a *response* there — the `Rejected` string — not
        // a silent drop.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let engine = sharded_with_admission(2, 4, 2, AdmissionPolicy::bounded(0));
        let handle =
            EngineServer::serve(listener, engine, ServerOptions::from(Framing::Lines)).unwrap();

        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_frame(
            &mut writer,
            Framing::Lines,
            &crate::protocol::encode_request(&add_user_request(0)),
        )
        .unwrap();
        let line = read_frame(&mut reader, Framing::Lines).unwrap().unwrap();
        let envelope = decode_response_envelope(&line).unwrap();
        match envelope.result {
            Ok(EngineResponse::Rejected { reason }) => {
                assert!(reason.starts_with("overloaded:"), "got: {reason}")
            }
            other => panic!("expected legacy Rejected, got {other:?}"),
        }

        drop(writer);
        handle.shutdown().unwrap();
    }

    #[test]
    fn zero_deadline_expires_before_dispatch() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = EngineServer::serve(
            listener,
            sharded_for(2, 4, 2),
            ServerOptions::from(Framing::Lines),
        )
        .unwrap();
        let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();

        // A zero budget has always expired by dequeue time — the
        // deterministic probe for the deadline gate.
        let id = client
            .send_with_deadline(add_user_request(0), Some(0))
            .unwrap();
        match client.recv(id) {
            Err(ClientError::Engine(EngineError::DeadlineExceeded { deadline_ms })) => {
                assert_eq!(deadline_ms, 0)
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }

        // A generous budget does not interfere: the same request applies.
        let id = client
            .send_with_deadline(add_user_request(0), Some(60_000))
            .unwrap();
        assert!(matches!(
            client.recv(id),
            Ok(EngineResponse::Applied { .. })
        ));

        let stats = overload_stats(&mut client);
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.shed, 0);

        drop(client);
        let engine = handle.shutdown().unwrap();
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
    }

    #[test]
    fn pipeline_window_edges_match_serial_responses() {
        // The send-ahead window is a throughput knob, not a semantics
        // knob: window=1 (degenerate serial) and a window far larger
        // than the burst must produce byte-identical response streams.
        let requests: Vec<EngineRequest> = (0..24)
            .map(|i| match i % 5 {
                0 => EngineRequest::Query {
                    query: EngineQuery::Utility,
                },
                3 => EngineRequest::Query {
                    query: EngineQuery::EventLoad {
                        event: EventId::new(i % 3),
                    },
                },
                _ => add_user_request(i % 3),
            })
            .collect();

        let mut runs: Vec<Vec<Result<EngineResponse, EngineError>>> = Vec::new();
        for window in [1usize, 4096] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let handle = EngineServer::serve(
                listener,
                sharded_for(3, 6, 2),
                ServerOptions::from(Framing::Lines),
            )
            .unwrap();
            let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();
            client.set_pipeline_window(0);
            assert_eq!(client.pipeline_window(), 1, "window clamps to at least 1");
            client.set_pipeline_window(window);
            assert_eq!(client.pipeline_window(), window);
            runs.push(client.pipeline(requests.clone()).unwrap());
            drop(client);
            handle.shutdown().unwrap();
        }
        assert_eq!(runs[0], runs[1]);

        // And both match the strictly serial request-response pattern.
        let mut serial = EngineService::new(sharded_for(3, 6, 2));
        let expected: Vec<Result<EngineResponse, EngineError>> =
            requests.iter().map(|r| serial.try_handle(r)).collect();
        assert_eq!(runs[0], expected);
    }

    #[test]
    fn retry_backoff_is_deterministic_and_honours_server_hint() {
        let policy = RetryPolicy {
            max_retries: 8,
            base_ms: 10,
            cap_ms: 1000,
            seed: 0xfeed,
        };
        let schedule: Vec<u64> = (0..8).map(|a| policy.backoff_ms(a, 0)).collect();
        let again: Vec<u64> = (0..8).map(|a| policy.backoff_ms(a, 0)).collect();
        assert_eq!(schedule, again, "same (seed, attempt) → same sleep");

        let reseeded = RetryPolicy {
            seed: 0xbeef,
            ..policy
        };
        let other: Vec<u64> = (0..8).map(|a| reseeded.backoff_ms(a, 0)).collect();
        assert_ne!(schedule, other, "different seed → different jitter");

        for (attempt, &ms) in schedule.iter().enumerate() {
            let step = (policy.base_ms << attempt).min(policy.cap_ms);
            assert!(
                ms >= step - step / 2 && ms <= step,
                "attempt {attempt}: {ms} ms outside [{}, {step}]",
                step - step / 2
            );
        }

        // The server's retry_after_ms hint is a floor on every sleep.
        assert_eq!(policy.backoff_ms(0, 5000), 5000);
    }

    #[test]
    fn call_with_retry_retries_overloaded_then_gives_up() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let engine = sharded_with_admission(2, 4, 2, AdmissionPolicy::bounded(0));
        let handle =
            EngineServer::serve(listener, engine, ServerOptions::from(Framing::Lines)).unwrap();
        let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();

        let policy = RetryPolicy {
            max_retries: 2,
            base_ms: 1,
            cap_ms: 2,
            seed: 7,
        };
        match client.call_with_retry(add_user_request(0), &policy) {
            Err(ClientError::Engine(EngineError::Overloaded { .. })) => {}
            other => panic!("expected Overloaded after retries, got {other:?}"),
        }
        // The initial attempt plus max_retries resends, each shed at
        // admission.
        assert_eq!(overload_stats(&mut client).shed, 3);

        drop(client);
        handle.shutdown().unwrap();
    }

    #[test]
    fn query_resilient_reconnects_and_replays_after_connection_loss() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = EngineServer::serve(
            listener,
            sharded_for(2, 4, 2),
            ServerOptions::from(Framing::Lines),
        )
        .unwrap();
        let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();
        let expected = client.query(EngineQuery::Utility).unwrap();

        // Kill the socket under the client: a plain query now fails...
        client.writer.shutdown(std::net::Shutdown::Both).unwrap();
        assert!(client.query(EngineQuery::Utility).is_err());

        // ...but the resilient read redials the same server and replays.
        let policy = RetryPolicy {
            base_ms: 1,
            cap_ms: 2,
            ..RetryPolicy::default()
        };
        let got = client
            .query_resilient(EngineQuery::Utility, &policy)
            .unwrap();
        assert_eq!(got, expected);

        drop(client);
        handle.shutdown().unwrap();
    }

    #[test]
    fn wal_append_failure_latches_read_only_degraded_mode() {
        use crate::durability::{test_dir, DurabilityController};
        use crate::faults::{FaultInjector, FaultPlan};
        use crate::shard::DurabilityPolicy;
        let dir = test_dir("transport-walfail");

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let controller = DurabilityController::create(&dir, DurabilityPolicy::Always).unwrap();
        let faults = Arc::new(FaultInjector::new(FaultPlan {
            wal_fail_at: Some(3),
            ..FaultPlan::quiet()
        }));
        let handle = EngineServer::serve(
            listener,
            sharded_for(2, 4, 2),
            ServerOptions {
                framing: Framing::Lines,
                durability: Some(controller),
                faults: Some(Arc::clone(&faults)),
            },
        )
        .unwrap();
        let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();

        // Appends 1 and 2 succeed.
        for i in 0..2 {
            assert!(matches!(
                client.call(add_user_request(i % 2)),
                Ok(EngineResponse::Applied { .. })
            ));
        }
        // Append 3 is forced to fail: the request is refused with the
        // durability rejection and the server latches read-only.
        match client.call(add_user_request(0)) {
            Err(ClientError::Engine(EngineError::Rejected { reason })) => {
                let text = reason.to_string();
                assert!(text.contains("read-only"), "got: {text}");
            }
            other => panic!("expected durability rejection, got {other:?}"),
        }
        // Later mutations are shed at admission without touching the WAL.
        assert!(matches!(
            client.call(add_user_request(1)),
            Err(ClientError::Engine(EngineError::Overloaded { .. }))
        ));
        // Reads keep answering, and the degraded mode is observable.
        assert!(matches!(
            client.query(EngineQuery::Utility),
            Ok(EngineResponse::Utility { .. })
        ));
        let stats = overload_stats(&mut client);
        assert!(stats.read_only);
        assert_eq!(stats.shed, 1);

        drop(client);
        let engine = handle.shutdown().unwrap();
        // Only the two WAL-logged applies ever executed.
        assert_eq!(engine.instance().num_users(), 6);
        assert!(engine.merged_arrangement().is_feasible(engine.instance()));
        assert_eq!(faults.counts().wal_failures, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_injected_servers_preserve_request_response_semantics() {
        use crate::faults::{FaultInjector, FaultPlan};
        // The harness contract: injected slowness and lost view
        // shipments change timing and recovery paths, never responses.
        // Three servers — quiet, every-apply-slow, every-view-lost —
        // must each be bit-identical to the serial service.
        let requests: Vec<EngineRequest> = (0..18)
            .map(|i| match i % 4 {
                0 => EngineRequest::Query {
                    query: EngineQuery::Utility,
                },
                2 => EngineRequest::Query {
                    query: EngineQuery::EventLoad {
                        event: EventId::new(i % 3),
                    },
                },
                _ => add_user_request(i % 3),
            })
            .collect();
        let mut serial = EngineService::new(sharded_for(3, 6, 2));
        let expected: Vec<Result<EngineResponse, EngineError>> =
            requests.iter().map(|r| serial.try_handle(r)).collect();

        let plans = [
            FaultPlan::quiet(),
            FaultPlan {
                slow_apply_permille: 1000,
                slow_apply_ms: 1,
                ..FaultPlan::quiet()
            },
            FaultPlan {
                drop_view_permille: 1000,
                ..FaultPlan::quiet()
            },
        ];
        for (p, plan) in plans.into_iter().enumerate() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let faults = Arc::new(FaultInjector::new(plan));
            let handle = EngineServer::serve(
                listener,
                sharded_for(3, 6, 2),
                ServerOptions {
                    framing: Framing::Lines,
                    durability: None,
                    faults: Some(Arc::clone(&faults)),
                },
            )
            .unwrap();
            let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();
            let got: Vec<Result<EngineResponse, EngineError>> = requests
                .iter()
                .map(|r| match client.call(r.clone()) {
                    Ok(response) => Ok(response),
                    Err(ClientError::Engine(e)) => Err(e),
                    Err(other) => panic!("transport failure under plan {p}: {other}"),
                })
                .collect();
            assert_eq!(got, expected, "plan {p} diverged from serial responses");

            drop(client);
            let engine = handle.shutdown().unwrap();
            assert!(engine.merged_arrangement().is_feasible(engine.instance()));
            let counts = faults.counts();
            match p {
                0 => {
                    assert_eq!(counts.slow_applies, 0);
                    assert_eq!(counts.dropped_views, 0);
                }
                1 => assert!(counts.slow_applies > 0),
                _ => assert!(counts.dropped_views > 0),
            }
        }
    }
}
