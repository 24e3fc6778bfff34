//! The durability subsystem: write-ahead log, versioned checkpoints, and
//! bit-identical crash recovery.
//!
//! Three layers, one invariant:
//!
//! * [`wal`] — a segmented, checksummed log of every mutating request,
//!   appended **before** the request is acknowledged (and before it
//!   executes), with a configurable fsync policy
//!   ([`DurabilityPolicy`]);
//! * [`snapshot`] — periodic consistent checkpoints of the full engine
//!   state, versioned and checksummed, after which covered WAL segments
//!   are compacted away;
//! * [`recovery`] — newest-valid-snapshot restore plus WAL-tail replay,
//!   reproducing the pre-crash engine **bit for bit** (torn WAL tails are
//!   truncated; partial snapshots are skipped for the previous valid
//!   one).
//!
//! The invariant that makes this exact rather than best-effort: the
//! engine is deterministic (seeded solvers, exact utility summation), so
//! `restore(checkpoint) + replay(tail)` *is* the uninterrupted execution
//! of the same request prefix.
//!
//! [`DurabilityController`] packages the three for the serving layer: the
//! transport logs every admitted mutating request through it before the
//! ack, executes `Checkpoint` admin requests against it, and triggers
//! automatic checkpoints every
//! [`DurabilityController::set_snapshot_every`] logged requests.

pub mod recovery;
pub mod snapshot;
pub mod wal;

pub use recovery::{recover, Recovered, RecoveryError, RecoveryReport};
pub use snapshot::{EngineSnapshotState, ShardRecord, SnapshotReadError, STATE_VERSION};
pub use wal::{read_wal, WalError, WalReadReport, WalRecord, WalWriter};

use crate::protocol::EngineRequest;
use crate::shard::DurabilityPolicy;
use std::io;
use std::path::{Path, PathBuf};

/// Logged requests between automatic checkpoints, unless overridden.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 512;

/// Whether a request mutates engine state and therefore must be logged
/// before its acknowledgement. Queries (and `Checkpoint` itself, which is
/// an admin action on the durability layer, not on the arrangement) are
/// not logged.
pub fn is_mutating(request: &EngineRequest) -> bool {
    matches!(
        request,
        EngineRequest::Apply { .. }
            | EngineRequest::ApplyBatch { .. }
            | EngineRequest::Rebalance
            | EngineRequest::Reshard { .. }
    )
}

/// A point-in-time copy of the durability counters, answered to the
/// `DurabilityStats` query.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityStatsView {
    /// Human-readable fsync policy (`"off"`, `"interval(5ms)"`, …).
    pub policy: String,
    /// Records appended to the WAL.
    pub wal_records: u64,
    /// Bytes appended to the WAL (frames, including headers).
    pub wal_bytes: u64,
    /// Fsyncs issued by the policy.
    pub fsyncs: u64,
    /// WAL segment files created.
    pub segments: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// WAL sequence covered by the last checkpoint (0: none yet).
    pub last_checkpoint_seq: u64,
}

/// Renders a [`DurabilityPolicy`] for stats and logs.
pub fn policy_name(policy: DurabilityPolicy) -> String {
    match policy {
        DurabilityPolicy::Off => "off".to_string(),
        DurabilityPolicy::Interval { millis } => format!("interval({millis}ms)"),
        DurabilityPolicy::EveryN { n } => format!("every({n})"),
        DurabilityPolicy::Always => "always".to_string(),
    }
}

/// What one checkpoint produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointOutcome {
    /// The snapshot file written.
    pub path: PathBuf,
    /// Its size in bytes.
    pub bytes: u64,
    /// The WAL sequence it covers.
    pub wal_seq: u64,
    /// WAL segment files compacted away.
    pub compacted_segments: u64,
}

/// The serving layer's handle on the durability subsystem: one WAL
/// writer plus checkpoint management over one directory.
pub struct DurabilityController {
    dir: PathBuf,
    policy: DurabilityPolicy,
    writer: WalWriter,
    snapshot_every: u64,
    since_checkpoint: u64,
    checkpoints: u64,
    last_checkpoint_seq: u64,
    fail_snapshot_after_bytes: Option<u64>,
}

impl DurabilityController {
    /// Opens a controller over a fresh durability directory (first record
    /// takes sequence 1).
    pub fn create(dir: &Path, policy: DurabilityPolicy) -> io::Result<Self> {
        DurabilityController::resume(dir, policy, 1, 0)
    }

    /// Opens a controller that continues an existing log: `next_seq` is
    /// the sequence the next logged request takes (from
    /// [`Recovered::next_seq`]), `last_checkpoint_seq` the coverage of
    /// the newest valid snapshot (from [`Recovered::last_checkpoint_seq`]).
    pub fn resume(
        dir: &Path,
        policy: DurabilityPolicy,
        next_seq: u64,
        last_checkpoint_seq: u64,
    ) -> io::Result<Self> {
        let writer = WalWriter::open(dir, policy, next_seq)?;
        Ok(DurabilityController {
            dir: dir.to_path_buf(),
            policy,
            writer,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            since_checkpoint: 0,
            checkpoints: 0,
            last_checkpoint_seq,
            fail_snapshot_after_bytes: None,
        })
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sets how many logged requests trigger an automatic checkpoint
    /// (0 disables automatic checkpoints; explicit `Checkpoint` requests
    /// always work).
    pub fn set_snapshot_every(&mut self, every: u64) {
        self.snapshot_every = every;
    }

    /// Overrides the WAL segment rotation threshold (tests).
    pub fn set_segment_max_bytes(&mut self, bytes: u64) {
        self.writer.set_segment_max_bytes(bytes);
    }

    /// Crash-injection: the next WAL append writes a partial frame and
    /// fails (see [`WalWriter::set_fail_after_bytes`]).
    pub fn set_fail_wal_after_bytes(&mut self, limit: Option<u64>) {
        self.writer.set_fail_after_bytes(limit);
    }

    /// Crash-injection: the next checkpoint writes a partial snapshot
    /// file and fails.
    pub fn set_fail_snapshot_after_bytes(&mut self, limit: Option<u64>) {
        self.fail_snapshot_after_bytes = limit;
    }

    /// Sequence number of the last logged request (0: none).
    pub fn last_seq(&self) -> u64 {
        self.writer.last_seq()
    }

    /// WAL sequence covered by the newest checkpoint (0: none yet).
    /// Snapshots are written in place under their coverage sequence, so
    /// callers cutting a checkpoint at an already-covered sequence must
    /// skip it — a torn rewrite would destroy the existing valid file.
    pub fn last_checkpoint_seq(&self) -> u64 {
        self.last_checkpoint_seq
    }

    /// Logs one admitted mutating request ahead of its execution and
    /// acknowledgement. Returns the record's sequence number.
    pub fn log(
        &mut self,
        envelope_id: u64,
        epoch: u64,
        request: &EngineRequest,
    ) -> io::Result<u64> {
        debug_assert!(is_mutating(request), "only mutating requests are logged");
        let seq = self.writer.append(envelope_id, epoch, request)?;
        self.since_checkpoint += 1;
        Ok(seq)
    }

    /// Whether enough requests were logged since the last checkpoint for
    /// an automatic one.
    pub fn auto_checkpoint_due(&self) -> bool {
        self.snapshot_every > 0 && self.since_checkpoint >= self.snapshot_every
    }

    /// Writes a checkpoint, prunes old snapshots (the newest two are
    /// kept) and compacts covered WAL segments. `state.wal_seq` must be
    /// [`DurabilityController::last_seq`] captured at a barrier.
    pub fn checkpoint(&mut self, state: &EngineSnapshotState) -> io::Result<CheckpointOutcome> {
        let fail = self.fail_snapshot_after_bytes.take();
        let (path, bytes) = snapshot::write_snapshot(&self.dir, state, fail)?;
        snapshot::prune_snapshots(&self.dir, 2)?;
        let compacted_segments = self.writer.compact(state.wal_seq)?;
        self.checkpoints += 1;
        self.last_checkpoint_seq = state.wal_seq;
        self.since_checkpoint = 0;
        Ok(CheckpointOutcome {
            path,
            bytes,
            wal_seq: state.wal_seq,
            compacted_segments,
        })
    }

    /// Point-in-time durability counters.
    pub fn stats(&self) -> DurabilityStatsView {
        let (wal_records, wal_bytes, fsyncs, segments) = self.writer.counters();
        DurabilityStatsView {
            policy: policy_name(self.policy),
            wal_records,
            wal_bytes,
            fsyncs,
            segments,
            checkpoints: self.checkpoints,
            last_checkpoint_seq: self.last_checkpoint_seq,
        }
    }
}

/// Unique temp-dir helper shared by the durability unit tests.
#[cfg(test)]
pub(crate) fn test_dir(label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "igepa-durability-{label}-{}-{n}",
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
