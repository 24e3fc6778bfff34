//! Crash recovery: newest valid snapshot + WAL tail replay.
//!
//! Recovery is provably exact, not merely plausible, because the engine
//! is deterministic end to end: solver seeds are drawn from checkpointed
//! counters and every utility sum goes through the exact accumulator.
//! Restoring the newest valid checkpoint and replaying the WAL records
//! after its `wal_seq` therefore reproduces — bit for bit — the merged
//! arrangement and utility breakdown of an engine that executed the same
//! request prefix without ever crashing. The crash-injection integration
//! tests assert exactly that equivalence at arbitrary kill points.

use crate::coordinator::ShardedEngine;
use crate::durability::snapshot::{load_newest, EngineSnapshotState};
use crate::durability::wal::{read_wal, WalError};
use std::path::Path;

/// What recovery did, for reporting and for the `recover` CLI.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// WAL sequence the loaded snapshot covered (`None`: no snapshot,
    /// recovery replayed the whole log from a fresh engine).
    pub snapshot_seq: Option<u64>,
    /// Partial or corrupt snapshot files that were skipped.
    pub skipped_snapshots: usize,
    /// Valid WAL records on disk (including those the snapshot covers).
    pub wal_records: usize,
    /// Records actually replayed (the tail after the snapshot).
    pub replayed: usize,
    /// Bytes of torn WAL tail truncated away.
    pub truncated_bytes: u64,
    /// Torn frames discarded with those bytes.
    pub truncated_records: u64,
    /// Utility served by the recovered engine.
    pub final_utility: f64,
    /// Pairs served by the recovered engine.
    pub final_pairs: usize,
}

/// A recovered engine plus everything needed to resume serving durably.
pub struct Recovered {
    /// The recovered engine, caught up through the last intact record.
    pub engine: ShardedEngine,
    /// What recovery did.
    pub report: RecoveryReport,
    /// Sequence number the resumed WAL writer must assign next.
    pub next_seq: u64,
    /// `wal_seq` of the snapshot recovery started from (0 when none).
    pub last_checkpoint_seq: u64,
}

/// Errors raised during recovery.
#[derive(Debug)]
pub enum RecoveryError {
    /// The WAL could not be read (I/O, or interior corruption that
    /// truncation must not repair).
    Wal(WalError),
    /// A snapshot loaded and validated but could not be turned back into
    /// an engine (schema drift, or checkpoint/restore divergence caught
    /// by the bit-exact tracker verification).
    Restore(String),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Wal(e) => write!(f, "recovery failed reading the wal: {e}"),
            RecoveryError::Restore(detail) => {
                write!(f, "recovery failed restoring the snapshot: {detail}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> Self {
        RecoveryError::Wal(e)
    }
}

/// Recovers an engine from `dir`: loads the newest valid snapshot (via
/// `restore`), or builds a fresh engine (via `fresh`) when none exists,
/// then replays the WAL tail through the standard replay path. Torn tail
/// records are truncated from the log on the way.
///
/// `fresh` must rebuild the engine exactly as it was originally started
/// (same instance, functions, partitioner, config); `restore` is
/// typically [`ShardedEngine::restore_state`] partially applied over the
/// same functions. Determinism does the rest.
pub fn recover(
    dir: &Path,
    fresh: impl FnOnce() -> ShardedEngine,
    restore: impl FnOnce(&EngineSnapshotState) -> Result<ShardedEngine, String>,
) -> Result<Recovered, RecoveryError> {
    let (loaded, skipped) = load_newest(dir).map_err(|e| RecoveryError::Wal(WalError::Io(e)))?;
    let mut report = RecoveryReport {
        skipped_snapshots: skipped.len(),
        ..RecoveryReport::default()
    };
    let (mut engine, covered) = match loaded {
        Some((state, _)) => {
            report.snapshot_seq = Some(state.wal_seq);
            (
                restore(&state).map_err(RecoveryError::Restore)?,
                state.wal_seq,
            )
        }
        None => (fresh(), 0),
    };
    let (records, wal_report) = read_wal(dir, true)?;
    if let Some(first) = records.first() {
        if first.seq > covered + 1 {
            // The log's head was compacted against a snapshot we could
            // not load: replaying the tail alone would skip records.
            return Err(RecoveryError::Restore(format!(
                "wal starts at seq {} but the best snapshot covers only {covered}",
                first.seq
            )));
        }
    }
    report.wal_records = records.len();
    report.truncated_bytes = wal_report.truncated_bytes;
    report.truncated_records = wal_report.truncated_records;
    let mut last_seq = covered;
    for record in &records {
        if record.seq <= covered {
            continue;
        }
        // Replay through the same handle path the server executed; the
        // response (including a rejection) is re-derived deterministically
        // and discarded.
        let _ = engine.handle(&record.request);
        report.replayed += 1;
        last_seq = record.seq;
    }
    report.final_utility = engine.utility();
    report.final_pairs = engine.num_pairs();
    Ok(Recovered {
        engine,
        report,
        next_seq: last_seq + 1,
        last_checkpoint_seq: covered,
    })
}
