//! The segmented write-ahead log.
//!
//! Every mutating request the served engine accepts for execution is
//! appended here *before* its acknowledgement is sent (and before the
//! shards touch it), as a length-prefixed, checksummed frame carrying the
//! request's envelope id and the catalogue epoch it was admitted under.
//! Replaying the log from the last checkpoint therefore reproduces the
//! engine's post-crash state bit for bit — including rejections, which
//! are logged too (the rejection *decision* is deterministic, so replay
//! re-derives it and the `deltas_rejected` counter survives exactly).
//!
//! ## Frame format
//!
//! ```text
//! [u32 BE payload length][u64 BE FNV-1a-64 of payload][payload JSON]
//! ```
//!
//! A torn tail — a frame cut short by a crash mid-append — fails either
//! the length bound or the checksum and is truncated away by the reader;
//! the same failure anywhere *except* the final segment tail is real
//! corruption and reported as an error instead.
//!
//! ## Segments
//!
//! The log is a directory of `wal-<first-seq>.log` segment files, rotated
//! by size. After a checkpoint at sequence `S`, [`WalWriter::compact`]
//! deletes every segment wholly covered by the snapshot (all records
//! `≤ S`), keeping the segment containing `S + 1` and everything after.

use crate::protocol::EngineRequest;
use crate::shard::DurabilityPolicy;
use serde::{Deserialize, Serialize};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// FNV-1a 64-bit hash — the WAL/snapshot checksum. Not cryptographic;
/// it guards against torn writes and bit rot, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Bytes of the fixed frame header: length prefix plus checksum.
const FRAME_HEADER: usize = 12;

/// Upper bound accepted for one frame's payload; a corrupt length prefix
/// must not make the reader allocate gigabytes.
const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Default segment rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1024 * 1024;

/// One logged request: the replayable unit of the WAL.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Monotone log sequence number (1-based; `0` means "nothing logged").
    pub seq: u64,
    /// Correlation id of the request envelope that carried the request.
    pub envelope_id: u64,
    /// Catalogue epoch the request was admitted under.
    pub epoch: u64,
    /// The request itself (always a mutating kind; queries are not logged).
    pub request: EngineRequest,
}

/// Errors raised while reading the log.
#[derive(Debug)]
pub enum WalError {
    /// An I/O failure outside any frame.
    Io(io::Error),
    /// A frame failed validation somewhere truncation cannot repair
    /// (mid-stream, or in a non-final segment).
    Corrupt {
        /// The offending segment file.
        segment: PathBuf,
        /// Byte offset of the bad frame.
        offset: u64,
        /// What failed.
        detail: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "wal corrupt in {} at offset {offset}: {detail}",
                segment.display()
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{first_seq:020}.log"))
}

/// Lists the log's segment files as `(first_seq, path)`, ascending.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(stem) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
        {
            if let Ok(first_seq) = stem.parse::<u64>() {
                segments.push((first_seq, entry.path()));
            }
        }
    }
    segments.sort();
    Ok(segments)
}

fn encode_frame(record: &WalRecord) -> io::Result<Vec<u8>> {
    // Serialization cannot fail for well-formed records, but an append
    // that cannot build its frame must refuse the request (the caller
    // answers a typed durability error), never kill the server.
    let payload = serde_json::to_string(record).map_err(io::Error::other)?;
    let payload = payload.as_bytes();
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&fnv1a64(payload).to_be_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// The appending side of the log. Every append reaches the operating
/// system before it returns (an engine crash never loses an acknowledged
/// record); the [`DurabilityPolicy`] decides when appends are additionally
/// fsync'd onto the device.
pub struct WalWriter {
    dir: PathBuf,
    policy: DurabilityPolicy,
    segment_max_bytes: u64,
    file: File,
    segment_bytes: u64,
    next_seq: u64,
    last_fsync: Instant,
    records_since_fsync: u64,
    /// Crash-injection hook: the next append writes at most this many
    /// bytes of its frame, then fails — producing exactly the torn tail
    /// the reader must detect and truncate.
    fail_after_bytes: Option<u64>,
    records: u64,
    bytes: u64,
    fsyncs: u64,
    segments_created: u64,
}

impl WalWriter {
    /// Opens a writer whose next record takes sequence number `next_seq`
    /// (1 for a fresh log; `last replayed + 1` after recovery). A new
    /// segment is started; earlier segments are left untouched.
    pub fn open(dir: &Path, policy: DurabilityPolicy, next_seq: u64) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = segment_path(dir, next_seq.max(1));
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            policy,
            segment_max_bytes: DEFAULT_SEGMENT_BYTES,
            file,
            segment_bytes: 0,
            next_seq: next_seq.max(1),
            last_fsync: Instant::now(),
            records_since_fsync: 0,
            fail_after_bytes: None,
            records: 0,
            bytes: 0,
            fsyncs: 0,
            segments_created: 1,
        })
    }

    /// Overrides the segment rotation threshold (tests use tiny segments
    /// to exercise rotation and compaction quickly).
    pub fn set_segment_max_bytes(&mut self, bytes: u64) {
        self.segment_max_bytes = bytes.max(1);
    }

    /// Arms the crash-injection hook (see the `fail_after_bytes` field).
    pub fn set_fail_after_bytes(&mut self, limit: Option<u64>) {
        self.fail_after_bytes = limit;
    }

    /// Sequence number the next append will take.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sequence number of the last appended record (0 when none yet).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// `(records, bytes, fsyncs, segments_created)` appended so far.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (self.records, self.bytes, self.fsyncs, self.segments_created)
    }

    /// Appends one request and returns its sequence number. The record is
    /// written to the OS before return; fsync follows the policy.
    pub fn append(
        &mut self,
        envelope_id: u64,
        epoch: u64,
        request: &EngineRequest,
    ) -> io::Result<u64> {
        let record = WalRecord {
            seq: self.next_seq,
            envelope_id,
            epoch,
            request: request.clone(),
        };
        let frame = encode_frame(&record)?;
        if self.segment_bytes > 0
            && self.segment_bytes + frame.len() as u64 > self.segment_max_bytes
        {
            self.rotate()?;
        }
        if let Some(limit) = self.fail_after_bytes.take() {
            let cut = (limit as usize).min(frame.len());
            self.file.write_all(&frame[..cut])?;
            self.file.sync_data()?;
            return Err(io::Error::other("injected crash mid-append"));
        }
        self.file.write_all(&frame)?;
        self.segment_bytes += frame.len() as u64;
        self.records += 1;
        self.bytes += frame.len() as u64;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.apply_fsync_policy()?;
        Ok(seq)
    }

    fn apply_fsync_policy(&mut self) -> io::Result<()> {
        self.records_since_fsync += 1;
        let due = match self.policy {
            DurabilityPolicy::Off => false,
            DurabilityPolicy::Always => true,
            DurabilityPolicy::EveryN { n } => self.records_since_fsync >= n.max(1),
            DurabilityPolicy::Interval { millis } => {
                self.last_fsync.elapsed() >= Duration::from_millis(millis)
            }
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces an fsync of the current segment now.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.fsyncs += 1;
        self.records_since_fsync = 0;
        self.last_fsync = Instant::now();
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        // Seal the outgoing segment onto the device before abandoning the
        // handle: rotation must never weaken the configured policy.
        self.file.sync_data()?;
        let path = segment_path(&self.dir, self.next_seq);
        self.file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        self.segment_bytes = 0;
        self.segments_created += 1;
        Ok(())
    }

    /// Deletes segments wholly covered by a checkpoint at `through_seq`:
    /// the segment containing `through_seq + 1` and everything after it
    /// survive. Returns how many segment files were removed.
    pub fn compact(&mut self, through_seq: u64) -> io::Result<u64> {
        let segments = list_segments(&self.dir)?;
        let keep_from = segments
            .iter()
            .map(|&(first, _)| first)
            .filter(|&first| first <= through_seq + 1)
            .max()
            .unwrap_or(0);
        let mut removed = 0;
        for (first, path) in segments {
            if first < keep_from {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// What the reader saw, beyond the records themselves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalReadReport {
    /// Segment files scanned.
    pub segments: usize,
    /// Valid records decoded.
    pub records: usize,
    /// Bytes of torn tail truncated from the final segment.
    pub truncated_bytes: u64,
    /// Torn frames discarded with those bytes (0 or 1 in practice).
    pub truncated_records: u64,
}

/// Reads the whole log in sequence order. With `repair_tail`, a torn
/// frame at the very end of the final segment is physically truncated
/// away (and reported); the same damage anywhere else is
/// [`WalError::Corrupt`] — truncation can only ever lose the unfinished
/// final append, never an interior record.
pub fn read_wal(
    dir: &Path,
    repair_tail: bool,
) -> Result<(Vec<WalRecord>, WalReadReport), WalError> {
    let segments = list_segments(dir)?;
    let mut records: Vec<WalRecord> = Vec::new();
    let mut report = WalReadReport {
        segments: segments.len(),
        ..WalReadReport::default()
    };
    let last_index = segments.len().saturating_sub(1);
    for (index, (first_seq, path)) in segments.iter().enumerate() {
        let mut data = Vec::new();
        File::open(path)?.read_to_end(&mut data)?;
        let mut offset = 0usize;
        let mut torn: Option<String> = None;
        while offset < data.len() {
            let remaining = &data[offset..];
            if remaining.len() < FRAME_HEADER {
                torn = Some(format!("{}-byte partial frame header", remaining.len()));
                break;
            }
            // The length guard above proved 12 header bytes exist, so the
            // conversions cannot fail; treat a failure like a torn frame
            // anyway rather than panicking the recovery path.
            let (len_bytes, sum_bytes) = match (
                <[u8; 4]>::try_from(&remaining[..4]),
                <[u8; 8]>::try_from(&remaining[4..FRAME_HEADER]),
            ) {
                (Ok(len_bytes), Ok(sum_bytes)) => (len_bytes, sum_bytes),
                _ => {
                    torn = Some("frame header bytes unavailable".to_string());
                    break;
                }
            };
            let len = u32::from_be_bytes(len_bytes);
            if len > MAX_PAYLOAD {
                torn = Some(format!("implausible payload length {len}"));
                break;
            }
            let expect = u64::from_be_bytes(sum_bytes);
            let Some(payload) = remaining.get(FRAME_HEADER..FRAME_HEADER + len as usize) else {
                torn = Some(format!(
                    "payload cut short ({} of {len} bytes)",
                    remaining.len() - FRAME_HEADER
                ));
                break;
            };
            if fnv1a64(payload) != expect {
                torn = Some("checksum mismatch".to_string());
                break;
            }
            // A checksum-valid frame that does not decode is schema-level
            // corruption, never a torn write: hard error, no truncation.
            let text = std::str::from_utf8(payload).map_err(|e| WalError::Corrupt {
                segment: path.clone(),
                offset: offset as u64,
                detail: format!("payload is not UTF-8: {e}"),
            })?;
            let record: WalRecord = serde_json::from_str(text).map_err(|e| WalError::Corrupt {
                segment: path.clone(),
                offset: offset as u64,
                detail: format!("payload does not decode: {e}"),
            })?;
            let expected_seq = records.last().map(|r: &WalRecord| r.seq + 1).unwrap_or(
                if records.is_empty() && index == 0 {
                    record.seq // the first segment's base is authoritative
                } else {
                    *first_seq
                },
            );
            if record.seq != expected_seq {
                return Err(WalError::Corrupt {
                    segment: path.clone(),
                    offset: offset as u64,
                    detail: format!(
                        "sequence gap: expected {expected_seq}, found {}",
                        record.seq
                    ),
                });
            }
            records.push(record);
            report.records += 1;
            offset += FRAME_HEADER + len as usize;
        }
        if let Some(detail) = torn {
            if index != last_index {
                return Err(WalError::Corrupt {
                    segment: path.clone(),
                    offset: offset as u64,
                    detail: format!("{detail} before the final segment tail"),
                });
            }
            report.truncated_bytes = (data.len() - offset) as u64;
            report.truncated_records = 1;
            if repair_tail {
                OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(offset as u64)?;
            }
        }
    }
    Ok((records, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::test_dir;

    fn sample_request(i: u64) -> EngineRequest {
        EngineRequest::Apply {
            delta: igepa_core::InstanceDelta::UpdateInteractionScore {
                user: igepa_core::UserId::new(i as usize),
                score: 0.5,
            },
        }
    }

    #[test]
    fn appends_roundtrip_in_order() {
        let dir = test_dir("roundtrip");
        let mut writer = WalWriter::open(&dir, DurabilityPolicy::Off, 1).unwrap();
        for i in 0..10 {
            let seq = writer.append(i, 7, &sample_request(i)).unwrap();
            assert_eq!(seq, i + 1);
        }
        let (records, report) = read_wal(&dir, false).unwrap();
        assert_eq!(records.len(), 10);
        assert_eq!(report.truncated_records, 0);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.seq, i as u64 + 1);
            assert_eq!(record.envelope_id, i as u64);
            assert_eq!(record.epoch, 7);
            assert_eq!(record.request, sample_request(i as u64));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_compaction_keeps_the_tail() {
        let dir = test_dir("rotate");
        let mut writer = WalWriter::open(&dir, DurabilityPolicy::Off, 1).unwrap();
        writer.set_segment_max_bytes(256);
        for i in 0..40 {
            writer.append(i, 0, &sample_request(i)).unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 2, "tiny segments must rotate");
        // Checkpoint at seq 20: every record ≤ 20 is covered; the segment
        // containing 21 and everything after must survive.
        writer.compact(20).unwrap();
        let (records, _) = read_wal(&dir, false).unwrap();
        assert_eq!(records.last().unwrap().seq, 40);
        assert!(records.first().unwrap().seq <= 21);
        let kept = list_segments(&dir).unwrap();
        assert!(kept.len() < segments.len(), "compaction removed something");
        // Only the segment containing the first uncovered record (21) may
        // start at or below it; any earlier segment was fully covered.
        assert!(kept.iter().filter(|(first, _)| *first <= 21).count() <= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let dir = test_dir("torn");
        let mut writer = WalWriter::open(&dir, DurabilityPolicy::Always, 1).unwrap();
        for i in 0..5 {
            writer.append(i, 0, &sample_request(i)).unwrap();
        }
        writer.set_fail_after_bytes(Some(9));
        assert!(writer.append(99, 0, &sample_request(99)).is_err());
        drop(writer);
        // Without repair the tail is reported but left on disk.
        let (records, report) = read_wal(&dir, false).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(report.truncated_records, 1);
        assert!(report.truncated_bytes > 0);
        // With repair the file is physically truncated; a second read is
        // clean.
        let (_, report) = read_wal(&dir, true).unwrap();
        assert_eq!(report.truncated_records, 1);
        let (records, report) = read_wal(&dir, false).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(report.truncated_records, 0);
        assert_eq!(report.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_corruption_is_an_error_not_a_truncation() {
        let dir = test_dir("interior");
        let mut writer = WalWriter::open(&dir, DurabilityPolicy::Off, 1).unwrap();
        writer.set_segment_max_bytes(200);
        for i in 0..20 {
            writer.append(i, 0, &sample_request(i)).unwrap();
        }
        drop(writer);
        // Flip a payload byte in the FIRST segment (not the final one).
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 2);
        let victim = &segments[0].1;
        let mut data = std::fs::read(victim).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xff;
        std::fs::write(victim, data).unwrap();
        match read_wal(&dir, true) {
            Err(WalError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policies_count_fsyncs() {
        let dir = test_dir("fsync");
        let mut writer = WalWriter::open(&dir, DurabilityPolicy::Always, 1).unwrap();
        for i in 0..4 {
            writer.append(i, 0, &sample_request(i)).unwrap();
        }
        assert_eq!(writer.counters().2, 4);
        drop(writer);
        let mut writer = WalWriter::open(&dir, DurabilityPolicy::EveryN { n: 3 }, 1).unwrap();
        for i in 0..7 {
            writer.append(i, 0, &sample_request(i)).unwrap();
        }
        assert_eq!(writer.counters().2, 2, "7 records / every-3 = 2 fsyncs");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
