//! The write-ahead log proper: open/replay, append, fsync policies,
//! segment rotation, and checkpoint compaction.

use crate::frame::{decode_frame, encode_frame, FrameOutcome, RecordKind, MAX_RECORD_BYTES};
use crate::segment::{list_segments, segment_path, sync_dir};
use crate::{FsyncPolicy, WalError, WalOptions, WalStats};

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::PathBuf;

/// What [`Wal::open`] recovered from disk.
///
/// Payloads are returned raw (the WAL does not interpret them); `events`
/// holds only records physically *after* the last checkpoint, so replay
/// cost is `O(checkpoint + tail)` regardless of history length.
#[derive(Debug, Default)]
pub struct Replay {
    /// The payload of the newest checkpoint record, if any.
    pub checkpoint: Option<Vec<u8>>,
    /// Event payloads appended after the newest checkpoint, in log order.
    pub events: Vec<Vec<u8>>,
    /// Total records scanned across all retained segments.
    pub records_scanned: u64,
    /// Bytes of torn tail discarded (and truncated) during recovery.
    pub truncated_bytes: u64,
    /// Number of segments present after recovery.
    pub segments: u64,
}

struct ActiveSegment {
    file: File,
    index: u64,
    bytes: u64,
}

/// A crash-safe, append-only segmented log.
///
/// Not internally synchronized: callers that share a `Wal` across threads
/// wrap it in a `Mutex`, which also matches the intended use — appends
/// happen inside the budget-accountant critical section, so the ordering
/// of records on disk is exactly the ordering of ledger decisions.
pub struct Wal {
    dir: PathBuf,
    options: WalOptions,
    active: ActiveSegment,
    unsynced: u64,
    stats: WalStats,
}

impl Wal {
    /// Opens (or creates) the log in `options.dir`, replaying whatever is
    /// on disk.
    ///
    /// Recovery scans every retained segment in order. A torn tail — an
    /// interrupted final write in the *last* segment — is truncated and
    /// recovery proceeds; a bad frame anywhere else is mid-log corruption
    /// and recovery refuses with [`WalError::Corrupt`] rather than guess
    /// at balances. Segments older than the newest checkpoint's segment
    /// are pruned (finishing any compaction a crash interrupted).
    pub fn open(options: WalOptions) -> Result<(Wal, Replay), WalError> {
        std::fs::create_dir_all(&options.dir)?;
        let mut indices = list_segments(&options.dir)?;
        let mut replay = Replay::default();
        let mut checkpoint_segment: Option<u64> = None;

        let last = indices.last().copied();
        for &index in &indices {
            let path = segment_path(&options.dir, index);
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            let mut offset = 0usize;
            loop {
                match decode_frame(&bytes, offset) {
                    FrameOutcome::Clean => break,
                    FrameOutcome::Frame { kind, payload, next } => {
                        replay.records_scanned += 1;
                        match kind {
                            RecordKind::Checkpoint => {
                                replay.checkpoint = Some(payload);
                                replay.events.clear();
                                checkpoint_segment = Some(index);
                            }
                            RecordKind::Event => replay.events.push(payload),
                        }
                        offset = next;
                    }
                    FrameOutcome::Torn => {
                        if Some(index) == last {
                            let keep = offset as u64;
                            replay.truncated_bytes = bytes.len() as u64 - keep;
                            let file = OpenOptions::new().write(true).open(&path)?;
                            file.set_len(keep)?;
                            file.sync_all()?;
                            break;
                        }
                        return Err(WalError::Corrupt {
                            segment: index,
                            offset: offset as u64,
                            reason: "torn frame in a non-final segment".into(),
                        });
                    }
                    FrameOutcome::Corrupt(reason) => {
                        return Err(WalError::Corrupt {
                            segment: index,
                            offset: offset as u64,
                            reason,
                        });
                    }
                }
            }
        }

        // Finish any compaction a crash interrupted: everything strictly
        // before the checkpoint's segment is subsumed by it.
        if let Some(kept_from) = checkpoint_segment {
            let mut pruned = false;
            indices.retain(|&index| {
                if index < kept_from {
                    let _ = std::fs::remove_file(segment_path(&options.dir, index));
                    pruned = true;
                    false
                } else {
                    true
                }
            });
            if pruned {
                sync_dir(&options.dir)?;
            }
        }

        let active_index = match indices.last() {
            Some(&index) => index,
            None => {
                let index = 0;
                File::create(segment_path(&options.dir, index))?.sync_all()?;
                sync_dir(&options.dir)?;
                indices.push(index);
                index
            }
        };
        let path = segment_path(&options.dir, active_index);
        let file = OpenOptions::new().append(true).open(&path)?;
        let bytes = file.metadata()?.len();
        replay.segments = indices.len() as u64;

        let stats = WalStats {
            segments: indices.len() as u64,
            // Count the recovered tail toward the next checkpoint so a
            // restart after a long tail compacts promptly.
            records_since_checkpoint: replay.events.len() as u64,
            ..WalStats::default()
        };
        let wal = Wal {
            dir: options.dir.clone(),
            options,
            active: ActiveSegment { file, index: active_index, bytes },
            unsynced: 0,
            stats,
        };
        Ok((wal, replay))
    }

    /// Appends one event record. `commit_point` marks records whose loss
    /// would be unacceptable under [`FsyncPolicy::OnCommit`] — the ledger
    /// passes `true` for `Committed` events, so every acknowledged spend is
    /// durable with its whole prefix while cheap bookkeeping records ride
    /// along unsynced.
    pub fn append(&mut self, payload: &[u8], commit_point: bool) -> Result<(), WalError> {
        self.write_record(RecordKind::Event, payload)?;
        let sync = match self.options.fsync {
            FsyncPolicy::EveryRecord => true,
            FsyncPolicy::OnCommit => commit_point,
        };
        if sync {
            self.sync()?;
        }
        Ok(())
    }

    /// Writes a compaction checkpoint and prunes every older segment.
    ///
    /// The checkpoint always opens a fresh segment, is fsynced before any
    /// pruning happens, and subsumes all prior records — so a crash at any
    /// point leaves either the old log intact or the checkpoint durable
    /// (recovery finishes interrupted pruning).
    pub fn checkpoint(&mut self, payload: &[u8]) -> Result<(), WalError> {
        // Make sure nothing the checkpoint summarizes can be lost behind it.
        self.sync()?;
        self.rotate()?;
        self.write_record(RecordKind::Checkpoint, payload)?;
        self.sync()?;
        let keep = self.active.index;
        let mut pruned = false;
        for index in list_segments(&self.dir)? {
            if index < keep {
                std::fs::remove_file(segment_path(&self.dir, index))?;
                self.stats.segments = self.stats.segments.saturating_sub(1);
                pruned = true;
            }
        }
        if pruned {
            sync_dir(&self.dir)?;
        }
        self.stats.checkpoints += 1;
        self.stats.records_since_checkpoint = 0;
        Ok(())
    }

    /// Flushes buffered-but-unsynced records to stable storage.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.unsynced > 0 {
            self.options.faults.io(pcor_faults::site::WAL_FSYNC)?;
            self.active.file.sync_data()?;
            self.unsynced = 0;
            self.stats.fsyncs += 1;
        }
        Ok(())
    }

    /// The fsync policy this log was opened with.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.options.fsync
    }

    /// A snapshot of the writer-side statistics.
    pub fn stats(&self) -> WalStats {
        self.stats.clone()
    }

    /// Records appended since the last checkpoint (or open).
    pub fn records_since_checkpoint(&self) -> u64 {
        self.stats.records_since_checkpoint
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    fn write_record(&mut self, kind: RecordKind, payload: &[u8]) -> Result<(), WalError> {
        if payload.len() + 1 > MAX_RECORD_BYTES {
            return Err(WalError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("record of {} bytes exceeds the frame limit", payload.len()),
            )));
        }
        if kind == RecordKind::Event && self.active.bytes >= self.options.segment_max_bytes {
            self.rotate()?;
        }
        let mut frame = Vec::with_capacity(payload.len() + 16);
        encode_frame(kind, payload, &mut frame);
        // One write_all straight to the file — no userspace buffering, so
        // a process abort (not just a clean drop) leaves every accepted
        // record kernel-visible, and only power loss tests the fsync
        // policy.
        let outcome = self
            .options
            .faults
            .io(pcor_faults::site::WAL_APPEND)
            .and_then(|()| self.active.file.write_all(&frame));
        if let Err(err) = outcome {
            // A failed write may have landed part of the frame. Truncate
            // back to the last accepted record so a retry appends a clean
            // frame instead of stacking a good record onto a torn one —
            // which replay would rightly refuse as mid-log corruption.
            let _ = self.active.file.set_len(self.active.bytes);
            return Err(WalError::Io(err));
        }
        self.active.bytes += frame.len() as u64;
        self.unsynced += 1;
        self.stats.appended_records += 1;
        self.stats.appended_bytes += frame.len() as u64;
        self.stats.records_since_checkpoint += 1;
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), WalError> {
        self.sync()?;
        let index = self.active.index + 1;
        let path = segment_path(&self.dir, index);
        let file = OpenOptions::new().create_new(true).append(true).open(&path)?;
        file.sync_all()?;
        sync_dir(&self.dir)?;
        self.active = ActiveSegment { file, index, bytes: 0 };
        self.stats.segments += 1;
        self.stats.segments_created += 1;
        Ok(())
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("active_segment", &self.active.index)
            .field("appended_records", &self.stats.appended_records)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("pcor-wal-{tag}-{}-{unique}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts(dir: &Path) -> WalOptions {
        WalOptions { dir: dir.to_path_buf(), ..WalOptions::default() }
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let dir = test_dir("roundtrip");
        {
            let (mut wal, replay) = Wal::open(opts(&dir)).unwrap();
            assert!(replay.events.is_empty());
            for i in 0..10u32 {
                wal.append(format!("event-{i}").as_bytes(), i % 3 == 0).unwrap();
            }
        }
        let (_, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(replay.events.len(), 10);
        assert_eq!(replay.events[7], b"event-7");
        assert!(replay.checkpoint.is_none());
        assert_eq!(replay.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_spreads_records_over_monotone_segments() {
        let dir = test_dir("rotate");
        let options = WalOptions { segment_max_bytes: 64, ..opts(&dir) };
        {
            let (mut wal, _) = Wal::open(options.clone()).unwrap();
            for i in 0..20u32 {
                wal.append(format!("payload-{i:04}").as_bytes(), false).unwrap();
            }
            assert!(wal.stats().segments > 1, "64-byte segments must rotate");
        }
        let indices = list_segments(&dir).unwrap();
        assert!(indices.windows(2).all(|w| w[0] < w[1]));
        let (_, replay) = Wal::open(options).unwrap();
        assert_eq!(replay.events.len(), 20);
        assert_eq!(replay.events[19], b"payload-0019");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = test_dir("torn");
        {
            let (mut wal, _) = Wal::open(opts(&dir)).unwrap();
            wal.append(b"kept", true).unwrap();
            wal.append(b"doomed", true).unwrap();
        }
        // Chop the final record mid-frame, as a crash mid-write would.
        let path = segment_path(&dir, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 3).unwrap();

        let (mut wal, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(replay.events, vec![b"kept".to_vec()]);
        assert!(replay.truncated_bytes > 0);
        wal.append(b"after-recovery", true).unwrap();
        drop(wal);

        let (_, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(replay.events, vec![b"kept".to_vec(), b"after-recovery".to_vec()]);
        assert_eq!(replay.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_an_error_not_a_guess() {
        let dir = test_dir("corrupt");
        {
            let (mut wal, _) = Wal::open(opts(&dir)).unwrap();
            wal.append(b"first", true).unwrap();
            wal.append(b"second", true).unwrap();
        }
        let path = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF; // inside the first frame, with the second intact after it
        std::fs::write(&path, &bytes).unwrap();
        match Wal::open(opts(&dir)) {
            Err(WalError::Corrupt { segment: 0, .. }) => {}
            other => panic!("expected mid-log corruption, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policies_trade_syncs_for_durability() {
        let dir_every = test_dir("fsync-every");
        let (mut wal, _) =
            Wal::open(WalOptions { fsync: FsyncPolicy::EveryRecord, ..opts(&dir_every) }).unwrap();
        for _ in 0..5 {
            wal.append(b"x", false).unwrap();
        }
        assert_eq!(wal.stats().fsyncs, 5);
        drop(wal);
        std::fs::remove_dir_all(&dir_every).unwrap();

        let dir_commit = test_dir("fsync-commit");
        let (mut wal, _) =
            Wal::open(WalOptions { fsync: FsyncPolicy::OnCommit, ..opts(&dir_commit) }).unwrap();
        wal.append(b"reserved", false).unwrap();
        wal.append(b"reserved", false).unwrap();
        assert_eq!(wal.stats().fsyncs, 0);
        wal.append(b"committed", true).unwrap();
        assert_eq!(wal.stats().fsyncs, 1);
        drop(wal);
        std::fs::remove_dir_all(&dir_commit).unwrap();
    }

    #[test]
    fn checkpoints_compact_history_and_bound_replay() {
        let dir = test_dir("checkpoint");
        let options = WalOptions { segment_max_bytes: 128, ..opts(&dir) };
        {
            let (mut wal, _) = Wal::open(options.clone()).unwrap();
            for i in 0..50u32 {
                wal.append(format!("old-{i}").as_bytes(), false).unwrap();
            }
            wal.checkpoint(b"snapshot-at-50").unwrap();
            wal.append(b"tail-0", true).unwrap();
            wal.append(b"tail-1", true).unwrap();
            assert_eq!(wal.records_since_checkpoint(), 2);
        }
        let (_, replay) = Wal::open(options).unwrap();
        assert_eq!(replay.checkpoint.as_deref(), Some(b"snapshot-at-50".as_slice()));
        assert_eq!(replay.events, vec![b"tail-0".to_vec(), b"tail-1".to_vec()]);
        // Replay scanned only the checkpoint segment onward.
        assert!(replay.records_scanned <= 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_after_checkpoint_keeps_compacting_interrupted_prunes() {
        let dir = test_dir("prune");
        {
            let (mut wal, _) = Wal::open(opts(&dir)).unwrap();
            wal.append(b"ancient", true).unwrap();
            wal.checkpoint(b"cp").unwrap();
        }
        // Simulate a crash that wrote the checkpoint but not the prune:
        // resurrect an older segment index with valid content.
        let resurrected = segment_path(&dir, 0);
        let mut frame = Vec::new();
        encode_frame(RecordKind::Event, b"zombie", &mut frame);
        std::fs::write(&resurrected, &frame).unwrap();

        let (_, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(replay.checkpoint.as_deref(), Some(b"cp".as_slice()));
        assert!(replay.events.is_empty());
        assert!(!resurrected.exists(), "open() must finish the interrupted prune");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_append_errors_leave_the_log_retryable() {
        use pcor_faults::{site, FaultKind, FaultPlan};
        let dir = test_dir("faults");
        let faults = FaultPlan::seeded(0).at(site::WAL_APPEND, 2, FaultKind::IoError).build();
        let (mut wal, _) =
            Wal::open(WalOptions { dir: dir.clone(), faults, ..WalOptions::default() }).unwrap();
        wal.append(b"first", true).unwrap();
        assert!(wal.append(b"doomed", true).is_err());
        assert_eq!(wal.stats().appended_records, 1);
        // The failed frame was truncated away: a retry appends cleanly and
        // replay sees a contiguous, uncorrupted log.
        wal.append(b"retried", true).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(opts(&dir)).unwrap();
        assert_eq!(replay.events, vec![b"first".to_vec(), b"retried".to_vec()]);
        assert_eq!(replay.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_records_are_rejected_without_touching_the_log() {
        let dir = test_dir("oversize");
        let (mut wal, _) = Wal::open(opts(&dir)).unwrap();
        let huge = vec![0u8; MAX_RECORD_BYTES];
        assert!(wal.append(&huge, true).is_err());
        assert_eq!(wal.stats().appended_records, 0);
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
