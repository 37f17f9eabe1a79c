//! Cross-request group commit: concurrent `OnCommit` appends share one
//! fsync.
//!
//! Under [`FsyncPolicy::OnCommit`] the bare
//! [`Wal`] fsyncs inside every commit-point append. When appends happen
//! inside a ledger's critical section that serializes every committer —
//! the intended deployment — each commit therefore pays a full fsync while
//! every other request waits on the lock: durability cost scales linearly
//! with commit rate.
//!
//! [`GroupWal`] splits the append from the flush. [`GroupWal::append`]
//! writes the frame (still serialized, still in ledger order) but defers
//! the commit fsync, returning a [`CommitTicket`] naming the record to
//! await. [`GroupWal::wait_durable`] — called *outside* the ledger lock —
//! runs the classic leader/follower protocol: the first waiter becomes the
//! leader and fsyncs the high watermark; every committer whose record
//! landed before that fsync is satisfied by it. Concurrent commits thus
//! coalesce into one `fdatasync`, and the fsync no longer blocks the
//! ledger lock at all.
//!
//! The acknowledgment contract is unchanged: a commit is reported durable
//! only after an fsync covering its record has returned, so
//! `OnCommit`'s guarantee — every acknowledged spend durable with its
//! whole prefix — holds exactly as before. `EveryRecord` keeps its inline
//! syncs and always returns an empty ticket.

use crate::{FsyncPolicy, Wal, WalError, WalStats};
use std::sync::{Condvar, Mutex};

/// What a committer must await before acknowledging: the sequence number
/// (1-based append count) of its commit record, or nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitTicket(Option<u64>);

impl CommitTicket {
    /// The empty ticket: nothing to await.
    pub const NONE: CommitTicket = CommitTicket(None);

    /// Whether durability is still pending on this ticket.
    pub fn pending(&self) -> bool {
        self.0.is_some()
    }
}

#[derive(Default)]
struct SyncState {
    /// High watermark of durably synced records.
    synced: u64,
    /// Whether a leader is currently running an fsync.
    syncing: bool,
    /// The last fsync failure, cleared by the next success; waiting
    /// followers surface it instead of spinning on a broken disk.
    failure: Option<String>,
}

/// A [`Wal`] shared across threads with group-committed fsyncs.
pub struct GroupWal {
    wal: Mutex<Wal>,
    /// `true` under `OnCommit`: commit fsyncs are deferred to
    /// [`GroupWal::wait_durable`]. Other policies sync inline as always.
    defer_commit_sync: bool,
    state: Mutex<SyncState>,
    synced: Condvar,
}

impl GroupWal {
    /// Wraps an opened log. The wrapping is total: the `Wal` is only
    /// reachable through the group's locking from here on.
    pub fn new(wal: Wal) -> Self {
        let defer_commit_sync = matches!(wal.fsync_policy(), FsyncPolicy::OnCommit);
        GroupWal {
            wal: Mutex::new(wal),
            defer_commit_sync,
            state: Mutex::new(SyncState::default()),
            synced: Condvar::new(),
        }
    }

    /// Appends one record. Under `OnCommit`, a commit point is written but
    /// *not* fsynced; the returned ticket must be passed to
    /// [`GroupWal::wait_durable`] before the commit is acknowledged.
    ///
    /// # Errors
    /// Propagates the underlying [`Wal::append`] failure; nothing is
    /// awaitable after an error.
    pub fn append(&self, payload: &[u8], commit_point: bool) -> Result<CommitTicket, WalError> {
        let mut wal = self.wal.lock().expect("wal poisoned");
        if self.defer_commit_sync {
            wal.append(payload, false)?;
            if commit_point {
                return Ok(CommitTicket(Some(wal.stats().appended_records)));
            }
            Ok(CommitTicket::NONE)
        } else {
            wal.append(payload, commit_point)?;
            Ok(CommitTicket::NONE)
        }
    }

    /// Blocks until the ticket's record is durable. The first waiter
    /// becomes the fsync leader; waiters whose records its flush covered
    /// return without issuing their own.
    ///
    /// # Errors
    /// The leader's fsync failure, surfaced to every waiter it stranded.
    pub fn wait_durable(&self, ticket: CommitTicket) -> Result<(), WalError> {
        let Some(seq) = ticket.0 else {
            return Ok(());
        };
        let mut state = self.state.lock().expect("group state poisoned");
        loop {
            if state.synced >= seq {
                return Ok(());
            }
            if !state.syncing {
                state.syncing = true;
                drop(state);
                // Leader: one fsync covers everything appended so far.
                let outcome = {
                    let mut wal = self.wal.lock().expect("wal poisoned");
                    let high = wal.stats().appended_records;
                    wal.sync().map(|()| high)
                };
                state = self.state.lock().expect("group state poisoned");
                state.syncing = false;
                let result = match outcome {
                    Ok(high) => {
                        state.synced = state.synced.max(high);
                        state.failure = None;
                        Ok(())
                    }
                    Err(err) => {
                        state.failure = Some(err.to_string());
                        Err(err)
                    }
                };
                self.synced.notify_all();
                if result.is_err() || state.synced >= seq {
                    return result;
                }
            } else {
                state = self.synced.wait(state).expect("group state poisoned");
                if state.synced < seq {
                    if let Some(message) = state.failure.clone() {
                        return Err(WalError::Io(std::io::Error::other(message)));
                    }
                }
            }
        }
    }

    /// Fsyncs everything appended so far, unconditionally — the
    /// open/shutdown barrier.
    ///
    /// # Errors
    /// The underlying [`Wal::sync`] failure.
    pub fn sync(&self) -> Result<(), WalError> {
        let mut state = self.state.lock().expect("group state poisoned");
        let outcome = {
            let mut wal = self.wal.lock().expect("wal poisoned");
            let high = wal.stats().appended_records;
            wal.sync().map(|()| high)
        };
        match outcome {
            Ok(high) => {
                state.synced = state.synced.max(high);
                state.failure = None;
                self.synced.notify_all();
                Ok(())
            }
            Err(err) => Err(err),
        }
    }

    /// Writes a checkpoint (which internally syncs everything first) and
    /// advances the durable watermark accordingly.
    ///
    /// # Errors
    /// The underlying [`Wal::checkpoint`] failure.
    pub fn checkpoint(&self, payload: &[u8]) -> Result<(), WalError> {
        let mut state = self.state.lock().expect("group state poisoned");
        let outcome = {
            let mut wal = self.wal.lock().expect("wal poisoned");
            wal.checkpoint(payload).map(|()| wal.stats().appended_records)
        };
        match outcome {
            Ok(high) => {
                state.synced = state.synced.max(high);
                state.failure = None;
                self.synced.notify_all();
                Ok(())
            }
            Err(err) => Err(err),
        }
    }

    /// A snapshot of the wrapped log's writer-side statistics.
    pub fn stats(&self) -> WalStats {
        self.wal.lock().expect("wal poisoned").stats()
    }
}

impl std::fmt::Debug for GroupWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().expect("group state poisoned");
        f.debug_struct("GroupWal")
            .field("defer_commit_sync", &self.defer_commit_sync)
            .field("synced", &state.synced)
            .field("syncing", &state.syncing)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WalOptions;
    use pcor_faults::{site, FaultKind, FaultPlan};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};

    fn test_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("pcor-groupwal-{tag}-{}-{unique}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn concurrent_commits_coalesce_into_one_fsync() {
        let dir = test_dir("coalesce");
        let (wal, _) = Wal::open(WalOptions { dir: dir.clone(), ..Default::default() }).unwrap();
        let group = Arc::new(GroupWal::new(wal));
        let threads = 4;
        let barrier = Arc::new(Barrier::new(threads));
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let group = Arc::clone(&group);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let payload = format!("commit-{worker}");
                    let ticket = group.append(payload.as_bytes(), true).unwrap();
                    assert!(ticket.pending());
                    // Every record is on disk before anyone flushes: the
                    // first leader's fsync must cover all of them.
                    barrier.wait();
                    group.wait_durable(ticket).unwrap();
                });
            }
        });
        let stats = group.stats();
        assert_eq!(stats.appended_records, threads as u64);
        assert_eq!(stats.fsyncs, 1, "{threads} barrier-aligned commits must share one fsync");
        drop(group);
        let (_, replay) = Wal::open(WalOptions { dir: dir.clone(), ..Default::default() }).unwrap();
        assert_eq!(replay.events.len(), threads);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_commit_appends_return_empty_tickets() {
        let dir = test_dir("tickets");
        let (wal, _) = Wal::open(WalOptions { dir: dir.clone(), ..Default::default() }).unwrap();
        let group = GroupWal::new(wal);
        let reserved = group.append(b"reserved", false).unwrap();
        assert!(!reserved.pending());
        group.wait_durable(reserved).unwrap();
        assert_eq!(group.stats().fsyncs, 0, "a non-commit must not flush anything");
        let committed = group.append(b"committed", true).unwrap();
        group.wait_durable(committed).unwrap();
        assert_eq!(group.stats().fsyncs, 1);
        // Waiting twice on the same ticket is satisfied without a new sync.
        group.wait_durable(committed).unwrap();
        assert_eq!(group.stats().fsyncs, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inline_policies_keep_their_per_append_syncs() {
        let dir = test_dir("inline");
        let (wal, _) = Wal::open(WalOptions {
            dir: dir.clone(),
            fsync: crate::FsyncPolicy::EveryRecord,
            ..Default::default()
        })
        .unwrap();
        let group = GroupWal::new(wal);
        let ticket = group.append(b"record", true).unwrap();
        assert!(!ticket.pending(), "inline policies never defer");
        assert_eq!(group.stats().fsyncs, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_group_fsync_surfaces_to_the_waiter_and_recovers() {
        let dir = test_dir("failure");
        let faults = FaultPlan::seeded(0).at(site::WAL_FSYNC, 1, FaultKind::IoError).build();
        let (wal, _) =
            Wal::open(WalOptions { dir: dir.clone(), faults, ..Default::default() }).unwrap();
        let group = GroupWal::new(wal);
        let ticket = group.append(b"commit", true).unwrap();
        assert!(group.wait_durable(ticket).is_err(), "the injected fsync error must surface");
        // The record is still in the log; the next flush succeeds.
        group.wait_durable(ticket).unwrap();
        assert_eq!(group.stats().appended_records, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
