//! `pcor-wal` — a crash-safe, append-only write-ahead log for the PCOR
//! serving stack.
//!
//! The differential-privacy budget is the one piece of state the service
//! must never lose: forgetting how much ε an analyst has spent silently
//! resets their privacy guarantee. This crate provides the durability
//! primitive the `pcor-service` ledger journals through:
//!
//! * **Framed records** ([`frame`]): every record is
//!   `[len][crc32][kind][payload]`; a checksum makes torn writes and bit
//!   rot detectable instead of silently believable.
//! * **Segments** ([`segment`]): the log is a directory of
//!   `wal-{index:020}.seg` files with monotone indices; rotation bounds
//!   file sizes and makes compaction a matter of deleting whole files.
//! * **Fsync policies** ([`FsyncPolicy`]): sync every record, or only at
//!   commit points (the default), chosen per deployment.
//! * **Recovery** ([`Wal::open`]): replays all retained records, truncates
//!   a torn tail (an interrupted final write), and refuses mid-log
//!   corruption with [`WalError::Corrupt`] rather than invent balances.
//! * **Checkpoints** ([`Wal::checkpoint`]): a self-contained snapshot
//!   record opens a fresh segment and prunes everything older, so replay
//!   is `O(checkpoint + tail)` instead of `O(history)`.
//!
//! Everything is hand-rolled on `std` — no network, no external crates —
//! matching the workspace's vendored-offline policy. The crate stores and
//! returns opaque byte payloads; serialization of `BudgetEvent`s and
//! ledger snapshots lives with their owning crates.
//!
//! # Example
//!
//! ```
//! use pcor_wal::{FsyncPolicy, Wal, WalOptions};
//!
//! let dir = std::env::temp_dir().join(format!("pcor-wal-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let options = WalOptions { dir: dir.clone(), fsync: FsyncPolicy::OnCommit, ..Default::default() };
//!
//! let (mut wal, _) = Wal::open(options.clone()).unwrap();
//! wal.append(b"reserved 0.5", false).unwrap();
//! wal.append(b"committed 0.5", true).unwrap(); // commit point: fsynced
//! drop(wal);
//!
//! let (_, replay) = Wal::open(options).unwrap();
//! assert_eq!(replay.events.len(), 2);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod group;
pub mod log;
pub mod segment;

pub use frame::{crc32, RecordKind, FRAME_HEADER_BYTES, MAX_RECORD_BYTES};
pub use group::{CommitTicket, GroupWal};
pub use log::{Replay, Wal};

use pcor_faults::Faults;
use std::path::PathBuf;

/// When appended records are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: maximum durability, one disk flush per
    /// ledger event.
    EveryRecord,
    /// `fsync` only at commit points (records appended with
    /// `commit_point = true`): every acknowledged spend is durable with
    /// its whole prefix, while reserve/refund bookkeeping between commits
    /// may be lost — which recovery treats as "never happened", refunding
    /// nothing that was never durably reserved.
    OnCommit,
}

impl FsyncPolicy {
    /// The short lowercase name used in metrics and bench tables.
    pub fn name(&self) -> &'static str {
        match self {
            FsyncPolicy::EveryRecord => "every_record",
            FsyncPolicy::OnCommit => "on_commit",
        }
    }
}

/// Configuration for opening a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Directory holding the segment files; created if absent.
    pub dir: PathBuf,
    /// When records are flushed to stable storage.
    pub fsync: FsyncPolicy,
    /// Rotate to a new segment once the active one reaches this many
    /// bytes. One oversized record may exceed it; the next append rotates.
    pub segment_max_bytes: u64,
    /// Fault-injection handle consulted before every record write
    /// ([`pcor_faults::site::WAL_APPEND`]) and fsync
    /// ([`pcor_faults::site::WAL_FSYNC`]). The disabled default costs one
    /// branch per seam.
    pub faults: Faults,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            dir: PathBuf::from("pcor-wal"),
            fsync: FsyncPolicy::OnCommit,
            segment_max_bytes: 8 * 1024 * 1024,
            faults: Faults::disabled(),
        }
    }
}

/// Writer-side statistics, cheap to clone out for metrics export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since open.
    pub appended_records: u64,
    /// Frame bytes appended since open.
    pub appended_bytes: u64,
    /// `fsync` calls issued since open.
    pub fsyncs: u64,
    /// Segments currently retained on disk.
    pub segments: u64,
    /// Segments created by rotation since open.
    pub segments_created: u64,
    /// Checkpoints written since open.
    pub checkpoints: u64,
    /// Records appended since the last checkpoint (seeded with the
    /// recovered tail length at open).
    pub records_since_checkpoint: u64,
}

/// Errors surfaced by the log.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A retained segment holds a bad frame that is not a torn tail —
    /// recovery refuses to guess at balances past it.
    Corrupt {
        /// Index of the offending segment.
        segment: u64,
        /// Byte offset of the first bad frame within that segment.
        offset: u64,
        /// Human-readable diagnosis.
        reason: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(err) => write!(f, "wal i/o error: {err}"),
            WalError::Corrupt { segment, offset, reason } => {
                write!(f, "wal corrupt at segment {segment} offset {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(err) => Some(err),
            WalError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(err: std::io::Error) -> Self {
        WalError::Io(err)
    }
}
