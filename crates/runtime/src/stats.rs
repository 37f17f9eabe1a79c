//! Pool health counters.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Internal atomic counters maintained by the pool.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) submitted: AtomicU64,
    pub(crate) executed: AtomicU64,
    pub(crate) stolen: AtomicU64,
    pub(crate) panicked: AtomicU64,
    pub(crate) parked: AtomicU64,
    /// Tasks pushed but not yet started (gauge).
    pub(crate) depth: AtomicUsize,
}

impl Counters {
    pub(crate) fn snapshot(&self, workers: usize) -> PoolStats {
        PoolStats {
            workers,
            queue_depth: self.depth.load(Ordering::Relaxed),
            tasks_submitted: self.submitted.load(Ordering::Relaxed),
            tasks_executed: self.executed.load(Ordering::Relaxed),
            tasks_stolen: self.stolen.load(Ordering::Relaxed),
            tasks_panicked: self.panicked.load(Ordering::Relaxed),
            worker_parks: self.parked.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a pool's health counters
/// (see [`ThreadPool::stats`](crate::ThreadPool::stats)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Number of resident worker threads.
    pub workers: usize,
    /// Tasks currently queued (injector + worker deques) that no thread
    /// has started executing yet.
    pub queue_depth: usize,
    /// Tasks ever submitted.
    pub tasks_submitted: u64,
    /// Tasks handed to a thread for execution (counted at pickup, so a
    /// task whose completion you have observed is always included;
    /// panicked tasks count too).
    pub tasks_executed: u64,
    /// Tasks executed by a thread other than the queue they were pushed to
    /// belongs to — injector pops by workers are not steals; taking from a
    /// sibling worker's deque is.
    pub tasks_stolen: u64,
    /// Tasks that panicked (isolated; the worker survived).
    pub tasks_panicked: u64,
    /// Times a worker ran out of work and parked on the condvar (counted
    /// at each wait, so spurious wakeups that re-park count again).
    pub worker_parks: u64,
}
