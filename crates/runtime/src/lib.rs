//! # pcor-runtime
//!
//! A persistent, hand-rolled work-stealing thread pool — the shared
//! execution layer under the PCOR workspace (vendored-offline: no external
//! crates, so this is a from-scratch `std`-only implementation in the
//! spirit of rayon/crossbeam rather than a wrapper around them).
//!
//! Why it exists: the paper's end-to-end latency is dominated by repeated
//! `f_M` verification. The pool is the workspace's one executor for that
//! work: resident workers amortize startup to zero per task, so the sharded
//! fused AND/popcount pass pays from a few thousand record words (see the
//! `pool-breakeven` experiment in `pcor-bench`), and one set of threads
//! serves *both* intra-release sharding and inter-release concurrency.
//!
//! The pieces:
//!
//! * [`ThreadPool`] — resident workers with one deque per worker plus a
//!   global injector. Workers pop their own deque LIFO, drain the injector
//!   FIFO, then steal from scope queues and sibling deques; idle workers
//!   park on a condvar and are unparked by submissions.
//! * [`JoinHandle`] — a panic-isolating completion handle for
//!   [`ThreadPool::spawn`]: a panicking task resolves the handle with
//!   [`JoinError::Panicked`] instead of taking the worker thread (or the
//!   process) down.
//! * [`Scope`] — `std::thread::scope`-style structured fork-join for
//!   borrowed data via [`ThreadPool::scope`]. The scope's tasks live in a
//!   scope-owned queue that participates in work stealing, and the waiting
//!   caller *helps execute* its own tasks instead of blocking. That makes
//!   nested fork-join from inside a pool task deadlock-free (the worker
//!   running the outer task executes the inner tasks itself when no sibling
//!   is free) and makes the scope useful even on a machine where the pool
//!   has a single worker — or after [`ThreadPool::shutdown`] — where it
//!   degenerates to an inline serial loop with sub-microsecond overhead.
//! * [`PoolStats`] — counters (submitted/executed/stolen/panicked, queue
//!   depth gauge) surfaced by the serving layer's metrics endpoint.
//!
//! ```
//! use pcor_runtime::ThreadPool;
//!
//! let pool = ThreadPool::new(2);
//! // Fire-and-join tasks with panic isolation.
//! let handle = pool.spawn(|| 6 * 7);
//! assert_eq!(handle.join().unwrap(), 42);
//! // Structured fork-join over borrowed data.
//! let mut halves = [0u64; 2];
//! let data: Vec<u64> = (0..100).collect();
//! pool.scope(|scope| {
//!     let (lo, hi) = halves.split_at_mut(1);
//!     let (a, b) = data.split_at(50);
//!     scope.spawn(|| lo[0] = a.iter().sum());
//!     scope.spawn(|| hi[0] = b.iter().sum());
//! });
//! assert_eq!(halves[0] + halves[1], 4950);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod pool;
mod scope;
mod stats;
mod task;

pub use pool::ThreadPool;
pub use scope::Scope;
pub use stats::PoolStats;
pub use task::{JoinError, JoinHandle};
