//! # pcor-runtime
//!
//! A persistent, hand-rolled work-stealing thread pool — the shared
//! execution layer under the PCOR workspace (vendored-offline: no external
//! crates, so this is a from-scratch `std`-only implementation in the
//! spirit of rayon/crossbeam rather than a wrapper around them).
//!
//! Why it exists: the server runs every release request as one task on a
//! resident pool, so concurrent releases proceed in parallel — one per
//! worker — without paying thread startup per request. A release itself is
//! one search on one thread; the pool's only job is running requests.
//!
//! The pieces:
//!
//! * [`ThreadPool`] — resident workers with one deque per worker plus a
//!   global injector. Workers pop their own deque LIFO, drain the injector
//!   FIFO, then steal from sibling deques; idle workers park on a condvar
//!   and are unparked by submissions.
//! * [`JoinHandle`] — a panic-isolating completion handle for
//!   [`ThreadPool::spawn`]: a panicking task resolves the handle with
//!   [`JoinError::Panicked`] instead of taking the worker thread (or the
//!   process) down.
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
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod pool;
mod stats;
mod task;

pub use pool::ThreadPool;
pub use stats::PoolStats;
pub use task::{JoinError, JoinHandle};
