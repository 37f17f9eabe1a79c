//! The resident work-stealing pool.

use crate::stats::{Counters, PoolStats};
use crate::task::{panic_message, JoinError, JoinHandle, Slot};
use pcor_faults::Faults;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A type-erased unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Monotone pool identities, so a thread can tell *which* pool it is a
/// worker of (relevant when several pools coexist, e.g. in tests).
static POOL_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(pool id, worker index)` of the pool this thread is a worker of.
    static CURRENT_WORKER: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

/// Wake tokens plus the shutdown flag, behind the park mutex.
struct SleepState {
    /// Pending wake tokens; capped at the worker count so a burst of pushes
    /// cannot make workers spin through stale tokens forever.
    tokens: usize,
    shutdown: bool,
}

struct Shared {
    id: u64,
    injector: Mutex<VecDeque<Job>>,
    locals: Vec<Mutex<VecDeque<Job>>>,
    sleep: Mutex<SleepState>,
    wake: Condvar,
    counters: Counters,
    /// Fault-injection handle consulted when a task starts
    /// ([`pcor_faults::site::POOL_TASK_START`]) and before a worker parks
    /// ([`pcor_faults::site::POOL_PARK`]). Disabled by default.
    faults: Faults,
}

impl Shared {
    /// Pushes a job onto the calling worker's own deque when the caller is
    /// a worker of this pool, otherwise onto the global injector. Refuses
    /// (returning the job) when the pool is already shutting down: the
    /// check happens under the sleep lock — the same lock `shutdown` sets
    /// its flag under — so a job accepted here is ordered before the flag
    /// and is guaranteed to be drained by a worker before it exits.
    fn push_job(&self, job: Job) -> std::result::Result<(), Job> {
        let mut sleep = self.sleep.lock().expect("pool sleep lock poisoned");
        if sleep.shutdown {
            return Err(job);
        }
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.counters.depth.fetch_add(1, Ordering::Relaxed);
        match self.current_worker_index() {
            Some(index) => self.locals[index].lock().expect("worker deque poisoned").push_back(job),
            None => self.injector.lock().expect("injector poisoned").push_back(job),
        }
        sleep.tokens = (sleep.tokens + 1).min(self.locals.len().max(1));
        drop(sleep);
        self.wake.notify_one();
        Ok(())
    }

    /// The calling thread's worker index in this pool, if any.
    fn current_worker_index(&self) -> Option<usize> {
        CURRENT_WORKER.with(|current| match current.get() {
            Some((pool, index)) if pool == self.id => Some(index),
            _ => None,
        })
    }

    /// Finds the next job for `worker`: own deque (LIFO), injector (FIFO),
    /// then stealing from sibling deques.
    fn find_job(&self, worker: usize) -> Option<Job> {
        if let Some(job) = self.locals[worker].lock().expect("worker deque poisoned").pop_back() {
            self.counters.depth.fetch_sub(1, Ordering::Relaxed);
            return Some(job);
        }
        if let Some(job) = self.injector.lock().expect("injector poisoned").pop_front() {
            self.counters.depth.fetch_sub(1, Ordering::Relaxed);
            return Some(job);
        }
        for (index, local) in self.locals.iter().enumerate() {
            if index == worker {
                continue;
            }
            if let Some(job) = local.lock().expect("worker deque poisoned").pop_front() {
                self.counters.depth.fetch_sub(1, Ordering::Relaxed);
                self.counters.stolen.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// Runs one job with panic isolation, maintaining the counters.
    ///
    /// The `executed` counter is bumped *before* the job body runs: the
    /// body is what publishes the task's result (the handle fill), so
    /// counting afterwards would let an observer that joined the task still
    /// read the old count — a race every caller would have to paper over
    /// with polling.
    ///
    /// The spawn wrapper catches its closure's panic itself (to route the
    /// payload into the handle) and bumps the `panicked` counter there;
    /// this outer catch is a safety net for a panic escaping the wrapper
    /// logic itself, which must not take the worker thread down either.
    fn run_job(&self, job: Job) {
        self.counters.executed.fetch_add(1, Ordering::Relaxed);
        let faults = &self.faults;
        let body = move || {
            // Inside the unwind boundary: an injected panic is isolated and
            // counted exactly like a panicking task body would be.
            faults.hit(pcor_faults::site::POOL_TASK_START);
            job();
        };
        if catch_unwind(AssertUnwindSafe(body)).is_err() {
            self.counters.panicked.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The body of one resident worker thread.
    fn worker_loop(self: &Arc<Self>, index: usize) {
        CURRENT_WORKER.with(|current| current.set(Some((self.id, index))));
        loop {
            if let Some(job) = self.find_job(index) {
                self.run_job(job);
                continue;
            }
            // Park seam, deliberately *before* the sleep lock: an injected
            // stall here delays the worker without blocking notifiers. An
            // injected panic is swallowed — the worker must stay resident.
            if catch_unwind(AssertUnwindSafe(|| {
                self.faults.hit(pcor_faults::site::POOL_PARK);
            }))
            .is_err()
            {
                self.counters.panicked.fetch_add(1, Ordering::Relaxed);
            }
            let mut sleep = self.sleep.lock().expect("pool sleep lock poisoned");
            if sleep.tokens > 0 {
                // A push raced our scan; consume the token and rescan.
                sleep.tokens -= 1;
                continue;
            }
            if sleep.shutdown {
                return;
            }
            self.counters.parked.fetch_add(1, Ordering::Relaxed);
            let _unused = self.wake.wait(sleep).expect("pool sleep lock poisoned");
        }
    }
}

/// A persistent work-stealing thread pool.
///
/// See the [crate docs](crate) for the design; the short version: one deque
/// per resident worker plus a global injector, stealing between them,
/// parked idlers and panic-isolating [`JoinHandle`]s for every task.
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    accepting: AtomicBool,
}

impl ThreadPool {
    /// Starts a pool with `workers` resident worker threads (`>= 1`).
    pub fn new(workers: usize) -> Self {
        Self::with_faults(workers, Faults::disabled())
    }

    /// Starts a pool with fault injection wired into the worker loop: task
    /// starts and parks consult `faults`, so chaos schedules can force
    /// panics and latency spikes inside real workers. Injected task-start
    /// panics are isolated by the same unwind boundary as task-body panics
    /// and show up in [`PoolStats::panicked`](crate::PoolStats).
    pub fn with_faults(workers: usize, faults: Faults) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep: Mutex::new(SleepState { tokens: 0, shutdown: false }),
            wake: Condvar::new(),
            counters: Counters::default(),
            faults,
        });
        let threads = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pcor-pool-{}-{index}", shared.id))
                    .spawn(move || shared.worker_loop(index))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool { shared, threads: Mutex::new(threads), accepting: AtomicBool::new(true) }
    }

    /// Number of resident worker threads.
    pub fn workers(&self) -> usize {
        self.shared.locals.len()
    }

    /// The calling thread's worker index in this pool (`None` when called
    /// from outside the pool).
    pub fn current_worker(&self) -> Option<usize> {
        self.shared.current_worker_index()
    }

    /// A snapshot of the pool health counters.
    pub fn stats(&self) -> PoolStats {
        self.shared.counters.snapshot(self.workers())
    }

    /// Submits a free-standing task, returning a panic-isolating completion
    /// handle. Tasks submitted from a worker thread go to that worker's own
    /// deque (and are stealable by siblings); tasks from outside go through
    /// the global injector.
    ///
    /// After [`shutdown`](ThreadPool::shutdown) the task is refused: the
    /// handle resolves immediately with [`JoinError::Shutdown`].
    pub fn spawn<T, F>(&self, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if !self.accepting.load(Ordering::Acquire) {
            return JoinHandle::resolved(Err(JoinError::Shutdown));
        }
        let slot = Slot::new();
        // The guard resolves the handle if the job is dropped without ever
        // running (e.g. a fault-injected abort upstream of the body), so a
        // `join` can never hang on an abandoned task.
        let guard = crate::task::AbandonGuard::new(Arc::clone(&slot));
        let shared = Arc::clone(&self.shared);
        let accepted = self.shared.push_job(Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(f));
            guard.slot().fill(outcome.map_err(|payload| {
                shared.counters.panicked.fetch_add(1, Ordering::Relaxed);
                JoinError::Panicked(panic_message(payload.as_ref()))
            }));
        }));
        if accepted.is_err() {
            // `shutdown` won the race between our `accepting` check and the
            // push: the job was never queued (no worker is left to drain
            // it), so resolve the handle instead of leaving it to hang.
            slot.fill(Err(JoinError::Shutdown));
        }
        JoinHandle::new(slot)
    }

    /// Stops accepting tasks, lets the workers drain every queued task, then
    /// joins them. Idempotent.
    pub fn shutdown(&self) {
        self.accepting.store(false, Ordering::Release);
        {
            let mut sleep = self.shared.sleep.lock().expect("pool sleep lock poisoned");
            sleep.shutdown = true;
        }
        self.shared.wake.notify_all();
        let threads = std::mem::take(&mut *self.threads.lock().expect("pool threads poisoned"));
        let current = std::thread::current().id();
        for thread in threads {
            // A pool task holding the last `Arc<ThreadPool>` runs this via
            // `Drop` *on a worker thread*; joining that thread would be a
            // self-join deadlock. Skip it — it exits on its own once its
            // current job finishes and it observes the shutdown flag.
            if thread.thread().id() == current {
                continue;
            }
            let _ = thread.join();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spawned_tasks_run_and_join() {
        let pool = ThreadPool::new(2);
        let handles: Vec<_> = (0..16).map(|i| pool.spawn(move || i * i)).collect();
        let total: i32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, (0..16).map(|i| i * i).sum());
        let stats = pool.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.tasks_submitted, 16);
        assert_eq!(stats.tasks_executed, 16);
        assert_eq!(stats.tasks_panicked, 0);
    }

    #[test]
    fn panics_are_isolated_and_the_pool_survives() {
        let pool = ThreadPool::new(1);
        let bad = pool.spawn(|| panic!("poisoned task {}", 7));
        match bad.join() {
            Err(JoinError::Panicked(msg)) => assert!(msg.contains("poisoned task 7")),
            other => panic!("expected a panic error, got {other:?}"),
        }
        // The lone worker survived and keeps serving.
        assert_eq!(pool.spawn(|| "alive").join().unwrap(), "alive");
        assert_eq!(pool.stats().tasks_panicked, 1);
    }

    #[test]
    fn shutdown_drains_queued_tasks_and_is_idempotent() {
        let pool = ThreadPool::new(1);
        let slow: Vec<_> = (0..8)
            .map(|i| {
                pool.spawn(move || {
                    std::thread::sleep(Duration::from_millis(1));
                    i
                })
            })
            .collect();
        pool.shutdown();
        pool.shutdown();
        for (i, handle) in slow.into_iter().enumerate() {
            assert_eq!(handle.join().unwrap(), i);
        }
    }

    #[test]
    fn workers_steal_across_deques() {
        // Submit from inside worker 0 so tasks land on its deque; with more
        // workers present, the sleepy siblings must steal to finish fast.
        let pool = Arc::new(ThreadPool::new(4));
        let inner = Arc::clone(&pool);
        pool.spawn(move || {
            let handles: Vec<_> = (0..32)
                .map(|_| inner.spawn(|| std::thread::sleep(Duration::from_millis(2))))
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }
        })
        .join()
        .unwrap();
        let stats = pool.stats();
        assert_eq!(stats.tasks_executed, 33);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn current_worker_is_visible_inside_tasks_only() {
        let pool = Arc::new(ThreadPool::new(2));
        assert_eq!(pool.current_worker(), None);
        let inner = Arc::clone(&pool);
        let index = pool.spawn(move || inner.current_worker()).join().unwrap();
        assert!(matches!(index, Some(i) if i < 2));
    }

    #[test]
    fn injected_task_start_panics_resolve_handles_and_spare_the_workers() {
        use pcor_faults::{site, FaultKind, FaultPlan};
        let faults = FaultPlan::seeded(7).at(site::POOL_TASK_START, 1, FaultKind::Panic).build();
        let pool = ThreadPool::with_faults(2, faults);
        // The first task to start is killed before its body runs; the
        // abandon guard must still resolve its handle instead of hanging.
        let first = pool.spawn(|| 1);
        assert!(matches!(first.join(), Err(JoinError::Panicked(_))));
        // The worker survived the injected panic and keeps serving.
        let rest: Vec<_> = (0..8).map(|i| pool.spawn(move || i)).collect();
        let total: i32 = rest.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, (0..8).sum());
        // Join the workers first: the panicked counter is bumped after the
        // unwind finishes, which can trail the handle resolution.
        pool.shutdown();
        assert!(pool.stats().tasks_panicked >= 1);
    }

    #[test]
    fn injected_park_latency_only_delays_the_workers() {
        use pcor_faults::{site, FaultKind, FaultPlan};
        let faults = FaultPlan::seeded(7)
            .rule(site::POOL_PARK, FaultKind::Latency(Duration::from_micros(200)), 1.0)
            .build();
        let pool = ThreadPool::with_faults(2, faults);
        let handles: Vec<_> = (0..8).map(|i| pool.spawn(move || i * 2)).collect();
        let total: i32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, (0..8).map(|i| i * 2).sum());
        assert_eq!(pool.stats().tasks_panicked, 0);
    }
}
