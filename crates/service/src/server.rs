//! The release server: request execution on a resident work-stealing pool.
//!
//! [`Server::start`] owns a resident [`pcor_runtime::ThreadPool`] and
//! submits every request as a task on it. Each release runs start to
//! finish on the one worker that picked it up; concurrency comes from
//! serving many requests at once, one per worker.
//!
//! Every request is a [`RequestEnvelope`]. [`Server::submit_envelope`]
//! enqueues one and returns a [`PendingResponse`];
//! [`Server::try_submit_envelope`] refuses with [`ServiceError::QueueFull`]
//! instead of blocking when `queue_capacity` requests are already in
//! flight (back-pressure for load generators and the network reactor).
//! [`Server::execute`] and [`Server::execute_batch`] are the typed,
//! blocking helpers. Every response carries the end-to-end latency (queue
//! wait included) and the analyst's remaining budget.
//!
//! There is one serving path: a single [`ReleaseRequest`] is served as a
//! one-item batch. A batch's items surface on the handle **as they
//! finish** ([`PendingResponse::next_item`]) through a channel that holds
//! one item: once the handle asks for an item, the serving task waits for
//! room before each send, so the server computes at most one item ahead
//! of the consumer (streaming back-pressure). Until then it never waits —
//! items that find the channel full stay in the summary — so a handle
//! that is only waited on never holds its worker. The terminal reply
//! never waits either. A single emits no items, only its reply. Dropping
//! the handle cancels a batch's unprocessed items and refunds their ε
//! slices. A consumer that must not block (the network reactor) registers
//! a [`std::task::Waker`] with [`PendingResponse::set_waker`]; the serving
//! task rings it after each item it sends and once the reply is left.
//!
//! Budget safety under concurrency comes from the ledger's two-phase
//! protocol: a task *reserves* the **sum** of the items' ε — refused whole
//! if it does not fit — before touching the dataset, then *commits* what
//! the successful releases consumed and *refunds* the rest in one
//! resolution. A panicking task refunds via the reservation's drop guard,
//! and the pool isolates the panic so the worker survives.
//!
//! An envelope is served on one [`pcor_core::ReleaseSession`]: the
//! detector is built once and every record's memoized verifier is shared
//! across a batch's items, so repeat records cost strictly fewer fresh
//! `f_M` verification calls than equivalent single requests.
//!
//! # Hardened lifecycle
//!
//! A v2 envelope may carry a deadline (`deadline_ms`); it becomes a
//! [`pcor_core::cancel::CancelToken`] the whole serving path shares. A
//! request already past its deadline when a worker picks it up is
//! answered [`ServiceError::DeadlineExceeded`] without reserving;
//! one cancelled mid-release stops within a single verification call (the
//! verifier checks the token before every fresh evaluation). The
//! cancelled item and every item after it are dropped from the reply and
//! their ε slices refunded — no private draw was published, so no ε is
//! owed — and the request counts once as deadline-exceeded (a single
//! answers [`ServiceError::DeadlineExceeded`]). At admission, a deadline the estimated
//! queue wait (mean latency × in-flight count) already exceeds is shed
//! with [`ServiceError::Overloaded`] and a `retry_after` hint, *before*
//! taking an in-flight slot; literal capacity exhaustion keeps its own
//! reactive refusal, [`ServiceError::QueueFull`]. [`Server::health`]
//! rolls the lifecycle into a readiness report (journal breaker state
//! included on durable servers). The Prometheus scrape carries the same
//! signals: `pcor_ready` and `pcor_breaker_state` as gauges, and
//! `pcor_deadline_exceeded_total`, `pcor_shed_total` and
//! `pcor_retries_total` as counters incremented where each event happens.

use crate::durable::{DurableLedger, JournalHealth};
use crate::ledger::BudgetLedger;
use crate::metrics::{mechanism_name, ServerMetrics, ServerMetricsSnapshot};
use crate::registry::{CacheStats, DatasetRegistry};
use crate::request::{
    BatchItemResponse, BatchReleaseRequest, BatchReleaseResponse, ItemOutcome, ItemRelease,
    ReleaseRequest, ReleaseResponse, RequestBody, RequestEnvelope, ResponseBody, ResponseEnvelope,
};
use crate::{Result, ServiceError};
use pcor_core::cancel::CancelToken;
use pcor_core::ReleaseSession;
use pcor_dp::PopulationSizeUtility;
use pcor_faults::{site, Faults};
use pcor_runtime::{PoolStats, ThreadPool};
use pcor_telemetry::{MetricsRegistry, SpanId, Telemetry, TraceId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::task::Waker;
use std::time::Instant;

/// Configuration of the server's execution pool.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of resident pool workers, and so of requests served at once.
    pub workers: usize,
    /// Maximum number of requests in flight (queued or executing) before
    /// [`Server::try_submit_envelope`] refuses and
    /// [`Server::submit_envelope`] blocks.
    pub queue_capacity: usize,
    /// Fault-injection handle for the serving path ([`Faults::disabled`]
    /// in production): the `service.release` seam fires at the start of
    /// every serving task, and accumulated [`Faults::skew`] shortens
    /// request deadlines so chaos runs can force expiry deterministically.
    pub faults: Faults,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8);
        ServerConfig { workers, queue_capacity: 128, faults: Faults::disabled() }
    }
}

impl ServerConfig {
    /// Sets the number of pool workers (`>= 1`).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "a server needs at least one worker");
        self.workers = workers;
        self
    }

    /// Sets the in-flight request capacity (`>= 1`).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        self.queue_capacity = capacity;
        self
    }

    /// Attaches a fault-injection handle to the serving path (chaos
    /// harnesses only; the default is disabled).
    #[must_use]
    pub fn with_faults(mut self, faults: Faults) -> Self {
        self.faults = faults;
        self
    }
}

/// The in-flight request counter: admission control for submissions and
/// the drain barrier for shutdown.
struct Inflight {
    count: Mutex<usize>,
    changed: Condvar,
}

impl Inflight {
    fn new() -> Arc<Self> {
        Arc::new(Inflight { count: Mutex::new(0), changed: Condvar::new() })
    }

    /// Blocks until a slot under `capacity` is free, then takes it.
    fn acquire(self: &Arc<Self>, capacity: usize) -> InflightSlot {
        let mut count = self.count.lock().expect("inflight poisoned");
        while *count >= capacity {
            count = self.changed.wait(count).expect("inflight poisoned");
        }
        *count += 1;
        InflightSlot { inflight: Arc::clone(self) }
    }

    /// Takes a slot if one is free under `capacity`.
    fn try_acquire(self: &Arc<Self>, capacity: usize) -> Option<InflightSlot> {
        let mut count = self.count.lock().expect("inflight poisoned");
        if *count >= capacity {
            return None;
        }
        *count += 1;
        Some(InflightSlot { inflight: Arc::clone(self) })
    }

    /// Blocks until no request is in flight.
    fn drain(&self) {
        let mut count = self.count.lock().expect("inflight poisoned");
        while *count > 0 {
            count = self.changed.wait(count).expect("inflight poisoned");
        }
    }

    /// Requests currently in flight (queued or executing).
    fn current(&self) -> usize {
        *self.count.lock().expect("inflight poisoned")
    }
}

/// An RAII in-flight slot: released (with a wakeup for blocked submitters
/// and the shutdown drain) when dropped — including on task panic.
struct InflightSlot {
    inflight: Arc<Inflight>,
}

impl Drop for InflightSlot {
    fn drop(&mut self) {
        let mut count = self.inflight.count.lock().expect("inflight poisoned");
        *count -= 1;
        drop(count);
        self.inflight.changed.notify_all();
    }
}

/// What a [`PendingResponse`] and its serving task share besides the item
/// channel.
#[derive(Debug, Default)]
struct Shared {
    /// What the consumer wants: [`Shared::REPLY`], [`Shared::ITEMS`] or
    /// [`Shared::GONE`].
    demand: AtomicU8,
    /// The terminal reply — the response envelope or the request's error.
    /// The serving task leaves it here and then drops its sender, so the
    /// reply never waits for the consumer to take the last item.
    reply: Mutex<Option<Result<ResponseEnvelope>>>,
    /// The consumer's waker ([`PendingResponse::set_waker`]).
    ring: Mutex<Ring>,
}

/// Where a completion rings: the registered waker, or a note that a ring
/// came before any waker did.
#[derive(Debug, Default)]
struct Ring {
    waker: Option<Waker>,
    missed: bool,
}

impl Shared {
    /// Only the terminal reply (the start state): a finished item is sent
    /// only if the channel has room, the rest stay in the batch's summary,
    /// so a handle nobody drains never holds its worker.
    const REPLY: u8 = 0;
    /// Items as they finish: each send waits for room in the channel.
    const ITEMS: u8 = 1;
    /// The handle was dropped: cancel the remaining items.
    const GONE: u8 = 2;

    /// Tells the consumer an event is ready: wakes its waker, or notes the
    /// ring for a waker registered later.
    fn ring(&self) {
        // Called from `Completion`'s drop, where a panic would abort; each
        // update leaves the slot valid, so a poisoned lock is still usable.
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        match &ring.waker {
            Some(waker) => waker.wake_by_ref(),
            None => ring.missed = true,
        }
    }
}

/// The serving task's end of a handle: the item sender. Every delivered
/// item rings the handle's waker, and so does the hang-up on drop, which
/// also runs when the task panics or the pool drops it unrun: the
/// consumer always hears about the terminal reply (a missing one reads as
/// [`ServiceError::Shutdown`]).
struct Completion {
    items: Option<mpsc::SyncSender<BatchItemResponse>>,
    shared: Arc<Shared>,
}

impl Completion {
    /// Sends one item, waiting for room when `block`. `Ok(false)` means the
    /// channel was full; `Err(())` that the handle is gone.
    fn deliver(&self, item: BatchItemResponse, block: bool) -> std::result::Result<bool, ()> {
        let items = self.items.as_ref().expect("the sender lives until drop");
        let sent = if block {
            items.send(item).is_ok()
        } else {
            match items.try_send(item) {
                Ok(()) => true,
                Err(mpsc::TrySendError::Full(_)) => return Ok(false),
                Err(mpsc::TrySendError::Disconnected(_)) => false,
            }
        };
        if !sent {
            return Err(());
        }
        self.shared.ring();
        Ok(true)
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        // Hang up first, so the woken consumer finds the reply.
        drop(self.items.take());
        self.shared.ring();
    }
}

/// The completion handle of a submitted envelope.
///
/// A batch's items surface through [`PendingResponse::next_item`] as soon
/// as the serving task finishes each one, so the analyst sees early
/// results while later items are still searching; a single release has no
/// items, only its terminal reply. The channel between the serving task
/// and the handle holds one item. Once the handle has asked for an item,
/// the task waits for room before sending the next, so the server
/// computes at most one item ahead of the consumer (streaming
/// back-pressure); until then it never waits, so a handle that is only
/// waited on never holds its worker, and items it did not send are
/// yielded from the summary. [`PendingResponse::wait`] folds the events
/// into the terminal [`ResponseEnvelope`]; a batch's summary repeats every
/// item, so `wait` alone loses nothing.
///
/// Dropping the handle early **cancels** a batch: items not yet processed
/// are skipped and their ε slices refunded (items already released stay
/// committed — their mechanism ran).
#[derive(Debug)]
pub struct PendingResponse {
    receiver: mpsc::Receiver<BatchItemResponse>,
    shared: Arc<Shared>,
    buffered: VecDeque<BatchItemResponse>,
    /// Items taken off the channel; the summary's later items were never
    /// sent and are yielded from it.
    received: usize,
    done: Option<Result<ResponseEnvelope>>,
}

impl PendingResponse {
    fn new(receiver: mpsc::Receiver<BatchItemResponse>, shared: Arc<Shared>) -> Self {
        PendingResponse { receiver, shared, buffered: VecDeque::new(), received: 0, done: None }
    }

    /// A handle whose terminal reply is already known: the envelope was
    /// answered at admission without reaching a worker.
    fn answered(outcome: Result<ResponseEnvelope>) -> Self {
        let (_, receiver) = mpsc::sync_channel(0);
        let mut handle = Self::new(receiver, Arc::default());
        handle.done = Some(outcome);
        handle
    }

    /// Takes one event: an item off the channel is returned; once the
    /// serving task has dropped its sender and every sent item is taken,
    /// its reply is kept (a task that vanished without one reads as
    /// [`ServiceError::Shutdown`]). `None` once the reply has arrived, or
    /// when `block` is false and nothing is ready.
    fn receive(&mut self, block: bool) -> Option<BatchItemResponse> {
        if self.done.is_some() {
            return None;
        }
        let item = if block {
            self.receiver.recv().ok()
        } else {
            match self.receiver.try_recv() {
                Err(mpsc::TryRecvError::Empty) => return None,
                event => event.ok(),
            }
        };
        if item.is_some() {
            self.received += 1;
        } else {
            let reply = self.shared.reply.lock().expect("reply slot poisoned").take();
            self.done = Some(reply.unwrap_or(Err(ServiceError::Shutdown)));
        }
        item
    }

    /// The items of an arrived batch summary (empty otherwise).
    fn summary_items(&self) -> &[BatchItemResponse] {
        match &self.done {
            Some(Ok(ResponseEnvelope { body: ResponseBody::Batch(batch), .. })) => &batch.items,
            _ => &[],
        }
    }

    /// The next item: buffered, then off the channel (blocking when
    /// `block`), then — once the reply has arrived — from the summary.
    fn take_item(&mut self, block: bool) -> Option<BatchItemResponse> {
        self.shared.demand.store(Shared::ITEMS, Ordering::Release);
        if let Some(item) = self.buffered.pop_front().or_else(|| self.receive(block)) {
            return Some(item);
        }
        let item = self.summary_items().get(self.received)?.clone();
        self.received += 1;
        Some(item)
    }

    /// Blocks for the next finished item; `None` once every item has been
    /// yielded (the terminal reply is then available via
    /// [`PendingResponse::wait`] without blocking).
    pub fn next_item(&mut self) -> Option<BatchItemResponse> {
        self.take_item(true)
    }

    /// Non-blocking [`PendingResponse::next_item`]: a finished item if one
    /// is ready right now, `None` otherwise (which means *not yet* until
    /// [`PendingResponse::is_finished`] says the reply has arrived). This
    /// is the surface the network reactor drains when the handle's waker
    /// ([`PendingResponse::set_waker`]) rings — it must never park the
    /// reactor thread on a slow release.
    pub fn try_next_item(&mut self) -> Option<BatchItemResponse> {
        self.take_item(false)
    }

    /// Whether the terminal reply has arrived and, once items have been
    /// asked for, every item has been yielded. Never blocks, and takes at
    /// most one event: an item it takes is buffered for later `next_item`
    /// calls, so polling alone never lets the serving task run more than
    /// one item ahead of the consumer.
    pub fn is_finished(&mut self) -> bool {
        if let Some(item) = self.receive(false) {
            self.buffered.push_back(item);
        }
        self.done.is_some()
            && (self.shared.demand.load(Ordering::Acquire) == Shared::REPLY
                || (self.buffered.is_empty() && self.received >= self.summary_items().len()))
    }

    /// Drains any remaining items and returns the terminal reply.
    ///
    /// # Errors
    /// Propagates the request's service error (a refused batch is one
    /// error; per-item failures are inside its response), or
    /// [`ServiceError::Shutdown`] if the server stopped first.
    pub fn wait(mut self) -> Result<ResponseEnvelope> {
        while self.receive(true).is_some() {}
        self.done.take().unwrap_or(Err(ServiceError::Shutdown))
    }

    /// Registers the waker the serving task rings after each item it
    /// delivers and once it has left the terminal reply (also when it
    /// panics). A ring that came before registration, or a reply that has
    /// already landed, wakes `waker` at once, so no completion is missed
    /// between submission and registration. A later call replaces the
    /// waker.
    pub fn set_waker(&self, waker: &Waker) {
        let mut ring = self.shared.ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.waker = Some(waker.clone());
        if std::mem::take(&mut ring.missed) || self.done.is_some() {
            waker.wake_by_ref();
        }
    }
}

impl Drop for PendingResponse {
    fn drop(&mut self) {
        self.shared.demand.store(Shared::GONE, Ordering::Release);
    }
}

/// A concurrent multi-analyst PCOR release server.
pub struct Server {
    pool: Arc<ThreadPool>,
    registry: Arc<DatasetRegistry>,
    ledger: Arc<BudgetLedger>,
    /// Present on servers started via [`Server::start_durable`]: the WAL
    /// journal behind the ledger, auto-checkpointed after requests and a
    /// final time at shutdown.
    durable: Option<Arc<DurableLedger>>,
    metrics: Arc<ServerMetrics>,
    telemetry: Telemetry,
    inflight: Arc<Inflight>,
    accepting: Arc<AtomicBool>,
    queue_capacity: usize,
    faults: Faults,
}

/// A point-in-time readiness report — what a load balancer's health
/// endpoint would serve, also mirrored into the Prometheus scrape as
/// `pcor_ready`, `pcor_accepting`, `pcor_inflight_requests` and (on
/// durable servers) `pcor_breaker_state`.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Whether the server accepts new submissions (false after
    /// [`Server::shutdown`]).
    pub accepting: bool,
    /// Requests currently in flight (queued or executing).
    pub inflight: usize,
    /// The admission capacity those requests count against.
    pub queue_capacity: usize,
    /// Journal health on durable servers (`None` on in-memory servers).
    pub journal: Option<JournalHealth>,
    /// Requests answered [`ServiceError::DeadlineExceeded`] so far.
    pub deadline_exceeded: u64,
    /// Requests shed at admission with [`ServiceError::Overloaded`] so far.
    pub shed: u64,
    /// The roll-up: the server is accepting and — on durable servers — the
    /// journal breaker is not open (an open breaker fail-closes the ledger
    /// read-only, so new reserves would be refused). A full queue does
    /// *not* clear readiness: queueing is healthy back-pressure.
    pub ready: bool,
}

impl Server {
    /// Starts a server that owns a fresh pool of `config.workers` resident
    /// workers.
    pub fn start(
        config: ServerConfig,
        registry: Arc<DatasetRegistry>,
        ledger: Arc<BudgetLedger>,
    ) -> Self {
        let pool = Arc::new(ThreadPool::new(config.workers));
        // Reuse a telemetry bundle the ledger already carries — the durable
        // startup path builds one around the *replayed* audit log, and a
        // fresh bundle here would silently discard that history and its
        // clock. A plain ledger gets a fresh bundle as before.
        let telemetry = ledger.telemetry().unwrap_or_default();
        // From here on, every ε movement through the ledger lands in the
        // bundle's audit log and refreshes the per-account gauges.
        ledger.attach_telemetry(telemetry.clone());
        // The serving path counts straight into the bundle's registry; only
        // the pool's and the starting-context cache's own counters are
        // copied in, by a collector at each scrape.
        let metrics = Arc::new(ServerMetrics::register(telemetry.registry()));
        {
            let pool = Arc::clone(&pool);
            let datasets = Arc::clone(&registry);
            telemetry.register_collector(move |exporter| {
                Self::publish_stats(exporter, &pool.stats(), &datasets.cache_stats());
            });
        }
        let inflight = Inflight::new();
        let accepting = Arc::new(AtomicBool::new(true));
        // The readiness slice of the scrape. On a durable server the
        // collector registered by `start_durable` runs later and overrides
        // `pcor_ready` with the breaker folded in.
        {
            let inflight = Arc::clone(&inflight);
            let accepting = Arc::clone(&accepting);
            telemetry.register_collector(move |exporter| {
                exporter.set_help("pcor_ready", "1 when the server would pass a readiness probe.");
                let up = accepting.load(Ordering::Acquire);
                exporter.gauge("pcor_accepting", &[]).set(if up { 1.0 } else { 0.0 });
                exporter.gauge("pcor_inflight_requests", &[]).set(inflight.current() as f64);
                exporter.gauge("pcor_ready", &[]).set(if up { 1.0 } else { 0.0 });
            });
        }
        Server {
            pool,
            registry,
            ledger,
            durable: None,
            metrics,
            telemetry,
            inflight,
            accepting,
            queue_capacity: config.queue_capacity,
            faults: config.faults,
        }
    }

    /// Starts a server whose budget ledger is the given crash-safe
    /// [`DurableLedger`]: every ε decision is journaled to the WAL before
    /// acknowledgement, the registry's cache is seeded from the
    /// checkpoint's warm state (register datasets *before* this call), the
    /// WAL auto-compacts after requests once `checkpoint_interval` records
    /// accumulate, and [`Server::shutdown`] writes one final checkpoint so
    /// the next start replays only a tail.
    ///
    /// The server's telemetry is the durable ledger's bundle — its audit
    /// log already holds the replayed event history, and
    /// [`Server::telemetry`] scrapes expose `pcor_wal_*` gauges alongside
    /// the usual server series.
    pub fn start_durable(
        config: ServerConfig,
        registry: Arc<DatasetRegistry>,
        durable: Arc<DurableLedger>,
    ) -> Self {
        // Warm restart: re-seed the starting-context cache before the
        // first request can miss on it.
        durable.seed_registry(&registry);
        let ledger = Arc::new(durable.ledger().clone());
        let mut server = Self::start(config, registry, ledger);
        {
            // Weak: the durable ledger owns this bundle, so a strong handle
            // would keep it (and its WAL and registry) alive forever.
            let durable = Arc::downgrade(&durable);
            let accepting = Arc::clone(&server.accepting);
            server.telemetry.register_collector(move |exporter| {
                if let Some(durable) = durable.upgrade() {
                    Self::publish_wal_stats(exporter, &durable, &accepting);
                }
            });
        }
        server.durable = Some(durable);
        server
    }

    /// Copies the pool's and the starting-context cache's own counters into
    /// gauges at scrape time (the collector registered in
    /// [`Server::start`]): the serving path does not see them change.
    fn publish_stats(exporter: &MetricsRegistry, pool: &PoolStats, cache: &CacheStats) {
        exporter.set_help("pcor_cache_evictions", "Entries evicted by the GreedyDual policy.");
        let set = |name: &str, value: f64| exporter.gauge(name, &[]).set(value);
        set("pcor_pool_workers", pool.workers as f64);
        set("pcor_pool_queue_depth", pool.queue_depth as f64);
        set("pcor_pool_tasks_submitted", pool.tasks_submitted as f64);
        set("pcor_pool_tasks_executed", pool.tasks_executed as f64);
        set("pcor_pool_tasks_stolen", pool.tasks_stolen as f64);
        set("pcor_pool_tasks_panicked", pool.tasks_panicked as f64);
        set("pcor_pool_worker_parks", pool.worker_parks as f64);
        for (name, value) in [
            ("pcor_cache_hits", cache.hits),
            ("pcor_cache_misses", cache.misses),
            ("pcor_cache_entries", cache.len as u64),
            ("pcor_cache_evictions", cache.evictions),
        ] {
            exporter.gauge(name, &[("cache", "starting_context")]).set(value as f64);
        }
    }

    /// Copies the WAL writer's stats, the journal breaker and backlog, and
    /// readiness with the breaker folded in into gauges at scrape time (the
    /// collector registered by [`Server::start_durable`]).
    fn publish_wal_stats(
        exporter: &MetricsRegistry,
        durable: &DurableLedger,
        accepting: &AtomicBool,
    ) {
        for (name, help) in [
            ("pcor_wal_appended_records", "Records appended to the WAL since open."),
            ("pcor_wal_appended_bytes", "Payload bytes appended to the WAL since open."),
            ("pcor_wal_fsyncs", "fsync calls the WAL issued (policy-dependent)."),
            ("pcor_wal_segments", "Live WAL segment files on disk."),
            ("pcor_wal_checkpoints", "Compaction checkpoints written since open."),
            ("pcor_wal_records_since_checkpoint", "Tail length a restart would replay."),
            ("pcor_breaker_state", "Journal circuit breaker: 0 closed, 1 half-open, 2 open."),
            ("pcor_journal_backlog", "Audit records awaiting a journal recovery flush."),
        ] {
            exporter.set_help(name, help);
        }
        let stats = durable.wal_stats();
        let journal = durable.journal_health();
        let set = |name: &str, value: f64| exporter.gauge(name, &[]).set(value);
        set("pcor_wal_appended_records", stats.appended_records as f64);
        set("pcor_wal_appended_bytes", stats.appended_bytes as f64);
        set("pcor_wal_fsyncs", stats.fsyncs as f64);
        set("pcor_wal_segments", stats.segments as f64);
        set("pcor_wal_checkpoints", stats.checkpoints as f64);
        set("pcor_wal_records_since_checkpoint", stats.records_since_checkpoint as f64);
        set("pcor_breaker_state", journal.breaker.gauge());
        set("pcor_journal_backlog", journal.backlog as f64);
        // Fold the breaker into readiness: an open breaker means reserves
        // are refused (fail-closed read-only), so the server is not ready
        // even though it is still up and answering.
        let ready = accepting.load(Ordering::Acquire) && journal.accepting_reserves;
        set("pcor_ready", if ready { 1.0 } else { 0.0 });
    }

    /// Spawns the serving task for one admitted envelope.
    fn dispatch(&self, envelope: RequestEnvelope, slot: InflightSlot) -> PendingResponse {
        // Capacity 1: once the consumer asks for items, the serving task
        // stays at most one finished item ahead of it.
        let (items, receiver) = mpsc::sync_channel(1);
        let shared = Arc::new(Shared::default());
        let completion = Completion { items: Some(items), shared: Arc::clone(&shared) };
        let task = Task {
            registry: Arc::clone(&self.registry),
            ledger: Arc::clone(&self.ledger),
            durable: self.durable.clone(),
            metrics: Arc::clone(&self.metrics),
            pool: Arc::clone(&self.pool),
            telemetry: self.telemetry.clone(),
            faults: self.faults.clone(),
            // Adopt the client's trace id when the envelope carries one (0
            // is reserved for "absent"); mint a fresh one otherwise.
            trace: match envelope.trace {
                Some(id) if id != 0 => TraceId(id),
                _ => TraceId::next(),
            },
            // An envelope deadline becomes a cancel token the whole
            // serving path shares; accumulated injected clock skew shortens
            // it, so chaos runs can force expiry deterministically.
            cancel: envelope.deadline().map(|timeout| {
                CancelToken::deadline_after(timeout.saturating_sub(self.faults.skew()))
            }),
            enqueued: Instant::now(),
            shared: Arc::clone(&shared),
            _slot: slot,
        };
        self.pool.spawn(move || task.run(envelope, completion));
        PendingResponse::new(receiver, shared)
    }

    /// Proactive load shedding: a request that carries a deadline the
    /// estimated queue wait already blows is refused with
    /// [`ServiceError::Overloaded`] *before* it takes an in-flight slot —
    /// an immediate refusal with a `retry_after` hint beats queueing work
    /// destined to time out (and beats blocking the submitter for it).
    ///
    /// The estimate is deliberately simple and observable: mean served
    /// latency × requests currently in flight. Requests without deadlines
    /// are never shed, servers with no latency history yet admit
    /// everything (the cancel token still enforces the deadline
    /// downstream), and literal capacity exhaustion keeps its own reactive
    /// refusal, [`ServiceError::QueueFull`].
    fn shed_if_doomed(&self, envelope: &RequestEnvelope) -> Result<()> {
        let Some(deadline) = envelope.deadline() else { return Ok(()) };
        // Injected clock skew makes deadlines effectively earlier, exactly
        // as it does for the serving-side cancel token.
        let deadline = deadline.saturating_sub(self.faults.skew());
        let mean = self.metrics.mean_latency();
        if mean.is_zero() {
            return Ok(());
        }
        let queued = self.inflight.current().min(u32::MAX as usize) as u32;
        let estimated_wait = mean.saturating_mul(queued);
        if estimated_wait > deadline {
            self.metrics.record_shed();
            return Err(ServiceError::Overloaded { retry_after: estimated_wait - deadline });
        }
        Ok(())
    }

    /// Enqueues an envelope, blocking while `queue_capacity` requests are
    /// in flight.
    ///
    /// An envelope that fails validation is answered on the returned
    /// handle without taking an in-flight slot — with
    /// [`ServiceError::DeadlineExceeded`] when its deadline has already
    /// passed too.
    ///
    /// # Errors
    /// Returns [`ServiceError::Overloaded`] when the envelope carries a
    /// deadline the estimated queue wait already exceeds, and
    /// [`ServiceError::Shutdown`] after [`shutdown`](Server::shutdown).
    pub fn submit_envelope(&self, envelope: RequestEnvelope) -> Result<PendingResponse> {
        self.admit(envelope, true, |inflight, capacity| Ok(inflight.acquire(capacity)))
    }

    /// [`Server::submit_envelope`] without blocking — the network
    /// reactor's admission path, which must refuse rather than park. A
    /// malformed envelope is answered with its validation error even when
    /// its deadline has already passed.
    ///
    /// # Errors
    /// Returns [`ServiceError::QueueFull`] when `queue_capacity` requests
    /// are in flight, plus everything [`Server::submit_envelope`] returns.
    pub fn try_submit_envelope(&self, envelope: RequestEnvelope) -> Result<PendingResponse> {
        self.admit(envelope, false, |inflight, capacity| {
            inflight.try_acquire(capacity).ok_or(ServiceError::QueueFull)
        })
    }

    /// The one admission path: answer a malformed envelope on the spot,
    /// shed a doomed one, then take a slot via `acquire` and dispatch.
    ///
    /// `expiry_first` decides what a malformed envelope whose deadline has
    /// already passed (`deadline_ms: 0`, or one collapsed by injected
    /// skew) is told: in process, deadline-exceeded, counted like every
    /// other expiry; through the network reactor, its malformation — the
    /// wire's non-retryable `invalid-request`.
    fn admit(
        &self,
        envelope: RequestEnvelope,
        expiry_first: bool,
        acquire: impl FnOnce(&Arc<Inflight>, usize) -> Result<InflightSlot>,
    ) -> Result<PendingResponse> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::Shutdown);
        }
        if let Err(err) = envelope.validate() {
            let expired = expiry_first
                && envelope.deadline().is_some_and(|deadline| deadline <= self.faults.skew());
            let err = if expired {
                self.metrics.record_deadline_exceeded();
                ServiceError::DeadlineExceeded
            } else {
                err
            };
            return Ok(PendingResponse::answered(Err(err)));
        }
        self.shed_if_doomed(&envelope)?;
        let slot = acquire(&self.inflight, self.queue_capacity)?;
        Ok(self.dispatch(envelope, slot))
    }

    /// Submits a single-record request and blocks for its response.
    ///
    /// # Errors
    /// Propagates submission and release errors.
    pub fn execute(&self, request: ReleaseRequest) -> Result<ReleaseResponse> {
        self.submit_envelope(RequestEnvelope::single(request))?.wait()?.into_single().ok_or_else(
            || ServiceError::InvalidRequest("protocol violation: batch answer to a single".into()),
        )
    }

    /// Submits a batch and blocks for its response.
    ///
    /// # Errors
    /// Propagates submission errors and whole-batch refusals (per-item
    /// failures are reported inside the response).
    pub fn execute_batch(&self, batch: BatchReleaseRequest) -> Result<BatchReleaseResponse> {
        self.submit_envelope(RequestEnvelope::batch(batch))?.wait()?.into_batch().ok_or_else(|| {
            ServiceError::InvalidRequest("protocol violation: single answer to a batch".into())
        })
    }

    /// The registry the server serves from.
    pub fn registry(&self) -> &Arc<DatasetRegistry> {
        &self.registry
    }

    /// The ledger the server meters budgets with.
    pub fn ledger(&self) -> &Arc<BudgetLedger> {
        &self.ledger
    }

    /// The crash-safe ledger behind this server, when it was started via
    /// [`Server::start_durable`] (`None` on a plain in-memory server).
    pub fn durable(&self) -> Option<&Arc<DurableLedger>> {
        self.durable.as_ref()
    }

    /// The resident pool executing this server's requests.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// A snapshot of the server counters, pool health included.
    ///
    /// The counters live in the telemetry bundle's registry (the one
    /// [`Server::telemetry`] scrapes), not in the server: a second server
    /// started on the same ledger reuses the bundle the ledger carries, so
    /// it continues the first server's counts instead of starting from
    /// zero.
    pub fn metrics(&self) -> ServerMetricsSnapshot {
        self.metrics.snapshot().with_pool(self.pool.stats())
    }

    /// A readiness report for health endpoints: whether the server accepts
    /// work, how loaded it is, and — on durable servers — the journal's
    /// breaker/backlog state. `ready` is the roll-up a load balancer
    /// should route on; the same signals are exported as `pcor_ready`,
    /// `pcor_accepting`, `pcor_inflight_requests` and `pcor_breaker_state`
    /// in the Prometheus scrape.
    pub fn health(&self) -> HealthReport {
        let accepting = self.accepting.load(Ordering::Acquire);
        let journal = self.durable.as_ref().map(|durable| durable.journal_health());
        let ready = accepting && journal.as_ref().is_none_or(|health| health.accepting_reserves);
        let snapshot = self.metrics.snapshot();
        HealthReport {
            accepting,
            inflight: self.inflight.current(),
            queue_capacity: self.queue_capacity,
            journal,
            deadline_exceeded: snapshot.deadline_exceeded,
            shed: snapshot.shed,
            ready,
        }
    }

    /// The server's observability bundle: the metrics registry (scrape it
    /// with [`Telemetry::render_prometheus`]), the span ring buffer and the
    /// privacy-budget audit log, all aggregated across every layer a
    /// release touches.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Stops accepting requests, waits for everything in flight to resolve
    /// and shuts the pool down. Idempotent.
    pub fn shutdown(&self) {
        let was_accepting = self.accepting.swap(false, Ordering::AcqRel);
        self.inflight.drain();
        // One final compaction after the drain, so the next start replays a
        // checkpoint plus an empty tail and re-seeds its cache warm. Only
        // the shutdown that actually closed the doors writes it; a failure
        // here merely leaves a longer (still valid) log for replay.
        if was_accepting {
            if let Some(durable) = &self.durable {
                let _ = durable.checkpoint(Some(&self.registry));
            }
        }
        self.pool.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("registry", &self.registry)
            .field("metrics", &self.metrics())
            .finish()
    }
}

/// One admitted envelope's serving task, moved onto a pool worker.
struct Task {
    registry: Arc<DatasetRegistry>,
    ledger: Arc<BudgetLedger>,
    durable: Option<Arc<DurableLedger>>,
    metrics: Arc<ServerMetrics>,
    pool: Arc<ThreadPool>,
    telemetry: Telemetry,
    faults: Faults,
    trace: TraceId,
    /// Present when the envelope carried a deadline; checked by the
    /// verifier before every fresh evaluation.
    cancel: Option<CancelToken>,
    enqueued: Instant,
    /// What the handle has asked for, and where the reply goes.
    shared: Arc<Shared>,
    /// Held for the task's duration; its drop (panic included) releases
    /// capacity and wakes blocked submitters.
    _slot: InflightSlot,
}

impl Task {
    /// Serves the envelope, streams its items, leaves the reply, then runs
    /// the post-reply housekeeping.
    fn run(self, envelope: RequestEnvelope, completion: Completion) {
        // The service seam: injected latency simulates a slow serving
        // task (deadline pressure), an injected panic exercises the
        // refund-on-unwind guarantees.
        self.faults.hit(site::SERVICE_RELEASE);
        // The root span covers the whole serving task; queue wait is
        // visible as the gap between `enqueued` and the span start.
        let server_span = self.telemetry.span(self.trace, None, "server");
        let reply = if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            // The request sat in the queue past its own deadline: answer
            // without reserving or touching the dataset.
            self.metrics.record_deadline_exceeded();
            Err(ServiceError::DeadlineExceeded)
        } else {
            let mut sent = 0;
            self.serve(server_span.id(), envelope, |finished| {
                let streaming = match self.shared.demand.load(Ordering::Acquire) {
                    Shared::GONE => return false,
                    Shared::ITEMS => true,
                    _ => false,
                };
                // Unsent items go out in order. Once the handle has asked,
                // each send waits for the consumer to take the last; before
                // that an item goes only if the channel has room.
                for item in &finished[sent..] {
                    match completion.deliver(item.clone(), streaming) {
                        Ok(true) => sent += 1,
                        Ok(false) => return true,
                        Err(()) => return false,
                    }
                }
                true
            })
        };
        server_span.finish();
        // Leave the reply, then hang up (which rings the handle's waker):
        // the handle reads it once it has taken every sent item, so the
        // reply never waits on the consumer.
        *self.shared.reply.lock().expect("reply slot poisoned") = Some(reply);
        drop(completion);
        // Auto-compaction rides the serving task, after the reply is
        // already on its way: the analyst never waits on a checkpoint. A
        // failed checkpoint leaves the existing log intact (replay just
        // stays long); the next eligible request retries.
        if let Some(durable) = &self.durable {
            let _ = durable.maybe_checkpoint(Some(&self.registry));
        }
    }

    /// Serves one validated envelope on the calling pool worker, a single
    /// as a one-item batch: one summed-ε reservation, one shared release
    /// session, per-item resolution and one
    /// partial commit. `parent` (the root "server" span) threads causality
    /// down into the ledger, session and verifier spans. `sink` sees a
    /// batch's finished items after each one (a single never calls it);
    /// returning `false` cancels the remaining items, whose ε slices are
    /// refunded with the failed items' — the dropped-consumer semantics.
    fn serve(
        &self,
        parent: SpanId,
        envelope: RequestEnvelope,
        mut sink: impl FnMut(&[BatchItemResponse]) -> bool,
    ) -> Result<ResponseEnvelope> {
        let worker = self.pool.current_worker().unwrap_or(0);
        let (batch, single) = match envelope.body {
            RequestBody::Single(request) => (BatchReleaseRequest::from(request), true),
            RequestBody::Batch(batch) => (batch, false),
        };
        let entry = self.registry.get(&batch.dataset)?;
        // Refuse the whole request before any work when an item is
        // malformed: partial-failure semantics apply to *release*
        // failures, not to requests the analyst could have validated
        // locally.
        for item in &batch.items {
            if item.record_id >= entry.dataset().len() {
                return Err(ServiceError::InvalidRequest(format!(
                    "record {} out of range for dataset `{}` of {} records",
                    item.record_id,
                    batch.dataset,
                    entry.dataset().len()
                )));
            }
        }

        // Phase 1: one reservation for the summed ε, before any work. A
        // request the analyst's remaining budget cannot cover is refused
        // whole: once an analyst's ε is gone, the server answers nothing
        // more about that dataset.
        let total_epsilon = batch.total_epsilon();
        let mechanism = mechanism_name(batch.mechanism.unwrap_or_default());
        let reserve_outcome = {
            let _reserve_span = self.telemetry.span(self.trace, Some(parent), "ledger.reserve");
            self.ledger.reserve_traced(
                &batch.analyst,
                &batch.dataset,
                total_epsilon,
                self.trace.0,
                Some(mechanism.to_string()),
            )
        };
        let reservation = reserve_outcome.inspect_err(|err| {
            if matches!(err, ServiceError::BudgetExhausted { .. }) {
                self.metrics.record_refused();
            }
        })?;

        // One session for the whole request: the detector is built once and
        // every record's memoized verifier is shared across items.
        let detector = batch.detector.build();
        let utility = PopulationSizeUtility;
        let mut builder = ReleaseSession::builder(entry.dataset(), detector.as_ref(), &utility)
            .trace_context(self.telemetry.clone(), self.trace, Some(parent));
        if let Some(token) = &self.cancel {
            builder = builder.cancel_token(token.clone());
        }
        let mut session = builder.build();
        let needs_start = batch.algorithm.needs_starting_context();

        let mut items: Vec<BatchItemResponse> = Vec::with_capacity(batch.items.len());
        let mut committed = 0.0f64;
        // Set when the cancel token trips: the item it caught and every
        // later one are skipped, and their ε slices stay in the
        // reservation for the refund below — no private draw was
        // published for them.
        let mut cancelled = false;
        for item in &batch.items {
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                cancelled = true;
                break;
            }
            // Warm the session from the cross-request registry cache; on a
            // session-side miss the search runs on the item's verifier and
            // the result is published back (weighted by its discovery
            // cost) for future requests.
            let mut cache_hit = session.starting_context(item.record_id).is_some();
            if !cache_hit {
                if let Some(context) = self.registry.cached_starting_context(
                    &batch.dataset,
                    item.record_id,
                    batch.detector,
                ) {
                    session.seed_starting_context(item.record_id, context);
                    cache_hit = true;
                }
            }
            // Resolve the starting context before the release so the
            // discovery cost (fresh f_M calls) is measurable in isolation;
            // the release reuses the cached result, so nothing is computed
            // twice. A resolve failure fails the item with exactly the
            // error the release itself would have produced.
            let mut discovery_cost = 0u64;
            let mut resolve_failure: Option<pcor_core::PcorError> = None;
            if needs_start && !cache_hit {
                let calls_before = session.stats().verification_calls;
                match session.resolve_starting_context(item.record_id) {
                    Ok(_) => {
                        discovery_cost = (session.stats().verification_calls - calls_before) as u64;
                    }
                    Err(err) => resolve_failure = Some(err),
                }
            }
            let config = batch.item_config(item);
            let result = match resolve_failure {
                Some(err) => Err(err),
                None => session.release_with_seed(item.record_id, &config, item.seed),
            };
            // Publish a freshly discovered starting context whether or not
            // the release itself succeeded: the search result is valid and
            // expensive, and a retry must not pay for it again.
            if !cache_hit {
                if let Some(context) = session.starting_context(item.record_id) {
                    self.registry.store_starting_context(
                        &batch.dataset,
                        item.record_id,
                        batch.detector,
                        context.clone(),
                        discovery_cost,
                    );
                }
            }
            let outcome = match result {
                Ok(result) => {
                    committed += item.epsilon;
                    self.metrics.record_mechanism(result.mechanism);
                    ItemOutcome::Released(ItemRelease {
                        predicate: result.context.to_predicate_string(entry.dataset().schema()),
                        context: result.context,
                        utility: result.utility,
                        samples_collected: result.samples_collected,
                        // The pre-release starting search is this item's
                        // work; fold its calls back in so per-item counts
                        // still sum to the request total.
                        verification_calls: result.verification_calls + discovery_cost as usize,
                        guarantee: result.guarantee,
                        mechanism: result.mechanism,
                        cache_hit,
                    })
                }
                // The verifier stopped between fresh evaluations.
                Err(pcor_core::PcorError::Cancelled) => {
                    cancelled = true;
                    break;
                }
                // The item failed before its mechanism produced output; its
                // ε slice stays in the reservation and is refunded below.
                Err(err) => ItemOutcome::Failed { error: err.to_string() },
            };
            items.push(BatchItemResponse {
                record_id: item.record_id,
                epsilon: item.epsilon,
                outcome,
            });
            if !single && !sink(&items) {
                break;
            }
        }

        // Phase 2: commit what the successful items consumed; every failed
        // and skipped item's slice goes back to the analyst.
        let remaining = self.ledger.commit_partial(reservation, committed);
        let latency = self.enqueued.elapsed();
        let released = items.iter().filter(|item| item.outcome.is_released()).count();
        self.metrics.record_batch(released as u64, (items.len() - released) as u64, latency);
        let session_stats = session.stats();
        self.metrics.record_engine(
            session_stats.verification_calls as u64,
            session_stats.cache_lookups as u64,
            session_stats.cache_hits as u64,
            session_stats.words_scanned,
        );
        // A tripped deadline counts once per request; an explicit cancel
        // (other token owners) is not a deadline.
        let deadline_exceeded =
            cancelled && self.cancel.as_ref().is_some_and(CancelToken::deadline_exceeded);
        if deadline_exceeded {
            self.metrics.record_deadline_exceeded();
        }
        let response = BatchReleaseResponse {
            analyst: batch.analyst,
            dataset: batch.dataset,
            verification_calls: session_stats.verification_calls,
            items,
            epsilon_committed: committed,
            epsilon_refunded: total_epsilon - committed,
            remaining_budget: remaining,
            latency,
            worker,
        };
        // Echo the request's (validated) protocol version so a client
        // pinned to v1 never receives a response stamped v2.
        let reply = if single {
            ResponseEnvelope::single(Self::single_response(response, deadline_exceeded)?)
        } else {
            ResponseEnvelope::batch(response)
        };
        Ok(reply.at_version(envelope.v))
    }

    /// Shapes a one-item batch's response into the single-release reply:
    /// the released item, or its failure as the request's error. No item
    /// means it was cancelled.
    fn single_response(
        batch: BatchReleaseResponse,
        deadline_exceeded: bool,
    ) -> Result<ReleaseResponse> {
        let Some(item) = batch.items.into_iter().next() else {
            return Err(if deadline_exceeded {
                ServiceError::DeadlineExceeded
            } else {
                ServiceError::Cancelled
            });
        };
        match item.outcome {
            ItemOutcome::Released(release) => Ok(ReleaseResponse {
                analyst: batch.analyst,
                dataset: batch.dataset,
                record_id: item.record_id,
                context: release.context,
                predicate: release.predicate,
                utility: release.utility,
                samples_collected: release.samples_collected,
                verification_calls: release.verification_calls,
                guarantee: release.guarantee,
                mechanism: release.mechanism,
                epsilon_spent: item.epsilon,
                remaining_budget: batch.remaining_budget,
                cache_hit: release.cache_hit,
                latency: batch.latency,
                worker: batch.worker,
            }),
            ItemOutcome::Failed { error } => Err(ServiceError::Release(error)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use pcor_core::SamplingAlgorithm;
    use pcor_data::{Attribute, Dataset, Record, Schema};
    use pcor_outlier::DetectorKind;

    /// Record 0 is a planted outlier in its own (a0, b0) cell.
    fn toy_dataset() -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_values("A", &["a0", "a1"]),
                Attribute::from_values("B", &["b0", "b1"]),
            ],
            "M",
        )
        .unwrap();
        let mut records = vec![Record::new(vec![0, 0], 900.0)];
        for i in 0..40 {
            records.push(Record::new(
                vec![(i % 2) as u16, ((i / 2) % 2) as u16],
                100.0 + (i % 7) as f64,
            ));
        }
        Dataset::new(schema, records).unwrap()
    }

    fn toy_server(grant: f64, workers: usize) -> Server {
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("toy", toy_dataset());
        let ledger = Arc::new(BudgetLedger::new(grant));
        Server::start(
            ServerConfig::default().with_workers(workers).with_queue_capacity(16),
            registry,
            ledger,
        )
    }

    fn toy_request(analyst: &str, seed: u64) -> ReleaseRequest {
        ReleaseRequest::new(analyst, "toy", 0)
            .with_detector(DetectorKind::ZScore)
            .with_algorithm(SamplingAlgorithm::Bfs)
            .with_epsilon(0.2)
            .with_samples(5)
            .with_seed(seed)
    }

    #[test]
    fn serves_a_release_and_reports_budget() {
        let server = toy_server(1.0, 2);
        let response = server.execute(toy_request("alice", 7)).unwrap();
        assert_eq!(response.analyst, "alice");
        assert_eq!(response.record_id, 0);
        assert!(response.utility > 0.0);
        assert!(!response.predicate.is_empty());
        assert_eq!(response.epsilon_spent, 0.2);
        assert!((response.remaining_budget - 0.8).abs() < 1e-9);
        assert!(response.guarantee.epsilon <= 0.2 + 1e-12);
        assert!(!response.cache_hit, "first query for this record must miss");
        let again = server.execute(toy_request("alice", 8)).unwrap();
        assert!(again.cache_hit, "repeat query must hit the starting-context cache");
        let metrics = server.metrics();
        assert_eq!(metrics.served, 2);
        assert!(metrics.mean_latency > std::time::Duration::ZERO);
    }

    #[test]
    fn engine_metrics_expose_cache_hit_rate_and_evaluations_per_release() {
        let server = toy_server(10.0, 1);
        server.execute(toy_request("alice", 7)).unwrap();
        let after_one = server.metrics();
        assert!(after_one.verification_calls > 0, "a release must perform fresh f_M calls");
        assert!(after_one.verifier_lookups >= after_one.verification_calls);
        assert!(after_one.evaluations_per_release() > 0.0);
        // A batch revisiting one record replays mostly from the shared
        // verifier cache: the hit rate must be strictly positive.
        server.execute_batch(toy_batch("alice", &[0, 0, 0])).unwrap();
        let after_batch = server.metrics();
        assert!(after_batch.verifier_cache_hits > after_one.verifier_cache_hits);
        assert!(after_batch.verifier_cache_hit_rate() > 0.0);
        assert!(after_batch.verifier_cache_hit_rate() <= 1.0);
        assert!(
            after_batch.verification_calls > after_one.verification_calls,
            "the batch still pays for contexts it has not seen"
        );
    }

    #[test]
    fn metrics_report_pool_health() {
        let server = toy_server(10.0, 2);
        server.execute(toy_request("alice", 7)).unwrap();
        let metrics = server.metrics();
        assert_eq!(metrics.pool_workers, 2);
        // The executed counter is bumped just after the task's reply is
        // sent; give the worker a moment to cross that line.
        let started = Instant::now();
        while server.metrics().pool_tasks_executed == 0 {
            assert!(started.elapsed().as_secs() < 30, "the request must count as a pool task");
            std::thread::yield_now();
        }
        assert_eq!(metrics.pool_queue_depth, 0);
    }

    #[test]
    fn identical_seeds_give_identical_releases() {
        let server = toy_server(1.0, 2);
        let a = server.execute(toy_request("alice", 42)).unwrap();
        let b = server.execute(toy_request("bob", 42)).unwrap();
        assert_eq!(a.context, b.context, "same seed + same dataset must replay identically");
        let c = server.execute(toy_request("alice", 43)).unwrap();
        // Different seeds *may* coincide, but utility/samples must come
        // from a genuinely independent draw — just check it served.
        assert!(c.utility > 0.0);
    }

    #[test]
    fn refuses_once_the_budget_is_exhausted() {
        let server = toy_server(0.5, 1);
        for seed in 0..2 {
            server.execute(toy_request("alice", seed)).unwrap();
        }
        // 0.4 spent, 0.1 left: the third 0.2-query must be refused.
        match server.execute(toy_request("alice", 9)) {
            Err(ServiceError::BudgetExhausted { analyst, remaining, .. }) => {
                assert_eq!(analyst, "alice");
                assert!((remaining - 0.1).abs() < 1e-9);
            }
            other => panic!("expected refusal, got {other:?}"),
        }
        // Another analyst still has their own grant.
        assert!(server.execute(toy_request("bob", 1)).is_ok());
        assert_eq!(server.metrics().refused, 1);
    }

    #[test]
    fn failed_releases_refund_the_reservation() {
        let server = toy_server(0.5, 1);
        // Record 1 is not a contextual outlier: the query fails...
        let request = toy_request("alice", 3);
        let request = ReleaseRequest { record_id: 1, ..request };
        assert!(matches!(server.execute(request), Err(ServiceError::Release(_))));
        // ...and the full grant is still available for a real query.
        assert!((server.ledger().remaining("alice", "toy") - 0.5).abs() < 1e-12);
        let response = server.execute(toy_request("alice", 4)).unwrap();
        assert!((response.remaining_budget - 0.3).abs() < 1e-9);
        assert_eq!(server.metrics().failed, 1);
    }

    #[test]
    fn rejects_malformed_requests_without_spending() {
        let server = toy_server(0.5, 1);
        let unknown = ReleaseRequest::new("alice", "nope", 0);
        assert!(matches!(
            server.execute(unknown),
            Err(ServiceError::UnknownDataset(name)) if name == "nope"
        ));
        let out_of_range = ReleaseRequest::new("alice", "toy", 10_000);
        assert!(matches!(server.execute(out_of_range), Err(ServiceError::InvalidRequest(_))));
        let bad_epsilon = toy_request("alice", 0).with_epsilon(-1.0);
        assert!(matches!(server.execute(bad_epsilon), Err(ServiceError::InvalidRequest(_))));
        assert!((server.ledger().remaining("alice", "toy") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn concurrent_submissions_all_resolve() {
        let server = toy_server(100.0, 4);
        let pending: Vec<_> = (0..20)
            .map(|seed| {
                let request = toy_request(&format!("analyst-{}", seed % 3), seed);
                server.submit_envelope(RequestEnvelope::single(request)).unwrap()
            })
            .collect();
        let mut workers_seen = std::collections::HashSet::new();
        for handle in pending {
            let response = handle.wait().unwrap().into_single().unwrap();
            workers_seen.insert(response.worker);
        }
        assert_eq!(server.metrics().served, 20);
        // With 4 workers and 20 queued requests, work should spread; at
        // minimum the pool must not have funneled everything through a
        // single worker *and* lost the others (they would deadlock).
        assert!(!workers_seen.is_empty());
    }

    #[test]
    fn pending_handles_report_completion_without_blocking() {
        let server = toy_server(10.0, 1);
        let mut handle =
            server.submit_envelope(RequestEnvelope::single(toy_request("alice", 5))).unwrap();
        // Wait for completion via polling only.
        let started = Instant::now();
        while !handle.is_finished() {
            assert!(started.elapsed().as_secs() < 30, "request never completed");
            std::thread::yield_now();
        }
        let response = handle.wait().unwrap().into_single().unwrap();
        assert_eq!(response.record_id, 0);
    }

    #[test]
    fn shutdown_refuses_new_work_and_is_idempotent() {
        let server = toy_server(1.0, 2);
        server.execute(toy_request("alice", 1)).unwrap();
        server.shutdown();
        server.shutdown();
        let single = || RequestEnvelope::single(toy_request("alice", 2));
        assert!(matches!(server.submit_envelope(single()), Err(ServiceError::Shutdown)));
        assert!(matches!(server.try_submit_envelope(single()), Err(ServiceError::Shutdown)));
        assert!(matches!(
            server.submit_envelope(RequestEnvelope::batch(toy_batch("alice", &[0, 0]))),
            Err(ServiceError::Shutdown)
        ));
    }

    use crate::request::{BatchItem, BatchReleaseRequest, RequestEnvelope};

    fn toy_batch(analyst: &str, records: &[usize]) -> BatchReleaseRequest {
        BatchReleaseRequest::new(analyst, "toy")
            .with_detector(DetectorKind::ZScore)
            .with_algorithm(SamplingAlgorithm::Bfs)
            .with_items(
                records
                    .iter()
                    .enumerate()
                    .map(|(i, &record_id)| {
                        BatchItem::new(record_id)
                            .with_epsilon(0.2)
                            .with_samples(5)
                            .with_seed(i as u64)
                    })
                    .collect(),
            )
    }

    #[test]
    fn batch_shares_the_session_across_repeat_records() {
        let server = toy_server(10.0, 1);
        let response = server.execute_batch(toy_batch("alice", &[0, 0, 0])).unwrap();
        assert_eq!(response.items.len(), 3);
        assert_eq!(response.released(), 3);
        assert_eq!(response.failed(), 0);
        let calls: Vec<usize> = response
            .items
            .iter()
            .map(|item| item.outcome.released().unwrap().verification_calls)
            .collect();
        assert!(
            calls[1] < calls[0] && calls[2] <= calls[1],
            "repeat items must replay from the shared verifier cache, got {calls:?}"
        );
        // The first item misses the starting-context cache, repeats hit the
        // session's copy.
        let hits: Vec<bool> =
            response.items.iter().map(|i| i.outcome.released().unwrap().cache_hit).collect();
        assert_eq!(hits, vec![false, true, true]);
        assert!((response.epsilon_committed - 0.6).abs() < 1e-9);
        assert_eq!(response.epsilon_refunded, 0.0);
        // A follow-up single request hits the registry cache the batch
        // populated.
        let single = server.execute(toy_request("alice", 9)).unwrap();
        assert!(single.cache_hit, "the batch must publish starting contexts to the registry");
    }

    #[test]
    fn batch_items_fail_independently_and_refund_their_slice() {
        let server = toy_server(10.0, 1);
        // Record 1 is not a contextual outlier: its item fails, the others
        // succeed.
        let response = server.execute_batch(toy_batch("alice", &[0, 1, 0])).unwrap();
        assert_eq!(response.released(), 2);
        assert_eq!(response.failed(), 1);
        assert!(matches!(response.items[1].outcome, ItemOutcome::Failed { .. }));
        assert!((response.epsilon_committed - 0.4).abs() < 1e-9);
        assert!((response.epsilon_refunded - 0.2).abs() < 1e-9);
        assert!((server.ledger().remaining("alice", "toy") - 9.6).abs() < 1e-9);
        assert!((server.ledger().spent("alice", "toy") - 0.4).abs() < 1e-9);
        // Per-record guarantees match an equivalent single request.
        let single = server.execute(toy_request("bob", 1)).unwrap();
        let batch_guarantee = response.items[0].outcome.released().unwrap().guarantee;
        assert_eq!(batch_guarantee.epsilon, single.guarantee.epsilon);
    }

    #[test]
    fn failed_starting_context_searches_are_not_cached() {
        let server = toy_server(10.0, 1);
        let registry = server.registry();
        // Record 1 is not a contextual outlier: its search fails, and the
        // cache neither stores nor counts it.
        let response = server.execute_batch(toy_batch("alice", &[1])).unwrap();
        assert_eq!(response.failed(), 1);
        let stats = registry.cache_stats();
        assert_eq!((stats.len, stats.misses), (0, 0));
        // Beside a released item, only the released record's context is
        // stored.
        let response = server.execute_batch(toy_batch("alice", &[1, 0])).unwrap();
        assert_eq!((response.released(), response.failed()), (1, 1));
        let stats = registry.cache_stats();
        assert_eq!((stats.len, stats.misses, stats.hits), (1, 1, 0));
        assert!(registry.cached_starting_context("toy", 1, DetectorKind::ZScore).is_none());
        assert!(registry.cached_starting_context("toy", 0, DetectorKind::ZScore).is_some());
    }

    #[test]
    fn over_budget_batches_are_refused_whole_before_any_work() {
        let server = toy_server(0.5, 1);
        // 3 x 0.2 = 0.6 > 0.5: the whole batch must be refused...
        match server.execute_batch(toy_batch("alice", &[0, 0, 0])) {
            Err(ServiceError::BudgetExhausted { requested, remaining, .. }) => {
                assert!((requested - 0.6).abs() < 1e-9);
                assert!((remaining - 0.5).abs() < 1e-9);
            }
            other => panic!("expected whole-batch refusal, got {other:?}"),
        }
        // ...with no budget consumed and no work done (the starting-context
        // cache saw no traffic).
        assert!((server.ledger().remaining("alice", "toy") - 0.5).abs() < 1e-12);
        let stats = server.registry().cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 0, 0));
        assert_eq!(server.metrics().refused, 1);
        // A batch that exactly fits is fine.
        let response = server.execute_batch(toy_batch("alice", &[0, 0])).unwrap();
        assert_eq!(response.released(), 2);
        assert!(response.remaining_budget < 0.1 + 1e-9);
    }

    #[test]
    fn malformed_batches_are_rejected_without_spending() {
        let server = toy_server(1.0, 1);
        let empty = BatchReleaseRequest::new("alice", "toy").with_detector(DetectorKind::ZScore);
        assert!(matches!(server.execute_batch(empty), Err(ServiceError::InvalidRequest(_))));
        let out_of_range = toy_batch("alice", &[0, 50_000]);
        assert!(matches!(server.execute_batch(out_of_range), Err(ServiceError::InvalidRequest(_))));
        let bad_epsilon = BatchReleaseRequest::new("alice", "toy")
            .with_detector(DetectorKind::ZScore)
            .push(BatchItem::new(0).with_epsilon(-0.5));
        assert!(matches!(server.execute_batch(bad_epsilon), Err(ServiceError::InvalidRequest(_))));
        let unknown = toy_batch("alice", &[0]);
        let unknown = BatchReleaseRequest { dataset: "nope".into(), ..unknown };
        assert!(matches!(server.execute_batch(unknown), Err(ServiceError::UnknownDataset(_))));
        assert!((server.ledger().remaining("alice", "toy") - 1.0).abs() < 1e-12);
        // Admission validates: the malformed envelope is answered on its
        // handle without reaching a worker.
        let empty = BatchReleaseRequest::new("alice", "toy").with_detector(DetectorKind::ZScore);
        let mut handle = server.submit_envelope(RequestEnvelope::batch(empty)).unwrap();
        assert!(handle.is_finished());
        assert!(matches!(handle.wait(), Err(ServiceError::InvalidRequest(_))));
    }

    #[test]
    fn mechanisms_are_selectable_end_to_end_and_reported() {
        use pcor_dp::MechanismKind;
        let server = toy_server(10.0, 1);
        // Default (no mechanism field): Exponential, as always.
        let default = server.execute(toy_request("alice", 7)).unwrap();
        assert_eq!(default.mechanism, MechanismKind::Exponential);
        assert_eq!(default.guarantee.mechanism, MechanismKind::Exponential);
        // A v2 request selecting permute-and-flip serves through it.
        let pf_request = toy_request("alice", 7).with_mechanism(MechanismKind::PermuteAndFlip);
        let envelope = RequestEnvelope::single(pf_request);
        assert_eq!(envelope.v, crate::request::PROTOCOL_VERSION);
        let response =
            server.submit_envelope(envelope).unwrap().wait().unwrap().into_single().unwrap();
        assert_eq!(response.mechanism, MechanismKind::PermuteAndFlip);
        assert_eq!(response.guarantee.mechanism, MechanismKind::PermuteAndFlip);
        assert!((response.guarantee.epsilon - 0.2).abs() < 1e-12, "same ε accounting");
        // Batches thread the shared mechanism into every item.
        let batch = toy_batch("alice", &[0, 0]).with_mechanism(MechanismKind::ReportNoisyMax);
        let batch_response = server.execute_batch(batch).unwrap();
        for item in &batch_response.items {
            assert_eq!(item.outcome.released().unwrap().mechanism, MechanismKind::ReportNoisyMax);
        }
        // The metrics report the mechanism mix.
        let tally = server.metrics().mechanism_releases;
        assert_eq!(tally.exponential, 1);
        assert_eq!(tally.permute_and_flip, 1);
        assert_eq!(tally.report_noisy_max, 2);
    }

    #[test]
    fn v1_envelopes_are_served_with_the_default_mechanism() {
        use pcor_dp::MechanismKind;
        let server = toy_server(10.0, 1);
        // A v1 client's envelope (no mechanism anywhere) is still accepted…
        let v1 = RequestEnvelope::single(toy_request("alice", 5)).at_version(1);
        let reply = server.submit_envelope(v1).unwrap().wait().unwrap();
        // …the response echoes the client's version, not the server's…
        assert_eq!(reply.v, 1, "a v1 client must not receive a v2-stamped response");
        let response = reply.into_single().unwrap();
        assert_eq!(response.mechanism, MechanismKind::Exponential);
        // …and it is the identical release a v2 envelope with the same
        // seed gets (the mechanism axis must not perturb old clients).
        let v2 = RequestEnvelope::single(toy_request("bob", 5));
        let v2_reply = server.submit_envelope(v2).unwrap().wait().unwrap();
        assert_eq!(v2_reply.v, crate::request::PROTOCOL_VERSION);
        let v2_response = v2_reply.into_single().unwrap();
        assert_eq!(response.context, v2_response.context);
        // A v1 envelope smuggling the v2 field is refused without spending.
        let smuggled = RequestEnvelope::single(
            toy_request("alice", 6).with_mechanism(MechanismKind::PermuteAndFlip),
        )
        .at_version(1);
        match server.submit_envelope(smuggled).unwrap().wait() {
            Err(ServiceError::InvalidRequest(msg)) => assert!(msg.contains("v2"), "{msg}"),
            other => panic!("expected an invalid-request refusal, got {other:?}"),
        }
        assert!((server.ledger().remaining("alice", "toy") - 9.8).abs() < 1e-9);
    }

    #[test]
    fn unsupported_protocol_versions_are_refused() {
        let server = toy_server(1.0, 1);
        let mut envelope = RequestEnvelope::single(toy_request("alice", 1));
        envelope.v = 99;
        match server.submit_envelope(envelope).unwrap().wait() {
            Err(ServiceError::UnsupportedProtocol { requested, supported }) => {
                assert_eq!(requested, 99);
                assert_eq!(supported, crate::request::PROTOCOL_VERSION);
            }
            other => panic!("expected a protocol refusal, got {other:?}"),
        }
        assert!((server.ledger().remaining("alice", "toy") - 1.0).abs() < 1e-12);
    }

    /// `try_submit` must refuse with `QueueFull` while a slow batch holds
    /// the only in-flight slot — back-pressure for load generators, now
    /// enforced by the admission counter rather than a channel.
    #[test]
    fn try_submit_applies_back_pressure_under_a_full_queue() {
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("toy", toy_dataset());
        let ledger = Arc::new(BudgetLedger::new(1_000.0));
        let server = Server::start(
            ServerConfig::default().with_workers(1).with_queue_capacity(1),
            registry,
            ledger,
        );
        // A heavy batch occupies the single in-flight slot for a while.
        let slow = toy_batch("alice", &vec![0; 64]);
        let slow_handle = server.submit_envelope(RequestEnvelope::batch(slow)).unwrap();
        let mut queued = Vec::new();
        let mut saw_queue_full = false;
        for seed in 0..10_000 {
            match server.try_submit_envelope(RequestEnvelope::single(toy_request("bob", seed))) {
                Ok(handle) => queued.push(handle),
                Err(ServiceError::QueueFull) => {
                    saw_queue_full = true;
                    break;
                }
                Err(other) => panic!("unexpected submit error: {other}"),
            }
        }
        assert!(saw_queue_full, "a capacity-1 server behind a slow batch must fill up");
        // Everything that was accepted still resolves.
        assert!(slow_handle.wait().is_ok());
        for handle in queued {
            assert!(handle.wait().is_ok());
        }
    }

    #[test]
    fn streamed_batches_yield_items_before_the_batch_finishes() {
        let server = toy_server(10.0, 1);
        let mut stream =
            server.submit_envelope(RequestEnvelope::batch(toy_batch("alice", &[0, 0, 0]))).unwrap();
        let first = stream.next_item().expect("a first item must arrive");
        assert_eq!(first.record_id, 0);
        assert!(first.outcome.is_released());
        // The bounded event channel (capacity 1) guarantees the serving
        // task cannot have delivered the final summary yet: item 2 has not
        // even been sent when item 0 is consumed.
        assert!(!stream.is_finished(), "the first item must surface before the batch completes");
        let mut rest = Vec::new();
        while let Some(item) = stream.next_item() {
            rest.push(item);
        }
        assert_eq!(rest.len(), 2);
        let summary = stream.wait().unwrap().into_batch().unwrap();
        assert_eq!(summary.released(), 3);
        assert!((summary.epsilon_committed - 0.6).abs() < 1e-9);
    }

    /// A handle that has not asked for items leaves them in the summary:
    /// the batch finishes without a consumer, and a later `next_item`
    /// still yields every item, in order, from the summary.
    #[test]
    fn items_finished_before_the_first_ask_come_from_the_summary() {
        let server = toy_server(10.0, 1);
        let mut handle =
            server.submit_envelope(RequestEnvelope::batch(toy_batch("alice", &[0, 1, 0]))).unwrap();
        let started = Instant::now();
        while !handle.is_finished() {
            assert!(started.elapsed().as_secs() < 30, "an undrained batch never finished");
            std::thread::yield_now();
        }
        let mut items = Vec::new();
        while let Some(item) = handle.next_item() {
            items.push(item);
        }
        assert!(handle.is_finished());
        let summary = handle.wait().unwrap().into_batch().unwrap();
        assert_eq!(items, summary.items);
        assert_eq!(items.iter().map(|item| item.record_id).collect::<Vec<_>>(), [0, 1, 0]);
    }

    #[test]
    fn streamed_and_blocking_batches_account_identically() {
        let streamed_server = toy_server(10.0, 1);
        let blocking_server = toy_server(10.0, 1);
        // Record 1 fails; 0s succeed. Same batch through both paths.
        let stream = streamed_server
            .submit_envelope(RequestEnvelope::batch(toy_batch("alice", &[0, 1, 0])))
            .unwrap();
        let streamed = stream.wait().unwrap().into_batch().unwrap();
        let blocking = blocking_server.execute_batch(toy_batch("alice", &[0, 1, 0])).unwrap();
        assert_eq!(streamed.items, blocking.items);
        assert_eq!(streamed.epsilon_committed, blocking.epsilon_committed);
        assert_eq!(streamed.epsilon_refunded, blocking.epsilon_refunded);
        assert_eq!(streamed.remaining_budget, blocking.remaining_budget);
        assert_eq!(
            streamed_server.ledger().spent("alice", "toy"),
            blocking_server.ledger().spent("alice", "toy")
        );
    }

    #[test]
    fn dropping_a_stream_cancels_and_refunds_unprocessed_items() {
        let server = toy_server(10.0, 1);
        {
            let mut stream = server
                .submit_envelope(RequestEnvelope::batch(toy_batch("alice", &[0; 16])))
                .unwrap();
            // Consume one item, then walk away.
            assert!(stream.next_item().is_some());
        }
        // Give the serving task time to notice the dropped consumer.
        let started = Instant::now();
        loop {
            let reserved: f64 = server.ledger().snapshot().iter().map(|entry| entry.reserved).sum();
            if reserved == 0.0 {
                break;
            }
            assert!(started.elapsed().as_secs() < 30, "reservation never resolved");
            std::thread::yield_now();
        }
        let spent = server.ledger().spent("alice", "toy");
        // At least the consumed item committed; the cancelled tail
        // refunded. (The capacity-1 channel means at most two extra items
        // were computed after the consumer left.)
        assert!(spent >= 0.2 - 1e-9, "served items stay committed, spent {spent}");
        assert!(spent <= 0.2 * 4.0 + 1e-9, "cancelled items must refund, spent {spent}");
        assert!((server.ledger().remaining("alice", "toy") + spent - 10.0).abs() < 1e-9);
    }

    /// A queued request that is already past its deadline when a worker
    /// picks it up must be answered `DeadlineExceeded` without reserving
    /// (or spending) any ε.
    #[test]
    fn past_due_queued_requests_are_refused_without_spending() {
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("toy", toy_dataset());
        let ledger = Arc::new(BudgetLedger::new(1_000.0));
        let server = Server::start(
            ServerConfig::default().with_workers(1).with_queue_capacity(4),
            registry,
            ledger,
        );
        // A heavy batch occupies the single worker long enough for the
        // 1 ms deadline behind it to expire in the queue.
        let slow = server
            .submit_envelope(RequestEnvelope::batch(toy_batch("alice", &vec![0; 64])))
            .unwrap();
        let envelope = RequestEnvelope::single(toy_request("bob", 1)).with_deadline_ms(1);
        let pending = server.submit_envelope(envelope).unwrap();
        match pending.wait() {
            Err(ServiceError::DeadlineExceeded) => {}
            other => panic!("expected a deadline refusal, got {other:?}"),
        }
        assert!((server.ledger().remaining("bob", "toy") - 1_000.0).abs() < 1e-12);
        assert!(server.metrics().deadline_exceeded >= 1);
        assert!(slow.wait().is_ok());
        // The scrape reports the lifecycle counter.
        let scrape = server.telemetry().render_prometheus();
        assert!(scrape.contains("pcor_deadline_exceeded_total"), "{scrape}");
        assert!(scrape.contains("pcor_ready 1"), "{scrape}");
    }

    /// With injected clock skew collapsing every deadline to zero, a
    /// loaded server sheds deadlined requests at admission — before they
    /// take an in-flight slot — while deadline-free traffic still queues.
    #[test]
    fn admission_sheds_doomed_deadlines_under_injected_skew() {
        use pcor_faults::{FaultKind, FaultPlan, ScheduledFault};
        use std::time::Duration;
        // The first pass of the service seam advances the injected clock
        // by an hour: every later deadline is effectively already over.
        let faults = FaultPlan::scripted(vec![ScheduledFault {
            site: pcor_faults::site::SERVICE_RELEASE.to_string(),
            hit: 1,
            kind: FaultKind::ClockSkew(Duration::from_secs(3600)),
        }])
        .build();
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("toy", toy_dataset());
        let ledger = Arc::new(BudgetLedger::new(1_000.0));
        let server = Server::start(
            ServerConfig::default()
                .with_workers(1)
                .with_queue_capacity(8)
                .with_faults(faults.clone()),
            registry,
            ledger,
        );
        // Serve once: establishes a nonzero mean latency and fires the
        // skew fault at the seam.
        server.execute(toy_request("alice", 1)).unwrap();
        assert!(faults.skew() >= Duration::from_secs(3600));
        // Hold the worker so the in-flight count is nonzero…
        let slow = server
            .submit_envelope(RequestEnvelope::batch(toy_batch("alice", &vec![0; 64])))
            .unwrap();
        // …then a deadlined request is doomed (estimated wait > 0 ≥ the
        // skew-collapsed deadline) and must be shed at admission.
        let envelope = RequestEnvelope::single(toy_request("bob", 2)).with_deadline_ms(1);
        match server.submit_envelope(envelope) {
            Err(ServiceError::Overloaded { retry_after }) => {
                assert!(retry_after > Duration::ZERO, "the hint must say how long to back off");
            }
            other => panic!("expected an admission shed, got {other:?}"),
        }
        // Deadline-free traffic is never shed.
        let pending =
            server.submit_envelope(RequestEnvelope::single(toy_request("carol", 3))).unwrap();
        assert!(server.metrics().shed >= 1);
        assert!((server.ledger().remaining("bob", "toy") - 1_000.0).abs() < 1e-12);
        assert!(slow.wait().is_ok());
        assert!(pending.wait().is_ok());
        let scrape = server.telemetry().render_prometheus();
        assert!(scrape.contains("pcor_shed_total"), "{scrape}");
    }

    #[test]
    fn health_reports_readiness_and_clears_on_shutdown() {
        let server = toy_server(1.0, 1);
        let health = server.health();
        assert!(health.ready && health.accepting);
        assert!(health.journal.is_none(), "a plain server has no journal");
        assert_eq!(health.queue_capacity, 16);
        assert_eq!(health.inflight, 0);
        server.shutdown();
        let health = server.health();
        assert!(!health.ready && !health.accepting);
        let scrape = server.telemetry().render_prometheus();
        assert!(scrape.contains("pcor_ready 0"), "{scrape}");
        assert!(scrape.contains("pcor_accepting 0"), "{scrape}");
    }

    fn wal_test_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU64;
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("pcor-server-wal-{tag}-{}-{unique}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_server(dir: &std::path::Path, grant: f64) -> Server {
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("toy", toy_dataset());
        let durable = Arc::new(
            crate::durable::DurableLedger::open(
                crate::durable::WalConfig::at(dir),
                BudgetLedger::new(grant),
            )
            .unwrap(),
        );
        Server::start_durable(
            ServerConfig::default().with_workers(1).with_queue_capacity(16),
            registry,
            Arc::clone(&durable),
        )
    }

    #[test]
    fn a_dropped_durable_server_frees_its_ledger() {
        let dir = wal_test_dir("drop");
        let server = durable_server(&dir, 1.0);
        server.execute(toy_request("alice", 7)).unwrap();
        assert!(server.telemetry().render_prometheus().contains("pcor_wal_appended_records"));
        let durable = Arc::downgrade(server.durable().expect("started durable"));
        drop(server);
        assert!(durable.upgrade().is_none(), "the scrape collector must not keep the ledger alive");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plain_servers_carry_no_durable_ledger() {
        let server = toy_server(1.0, 1);
        assert!(server.durable().is_none());
    }

    #[test]
    fn a_durable_server_restart_restores_budgets_and_serves_caches_warm() {
        let dir = wal_test_dir("restart");
        let remaining_before = {
            let server = durable_server(&dir, 1.0);
            let response = server.execute(toy_request("alice", 7)).unwrap();
            assert!(!response.cache_hit, "a cold start has nothing cached");
            // The scrape must report durability next to throughput.
            let scrape = server.telemetry().render_prometheus();
            assert!(scrape.contains("pcor_wal_appended_records"));
            assert!(scrape.contains("pcor_wal_journal_errors 0"));
            // …including the journal's circuit breaker and retry series.
            assert!(scrape.contains("pcor_breaker_state 0"), "{scrape}");
            assert!(scrape.contains("pcor_retries_total{outcome=\"recovered\"}"), "{scrape}");
            assert!(scrape.contains("pcor_ready 1"), "{scrape}");
            // The health surface sees the same journal state.
            let health = server.health();
            assert!(health.ready);
            let journal = health.journal.expect("a durable server reports its journal");
            assert_eq!(journal.breaker, crate::durable::BreakerState::Closed);
            assert_eq!(journal.backlog, 0);
            assert!(journal.accepting_reserves);
            server.shutdown();
            response.remaining_budget
        };
        let server = durable_server(&dir, 1.0);
        let durable = server.durable().expect("started durable");
        // Shutdown wrote a final checkpoint: the restart replays it plus an
        // empty tail, and the ledger resumes exactly where it stopped.
        assert!(durable.report().from_checkpoint);
        assert_eq!(durable.report().events_replayed, 0);
        assert!((server.ledger().remaining("alice", "toy") - remaining_before).abs() < 1e-9);
        // Warm restart: the checkpoint carried the starting-context cache,
        // so the very first release after the restart hits it.
        let response = server.execute(toy_request("alice", 8)).unwrap();
        assert!(response.cache_hit, "the restarted server must serve from the warmed cache");
        assert!((response.remaining_budget - (remaining_before - 0.2)).abs() < 1e-9);
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serving_traffic_auto_checkpoints_once_the_interval_elapses() {
        let dir = wal_test_dir("auto");
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("toy", toy_dataset());
        let mut config = crate::durable::WalConfig::at(&dir);
        // Each served release journals two records (reserve + commit): the
        // second request crosses the interval and triggers compaction.
        config.checkpoint_interval = 3;
        let durable =
            Arc::new(crate::durable::DurableLedger::open(config, BudgetLedger::new(10.0)).unwrap());
        let server = Server::start_durable(
            ServerConfig::default().with_workers(1).with_queue_capacity(16),
            registry,
            Arc::clone(&durable),
        );
        server.execute(toy_request("alice", 1)).unwrap();
        server.execute(toy_request("alice", 2)).unwrap();
        // The auto-checkpoint runs on the serving task after the reply is
        // already delivered; wait for it to land.
        let started = Instant::now();
        while durable.wal_stats().checkpoints == 0 {
            assert!(started.elapsed().as_secs() < 30, "the interval checkpoint never fired");
            std::thread::yield_now();
        }
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
    /// Counts the rings of a [`PendingResponse`]'s waker.
    #[derive(Default)]
    struct CountingWake(std::sync::atomic::AtomicUsize);

    impl CountingWake {
        fn count(&self) -> usize {
            self.0.load(Ordering::SeqCst)
        }

        /// Waits up to 30 s for at least `at_least` rings.
        fn await_count(&self, at_least: usize) -> usize {
            let started = Instant::now();
            while self.count() < at_least {
                assert!(started.elapsed().as_secs() < 30, "only {} rings", self.count());
                std::thread::yield_now();
            }
            self.count()
        }
    }

    impl std::task::Wake for CountingWake {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountingWake>, Waker) {
        let wakes = Arc::new(CountingWake::default());
        (Arc::clone(&wakes), Waker::from(wakes))
    }

    #[test]
    fn the_waker_rings_after_each_streamed_item_and_after_the_reply() {
        let (items, receiver) = mpsc::sync_channel(1);
        let shared = Arc::new(Shared::default());
        let mut handle = PendingResponse::new(receiver, Arc::clone(&shared));
        let (wakes, waker) = counting_waker();
        handle.set_waker(&waker);
        assert_eq!(wakes.count(), 0, "nothing is ready yet");
        let completion = Completion { items: Some(items), shared: Arc::clone(&shared) };
        let item = |record_id| BatchItemResponse {
            record_id,
            epsilon: 0.1,
            outcome: ItemOutcome::Failed { error: "test".to_string() },
        };
        assert_eq!(completion.deliver(item(0), false), Ok(true));
        assert_eq!(wakes.count(), 1);
        // A full channel keeps the item in the summary: no ring.
        assert_eq!(completion.deliver(item(1), false), Ok(false));
        assert_eq!(wakes.count(), 1);
        assert_eq!(handle.try_next_item().map(|item| item.record_id), Some(0));
        assert_eq!(completion.deliver(item(1), true), Ok(true));
        assert_eq!(wakes.count(), 2);
        assert!(!handle.is_finished());
        *shared.reply.lock().unwrap() = Some(Err(ServiceError::QueueFull));
        drop(completion);
        assert_eq!(wakes.count(), 3, "the hang-up rings");
        assert_eq!(handle.try_next_item().map(|item| item.record_id), Some(1));
        assert!(handle.is_finished());
        assert!(matches!(handle.wait(), Err(ServiceError::QueueFull)));
    }

    #[test]
    fn the_waker_rings_when_the_serving_task_panics() {
        use pcor_faults::{FaultKind, FaultPlan};
        let faults = FaultPlan::scripted(vec![])
            .at(pcor_faults::site::SERVICE_RELEASE, 1, FaultKind::Panic)
            .build();
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("toy", toy_dataset());
        let ledger = Arc::new(BudgetLedger::new(1.0));
        let server = Server::start(
            ServerConfig::default().with_workers(1).with_faults(faults),
            registry,
            ledger,
        );
        let pending =
            server.submit_envelope(RequestEnvelope::single(toy_request("alice", 1))).unwrap();
        let (wakes, waker) = counting_waker();
        pending.set_waker(&waker);
        wakes.await_count(1);
        assert!(matches!(pending.wait(), Err(ServiceError::Shutdown)));
        assert_eq!(server.ledger().remaining("alice", "toy"), 1.0);
    }

    #[test]
    fn set_waker_on_an_answered_handle_wakes_at_once() {
        let server = toy_server(1.0, 1);
        // Answered at admission: the request is malformed.
        let refused = server
            .submit_envelope(RequestEnvelope::single(toy_request("alice", 1).with_epsilon(-1.0)))
            .unwrap();
        let (wakes, waker) = counting_waker();
        refused.set_waker(&waker);
        assert_eq!(wakes.count(), 1);
        assert!(refused.wait().is_err());
        // Answered by a worker before the waker was registered.
        let served =
            server.submit_envelope(RequestEnvelope::single(toy_request("alice", 2))).unwrap();
        let started = Instant::now();
        while server.health().inflight > 0 {
            assert!(started.elapsed().as_secs() < 30, "the release never finished");
            std::thread::yield_now();
        }
        let (wakes, waker) = counting_waker();
        served.set_waker(&waker);
        assert_eq!(wakes.count(), 1);
        assert!(served.wait().is_ok());
    }
}
