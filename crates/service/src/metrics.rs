//! The server's counters, kept in the telemetry registry: the serving path
//! increments pre-resolved handles where each event happens, and
//! [`ServerMetricsSnapshot`] is read back from the same handles a
//! Prometheus scrape renders, so the two always agree.

use pcor_dp::{MechanismKind, MechanismTally};
use pcor_runtime::PoolStats;
use pcor_telemetry::{Counter, Histogram, MetricsRegistry};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// The stable name of each mechanism, used as the `mechanism` label value
/// and in the budget audit log.
pub(crate) fn mechanism_name(mechanism: MechanismKind) -> &'static str {
    match mechanism {
        MechanismKind::Exponential => "exponential",
        MechanismKind::PermuteAndFlip => "permute_and_flip",
        MechanismKind::ReportNoisyMax => "report_noisy_max",
    }
}

/// Pre-resolved registry handles for the serving path's counters
/// (registration is locked; incrementing is not).
#[derive(Debug)]
pub(crate) struct ServerMetrics {
    served: Arc<Counter>,
    refused: Arc<Counter>,
    failed: Arc<Counter>,
    /// Latency of requests that released; `sum() / served` is the mean.
    latency: Arc<Histogram>,
    verification_calls: Arc<Counter>,
    verifier_lookups: Arc<Counter>,
    verifier_cache_hits: Arc<Counter>,
    verifier_words_scanned: Arc<Counter>,
    verifier_bytes_scanned: Arc<Counter>,
    /// The same bytes, labelled by the process's dispatched kernel.
    kernel_bytes_scanned: Arc<Counter>,
    /// Served releases per mechanism, indexed by [`MechanismKind`].
    mechanisms: [Arc<Counter>; 3],
    deadline_exceeded: Arc<Counter>,
    shed: Arc<Counter>,
}

impl ServerMetrics {
    /// Claims the serving path's series in `registry`; a second claim on the
    /// same registry returns the same series, so the counts continue.
    pub(crate) fn register(registry: &MetricsRegistry) -> Self {
        let counter = |name, help| {
            registry.set_help(name, help);
            registry.counter(name, &[])
        };
        for (name, help) in [
            ("pcor_release_latency_nanos", "End-to-end latency of requests that released."),
            ("pcor_kernel_selected", "Dispatched fused-pass kernel (info gauge; value is 1)."),
            (
                "pcor_kernel_bytes_scanned",
                "Bitmap bytes scanned, labeled by the dispatched kernel.",
            ),
            ("pcor_mechanism_releases", "Releases per DP selection mechanism."),
        ] {
            registry.set_help(name, help);
        }
        // The kernel is chosen once per process, so its info gauge is set
        // here and never again.
        let kernel = pcor_data::kernel::selected().name();
        registry.gauge("pcor_kernel_selected", &[("kernel", kernel)]).set(1.0);
        let mechanism = |kind| {
            registry.counter("pcor_mechanism_releases", &[("mechanism", mechanism_name(kind))])
        };
        ServerMetrics {
            served: counter("pcor_releases_served", "Releases answered successfully."),
            refused: counter("pcor_releases_refused", "Releases refused for insufficient budget."),
            failed: counter("pcor_releases_failed", "Releases failed for non-budget reasons."),
            latency: registry.histogram("pcor_release_latency_nanos", &[]),
            verification_calls: counter("pcor_verifier_calls", "Fresh f_M verification calls."),
            verifier_lookups: counter("pcor_verifier_lookups", "Verifier lookups, memo hits too."),
            verifier_cache_hits: counter("pcor_verifier_cache_hits", "Verifier memo hits."),
            verifier_words_scanned: counter(
                "pcor_verifier_words_scanned",
                "Bitmap words the fused verification passes touched.",
            ),
            verifier_bytes_scanned: counter(
                "pcor_verifier_bytes_scanned",
                "Bitmap bytes the fused verification passes touched.",
            ),
            kernel_bytes_scanned: registry
                .counter("pcor_kernel_bytes_scanned", &[("kernel", kernel)]),
            mechanisms: [
                mechanism(MechanismKind::Exponential),
                mechanism(MechanismKind::PermuteAndFlip),
                mechanism(MechanismKind::ReportNoisyMax),
            ],
            deadline_exceeded: counter(
                "pcor_deadline_exceeded_total",
                "Requests answered DeadlineExceeded.",
            ),
            shed: counter("pcor_shed_total", "Requests shed at admission (Overloaded)."),
        }
    }

    /// Records a budget refusal.
    pub(crate) fn record_refused(&self) {
        self.refused.inc();
    }

    /// Records a request that ended as `DeadlineExceeded` — whether it was
    /// refused at task start (queued past its deadline) or cooperatively
    /// cancelled between verification calls mid-release.
    pub(crate) fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.inc();
    }

    /// Records a request shed at admission with `Overloaded`: the
    /// estimated queue wait already exceeded its deadline, so refusing
    /// immediately is strictly better than queueing work destined to time
    /// out.
    pub(crate) fn record_shed(&self) {
        self.shed.inc();
    }

    /// Records the verification engine's work for one served request
    /// (single or batch): fresh `f_M` calls, total evaluation lookups,
    /// memo-cache hits and the bitmap words the fused passes scanned,
    /// straight from the session's [`SessionStats`](pcor_core::SessionStats).
    pub(crate) fn record_engine(
        &self,
        verification_calls: u64,
        lookups: u64,
        cache_hits: u64,
        words_scanned: u64,
    ) {
        self.verification_calls.add(verification_calls);
        self.verifier_lookups.add(lookups);
        self.verifier_cache_hits.add(cache_hits);
        self.verifier_words_scanned.add(words_scanned);
        self.verifier_bytes_scanned.add(words_scanned * 8);
        self.kernel_bytes_scanned.add(words_scanned * 8);
    }

    /// Records which DP selection mechanism produced one served release
    /// (single or batch item), so operators can see the mechanism mix.
    pub(crate) fn record_mechanism(&self, mechanism: MechanismKind) {
        self.mechanisms[mechanism as usize].inc();
    }

    /// Records a served request with per-item resolution (a single is a
    /// one-item batch): `released` items count as served releases and
    /// `failed` items as failed releases (non-budget errors). The
    /// request's end-to-end latency is recorded once (when anything
    /// released), making `mean_latency` the *amortized* latency per served
    /// release.
    pub(crate) fn record_batch(&self, released: u64, failed: u64, latency: Duration) {
        self.served.add(released);
        self.failed.add(failed);
        if released > 0 {
            self.latency.record_duration(latency);
        }
    }

    /// Recorded latency per served release (zero before any release).
    pub(crate) fn mean_latency(&self) -> Duration {
        self.latency
            .sum()
            .checked_div(self.served.get())
            .map(Duration::from_nanos)
            .unwrap_or(Duration::ZERO)
    }

    /// A consistent-enough snapshot of the counters.
    pub(crate) fn snapshot(&self) -> ServerMetricsSnapshot {
        let [exponential, permute_and_flip, report_noisy_max] =
            self.mechanisms.each_ref().map(|counter| counter.get());
        ServerMetricsSnapshot {
            served: self.served.get(),
            refused: self.refused.get(),
            failed: self.failed.get(),
            mean_latency: self.mean_latency(),
            verification_calls: self.verification_calls.get(),
            verifier_lookups: self.verifier_lookups.get(),
            verifier_cache_hits: self.verifier_cache_hits.get(),
            verifier_words_scanned: self.verifier_words_scanned.get(),
            mechanism_releases: MechanismTally { exponential, permute_and_flip, report_noisy_max },
            deadline_exceeded: self.deadline_exceeded.get(),
            shed: self.shed.get(),
            pool_workers: 0,
            pool_queue_depth: 0,
            pool_tasks_executed: 0,
            pool_tasks_stolen: 0,
        }
    }
}

/// A point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerMetricsSnapshot {
    /// Releases served successfully.
    pub served: u64,
    /// Requests refused for budget reasons.
    pub refused: u64,
    /// Requests that failed for non-budget reasons.
    pub failed: u64,
    /// Mean end-to-end latency of served releases.
    pub mean_latency: Duration,
    /// Fresh `f_M` verification calls across all requests.
    pub verification_calls: u64,
    /// Total verifier evaluation requests (cache hits included).
    pub verifier_lookups: u64,
    /// Verifier evaluation requests answered from memo caches.
    pub verifier_cache_hits: u64,
    /// Bitmap words scanned by the verifiers' fused population passes —
    /// ×8 gives the bytes the verification hot loop actually touched.
    pub verifier_words_scanned: u64,
    /// Served releases broken down by the selection mechanism that produced
    /// them.
    pub mechanism_releases: MechanismTally,
    /// Requests answered `DeadlineExceeded` (refused past-deadline at task
    /// start, or cancelled cooperatively mid-release with a full refund).
    pub deadline_exceeded: u64,
    /// Requests shed at admission with `Overloaded` (estimated wait past
    /// the deadline); sheds never reserve or spend ε.
    pub shed: u64,
    /// Resident workers of the server's execution pool.
    pub pool_workers: usize,
    /// Tasks queued on the pool (not yet started) at snapshot time.
    pub pool_queue_depth: usize,
    /// Tasks the pool has picked up for execution (one per request).
    pub pool_tasks_executed: u64,
    /// Tasks executed by a thread other than the queue owner's —
    /// work-stealing activity between workers.
    pub pool_tasks_stolen: u64,
}

impl ServerMetricsSnapshot {
    /// Merges a pool health snapshot into the server counters (the server
    /// calls this; `ServerMetrics` alone cannot see the pool).
    #[must_use]
    pub fn with_pool(mut self, pool: PoolStats) -> Self {
        self.pool_workers = pool.workers;
        self.pool_queue_depth = pool.queue_depth;
        self.pool_tasks_executed = pool.tasks_executed;
        self.pool_tasks_stolen = pool.tasks_stolen;
        self
    }
    /// Fraction of verifier evaluation requests answered from memo caches
    /// (`0.0` before any lookup happened).
    pub fn verifier_cache_hit_rate(&self) -> f64 {
        if self.verifier_lookups == 0 {
            0.0
        } else {
            self.verifier_cache_hits as f64 / self.verifier_lookups as f64
        }
    }

    /// Average fresh `f_M` verification calls per served release (`0.0`
    /// before anything was served).
    pub fn evaluations_per_release(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.verification_calls as f64 / self.served as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_average() {
        let metrics = ServerMetrics::register(&MetricsRegistry::new());
        assert_eq!(metrics.snapshot().mean_latency, Duration::ZERO);
        metrics.record_batch(1, 0, Duration::from_millis(10));
        metrics.record_batch(1, 0, Duration::from_millis(30));
        metrics.record_refused();
        metrics.record_batch(0, 1, Duration::from_millis(5));
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.served, 2);
        assert_eq!(snapshot.refused, 1);
        assert_eq!(snapshot.failed, 1);
        assert_eq!(snapshot.mean_latency, Duration::from_millis(20));
    }

    #[test]
    fn pool_health_merges_into_the_snapshot() {
        let metrics = ServerMetrics::register(&MetricsRegistry::new());
        metrics.record_batch(1, 0, Duration::from_millis(1));
        let pool = PoolStats {
            workers: 4,
            queue_depth: 3,
            tasks_submitted: 10,
            tasks_executed: 7,
            tasks_stolen: 2,
            tasks_panicked: 0,
            worker_parks: 5,
        };
        let snapshot = metrics.snapshot().with_pool(pool);
        assert_eq!(snapshot.served, 1);
        assert_eq!(snapshot.pool_workers, 4);
        assert_eq!(snapshot.pool_queue_depth, 3);
        assert_eq!(snapshot.pool_tasks_executed, 7);
        assert_eq!(snapshot.pool_tasks_stolen, 2);
    }

    #[test]
    fn lifecycle_counters_track_deadlines_and_sheds() {
        let metrics = ServerMetrics::register(&MetricsRegistry::new());
        let empty = metrics.snapshot();
        assert_eq!((empty.deadline_exceeded, empty.shed), (0, 0));
        metrics.record_deadline_exceeded();
        metrics.record_deadline_exceeded();
        metrics.record_shed();
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.deadline_exceeded, 2);
        assert_eq!(snapshot.shed, 1);
        // Neither outcome counts as served or failed: they are their own
        // lifecycle terminal states.
        assert_eq!((snapshot.served, snapshot.failed), (0, 0));
    }

    #[test]
    fn mechanism_counters_report_the_release_mix() {
        let metrics = ServerMetrics::register(&MetricsRegistry::new());
        assert_eq!(metrics.snapshot().mechanism_releases, MechanismTally::default());
        metrics.record_mechanism(MechanismKind::Exponential);
        metrics.record_mechanism(MechanismKind::Exponential);
        metrics.record_mechanism(MechanismKind::PermuteAndFlip);
        metrics.record_mechanism(MechanismKind::ReportNoisyMax);
        let tally = metrics.snapshot().mechanism_releases;
        assert_eq!(tally.exponential, 2);
        assert_eq!(tally.permute_and_flip, 1);
        assert_eq!(tally.report_noisy_max, 1);
        assert_eq!(tally.total(), 4);
    }

    #[test]
    fn engine_counters_expose_cache_hit_rate_and_calls_per_release() {
        let metrics = ServerMetrics::register(&MetricsRegistry::new());
        let empty = metrics.snapshot();
        assert_eq!(empty.verifier_cache_hit_rate(), 0.0);
        assert_eq!(empty.evaluations_per_release(), 0.0);
        metrics.record_batch(1, 0, Duration::from_millis(1));
        metrics.record_batch(1, 0, Duration::from_millis(1));
        metrics.record_engine(30, 100, 70, 4096);
        metrics.record_engine(10, 100, 90, 1024);
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.verification_calls, 40);
        assert_eq!(snapshot.verifier_lookups, 200);
        assert_eq!(snapshot.verifier_cache_hits, 160);
        assert_eq!(snapshot.verifier_words_scanned, 5120);
        assert!((snapshot.verifier_cache_hit_rate() - 0.8).abs() < 1e-12);
        assert!((snapshot.evaluations_per_release() - 20.0).abs() < 1e-12);
    }
}
