//! Lock-free server counters.

use pcor_dp::{MechanismKind, MechanismTally};
use pcor_runtime::PoolStats;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counters maintained by the worker pool.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    served: AtomicU64,
    refused: AtomicU64,
    failed: AtomicU64,
    total_latency_nanos: AtomicU64,
    /// Fresh `f_M` verification calls performed by the release engine.
    verification_calls: AtomicU64,
    /// Total verifier evaluation requests (memo-cache hits included).
    verifier_lookups: AtomicU64,
    /// Verifier evaluation requests answered from the memo cache.
    verifier_cache_hits: AtomicU64,
    /// Bitmap words scanned by fused population passes inside verifiers.
    verifier_words_scanned: AtomicU64,
    /// Served releases drawn through the Exponential mechanism.
    exponential_releases: AtomicU64,
    /// Served releases drawn through permute-and-flip.
    permute_and_flip_releases: AtomicU64,
    /// Served releases drawn through report-noisy-max.
    report_noisy_max_releases: AtomicU64,
    /// Requests answered `DeadlineExceeded` — refused past-deadline at
    /// task start or cooperatively cancelled mid-release.
    deadline_exceeded: AtomicU64,
    /// Requests shed at admission (`Overloaded`) because the estimated
    /// queue wait already exceeded their deadline.
    shed: AtomicU64,
}

impl ServerMetrics {
    /// Records a budget refusal.
    pub fn record_refused(&self) {
        self.refused.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request that ended as `DeadlineExceeded` — whether it was
    /// refused at task start (queued past its deadline) or cooperatively
    /// cancelled between verification calls mid-release.
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request shed at admission with `Overloaded`: the
    /// estimated queue wait already exceeded its deadline, so refusing
    /// immediately is strictly better than queueing work destined to time
    /// out.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the verification engine's work for one served request
    /// (single or batch): fresh `f_M` calls, total evaluation lookups and
    /// memo-cache hits, straight from the session's
    /// [`SessionStats`](pcor_core::SessionStats). Makes the incremental
    /// engine's effect — evaluations per release, cache hit rate and the
    /// bitmap words its fused passes actually scanned — observable from
    /// the server side.
    pub fn record_engine(
        &self,
        verification_calls: u64,
        lookups: u64,
        cache_hits: u64,
        words_scanned: u64,
    ) {
        self.verification_calls.fetch_add(verification_calls, Ordering::Relaxed);
        self.verifier_lookups.fetch_add(lookups, Ordering::Relaxed);
        self.verifier_cache_hits.fetch_add(cache_hits, Ordering::Relaxed);
        self.verifier_words_scanned.fetch_add(words_scanned, Ordering::Relaxed);
    }

    /// Records which DP selection mechanism produced one served release
    /// (single or batch item), so operators can see the mechanism mix.
    pub fn record_mechanism(&self, mechanism: MechanismKind) {
        let counter = match mechanism {
            MechanismKind::Exponential => &self.exponential_releases,
            MechanismKind::PermuteAndFlip => &self.permute_and_flip_releases,
            MechanismKind::ReportNoisyMax => &self.report_noisy_max_releases,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a served request with per-item resolution (a single is a
    /// one-item batch): `released` items count as served releases and
    /// `failed` items as failed releases (non-budget errors). The
    /// request's end-to-end latency is added once (when anything
    /// released), making `mean_latency` the *amortized* latency per served
    /// release.
    pub fn record_batch(&self, released: u64, failed: u64, latency: Duration) {
        self.served.fetch_add(released, Ordering::Relaxed);
        self.failed.fetch_add(failed, Ordering::Relaxed);
        if released > 0 {
            self.total_latency_nanos
                .fetch_add(latency.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        }
    }

    /// A consistent-enough snapshot of the counters.
    pub fn snapshot(&self) -> ServerMetricsSnapshot {
        let served = self.served.load(Ordering::Relaxed);
        let nanos = self.total_latency_nanos.load(Ordering::Relaxed);
        ServerMetricsSnapshot {
            served,
            refused: self.refused.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            mean_latency: nanos
                .checked_div(served)
                .map(Duration::from_nanos)
                .unwrap_or(Duration::ZERO),
            verification_calls: self.verification_calls.load(Ordering::Relaxed),
            verifier_lookups: self.verifier_lookups.load(Ordering::Relaxed),
            verifier_cache_hits: self.verifier_cache_hits.load(Ordering::Relaxed),
            verifier_words_scanned: self.verifier_words_scanned.load(Ordering::Relaxed),
            mechanism_releases: MechanismTally {
                exponential: self.exponential_releases.load(Ordering::Relaxed),
                permute_and_flip: self.permute_and_flip_releases.load(Ordering::Relaxed),
                report_noisy_max: self.report_noisy_max_releases.load(Ordering::Relaxed),
            },
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
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
    /// Tasks the pool has picked up for execution (requests, batch streams
    /// and fork-join shards alike).
    pub pool_tasks_executed: u64,
    /// Tasks executed by a thread other than the queue owner's —
    /// work-stealing activity between workers and fork-join scopes.
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
        let metrics = ServerMetrics::default();
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
        let metrics = ServerMetrics::default();
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
        let metrics = ServerMetrics::default();
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
        let metrics = ServerMetrics::default();
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
        let metrics = ServerMetrics::default();
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
