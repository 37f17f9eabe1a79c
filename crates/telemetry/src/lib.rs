//! `pcor-telemetry` — the unified observability substrate for the PCOR
//! workspace.
//!
//! The crate bundles three capabilities behind one aggregating handle,
//! [`Telemetry`]:
//!
//! 1. **Metrics** ([`MetricsRegistry`]): lock-cheap atomic [`Counter`]s,
//!    f64 [`Gauge`]s and log-linear [`Histogram`]s (p50/p95/p99 with
//!    bounded relative error, allocation-free recording), exported as
//!    Prometheus text ([`MetricsRegistry::render_prometheus`]) or a JSON
//!    snapshot ([`MetricsRegistry::snapshot_json`]). Handles are
//!    `Arc`-shared: look a series up once, then record with nothing but
//!    atomic ops.
//! 2. **Tracing** ([`TraceSink`], [`SpanGuard`]): a per-release
//!    [`TraceId`] is threaded through every layer; each layer opens a
//!    span naming its stage, and finished spans record wall time into the
//!    `pcor_stage_duration_nanos{stage=…}` histogram and land in a bounded
//!    ring buffer that tests and examples drain and pretty-print.
//! 3. **Budget auditing** ([`AuditLog`], [`BudgetEvent`]): an append-only,
//!    serializable record of every ε reserve/commit/refund/refusal with a
//!    logical clock. The service's ledger balances are the fold of this
//!    log, and its durable ledger journals the same events to a WAL.
//!
//! Everything is hand-rolled on `std` — no network, no external crates —
//! matching the workspace's vendored-offline policy.
//!
//! # Counting at the source, and collectors
//!
//! A layer that counts its own events registers its series once and keeps
//! the returned handles: the serving path, the journal and the network
//! reactor increment counters and histograms where each event happens, and
//! read their programmatic snapshots (`Server::metrics()` and friends)
//! back from those same handles. Monotone values are therefore
//! [`Counter`]s, and a scrape always agrees with the snapshot.
//!
//! A *collector* ([`Telemetry::register_collector`]) is only for state
//! kept by a crate that does not depend on this one, such as the worker
//! pool's and the dataset caches' own counters. Collectors run immediately
//! before every export and copy those snapshots into gauges.

mod audit;
mod metrics;
mod trace;

pub use audit::{AuditAccount, AuditLog, BudgetEvent, SeqError, SeqErrorKind};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use trace::{SpanGuard, SpanId, SpanRecord, TraceId, TraceSink, STAGE_DURATION_METRIC};

use std::sync::{Arc, Mutex};

type Collector = Box<dyn Fn(&MetricsRegistry) + Send + Sync>;

/// The aggregating observability handle: one registry, one trace sink, one
/// audit log, shared by every layer of a serving stack.
///
/// Cloning is cheap (`Arc` all the way down); a [`crate::Telemetry`] built
/// by the server is handed to the ledger, the sessions and the examples
/// alike.
#[derive(Clone)]
pub struct Telemetry {
    registry: Arc<MetricsRegistry>,
    sink: Arc<TraceSink>,
    audit: Arc<AuditLog>,
    collectors: Arc<Mutex<Vec<Collector>>>,
}

impl Telemetry {
    /// Creates a fresh telemetry bundle with a default-capacity trace
    /// sink.
    pub fn new() -> Self {
        Self::with_trace_capacity(TraceSink::DEFAULT_CAPACITY)
    }

    /// Creates a bundle whose trace ring buffer retains at most
    /// `capacity` finished spans.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Telemetry {
            registry: Arc::new(MetricsRegistry::new()),
            sink: Arc::new(TraceSink::new(capacity)),
            audit: Arc::new(AuditLog::new()),
            collectors: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Creates a bundle around an existing audit log — the WAL recovery
    /// path, where the log (with its original seqs and clock) is rebuilt
    /// from replayed events before any telemetry exists to hold it.
    pub fn with_audit(audit: AuditLog) -> Self {
        Telemetry { audit: Arc::new(audit), ..Self::new() }
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The shared trace sink.
    pub fn sink(&self) -> &Arc<TraceSink> {
        &self.sink
    }

    /// The shared budget audit log.
    pub fn audit(&self) -> &Arc<AuditLog> {
        &self.audit
    }

    /// Opens a span for `stage` within `trace`, parented to `parent`.
    ///
    /// The returned guard records its wall time and lands in the sink when
    /// dropped; pass [`SpanGuard::id`] as the `parent` of child spans.
    pub fn span(&self, trace: TraceId, parent: Option<SpanId>, stage: &'static str) -> SpanGuard {
        SpanGuard::start(Arc::clone(&self.sink), Arc::clone(&self.registry), trace, parent, stage)
    }

    /// Registers a closure that refreshes registry series from an external
    /// snapshot. Collectors run, in registration order, at the start of
    /// every [`Telemetry::render_prometheus`] / [`Telemetry::snapshot_json`]
    /// call.
    pub fn register_collector<F>(&self, collector: F)
    where
        F: Fn(&MetricsRegistry) + Send + Sync + 'static,
    {
        self.collectors.lock().expect("collector list poisoned").push(Box::new(collector));
    }

    /// Runs every registered collector against the registry.
    pub fn collect(&self) {
        let collectors = self.collectors.lock().expect("collector list poisoned");
        for collector in collectors.iter() {
            collector(&self.registry);
        }
    }

    /// Runs the collectors, then renders the registry in Prometheus text
    /// exposition format.
    pub fn render_prometheus(&self) -> String {
        self.collect();
        self.registry.render_prometheus()
    }

    /// Runs the collectors, then renders the registry as pretty JSON.
    pub fn snapshot_json(&self) -> String {
        self.collect();
        self.registry.snapshot_json()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("spans_buffered", &self.sink.len())
            .field("audit_events", &self.audit.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_bundle_wires_spans_metrics_and_audit_together() {
        let telemetry = Telemetry::new();
        let trace = TraceId::next();
        {
            let root = telemetry.span(trace, None, "server");
            let _child = telemetry.span(trace, Some(root.id()), "ledger.reserve");
        }
        telemetry.audit().append(BudgetEvent::Committed {
            seq: 0,
            analyst: "alice".into(),
            dataset: "toy".into(),
            epsilon: 0.5,
            mechanism: None,
            trace: trace.0,
        });
        assert_eq!(telemetry.sink().len(), 2);
        assert_eq!(telemetry.audit().len(), 1);
        let text = telemetry.render_prometheus();
        assert!(text.contains(STAGE_DURATION_METRIC));
    }

    #[test]
    fn collectors_refresh_gauges_before_every_export() {
        let telemetry = Telemetry::new();
        let source = Arc::new(std::sync::atomic::AtomicU64::new(3));
        let seen = Arc::clone(&source);
        telemetry.register_collector(move |registry| {
            let value = seen.load(std::sync::atomic::Ordering::SeqCst);
            registry.gauge("pcor_test_depth", &[]).set(value as f64);
        });
        let first = telemetry.render_prometheus();
        assert!(first.contains("pcor_test_depth 3"));
        source.store(9, std::sync::atomic::Ordering::SeqCst);
        let second = telemetry.render_prometheus();
        assert!(second.contains("pcor_test_depth 9"));
    }

    #[test]
    fn clones_share_state() {
        let telemetry = Telemetry::new();
        let clone = telemetry.clone();
        clone.registry().counter("pcor_shared_total", &[]).inc();
        assert_eq!(telemetry.registry().counter("pcor_shared_total", &[]).get(), 1);
    }
}
