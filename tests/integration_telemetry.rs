//! End-to-end observability acceptance tests through the `pcor` facade:
//! one batch release submitted via `Server::submit_envelope` must produce
//! a causally linked trace (server → ledger → session → verifier),
//! non-empty stage-latency histograms with sane quantiles, and a balanced
//! privacy-budget audit sequence for its ε — all visible in a single
//! `render_prometheus()` scrape.

use pcor::prelude::*;
use pcor::service::find_serviceable_outlier;
use pcor::telemetry::{SpanId, SpanRecord, STAGE_DURATION_METRIC};
use std::sync::Arc;

/// A salary server plus a pool of serviceable (outlier) records.
fn salary_server(
    grant: f64,
    workers: usize,
) -> (Server, Arc<DatasetRegistry>, Arc<BudgetLedger>, Vec<usize>) {
    let registry = Arc::new(DatasetRegistry::new());
    let dataset = salary_dataset(&SalaryConfig::reduced().with_records(1_500)).unwrap();
    let entry = registry.register("salary", dataset);
    let records: Vec<usize> = (0..3)
        .filter_map(|i| find_serviceable_outlier(&entry, DetectorKind::ZScore, 400, 3 + i))
        .collect();
    assert!(!records.is_empty(), "the synthetic workload plants outliers");
    let ledger = Arc::new(BudgetLedger::new(grant));
    let server = Server::start(
        ServerConfig::default().with_workers(workers).with_queue_capacity(64),
        Arc::clone(&registry),
        Arc::clone(&ledger),
    );
    (server, registry, ledger, records)
}

fn find_span<'a>(spans: &'a [SpanRecord], stage: &str) -> &'a SpanRecord {
    spans
        .iter()
        .find(|span| span.stage == stage)
        .unwrap_or_else(|| panic!("trace must contain a `{stage}` span"))
}

/// Every Prometheus exposition line must parse: comment lines start with
/// `#`, sample lines end in one float value.
fn assert_prometheus_parses(text: &str) {
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(!series.is_empty(), "sample line has a series name: {line}");
        assert!(value.parse::<f64>().is_ok(), "sample value must be a float: {line}");
    }
}

/// The ISSUE's acceptance scenario: a single batch release through
/// `Server::submit_envelope` is observable end to end — trace, latency
/// histograms, audit events and metrics, in one scrape.
#[test]
fn a_batch_release_is_fully_observable_in_one_scrape() {
    const TRACE: u64 = 0x00C0_FFEE;
    let (server, _registry, ledger, records) = salary_server(10.0, 1);
    let batch =
        BatchReleaseRequest::new("alice", "salary").with_detector(DetectorKind::ZScore).with_items(
            records
                .iter()
                .enumerate()
                .map(|(i, &record_id)| {
                    BatchItem::new(record_id).with_epsilon(0.1).with_samples(10).with_seed(i as u64)
                })
                .collect(),
        );
    let total_epsilon = batch.total_epsilon();
    let envelope = RequestEnvelope::batch(batch).with_trace(TRACE);
    let response = server
        .submit_envelope(envelope)
        .expect("the server accepts the envelope")
        .wait()
        .expect("the batch succeeds")
        .into_batch()
        .expect("a batch envelope yields a batch response");
    assert!(response.released() >= 1, "the workload releases at least one outlier");

    let telemetry = server.telemetry();

    // --- Trace: >= 4 causally linked spans under the client's trace id. ---
    let spans = telemetry.sink().trace(TraceId(TRACE));
    assert!(
        spans.len() >= 4,
        "a release must produce at least 4 spans, got {}: {spans:?}",
        spans.len()
    );
    let root = find_span(&spans, "server");
    assert_eq!(root.parent, None, "the server span is the trace root");
    let reserve = find_span(&spans, "ledger.reserve");
    assert_eq!(reserve.parent, Some(root.span), "the ledger reserve hangs off the server span");
    let release = find_span(&spans, "session.release");
    assert_eq!(release.parent, Some(root.span), "the session release hangs off the server span");
    let verify = find_span(&spans, "session.verify");
    assert_eq!(verify.parent, Some(release.span), "verification hangs off the session release");
    // Span ids are unique within the trace, and every parent pointer
    // resolves to a recorded span: the tree is closed.
    for span in &spans {
        assert_eq!(span.trace, TraceId(TRACE));
        if let Some(parent) = span.parent {
            assert!(
                spans.iter().any(|candidate| candidate.span == parent),
                "span `{}` has a dangling parent {parent:?}",
                span.stage
            );
        }
    }
    let ids: std::collections::HashSet<SpanId> = spans.iter().map(|span| span.span).collect();
    assert_eq!(ids.len(), spans.len(), "span ids are unique within the trace");
    let rendered = TraceSink::render(&spans);
    assert!(rendered.contains("server") && rendered.contains("session.verify"), "{rendered}");

    // --- Histograms: every instrumented stage recorded wall time. ---
    let registry = telemetry.registry();
    for stage in ["server", "ledger.reserve", "session.release", "session.verify"] {
        let labels = [("stage", stage)];
        assert!(
            registry.contains(STAGE_DURATION_METRIC, &labels),
            "stage `{stage}` must have a latency histogram"
        );
        let histogram = registry.histogram(STAGE_DURATION_METRIC, &labels);
        assert!(histogram.count() >= 1, "stage `{stage}` recorded no samples");
        let (p50, p95, p99) =
            (histogram.quantile(0.5), histogram.quantile(0.95), histogram.quantile(0.99));
        assert!(p50 > 0, "stage `{stage}` p50 must be positive");
        assert!(p50 <= p95 && p95 <= p99, "stage `{stage}` quantiles must be monotone");
    }

    // --- Audit: the batch's ε balances event for event. ---
    let events: Vec<BudgetEvent> =
        telemetry.audit().events().into_iter().filter(|event| event.trace() == TRACE).collect();
    assert!(!events.is_empty(), "the release must leave audit events under its trace");
    let mut reserved = 0.0;
    let mut committed = 0.0;
    let mut refunded = 0.0;
    for event in &events {
        assert_eq!(event.account(), ("alice", "salary"));
        match event {
            BudgetEvent::Reserved { epsilon, .. } => reserved += epsilon,
            BudgetEvent::Committed { epsilon, .. } => committed += epsilon,
            BudgetEvent::Refunded { epsilon, .. } => refunded += epsilon,
            BudgetEvent::Refused { .. } => panic!("nothing is refused under a 10.0 grant"),
        }
    }
    assert!((reserved - total_epsilon).abs() < 1e-9, "the whole batch ε reserves up front");
    assert!(
        (committed + refunded - reserved).abs() < 1e-9,
        "every reserved ε must resolve: reserved {reserved}, committed {committed}, \
         refunded {refunded}"
    );
    assert!((committed - ledger.spent("alice", "salary")).abs() < 1e-12);
    // Events are totally ordered by the logical clock, and the reservation
    // precedes every resolution.
    for pair in events.windows(2) {
        assert!(pair[0].seq() < pair[1].seq(), "audit events are totally ordered");
    }
    assert!(matches!(events[0], BudgetEvent::Reserved { .. }));
    // The accountant's view replays exactly from the log.
    let accounts = telemetry.audit().fold();
    let account = &accounts[&("alice".to_string(), "salary".to_string())];
    assert!(account.outstanding().abs() < 1e-9, "no ε may leak once the batch resolved");

    // --- One scrape carries all of it. ---
    let scrape = telemetry.render_prometheus();
    assert_prometheus_parses(&scrape);
    for name in [
        "pcor_releases_served",
        "pcor_verifier_calls",
        "pcor_verifier_words_scanned",
        "pcor_verifier_bytes_scanned",
        "pcor_mechanism_releases",
        "pcor_pool_workers",
        "pcor_pool_queue_depth",
        "pcor_pool_tasks_executed",
        "pcor_pool_worker_parks",
        "pcor_cache_hits",
        "pcor_cache_evictions",
        "pcor_budget_spent_epsilon",
        "pcor_budget_remaining_epsilon",
        "pcor_kernel_selected",
        "pcor_kernel_bytes_scanned",
        STAGE_DURATION_METRIC,
    ] {
        assert!(scrape.contains(name), "scrape must carry `{name}`:\n{scrape}");
    }
    // The kernel info gauge names the dispatched fused-pass kernel.
    let kernel = pcor::data::kernel::selected().name();
    assert!(
        scrape.contains(&format!("pcor_kernel_selected{{kernel=\"{kernel}\"}} 1")),
        "scrape must name the dispatched kernel:\n{scrape}"
    );
    // Spot-check collector values against their programmatic sources.
    let metrics = server.metrics();
    let served_line = scrape
        .lines()
        .find(|line| line.starts_with("pcor_releases_served "))
        .expect("served sample");
    let served: f64 = served_line.rsplit_once(' ').unwrap().1.parse().unwrap();
    assert!((served - metrics.served as f64).abs() < f64::EPSILON);
    assert!(metrics.verifier_words_scanned > 0, "the verifier meters its fused passes");
    assert!(scrape.contains(r#"pcor_mechanism_releases{mechanism="exponential"}"#));
    assert!(scrape.contains(r#"analyst="alice""#) && scrape.contains(r#"dataset="salary""#));

    // Monotone series are counters, and each scraped value is the one
    // `Server::metrics()` reads: both come from the same registry handle.
    for name in [
        "pcor_releases_served",
        "pcor_releases_refused",
        "pcor_releases_failed",
        "pcor_verifier_calls",
        "pcor_verifier_lookups",
        "pcor_verifier_cache_hits",
        "pcor_verifier_words_scanned",
        "pcor_verifier_bytes_scanned",
        "pcor_kernel_bytes_scanned",
        "pcor_mechanism_releases",
        "pcor_deadline_exceeded_total",
        "pcor_shed_total",
    ] {
        assert_type(&scrape, name, "counter");
    }
    assert_type(&scrape, "pcor_release_latency_nanos", "histogram");
    let tally = metrics.mechanism_releases;
    for (series, expected) in [
        ("pcor_releases_served", metrics.served),
        ("pcor_releases_refused", metrics.refused),
        ("pcor_releases_failed", metrics.failed),
        ("pcor_verifier_calls", metrics.verification_calls),
        ("pcor_verifier_lookups", metrics.verifier_lookups),
        ("pcor_verifier_cache_hits", metrics.verifier_cache_hits),
        ("pcor_verifier_words_scanned", metrics.verifier_words_scanned),
        ("pcor_verifier_bytes_scanned", metrics.verifier_words_scanned * 8),
        (r#"pcor_mechanism_releases{mechanism="exponential"}"#, tally.exponential),
        (r#"pcor_mechanism_releases{mechanism="permute_and_flip"}"#, tally.permute_and_flip),
        (r#"pcor_mechanism_releases{mechanism="report_noisy_max"}"#, tally.report_noisy_max),
        ("pcor_deadline_exceeded_total", metrics.deadline_exceeded),
        ("pcor_shed_total", metrics.shed),
    ] {
        assert_eq!(sample(&scrape, series), expected as f64, "scraped `{series}`");
    }
    assert_eq!(
        sample(&scrape, "pcor_release_latency_nanos_count"),
        1.0,
        "one request released, so one latency observation"
    );

    // The journal's counts are counters on a durable ledger's registry.
    let dir = std::env::temp_dir().join(format!("pcor-telemetry-types-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = DurableLedger::open(WalConfig::at(&dir), BudgetLedger::new(1.0)).unwrap();
    let scrape = durable.telemetry().render_prometheus();
    for name in [
        "pcor_wal_journal_errors",
        "pcor_retries_total",
        "pcor_breaker_trips",
        "pcor_wal_warm_seeded",
    ] {
        assert_type(&scrape, name, "counter");
    }
    assert_eq!(sample(&scrape, r#"pcor_retries_total{outcome="exhausted"}"#), 0.0);
    drop(durable);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Asserts the scrape declares `name` with the Prometheus type `kind`.
fn assert_type(scrape: &str, name: &str, kind: &str) {
    let header = format!("# TYPE {name} {kind}");
    assert!(scrape.lines().any(|line| line == header), "scrape must declare `{header}`:\n{scrape}");
}

/// The value of the sample line for exactly `series` (name plus labels).
fn sample(scrape: &str, series: &str) -> f64 {
    scrape
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("scrape must carry `{series}`:\n{scrape}"))
        .parse()
        .unwrap()
}

/// Client-supplied trace ids are adopted verbatim; envelopes without one
/// get a freshly minted id (never 0, the wire's "absent" sentinel).
#[test]
fn trace_ids_are_adopted_from_the_envelope_and_minted_when_absent() {
    let (server, _registry, _ledger, records) = salary_server(5.0, 1);
    let request = |seed: u64| {
        ReleaseRequest::new("bob", "salary", records[0])
            .with_detector(DetectorKind::ZScore)
            .with_epsilon(0.2)
            .with_samples(10)
            .with_seed(seed)
    };

    let traced = RequestEnvelope::single(request(1)).with_trace(42);
    server.submit_envelope(traced).unwrap().wait().unwrap();
    let adopted = server.telemetry().sink().trace(TraceId(42));
    assert!(adopted.iter().any(|span| span.stage == "server"), "trace id 42 must be adopted");

    let untraced = RequestEnvelope::single(request(2));
    assert_eq!(untraced.trace, None, "v1-style envelopes carry no trace id");
    server.submit_envelope(untraced).unwrap().wait().unwrap();
    let minted: Vec<SpanRecord> = server
        .telemetry()
        .sink()
        .snapshot()
        .into_iter()
        .filter(|span| span.stage == "server" && span.trace != TraceId(42))
        .collect();
    assert!(!minted.is_empty(), "an untraced envelope gets a minted trace id");
    assert!(minted.iter().all(|span| span.trace.0 != 0), "0 is reserved for `absent`");
}

/// A refused release is observable too: a `Refused` audit event under the
/// request's trace, and the refusal counted in the scrape.
#[test]
fn refusals_surface_in_the_audit_log_and_the_scrape() {
    let (server, _registry, ledger, records) = salary_server(0.1, 1);
    let envelope = RequestEnvelope::single(
        ReleaseRequest::new("carol", "salary", records[0])
            .with_detector(DetectorKind::ZScore)
            .with_epsilon(0.5)
            .with_samples(10),
    )
    .with_trace(7);
    match server.submit_envelope(envelope).unwrap().wait() {
        Err(ServiceError::BudgetExhausted { requested, remaining, .. }) => {
            assert!((requested - 0.5).abs() < 1e-9);
            assert!((remaining - 0.1).abs() < 1e-9);
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    let events = server.telemetry().audit().events();
    let refusal = events
        .iter()
        .find(|event| event.trace() == 7)
        .expect("the refusal must land in the audit log under its trace");
    match refusal {
        BudgetEvent::Refused { requested, remaining, .. } => {
            assert!((requested - 0.5).abs() < 1e-9);
            assert!((remaining - 0.1).abs() < 1e-9);
        }
        other => panic!("expected a Refused event, got {other:?}"),
    }
    assert_eq!(ledger.spent("carol", "salary"), 0.0);
    let scrape = server.telemetry().render_prometheus();
    assert!(scrape.contains("pcor_releases_refused 1"), "{scrape}");
}
