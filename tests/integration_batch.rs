//! Integration tests of the versioned batch-release protocol through the
//! `pcor` facade: verification-cost amortization against equivalent single
//! requests, per-record OCDP guarantees, ε accounting with per-item
//! refunds, and whole-batch refusals.

use pcor::prelude::*;
use pcor::service::find_serviceable_outlier;
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

/// The ISSUE's acceptance scenario: a 10-record batch issues strictly fewer
/// total `f_M` verification calls than 10 equivalent single-record requests,
/// while every record's OCDP guarantee (ε per record) is unchanged.
#[test]
fn a_batch_issues_strictly_fewer_verification_calls_than_equivalent_singles() {
    // Two servers with identical state so the comparison starts cold on
    // both sides.
    let (single_server, _, _, records) = salary_server(100.0, 2);
    let (batch_server, _, _, batch_records) = salary_server(100.0, 2);
    assert_eq!(records, batch_records, "both servers must see the same workload");

    // The paper's experiments repeatedly query the same dataset/detector
    // pair, so the 10-query mix revisits a small pool of records.
    let mix: Vec<usize> = (0..10).map(|i| records[i % records.len()]).collect();

    let single_responses: Vec<ReleaseResponse> = mix
        .iter()
        .enumerate()
        .map(|(i, &record_id)| {
            single_server
                .execute(
                    ReleaseRequest::new("alice", "salary", record_id)
                        .with_detector(DetectorKind::ZScore)
                        .with_epsilon(0.1)
                        .with_samples(10)
                        .with_seed(i as u64),
                )
                .expect("single release")
        })
        .collect();
    let single_calls: usize = single_responses.iter().map(|r| r.verification_calls).sum();

    let batch =
        BatchReleaseRequest::new("alice", "salary").with_detector(DetectorKind::ZScore).with_items(
            mix.iter()
                .enumerate()
                .map(|(i, &record_id)| {
                    BatchItem::new(record_id).with_epsilon(0.1).with_samples(10).with_seed(i as u64)
                })
                .collect(),
        );
    let batch_response = batch_server.execute_batch(batch).expect("batch release");

    assert_eq!(batch_response.items.len(), 10);
    assert_eq!(batch_response.released(), 10, "every item queries a genuine outlier");
    let item_calls: usize = batch_response
        .items
        .iter()
        .map(|item| item.outcome.released().unwrap().verification_calls)
        .sum();
    assert_eq!(
        batch_response.verification_calls, item_calls,
        "the batch total must equal the sum of its items"
    );
    assert!(
        batch_response.verification_calls < single_calls,
        "the shared session must amortize verification: batch {} vs singles {}",
        batch_response.verification_calls,
        single_calls
    );

    // Identical per-record OCDP guarantees: the batch changes computation,
    // never the privacy accounting.
    for (single, item) in single_responses.iter().zip(&batch_response.items) {
        let release = item.outcome.released().unwrap();
        assert_eq!(release.guarantee.epsilon, single.guarantee.epsilon);
        assert_eq!(
            release.guarantee.epsilon_per_invocation,
            single.guarantee.epsilon_per_invocation
        );
        assert!((item.epsilon - 0.1).abs() < 1e-12);
    }
    // And the same total ε was charged on both sides.
    assert!((batch_response.epsilon_committed - 1.0).abs() < 1e-9);
    assert_eq!(batch_response.epsilon_refunded, 0.0);
    assert!(
        (single_server.ledger().spent("alice", "salary")
            - batch_server.ledger().spent("alice", "salary"))
        .abs()
            < 1e-9
    );
}

/// Identical seeds and knobs produce identical contexts whether a record is
/// queried alone or inside a batch — replayability survives batching.
#[test]
fn batch_items_replay_identically_to_singles() {
    let (server, _, _, records) = salary_server(100.0, 2);
    let record_id = records[0];
    let single = server
        .execute(
            ReleaseRequest::new("alice", "salary", record_id)
                .with_detector(DetectorKind::ZScore)
                .with_epsilon(0.1)
                .with_samples(10)
                .with_seed(77),
        )
        .unwrap();
    let batch = BatchReleaseRequest::new("bob", "salary")
        .with_detector(DetectorKind::ZScore)
        .push(BatchItem::new(record_id).with_epsilon(0.1).with_samples(10).with_seed(77));
    let response = server.execute_batch(batch).unwrap();
    let release = response.items[0].outcome.released().unwrap();
    assert_eq!(release.context, single.context);
    assert_eq!(release.predicate, single.predicate);
    assert_eq!(release.utility, single.utility);
}

/// A single release is a one-item batch: for every mechanism, the same
/// query sent as a `Single` and as a one-item `Batch` to fresh servers
/// (same seed, same trace id) releases the same context at the same
/// utility and cost, commits the same ε and leaves the same audit trail.
#[test]
fn a_single_release_is_a_one_item_batch() {
    for mechanism in
        [MechanismKind::Exponential, MechanismKind::PermuteAndFlip, MechanismKind::ReportNoisyMax]
    {
        let (single_server, _, _, records) = salary_server(1.0, 1);
        let (batch_server, _, _, _) = salary_server(1.0, 1);
        let request = ReleaseRequest::new("alice", "salary", records[0])
            .with_detector(DetectorKind::ZScore)
            .with_epsilon(0.2)
            .with_samples(10)
            .with_seed(41)
            .with_mechanism(mechanism);
        let single = single_server
            .submit_envelope(RequestEnvelope::single(request.clone()).with_trace(5))
            .unwrap()
            .wait()
            .unwrap()
            .into_single()
            .unwrap();
        let batch = batch_server
            .submit_envelope(
                RequestEnvelope::batch(BatchReleaseRequest::from(request)).with_trace(5),
            )
            .unwrap()
            .wait()
            .unwrap()
            .into_batch()
            .unwrap();
        let release = batch.items[0].outcome.released().expect("the outlier releases");
        assert_eq!(release.context, single.context, "{mechanism:?}");
        assert_eq!(release.utility, single.utility, "{mechanism:?}");
        assert_eq!(release.mechanism, mechanism);
        assert_eq!(release.verification_calls, single.verification_calls, "{mechanism:?}");
        assert_eq!(batch.verification_calls, single.verification_calls, "{mechanism:?}");
        assert_eq!(batch.epsilon_committed, single.epsilon_spent, "{mechanism:?}");
        assert_eq!(batch.remaining_budget, single.remaining_budget, "{mechanism:?}");
        assert_eq!(
            batch_server.telemetry().audit().events(),
            single_server.telemetry().audit().events(),
            "{mechanism:?}: the audit trails must match event for event"
        );
    }
}

/// Per-item partial failure: failing items refund exactly their ε slice and
/// the ledger reflects it; the batch's one reservation never blocks the
/// analyst's other work afterwards.
#[test]
fn failed_batch_items_refund_their_epsilon_slice() {
    let (server, registry, ledger, records) = salary_server(1.0, 1);
    let entry = registry.get("salary").unwrap();
    let detector = DetectorKind::ZScore.build();
    let utility = PopulationSizeUtility;
    let mut session = ReleaseSession::builder(entry.dataset(), detector.as_ref(), &utility).build();
    let non_outlier = (0..entry.dataset().len())
        .find(|&id| !records.contains(&id) && session.resolve_starting_context(id).is_err())
        .expect("most records are not contextual outliers");

    let batch = BatchReleaseRequest::new("alice", "salary")
        .with_detector(DetectorKind::ZScore)
        .push(BatchItem::new(records[0]).with_epsilon(0.3).with_samples(10).with_seed(1))
        .push(BatchItem::new(non_outlier).with_epsilon(0.4).with_samples(10).with_seed(2))
        .push(BatchItem::new(records[0]).with_epsilon(0.3).with_samples(10).with_seed(3));
    let response = server.execute_batch(batch).unwrap();
    assert_eq!(response.released(), 2);
    assert_eq!(response.failed(), 1);
    assert!(matches!(response.items[1].outcome, ItemOutcome::Failed { .. }));
    assert!((response.epsilon_committed - 0.6).abs() < 1e-9);
    assert!((response.epsilon_refunded - 0.4).abs() < 1e-9);
    assert!((response.remaining_budget - 0.4).abs() < 1e-9);
    assert!((ledger.spent("alice", "salary") - 0.6).abs() < 1e-9);
    assert!((ledger.remaining("alice", "salary") - 0.4).abs() < 1e-9);
    // No reservation is stuck: the refunded slice is spendable immediately.
    let follow_up = server
        .execute(
            ReleaseRequest::new("alice", "salary", records[0])
                .with_detector(DetectorKind::ZScore)
                .with_epsilon(0.4)
                .with_samples(10)
                .with_seed(9),
        )
        .unwrap();
    assert!(follow_up.remaining_budget < 1e-9);
}

/// A batch whose summed ε exceeds the remaining grant is refused whole —
/// before any item runs and before any budget moves.
#[test]
fn over_budget_batches_are_refused_before_any_work() {
    let (server, registry, ledger, records) = salary_server(0.5, 1);
    let batch =
        BatchReleaseRequest::new("alice", "salary").with_detector(DetectorKind::ZScore).with_items(
            (0..6)
                .map(|i| BatchItem::new(records[0]).with_epsilon(0.1).with_samples(10).with_seed(i))
                .collect(),
        );
    match server.execute_batch(batch) {
        Err(ServiceError::BudgetExhausted { requested, remaining, .. }) => {
            assert!((requested - 0.6).abs() < 1e-9);
            assert!((remaining - 0.5).abs() < 1e-9);
        }
        other => panic!("expected a whole-batch refusal, got {other:?}"),
    }
    assert!((ledger.remaining("alice", "salary") - 0.5).abs() < 1e-12);
    assert_eq!(ledger.spent("alice", "salary"), 0.0);
    // No work ran: the starting-context cache saw no traffic.
    let stats = registry.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.len), (0, 0, 0));
}

/// Envelope round trip over the wire plus protocol-version enforcement
/// through the public facade.
#[test]
fn envelopes_serialize_and_unsupported_versions_are_refused() {
    let (server, _, _, records) = salary_server(10.0, 1);
    let batch = BatchReleaseRequest::new("alice", "salary")
        .with_detector(DetectorKind::ZScore)
        .push(BatchItem::new(records[0]).with_epsilon(0.1).with_samples(10).with_seed(5));
    let envelope = RequestEnvelope::batch(batch);
    let json = serde_json::to_string(&envelope).unwrap();
    let parsed: RequestEnvelope = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed, envelope);

    let response = server.submit_envelope(parsed).unwrap().wait().unwrap();
    let response_json = serde_json::to_string(&response).unwrap();
    let response_back: ResponseEnvelope = serde_json::from_str(&response_json).unwrap();
    assert_eq!(response_back, response);
    let batch_response = response.into_batch().expect("batch answer to a batch request");
    assert_eq!(batch_response.released(), 1);

    let mut wrong_version = envelope;
    wrong_version.v = 42;
    match server.submit_envelope(wrong_version).unwrap().wait() {
        Err(ServiceError::UnsupportedProtocol { requested: 42, .. }) => {}
        other => panic!("expected a protocol refusal, got {other:?}"),
    }
}

/// A deadline that trips inside a batch item's search stops the batch
/// there: the request counts once as deadline-exceeded, the cancelled item
/// is dropped from the reply rather than counted as failed, every
/// unprocessed ε slice is refunded, and the ledger matches the audit fold
/// with nothing left reserved.
#[test]
fn a_batch_deadline_tripping_mid_search_refunds_the_unprocessed_items() {
    // LOF on 8k records: one item's search takes about a second, far past
    // the 150 ms deadline.
    let registry = Arc::new(DatasetRegistry::new());
    let dataset = salary_dataset(&SalaryConfig::reduced().with_records(8_000)).unwrap();
    let entry = registry.register("salary", dataset);
    let record = find_serviceable_outlier(&entry, DetectorKind::ZScore, 400, 3).unwrap();
    let ledger = Arc::new(BudgetLedger::new(1.0));
    let server = Server::start(
        ServerConfig::default().with_workers(1),
        Arc::clone(&registry),
        Arc::clone(&ledger),
    );
    let batch =
        BatchReleaseRequest::new("alice", "salary").with_detector(DetectorKind::Lof).with_items(
            (0..2)
                .map(|seed| {
                    BatchItem::new(record).with_epsilon(0.2).with_samples(200).with_seed(seed)
                })
                .collect(),
        );
    let envelope = RequestEnvelope::batch(batch).with_deadline_ms(150);
    let response = server.submit_envelope(envelope).unwrap().wait().unwrap().into_batch().unwrap();

    assert!(response.items.is_empty(), "the first item's search outlives the deadline");
    assert_eq!(response.epsilon_committed, 0.0);
    assert!((response.epsilon_refunded - 0.4).abs() < 1e-12, "both slices come back");
    let metrics = server.metrics();
    assert_eq!(metrics.deadline_exceeded, 1, "a tripped deadline counts once per request");
    assert_eq!(metrics.failed, 0, "a cancelled item is not a failed one");
    assert_eq!(ledger.spent("alice", "salary"), 0.0);
    assert_eq!(ledger.remaining("alice", "salary"), 1.0);
    let folded = server.telemetry().audit().fold();
    for entry in ledger.snapshot() {
        assert_eq!(entry.reserved, 0.0);
        let account = &folded[&(entry.analyst.clone(), entry.dataset.clone())];
        assert_eq!(account.committed, entry.spent);
        assert!(account.outstanding().abs() < 1e-12);
    }
}
