//! Integration tests of the `pcor-service` subsystem through the `pcor`
//! facade: budget safety under concurrency, starting-context caching,
//! end-to-end serving against the synthetic salary workload, and the
//! serde wire format of requests and responses.

use pcor::prelude::*;
use pcor::service::find_serviceable_outlier;
use std::sync::Arc;

fn salary_server(
    grant: f64,
    workers: usize,
) -> (Server, Arc<DatasetRegistry>, Arc<BudgetLedger>, usize) {
    let registry = Arc::new(DatasetRegistry::new());
    let dataset = salary_dataset(&SalaryConfig::reduced().with_records(1_500)).unwrap();
    let entry = registry.register("salary", dataset);
    let record = find_serviceable_outlier(&entry, DetectorKind::ZScore, 400, 3)
        .expect("the synthetic workload plants outliers");
    let ledger = Arc::new(BudgetLedger::new(grant));
    let server = Server::start(
        ServerConfig::default().with_workers(workers).with_queue_capacity(64),
        Arc::clone(&registry),
        Arc::clone(&ledger),
    );
    (server, registry, ledger, record)
}

fn request(analyst: &str, record: usize, seed: u64) -> ReleaseRequest {
    ReleaseRequest::new(analyst, "salary", record)
        .with_detector(DetectorKind::ZScore)
        .with_algorithm(SamplingAlgorithm::Bfs)
        .with_epsilon(0.1)
        .with_samples(8)
        .with_seed(seed)
}

/// The ledger never over-spends, no matter how many concurrent requests
/// race on one analyst's account: with a grant of 0.5 and 0.1 per query,
/// exactly 5 of the 24 in-flight queries may succeed.
#[test]
fn ledger_never_over_spends_under_concurrent_load() {
    let (server, _registry, ledger, record) = salary_server(0.5, 4);
    let pending: Vec<_> = (0..24)
        .map(|seed| {
            server.submit_envelope(RequestEnvelope::single(request("alice", record, seed))).unwrap()
        })
        .collect();
    let mut served = 0usize;
    let mut refused = 0usize;
    for handle in pending {
        match handle.wait().map(|reply| reply.into_single().unwrap()) {
            Ok(response) => {
                served += 1;
                assert!(response.remaining_budget >= -1e-9);
                assert!(response.guarantee.epsilon <= 0.1 + 1e-12);
            }
            Err(ServiceError::BudgetExhausted { remaining, .. }) => {
                refused += 1;
                assert!(remaining < 0.1 + 1e-9);
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(served, 5, "grant 0.5 at eps = 0.1 per query fits exactly 5 queries");
    assert_eq!(refused, 19);
    let spent = ledger.spent("alice", "salary");
    assert!((spent - 0.5).abs() < 1e-9, "spent {spent} of the 0.5 grant");
    assert!(ledger.remaining("alice", "salary") < 1e-9);
    // The ledger snapshot agrees and shows no stuck reservations.
    let snapshot = ledger.snapshot();
    assert_eq!(snapshot.len(), 1);
    assert_eq!(snapshot[0].reserved, 0.0);
}

/// Budgets are metered per (analyst, dataset): one analyst exhausting their
/// grant does not affect the others.
#[test]
fn budgets_are_isolated_between_analysts() {
    let (server, _registry, ledger, record) = salary_server(0.2, 2);
    server.execute(request("alice", record, 1)).unwrap();
    server.execute(request("alice", record, 2)).unwrap();
    assert!(matches!(
        server.execute(request("alice", record, 3)),
        Err(ServiceError::BudgetExhausted { .. })
    ));
    let response = server.execute(request("bob", record, 4)).unwrap();
    assert!((response.remaining_budget - 0.1).abs() < 1e-9);
    assert!((ledger.remaining("bob", "salary") - 0.1).abs() < 1e-9);
}

/// Repeat queries against the same (dataset, record, detector) triple are
/// answered from the starting-context cache.
#[test]
fn cached_starting_contexts_hit_on_repeat_queries() {
    let (server, registry, _ledger, record) = salary_server(10.0, 2);
    let first = server.execute(request("alice", record, 1)).unwrap();
    assert!(!first.cache_hit, "the very first query must do the search");
    for seed in 2..6 {
        let response = server.execute(request("bob", record, seed)).unwrap();
        assert!(response.cache_hit, "repeat query (seed {seed}) must hit the cache");
    }
    let stats = registry.cache_stats();
    assert_eq!(stats.misses, 1, "one search for five queries");
    assert_eq!(stats.hits, 4);
    assert_eq!(stats.len, 1);
}

/// Same seed, same dataset, same knobs => byte-identical released context
/// (the service is replayable for audits), and the response survives a
/// JSON round trip.
#[test]
fn responses_are_replayable_and_serializable() {
    let (server, _registry, _ledger, record) = salary_server(10.0, 2);
    let a = server.execute(request("alice", record, 77)).unwrap();
    let b = server.execute(request("bob", record, 77)).unwrap();
    assert_eq!(a.context, b.context);
    assert_eq!(a.predicate, b.predicate);
    assert_eq!(a.utility, b.utility);

    let json = serde_json::to_string_pretty(&a).unwrap();
    let back: ReleaseResponse = serde_json::from_str(&json).unwrap();
    assert_eq!(back, a);
    let request_json = serde_json::to_string(&request("alice", record, 77)).unwrap();
    let parsed: ReleaseRequest = serde_json::from_str(&request_json).unwrap();
    assert_eq!(parsed.analyst, "alice");
    assert_eq!(parsed.seed, 77);
}

/// A failing release (record that is no contextual outlier) refunds its
/// reservation: the analyst can still spend the full grant afterwards.
#[test]
fn failed_releases_do_not_burn_budget() {
    let (server, registry, ledger, record) = salary_server(0.2, 1);
    // Find a record that is NOT serviceable: ask for a starting context for
    // records until one fails.
    let entry = registry.get("salary").unwrap();
    let detector = DetectorKind::ZScore.build();
    let utility = PopulationSizeUtility;
    let mut session = ReleaseSession::builder(entry.dataset(), detector.as_ref(), &utility).build();
    let non_outlier = (0..entry.dataset().len())
        .find(|&id| id != record && session.resolve_starting_context(id).is_err())
        .expect("most records are not contextual outliers");
    assert!(matches!(
        server.execute(request("alice", non_outlier, 5)),
        Err(ServiceError::Release(_))
    ));
    assert!((ledger.remaining("alice", "salary") - 0.2).abs() < 1e-12);
    // The full grant is still spendable.
    server.execute(request("alice", record, 6)).unwrap();
    server.execute(request("alice", record, 7)).unwrap();
    assert!(ledger.remaining("alice", "salary") < 1e-9);
}

/// The v1→v2 protocol bridge: a v1 envelope (serialized without any
/// mechanism field, as an old client would) is accepted and served with
/// the identical release a v2 envelope of the same seed gets, while a v2
/// envelope can select permute-and-flip end to end — with the same ε
/// accounting either way.
#[test]
fn v1_envelopes_round_trip_and_v2_selects_mechanisms() {
    use pcor::dp::MechanismKind;
    let (server, _registry, ledger, record) = salary_server(1.0, 1);

    // Wire bytes an old v1 client would send: no `mechanism` key at all.
    let v1_json = format!(
        r#"{{"v":1,"body":{{"Single":{{"analyst":"alice","dataset":"salary",
            "record_id":{record},"detector":"ZScore","algorithm":"Bfs",
            "epsilon":0.1,"samples":8,"seed":9}}}}}}"#
    );
    let v1: RequestEnvelope = serde_json::from_str(&v1_json).unwrap();
    assert_eq!(v1.v, 1);
    let v1_response = server.submit_envelope(v1).unwrap().wait().unwrap().into_single().unwrap();
    assert_eq!(v1_response.mechanism, MechanismKind::Exponential);

    // The same request through a current v2 envelope replays identically.
    let v2 = RequestEnvelope::single(request("bob", record, 9));
    assert_eq!(v2.v, pcor::service::PROTOCOL_VERSION);
    let v2_response = server.submit_envelope(v2).unwrap().wait().unwrap().into_single().unwrap();
    assert_eq!(v1_response.context, v2_response.context);
    assert_eq!(v1_response.utility, v2_response.utility);

    // v2 selects permute-and-flip end to end; the ε accounting is
    // mechanism-independent.
    let pf = RequestEnvelope::single(
        request("carol", record, 9).with_mechanism(MechanismKind::PermuteAndFlip),
    );
    let json = serde_json::to_string(&pf).unwrap();
    let pf: RequestEnvelope = serde_json::from_str(&json).unwrap();
    let pf_response = server.submit_envelope(pf).unwrap().wait().unwrap().into_single().unwrap();
    assert_eq!(pf_response.mechanism, MechanismKind::PermuteAndFlip);
    assert_eq!(pf_response.guarantee.mechanism, MechanismKind::PermuteAndFlip);
    assert_eq!(pf_response.guarantee.epsilon, v1_response.guarantee.epsilon);
    for analyst in ["alice", "bob", "carol"] {
        assert!((ledger.spent(analyst, "salary") - 0.1).abs() < 1e-9);
    }

    // A v1 envelope smuggling the v2 mechanism field is refused whole.
    let smuggled = RequestEnvelope::single(
        request("alice", record, 10).with_mechanism(MechanismKind::ReportNoisyMax),
    )
    .at_version(1);
    assert!(matches!(
        server.submit_envelope(smuggled).unwrap().wait(),
        Err(ServiceError::InvalidRequest(_))
    ));
    assert!((ledger.spent("alice", "salary") - 0.1).abs() < 1e-9);
}
