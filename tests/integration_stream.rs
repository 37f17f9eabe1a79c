//! Integration tests of the streaming batch path and the shared runtime
//! pool through the `pcor` facade: items surface before the batch
//! completes, per-item ε accounting is identical to the blocking batch
//! protocol, and a poisoned pool task neither wedges the pool nor leaks a
//! ledger reservation.

use pcor::prelude::*;
use pcor::service::find_serviceable_outlier;
use std::sync::Arc;
use std::time::Instant;

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

fn mixed_batch(records: &[usize], epsilon: f64) -> BatchReleaseRequest {
    // Revisit a small record pool, like the paper's repeated experiments.
    let mix: Vec<usize> = (0..6).map(|i| records[i % records.len()]).collect();
    BatchReleaseRequest::new("alice", "salary").with_detector(DetectorKind::ZScore).with_items(
        mix.iter()
            .enumerate()
            .map(|(i, &record_id)| {
                BatchItem::new(record_id).with_epsilon(epsilon).with_samples(10).with_seed(i as u64)
            })
            .collect(),
    )
}

/// The ISSUE's streaming acceptance scenario: a batch submitted through
/// a `PendingResponse` yields its first completed item strictly before the batch
/// finishes, and the final summary's ε accounting matches the blocking
/// batch protocol item for item.
#[test]
fn streamed_batches_yield_early_and_account_like_blocking_batches() {
    let (stream_server, _, stream_ledger, records) = salary_server(100.0, 1);
    let (block_server, _, block_ledger, block_records) = salary_server(100.0, 1);
    assert_eq!(records, block_records, "both servers must see the same workload");

    let mut stream =
        stream_server.submit_envelope(RequestEnvelope::batch(mixed_batch(&records, 0.1))).unwrap();
    let first = stream.next_item().expect("the stream must yield a first item");
    assert!(first.outcome.is_released(), "the first mixed item queries a genuine outlier");
    // The event channel is bounded at one item, so when the consumer holds
    // item 0 of six, the serving task cannot have emitted the summary:
    // this observation is deterministic, not a timing accident.
    assert!(!stream.is_finished(), "items must surface before the batch completes");

    let mut streamed_items = vec![first];
    while let Some(item) = stream.next_item() {
        streamed_items.push(item);
    }
    let streamed = stream.wait().expect("stream summary").into_batch().unwrap();

    let blocking = block_server.execute_batch(mixed_batch(&records, 0.1)).expect("blocking batch");

    // Per-item results and ε accounting are identical to the PR 2 batch
    // semantics: same outcomes, same commits, same refunds, same ledger.
    assert_eq!(streamed_items, blocking.items);
    assert_eq!(streamed.items, blocking.items);
    assert_eq!(streamed.epsilon_committed, blocking.epsilon_committed);
    assert_eq!(streamed.epsilon_refunded, blocking.epsilon_refunded);
    assert_eq!(streamed.remaining_budget, blocking.remaining_budget);
    assert_eq!(
        stream_ledger.spent("alice", "salary"),
        block_ledger.spent("alice", "salary"),
        "streaming must not change what the analyst is charged"
    );
    for (streamed_item, blocking_item) in streamed.items.iter().zip(&blocking.items) {
        let (a, b) =
            (streamed_item.outcome.released().unwrap(), blocking_item.outcome.released().unwrap());
        assert_eq!(a.guarantee, b.guarantee, "per-record OCDP guarantees must be unchanged");
    }
}

/// Over-budget streamed batches are refused whole through the stream's
/// summary, before any work.
#[test]
fn streamed_batches_respect_the_summed_epsilon_reservation() {
    let (server, registry, ledger, records) = salary_server(0.5, 1);
    // 6 x 0.1 = 0.6 > 0.5: refused whole.
    let stream =
        server.submit_envelope(RequestEnvelope::batch(mixed_batch(&records, 0.1))).unwrap();
    match stream.wait() {
        Err(ServiceError::BudgetExhausted { requested, remaining, .. }) => {
            assert!((requested - 0.6).abs() < 1e-9);
            assert!((remaining - 0.5).abs() < 1e-9);
        }
        other => panic!("expected a whole-batch refusal, got {other:?}"),
    }
    assert!((ledger.remaining("alice", "salary") - 0.5).abs() < 1e-12);
    let stats = registry.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 0), "a refused stream must do no search work");
}

/// The ISSUE's pool panic-isolation scenario: a poisoned task on the
/// server's own pool is contained — its ledger reservation refunds via the
/// drop guard, the worker survives, and the server keeps serving.
#[test]
fn a_poisoned_pool_task_neither_wedges_the_pool_nor_leaks_a_reservation() {
    let (server, _, ledger, records) = salary_server(1.0, 1);
    let pool = Arc::clone(server.pool());

    // A task that reserves budget and then dies before resolving it.
    let poisoned_ledger = Arc::clone(&ledger);
    let handle = pool.spawn(move || {
        let _reservation = poisoned_ledger.reserve("mallory", "salary", 0.4).unwrap();
        panic!("worker poisoned mid-request");
    });
    match handle.join() {
        Err(pcor::runtime::JoinError::Panicked(msg)) => {
            assert!(msg.contains("poisoned"), "the panic payload survives: {msg}")
        }
        other => panic!("expected an isolated panic, got {other:?}"),
    }

    // The reservation refunded through its drop guard during unwinding...
    assert!((ledger.remaining("mallory", "salary") - 1.0).abs() < 1e-12);
    assert_eq!(ledger.spent("mallory", "salary"), 0.0);
    // ...the pool survived the poison (the same lone worker keeps going)...
    assert!(pool.stats().tasks_panicked >= 1);
    assert_eq!(pool.spawn(|| 21 + 21).join().unwrap(), 42);
    // ...and the server still serves real releases on that pool.
    let response = server
        .execute(
            ReleaseRequest::new("alice", "salary", records[0])
                .with_detector(DetectorKind::ZScore)
                .with_epsilon(0.2)
                .with_samples(10)
                .with_seed(7),
        )
        .expect("the server must keep serving after an isolated panic");
    assert!(response.utility > 0.0);

    // No reservation may linger anywhere once everything resolved.
    let started = Instant::now();
    loop {
        let reserved: f64 = ledger.snapshot().iter().map(|entry| entry.reserved).sum();
        if reserved == 0.0 {
            break;
        }
        assert!(started.elapsed().as_secs() < 30, "a reservation leaked: {reserved}");
        std::thread::yield_now();
    }
}
