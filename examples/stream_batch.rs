//! Streaming batch release: item results surface as they finish.
//!
//! The PR 2 batch endpoint resolved only when the *slowest* item finished —
//! an analyst submitting 16 queries stared at a blank terminal until the
//! last search converged. `Server::submit_envelope` keeps the exact same
//! ε accounting (one summed-ε reservation up front, per-item refunds in
//! the final summary) but delivers each item's result through the
//! returned [`PendingResponse`] the moment the serving task finishes it,
//! with the server computing at most one item ahead of the consumer.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release -p pcor --example stream_batch
//! ```

use pcor::prelude::*;
use pcor::service::find_serviceable_outlier;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let registry = Arc::new(DatasetRegistry::new());
    let dataset =
        salary_dataset(&SalaryConfig::reduced().with_records(4_000)).expect("dataset generation");
    let entry = registry.register("salary", dataset);
    let ledger = Arc::new(BudgetLedger::new(4.0));
    let server = Server::start(
        ServerConfig::default().with_workers(2).with_queue_capacity(16),
        Arc::clone(&registry),
        Arc::clone(&ledger),
    );

    // A 12-item batch revisiting a few genuine contextual outliers.
    let records: Vec<usize> = (0..3)
        .filter_map(|i| find_serviceable_outlier(&entry, DetectorKind::ZScore, 400, 50 + i))
        .collect();
    assert!(!records.is_empty(), "the synthetic workload plants outliers");
    let batch =
        BatchReleaseRequest::new("alice", "salary").with_detector(DetectorKind::ZScore).with_items(
            (0..12)
                .map(|i| {
                    BatchItem::new(records[i % records.len()])
                        .with_epsilon(0.2)
                        .with_samples(20)
                        .with_seed(i as u64)
                })
                .collect(),
        );

    let submitted = Instant::now();
    let mut stream =
        server.submit_envelope(RequestEnvelope::batch(batch)).expect("stream accepted");
    println!("batch of 12 submitted; items stream back as they finish:\n");
    let mut seen = 0usize;
    while let Some(item) = stream.next_item() {
        seen += 1;
        let elapsed = submitted.elapsed().as_secs_f64() * 1e3;
        match item.outcome.released() {
            Some(release) => println!(
                "  [{elapsed:>7.2} ms] item {seen:>2} | record {:>4} | cache {} | {}",
                item.record_id,
                if release.cache_hit { "hit " } else { "miss" },
                release.predicate,
            ),
            None => println!(
                "  [{elapsed:>7.2} ms] item {seen:>2} | record {:>4} | FAILED",
                item.record_id
            ),
        }
    }

    let summary = stream.wait().expect("stream summary").into_batch().expect("a batch reply");
    println!(
        "\nsummary: {} released / {} failed, eps committed {:.1}, refunded {:.1}, remaining {:.1}",
        summary.released(),
        summary.failed(),
        summary.epsilon_committed,
        summary.epsilon_refunded,
        summary.remaining_budget,
    );
    assert_eq!(seen, 12, "every item must stream back");
    assert!((summary.epsilon_committed - 2.4).abs() < 1e-9);
    // Drain and join the pool first so the task counters are final.
    server.shutdown();
    let metrics = server.metrics();
    println!(
        "pool: {} resident workers, {} tasks executed ({} stolen), queue depth {}",
        metrics.pool_workers,
        metrics.pool_tasks_executed,
        metrics.pool_tasks_stolen,
        metrics.pool_queue_depth,
    );
    assert!(metrics.pool_tasks_executed >= 1);

    // The streamed batch is fully observable after the fact: its trace
    // (server → ledger → per-item session spans) and the budget audit
    // trail both live in the server's telemetry handle.
    let telemetry = server.telemetry();
    if let Some(root) =
        telemetry.sink().snapshot().iter().find(|span| span.stage == "server").cloned()
    {
        println!("\n--- trace {:#x} (batch lifecycle) ---", root.trace.0);
        print!("{}", TraceSink::render(&telemetry.sink().trace(root.trace)));
    }
    println!("\n--- budget audit trail (first 6 events) ---");
    for event in telemetry.audit().events().iter().take(6) {
        println!("  {event:?}");
    }
    println!("\n--- budget gauges from one scrape ---");
    for line in
        telemetry.render_prometheus().lines().filter(|line| line.starts_with("pcor_budget_"))
    {
        println!("{line}");
    }
}
