//! Batched releases through the versioned envelope protocol.
//!
//! An analyst who wants explanations for many records — or several
//! independent draws for the same record — used to pay full verification
//! cost per request. A [`BatchReleaseRequest`] binds the dataset, detector
//! and algorithm once; the server makes **one** ledger reservation for the
//! summed ε, serves every item on **one** shared release session (so repeat
//! records replay from the memoized verifier), and resolves items
//! independently: failed items refund exactly their ε slice.
//!
//! This example demonstrates:
//!
//! 1. one batch vs. equivalent singles — compare the fresh `f_M`
//!    verification calls,
//! 2. partial failure — a non-outlier record fails inside the batch while
//!    the rest release, and its ε comes back,
//! 3. whole-batch refusal — a batch the remaining budget cannot cover is
//!    refused before any work,
//! 4. the raw envelope wire format.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release -p pcor --example batch_release
//! ```

use pcor::prelude::*;
use pcor::service::find_serviceable_outlier;
use std::sync::Arc;

fn main() {
    let registry = Arc::new(DatasetRegistry::new());
    let dataset =
        salary_dataset(&SalaryConfig::reduced().with_records(3_000)).expect("dataset generation");
    let entry = registry.register("salary", dataset);
    println!(
        "registered `salary`: {} records, t = {} context bits",
        entry.stats().records,
        entry.stats().total_values
    );

    let ledger = Arc::new(BudgetLedger::new(4.0));
    let server = Server::start(
        ServerConfig::default().with_workers(2).with_queue_capacity(32),
        Arc::clone(&registry),
        Arc::clone(&ledger),
    );

    // Two genuinely serviceable outlier records, plus record ids we will
    // query repeatedly.
    let records: Vec<usize> = (0..2)
        .filter_map(|i| find_serviceable_outlier(&entry, DetectorKind::ZScore, 400, 50 + i))
        .collect();
    assert!(!records.is_empty(), "the synthetic workload plants outliers");
    let mix: Vec<usize> = (0..8).map(|i| records[i % records.len()]).collect();

    // --- 1. Singles vs. one batch over the same query mix. ---------------
    let mut single_calls = 0usize;
    for (i, &record_id) in mix.iter().enumerate() {
        let response = server
            .execute(
                ReleaseRequest::new("sasha", "salary", record_id)
                    .with_detector(DetectorKind::ZScore)
                    .with_epsilon(0.1)
                    .with_samples(15)
                    .with_seed(i as u64),
            )
            .expect("single release");
        single_calls += response.verification_calls;
    }

    let batch =
        BatchReleaseRequest::new("blair", "salary").with_detector(DetectorKind::ZScore).with_items(
            mix.iter()
                .enumerate()
                .map(|(i, &record_id)| {
                    BatchItem::new(record_id).with_epsilon(0.1).with_samples(15).with_seed(i as u64)
                })
                .collect(),
        );
    let response = server.execute_batch(batch).expect("batch release");
    println!(
        "\n{} singles: {} fresh f_M calls | one {}-item batch: {} fresh f_M calls",
        mix.len(),
        single_calls,
        mix.len(),
        response.verification_calls
    );
    println!(
        "batch committed eps = {:.1}, refunded eps = {:.1}, remaining budget = {:.1}",
        response.epsilon_committed, response.epsilon_refunded, response.remaining_budget
    );

    // --- 2. Partial failure: one item queries a non-outlier record. ------
    let detector = DetectorKind::ZScore.build();
    let utility = PopulationSizeUtility;
    let mut session = ReleaseSession::builder(entry.dataset(), detector.as_ref(), &utility).build();
    let non_outlier = (0..entry.dataset().len())
        .find(|&id| !mix.contains(&id) && session.resolve_starting_context(id).is_err())
        .expect("most records are not contextual outliers");
    let mixed = BatchReleaseRequest::new("blair", "salary")
        .with_detector(DetectorKind::ZScore)
        .push(BatchItem::new(records[0]).with_epsilon(0.1).with_samples(15).with_seed(100))
        .push(BatchItem::new(non_outlier).with_epsilon(0.1).with_samples(15).with_seed(101))
        .push(BatchItem::new(records[0]).with_epsilon(0.1).with_samples(15).with_seed(102));
    let response = server.execute_batch(mixed).expect("mixed batch is served");
    println!("\nmixed batch: {} released, {} failed", response.released(), response.failed());
    for item in &response.items {
        match &item.outcome {
            ItemOutcome::Released(release) => println!(
                "  record {:>5} released: {} ({} fresh calls)",
                item.record_id, release.predicate, release.verification_calls
            ),
            ItemOutcome::Failed { error } => println!(
                "  record {:>5} FAILED ({error}); its eps = {:.1} was refunded",
                item.record_id, item.epsilon
            ),
        }
    }

    // --- 3. Whole-batch refusal once the budget cannot cover the sum. ----
    let greedy = BatchReleaseRequest::new("blair", "salary")
        .with_detector(DetectorKind::ZScore)
        .with_items((0..40).map(|i| BatchItem::new(records[0]).with_seed(i)).collect());
    match server.execute_batch(greedy) {
        Err(ServiceError::BudgetExhausted { requested, remaining, .. }) => println!(
            "\ngreedy batch refused whole: requested eps = {requested:.1}, \
             remaining eps = {remaining:.1} (no item ran, nothing was charged)"
        ),
        other => panic!("expected a whole-batch refusal, got {other:?}"),
    }

    // --- 4. The wire format: a versioned envelope in JSON. ---------------
    let envelope = RequestEnvelope::batch(
        BatchReleaseRequest::new("blair", "salary")
            .with_detector(DetectorKind::ZScore)
            .push(BatchItem::new(records[0]).with_epsilon(0.1)),
    );
    println!("\nwire format:\n{}", serde_json::to_string_pretty(&envelope).expect("json"));

    println!("\nledger after serving:");
    for account in ledger.snapshot() {
        println!(
            "  {:<6} @ {}: granted {:.1}, spent {:.1}, remaining {:.1}",
            account.analyst, account.dataset, account.total, account.spent, account.remaining
        );
    }
    server.shutdown();
}
