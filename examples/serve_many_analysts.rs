//! Multi-analyst serving: three analysts query a shared salary dataset
//! through the `pcor-service` worker pool.
//!
//! The scenario the paper implies but the one-shot API cannot express: a
//! data custodian hosts the dataset and answers contextual-outlier queries
//! from several untrusted analysts *concurrently*, metering each analyst's
//! OCDP budget across queries. This example shows:
//!
//! 1. concurrent execution — queries from all analysts interleave across
//!    the worker pool (watch the worker ids),
//! 2. per-analyst budget drawdown — every response reports the remaining ε,
//! 3. hard refusal — once an analyst's ε is exhausted the server answers
//!    nothing more for them on this dataset,
//! 4. starting-context caching — repeat queries against a record skip the
//!    expensive verified-starting-context search.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release -p pcor --example serve_many_analysts
//! ```

use pcor::prelude::*;
use pcor::service::find_serviceable_outlier;
use std::sync::Arc;

fn main() {
    // The custodian registers the shared dataset once; analysts never touch
    // the raw records.
    let registry = Arc::new(DatasetRegistry::new());
    let dataset =
        salary_dataset(&SalaryConfig::reduced().with_records(4_000)).expect("dataset generation");
    let entry = registry.register("salary", dataset);
    let stats = entry.stats();
    println!(
        "registered `salary`: {} records, {} attributes, t = {} context bits",
        stats.records, stats.attributes, stats.total_values
    );

    // Every analyst is granted eps = 1.0 on this dataset; alice gets a tight
    // eps = 0.5 so we can watch her run out.
    let ledger = Arc::new(BudgetLedger::new(1.0));
    ledger.set_grant("alice", "salary", 0.5);

    let server = Server::start(
        ServerConfig::default().with_workers(4).with_queue_capacity(64),
        Arc::clone(&registry),
        Arc::clone(&ledger),
    );

    // Pick a couple of genuinely serviceable records (contextual outliers).
    let records: Vec<usize> = (0..4)
        .filter_map(|i| find_serviceable_outlier(&entry, DetectorKind::ZScore, 400, 100 + i))
        .collect();
    assert!(!records.is_empty(), "the synthetic workload plants outliers");
    println!("querying outlier records {records:?}\n");

    // Three analysts submit five queries each, all in flight at once.
    let analysts = ["alice", "bob", "carol"];
    let mut pending = Vec::new();
    for round in 0..5u64 {
        for (a, analyst) in analysts.iter().enumerate() {
            let request =
                ReleaseRequest::new(analyst, "salary", records[round as usize % records.len()])
                    .with_detector(DetectorKind::ZScore)
                    .with_algorithm(SamplingAlgorithm::Bfs)
                    .with_epsilon(0.2)
                    .with_samples(20)
                    .with_seed(round * 10 + a as u64);
            pending.push(
                server
                    .submit_envelope(RequestEnvelope::single(request))
                    .expect("server accepts while running"),
            );
        }
    }

    let mut refusals = 0usize;
    for handle in pending {
        match handle.wait().map(|reply| reply.into_single().expect("a single's reply")) {
            Ok(response) => println!(
                "[worker {}] {:<5} spent eps={:.1} -> remaining {:.1} | {:>6.2} ms | cache {} | {}",
                response.worker,
                response.analyst,
                response.epsilon_spent,
                response.remaining_budget,
                response.latency.as_secs_f64() * 1e3,
                if response.cache_hit { "hit " } else { "miss" },
                response.predicate,
            ),
            Err(ServiceError::BudgetExhausted { analyst, requested, remaining, .. }) => {
                refusals += 1;
                println!(
                    "REFUSED  {analyst:<5} requested eps={requested:.1} but only {remaining:.1} remains"
                );
            }
            Err(other) => println!("error: {other}"),
        }
    }

    // Alice asked for 5 x 0.2 = 1.0 against a grant of 0.5: the server must
    // have refused her at least twice, and must refuse her again now.
    assert!(refusals >= 2, "alice's grant only covers 2 of her 5 queries");
    let retry = ReleaseRequest::new("alice", "salary", records[0])
        .with_detector(DetectorKind::ZScore)
        .with_epsilon(0.2)
        .with_samples(20);
    match server.execute(retry) {
        Err(ServiceError::BudgetExhausted { .. }) => {
            println!("\nalice is exhausted for good: further queries are refused outright");
        }
        other => panic!("expected a refusal, got {other:?}"),
    }

    println!("\nledger after serving:");
    for entry in ledger.snapshot() {
        println!(
            "  {:<5} @ {}: granted {:.1}, spent {:.1}, remaining {:.1}",
            entry.analyst, entry.dataset, entry.total, entry.spent, entry.remaining
        );
    }
    let metrics = server.metrics();
    let cache = registry.cache_stats();
    println!(
        "\nserved {} releases ({} refused), mean latency {:.2} ms, \
         starting-context cache: {} hits / {} misses",
        metrics.served,
        metrics.refused,
        metrics.mean_latency.as_secs_f64() * 1e3,
        cache.hits,
        cache.misses,
    );
    println!(
        "verification engine: {} fresh f_M calls ({:.1} per release), \
         verifier cache hit rate {:.0}%",
        metrics.verification_calls,
        metrics.evaluations_per_release(),
        metrics.verifier_cache_hit_rate() * 100.0,
    );
    println!(
        "runtime pool: {} resident workers, queue depth {}, \
         {} tasks executed ({} stolen)",
        metrics.pool_workers,
        metrics.pool_queue_depth,
        metrics.pool_tasks_executed,
        metrics.pool_tasks_stolen,
    );

    // The same numbers — plus budget gauges and per-stage latency
    // histograms — in one Prometheus scrape, ready for a /metrics endpoint.
    // The `# TYPE` lines show which series are counters and which gauges.
    let telemetry = server.telemetry();
    println!("\n--- Prometheus scrape (excerpt) ---");
    for line in telemetry.render_prometheus().lines().filter(|line| {
        let series = line.strip_prefix("# TYPE ").unwrap_or(line);
        ["pcor_releases_", "pcor_budget_", "pcor_verifier_bytes_scanned", "pcor_mechanism_releases"]
            .iter()
            .any(|prefix| series.starts_with(prefix))
    }) {
        println!("{line}");
    }

    // And one full release's life, stage by stage, from the trace ring
    // buffer: server → ledger.reserve → session.release → session.verify.
    let spans = telemetry.sink().snapshot();
    if let Some(verified) = spans.iter().rev().find(|span| span.stage == "session.verify") {
        println!("\n--- trace {:#x} ---", verified.trace.0);
        print!("{}", TraceSink::render(&telemetry.sink().trace(verified.trace)));
    }
    server.shutdown();
}
