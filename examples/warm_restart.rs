//! Crash-safe serving with warm restarts: a durable server is started,
//! serves a few metered releases, shuts down — and a *second* server is
//! then opened over the same write-ahead log. The restart replays the
//! shutdown checkpoint, restores every analyst's budget to the exact
//! committed state, re-seeds the starting-context cache from the
//! checkpoint's warm state (so the first release after the restart is a
//! cache hit), and exposes the whole recovery on the Prometheus scrape as
//! `pcor_wal_*` gauges.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release -p pcor --example warm_restart
//! ```

use pcor::prelude::*;
use pcor::service::find_serviceable_outlier;
use std::sync::Arc;

/// Registers the (deterministic) salary workload; both server generations
/// must see the identical dataset, or the warm state is refused.
fn build_registry() -> (Arc<DatasetRegistry>, Vec<usize>) {
    let registry = Arc::new(DatasetRegistry::new());
    let dataset =
        salary_dataset(&SalaryConfig::reduced().with_records(1_500)).expect("dataset generation");
    let entry = registry.register("salary", dataset);
    let records: Vec<usize> = (0..3)
        .filter_map(|i| find_serviceable_outlier(&entry, DetectorKind::ZScore, 400, 100 + i))
        .collect();
    assert!(!records.is_empty(), "the synthetic workload plants outliers");
    (registry, records)
}

fn request(analyst: &str, record: usize, seed: u64) -> ReleaseRequest {
    ReleaseRequest::new(analyst, "salary", record)
        .with_detector(DetectorKind::ZScore)
        .with_algorithm(SamplingAlgorithm::Bfs)
        .with_epsilon(0.1)
        .with_samples(10)
        .with_seed(seed)
}

/// The per-account budget gauge lines of a scrape, sorted — the restart
/// must reproduce them bit-for-bit.
fn budget_gauges(scrape: &str) -> Vec<String> {
    let mut lines: Vec<String> = scrape
        .lines()
        .filter(|line| {
            line.starts_with("pcor_budget_spent_epsilon{")
                || line.starts_with("pcor_budget_remaining_epsilon{")
        })
        .map(str::to_string)
        .collect();
    lines.sort();
    lines
}

fn main() {
    let wal_dir = std::env::temp_dir().join(format!("pcor-warm-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);

    // ---- Generation 1: a cold start serves metered traffic. ----
    let gauges_before = {
        let (registry, records) = build_registry();
        let durable = Arc::new(
            DurableLedger::open(WalConfig::at(&wal_dir), BudgetLedger::new(1.0))
                .expect("fresh WAL opens"),
        );
        let server = Server::start_durable(
            ServerConfig::default().with_workers(2).with_queue_capacity(32),
            registry,
            durable,
        );
        for (i, analyst) in ["alice", "bob"].iter().enumerate() {
            for (j, &record) in records.iter().enumerate() {
                let response = server
                    .execute(request(analyst, record, (i * 10 + j) as u64))
                    .expect("within budget");
                println!(
                    "gen-1 {:<5} record {:>4}: spent eps=0.1 -> remaining {:.2} | cache {}",
                    response.analyst,
                    response.record_id,
                    response.remaining_budget,
                    if response.cache_hit { "hit " } else { "miss" },
                );
            }
        }
        let gauges = budget_gauges(&server.telemetry().render_prometheus());
        // Shutdown drains in-flight work and writes a final compaction
        // checkpoint: balances + warm cache state, then prunes the log.
        server.shutdown();
        println!("gen-1 shut down; WAL checkpointed at {}", wal_dir.display());
        gauges
    };

    // ---- Generation 2: a warm restart over the same log. ----
    let (registry, records) = build_registry();
    let durable = Arc::new(
        DurableLedger::open(WalConfig::at(&wal_dir), BudgetLedger::new(1.0))
            .expect("the checkpointed WAL replays"),
    );
    let report = durable.report().clone();
    println!(
        "gen-2 recovery: checkpoint={} tail_events={} accounts={} dangling_refunded={} in {:?}",
        report.from_checkpoint,
        report.events_replayed,
        report.accounts_restored,
        report.dangling_refunded,
        report.replay_duration,
    );
    let server = Server::start_durable(
        ServerConfig::default().with_workers(2).with_queue_capacity(32),
        registry,
        Arc::clone(&durable),
    );
    println!("gen-2 warm cache: {} starting contexts", durable.warm_seeded());

    // The budget gauges must be identical across the restart: committed ε
    // is permanent, refunded ε is back, nothing is leaked either way.
    let gauges_after = budget_gauges(&server.telemetry().render_prometheus());
    assert_eq!(gauges_before, gauges_after, "restart changed a budget gauge");
    println!("budget gauges identical across restart ({} series)", gauges_after.len());

    // And the first release of the new generation is served from the warm
    // starting-context cache — no re-discovery cost after a restart.
    let response = server.execute(request("alice", records[0], 99)).expect("within budget");
    assert!(response.cache_hit, "the warmed cache must serve the first release");
    println!(
        "cache hit on the first post-restart release: remaining eps {:.2} for alice",
        response.remaining_budget
    );

    // Durability is part of the scrape: WAL health next to throughput.
    let scrape = server.telemetry().render_prometheus();
    for line in scrape.lines().filter(|line| line.starts_with("pcor_wal_")) {
        println!("{line}");
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);
}
