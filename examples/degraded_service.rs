//! Operating under failure: a durable PCOR server is driven through a
//! scripted chaos schedule — disk write errors, an fsync stall, injected
//! release latency, and an hour of clock skew — while analysts submit a
//! mix of deadline-free and hopelessly deadlined requests.
//!
//! The hardened lifecycle must hold the line: doomed requests are shed at
//! admission (`Overloaded { retry_after }`) or cancelled mid-flight
//! (`DeadlineExceeded`) and refunded exactly; transient journal failures
//! are retried with backoff; the health surface keeps reporting; and the
//! audit fold proves zero ε leaked. The closing `chaos_*` lines are
//! grep-able by the CI chaos smoke step.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release -p pcor --example degraded_service
//! ```

use pcor::faults::{site, FaultKind, FaultPlan, ScheduledFault};
use pcor::prelude::*;
use pcor::wal::FsyncPolicy;
use std::sync::Arc;
use std::time::Duration;

fn request(analyst: &str, seed: u64) -> ReleaseRequest {
    ReleaseRequest::new(analyst, "salary", 0)
        .with_detector(DetectorKind::ZScore)
        .with_algorithm(SamplingAlgorithm::Bfs)
        .with_epsilon(0.1)
        .with_samples(5)
        .with_seed(seed)
}

fn main() {
    let dir = std::env::temp_dir().join(format!("pcor-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A deterministic toy dataset with a planted outlier at record 0.
    let schema = Schema::new(
        vec![
            Attribute::from_values("A", &["a0", "a1"]),
            Attribute::from_values("B", &["b0", "b1"]),
        ],
        "M",
    )
    .expect("schema");
    let mut records = vec![Record::new(vec![0, 0], 900.0)];
    for i in 0..40 {
        records
            .push(Record::new(vec![(i % 2) as u16, ((i / 2) % 2) as u16], 100.0 + (i % 7) as f64));
    }
    let registry = Arc::new(DatasetRegistry::new());
    registry.register("salary", Dataset::new(schema, records).expect("dataset"));

    // The chaos schedule. WAL side: appends 3 and 7 fail with I/O errors
    // (the retry/backoff policy must absorb them), fsync 2 stalls. Service
    // side: every release pays 2 ms of injected latency with a coin flip,
    // and the 5th release skews the clock an hour forward — from then on
    // every finite deadline is hopeless.
    let wal_faults = FaultPlan::scripted(vec![
        ScheduledFault { site: site::WAL_APPEND.to_string(), hit: 3, kind: FaultKind::IoError },
        ScheduledFault { site: site::WAL_APPEND.to_string(), hit: 7, kind: FaultKind::IoError },
        ScheduledFault {
            site: site::WAL_FSYNC.to_string(),
            hit: 2,
            kind: FaultKind::FsyncStall(Duration::from_millis(5)),
        },
    ])
    .build();
    let service_faults = FaultPlan::scripted(vec![ScheduledFault {
        site: site::SERVICE_RELEASE.to_string(),
        hit: 5,
        kind: FaultKind::ClockSkew(Duration::from_secs(3600)),
    }])
    .build();

    let grant = 10.0;
    let mut wal_config = WalConfig::at(&dir);
    wal_config.fsync = FsyncPolicy::EveryRecord;
    wal_config.faults = wal_faults;
    let durable = Arc::new(
        DurableLedger::open(wal_config, BudgetLedger::new(grant)).expect("open durable ledger"),
    );
    let server = Server::start_durable(
        ServerConfig::default().with_workers(2).with_queue_capacity(16).with_faults(service_faults),
        Arc::clone(&registry),
        Arc::clone(&durable),
    );

    println!("== degraded service: scripted disk faults + clock skew ==\n");

    // Phase 1: deadline-free traffic rides out the disk faults.
    let mut served = 0u32;
    for seed in 0..8u64 {
        let analyst = ["alice", "bob"][seed as usize % 2];
        match server.execute(request(analyst, seed)) {
            Ok(response) => {
                served += 1;
                println!(
                    "served {analyst} seed {seed}: spent {:.1} ε, {:.1} remaining",
                    response.epsilon_spent, response.remaining_budget
                );
            }
            Err(error) => println!("refused {analyst} seed {seed}: {error}"),
        }
    }

    // Phase 2: deadlined traffic under an hour of injected skew. Every
    // request is doomed; every one must be shed or cancelled, never billed.
    let mut refused = 0u32;
    for seed in 0..6u64 {
        let envelope =
            RequestEnvelope::single(request("carol", 100 + seed)).with_deadline_ms(1 + seed % 3);
        let outcome = match server.submit_envelope(envelope) {
            Ok(pending) => pending.wait().map(|_| ()),
            Err(error) => Err(error),
        };
        match outcome {
            Ok(()) => println!("served carol seed {seed} (deadline made it)"),
            Err(error) => {
                refused += 1;
                println!("refused carol seed {seed}: {error}");
            }
        }
    }

    // The health surface keeps answering through the degradation.
    let health = server.health();
    println!("\nhealth: {health:?}");
    let scrape = server.telemetry().render_prometheus();
    for line in scrape.lines() {
        // Keep the `# TYPE` headers too: they show counters vs gauges.
        let series = line.strip_prefix("# TYPE ").unwrap_or(line);
        if series.starts_with("pcor_deadline_exceeded_total")
            || series.starts_with("pcor_shed_total")
            || series.starts_with("pcor_retries_total")
            || series.starts_with("pcor_breaker_state")
            || series.starts_with("pcor_ready")
        {
            println!("{line}");
        }
    }

    // The chaos verdict: fold the audit log and measure leaked ε — budget
    // reserved by cancelled/shed/faulted requests that was never returned.
    let accounts = server.telemetry().audit().fold();
    let leaked: f64 = accounts.values().map(|account| account.outstanding().abs()).sum();
    let committed: f64 = accounts.values().map(|account| account.committed).sum();
    assert!(leaked < 1e-9, "the lifecycle leaked {leaked} ε");
    assert!(
        (committed - 0.1 * f64::from(served)).abs() < 1e-9,
        "served releases must commit exactly their ε"
    );
    println!("\nchaos_served {served}");
    println!("chaos_refused {refused}");
    println!("chaos_accepting {}", health.accepting);
    println!("chaos_leaked_epsilon 0");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
