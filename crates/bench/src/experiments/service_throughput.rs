//! Serving-layer throughput: queries/second vs. worker-pool size.
//!
//! Not a paper experiment — this measures the `pcor-service` subsystem the
//! ROADMAP's scaling goal needs: a fixed stream of release queries from
//! several analysts against a shared salary dataset, executed by worker
//! pools of increasing size. Reported per pool size: wall time, throughput,
//! mean per-query latency and the starting-context cache hit rate.

use crate::config::ExperimentScale;
use crate::report::Table;
use crate::{BenchError, Result};
use pcor_core::runner::find_random_outliers;
use pcor_core::SamplingAlgorithm;
use pcor_data::generator::{salary_dataset, SalaryConfig};
use pcor_outlier::DetectorKind;
use pcor_service::{
    BudgetLedger, DatasetRegistry, ReleaseRequest, RequestEnvelope, Server, ServerConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::sync::Arc;
use std::time::Instant;

use super::ExperimentOutput;

/// Worker-pool sizes compared.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Number of analysts issuing queries round-robin.
const ANALYSTS: usize = 3;

/// Runs the throughput-vs-workers comparison.
///
/// # Errors
/// Returns [`BenchError::NoOutlierFound`] when the workload has no
/// contextual outliers and propagates service errors as release failures.
pub fn run(scale: &ExperimentScale) -> Result<ExperimentOutput> {
    let dataset = salary_dataset(&SalaryConfig::reduced().with_records(scale.salary_records))?;
    let detector = DetectorKind::ZScore;
    let built = detector.build();
    let mut rng = ChaCha12Rng::seed_from_u64(scale.seed ^ 0x5EC1CE);
    // A small pool of distinct records keeps the query mix realistic while
    // still exercising the starting-context cache with repeats.
    let outliers = find_random_outliers(&dataset, built.as_ref(), 4, 2_000, &mut rng)
        .map_err(|_| BenchError::NoOutlierFound)?;
    let records: Vec<usize> = outliers.iter().map(|q| q.record_id).collect();

    let queries_per_worker_count = (scale.repetitions * ANALYSTS).max(ANALYSTS);
    let mut table = Table::new(
        format!(
            "Service throughput: {} queries ({} analysts, BFS, eps = {}, n = {}) vs. workers",
            queries_per_worker_count, ANALYSTS, scale.epsilon, scale.samples
        ),
        &["Workers", "Wall (ms)", "Throughput (q/s)", "Mean latency (ms)", "Cache hit %"],
    );

    for &workers in &WORKER_COUNTS {
        // Fresh registry and ledger per pool size: identical work, cold cache.
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("salary", dataset.clone());
        let ledger = Arc::new(BudgetLedger::new(f64::MAX / 2.0));
        let server = Server::start(
            ServerConfig::default().with_workers(workers).with_queue_capacity(256),
            Arc::clone(&registry),
            ledger,
        );

        let started = Instant::now();
        let pending: Vec<_> = (0..queries_per_worker_count)
            .map(|i| {
                let request = ReleaseRequest::new(
                    &format!("analyst-{}", i % ANALYSTS),
                    "salary",
                    records[i % records.len()],
                )
                .with_detector(detector)
                .with_algorithm(SamplingAlgorithm::Bfs)
                .with_epsilon(scale.epsilon)
                .with_samples(scale.samples)
                .with_seed(scale.seed ^ i as u64);
                server.submit_envelope(RequestEnvelope::single(request))
            })
            .collect::<std::result::Result<_, _>>()
            .map_err(|e| BenchError::Service(e.to_string()))?;
        for handle in pending {
            handle.wait().map_err(|e| BenchError::Service(e.to_string()))?;
        }
        let wall = started.elapsed();
        let metrics = server.metrics();
        let cache = registry.cache_stats();
        let lookups = (cache.hits + cache.misses).max(1);
        table.push_row(vec![
            workers.to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            format!("{:.1}", metrics.served as f64 / wall.as_secs_f64()),
            format!("{:.2}", metrics.mean_latency.as_secs_f64() * 1e3),
            format!("{:.1}", 100.0 * cache.hits as f64 / lookups as f64),
        ]);
        server.shutdown();
    }

    Ok(ExperimentOutput { tables: vec![table], ..ExperimentOutput::default() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_produces_one_row_per_worker_count() {
        let mut scale = ExperimentScale::smoke();
        scale.repetitions = 2;
        scale.samples = 5;
        let output = run(&scale).expect("service throughput experiment");
        assert_eq!(output.tables.len(), 1);
        assert_eq!(output.tables[0].rows.len(), WORKER_COUNTS.len());
        for row in &output.tables[0].rows {
            assert_eq!(row.len(), 5);
            let throughput: f64 = row[2].parse().unwrap();
            assert!(throughput > 0.0, "throughput must be positive, got {throughput}");
        }
    }
}
