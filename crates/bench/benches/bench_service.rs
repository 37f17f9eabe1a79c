//! Criterion benchmark of the `pcor-service` worker pool: a fixed batch of
//! multi-analyst release queries against a shared salary dataset, across
//! pool sizes. Complements the `service` experiment of the `reproduce`
//! binary with per-batch wall-clock numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcor_core::runner::find_random_outlier;
use pcor_core::SamplingAlgorithm;
use pcor_data::generator::{salary_dataset, SalaryConfig};
use pcor_outlier::DetectorKind;
use pcor_service::{
    BudgetLedger, DatasetRegistry, ReleaseRequest, RequestEnvelope, Server, ServerConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::hint::black_box;
use std::sync::Arc;

const BATCH: usize = 24;

fn bench_service_batch(c: &mut Criterion) {
    let dataset = salary_dataset(&SalaryConfig::reduced().with_records(2_000)).unwrap();
    let detector = DetectorKind::ZScore;
    let built = detector.build();
    let mut rng = ChaCha12Rng::seed_from_u64(11);
    let Ok(outlier) = find_random_outlier(&dataset, built.as_ref(), 800, &mut rng) else {
        eprintln!("no outlier found; skipping service benchmark");
        return;
    };

    let mut group = c.benchmark_group("service_batch_release");
    group.sample_size(10);
    for &workers in &[1usize, 2, 4] {
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("salary", dataset.clone());
        let ledger = Arc::new(BudgetLedger::new(f64::MAX / 2.0));
        let server = Server::start(
            ServerConfig::default().with_workers(workers).with_queue_capacity(64),
            registry,
            ledger,
        );
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, _| {
            let mut seed = 0u64;
            b.iter(|| {
                let pending: Vec<_> = (0..BATCH)
                    .map(|i| {
                        seed += 1;
                        let request = ReleaseRequest::new(
                            &format!("analyst-{}", i % 3),
                            "salary",
                            outlier.record_id,
                        )
                        .with_detector(detector)
                        .with_algorithm(SamplingAlgorithm::Bfs)
                        .with_epsilon(0.2)
                        .with_samples(10)
                        .with_seed(seed);
                        server.submit_envelope(RequestEnvelope::single(request)).expect("submit")
                    })
                    .collect();
                for handle in pending {
                    black_box(handle.wait().expect("release"));
                }
            });
        });
        server.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_service_batch);
criterion_main!(benches);
