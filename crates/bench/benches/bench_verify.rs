//! Criterion micro-benchmarks of the `f_M` verification hot path: the
//! from-scratch population evaluation against the incremental cursor
//! engine, at several dataset sizes. The `verify-hotpath`
//! experiment (`reproduce -- verify`) reports the same comparison with
//! allocation counts; this harness tracks regressions per engine layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcor_data::generator::{salary_dataset, SalaryConfig};
use pcor_data::{Context, PopulationCursor};
use pcor_dp::PopulationSizeUtility;
use pcor_outlier::ZScoreDetector;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::hint::black_box;

fn flip_sequence(t: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    (0..len).map(|_| rng.random_range(0..t)).collect()
}

fn bench_population_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("population_engines");
    for &records in &[10_000usize, 50_000] {
        let dataset = salary_dataset(&SalaryConfig::reduced().with_records(records)).unwrap();
        let t = dataset.schema().total_values();
        let start = Context::full(t);
        let flips = flip_sequence(t, 64, 7);

        group.bench_with_input(BenchmarkId::new("from_scratch", records), &records, |b, _| {
            let mut context = start.clone();
            let mut i = 0usize;
            b.iter(|| {
                context.flip(flips[i % flips.len()]);
                i += 1;
                black_box(dataset.population(&context).unwrap().count())
            });
        });

        group.bench_with_input(BenchmarkId::new("cursor_serial", records), &records, |b, _| {
            let mut cursor = PopulationCursor::new(&dataset, &start).unwrap();
            let mut i = 0usize;
            b.iter(|| {
                cursor.flip(flips[i % flips.len()]);
                i += 1;
                black_box(cursor.population_size())
            });
        });
    }
    group.finish();
}

fn bench_verifier_evaluate(c: &mut Criterion) {
    let dataset = salary_dataset(&SalaryConfig::reduced().with_records(10_000)).unwrap();
    let t = dataset.schema().total_values();
    let detector = ZScoreDetector::default();
    let utility = PopulationSizeUtility;
    let flips = flip_sequence(t, 64, 11);

    // Steady-state memoized evaluation: the cyclic flip walk revisits a
    // small set of contexts, so after the first cycle every call is a
    // fingerprint cache hit — the latency BFS/DFS pay when re-scoring an
    // already-evaluated frontier.
    c.bench_function("verifier_evaluate_cached_walk", |b| {
        let mut verifier = pcor_core::Verifier::new(&dataset, &detector, &utility, 0);
        let mut context = Context::full(t);
        let mut i = 0usize;
        b.iter(|| {
            context.flip(flips[i % flips.len()]);
            i += 1;
            black_box(verifier.evaluate(&context).unwrap().population_size)
        });
    });

    // Fresh evaluations: a new verifier per iteration evaluates 8 distinct
    // contexts, so every call is a cache miss. The reported time is 8 fresh
    // evaluations plus one verifier/cursor construction — divide by 8 for a
    // per-call upper bound on the miss path.
    let fresh_contexts: Vec<Context> = {
        let mut rng = ChaCha12Rng::seed_from_u64(13);
        let mut context = Context::full(t);
        (0..8)
            .map(|_| {
                context.flip(rng.random_range(0..t));
                context.clone()
            })
            .collect()
    };
    c.bench_function("verifier_evaluate_fresh_x8", |b| {
        b.iter(|| {
            let mut verifier = pcor_core::Verifier::new(&dataset, &detector, &utility, 0);
            let mut total = 0usize;
            for context in &fresh_contexts {
                total += verifier.evaluate(context).unwrap().population_size;
            }
            black_box(total)
        });
    });

    // The batched child-generation primitive: all t neighbors of one vertex
    // in a single cursor walk. A fresh verifier per iteration keeps every
    // neighbor a cache miss (the memoized replay is covered by the cached
    // walk above).
    c.bench_function("verifier_evaluate_neighbors_fresh", |b| {
        let base = Context::full(t);
        b.iter(|| {
            let mut verifier = pcor_core::Verifier::new(&dataset, &detector, &utility, 0);
            black_box(verifier.evaluate_neighbors(&base).unwrap().len())
        });
    });
}

criterion_group!(benches, bench_population_engines, bench_verifier_evaluate);
criterion_main!(benches);
