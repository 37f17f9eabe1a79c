//! Pool-breakeven: where pool-sharded population evaluation starts paying.
//!
//! Not a paper experiment — the persistent work-stealing pool of
//! `pcor-runtime` is the only executor of the sharded fused AND/popcount
//! pass, and its dispatch costs a few queue operations (the submitting
//! thread helps execute). `ShardPolicy::POOLED_MIN_WORDS` (2^12 words ≈
//! 260 k records) is calibrated against this experiment, which measures,
//! across dataset sizes `n`:
//!
//! * **serial** — the single-threaded fused pass (baseline);
//! * **pool auto** — [`ShardPolicy::pooled`] on a machine-sized resident
//!   pool: *the production policy*. It right-sizes to the pool (a
//!   single-worker pool stays serial, more workers shard from
//!   `POOLED_MIN_WORDS`), so its ratio is ≥ 1x wherever the machine has
//!   parallelism to give and exactly 1x (parity) where it does not;
//! * **pool x2** — two shards forced onto the pool, isolating the
//!   resident-dispatch overhead.
//!
//! Every path walks the same flip sequence and must report the same
//! population sizes — the experiment hard-fails on divergence. The
//! reported crossover is the smallest measured `n` at which the pooled
//! pass holds ≥ 1x of serial (2-decimal parity). Results land in
//! `BENCH_pool.json` via `reproduce --json`.

use crate::config::ExperimentScale;
use crate::report::Table;
use crate::{BenchError, Result};
use pcor_data::{Attribute, Context, Dataset, PopulationCursor, Record, Schema, ShardPolicy};
use pcor_runtime::ThreadPool;
use std::sync::Arc;
use std::time::Instant;

/// Measurement repetitions per (n, path); the best rate is kept.
const REPS: usize = 3;

/// Builds a synthetic dataset of `n` records over a small fixed schema
/// (3 attributes, 9 values → m = 3 cached unions per pass) with a
/// deterministic value mix, cheaply enough to sweep into the millions.
fn synthetic_dataset(n: usize, seed: u64) -> Result<Dataset> {
    let schema = Schema::new(
        vec![
            Attribute::from_values("A", &["a0", "a1", "a2"]),
            Attribute::from_values("B", &["b0", "b1"]),
            Attribute::from_values("C", &["c0", "c1", "c2", "c3"]),
        ],
        "M",
    )
    .map_err(BenchError::Data)?;
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let records: Vec<Record> = (0..n)
        .map(|_| {
            Record::new(
                vec![(next() % 3) as u16, (next() % 2) as u16, (next() % 4) as u16],
                (next() % 10_000) as f64,
            )
        })
        .collect();
    Dataset::new(schema, records).map_err(BenchError::Data)
}

/// One measured path: walks `flips` single-bit moves on a cursor under
/// `policy`, returning (best passes/sec over `REPS`, digest of sizes).
fn measure(
    dataset: &Dataset,
    start: &Context,
    flips: &[usize],
    policy: ShardPolicy,
) -> Result<(f64, u64)> {
    let mut best_rate = 0.0f64;
    let mut digest = 0u64;
    for rep in 0..REPS {
        let mut cursor = PopulationCursor::with_policy(dataset, start, policy.clone())
            .map_err(BenchError::Data)?;
        // Warm: the first pass builds the unions.
        let mut sizes = cursor.population_size() as u64;
        let started = Instant::now();
        for &bit in flips {
            cursor.flip(bit);
            sizes = sizes.wrapping_add(cursor.population_size() as u64);
        }
        let elapsed = started.elapsed().as_secs_f64();
        let rate = flips.len() as f64 / elapsed.max(1e-12);
        if rep == 0 {
            digest = sizes;
        } else if sizes != digest {
            return Err(BenchError::Service("non-deterministic digest within one path".into()));
        }
        best_rate = best_rate.max(rate);
    }
    Ok((best_rate, digest))
}

/// Runs the pool-breakeven sweep.
///
/// # Errors
/// Returns [`BenchError::Service`] if any sharded path's population sizes
/// diverge from the serial pass.
pub fn run(scale: &ExperimentScale) -> Result<ExperimentOutput> {
    // Sweep the record space from the pooled threshold up to 2^16 words.
    // Smoke runs stay tiny.
    let (sweep, flips_budget): (&[usize], usize) = if scale.salary_records < 2_000 {
        (&[16_384, 65_536], 1 << 22)
    } else {
        (&[65_536, 262_144, 1_048_576, 2_097_152, 4_194_304], 1 << 25)
    };

    // Two resident pools: one sized to the machine (the production
    // deployment of `ShardPolicy::pooled`) and one with two workers, so
    // the forced two-shard row exists even on a single-core host.
    let machine_pool = Arc::new(ThreadPool::for_available_parallelism());
    let wide_pool = Arc::new(ThreadPool::new(2));

    let mut table = Table::new(
        format!(
            "Pool break-even: sharded fused AND/popcount pass vs serial \
             (machine pool: {} workers)",
            machine_pool.workers()
        ),
        &["n", "words", "Path", "passes/sec", "us/pass", "vs serial"],
    );
    let mut crossover: Option<usize> = None;

    for &n in sweep {
        let dataset = synthetic_dataset(n, scale.seed ^ n as u64)?;
        let t = dataset.schema().total_values();
        let words = n.div_ceil(64);
        // Flip only bits outside the first record's minimal context so
        // every step keeps a non-empty well-formed context mix; the
        // sequence is shared by all paths.
        let minimal = dataset.minimal_context(0).map_err(BenchError::Data)?;
        let start = Context::full(t);
        let free_bits: Vec<usize> = (0..t).filter(|&bit| !minimal.get(bit)).collect();
        let steps = (flips_budget / n).clamp(24, 1_024);
        let mut state = scale.seed | 1;
        let flips: Vec<usize> = (0..steps)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                free_bits[(state >> 33) as usize % free_bits.len()]
            })
            .collect();

        let paths: Vec<(&str, ShardPolicy)> = vec![
            ("serial", ShardPolicy::serial()),
            ("pool auto", ShardPolicy::pooled(Arc::clone(&machine_pool))),
            ("pool x2", ShardPolicy::pooled_forced(Arc::clone(&wide_pool), 2)),
        ];
        let mut serial_rate = 0.0f64;
        let mut serial_digest = 0u64;
        for (index, (name, policy)) in paths.into_iter().enumerate() {
            let (rate, digest) = measure(&dataset, &start, &flips, policy)?;
            if index == 0 {
                serial_rate = rate;
                serial_digest = digest;
            } else if digest != serial_digest {
                return Err(BenchError::Service(format!(
                    "engine divergence: path `{name}` disagreed with serial at n = {n}"
                )));
            }
            let ratio = rate / serial_rate.max(1e-12);
            if name == "pool auto" && crossover.is_none() && ratio >= 0.995 {
                // ≥ 1x at 2-decimal parity: the pooled policy holds serial
                // performance (and shards profitably where the machine has
                // parallelism) from this n on.
                crossover = Some(n);
            }
            table.push_row(vec![
                n.to_string(),
                words.to_string(),
                name.to_string(),
                format!("{rate:.0}"),
                format!("{:.2}", 1e6 / rate.max(1e-12)),
                format!("{ratio:.2}x"),
            ]);
        }
    }

    let mut summary = Table::new(
        "Pool break-even summary (thresholds in 64-bit record words)",
        &["Quantity", "Value"],
    );
    summary.push_row(vec![
        "pooled threshold (ShardPolicy::POOLED_MIN_WORDS)".into(),
        format!(
            "{} words (~{} records)",
            ShardPolicy::POOLED_MIN_WORDS,
            ShardPolicy::POOLED_MIN_WORDS * 64
        ),
    ]);
    summary.push_row(vec![
        "measured pool-auto crossover (>= 1x serial)".into(),
        match crossover {
            Some(n) => format!("n = {n} ({} words)", n.div_ceil(64)),
            None => "not reached in sweep".into(),
        },
    ]);

    Ok(ExperimentOutput { tables: vec![table, summary], ..ExperimentOutput::default() })
}

use super::ExperimentOutput;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_all_paths_with_identical_digests() {
        let scale = ExperimentScale::smoke();
        let output = run(&scale).expect("pool-breakeven experiment");
        assert_eq!(output.tables.len(), 2);
        let table = &output.tables[0];
        // 2 sizes x 3 paths at smoke scale.
        assert_eq!(table.rows.len(), 6);
        for row in &table.rows {
            assert_eq!(row.len(), 6);
            let rate: f64 = row[3].parse().unwrap();
            assert!(rate > 0.0, "path {} reported no throughput", row[2]);
        }
        let summary = &output.tables[1];
        assert_eq!(summary.rows.len(), 2);
        // No wall-clock ratio assertions: timing comparisons belong in the
        // reported output (BENCH_pool.json), not in a unit test that would
        // flake on loaded CI runners. The load-bearing correctness check —
        // identical population digests across execution modes — already
        // ran inside `run`.
    }
}
