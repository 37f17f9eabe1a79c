//! Verify-hotpath: throughput and allocation profile of one `f_M`
//! verification call, before and after the incremental engine.
//!
//! Not a paper experiment — the paper's runtime numbers are essentially
//! counts of `f_M` evaluations, and this measures what one evaluation costs
//! on each engine generation while walking the context graph by single-bit
//! flips (the access pattern of BFS, DFS, random walk and the Gray-code
//! enumeration):
//!
//! * **from-scratch (seed)** — the historical engine, replicated verbatim:
//!   `Dataset::population` allocates two fresh bitmaps and re-runs the
//!   OR/AND pass over every attribute, the population is popcounted twice
//!   (utility + size), and a fresh metrics `Vec` is gathered through the
//!   per-`Record` indirection before the detector re-scans it;
//! * **incremental cursor (rescan)** — a [`PopulationCursor`] advancing by
//!   one flip (one attribute-block union update + one fused AND/popcount
//!   pass through the dispatched kernel), but with the detector's shifted
//!   moments recomputed from scratch every call — the engine as it stood
//!   before the moment tracker;
//! * **incremental moments** — the same cursor with
//!   [`PopulationCursor::track_moments`] enabled: the moments are carried
//!   as centered sufficient statistics and updated from the XOR word-diff
//!   of consecutive populations (Neumaier-compensated, with a scheduled
//!   full refresh every [`PopulationCursor::MOMENT_REFRESH_INTERVAL`]
//!   syncs), exactly as `pcor_core::Verifier` evaluates.
//!
//! The `words/call` column counts every 64-bit word an engine touches per
//! evaluation (fused pass + moment maintenance) from the cursor's own
//! meters — the incremental-moments row must scan strictly fewer words per
//! call than the full-rescan row, and `run` hard-fails if it does not.
//!
//! A second table microbenchmarks the fused AND+popcount kernels themselves
//! (every kernel the host supports, scalar always included) over synthetic
//! word streams, reporting raw bytes/sec and the fraction of the machine's
//! measured STREAM-triad bandwidth ([`crate::membw`]) each kernel sustains.
//!
//! Every engine path walks the *same* flip sequence and must produce the
//! same per-step population sizes and outlier verdicts — the experiment
//! hard-fails on any divergence, and likewise if any kernel's output is not
//! bit-identical to scalar. Results land in `BENCH_verify.json` via
//! `reproduce --json`, extending the BENCH trajectory of `BENCH_batch.json`.

use crate::alloc_probe;
use crate::config::ExperimentScale;
use crate::report::Table;
use crate::{BenchError, Result};
use pcor_data::kernel::{self, KernelKind};
use pcor_data::{Context, Dataset, PopulationCursor, RecordBitmap};
use pcor_dp::{PopulationSizeUtility, Utility};
use pcor_outlier::{OutlierDetector, PopulationMoments, ZScoreDetector};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::time::Instant;

use super::{ExperimentOutput, RunEnvironment};

/// Single-bit flips evaluated per path.
const STEPS: usize = 1_024;

/// One path's digest over the flip sequence: must be identical across
/// engines (bit-identical populations ⇒ identical sizes and verdicts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    population_sizes: u64,
    matching: u64,
}

/// The seed engine's verification, replicated verbatim from the pre-engine
/// `Verifier::evaluate`: allocating population, double popcount, AoS metric
/// gather into a fresh `Vec`, slice detector.
fn seed_engine_step(
    dataset: &Dataset,
    context: &Context,
    outlier_id: usize,
    detector: &dyn OutlierDetector,
    utility: &dyn Utility,
) -> Result<(usize, bool)> {
    let population = dataset.population(context)?;
    let covers = population.contains(outlier_id);
    let _utility_score = utility.score(dataset, context, &population);
    let population_size = population.count();
    let matching = if covers {
        let mut metrics = Vec::with_capacity(population_size);
        let mut target_index = 0usize;
        for (pos, id) in population.iter_ones().enumerate() {
            if id == outlier_id {
                target_index = pos;
            }
            metrics.push(dataset.record(id).metric());
        }
        detector.is_outlier(&metrics, target_index)
    } else {
        false
    };
    Ok((population_size, matching))
}

/// Cursor verification with the moments recomputed from scratch each call
/// (the pre-tracker engine). Returns `(size, matching, moment_words)` where
/// `moment_words` counts what the rescan touched: one sweep of the
/// population bitmap plus one metric load per member.
fn rescan_engine_step(
    dataset: &Dataset,
    cursor: &mut PopulationCursor<'_>,
    outlier_id: usize,
    detector: &dyn OutlierDetector,
    utility: &dyn Utility,
) -> (usize, bool, u64) {
    let (context, population, population_size) = cursor.evaluated();
    let _utility_score = utility.score(dataset, context, population);
    let pop_words = population.words().len() as u64;
    let (matching, moment_words) = if population.contains(outlier_id) {
        let value = dataset.metric(outlier_id);
        let (sum, sum_sq_dev) = dataset.population_metric_moments(population, value);
        let verdict = detector.is_outlier_by_moments(
            &PopulationMoments::new(population_size, sum, sum_sq_dev),
            value,
        );
        (verdict, pop_words + population_size as u64)
    } else {
        (false, 0)
    };
    (population_size, matching, moment_words)
}

/// Cursor verification answered from the tracked moments (the production
/// engine; `cursor` must have `track_moments` enabled). Word accounting
/// comes from the cursor's own `moment_words_scanned` meter.
fn tracked_engine_step(
    dataset: &Dataset,
    cursor: &mut PopulationCursor<'_>,
    outlier_id: usize,
    detector: &dyn OutlierDetector,
    utility: &dyn Utility,
) -> (usize, bool) {
    let (context, population, population_size) = cursor.evaluated();
    let _utility_score = utility.score(dataset, context, population);
    let covers = population.contains(outlier_id);
    let matching = if covers {
        let value = dataset.metric(outlier_id);
        let (sum, sum_sq_dev) = cursor.moments();
        detector
            .is_outlier_by_moments(&PopulationMoments::new(population_size, sum, sum_sq_dev), value)
    } else {
        false
    };
    (population_size, matching)
}

/// Fills a bitmap's words from a splitmix-style PRNG.
fn seeded_stream(words: usize, mut state: u64) -> RecordBitmap {
    let mut bitmap = RecordBitmap::new(words * 64);
    for w in bitmap.words_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *w = state;
    }
    bitmap
}

/// Microbenchmarks every supported fused-pass kernel over synthetic word
/// streams: raw bytes/sec, fraction of measured triad bandwidth, and speedup
/// over scalar. Hard-fails if any kernel's count or output bitmap diverges
/// from the scalar reference.
fn kernel_microbench(scale: &ExperimentScale, triad: f64, nproc: usize) -> Result<Table> {
    // Streams sized past the last-level cache at real scales so bytes/sec is
    // a memory number, not a cache number; smoke keeps unit tests fast.
    let words = if scale.salary_records < 2_000 { 1 << 12 } else { 1 << 20 };
    const REST: usize = 3;
    let first = seeded_stream(words, scale.seed ^ 0x5EED);
    let rest: Vec<RecordBitmap> =
        (0..REST).map(|i| seeded_stream(words, scale.seed ^ (0xA5A5 + i as u64))).collect();
    // Read-byte accounting, matching the engine table: the pass streams the
    // first bitmap plus each rest bitmap once per call.
    let bytes_per_pass = (words * (1 + REST) * 8) as f64;
    let target_bytes = if scale.salary_records < 2_000 { 1 << 25 } else { 1 << 28 } as f64;
    let iters = ((target_bytes / bytes_per_pass) as usize).max(3);

    let mut expected_out = vec![0u64; words];
    let expected = kernel::scalar_pass(first.words(), &rest, &mut expected_out, 0);

    let selected = kernel::selected();
    let mut rates: Vec<(KernelKind, f64)> = Vec::new();
    let mut out = vec![0u64; words];
    for kind in KernelKind::supported() {
        let func = kind.func();
        // Warm-up pass doubles as the bit-identity check against scalar.
        out.fill(u64::MAX);
        let count = func(first.words(), &rest, &mut out, 0);
        if count != expected || out != expected_out {
            return Err(BenchError::Service(format!(
                "kernel divergence: `{kind}` disagreed with the scalar reference"
            )));
        }
        let started = Instant::now();
        let mut checksum = 0usize;
        for _ in 0..iters {
            checksum = checksum.wrapping_add(func(first.words(), &rest, &mut out, 0));
        }
        let elapsed = started.elapsed().as_secs_f64();
        std::hint::black_box(checksum);
        rates.push((kind, bytes_per_pass * iters as f64 / elapsed.max(1e-12)));
    }
    let scalar_rate = rates
        .iter()
        .find(|(kind, _)| *kind == KernelKind::Scalar)
        .map(|&(_, rate)| rate)
        .expect("scalar kernel is always supported");

    let mut table = Table::new(
        format!(
            "Fused AND+popcount kernels ({words} words x {} streams, {iters} passes/kernel, \
             triad = {:.2} GB/s, nproc = {nproc})",
            1 + REST,
            triad / 1e9
        ),
        &["Kernel", "dispatched", "bytes/sec", "% membw", "vs scalar"],
    );
    for (kind, rate) in &rates {
        table.push_row(vec![
            kind.name().to_string(),
            if *kind == selected { "yes".to_string() } else { String::new() },
            format!("{rate:.0}"),
            format!("{:.0}%", rate / triad.max(1e-12) * 100.0),
            format!("{:.2}x", rate / scalar_rate.max(1e-12)),
        ]);
    }
    Ok(table)
}

/// Runs the verify-hotpath comparison.
///
/// # Errors
/// Returns [`BenchError::NoOutlierFound`] when the workload has no
/// contextual outliers, and a [`BenchError::Service`] divergence error if
/// any engine generation disagrees with the seed engine, any kernel
/// disagrees with scalar, or the tracked-moments engine fails to scan
/// strictly fewer words per call than the rescan engine.
pub fn run(scale: &ExperimentScale) -> Result<ExperimentOutput> {
    // Tiny scales (smoke / CI) keep their size; real runs measure at
    // n >= 10k, where the acceptance numbers are defined.
    let records = if scale.salary_records < 2_000 {
        scale.salary_records
    } else {
        scale.salary_records.max(10_000)
    };
    let dataset = pcor_data::generator::salary_dataset(
        &pcor_data::generator::SalaryConfig::reduced().with_records(records),
    )?;
    let detector = ZScoreDetector::default();
    let utility = PopulationSizeUtility;
    let mut rng = ChaCha12Rng::seed_from_u64(scale.seed ^ 0xF00D);
    let outliers = pcor_core::runner::find_random_outliers(&dataset, &detector, 1, 2_000, &mut rng)
        .map_err(|_| BenchError::NoOutlierFound)?;
    let outlier_id = outliers[0].record_id;
    let origin = dataset.metric(outlier_id);
    let start = outliers[0].starting_context.clone();
    let t = dataset.schema().total_values();

    let nproc = std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1);
    let triad = crate::membw::triad_bytes_per_sec();
    let selected = kernel::selected();

    // One shared random single-bit flip sequence over the bits *outside*
    // the record's minimal context: the searches spend their budget on
    // super-contexts of `C_V` (contexts dropping one of V's own values
    // short-circuit cheaply on every engine generation), so this measures
    // the expensive, fully-verified case.
    let minimal = dataset.minimal_context(outlier_id)?;
    let free_bits: Vec<usize> = (0..t).filter(|&bit| !minimal.get(bit)).collect();
    let flips: Vec<usize> =
        (0..STEPS).map(|_| free_bits[rng.random_range(0..free_bits.len())]).collect();

    let mut table = Table::new(
        format!(
            "Verify hot path: one f_M evaluation per single-bit flip \
             (n = {records}, t = {t}, {STEPS} flips, ZScore + PopulationSize, \
             kernel = {selected})"
        ),
        &["Path", "calls/sec", "ns/call", "allocs/call", "words/call", "bytes/sec", "Speedup"],
    );

    let mut digests: Vec<Digest> = Vec::new();
    let mut words_per_path: Vec<Option<u64>> = Vec::new();
    let mut baseline_rate = 0.0f64;
    let paths: [&str; 3] =
        ["from-scratch (seed)", "incremental cursor (rescan)", "incremental moments"];
    for (index, path) in paths.iter().enumerate() {
        let started = Instant::now();
        let (outcome, allocs) = alloc_probe::counted(|| -> Result<(Digest, Option<u64>)> {
            let mut sizes = 0u64;
            let mut matches = 0u64;
            let mut words: Option<u64> = None;
            match index {
                0 => {
                    let mut context = start.clone();
                    for &bit in &flips {
                        context.flip(bit);
                        let (size, matching) =
                            seed_engine_step(&dataset, &context, outlier_id, &detector, &utility)?;
                        sizes += size as u64;
                        matches += matching as u64;
                    }
                }
                1 => {
                    let mut cursor = PopulationCursor::new(&dataset, &start)?;
                    let mut moment_words = 0u64;
                    for &bit in &flips {
                        cursor.flip(bit);
                        let (size, matching, scanned) = rescan_engine_step(
                            &dataset,
                            &mut cursor,
                            outlier_id,
                            &detector,
                            &utility,
                        );
                        sizes += size as u64;
                        matches += matching as u64;
                        moment_words += scanned;
                    }
                    words = Some(cursor.words_scanned() + moment_words);
                }
                _ => {
                    let mut cursor = PopulationCursor::new(&dataset, &start)?;
                    cursor.track_moments(origin);
                    for &bit in &flips {
                        cursor.flip(bit);
                        let (size, matching) = tracked_engine_step(
                            &dataset,
                            &mut cursor,
                            outlier_id,
                            &detector,
                            &utility,
                        );
                        sizes += size as u64;
                        matches += matching as u64;
                    }
                    words = Some(cursor.words_scanned() + cursor.moment_words_scanned());
                }
            }
            Ok((Digest { population_sizes: sizes, matching: matches }, words))
        });
        let (digest, words) = outcome?;
        let elapsed = started.elapsed().as_secs_f64();
        let rate = STEPS as f64 / elapsed.max(1e-12);
        if index == 0 {
            baseline_rate = rate;
        }
        digests.push(digest);
        words_per_path.push(words);
        // Word/byte traffic from the engines' own meters (fused pass plus
        // moment maintenance; 64-bit words, so bytes = words * 8). Only the
        // cursor engines meter their passes; the historical paths have no
        // counter and report `n/a` rather than an estimate.
        table.push_row(vec![
            path.to_string(),
            format!("{rate:.0}"),
            format!("{:.0}", elapsed * 1e9 / STEPS as f64),
            allocs
                .map(|a| format!("{:.1}", a as f64 / STEPS as f64))
                .unwrap_or_else(|| "n/a".to_string()),
            words
                .map(|w| format!("{:.1}", w as f64 / STEPS as f64))
                .unwrap_or_else(|| "n/a".to_string()),
            words
                .map(|w| format!("{:.0}", (w as f64 * 8.0) / elapsed.max(1e-12)))
                .unwrap_or_else(|| "n/a".to_string()),
            format!("{:.2}x", rate / baseline_rate.max(1e-12)),
        ]);
    }

    // Hard identity guarantee: every engine generation saw the exact same
    // populations and verdicts over the shared flip sequence. The workload
    // is fully deterministic (fixed seed, fixed generator, IEEE f64 ops in
    // a fixed order), so this check cannot flake run-to-run; it can only
    // fail if a code change introduces a genuine engine divergence — e.g. a
    // population mismatch, or a detector verdict landing within ~1 ulp of
    // its threshold where the slice and moment arithmetic legitimately
    // round apart (worth investigating, not papering over).
    for (index, digest) in digests.iter().enumerate() {
        if *digest != digests[0] {
            return Err(BenchError::Service(format!(
                "engine divergence: path `{}` disagreed with the seed engine",
                paths[index]
            )));
        }
    }

    // The point of the moment tracker: strictly less word traffic per call
    // than recomputing the moments from scratch. Deterministic for the same
    // reason as the digest check — the meters count work, not time.
    let rescan_words = words_per_path[1].expect("rescan engine meters its words");
    let tracked_words = words_per_path[2].expect("tracked engine meters its words");
    if tracked_words >= rescan_words {
        return Err(BenchError::Service(format!(
            "moment tracker regression: tracked engine scanned {tracked_words} words \
             vs {rescan_words} for the full rescan"
        )));
    }

    let kernels = kernel_microbench(scale, triad, nproc)?;
    Ok(ExperimentOutput {
        tables: vec![table, kernels],
        figures: vec![],
        environment: Some(RunEnvironment {
            nproc,
            kernel: selected.name().to_string(),
            triad_bytes_per_sec: triad,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_paths_agree_and_report_rates() {
        let scale = ExperimentScale::smoke();
        let output = run(&scale).expect("verify-hotpath experiment");
        assert_eq!(output.tables.len(), 2);
        let table = &output.tables[0];
        assert_eq!(table.rows.len(), 3);
        for row in &table.rows {
            assert_eq!(row.len(), 7);
            let rate: f64 = row[1].parse().unwrap();
            assert!(rate > 0.0, "path {} reported no throughput", row[0]);
        }
        // The cursor engines meter their words, so words/call and bytes/sec
        // must carry real positive numbers; the historical path has no
        // counter and reports `n/a`.
        for row in &table.rows[1..] {
            let words: f64 = row[4].parse().unwrap();
            assert!(words > 0.0, "path {} reported no word traffic", row[0]);
            let bytes: f64 = row[5].parse().unwrap();
            assert!(bytes > 0.0, "path {} reported no bandwidth", row[0]);
        }
        assert_eq!(table.rows[0][4], "n/a");
        assert_eq!(table.rows[0][5], "n/a");
        // The tracked-moments row scans strictly fewer words per call than
        // the rescan row (also hard-enforced inside `run`).
        let rescan: f64 = table.rows[1][4].parse().unwrap();
        let tracked: f64 = table.rows[2][4].parse().unwrap();
        assert!(tracked < rescan, "tracked {tracked} >= rescan {rescan}");
        // No wall-clock ratio assertions here: timing comparisons belong in
        // the experiment's reported output (BENCH_verify.json), not in a
        // pass/fail unit test that would flake on loaded CI runners. The
        // load-bearing correctness check — every engine generation produced
        // identical population sizes and verdicts — already ran inside
        // `run` (it returns an error on any divergence).

        // Kernel table: scalar always present, exactly one dispatched row,
        // and every bytes/sec entry is a real positive number.
        let kernels = &output.tables[1];
        assert!(kernels.rows.iter().any(|row| row[0] == "scalar"));
        assert_eq!(kernels.rows.iter().filter(|row| row[1] == "yes").count(), 1);
        for row in &kernels.rows {
            assert_eq!(row.len(), 5);
            let rate: f64 = row[2].parse().unwrap();
            assert!(rate > 0.0, "kernel {} reported no throughput", row[0]);
            assert!(row[3].ends_with('%'), "kernel {} membw column: {}", row[0], row[3]);
        }

        // Environment metadata rides along for the JSON artifact.
        let env = output.environment.as_ref().expect("environment recorded");
        assert!(env.nproc >= 1);
        assert!(env.triad_bytes_per_sec > 0.0);
        assert_eq!(env.kernel, pcor_data::kernel::selected().name());
    }
}
