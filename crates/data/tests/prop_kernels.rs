//! Property-based tests of the fused AND+popcount kernels and the
//! incremental moment tracker.
//!
//! Every SIMD kernel must be bit-identical — result bitmap words *and*
//! returned count — to the scalar reference on arbitrary word streams,
//! including empty inputs, single words, and tails that are not a multiple
//! of any vector width. The moment tracker must agree with the from-scratch
//! `Dataset::population_metric_moments` over long random flip sequences with
//! adversarial metric magnitudes, with the drift-bound refresh exercised
//! across forced boundaries.

use pcor_data::kernel::{scalar_pass, KernelKind};
use pcor_data::{Attribute, Context, Dataset, PopulationCursor, Record, RecordBitmap, Schema};
use proptest::prelude::*;

/// Builds a bitmap of `words` words filled from a seeded PRNG.
fn seeded_bitmap(words: usize, seed: u64) -> RecordBitmap {
    let mut bitmap = RecordBitmap::new(words * 64);
    let mut state = seed;
    for w in bitmap.words_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *w = state;
    }
    bitmap
}

/// Strategy: word-stream shapes that hit every tail case — empty, one word,
/// below/at/just-past the 4- and 8-word vector widths, and longer ragged
/// streams.
fn words_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(2usize),
        Just(3usize),
        Just(4usize),
        Just(5usize),
        Just(7usize),
        Just(8usize),
        Just(9usize),
        4usize..48,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bitmap and count identity of every supported kernel against the
    /// scalar reference, over random word streams, random attribute counts
    /// and random chunk offsets (`lo`).
    #[test]
    fn kernels_are_bit_identical_to_scalar(
        words in words_strategy(),
        attrs in 0usize..4,
        lo_words in 0usize..3,
        seed in any::<u64>(),
    ) {
        let first = seeded_bitmap(words, seed);
        // `rest` bitmaps are indexed at `lo + k`, so they carry `lo` extra
        // leading words — the shape a chunked pass hands the kernel.
        let rest: Vec<RecordBitmap> = (0..attrs)
            .map(|i| seeded_bitmap(lo_words + words, seed ^ (i as u64 + 1).wrapping_mul(0xA5A5)))
            .collect();
        let mut expected_out = vec![0u64; words];
        let expected =
            scalar_pass(first.words(), &rest, &mut expected_out, lo_words);
        for kind in KernelKind::supported() {
            let mut out = vec![u64::MAX; words];
            let got = kind.func()(first.words(), &rest, &mut out, lo_words);
            prop_assert_eq!(got, expected, "{} count diverged", kind);
            prop_assert_eq!(&out, &expected_out, "{} bitmap diverged", kind);
        }
    }

    /// The incremental moment tracker agrees with the from-scratch shifted
    /// one-pass over long random flip sequences, for adversarial metric
    /// magnitudes (large common offset, small spread — maximal cancellation)
    /// and for refresh intervals small enough that the walk crosses several
    /// forced refresh boundaries.
    #[test]
    fn tracked_moments_agree_with_from_scratch(
        domains in proptest::collection::vec(2usize..=4, 2..=3),
        n in 30usize..150,
        offset_pow in 0u32..10,
        refresh_every in 1u32..8,
        seed in any::<u64>(),
    ) {
        let attributes = domains
            .iter()
            .enumerate()
            .map(|(i, &size)| {
                Attribute::new(format!("A{i}"), (0..size).map(|v| format!("v{v}")).collect())
                    .unwrap()
            })
            .collect();
        let schema = Schema::new(attributes, "M").unwrap();
        // Metric = big offset + tiny jitter: the worst case for naive
        // accumulation of Σx and Σx², which is exactly what the origin
        // shift + Neumaier compensation must survive.
        let offset = 10f64.powi(offset_pow as i32);
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let records: Vec<Record> = (0..n)
            .map(|_| {
                let values: Vec<u16> = (0..schema.num_attributes())
                    .map(|attr| (next() % schema.attribute(attr).domain_size()) as u16)
                    .collect();
                Record::new(values, offset + (next() % 1000) as f64 / 100.0)
            })
            .collect();
        let dataset = Dataset::new(schema, records).unwrap();
        let t = dataset.schema().total_values();
        let origin = dataset.metric(next() % n);

        let mut cursor = PopulationCursor::new(&dataset, &Context::full(t)).unwrap();
        cursor.track_moments_every(origin, refresh_every);
        let mut flip_state = seed ^ 0x5DEECE66D;
        for step in 0..64 {
            flip_state = flip_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            cursor.flip((flip_state >> 33) as usize % t);
            let (sum, sum_sq_dev) = cursor.moments();
            let (expected_sum, expected_sq) =
                dataset.population_metric_moments(cursor.population(), origin);
            let tol = 1e-9 * expected_sum.abs().max(1.0);
            prop_assert!(
                (sum - expected_sum).abs() <= tol,
                "step {}: sum {} vs {}", step, sum, expected_sum
            );
            let tol = 1e-9 * expected_sq.abs().max(1.0);
            prop_assert!(
                (sum_sq_dev - expected_sq).abs() <= tol,
                "step {}: sum_sq_dev {} vs {}", step, sum_sq_dev, expected_sq
            );
        }
        // 64 syncs at interval < 8 crossed a refresh boundary several times
        // (the first sync is always a full rescan, later ones are deltas).
        prop_assert!(cursor.moment_full_refreshes() >= 64 / u64::from(refresh_every + 1));
        if refresh_every > 1 {
            prop_assert!(cursor.moment_delta_syncs() > 0);
        }
    }
}
