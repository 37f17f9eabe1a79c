//! Property-based tests of the incremental population engine: the cursor
//! must be bit-identical to the from-scratch `Dataset::population` for any
//! dataset, any context and any flip sequence.

use pcor_data::{Attribute, Context, Dataset, PopulationCursor, Record, Schema};
use proptest::prelude::*;

/// Strategy: a small random schema (2–4 attributes, domains of 2–5 values).
fn schema_strategy() -> impl Strategy<Value = Schema> {
    proptest::collection::vec(2usize..=5, 2..=4).prop_map(|domains| {
        let attributes = domains
            .iter()
            .enumerate()
            .map(|(i, &size)| {
                Attribute::new(format!("A{i}"), (0..size).map(|v| format!("v{v}")).collect())
                    .unwrap()
            })
            .collect();
        Schema::new(attributes, "M").unwrap()
    })
}

/// Strategy: a dataset over a random schema with 20–200 records (several
/// bitmap words).
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (schema_strategy(), 20usize..200, any::<u64>()).prop_map(|(schema, n, seed)| {
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
                Record::new(values, 100.0 + (next() % 1000) as f64)
            })
            .collect();
        Dataset::new(schema, records).unwrap()
    })
}

/// Builds a deterministic pseudo-random context from a seed.
fn seeded_context(t: usize, seed: u64) -> Context {
    let mut context = Context::empty(t);
    let mut state = seed;
    for i in 0..t {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
        if (state >> 41) & 1 == 1 {
            context.set(i, true);
        }
    }
    context
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After ANY sequence of random single-bit flips, the cursor's population
    /// bitmap and popcount equal a from-scratch `Dataset::population` of the
    /// same context at every step.
    #[test]
    fn cursor_tracks_from_scratch_population_under_random_flips(
        dataset in dataset_strategy(),
        start_seed in any::<u64>(),
        flip_seed in any::<u64>(),
        flips in 1usize..60,
    ) {
        let t = dataset.schema().total_values();
        let start = seeded_context(t, start_seed);
        let mut serial = PopulationCursor::new(&dataset, &start).unwrap();
        let mut reference = start;
        let mut state = flip_seed;
        for _ in 0..flips {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let bit = (state >> 33) as usize % t;
            serial.flip(bit);
            reference.flip(bit);
            let expected = dataset.population(&reference).unwrap();
            prop_assert_eq!(serial.population(), &expected);
            prop_assert_eq!(serial.population_size(), expected.count());
        }
    }

    /// `move_to` (arbitrary jumps) lands on the same population as a freshly
    /// positioned cursor and as the from-scratch evaluation.
    #[test]
    fn cursor_move_to_equals_fresh_cursor(
        dataset in dataset_strategy(),
        from_seed in any::<u64>(),
        to_seed in any::<u64>(),
    ) {
        let t = dataset.schema().total_values();
        let from = seeded_context(t, from_seed);
        let to = seeded_context(t, to_seed);
        let mut moved = PopulationCursor::new(&dataset, &from).unwrap();
        moved.move_to(&to).unwrap();
        let expected = dataset.population(&to).unwrap();
        prop_assert_eq!(moved.population(), &expected);
        prop_assert_eq!(moved.context(), &to);
    }

    /// The fused allocation-free `population_size` agrees with materializing
    /// the population and counting it.
    #[test]
    fn fused_population_size_matches_materialized_count(
        dataset in dataset_strategy(),
        seed in any::<u64>(),
    ) {
        let t = dataset.schema().total_values();
        let context = seeded_context(t, seed);
        prop_assert_eq!(
            dataset.population_size(&context).unwrap(),
            dataset.population(&context).unwrap().count()
        );
    }

    /// The record-bit-index `covers` agrees with the context-side
    /// per-attribute scan for every record.
    #[test]
    fn covers_matches_context_covers(
        dataset in dataset_strategy(),
        seed in any::<u64>(),
    ) {
        let t = dataset.schema().total_values();
        let context = seeded_context(t, seed);
        for id in 0..dataset.len() {
            let expected = context
                .covers(dataset.schema(), dataset.record(id).values())
                .unwrap();
            prop_assert_eq!(dataset.covers(&context, id).unwrap(), expected);
        }
    }

    /// Metric moments accumulated over the population bitmap (shifted
    /// one-pass around an in-population origin) agree with the two-pass
    /// mean-then-deviations computation over the gathered metrics slice.
    #[test]
    fn population_moments_match_gathered_metrics(
        dataset in dataset_strategy(),
        seed in any::<u64>(),
    ) {
        let t = dataset.schema().total_values();
        let context = seeded_context(t, seed);
        let population = dataset.population(&context).unwrap();
        let metrics = dataset.population_metrics(&context).unwrap();
        // The engine always shifts by a member of the population.
        let origin = metrics.first().copied().unwrap_or(0.0);
        let (sum, sum_sq_dev) = dataset.population_metric_moments(&population, origin);
        let expected_sum: f64 = metrics.iter().sum();
        prop_assert!((sum - expected_sum).abs() <= 1e-9 * expected_sum.abs().max(1.0));
        if !metrics.is_empty() {
            let mean = expected_sum / metrics.len() as f64;
            let expected_sum_sq_dev: f64 =
                metrics.iter().map(|x| (x - mean) * (x - mean)).sum();
            prop_assert!(
                (sum_sq_dev - expected_sum_sq_dev).abs()
                    <= 1e-9 * expected_sum_sq_dev.abs().max(1.0)
            );
        }
    }
}
