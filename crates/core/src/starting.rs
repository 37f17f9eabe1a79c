//! Discovering a starting context `C_V`.
//!
//! The graph-based samplers (random walk, DP-DFS, DP-BFS) assume the data
//! owner already knows *one* valid context for the queried record ("The data
//! owner can obtain this context through an initial search", footnote 5 of
//! the paper). This module implements that initial search: starting from the
//! record's *minimal* context (exactly its own attribute values) it explores
//! super-contexts in breadth-first order until it finds one in which the
//! record is an outlier.
//!
//! Only bits **outside** the minimal context are ever added: any context that
//! covers `V` must contain all of `V`'s own value bits, so the search space is
//! the `2^(t-m)` super-contexts of the minimal context rather than all `2^t`
//! contexts.

use crate::verify::Verifier;
use crate::{PcorError, Result};
use pcor_data::Context;
use std::collections::{HashSet, VecDeque};

/// Default cap on the number of contexts examined by the starting-context
/// search.
pub const DEFAULT_SEARCH_BUDGET: usize = 5_000;

/// Finds a starting (matching) context for the verifier's record, examining at
/// most `budget` contexts.
///
/// The search proceeds in breadth-first order from the minimal context, so the
/// returned context is one with as few extra predicates as possible — a small,
/// specific neighborhood around the record, which is the natural seed for the
/// graph samplers.
///
/// # Errors
/// Returns [`PcorError::NoStartingContext`] when no matching context is found
/// within the budget.
pub fn find_starting_context(verifier: &mut Verifier<'_>, budget: usize) -> Result<Context> {
    let minimal = verifier.minimal_context()?;
    if verifier.is_matching(&minimal)? {
        return Ok(minimal);
    }
    let t = minimal.len();
    let free_bits: Vec<usize> = (0..t).filter(|&bit| !minimal.get(bit)).collect();

    let mut visited: HashSet<Context> = HashSet::new();
    let mut queue: VecDeque<Context> = VecDeque::new();
    visited.insert(minimal.clone());
    queue.push_back(minimal);

    let mut examined = 1usize;
    while let Some(current) = queue.pop_front() {
        // Memoized steps never reach the verifier's fresh-call check.
        verifier.check_cancelled()?;
        for &bit in &free_bits {
            if current.get(bit) {
                continue;
            }
            let candidate = current.with_flipped(bit);
            if !visited.insert(candidate.clone()) {
                continue;
            }
            examined += 1;
            if verifier.is_matching(&candidate)? {
                return Ok(candidate);
            }
            if examined >= budget {
                return Err(PcorError::NoStartingContext);
            }
            queue.push_back(candidate);
        }
    }
    Err(PcorError::NoStartingContext)
}

/// Resolves the starting context for a release: uses the explicitly configured
/// context when present (after checking it is matching), otherwise searches
/// for one.
///
/// # Errors
/// Returns [`PcorError::InvalidConfig`] if an explicitly supplied starting
/// context is not a matching context, or [`PcorError::NoStartingContext`] if
/// the search fails.
pub fn resolve_starting_context(
    verifier: &mut Verifier<'_>,
    configured: Option<&Context>,
    budget: usize,
) -> Result<Context> {
    match configured {
        Some(context) => {
            if verifier.is_matching(context)? {
                Ok(context.clone())
            } else {
                Err(PcorError::InvalidConfig(
                    "the configured starting context is not a matching context for the record"
                        .into(),
                ))
            }
        }
        None => find_starting_context(verifier, budget),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcor_data::{Attribute, Dataset, Record, Schema};
    use pcor_dp::PopulationSizeUtility;
    use pcor_outlier::ZScoreDetector;

    fn schema() -> Schema {
        Schema::new(
            vec![
                Attribute::from_values("A", &["a0", "a1"]),
                Attribute::from_values("B", &["b0", "b1", "b2"]),
            ],
            "M",
        )
        .unwrap()
    }

    /// Record 0 is extreme within (a0, b0) and moderately extreme in wider
    /// contexts too.
    fn dataset_with_local_outlier() -> Dataset {
        let mut records = vec![Record::new(vec![0, 0], 900.0)];
        for i in 0..20 {
            records.push(Record::new(vec![0, 0], 100.0 + i as f64));
            records.push(Record::new(vec![0, 1], 110.0 + i as f64));
            records.push(Record::new(vec![1, 2], 120.0 + i as f64));
        }
        Dataset::new(schema(), records).unwrap()
    }

    /// No record is an outlier anywhere: constant metric.
    fn flat_dataset() -> Dataset {
        let records =
            (0..30).map(|i| Record::new(vec![(i % 2) as u16, (i % 3) as u16], 100.0)).collect();
        Dataset::new(schema(), records).unwrap()
    }

    #[test]
    fn minimal_context_is_returned_when_it_matches() {
        let dataset = dataset_with_local_outlier();
        let detector = ZScoreDetector::new(2.0);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        let start = find_starting_context(&mut verifier, DEFAULT_SEARCH_BUDGET).unwrap();
        assert_eq!(start, dataset.minimal_context(0).unwrap());
        assert!(verifier.is_matching(&start).unwrap());
    }

    #[test]
    fn search_expands_when_the_minimal_context_is_too_small() {
        // Make the detector require a larger population: LOF-style detectors
        // need more points; emulate with a z-score detector and a dataset
        // where the record's own cell has only the record itself plus one.
        let schema = schema();
        let mut records = vec![Record::new(vec![0, 0], 900.0), Record::new(vec![0, 0], 100.0)];
        for i in 0..30 {
            records.push(Record::new(vec![0, 1], 100.0 + (i % 5) as f64));
        }
        let dataset = Dataset::new(schema, records).unwrap();
        let detector = ZScoreDetector::new(2.0);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        // Minimal context has population 2 -> z-score detector cannot flag
        // anything (needs >= 3); the search must add the b1 value.
        let minimal = dataset.minimal_context(0).unwrap();
        assert!(!verifier.is_matching(&minimal).unwrap());
        let start = find_starting_context(&mut verifier, DEFAULT_SEARCH_BUDGET).unwrap();
        assert!(verifier.is_matching(&start).unwrap());
        assert!(start.hamming_weight() > minimal.hamming_weight());
        // All of the record's own bits are still selected.
        for bit in minimal.ones() {
            assert!(start.get(bit));
        }
    }

    #[test]
    fn no_starting_context_for_a_non_outlier() {
        let dataset = flat_dataset();
        let detector = ZScoreDetector::new(2.0);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 5);
        assert_eq!(
            find_starting_context(&mut verifier, DEFAULT_SEARCH_BUDGET),
            Err(PcorError::NoStartingContext)
        );
    }

    #[test]
    fn tiny_budget_gives_up() {
        let dataset = flat_dataset();
        let detector = ZScoreDetector::new(2.0);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 5);
        assert_eq!(find_starting_context(&mut verifier, 2), Err(PcorError::NoStartingContext));
    }

    #[test]
    fn resolve_prefers_a_valid_configured_context() {
        let dataset = dataset_with_local_outlier();
        let detector = ZScoreDetector::new(2.0);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        let configured = dataset.minimal_context(0).unwrap();
        let resolved =
            resolve_starting_context(&mut verifier, Some(&configured), DEFAULT_SEARCH_BUDGET)
                .unwrap();
        assert_eq!(resolved, configured);
        // A non-matching configured context is rejected.
        let bad = Context::from_indices(5, [1, 4]);
        assert!(matches!(
            resolve_starting_context(&mut verifier, Some(&bad), DEFAULT_SEARCH_BUDGET),
            Err(PcorError::InvalidConfig(_))
        ));
        // Without a configured context the search runs.
        let searched =
            resolve_starting_context(&mut verifier, None, DEFAULT_SEARCH_BUDGET).unwrap();
        assert!(verifier.is_matching(&searched).unwrap());
    }
}
