//! Algorithm 5: differentially private breadth-first search — the paper's
//! final choice of sampling algorithm for PCOR.
//!
//! The search keeps a frontier `C_M` (a priority structure of matching
//! contexts). Each iteration draws one frontier vertex with the Exponential
//! mechanism (utility-guided), moves it to the visited set and inserts its
//! matching, unvisited children into the frontier. After `n` vertices have
//! been visited, a final Exponential-mechanism draw over the visited set
//! selects the release.
//!
//! As with DP-DFS, each of the (at most) `n` frontier draws and the final draw
//! costs `2ε₁Δu`, so the guarantee is `((2n+2)ε₁)`-OCDP (Theorem 5.7) with
//! `ε₁ = ε/(2n+2)`, and the complexity is `O(n²·t)` (Theorem 5.8) because the
//! frontier grows by up to `t` vertices per visited vertex.

use crate::select::mechanism_draw;
use crate::starting::{resolve_starting_context, DEFAULT_SEARCH_BUDGET};
use crate::verify::Verifier;
use crate::{PcorConfig, PcorResult, Result, SamplingAlgorithm};
use pcor_data::Context;
use rand::Rng;
use std::collections::HashSet;
use std::time::Duration;

/// Runs differentially private breadth-first search (Algorithm 5).
///
/// # Errors
/// * [`crate::PcorError::NoStartingContext`] when no matching starting context
///   exists;
/// * verification/mechanism errors otherwise.
pub fn run<R: Rng + ?Sized>(
    verifier: &mut Verifier<'_>,
    config: &PcorConfig,
    rng: &mut R,
) -> Result<PcorResult> {
    let start = resolve_starting_context(
        verifier,
        config.starting_context.as_ref(),
        DEFAULT_SEARCH_BUDGET,
    )?;

    let mechanism = config.mechanism_kind();
    let guarantee =
        SamplingAlgorithm::Bfs.guarantee(config.epsilon, config.samples)?.with_mechanism(mechanism);
    let epsilon1 = guarantee.epsilon_per_invocation;
    let step_mechanism = mechanism.build(epsilon1, verifier.utility().sensitivity())?;

    // The frontier C_M (treated as a priority queue keyed by utility through
    // the Exponential mechanism) and the visited set.
    let mut frontier: Vec<Context> = vec![start.clone()];
    let mut frontier_set: HashSet<Context> = HashSet::from([start]);
    let mut visited_set: HashSet<Context> = HashSet::new();
    let mut visited: Vec<Context> = Vec::new();

    while visited.len() < config.samples && !frontier.is_empty() {
        // Memoized steps never reach the verifier's fresh-call check.
        verifier.check_cancelled()?;
        // Draw the next vertex to expand from the frontier.
        let mut scores = Vec::with_capacity(frontier.len());
        for candidate in &frontier {
            scores.push(verifier.evaluate(candidate)?.utility);
        }
        let index = {
            let mut erased: &mut R = rng;
            step_mechanism.select(&scores, &mut erased)?
        };
        let current = frontier.swap_remove(index);
        frontier_set.remove(&current);
        visited_set.insert(current.clone());
        visited.push(current.clone());

        // Insert the matching, unvisited children into the frontier. The
        // whole neighbor frontier shares one batched cursor walk; children
        // already visited or queued are cache hits, not fresh `f_M` calls.
        let neighbor_evals = verifier.evaluate_neighbors(&current)?;
        for (bit, evaluation) in neighbor_evals.iter().enumerate() {
            if !evaluation.matching {
                continue;
            }
            let child = current.with_flipped(bit);
            if visited_set.contains(&child) || frontier_set.contains(&child) {
                continue;
            }
            frontier_set.insert(child.clone());
            frontier.push(child);
        }
    }

    let (context, utility) = mechanism_draw(verifier, &visited, mechanism, epsilon1, rng)?;
    Ok(PcorResult {
        context,
        utility,
        samples_collected: visited.len(),
        verification_calls: 0,
        guarantee,
        runtime: Duration::ZERO,
        algorithm: SamplingAlgorithm::Bfs,
        mechanism,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcor_data::{Attribute, Dataset, Record, Schema};
    use pcor_dp::{OverlapUtility, PopulationSizeUtility};
    use pcor_outlier::ZScoreDetector;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn dataset() -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_values("A", &["a0", "a1", "a2"]),
                Attribute::from_values("B", &["b0", "b1", "b2"]),
            ],
            "M",
        )
        .unwrap();
        let mut records = vec![Record::new(vec![0, 0], 2_000.0)];
        for i in 0..120 {
            records.push(Record::new(
                vec![(i % 3) as u16, ((i / 3) % 3) as u16],
                100.0 + (i % 11) as f64,
            ));
        }
        Dataset::new(schema, records).unwrap()
    }

    #[test]
    fn bfs_releases_a_matching_context_with_split_budget() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        let config = PcorConfig::new(SamplingAlgorithm::Bfs, 0.2).with_samples(12);
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let result = run(&mut verifier, &config, &mut rng).unwrap();
        assert!(verifier.is_matching(&result.context).unwrap());
        assert!(result.samples_collected >= 1 && result.samples_collected <= 12);
        assert!((result.guarantee.epsilon_per_invocation - 0.2 / 26.0).abs() < 1e-12);
    }

    #[test]
    fn bfs_reaches_high_utility_relative_to_the_maximum() {
        // The paper reports ~0.9 utility ratio for BFS at eps = 0.2 with
        // n = 50 on a much larger context graph. On this toy workload the
        // per-step budget is tiny, so use a somewhat larger budget and check
        // BFS clears a comfortable fraction of the maximum utility on average.
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let reference = crate::coe::enumerate_coe(&dataset, 0, &detector, &utility, 22).unwrap();
        let max = reference.max_utility;
        let mut rng = ChaCha12Rng::seed_from_u64(123);
        let mut total_ratio = 0.0;
        let reps = 10;
        for _ in 0..reps {
            let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
            let config = PcorConfig::new(SamplingAlgorithm::Bfs, 1.0).with_samples(15);
            total_ratio += run(&mut verifier, &config, &mut rng).unwrap().utility / max;
        }
        let avg = total_ratio / reps as f64;
        assert!(avg > 0.5, "average BFS utility ratio {avg} too low");
    }

    #[test]
    fn bfs_works_with_the_overlap_utility() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let starting = dataset.minimal_context(0).unwrap();
        let utility = OverlapUtility::new(&dataset, starting.clone()).unwrap();
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        let config = PcorConfig::new(SamplingAlgorithm::Bfs, 0.2)
            .with_samples(10)
            .with_starting_context(starting);
        let mut rng = ChaCha12Rng::seed_from_u64(31);
        let result = run(&mut verifier, &config, &mut rng).unwrap();
        assert!(verifier.is_matching(&result.context).unwrap());
        // The overlap with the starting context is at most its population.
        assert!(result.utility <= utility.starting_population_size() as f64);
    }

    #[test]
    fn bfs_never_visits_a_context_twice() {
        // Rerun the BFS loop manually and check visited uniqueness.
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        let config = PcorConfig::new(SamplingAlgorithm::Bfs, 0.2).with_samples(20);
        let mut rng = ChaCha12Rng::seed_from_u64(55);
        let result = run(&mut verifier, &config, &mut rng).unwrap();
        // samples_collected counts distinct visited contexts by construction;
        // verify it does not exceed the number of distinct contexts evaluated.
        assert!(result.samples_collected <= verifier.distinct_contexts());
    }

    #[test]
    fn non_outlier_record_has_no_starting_context() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 50);
        let config = PcorConfig::new(SamplingAlgorithm::Bfs, 0.2);
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        assert_eq!(run(&mut verifier, &config, &mut rng), Err(crate::PcorError::NoStartingContext));
    }
}
