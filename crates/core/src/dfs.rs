//! Algorithm 4: differentially private depth-first search.
//!
//! Ordinary DFS is deterministic, so it cannot satisfy differential privacy
//! (an output that is certain under `D₁` may be impossible under `D₂`). The
//! paper's modification replaces the arbitrary "next child" choice with an
//! Exponential-mechanism draw over the matching, unvisited children, guided by
//! the utility function. The search maintains a stack; when the top vertex has
//! no eligible children it is popped, otherwise one child is drawn and pushed.
//! After `n` vertices have been visited, a final Exponential-mechanism draw
//! over the visited set selects the release.
//!
//! Each of the (at most) `n` expansion draws and the final draw costs `2ε₁Δu`,
//! so the total guarantee is `((2n+2)ε₁)`-OCDP (Theorem 5.5) and PCOR sets
//! `ε₁ = ε/(2n+2)` to spend exactly the configured budget. The complexity is
//! `O(n·t)` (Theorem 5.6).

use crate::select::mechanism_draw;
use crate::starting::{resolve_starting_context, DEFAULT_SEARCH_BUDGET};
use crate::verify::Verifier;
use crate::{PcorConfig, PcorResult, Result, SamplingAlgorithm};
use pcor_data::Context;
use rand::Rng;
use std::collections::HashSet;
use std::time::Duration;

/// Runs differentially private depth-first search (Algorithm 4).
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
        SamplingAlgorithm::Dfs.guarantee(config.epsilon, config.samples)?.with_mechanism(mechanism);
    let epsilon1 = guarantee.epsilon_per_invocation;
    let step_mechanism = mechanism.build(epsilon1, verifier.utility().sensitivity())?;

    let mut stack: Vec<Context> = vec![start.clone()];
    let mut visited_set: HashSet<Context> = HashSet::new();
    let mut visited: Vec<Context> = Vec::new();

    while visited.len() < config.samples && !stack.is_empty() {
        // Memoized steps never reach the verifier's fresh-call check.
        verifier.check_cancelled()?;
        let current = stack.last().expect("stack checked non-empty").clone();
        if visited_set.insert(current.clone()) {
            visited.push(current.clone());
        }

        // Generate the matching, unvisited children of the current vertex in
        // one batched cursor walk (visited children are cache hits).
        let mut children: Vec<Context> = Vec::new();
        let mut child_scores: Vec<f64> = Vec::new();
        let neighbor_evals = verifier.evaluate_neighbors(&current)?;
        for (bit, evaluation) in neighbor_evals.iter().enumerate() {
            if !evaluation.matching {
                continue;
            }
            let child = current.with_flipped(bit);
            if visited_set.contains(&child) {
                continue;
            }
            children.push(child);
            child_scores.push(evaluation.utility);
        }

        if children.is_empty() {
            stack.pop();
        } else {
            // The utility-guided, differentially private child selection.
            let mut erased: &mut R = rng;
            let index = step_mechanism.select(&child_scores, &mut erased)?;
            stack.push(children.swap_remove(index));
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
        algorithm: SamplingAlgorithm::Dfs,
        mechanism,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcor_data::{Attribute, Dataset, Record, Schema};
    use pcor_dp::PopulationSizeUtility;
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
    fn dfs_releases_a_matching_context_with_split_budget() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        let config = PcorConfig::new(SamplingAlgorithm::Dfs, 0.2).with_samples(12);
        let mut rng = ChaCha12Rng::seed_from_u64(42);
        let result = run(&mut verifier, &config, &mut rng).unwrap();
        assert!(verifier.is_matching(&result.context).unwrap());
        assert!(result.samples_collected >= 1 && result.samples_collected <= 12);
        assert!((result.guarantee.epsilon_per_invocation - 0.2 / 26.0).abs() < 1e-12);
        assert!((result.guarantee.epsilon - 0.2).abs() < 1e-12);
    }

    #[test]
    fn dfs_visits_at_most_n_contexts() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        let config = PcorConfig::new(SamplingAlgorithm::Dfs, 0.2).with_samples(3);
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let result = run(&mut verifier, &config, &mut rng).unwrap();
        assert!(result.samples_collected <= 3);
    }

    #[test]
    fn dfs_utility_tends_to_beat_random_walk() {
        // The paper's headline comparison: utility-guided DFS reaches higher
        // utility than the blind random walk on average. Check on this small
        // workload over a handful of repetitions (both normalized by the true
        // maximum from exhaustive enumeration).
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let reference = crate::coe::enumerate_coe(&dataset, 0, &detector, &utility, 22).unwrap();
        let max = reference.max_utility;
        // At the paper's eps = 0.2 the per-step guidance is almost uniform on
        // a toy graph, so use a larger budget where the utility-guided
        // expansion is visible above run-to-run noise.
        let mut rng = ChaCha12Rng::seed_from_u64(2024);
        let mut dfs_total = 0.0;
        let mut walk_total = 0.0;
        for _ in 0..15 {
            let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
            let config = PcorConfig::new(SamplingAlgorithm::Dfs, 2.0).with_samples(10);
            dfs_total += run(&mut verifier, &config, &mut rng).unwrap().utility / max;

            let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
            let config = PcorConfig::new(SamplingAlgorithm::RandomWalk, 2.0).with_samples(10);
            walk_total +=
                crate::random_walk::run(&mut verifier, &config, &mut rng).unwrap().utility / max;
        }
        assert!(
            dfs_total >= walk_total * 0.9,
            "DFS utility {dfs_total} should not trail random walk {walk_total} by much"
        );
    }

    #[test]
    fn non_outlier_record_has_no_starting_context() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 50);
        let config = PcorConfig::new(SamplingAlgorithm::Dfs, 0.2);
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        assert_eq!(run(&mut verifier, &config, &mut rng), Err(crate::PcorError::NoStartingContext));
    }
}
