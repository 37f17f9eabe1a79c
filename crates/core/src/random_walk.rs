//! Algorithm 3: random-walk sampling over the context graph.
//!
//! The walk starts at the outlier's starting context `C_V` and repeatedly
//! moves to a uniformly chosen *matching* neighbor (trying the `t` neighbors
//! without replacement). Each visited matching context joins the sample
//! multiset `C_M`; when `n` samples have been collected (or the walk gets
//! stuck with no matching neighbor) the release is drawn from `C_M` with the
//! Exponential mechanism at `ε₁ = ε/2` (Theorem 5.3: `(2ε₁) = ε` OCDP). The
//! complexity is `O(n·t)` (Theorem 5.4) — linear where uniform sampling was
//! exponential — because the walk exploits the *locality* of matching
//! contexts in the graph.

use crate::select::mechanism_draw;
use crate::starting::{resolve_starting_context, DEFAULT_SEARCH_BUDGET};
use crate::verify::Verifier;
use crate::{PcorConfig, PcorResult, Result, SamplingAlgorithm};
use pcor_data::Context;
use rand::seq::SliceRandom;
use rand::Rng;
use std::time::Duration;

/// Runs random-walk sampling (Algorithm 3).
///
/// # Errors
/// * [`crate::PcorError::NoStartingContext`] when no matching starting
///   context exists;
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
    let t = start.len();

    let mut samples: Vec<Context> = vec![start.clone()];
    let mut current = start;
    'walk: while samples.len() < config.samples {
        // Memoized steps never reach the verifier's fresh-call check.
        verifier.check_cancelled()?;
        // Try the t connected contexts in random order, without replacement.
        let mut bits: Vec<usize> = (0..t).collect();
        bits.shuffle(rng);
        for bit in bits {
            let candidate = current.with_flipped(bit);
            if verifier.is_matching(&candidate)? {
                samples.push(candidate.clone());
                current = candidate;
                continue 'walk;
            }
        }
        // No matching neighbor: the walk is stuck and the sampling phase ends.
        break;
    }

    let mechanism = config.mechanism_kind();
    let guarantee = SamplingAlgorithm::RandomWalk
        .guarantee(config.epsilon, config.samples)?
        .with_mechanism(mechanism);
    let (context, utility) =
        mechanism_draw(verifier, &samples, mechanism, guarantee.epsilon_per_invocation, rng)?;
    Ok(PcorResult {
        context,
        utility,
        samples_collected: samples.len(),
        verification_calls: 0,
        guarantee,
        runtime: Duration::ZERO,
        algorithm: SamplingAlgorithm::RandomWalk,
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
    fn random_walk_releases_a_matching_context() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        let config = PcorConfig::new(SamplingAlgorithm::RandomWalk, 0.2).with_samples(15);
        let mut rng = ChaCha12Rng::seed_from_u64(77);
        let result = run(&mut verifier, &config, &mut rng).unwrap();
        assert!(verifier.is_matching(&result.context).unwrap());
        assert!(result.samples_collected >= 1);
        assert!(result.samples_collected <= 15);
        assert_eq!(result.guarantee.epsilon_per_invocation, 0.1);
    }

    #[test]
    fn walk_path_consists_of_connected_matching_contexts() {
        // Re-run the core walk logic manually to inspect the path: every
        // consecutive pair must be Hamming-distance 1 and every sample must
        // match. (The public API intentionally only exposes the final draw.)
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        let start = crate::starting::find_starting_context(&mut verifier, 5_000).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(13);
        let mut samples = vec![start.clone()];
        let mut current = start;
        'walk: while samples.len() < 10 {
            let mut bits: Vec<usize> = (0..6).collect();
            bits.shuffle(&mut rng);
            for bit in bits {
                let candidate = current.with_flipped(bit);
                if verifier.is_matching(&candidate).unwrap() {
                    samples.push(candidate.clone());
                    current = candidate;
                    continue 'walk;
                }
            }
            break;
        }
        for pair in samples.windows(2) {
            assert_eq!(pair[0].hamming_distance(&pair[1]), 1);
        }
        for s in &samples {
            assert!(verifier.is_matching(s).unwrap());
        }
    }

    #[test]
    fn non_outlier_record_yields_no_starting_context() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 30);
        let config = PcorConfig::new(SamplingAlgorithm::RandomWalk, 0.2);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        assert_eq!(run(&mut verifier, &config, &mut rng), Err(crate::PcorError::NoStartingContext));
    }

    #[test]
    fn explicit_starting_context_is_used() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        let start = dataset.minimal_context(0).unwrap();
        assert!(verifier.is_matching(&start).unwrap());
        let config = PcorConfig::new(SamplingAlgorithm::RandomWalk, 0.2)
            .with_samples(5)
            .with_starting_context(start);
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let result = run(&mut verifier, &config, &mut rng).unwrap();
        assert!(verifier.is_matching(&result.context).unwrap());
    }
}
