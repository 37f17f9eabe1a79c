//! Algorithm 1: the direct (formulaic) application of the Exponential
//! mechanism.
//!
//! Enumerate every context, keep the matching ones (`C_M = COE_M(D, V)`), and
//! draw the released context from `C_M` with the Exponential mechanism at
//! `ε₁ = ε/2`, which yields `(2ε₁) = ε` OCDP (Theorem 4.1). The computation is
//! `O(2^t)` (Theorem 4.2) — the paper measures three days on the 51 k-record
//! salary dataset — so this algorithm exists as the exact baseline the
//! sampling algorithms are compared against, and it refuses to run above a
//! configurable `t` limit.
//!
//! One safe optimization over the literal pseudocode: only contexts that cover
//! the queried record `V` are enumerated (`2^(t-m)` of them). A context that
//! does not cover `V` can never be matching, so skipping it cannot change the
//! output distribution.

use crate::coe::CoveringSpace;
use crate::select::mechanism_draw;
use crate::verify::Verifier;
use crate::{PcorConfig, PcorError, PcorResult, Result, SamplingAlgorithm};
use pcor_data::Context;
use rand::Rng;
use std::time::Duration;

/// Runs the direct approach (Algorithm 1).
///
/// # Errors
/// * [`PcorError::TooManyAttributeValues`] when `2^t` enumeration would be
///   intractable (`t` above the configured limit, or `2^64` or more
///   contexts covering the record);
/// * [`PcorError::NoMatchingContext`] when the record is not a contextual
///   outlier;
/// * verification/mechanism errors otherwise.
pub fn run<R: Rng + ?Sized>(
    verifier: &mut Verifier<'_>,
    config: &PcorConfig,
    rng: &mut R,
) -> Result<PcorResult> {
    let t = verifier.dataset().schema().total_values();
    let space = CoveringSpace::new(t, config.enumeration_limit, || verifier.minimal_context())?;

    // Enumerate every super-context of the minimal context (all contexts that
    // cover V) and keep the matching ones.
    let mut matching: Vec<Context> = Vec::new();
    for mask in 0..space.total {
        // Memoized steps never reach the verifier's fresh-call check.
        verifier.check_cancelled()?;
        let mut context = space.minimal.clone();
        for (i, &bit) in space.free_bits.iter().enumerate() {
            if (mask >> i) & 1 == 1 {
                context.set(bit, true);
            }
        }
        if verifier.is_matching(&context)? {
            matching.push(context);
        }
    }
    if matching.is_empty() {
        return Err(PcorError::NoMatchingContext);
    }

    let mechanism = config.mechanism_kind();
    let guarantee = SamplingAlgorithm::Direct
        .guarantee(config.epsilon, config.samples)?
        .with_mechanism(mechanism);
    let (context, utility) =
        mechanism_draw(verifier, &matching, mechanism, guarantee.epsilon_per_invocation, rng)?;
    Ok(PcorResult {
        context,
        utility,
        samples_collected: matching.len(),
        verification_calls: 0,
        guarantee,
        runtime: Duration::ZERO,
        algorithm: SamplingAlgorithm::Direct,
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
                Attribute::from_values("A", &["a0", "a1"]),
                Attribute::from_values("B", &["b0", "b1", "b2"]),
            ],
            "M",
        )
        .unwrap();
        let mut records = vec![Record::new(vec![0, 0], 950.0)];
        for i in 0..60 {
            records.push(Record::new(vec![(i % 2) as u16, (i % 3) as u16], 100.0 + (i % 9) as f64));
        }
        Dataset::new(schema, records).unwrap()
    }

    #[test]
    fn direct_releases_a_matching_context() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        let config = PcorConfig::new(SamplingAlgorithm::Direct, 0.2);
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        let result = run(&mut verifier, &config, &mut rng).unwrap();
        assert!(verifier.is_matching(&result.context).unwrap());
        assert!(result.samples_collected > 0);
        assert!(result.utility > 0.0);
        assert!((result.guarantee.epsilon - 0.2).abs() < 1e-12);
        assert_eq!(result.guarantee.epsilon_per_invocation, 0.1);
    }

    #[test]
    fn direct_with_high_epsilon_finds_near_maximum_utility() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        // With a very large budget the Exponential mechanism concentrates on
        // the maximum-utility context; compare against exhaustive enumeration.
        let reference = crate::coe::enumerate_coe(&dataset, 0, &detector, &utility, 22).unwrap();
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        let config = PcorConfig::new(SamplingAlgorithm::Direct, 50.0);
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let result = run(&mut verifier, &config, &mut rng).unwrap();
        assert!((result.utility - reference.max_utility).abs() < 1e-9);
    }

    #[test]
    fn direct_refuses_oversized_schemas() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        let config = PcorConfig::new(SamplingAlgorithm::Direct, 0.2).with_enumeration_limit(3);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        assert!(matches!(
            run(&mut verifier, &config, &mut rng),
            Err(PcorError::TooManyAttributeValues { t: 5, limit: 3 })
        ));
    }

    #[test]
    fn direct_fails_for_non_outliers() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        // Record 5 is a perfectly ordinary record.
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 5);
        let config = PcorConfig::new(SamplingAlgorithm::Direct, 0.2);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        assert_eq!(run(&mut verifier, &config, &mut rng), Err(PcorError::NoMatchingContext));
    }
}
