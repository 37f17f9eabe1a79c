//! Algorithm 2: uniform sampling prior to the Exponential mechanism.
//!
//! Contexts are drawn uniformly at random (every bit set independently with
//! probability `p = 1/2`) until `n` matching contexts have been collected,
//! then the release is drawn from those samples with the Exponential mechanism
//! at `ε₁ = ε/2` (Theorem 5.1 gives `(2ε₁) = ε` OCDP). The expected number of
//! draws to find one matching context is `2^t / N` where `N` is the number of
//! matching contexts (Theorem 5.2) — uniform sampling does not actually escape
//! the exponential cost, which is exactly why the paper moves on to
//! graph-based sampling. A configurable attempt cap keeps the reproduction
//! from spinning forever on workloads where matching contexts are rare.

use crate::select::mechanism_draw;
use crate::verify::Verifier;
use crate::{PcorConfig, PcorError, PcorResult, Result, SamplingAlgorithm};
use pcor_data::Context;
use pcor_graph::ContextGraph;
use rand::Rng;
use std::time::Duration;

/// Runs uniform sampling (Algorithm 2).
///
/// # Errors
/// * [`PcorError::NoSamples`] when the attempt cap is exhausted before any
///   matching context is found;
/// * verification/mechanism errors otherwise.
pub fn run<R: Rng + ?Sized>(
    verifier: &mut Verifier<'_>,
    config: &PcorConfig,
    rng: &mut R,
) -> Result<PcorResult> {
    let t = verifier.dataset().schema().total_values();
    let graph = ContextGraph::new(t);

    let mut samples: Vec<Context> = Vec::with_capacity(config.samples);
    let mut attempts = 0usize;
    while samples.len() < config.samples && attempts < config.max_attempts {
        attempts += 1;
        // Memoized draws never reach the verifier's fresh-call check.
        verifier.check_cancelled()?;
        let candidate = graph.random_vertex(0.5, rng);
        if verifier.is_matching(&candidate)? {
            samples.push(candidate);
        }
    }
    if samples.is_empty() {
        return Err(PcorError::NoSamples);
    }

    let mechanism = config.mechanism_kind();
    let guarantee = SamplingAlgorithm::Uniform
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
        algorithm: SamplingAlgorithm::Uniform,
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

    /// Small schema (t = 5) so that matching contexts are reasonably dense and
    /// uniform sampling terminates quickly in tests.
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
    fn uniform_sampling_releases_a_matching_context() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        let config = PcorConfig::new(SamplingAlgorithm::Uniform, 0.2).with_samples(10);
        let mut rng = ChaCha12Rng::seed_from_u64(21);
        let result = run(&mut verifier, &config, &mut rng).unwrap();
        assert!(verifier.is_matching(&result.context).unwrap());
        assert_eq!(result.samples_collected, 10);
        assert_eq!(result.guarantee.epsilon_per_invocation, 0.1);
    }

    #[test]
    fn attempt_cap_limits_work_and_may_yield_partial_samples() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        // A tiny attempt budget: either we get a few samples or an error, but
        // never more verification calls than the cap.
        let config =
            PcorConfig::new(SamplingAlgorithm::Uniform, 0.2).with_samples(50).with_max_attempts(20);
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        match run(&mut verifier, &config, &mut rng) {
            Ok(result) => assert!(result.samples_collected <= 20),
            Err(PcorError::NoSamples) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
        assert!(verifier.calls() <= 21);
    }

    #[test]
    fn non_outlier_records_produce_no_samples() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 3);
        let config =
            PcorConfig::new(SamplingAlgorithm::Uniform, 0.2).with_samples(5).with_max_attempts(500);
        let mut rng = ChaCha12Rng::seed_from_u64(8);
        assert_eq!(run(&mut verifier, &config, &mut rng), Err(PcorError::NoSamples));
    }
}
