//! Selection-mechanism ablation: Exponential vs permute-and-flip vs
//! report-noisy-max at equal ε.
//!
//! Not a paper experiment — this measures the axis the pluggable
//! [`SelectionMechanism`](pcor_dp::SelectionMechanism) API opens. Two
//! views, both at the same total budget:
//!
//! 1. **Exact single-draw distributions** over the workload's reference
//!    file (`COE_M` with utilities, the paper's utility-normalization
//!    object): per mechanism, the exact expected released utility, its
//!    ratio to the true best, and the probability of releasing the true
//!    best context. No sampling noise — permute-and-flip's dominance over
//!    the Exponential mechanism (McKenna & Sheldon, Theorem 4) is visible
//!    directly, and report-noisy-max reproduces the Exponential column
//!    exactly (Gumbel-max equivalence).
//! 2. **End-to-end BFS releases** through a `ReleaseSession` built with
//!    each mechanism: mean utility ratio, releases/sec and fresh `f_M`
//!    calls/sec. The verification engine dominates the cost, so calls/sec
//!    shows whether a mechanism's draw overhead is visible at all.
//!
//! Every mechanism scores the same reference file, the workload's one
//! `COE_M` enumeration, which also supplies the true best for
//! normalization. Results land in `BENCH_mechanisms.json` via
//! `reproduce --json`.

use crate::config::ExperimentScale;
use crate::report::Table;
use crate::workloads::{Workload, WorkloadKind};
use crate::{BenchError, Result};
use pcor_core::{MechanismKind, ReleaseSession, ReleaseSpec, SamplingAlgorithm};
use pcor_dp::budget::OcdpGuarantee;
use pcor_dp::PopulationSizeUtility;
use pcor_outlier::ZScoreDetector;
use std::time::Instant;

use super::ExperimentOutput;

/// Runs the mechanism ablation.
///
/// # Errors
/// Returns [`BenchError::NoOutlierFound`] when the workload has no
/// contextual outliers; propagates release and enumeration errors.
pub fn run(scale: &ExperimentScale) -> Result<ExperimentOutput> {
    let detector = ZScoreDetector::default();
    let workload = Workload::build(WorkloadKind::Salary, scale, &detector)?;
    let record_id = workload.outlier.record_id;
    let reference = &workload.reference;
    let scores: Vec<f64> = reference.entries.iter().map(|e| e.utility).collect();

    // --- Exact one-draw distributions over COE_M ----------------------
    // Both budget splits the algorithms actually run with: the single-draw
    // split ε₁ = ε/2 (Direct/Uniform/Random-Walk) and the graph-search
    // split ε₁ = ε/(2n+2) (the per-step budget of DFS/BFS, where the
    // mechanisms genuinely differ — at ε₁ = ε/2 the population-size scores
    // concentrate every mechanism on the optimum). The same n feeds the
    // end-to-end BFS runs below, so the exact rows are the ground truth
    // for the per-step budget those sessions actually draw with.
    let samples = scale.samples.min(25);
    let single_draw = OcdpGuarantee::single_draw(scale.epsilon)
        .map_err(pcor_core::PcorError::Dp)?
        .epsilon_per_invocation;
    let graph_split = OcdpGuarantee::graph_search(scale.epsilon, samples)
        .map_err(pcor_core::PcorError::Dp)?
        .epsilon_per_invocation;
    let splits = [("eps/2", single_draw), ("eps/(2n+2)", graph_split)];
    let mut exact = Table::new(
        format!(
            "Mechanism distributions at equal ε (exact draw over COE_M, eps = {}, \
             n = {samples}, salary, ZScore)",
            scale.epsilon
        ),
        &["Split", "Mechanism", "E[utility]", "E[utility] / best", "P(true best)", "|COE_M|"],
    );
    let mut expected_utilities = Vec::new();
    for (split_name, epsilon1) in splits {
        for kind in MechanismKind::all() {
            let mechanism = kind.build(epsilon1, 1.0).map_err(pcor_core::PcorError::Dp)?;
            let probabilities =
                mechanism.probabilities(&scores).map_err(pcor_core::PcorError::Dp)?;
            let expected: f64 = probabilities.iter().zip(&scores).map(|(p, u)| p * u).sum();
            let best_mass: f64 = probabilities
                .iter()
                .zip(&scores)
                .filter(|(_, &u)| (u - reference.max_utility).abs() < 1e-9)
                .map(|(p, _)| p)
                .sum();
            expected_utilities.push((kind, expected));
            exact.push_row(vec![
                split_name.to_string(),
                kind.to_string(),
                format!("{expected:.3}"),
                format!("{:.4}", expected / reference.max_utility),
                format!("{best_mass:.4}"),
                reference.len().to_string(),
            ]);
        }
    }
    // --- End-to-end BFS releases per mechanism ------------------------
    let mut end_to_end = Table::new(
        format!(
            "End-to-end BFS releases per mechanism (eps = {}, n = {samples}, \
             {} repetitions, salary, ZScore)",
            scale.epsilon, scale.repetitions
        ),
        &["Mechanism", "Mean utility ratio", "Mean samples", "Releases/s", "f_M calls/s"],
    );
    let utility = PopulationSizeUtility;
    for kind in MechanismKind::all() {
        let mut session =
            ReleaseSession::builder(&workload.dataset, &detector, &utility).mechanism(kind).build();
        session.seed_starting_context(record_id, workload.outlier.starting_context.clone());
        let spec = ReleaseSpec::new(SamplingAlgorithm::Bfs, scale.epsilon).with_samples(samples);
        let mut ratio_total = 0.0;
        let mut samples_total = 0usize;
        let started = Instant::now();
        for repetition in 0..scale.repetitions {
            let result =
                session.release_with_seed(record_id, &spec, scale.seed ^ repetition as u64)?;
            ratio_total += workload.reference.utility_ratio(result.utility);
            samples_total += result.samples_collected;
        }
        let wall = started.elapsed().as_secs_f64();
        let stats = session.stats();
        debug_assert_eq!(stats.mechanism_releases.count(kind), scale.repetitions as u64);
        end_to_end.push_row(vec![
            kind.to_string(),
            format!("{:.4}", ratio_total / scale.repetitions as f64),
            format!("{:.1}", samples_total as f64 / scale.repetitions as f64),
            format!("{:.1}", scale.repetitions as f64 / wall.max(1e-9)),
            format!("{:.0}", stats.verification_calls as f64 / wall.max(1e-9)),
        ]);
    }

    // Sanity for the headline claim: PF's expected utility is never below
    // EM's at equal ε (exact distributions, so this is deterministic) —
    // checked at both budget splits.
    for pair in expected_utilities.chunks(MechanismKind::all().len()) {
        let em = pair.iter().find(|(k, _)| *k == MechanismKind::Exponential).expect("EM row").1;
        let pf = pair.iter().find(|(k, _)| *k == MechanismKind::PermuteAndFlip).expect("PF row").1;
        if pf < em - 1e-9 {
            return Err(BenchError::Service(format!(
                "permute-and-flip expected utility {pf} fell below exponential {em}"
            )));
        }
    }

    Ok(ExperimentOutput { tables: vec![exact, end_to_end], ..ExperimentOutput::default() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permute_and_flip_dominates_and_noisy_max_matches_exponential() {
        let mut scale = ExperimentScale::smoke();
        scale.repetitions = 3;
        scale.samples = 8;
        let output = run(&scale).expect("mechanism ablation");
        assert_eq!(output.tables.len(), 2);
        let exact = &output.tables[0];
        assert_eq!(exact.rows.len(), 6, "three mechanisms at two budget splits");
        for split_rows in exact.rows.chunks(3) {
            let expected: Vec<f64> = split_rows.iter().map(|row| row[2].parse().unwrap()).collect();
            let (em, pf, rnm) = (expected[0], expected[1], expected[2]);
            assert!(pf >= em - 1e-9, "PF {pf} must not trail EM {em}");
            assert!((rnm - em).abs() < 1e-6, "RNM {rnm} must reproduce EM {em}");
            // Ratios are valid fractions of the true best.
            for row in split_rows {
                let ratio: f64 = row[3].parse().unwrap();
                assert!((0.0..=1.0 + 1e-9).contains(&ratio));
            }
        }
        let end_to_end = &output.tables[1];
        assert_eq!(end_to_end.rows.len(), 3);
        for row in &end_to_end.rows {
            let ratio: f64 = row[1].parse().unwrap();
            assert!((0.0..=1.0 + 1e-9).contains(&ratio), "utility ratio {ratio}");
        }
    }
}
