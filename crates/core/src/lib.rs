//! # pcor-core
//!
//! PCOR — **P**rivate **C**ontextual **O**utlier **R**elease — the primary
//! contribution of the SIGMOD 2021 paper by Shafieinejad, Kerschbaum and
//! Ilyas, reimplemented as a Rust library.
//!
//! Given a dataset `D`, a record `V` that is a contextual outlier, a
//! deterministic outlier detector (`pcor-outlier`) and a utility function of
//! sensitivity ≤ 1 (`pcor-dp`), PCOR releases a context `C` such that
//!
//! * `V` is an outlier in `D_C` (**validity**, Definition 3.2(a)),
//! * `C` is drawn by a differentially private mechanism satisfying Output
//!   Constrained DP with total budget `ε` (Definition 3.2(b)),
//! * `C` has high utility among all matching contexts (Definition 3.2(c)),
//! * and the computation runs in polynomial time for the sampling algorithms
//!   (Definition 3.2(d)).
//!
//! Five release algorithms are implemented, matching the paper's Algorithms
//! 1–5:
//!
//! | Module | Paper | Complexity | Budget split |
//! |--------|-------|------------|--------------|
//! | [`direct`] | Alg. 1 — direct Exponential mechanism over all contexts | `O(2^t)` | `ε₁ = ε/2` |
//! | [`uniform`] | Alg. 2 — uniform sampling of contexts | `O(2^t)` expected | `ε₁ = ε/2` |
//! | [`random_walk`] | Alg. 3 — random walk on the context graph | `O(n·t)` | `ε₁ = ε/2` |
//! | [`dfs`] | Alg. 4 — differentially private depth-first search | `O(n·t)` | `ε₁ = ε/(2n+2)` |
//! | [`bfs`] | Alg. 5 — differentially private breadth-first search | `O(n²·t)` | `ε₁ = ε/(2n+2)` |
//!
//! Supporting modules: [`session`] (the [`ReleaseSession`] engine binding a
//! dataset/detector/utility triple for many releases), [`verify`] (the
//! memoized outlier-verification function `f_M`), [`starting`] (discovering a
//! starting context `C_V`), [`coe`] (full `COE_M` enumeration / the reference
//! file used to normalize utility), [`privacy`] (the COE-match and
//! empirical-ratio experiments of Section 6.7) and [`runner`]
//! (repeat-and-measure harness used by `pcor-bench`).
//!
//! The table names the Exponential mechanism because the paper does, but
//! every private draw goes through the pluggable [`SelectionMechanism`]
//! API: a
//! [`MechanismKind`] on [`ReleaseSpec`]/[`ReleaseSessionBuilder`] swaps in
//! permute-and-flip or report-noisy-max at the same `ε₁`/`Δu`
//! parameterization (default `Exponential`, bit-identical to the paper's
//! engine for seeded runs).
//!
//! ## Quick start
//!
//! The recommended entry point is a [`ReleaseSession`]: bind the dataset,
//! detector and utility once, then release as often as the privacy budget
//! allows. Repeat releases share the memoized verifier, so they skip
//! verification work earlier releases already paid for.
//!
//! ```
//! use pcor_core::{ReleaseSession, ReleaseSpec, SamplingAlgorithm, SeedPolicy};
//! use pcor_data::generator::{salary_dataset, SalaryConfig};
//! use pcor_dp::PopulationSizeUtility;
//! use pcor_outlier::ZScoreDetector;
//!
//! let dataset = salary_dataset(&SalaryConfig::tiny()).unwrap();
//! let detector = ZScoreDetector::default();
//! let utility = PopulationSizeUtility;
//!
//! let mut session = ReleaseSession::builder(&dataset, &detector, &utility)
//!     .seed_policy(SeedPolicy::Derived { base: 7 })
//!     .build();
//!
//! // Pick a record that actually is a contextual outlier.
//! let outlier = session.find_outliers(1, 200).unwrap().remove(0);
//!
//! let spec = ReleaseSpec::new(SamplingAlgorithm::Bfs, 0.2).with_samples(20);
//! let result = session.release(outlier.record_id, &spec).unwrap();
//! println!("released: {}", result.context.to_predicate_string(dataset.schema()));
//! assert!(result.guarantee.epsilon <= 0.2 + 1e-12);
//! ```
//!
//! The one-shot [`release_context`] free function remains available and is a
//! thin wrapper over a single-release session.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod cancel;
pub mod coe;
pub mod dfs;
pub mod direct;
pub mod privacy;
pub mod random_walk;
pub mod runner;
pub mod select;
pub mod session;
pub mod starting;
pub mod uniform;
pub mod verify;

pub use cancel::CancelToken;
pub use coe::{enumerate_coe, enumerate_coe_with, ReferenceEntry, ReferenceFile};
pub use pcor_dp::{MechanismKind, MechanismTally, SelectionMechanism};
pub use runner::find_random_outlier;
pub use session::{ReleaseSession, ReleaseSessionBuilder, ReleaseSpec, SeedPolicy, SessionStats};
pub use verify::{Evaluation, Verifier};

use pcor_data::{Context, Dataset};
use pcor_dp::budget::OcdpGuarantee;
use pcor_dp::Utility;
use pcor_outlier::OutlierDetector;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The historical name of [`ReleaseSpec`], kept as an alias so existing
/// call sites keep compiling.
pub type PcorConfig = ReleaseSpec;

/// Errors produced by the PCOR core.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a wildcard arm
/// so new error conditions can be added without a semver break.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PcorError {
    /// The queried record has no matching context at all (it is not a
    /// contextual outlier for the chosen detector).
    NoMatchingContext,
    /// No starting context could be found within the search budget.
    NoStartingContext,
    /// The sampling procedure collected zero matching contexts (e.g. uniform
    /// sampling exhausted its attempt budget).
    NoSamples,
    /// Exhaustive enumeration was requested for a schema too large to
    /// enumerate (`2^t` contexts).
    TooManyAttributeValues {
        /// The schema's total number of attribute values.
        t: usize,
        /// The configured enumeration limit.
        limit: usize,
    },
    /// An invalid configuration value.
    InvalidConfig(String),
    /// An error from the data substrate.
    Data(String),
    /// An error from the privacy substrate.
    Dp(pcor_dp::DpError),
    /// The release was cooperatively cancelled (explicit cancel or an
    /// expired deadline on its [`CancelToken`]). No private draw was
    /// published; the caller may refund the release's reserved budget.
    Cancelled,
}

impl std::fmt::Display for PcorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcorError::NoMatchingContext => {
                write!(f, "the queried record is not an outlier in any context")
            }
            PcorError::NoStartingContext => write!(f, "no starting context found"),
            PcorError::NoSamples => write!(f, "sampling produced no matching contexts"),
            PcorError::TooManyAttributeValues { t, limit } => write!(
                f,
                "schema has {t} attribute values; exhaustive enumeration is limited to {limit}"
            ),
            PcorError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PcorError::Data(msg) => write!(f, "data error: {msg}"),
            PcorError::Dp(e) => write!(f, "privacy error: {e}"),
            PcorError::Cancelled => write!(f, "the release was cancelled before completion"),
        }
    }
}

impl std::error::Error for PcorError {}

impl From<pcor_data::DataError> for PcorError {
    fn from(e: pcor_data::DataError) -> Self {
        PcorError::Data(e.to_string())
    }
}

impl From<pcor_dp::DpError> for PcorError {
    fn from(e: pcor_dp::DpError) -> Self {
        match e {
            pcor_dp::DpError::NoValidCandidates => PcorError::NoSamples,
            other => PcorError::Dp(other),
        }
    }
}

/// Convenience result alias for the PCOR core.
pub type Result<T> = std::result::Result<T, PcorError>;

/// The five release algorithms of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SamplingAlgorithm {
    /// Algorithm 1: direct Exponential mechanism over every context (`O(2^t)`).
    Direct,
    /// Algorithm 2: uniform sampling of contexts until `n` matches are found.
    Uniform,
    /// Algorithm 3: random walk over the context graph.
    RandomWalk,
    /// Algorithm 4: differentially private depth-first search.
    Dfs,
    /// Algorithm 5: differentially private breadth-first search (the paper's
    /// final choice).
    Bfs,
}

impl SamplingAlgorithm {
    /// All algorithms, in the order the paper introduces them.
    pub fn all() -> [SamplingAlgorithm; 5] {
        [
            SamplingAlgorithm::Direct,
            SamplingAlgorithm::Uniform,
            SamplingAlgorithm::RandomWalk,
            SamplingAlgorithm::Dfs,
            SamplingAlgorithm::Bfs,
        ]
    }

    /// The four sampling-based algorithms compared in Tables 2–3.
    pub fn sampling_algorithms() -> [SamplingAlgorithm; 4] {
        [
            SamplingAlgorithm::Uniform,
            SamplingAlgorithm::RandomWalk,
            SamplingAlgorithm::Dfs,
            SamplingAlgorithm::Bfs,
        ]
    }

    /// Whether the algorithm splits the budget per expansion step
    /// (`ε₁ = ε/(2n+2)`) rather than spending it in a single draw.
    pub fn uses_per_step_budget(&self) -> bool {
        matches!(self, SamplingAlgorithm::Dfs | SamplingAlgorithm::Bfs)
    }

    /// Whether the algorithm seeds its search from a starting context `C_V`
    /// (the graph-based samplers do; Direct and Uniform enumerate/sample the
    /// context space without one).
    pub fn needs_starting_context(&self) -> bool {
        matches!(
            self,
            SamplingAlgorithm::RandomWalk | SamplingAlgorithm::Dfs | SamplingAlgorithm::Bfs
        )
    }

    /// The OCDP guarantee this algorithm provides for a total budget
    /// `epsilon` and `samples` collected samples.
    ///
    /// # Errors
    /// Propagates invalid-parameter errors from the budget module.
    pub fn guarantee(&self, epsilon: f64, samples: usize) -> Result<OcdpGuarantee> {
        let g = if self.uses_per_step_budget() {
            OcdpGuarantee::graph_search(epsilon, samples)
        } else {
            OcdpGuarantee::single_draw(epsilon)
        }?;
        Ok(g)
    }
}

impl std::fmt::Display for SamplingAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SamplingAlgorithm::Direct => "Direct",
            SamplingAlgorithm::Uniform => "Uniform",
            SamplingAlgorithm::RandomWalk => "RandomWalk",
            SamplingAlgorithm::Dfs => "DFS",
            SamplingAlgorithm::Bfs => "BFS",
        };
        write!(f, "{name}")
    }
}

/// The outcome of a PCOR release.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcorResult {
    /// The privately released context (always a matching context for `V`).
    pub context: Context,
    /// The utility score of the released context (e.g. its population size).
    pub utility: f64,
    /// Number of matching contexts the algorithm sampled before the final
    /// draw (`|C_M|` / `|Visited|`).
    pub samples_collected: usize,
    /// Number of outlier-verification calls (`f_M` evaluations) performed.
    pub verification_calls: usize,
    /// The OCDP guarantee of the release.
    pub guarantee: OcdpGuarantee,
    /// Wall-clock time of the release.
    pub runtime: Duration,
    /// The algorithm that produced the release.
    pub algorithm: SamplingAlgorithm,
    /// The DP selection mechanism every private draw went through.
    pub mechanism: MechanismKind,
}

/// Runs one one-shot PCOR release: given the dataset, the outlier record id,
/// a detector, a utility function and a spec, returns a privately selected
/// matching context.
///
/// This is a thin wrapper over a single-release [`ReleaseSession`]; callers
/// issuing more than one release against the same dataset/detector pair
/// should hold a session instead and let repeats share the memoized
/// verifier.
///
/// # Errors
/// * [`PcorError::NoMatchingContext`] / [`PcorError::NoStartingContext`] when
///   the record is not a contextual outlier;
/// * [`PcorError::NoSamples`] when sampling found no matching context;
/// * [`PcorError::TooManyAttributeValues`] when `Direct` is requested on a
///   schema above the enumeration limit;
/// * [`PcorError::InvalidConfig`] for invalid parameters.
pub fn release_context<R: Rng + ?Sized>(
    dataset: &Dataset,
    outlier_id: usize,
    detector: &dyn OutlierDetector,
    utility: &dyn Utility,
    config: &ReleaseSpec,
    rng: &mut R,
) -> Result<PcorResult> {
    let mut session = ReleaseSession::builder(dataset, detector, utility).build();
    session.release_with_rng(outlier_id, config, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcor_data::Context;

    #[test]
    fn config_defaults_and_builders() {
        let cfg = PcorConfig::new(SamplingAlgorithm::Bfs, 0.2);
        assert_eq!(cfg.samples, 50);
        assert!(cfg.validate().is_ok());
        let cfg = cfg
            .with_samples(10)
            .with_max_attempts(99)
            .with_enumeration_limit(16)
            .with_starting_context(Context::empty(4));
        assert_eq!(cfg.samples, 10);
        assert_eq!(cfg.max_attempts, 99);
        assert_eq!(cfg.enumeration_limit, 16);
        assert!(cfg.starting_context.is_some());
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        assert!(PcorConfig::new(SamplingAlgorithm::Bfs, 0.0).validate().is_err());
        assert!(PcorConfig::new(SamplingAlgorithm::Bfs, -1.0).validate().is_err());
        assert!(PcorConfig::new(SamplingAlgorithm::Bfs, 0.2).with_samples(0).validate().is_err());
    }

    #[test]
    fn algorithm_budget_split_matches_theorems() {
        let bfs = SamplingAlgorithm::Bfs.guarantee(0.2, 50).unwrap();
        assert!((bfs.epsilon_per_invocation - 0.2 / 102.0).abs() < 1e-12);
        let walk = SamplingAlgorithm::RandomWalk.guarantee(0.2, 50).unwrap();
        assert_eq!(walk.epsilon_per_invocation, 0.1);
        assert!(SamplingAlgorithm::Bfs.uses_per_step_budget());
        assert!(SamplingAlgorithm::Dfs.uses_per_step_budget());
        assert!(!SamplingAlgorithm::Direct.uses_per_step_budget());
        assert!(!SamplingAlgorithm::Uniform.uses_per_step_budget());
        assert!(!SamplingAlgorithm::RandomWalk.uses_per_step_budget());
    }

    #[test]
    fn algorithm_lists_and_display() {
        assert_eq!(SamplingAlgorithm::all().len(), 5);
        assert_eq!(SamplingAlgorithm::sampling_algorithms().len(), 4);
        assert_eq!(SamplingAlgorithm::Bfs.to_string(), "BFS");
        assert_eq!(SamplingAlgorithm::RandomWalk.to_string(), "RandomWalk");
    }

    #[test]
    fn errors_display_and_convert() {
        assert!(PcorError::NoMatchingContext.to_string().contains("not an outlier"));
        assert!(PcorError::TooManyAttributeValues { t: 30, limit: 22 }.to_string().contains("30"));
        let from_dp: PcorError = pcor_dp::DpError::NoValidCandidates.into();
        assert_eq!(from_dp, PcorError::NoSamples);
        let from_dp: PcorError = pcor_dp::DpError::InvalidEpsilon(-1.0).into();
        assert!(matches!(from_dp, PcorError::Dp(_)));
        let from_data: PcorError = pcor_data::DataError::EmptySchema.into();
        assert!(matches!(from_data, PcorError::Data(_)));
    }
}
