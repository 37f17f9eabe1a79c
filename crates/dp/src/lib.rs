//! # pcor-dp
//!
//! Differential-privacy substrate for the PCOR reproduction (SIGMOD 2021).
//!
//! PCOR guarantees a relaxed notion of differential privacy — *Output
//! Constrained DP* (OCDP, He et al. 2017) — by drawing the released context
//! through a **DP selection primitive**. The paper fixes that primitive to
//! the Exponential mechanism; this crate makes it a pluggable API axis: the
//! [`SelectionMechanism`] trait captures the contract (select an index from
//! scored candidates; `-∞` scores have probability exactly zero; the
//! per-draw guarantee is `2ε₁Δu`), and a serializable [`MechanismKind`]
//! names the implementation carried through release specs, sessions and the
//! service wire protocol. Three implementations ship:
//!
//! * [`exponential`] — the numerically stable **Exponential mechanism**
//!   (McSherry & Talwar 2007), the paper's primitive and the default; with
//!   `MechanismKind::Exponential` every seeded release is bit-identical to
//!   the pre-trait engine;
//! * [`permute_flip`] — **permute-and-flip** (McKenna & Sheldon 2020): same
//!   `ε₁`/`Δu` parameterization, expected utility provably never worse than
//!   Exponential, with *exact* selection probabilities via Gauss–Legendre
//!   quadrature for the empirical-ratio experiments;
//! * [`noisy_max`] — **report-noisy-max** with Gumbel noise: by the
//!   Gumbel-max trick its distribution equals the Exponential mechanism's,
//!   so the property tests use it as an independent cross-check oracle.
//!
//! Supporting modules:
//!
//! * [`laplace`] — the Laplace mechanism, used in ablation benchmarks and for
//!   noisy counts;
//! * [`utility`] — the utility-function trait with the paper's two utilities:
//!   context population size (Section 3.2.1) and overlap with a chosen
//!   starting context (Section 3.2.2), both with sensitivity 1;
//! * [`budget`] — OCDP budget accounting: the total budget `ε` maps to the
//!   per-invocation parameter `ε₁ = ε/2` for the single-draw algorithms
//!   (Direct, Uniform, Random-Walk; Theorems 4.1, 5.1, 5.3) and
//!   `ε₁ = ε/(2n+2)` for the DP graph searches (DFS, BFS; Theorems 5.5, 5.7).
//!   All three mechanisms share the `2ε₁Δu` per-draw bound, so the budget
//!   arithmetic is mechanism-agnostic and [`OcdpGuarantee`] merely *records*
//!   which mechanism produced a release.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod exponential;
pub mod laplace;
pub mod mechanism;
pub mod noisy_max;
pub mod permute_flip;
pub mod utility;

pub use budget::{OcdpGuarantee, PrivacyNotion};
pub use exponential::ExponentialMechanism;
pub use laplace::LaplaceMechanism;
pub use mechanism::{MechanismKind, MechanismTally, SelectionMechanism};
pub use noisy_max::ReportNoisyMax;
pub use permute_flip::PermuteAndFlip;
pub use utility::{OverlapUtility, PopulationSizeUtility, Utility};

/// Errors produced by the differential-privacy substrate.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a wildcard arm
/// so new error conditions can be added without a semver break (matching
/// `PcorError` and `ServiceError`).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DpError {
    /// Every candidate handed to the Exponential mechanism had score `-∞`
    /// (no valid context exists in the candidate set).
    NoValidCandidates,
    /// The privacy parameter `ε` was non-positive or non-finite.
    InvalidEpsilon(f64),
    /// The sensitivity `Δu` was non-positive or non-finite.
    InvalidSensitivity(f64),
    /// A problem in the underlying data layer (population evaluation).
    Data(String),
}

impl std::fmt::Display for DpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpError::NoValidCandidates => write!(f, "no candidate with finite utility"),
            DpError::InvalidEpsilon(e) => write!(f, "invalid epsilon: {e}"),
            DpError::InvalidSensitivity(s) => write!(f, "invalid sensitivity: {s}"),
            DpError::Data(msg) => write!(f, "data error: {msg}"),
        }
    }
}

impl std::error::Error for DpError {}

impl From<pcor_data::DataError> for DpError {
    fn from(e: pcor_data::DataError) -> Self {
        DpError::Data(e.to_string())
    }
}

/// Convenience result alias for the privacy substrate.
pub type Result<T> = std::result::Result<T, DpError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_parameters() {
        assert!(DpError::InvalidEpsilon(-1.0).to_string().contains("-1"));
        assert!(DpError::InvalidSensitivity(0.0).to_string().contains('0'));
        assert!(DpError::NoValidCandidates.to_string().contains("candidate"));
        assert!(DpError::Data("oops".into()).to_string().contains("oops"));
    }

    #[test]
    fn data_errors_convert() {
        let data_err = pcor_data::DataError::EmptySchema;
        let dp_err: DpError = data_err.into();
        assert!(matches!(dp_err, DpError::Data(_)));
    }
}
