//! OCDP budget accounting.
//!
//! PCOR's algorithms differ in how many Exponential-mechanism invocations they
//! make, and therefore in how the total budget `ε` maps to the per-invocation
//! parameter `ε₁`:
//!
//! | Algorithm (paper)            | Guarantee                     | `ε₁` from total `ε` |
//! |------------------------------|-------------------------------|----------------------|
//! | Direct (Alg. 1)              | `(2ε₁)`-OCDP (Thm 4.1)        | `ε₁ = ε / 2`         |
//! | Uniform sampling (Alg. 2)    | `(2ε₁)`-OCDP (Thm 5.1)        | `ε₁ = ε / 2`         |
//! | Random walk (Alg. 3)         | `(2ε₁)`-OCDP (Thm 5.3)        | `ε₁ = ε / 2`         |
//! | DP-DFS (Alg. 4)              | `((2n+2)ε₁)`-OCDP (Thm 5.5)   | `ε₁ = ε / (2n + 2)`  |
//! | DP-BFS (Alg. 5)              | `((2n+2)ε₁)`-OCDP (Thm 5.7)   | `ε₁ = ε / (2n + 2)`  |
//!
//! where `n` is the number of samples. For example the paper's experiments use
//! `ε = 0.2` and `n = 50`, so DFS/BFS run their Exponential mechanisms with
//! `ε₁ = 0.2 / 102 ≈ 0.00196` while uniform sampling and random walk use
//! `ε₁ = 0.1`.

use crate::mechanism::MechanismKind;
use crate::{DpError, Result};
use serde::{Deserialize, Serialize};

/// The privacy notion attached to a guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrivacyNotion {
    /// Classical (unconstrained) `ε`-differential privacy.
    PureDp,
    /// Output Constrained DP with respect to the contextual-outlier
    /// enumeration `COE_M(·, V)` (Definition 2.5 of the paper).
    OutputConstrained,
}

impl std::fmt::Display for PrivacyNotion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrivacyNotion::PureDp => write!(f, "ε-DP"),
            PrivacyNotion::OutputConstrained => write!(f, "(ε, COE_M)-OCDP"),
        }
    }
}

/// A privacy guarantee: the notion plus the total `ε` it holds for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OcdpGuarantee {
    /// Total privacy budget `ε`.
    pub epsilon: f64,
    /// Per-invocation Exponential-mechanism parameter `ε₁`.
    pub epsilon_per_invocation: f64,
    /// Number of Exponential-mechanism invocations the algorithm performs.
    pub invocations: usize,
    /// The notion the guarantee is stated in.
    pub notion: PrivacyNotion,
    /// The selection mechanism the draws were made through. All supported
    /// mechanisms share the `2ε₁Δu` per-draw bound, so the ε arithmetic is
    /// identical — this field *records* the primitive for audit and
    /// reporting.
    pub mechanism: MechanismKind,
}

impl OcdpGuarantee {
    /// Guarantee of the single-draw algorithms (Direct, Uniform, Random-Walk):
    /// one Exponential-mechanism invocation with `ε₁ = ε/2` yields
    /// `(2ε₁) = ε` OCDP (Theorems 4.1, 5.1, 5.3).
    ///
    /// # Errors
    /// Returns [`DpError::InvalidEpsilon`] for non-positive `ε`.
    pub fn single_draw(total_epsilon: f64) -> Result<Self> {
        validate_epsilon(total_epsilon)?;
        Ok(OcdpGuarantee {
            epsilon: total_epsilon,
            epsilon_per_invocation: total_epsilon / 2.0,
            invocations: 1,
            notion: PrivacyNotion::OutputConstrained,
            mechanism: MechanismKind::Exponential,
        })
    }

    /// Guarantee of the DP graph searches (DFS, BFS) with `n` samples:
    /// `n + 1` Exponential-mechanism invocations with `ε₁ = ε/(2n+2)` yield
    /// `((2n+2)ε₁) = ε` OCDP (Theorems 5.5, 5.7).
    ///
    /// # Errors
    /// Returns [`DpError::InvalidEpsilon`] for non-positive `ε`, `n == 0`,
    /// or an `n` whose `n + 1` draws overflow `usize`.
    pub fn graph_search(total_epsilon: f64, samples: usize) -> Result<Self> {
        validate_epsilon(total_epsilon)?;
        let invocations = match samples.checked_add(1) {
            Some(invocations) if samples > 0 => invocations,
            _ => return Err(DpError::InvalidEpsilon(total_epsilon)),
        };
        Ok(OcdpGuarantee {
            epsilon: total_epsilon,
            epsilon_per_invocation: total_epsilon / (2.0 * samples as f64 + 2.0),
            invocations,
            notion: PrivacyNotion::OutputConstrained,
            mechanism: MechanismKind::Exponential,
        })
    }

    /// Records which selection mechanism made the draws. Does not change the
    /// ε arithmetic (every supported mechanism costs `2ε₁Δu` per draw).
    #[must_use]
    pub fn with_mechanism(mut self, mechanism: MechanismKind) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// The total `ε` implied by composing `invocations` Exponential-mechanism
    /// draws at `epsilon_per_invocation` — a consistency check of the theorem
    /// arithmetic (each draw contributes `2ε₁Δu` with `Δu = 1`).
    pub fn composed_epsilon(&self) -> f64 {
        match self.invocations {
            1 => 2.0 * self.epsilon_per_invocation,
            n => (2.0 * (n as f64 - 1.0) + 2.0) * self.epsilon_per_invocation,
        }
    }
}

impl std::fmt::Display for OcdpGuarantee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} with ε = {} (ε₁ = {:.6}, {} invocation(s) via {})",
            self.notion,
            self.epsilon,
            self.epsilon_per_invocation,
            self.invocations,
            self.mechanism
        )
    }
}

fn validate_epsilon(epsilon: f64) -> Result<()> {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(DpError::InvalidEpsilon(epsilon));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_draw_matches_theorem_4_1() {
        let g = OcdpGuarantee::single_draw(0.2).unwrap();
        assert_eq!(g.epsilon_per_invocation, 0.1);
        assert_eq!(g.invocations, 1);
        assert!((g.composed_epsilon() - 0.2).abs() < 1e-12);
        assert_eq!(g.notion, PrivacyNotion::OutputConstrained);
    }

    #[test]
    fn graph_search_matches_theorems_5_5_and_5_7() {
        // Paper: eps = 0.2, n = 50 -> eps1 ~= 0.2 / 102 ~= 0.00196.
        let g = OcdpGuarantee::graph_search(0.2, 50).unwrap();
        assert!((g.epsilon_per_invocation - 0.2 / 102.0).abs() < 1e-12);
        assert_eq!(g.invocations, 51);
        assert!((g.composed_epsilon() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn paper_epsilon1_values_are_reproduced() {
        // Section 6.3: "This translates to eps1 ~ 0.002 in DFS/BFS ... and
        // eps1 = 0.1 in Uniform Sampling and Random Walk."
        let bfs = OcdpGuarantee::graph_search(0.2, 50).unwrap();
        assert!((bfs.epsilon_per_invocation - 0.00196).abs() < 2e-4);
        let walk = OcdpGuarantee::single_draw(0.2).unwrap();
        assert_eq!(walk.epsilon_per_invocation, 0.1);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(OcdpGuarantee::single_draw(0.0).is_err());
        assert!(OcdpGuarantee::single_draw(-1.0).is_err());
        assert!(OcdpGuarantee::graph_search(0.2, 0).is_err());
        assert!(OcdpGuarantee::graph_search(0.2, usize::MAX).is_err(), "n + 1 must not wrap");
        assert!(OcdpGuarantee::graph_search(f64::NAN, 10).is_err());
    }

    #[test]
    fn guarantee_display_mentions_ocdp() {
        let g = OcdpGuarantee::graph_search(0.2, 50).unwrap();
        let s = g.to_string();
        assert!(s.contains("OCDP"));
        assert!(s.contains("0.2"));
        assert!(s.contains("Exponential"));
        assert_eq!(PrivacyNotion::PureDp.to_string(), "ε-DP");
    }

    #[test]
    fn pre_mechanism_guarantee_payloads_still_deserialize() {
        // JSON persisted before the mechanism axis existed (audit logs,
        // stored responses) has no `mechanism` field; it must deserialize
        // to the mechanism that actually produced it — Exponential.
        let old_json = r#"{
            "epsilon": 0.2,
            "epsilon_per_invocation": 0.1,
            "invocations": 1,
            "notion": "OutputConstrained"
        }"#;
        let guarantee: OcdpGuarantee = serde_json::from_str(old_json).unwrap();
        assert_eq!(guarantee.mechanism, MechanismKind::Exponential);
        assert_eq!(guarantee, OcdpGuarantee::single_draw(0.2).unwrap());
        // Round-tripping a current guarantee keeps the recorded mechanism.
        let current = OcdpGuarantee::graph_search(0.2, 10)
            .unwrap()
            .with_mechanism(MechanismKind::PermuteAndFlip);
        let json = serde_json::to_string(&current).unwrap();
        let back: OcdpGuarantee = serde_json::from_str(&json).unwrap();
        assert_eq!(back, current);
    }

    #[test]
    fn guarantees_default_to_exponential_and_record_overrides() {
        let g = OcdpGuarantee::single_draw(0.2).unwrap();
        assert_eq!(g.mechanism, MechanismKind::Exponential);
        let g = g.with_mechanism(MechanismKind::PermuteAndFlip);
        assert_eq!(g.mechanism, MechanismKind::PermuteAndFlip);
        // The ε arithmetic is untouched by the mechanism record.
        assert_eq!(g.epsilon_per_invocation, 0.1);
        assert!((g.composed_epsilon() - 0.2).abs() < 1e-12);
        assert!(g.to_string().contains("PermuteAndFlip"));
    }
}
