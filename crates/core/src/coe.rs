//! `COE_M` enumeration and the reference file.
//!
//! `COE_M(D, V)` (Definition 3.1) is the set of **all** matching contexts of a
//! record `V`. The paper materializes it into a *reference file* — every
//! context, its utility and whether `V` is an outlier in it — in order to
//! normalize the utility of PCOR's private answers ("the proportion of the
//! utility of the PCOR's output to the maximum utility", Section 6.2). On the
//! authors' 51 k-record dataset this took three days; here the enumeration is
//! restricted to the `2^(t−m)` contexts that actually cover `V` and walked
//! in Gray-code order on an incremental cursor, which makes the
//! reduced-scale workloads (t ≤ 22) enumerable in seconds.

use crate::{PcorError, Result};
use pcor_data::{Context, Dataset};
use pcor_dp::Utility;
use pcor_outlier::OutlierDetector;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// One matching context together with its utility.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferenceEntry {
    /// The matching context.
    pub context: Context,
    /// Its utility score.
    pub utility: f64,
    /// Its population size `|D_C|`.
    pub population_size: usize,
}

/// The reference file for one record: all matching contexts with utilities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferenceFile {
    /// The queried record's id.
    pub outlier_id: usize,
    /// Every matching context with its utility, in enumeration order.
    pub entries: Vec<ReferenceEntry>,
    /// The maximum utility over all matching contexts.
    pub max_utility: f64,
    /// Total number of contexts examined (those covering the record).
    pub contexts_examined: usize,
}

impl ReferenceFile {
    /// Number of matching contexts (`|COE_M(D, V)|`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the record has no matching context at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The set of matching contexts.
    pub fn context_set(&self) -> HashSet<Context> {
        self.entries.iter().map(|e| e.context.clone()).collect()
    }

    /// The entry achieving the maximum utility (ties broken by enumeration
    /// order).
    pub fn maximum_entry(&self) -> Option<&ReferenceEntry> {
        self.entries
            .iter()
            .max_by(|a, b| a.utility.partial_cmp(&b.utility).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// The utility ratio of a released context's utility against the maximum
    /// (`1.0` means the private answer matched the best possible context).
    pub fn utility_ratio(&self, utility: f64) -> f64 {
        if self.max_utility > 0.0 {
            utility / self.max_utility
        } else if utility == self.max_utility {
            1.0
        } else {
            0.0
        }
    }

    /// Whether a context is a matching context according to the reference.
    pub fn contains(&self, context: &Context) -> bool {
        self.entries.iter().any(|e| &e.context == context)
    }
}

/// The `2^|free_bits|` contexts covering one record: its minimal context
/// plus every subset of the bits the minimal context leaves unset.
///
/// Building one is the shared preamble of every enumeration of that space
/// (the reference-file variants and the direct approach), so they all
/// refuse the same oversized inputs the same way.
#[derive(Debug)]
pub(crate) struct CoveringSpace {
    /// The record's minimal context `C_V`.
    pub(crate) minimal: Context,
    /// Context bits outside `C_V`, in ascending order.
    pub(crate) free_bits: Vec<usize>,
    /// Number of contexts in the space, `2^|free_bits|`.
    pub(crate) total: u64,
}

impl CoveringSpace {
    /// Checks `t` against `limit`, then builds the space around the
    /// context `minimal` yields (called only once the limit check passed).
    ///
    /// # Errors
    /// [`PcorError::TooManyAttributeValues`] when `t` exceeds `limit`, or
    /// when the space has `2^64` or more contexts and so cannot be counted
    /// (the reported limit is then the largest `t` this record admits,
    /// `m + 63`); errors from `minimal` otherwise.
    pub(crate) fn new(
        t: usize,
        limit: usize,
        minimal: impl FnOnce() -> Result<Context>,
    ) -> Result<Self> {
        if t > limit {
            return Err(PcorError::TooManyAttributeValues { t, limit });
        }
        let minimal = minimal()?;
        let free_bits: Vec<usize> = (0..t).filter(|&bit| !minimal.get(bit)).collect();
        if free_bits.len() >= u64::BITS as usize {
            let limit = t - free_bits.len() + (u64::BITS as usize - 1);
            return Err(PcorError::TooManyAttributeValues { t, limit });
        }
        let total = 1u64 << free_bits.len();
        Ok(CoveringSpace { minimal, free_bits, total })
    }

    /// The space of record `outlier_id` of `dataset`, with the id checked.
    fn of_record(dataset: &Dataset, outlier_id: usize, limit: usize) -> Result<Self> {
        Self::new(dataset.schema().total_values(), limit, || {
            if outlier_id >= dataset.len() {
                return Err(PcorError::InvalidConfig(format!(
                    "outlier id {outlier_id} out of range for a dataset of {} records",
                    dataset.len()
                )));
            }
            Ok(dataset.minimal_context(outlier_id)?)
        })
    }

    /// The shared postamble: sorts `entries` into one canonical order (so
    /// every enumeration of a record yields the same file) and records the
    /// maximum utility.
    fn into_reference(self, outlier_id: usize, mut entries: Vec<ReferenceEntry>) -> ReferenceFile {
        entries.sort_by(|a, b| a.context.cmp(&b.context));
        let max_utility = entries.iter().map(|e| e.utility).fold(f64::NEG_INFINITY, f64::max);
        ReferenceFile {
            outlier_id,
            entries,
            max_utility: if max_utility.is_finite() { max_utility } else { 0.0 },
            contexts_examined: self.total as usize,
        }
    }
}

/// Enumerates every context of `space` on one incremental cursor,
/// collecting the matching entries.
///
/// The binary-reflected Gray code visits every subset of the free bits
/// exactly once while consecutive steps differ in a single bit, so each step
/// costs one cursor flip plus one fused AND/popcount pass — no per-context
/// allocation.
fn enumerate_gray_code(
    dataset: &Dataset,
    outlier_id: usize,
    detector: &dyn OutlierDetector,
    utility: &dyn Utility,
    space: &CoveringSpace,
) -> Result<Vec<ReferenceEntry>> {
    let mut cursor = pcor_data::PopulationCursor::new(dataset, &space.minimal)?;
    let use_moments = detector.supports_moments();
    let mut metrics: Vec<f64> = Vec::new();
    let mut entries: Vec<ReferenceEntry> = Vec::new();
    for step in 0..space.total {
        if step > 0 {
            // gray(step) differs from gray(step - 1) in bit trailing_zeros(step).
            cursor.flip(space.free_bits[step.trailing_zeros() as usize]);
        }
        let (context, population, population_size) = cursor.evaluated();
        if crate::verify::classify_population(
            dataset,
            population,
            population_size,
            outlier_id,
            detector,
            use_moments,
            &mut metrics,
        ) {
            entries.push(ReferenceEntry {
                utility: utility.score(dataset, context, population),
                context: context.clone(),
                population_size,
            });
        }
    }
    Ok(entries)
}

/// Enumerates `COE_M(D, V)` on an existing memoized
/// [`Verifier`](crate::verify::Verifier), producing the reference file.
///
/// Like [`enumerate_coe`] this runs on the calling thread, but it shares
/// the verifier's `f_M` cache: contexts already evaluated by earlier
/// releases or searches cost nothing, and everything this enumeration
/// evaluates stays memoized for later releases. This is the variant
/// [`crate::ReleaseSession::reference`] uses.
///
/// # Errors
/// * [`PcorError::TooManyAttributeValues`] when `t` exceeds `limit` or the
///   space has `2^64` or more contexts;
/// * data-layer errors otherwise.
pub fn enumerate_coe_with(
    verifier: &mut crate::verify::Verifier<'_>,
    limit: usize,
) -> Result<ReferenceFile> {
    let t = verifier.dataset().schema().total_values();
    let space = CoveringSpace::new(t, limit, || verifier.minimal_context())?;

    // Walk the space in Gray-code order: consecutive contexts differ in one
    // bit, so the verifier's cursor advances by a single flip per context
    // (cache hits for anything earlier releases already evaluated).
    let mut entries: Vec<ReferenceEntry> = Vec::new();
    let mut context = space.minimal.clone();
    for step in 0..space.total {
        if step > 0 {
            context.flip(space.free_bits[step.trailing_zeros() as usize]);
        }
        let evaluation = verifier.evaluate(&context)?;
        if evaluation.matching {
            entries.push(ReferenceEntry {
                context: context.clone(),
                utility: evaluation.utility,
                population_size: evaluation.population_size,
            });
        }
    }
    Ok(space.into_reference(verifier.outlier_id(), entries))
}

/// Enumerates `COE_M(D, V)`: every matching context of record `outlier_id`,
/// with utilities, producing the reference file.
///
/// Only the `2^(t−m)` contexts covering the record are examined, on the
/// calling thread.
///
/// # Errors
/// * [`PcorError::TooManyAttributeValues`] when `t` exceeds `limit` or the
///   space has `2^64` or more contexts;
/// * [`PcorError::InvalidConfig`] for out-of-range ids;
/// * data-layer errors otherwise.
pub fn enumerate_coe(
    dataset: &Dataset,
    outlier_id: usize,
    detector: &dyn OutlierDetector,
    utility: &dyn Utility,
    limit: usize,
) -> Result<ReferenceFile> {
    let space = CoveringSpace::of_record(dataset, outlier_id, limit)?;
    let entries = enumerate_gray_code(dataset, outlier_id, detector, utility, &space)?;
    Ok(space.into_reference(outlier_id, entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcor_data::{Attribute, Record, Schema};
    use pcor_dp::PopulationSizeUtility;
    use pcor_outlier::ZScoreDetector;

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
    fn enumeration_matches_brute_force() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let reference = enumerate_coe(&dataset, 0, &detector, &utility, 22).unwrap();
        // Brute force over all 2^5 contexts with a fresh verifier.
        let mut verifier = crate::verify::Verifier::new(&dataset, &detector, &utility, 0);
        let mut expected = HashSet::new();
        for mask in 0..(1u32 << 5) {
            let context = Context::from_indices(5, (0..5).filter(|i| (mask >> i) & 1 == 1));
            if verifier.is_matching(&context).unwrap() {
                expected.insert(context);
            }
        }
        assert_eq!(reference.context_set(), expected);
        assert_eq!(reference.len(), expected.len());
        assert!(!reference.is_empty());
        assert_eq!(reference.contexts_examined, 1 << 3); // 2^(t-m) = 2^3
    }

    #[test]
    fn maximum_entry_and_ratios() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let reference = enumerate_coe(&dataset, 0, &detector, &utility, 22).unwrap();
        let max_entry = reference.maximum_entry().unwrap();
        assert_eq!(max_entry.utility, reference.max_utility);
        assert_eq!(max_entry.population_size as f64, max_entry.utility);
        assert!((reference.utility_ratio(reference.max_utility) - 1.0).abs() < 1e-12);
        assert!(reference.utility_ratio(reference.max_utility / 2.0) < 1.0);
        assert!(reference.contains(&max_entry.context));
        assert!(!reference.contains(&Context::empty(5)));
    }

    #[test]
    fn non_outlier_record_has_empty_reference() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let reference = enumerate_coe(&dataset, 5, &detector, &utility, 22).unwrap();
        assert!(reference.is_empty());
        assert_eq!(reference.max_utility, 0.0);
        assert!(reference.maximum_entry().is_none());
        assert_eq!(reference.utility_ratio(0.0), 1.0);
    }

    #[test]
    fn limits_and_bad_ids_are_rejected() {
        let dataset = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        assert!(matches!(
            enumerate_coe(&dataset, 0, &detector, &utility, 3),
            Err(PcorError::TooManyAttributeValues { t: 5, limit: 3 })
        ));
        assert!(matches!(
            enumerate_coe(&dataset, 1_000, &detector, &utility, 22),
            Err(PcorError::InvalidConfig(_))
        ));
    }

    #[test]
    fn parallel_and_serial_enumeration_agree() {
        // A space of 2^12 = 4096 contexts: the cursor walk and the
        // memoized walk on a verifier yield the same file.
        let schema = Schema::new(
            vec![
                Attribute::from_values("A", &["a0", "a1", "a2", "a3", "a4"]),
                Attribute::from_values("B", &["b0", "b1", "b2", "b3", "b4"]),
                Attribute::from_values("C", &["c0", "c1", "c2", "c3", "c4"]),
            ],
            "M",
        )
        .unwrap();
        let mut records = vec![Record::new(vec![0, 0, 0], 9_000.0)];
        for i in 0..200u32 {
            records.push(Record::new(
                vec![(i % 5) as u16, ((i / 5) % 5) as u16, ((i / 25) % 5) as u16],
                100.0 + (i % 13) as f64,
            ));
        }
        let dataset = Dataset::new(schema, records).unwrap();
        let detector = ZScoreDetector::new(2.0);
        let utility = PopulationSizeUtility;
        let reference = enumerate_coe(&dataset, 0, &detector, &utility, 22).unwrap();
        assert_eq!(reference.contexts_examined, 4096);
        let mut memoized = crate::verify::Verifier::new(&dataset, &detector, &utility, 0);
        assert_eq!(reference, enumerate_coe_with(&mut memoized, 22).unwrap());
        // Verify against the memoized verifier for a sample of entries.
        let mut verifier = crate::verify::Verifier::new(&dataset, &detector, &utility, 0);
        for entry in reference.entries.iter().take(50) {
            assert!(verifier.is_matching(&entry.context).unwrap());
            assert_eq!(verifier.evaluate(&entry.context).unwrap().utility, entry.utility);
        }
    }

    #[test]
    fn spaces_of_64_or_more_free_bits_are_refused() {
        // 70 binary attributes: the record's minimal context leaves 70 bits
        // free, a space of 2^70 contexts that no u64 mask can walk.
        let attributes: Vec<Attribute> =
            (0..70).map(|i| Attribute::from_values(&format!("A{i}"), &["x", "y"])).collect();
        let schema = Schema::new(attributes, "M").unwrap();
        let records = vec![Record::new(vec![0; 70], 1.0), Record::new(vec![1; 70], 2.0)];
        let dataset = Dataset::new(schema, records).unwrap();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        // The largest t this record admits: its 70 fixed bits plus 63 free.
        let refused = |result: Result<ReferenceFile>| {
            matches!(result, Err(PcorError::TooManyAttributeValues { t: 140, limit: 133 }))
        };
        assert!(refused(enumerate_coe(&dataset, 0, &detector, &utility, 1_000)));
        let mut verifier = crate::verify::Verifier::new(&dataset, &detector, &utility, 0);
        assert!(refused(enumerate_coe_with(&mut verifier, 1_000)));
        let config = crate::PcorConfig::new(crate::SamplingAlgorithm::Direct, 0.2)
            .with_enumeration_limit(1_000);
        let mut rng = <rand_chacha::ChaCha12Rng as rand::SeedableRng>::seed_from_u64(0);
        assert!(matches!(
            crate::direct::run(&mut verifier, &config, &mut rng),
            Err(PcorError::TooManyAttributeValues { t: 140, limit: 133 })
        ));
    }
}
