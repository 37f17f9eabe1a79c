//! Datasets: a schema, its records, and fast context-population evaluation.
//!
//! The dataset maintains one [`RecordBitmap`] per attribute value. The
//! population `D_C` of a context is computed as
//!
//! ```text
//! AND over attributes i ( OR over selected values j of attribute i  B_ij )
//! ```
//!
//! which is a few word-wise passes over `n/64` words. Neighboring datasets
//! (differing in one or more records, as used throughout the differential
//! privacy analysis and the COE-match experiments of Section 6.7) are produced
//! by [`Dataset::without_records`] / [`Dataset::with_record`].

use crate::bitmap::RecordBitmap;
use crate::context::Context;
use crate::record::Record;
use crate::schema::Schema;
use crate::{DataError, Result};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dataset instance `D` of a relational schema `R`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    schema: Schema,
    records: Vec<Record>,
    /// One bitmap per context bit (attribute value): which records carry it.
    value_bitmaps: Vec<RecordBitmap>,
    /// Columnar copy of every record's metric, indexed by record id — the
    /// evaluation hot path gathers population metrics from this flat array
    /// instead of chasing per-[`Record`] indirection.
    metric_column: Vec<f64>,
    /// Flattened `n × m` matrix of context-bit indices: entry `id * m + attr`
    /// is the bit of record `id`'s value of attribute `attr`. Lets
    /// [`Dataset::covers`] answer with `m` direct bit probes.
    record_bits: Vec<u32>,
}

impl Dataset {
    /// Creates a dataset, validating every record against the schema and
    /// building the per-value record bitmaps plus the columnar metric and
    /// record-bit indexes.
    ///
    /// # Errors
    /// Propagates validation errors from [`Record::validate`].
    pub fn new(schema: Schema, records: Vec<Record>) -> Result<Self> {
        for r in &records {
            r.validate(&schema)?;
        }
        let value_bitmaps = Self::build_bitmaps(&schema, &records)?;
        let metric_column = records.iter().map(Record::metric).collect();
        let m = schema.num_attributes();
        let mut record_bits = Vec::with_capacity(records.len() * m);
        for r in &records {
            for (attr, &val) in r.values().iter().enumerate() {
                record_bits.push(schema.bit_index(attr, val as usize)? as u32);
            }
        }
        Ok(Dataset { schema, records, value_bitmaps, metric_column, record_bits })
    }

    fn build_bitmaps(schema: &Schema, records: &[Record]) -> Result<Vec<RecordBitmap>> {
        let t = schema.total_values();
        let n = records.len();
        let mut bitmaps = vec![RecordBitmap::new(n); t];
        for (id, r) in records.iter().enumerate() {
            for (attr, &val) in r.values().iter().enumerate() {
                let bit = schema.bit_index(attr, val as usize)?;
                bitmaps[bit].insert(id);
            }
        }
        Ok(bitmaps)
    }

    /// The dataset's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of records, `n = |D|`.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record with identifier `id`.
    pub fn record(&self, id: usize) -> &Record {
        &self.records[id]
    }

    /// All records in identifier order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// The metric value of record `id` (read from the columnar store).
    pub fn metric(&self, id: usize) -> f64 {
        self.metric_column[id]
    }

    /// The population bitmap `D_C` of a context, evaluated from scratch.
    ///
    /// Allocates fresh bitmaps per call and re-runs the OR/AND pass over
    /// every attribute; it is the reference the incremental engine is
    /// checked against. Hot paths evaluating a sequence of connected
    /// contexts use a [`PopulationCursor`](crate::PopulationCursor).
    ///
    /// # Errors
    /// Returns [`DataError::ContextLengthMismatch`] when the context does not
    /// match the schema.
    pub fn population(&self, context: &Context) -> Result<RecordBitmap> {
        if context.len() != self.schema.total_values() {
            return Err(DataError::ContextLengthMismatch {
                expected: self.schema.total_values(),
                actual: context.len(),
            });
        }
        let mut result = RecordBitmap::new(self.records.len());
        let mut attr_union = RecordBitmap::new(self.records.len());
        result.fill();
        for attr in 0..self.schema.num_attributes() {
            attr_union.clear();
            let mut any = false;
            for bit in self.schema.block(attr) {
                if context.get(bit) {
                    attr_union.union_with(&self.value_bitmaps[bit]);
                    any = true;
                }
            }
            if !any {
                // No value of this attribute selected: population is empty.
                result.clear();
                break;
            }
            result.intersect_with(&attr_union);
        }
        Ok(result)
    }

    /// Identifiers of the records covered by a context.
    ///
    /// # Errors
    /// Same conditions as [`Dataset::population`].
    pub fn population_ids(&self, context: &Context) -> Result<Vec<usize>> {
        Ok(self.population(context)?.to_vec())
    }

    /// Size of the population `|D_C|`, computed without materializing any
    /// bitmap: a single word-at-a-time pass fuses the per-attribute OR, the
    /// cross-attribute AND and the popcount.
    ///
    /// # Errors
    /// Same conditions as [`Dataset::population`].
    pub fn population_size(&self, context: &Context) -> Result<usize> {
        if context.len() != self.schema.total_values() {
            return Err(DataError::ContextLengthMismatch {
                expected: self.schema.total_values(),
                actual: context.len(),
            });
        }
        // Hoist the selected bits out of the word loop: one O(t) scan into a
        // flat list with per-attribute block boundaries, then the fused pass
        // touches only selected bitmaps (O(num_words · selected), not
        // O(num_words · t)).
        let m = self.schema.num_attributes();
        let mut selected: Vec<usize> = Vec::with_capacity(self.schema.total_values());
        let mut block_ends: Vec<usize> = Vec::with_capacity(m);
        for attr in 0..m {
            let before = selected.len();
            selected.extend(self.schema.block(attr).filter(|&bit| context.get(bit)));
            if selected.len() == before {
                return Ok(0); // Ill-formed context: empty population.
            }
            block_ends.push(selected.len());
        }
        let num_words = self.records.len().div_ceil(64);
        let mut count = 0usize;
        for word in 0..num_words {
            let mut and = u64::MAX;
            let mut start = 0usize;
            for &end in &block_ends {
                let mut or = 0u64;
                for &bit in &selected[start..end] {
                    or |= self.value_bitmaps[bit].words()[word];
                }
                and &= or;
                start = end;
            }
            count += and.count_ones() as usize;
        }
        Ok(count)
    }

    /// Metric values of the records covered by a context, in record-id order.
    ///
    /// # Errors
    /// Same conditions as [`Dataset::population`].
    pub fn population_metrics(&self, context: &Context) -> Result<Vec<f64>> {
        Ok(self.population(context)?.iter_ones().map(|id| self.metric_column[id]).collect())
    }

    /// Gathers the metric values of a population bitmap into a reusable
    /// buffer (cleared first), returning the position of `target` within the
    /// gathered slice when the population contains it. This is the verifier's
    /// inner gather: columnar reads, no per-call allocation once `out` has
    /// grown to capacity.
    pub fn gather_population_metrics(
        &self,
        population: &RecordBitmap,
        target: usize,
        out: &mut Vec<f64>,
    ) -> Option<usize> {
        out.clear();
        let mut target_index = None;
        for (pos, id) in population.iter_ones().enumerate() {
            if id == target {
                target_index = Some(pos);
            }
            out.push(self.metric_column[id]);
        }
        target_index
    }

    /// Accumulates `(Σ x, Σ (x − x̄)²)` of the metric values of a population
    /// bitmap over the columnar store — the sufficient statistics
    /// moment-decidable detectors need, with no metrics slice materialized.
    ///
    /// One pass in record-id order, accumulating deviations from `origin`
    /// and applying the shifted-variance identity
    /// `Σ(x − x̄)² = Σd² − (Σd)²/n` with `d = x − origin` (clamped at zero).
    /// `origin` must be a value on the scale of the population — the
    /// verification engine passes the queried record's own metric. The
    /// naive `origin = 0` form cancels catastrophically for populations
    /// with a large mean and small spread; with an in-population origin the
    /// cancellation term scales with `(x̄ − origin)² / Var ≈ z²`, so the
    /// relative error stays ~`n·ε·(1 + z²)` — negligible where verdicts are
    /// decided (z near a detector threshold) and far too small to drag a
    /// genuinely extreme z below one.
    pub fn population_metric_moments(&self, population: &RecordBitmap, origin: f64) -> (f64, f64) {
        let mut sum_dev = 0.0;
        let mut sum_sq = 0.0;
        let mut count = 0usize;
        for id in population.iter_ones() {
            let d = self.metric_column[id] - origin;
            sum_dev += d;
            sum_sq += d * d;
            count += 1;
        }
        if count == 0 {
            return (0.0, 0.0);
        }
        let sum = origin * count as f64 + sum_dev;
        let sum_sq_dev = (sum_sq - sum_dev * sum_dev / count as f64).max(0.0);
        (sum, sum_sq_dev)
    }

    /// Whether record `id` is covered by the context, answered from the
    /// dataset's flattened record-bit index: `m` direct bit probes, no
    /// per-attribute value scan or domain re-validation.
    ///
    /// # Errors
    /// Returns [`DataError::ContextLengthMismatch`] when the context does not
    /// match the schema.
    pub fn covers(&self, context: &Context, id: usize) -> Result<bool> {
        if context.len() != self.schema.total_values() {
            return Err(DataError::ContextLengthMismatch {
                expected: self.schema.total_values(),
                actual: context.len(),
            });
        }
        let m = self.schema.num_attributes();
        Ok(self.record_bits[id * m..(id + 1) * m].iter().all(|&bit| context.get(bit as usize)))
    }

    /// The minimal (starting) context of record `id`: exactly its own values.
    ///
    /// # Errors
    /// Propagates schema mismatches.
    pub fn minimal_context(&self, id: usize) -> Result<Context> {
        Context::for_record(&self.schema, self.records[id].values())
    }

    /// Number of records carrying each value of attribute `attr`.
    pub fn value_counts(&self, attr: usize) -> Vec<usize> {
        self.schema.block(attr).map(|bit| self.value_bitmaps[bit].count()).collect()
    }

    /// A neighboring dataset with the given record identifiers removed.
    /// Remaining records are re-indexed densely (record identities are
    /// positional; differential privacy only cares about multisets of rows).
    ///
    /// # Errors
    /// Never fails for valid `self`; kept fallible for uniformity.
    pub fn without_records(&self, remove: &[usize]) -> Result<Dataset> {
        let remove_set: std::collections::HashSet<usize> = remove.iter().copied().collect();
        let records: Vec<Record> = self
            .records
            .iter()
            .enumerate()
            .filter(|(id, _)| !remove_set.contains(id))
            .map(|(_, r)| r.clone())
            .collect();
        Dataset::new(self.schema.clone(), records)
    }

    /// A neighboring dataset with one extra record appended.
    ///
    /// # Errors
    /// Returns a validation error if the record does not fit the schema.
    pub fn with_record(&self, record: Record) -> Result<Dataset> {
        let mut records = self.records.clone();
        records.push(record);
        Dataset::new(self.schema.clone(), records)
    }

    /// Draws a neighboring dataset at group-privacy distance `delta`:
    /// removes `delta` records chosen uniformly at random, never removing any
    /// identifier in `protect` (the experiments keep the queried outlier `V`
    /// in both datasets). Returns the neighbor and the removed identifiers
    /// (referring to `self`'s numbering).
    ///
    /// # Errors
    /// Returns [`DataError::Malformed`] if fewer than `delta` removable
    /// records exist.
    pub fn random_neighbor<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        delta: usize,
        protect: &[usize],
    ) -> Result<(Dataset, Vec<usize>)> {
        let protected: std::collections::HashSet<usize> = protect.iter().copied().collect();
        let mut candidates: Vec<usize> =
            (0..self.records.len()).filter(|id| !protected.contains(id)).collect();
        if candidates.len() < delta {
            return Err(DataError::Malformed(format!(
                "cannot remove {delta} records from a dataset with only {} removable rows",
                candidates.len()
            )));
        }
        candidates.shuffle(rng);
        let removed: Vec<usize> = candidates.into_iter().take(delta).collect();
        let neighbor = self.without_records(&removed)?;
        Ok((neighbor, removed))
    }

    /// All metric values in record-id order (the "global" population), as a
    /// borrowed view of the columnar store.
    pub fn metrics(&self) -> &[f64] {
        &self.metric_column
    }

    /// The record bitmap of one context bit (attribute value) — which
    /// records carry it. Used by the population-evaluation engine.
    pub(crate) fn value_bitmap(&self, bit: usize) -> &RecordBitmap {
        &self.value_bitmaps[bit]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    /// The income example of Table 1 in the paper (salaries are made up;
    /// record 8 — index 7 here — is the Lawyer in Ottawa's Diplomatic
    /// district used as the running outlier example).
    fn paper_table1() -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_values("JobTitle", &["CEO", "MedicalDoctor", "Lawyer"]),
                Attribute::from_values("City", &["Montreal", "Ottawa", "Toronto"]),
                Attribute::from_values("District", &["Business", "Historic", "Diplomatic"]),
            ],
            "Salary",
        )
        .unwrap();
        let rows: Vec<(u16, u16, u16, f64)> = vec![
            (1, 0, 0, 260_000.0), // MedicalDoctor, Montreal, Business
            (2, 2, 0, 150_000.0), // Lawyer, Toronto, Business
            (0, 1, 2, 450_000.0), // CEO, Ottawa, Diplomatic
            (2, 2, 0, 155_000.0), // Lawyer, Toronto, Business
            (2, 1, 2, 160_000.0), // Lawyer, Ottawa, Diplomatic
            (1, 2, 1, 240_000.0), // MedicalDoctor, Toronto, Historic
            (2, 1, 0, 150_000.0), // Lawyer, Ottawa, Business
            (2, 1, 2, 620_000.0), // Lawyer, Ottawa, Diplomatic  <- outlier V
            (0, 0, 1, 400_000.0), // CEO, Montreal, Historic
            (1, 2, 2, 255_000.0), // MedicalDoctor, Toronto, Diplomatic
        ];
        let records = rows.into_iter().map(|(a, b, c, m)| Record::new(vec![a, b, c], m)).collect();
        Dataset::new(schema, records).unwrap()
    }

    #[test]
    fn population_of_paper_context() {
        let d = paper_table1();
        // Context: JobTitle in {CEO, Lawyer}, City = Ottawa, District = Diplomatic.
        let c = Context::from_indices(9, [0, 2, 4, 8]);
        let pop = d.population_ids(&c).unwrap();
        assert_eq!(pop, vec![2, 4, 7]);
        assert_eq!(d.population_size(&c).unwrap(), 3);
        let metrics = d.population_metrics(&c).unwrap();
        assert_eq!(metrics, vec![450_000.0, 160_000.0, 620_000.0]);
        assert!(d.covers(&c, 7).unwrap());
        assert!(!d.covers(&c, 0).unwrap());
    }

    #[test]
    fn full_context_covers_everything() {
        let d = paper_table1();
        let full = Context::full(9);
        assert_eq!(d.population_size(&full).unwrap(), d.len());
        assert_eq!(d.metrics().len(), 10);
    }

    #[test]
    fn ill_formed_context_has_empty_population() {
        let d = paper_table1();
        // No City selected.
        let c = Context::from_indices(9, [0, 2, 8]);
        assert_eq!(d.population_size(&c).unwrap(), 0);
        let empty = Context::empty(9);
        assert_eq!(d.population_size(&empty).unwrap(), 0);
    }

    #[test]
    fn context_length_mismatch_is_an_error() {
        let d = paper_table1();
        let wrong = Context::empty(5);
        assert!(d.population(&wrong).is_err());
    }

    #[test]
    fn minimal_context_selects_exactly_matching_rows() {
        let d = paper_table1();
        let c = d.minimal_context(7).unwrap();
        // Records 4 and 7 are both Lawyer/Ottawa/Diplomatic.
        assert_eq!(d.population_ids(&c).unwrap(), vec![4, 7]);
    }

    #[test]
    fn value_counts_match_data() {
        let d = paper_table1();
        assert_eq!(d.value_counts(0), vec![2, 3, 5]); // CEO, MD, Lawyer
        assert_eq!(d.value_counts(1), vec![2, 4, 4]); // Montreal, Ottawa, Toronto
        assert_eq!(d.value_counts(2), vec![4, 2, 4]); // Business, Historic, Diplomatic
    }

    #[test]
    fn without_records_reindexes_and_shrinks_population() {
        let d = paper_table1();
        let c = Context::from_indices(9, [0, 2, 4, 8]);
        let neighbor = d.without_records(&[2]).unwrap(); // drop the CEO in Ottawa/Diplomatic
        assert_eq!(neighbor.len(), 9);
        assert_eq!(neighbor.population_size(&c).unwrap(), 2);
        // Removing a record outside the context does not change the population size.
        let neighbor2 = d.without_records(&[0]).unwrap();
        assert_eq!(neighbor2.population_size(&c).unwrap(), 3);
    }

    #[test]
    fn with_record_validates_and_grows() {
        let d = paper_table1();
        let grown = d.with_record(Record::new(vec![0, 1, 2], 500_000.0)).unwrap();
        assert_eq!(grown.len(), 11);
        assert!(d.with_record(Record::new(vec![9, 0, 0], 1.0)).is_err());
    }

    #[test]
    fn random_neighbor_respects_protection_and_delta() {
        let d = paper_table1();
        let mut rng = ChaCha12Rng::seed_from_u64(42);
        let (neighbor, removed) = d.random_neighbor(&mut rng, 3, &[7]).unwrap();
        assert_eq!(neighbor.len(), 7);
        assert_eq!(removed.len(), 3);
        assert!(!removed.contains(&7));
        // Asking for more removals than removable rows fails.
        assert!(d.random_neighbor(&mut rng, 10, &[7]).is_err());
    }

    #[test]
    fn dataset_rejects_invalid_records() {
        let schema = Schema::new(vec![Attribute::from_values("A", &["x", "y"])], "M").unwrap();
        let bad = Dataset::new(schema, vec![Record::new(vec![5], 0.0)]);
        assert!(bad.is_err());
    }

    #[test]
    fn empty_dataset_is_fine() {
        let schema = Schema::new(vec![Attribute::from_values("A", &["x", "y"])], "M").unwrap();
        let d = Dataset::new(schema, vec![]).unwrap();
        assert!(d.is_empty());
        let c = Context::full(2);
        assert_eq!(d.population_size(&c).unwrap(), 0);
    }
}
