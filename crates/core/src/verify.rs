//! The outlier-verification function `f_M(D_C, V)` with memoization, built
//! on the incremental population engine.
//!
//! Every PCOR algorithm repeatedly asks the same question about different
//! contexts: *is the queried record `V` an outlier in the population selected
//! by this context?* The answer requires filtering the dataset and running the
//! detector — by far the dominant cost of a release (the paper's runtime
//! numbers are essentially counts of `f_M` evaluations). The sampling
//! algorithms also revisit contexts (e.g. BFS generates each vertex's children
//! repeatedly), so the verifier memoizes evaluations per context.
//!
//! Three engine properties keep the hot path allocation-free and incremental:
//!
//! * **Cursor-backed evaluation** — populations come from a
//!   [`PopulationCursor`] that caches per-attribute union bitmaps; the search
//!   algorithms move by single-bit context flips, so a fresh evaluation costs
//!   one block update plus one fused AND/popcount pass on the calling thread
//!   instead of the full per-attribute loop with two bitmap allocations.
//! * **Fingerprinted memo cache** — the cache is keyed by a 128-bit
//!   XOR-decomposable fingerprint of the context's words, so hits hash a few
//!   words and misses insert two `u64`s instead of cloning the context; the
//!   decomposability gives [`Verifier::evaluate_neighbors`] O(1) per-neighbor
//!   cache probes without materializing neighbor contexts.
//! * **Columnar metric gather** — population metrics are gathered from the
//!   dataset's flat metric column into one reusable buffer.
//!
//! The verifier also computes the utility score of each context (the utility
//! needs the same population bitmap the validity check needs), and exposes the
//! *mechanism score*: the utility for matching contexts, `-∞` otherwise —
//! exactly the scoring rule of Section 3.2 that makes the Exponential
//! mechanism output constrained.

use crate::cancel::CancelToken;
use crate::{PcorError, Result};
use pcor_data::kernel::KernelKind;
use pcor_data::{Context, Dataset, HaltFn, PopulationCursor, RecordBitmap};
use pcor_dp::Utility;
use pcor_outlier::{OutlierDetector, PopulationMoments};
use std::collections::HashMap;
use std::sync::Arc;

/// The cached outcome of evaluating one context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Whether the context is *matching*: it covers `V` and the detector
    /// flags `V` as an outlier within the context's population.
    pub matching: bool,
    /// The utility score of the context (regardless of matching).
    pub utility: f64,
    /// The size of the context's population `|D_C|`.
    pub population_size: usize,
}

impl Evaluation {
    /// The Exponential-mechanism score: the utility for matching contexts and
    /// `-∞` for non-matching ones.
    pub fn mechanism_score(&self) -> f64 {
        if self.matching {
            self.utility
        } else {
            f64::NEG_INFINITY
        }
    }
}

/// SplitMix64 finalizer: the word mixer behind the context fingerprints.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent seeds for the two 64-bit fingerprint halves.
const FP_SEED_A: u64 = 0xA076_1D64_78BD_642F;
const FP_SEED_B: u64 = 0xE703_7ED1_A0B4_28DB;

/// Per-word contribution to one fingerprint half. XORing contributions makes
/// the fingerprint decomposable: flipping one context bit replaces exactly
/// one word's contribution, so neighbor fingerprints cost O(1).
fn fp_word(word: u64, index: usize, seed: u64) -> u64 {
    splitmix64(word ^ splitmix64(index as u64 ^ seed))
}

/// The 128-bit fingerprint of a context, split into its two halves.
///
/// Collisions would silently conflate two contexts in the memo cache; at 128
/// bits the probability over any realistic number of distinct contexts
/// (≪ 2^40) is below 2^-48, far beyond concern — and the property tests
/// cross-check the engine against from-scratch evaluation.
fn fingerprint_parts(context: &Context) -> (u64, u64) {
    let mut a = splitmix64(context.len() as u64 ^ FP_SEED_A);
    let mut b = splitmix64(context.len() as u64 ^ FP_SEED_B);
    for (i, &w) in context.words().iter().enumerate() {
        a ^= fp_word(w, i, FP_SEED_A);
        b ^= fp_word(w, i, FP_SEED_B);
    }
    (a, b)
}

/// The fingerprint of `context` with `bit` flipped, derived in O(1) from the
/// context's own fingerprint parts.
fn neighbor_parts(context: &Context, parts: (u64, u64), bit: usize) -> (u64, u64) {
    let wi = bit / 64;
    let old = context.words()[wi];
    let new = old ^ (1u64 << (bit % 64));
    (
        parts.0 ^ fp_word(old, wi, FP_SEED_A) ^ fp_word(new, wi, FP_SEED_A),
        parts.1 ^ fp_word(old, wi, FP_SEED_B) ^ fp_word(new, wi, FP_SEED_B),
    )
}

fn fp_key(parts: (u64, u64)) -> u128 {
    ((parts.0 as u128) << 64) | parts.1 as u128
}

/// Adapts a cancel token into the cursor's halt probe.
fn halt_probe(token: &CancelToken) -> HaltFn {
    let token = token.clone();
    Arc::new(move || token.is_cancelled())
}

/// Runs `f_M` on an already-evaluated population: is `outlier_id` covered
/// and flagged by the detector?
///
/// Moment-decidable detectors are answered from a single-pass sufficient-
/// statistics accumulation over the columnar metric store; slice detectors
/// gather the metrics into the caller's reusable buffer. Contexts not
/// covering the record short-circuit to `false` with no metric pass at all.
/// Shared by the [`Verifier`] and the reference-file enumeration so every
/// engine entry point classifies identically.
pub(crate) fn classify_population(
    dataset: &Dataset,
    population: &RecordBitmap,
    population_size: usize,
    outlier_id: usize,
    detector: &dyn OutlierDetector,
    use_moments: bool,
    metrics_buf: &mut Vec<f64>,
) -> bool {
    let covers = outlier_id < population.len() && population.contains(outlier_id);
    if !covers {
        return false;
    }
    if use_moments {
        // Shift the accumulation by the queried record's own value: it is
        // inside the population, so the shifted-variance identity stays
        // numerically sound (see `Dataset::population_metric_moments`).
        let value = dataset.metric(outlier_id);
        let (sum, sum_sq_dev) = dataset.population_metric_moments(population, value);
        let moments = PopulationMoments::new(population_size, sum, sum_sq_dev);
        detector.is_outlier_by_moments(&moments, value)
    } else {
        let target = dataset
            .gather_population_metrics(population, outlier_id, metrics_buf)
            .expect("coverage checked above");
        detector.is_outlier(metrics_buf, target)
    }
}

/// Memoizing wrapper around `f_M` for one (dataset, detector, utility, `V`)
/// tuple.
pub struct Verifier<'a> {
    dataset: &'a Dataset,
    detector: &'a dyn OutlierDetector,
    utility: &'a dyn Utility,
    outlier_id: usize,
    cache: HashMap<u128, Evaluation>,
    cursor: Option<PopulationCursor<'a>>,
    metrics_buf: Vec<f64>,
    /// The fused-pass kernel the cursor runs with.
    kernel: KernelKind,
    /// Whether the detector decides from population moments (probed once at
    /// construction; `supports_moments` is constant per instance).
    use_moments: bool,
    /// Cooperative cancellation, checked before every fresh evaluation
    /// (cache hits are never blocked) and once per search step by the
    /// release algorithms. `None` means uncancellable.
    cancel: Option<CancelToken>,
    calls: usize,
    lookups: usize,
}

impl<'a> Verifier<'a> {
    /// Creates a verifier for record `outlier_id` of `dataset` whose fused
    /// passes run with the process-wide dispatched kernel.
    pub fn new(
        dataset: &'a Dataset,
        detector: &'a dyn OutlierDetector,
        utility: &'a dyn Utility,
        outlier_id: usize,
    ) -> Self {
        let kernel = pcor_data::kernel::selected();
        Self::with_kernel(dataset, detector, utility, outlier_id, kernel)
    }

    /// Creates a verifier whose population cursor runs an explicit
    /// fused-pass kernel (see [`PopulationCursor::with_kernel`]), for
    /// comparing kernels within one process.
    pub fn with_kernel(
        dataset: &'a Dataset,
        detector: &'a dyn OutlierDetector,
        utility: &'a dyn Utility,
        outlier_id: usize,
        kernel: KernelKind,
    ) -> Self {
        Verifier {
            dataset,
            detector,
            utility,
            outlier_id,
            cache: HashMap::new(),
            cursor: None,
            metrics_buf: Vec::new(),
            kernel,
            use_moments: detector.supports_moments(),
            cancel: None,
            calls: 0,
            lookups: 0,
        }
    }

    /// Attaches a cancellation token. Every subsequent *fresh* evaluation
    /// first checks it and fails with [`PcorError::Cancelled`] once the
    /// token trips; memoized answers keep flowing (they cost nothing and a
    /// cancelled release's caller may still read cached state). The release
    /// algorithms also check it once per search step, so a search made only
    /// of memoized replays stops too.
    ///
    /// The token is also installed as the halt probe of the verifier's
    /// population cursor, so cancellation preempts a fused `f_M` pass *in
    /// flight* — the pass bails at the next sub-chunk boundary instead of
    /// finishing the scan — bounding cancellation latency to microseconds
    /// rather than one full verification call. An interrupted evaluation is
    /// discarded (never cached) and surfaces as [`PcorError::Cancelled`].
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        if let Some(cursor) = self.cursor.as_mut() {
            cursor.set_halt(Some(halt_probe(&token)));
        }
        self.cancel = Some(token);
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Fails with [`PcorError::Cancelled`] when the attached token (if
    /// any) has tripped — the per-step checkpoint of the release
    /// algorithms.
    pub(crate) fn check_cancelled(&self) -> Result<()> {
        match &self.cancel {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    /// The dataset the verifier is bound to.
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// The queried outlier's record id.
    pub fn outlier_id(&self) -> usize {
        self.outlier_id
    }

    /// The utility function in use.
    pub fn utility(&self) -> &'a dyn Utility {
        self.utility
    }

    /// Number of *uncached* verification calls performed so far (each one
    /// filtered the dataset and ran the detector).
    pub fn calls(&self) -> usize {
        self.calls
    }

    /// Total number of evaluation requests (cache hits included).
    pub fn lookups(&self) -> usize {
        self.lookups
    }

    /// Number of evaluation requests answered from the memo cache.
    pub fn cache_hits(&self) -> usize {
        self.lookups - self.calls
    }

    /// Number of distinct contexts evaluated (cache size).
    pub fn distinct_contexts(&self) -> usize {
        self.cache.len()
    }

    /// Bitmap words read by the verifier's fused population passes so far
    /// (×8 gives the bytes the verification hot loop touched). Zero until
    /// the first uncached evaluation creates the cursor.
    pub fn words_scanned(&self) -> u64 {
        self.cursor.as_ref().map_or(0, |cursor| cursor.words_scanned())
    }

    /// Words read by the cursor's incremental moment syncs (bitmap diffs
    /// plus one word per metric load). Zero for slice-path detectors.
    pub fn moment_words_scanned(&self) -> u64 {
        self.cursor.as_ref().map_or(0, |cursor| cursor.moment_words_scanned())
    }

    /// The fused-pass kernel this verifier's evaluations run with (by
    /// default the process-wide dispatched kernel).
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// The minimal context of the queried record (its own attribute values).
    ///
    /// # Errors
    /// Propagates schema mismatches from the data layer.
    pub fn minimal_context(&self) -> Result<Context> {
        Ok(self.dataset.minimal_context(self.outlier_id)?)
    }

    /// Validates that a context matches the schema (the cache key is a
    /// fingerprint, so mismatches must be rejected before lookup).
    fn check_context(&self, context: &Context) -> Result<()> {
        let expected = self.dataset.schema().total_values();
        if context.len() != expected {
            return Err(PcorError::Data(format!(
                "context of length {} does not match schema with t = {expected}",
                context.len()
            )));
        }
        Ok(())
    }

    /// Evaluates a context: validity (`f_M`), utility and population size.
    /// Results are memoized per context (by fingerprint); fresh evaluations
    /// run on the incremental cursor and allocate nothing after warm-up.
    ///
    /// # Errors
    /// Propagates population-evaluation errors (context/schema mismatch).
    pub fn evaluate(&mut self, context: &Context) -> Result<Evaluation> {
        self.check_context(context)?;
        let key = fp_key(fingerprint_parts(context));
        self.lookups += 1;
        if let Some(cached) = self.cache.get(&key) {
            return Ok(*cached);
        }
        self.check_cancelled()?;
        let evaluation = self.evaluate_fresh(context)?;
        self.cache.insert(key, evaluation);
        Ok(evaluation)
    }

    /// Positions the cursor at `context`, creating it on first use. A new
    /// cursor of a moment-decidable verifier immediately starts tracking
    /// incremental moments centered on the queried record's metric.
    fn position_cursor(&mut self, context: &Context) -> Result<()> {
        match self.cursor.as_mut() {
            Some(cursor) => cursor.move_to(context)?,
            None => {
                let mut cursor = PopulationCursor::with_kernel(self.dataset, context, self.kernel)?;
                cursor.set_halt(self.cancel.as_ref().map(halt_probe));
                if self.use_moments {
                    cursor.track_moments(self.dataset.metric(self.outlier_id));
                }
                self.cursor = Some(cursor);
            }
        }
        Ok(())
    }

    /// Runs one uncached evaluation at `context`, repositioning the cursor.
    fn evaluate_fresh(&mut self, context: &Context) -> Result<Evaluation> {
        self.position_cursor(context)?;
        self.evaluate_at_cursor()
    }

    /// Evaluates at the cursor's current position. The caller has already
    /// positioned the cursor and checked the cache.
    ///
    /// Moment-decidable detectors are answered from the cursor's tracked
    /// sufficient statistics — an incremental diff sync instead of the
    /// from-scratch metric rescan `classify_population` performs — which is
    /// exactly why the verifier owns a stateful cursor. Slice detectors and
    /// uncovered contexts go through `classify_population` unchanged.
    ///
    /// # Errors
    /// [`PcorError::Cancelled`] when the fused pass was preempted by the
    /// cancel token's halt probe mid-scan; the partial result is discarded
    /// and nothing is cached or counted.
    fn evaluate_at_cursor(&mut self) -> Result<Evaluation> {
        let cursor = self.cursor.as_mut().expect("cursor positioned by caller");
        // Force the pass before reading any of its outputs so an interrupted
        // (partial) evaluation is visible and discarded here.
        cursor.population_size();
        if cursor.interrupted() {
            return Err(PcorError::Cancelled);
        }
        self.calls += 1;
        let (current, population, population_size) = cursor.evaluated();
        let utility = self.utility.score(self.dataset, current, population);
        let covers = self.outlier_id < population.len() && population.contains(self.outlier_id);
        let matching = if covers && self.use_moments {
            let value = self.dataset.metric(self.outlier_id);
            let (sum, sum_sq_dev) = cursor.moments();
            let moments = PopulationMoments::new(population_size, sum, sum_sq_dev);
            self.detector.is_outlier_by_moments(&moments, value)
        } else if covers {
            classify_population(
                self.dataset,
                population,
                population_size,
                self.outlier_id,
                self.detector,
                false,
                &mut self.metrics_buf,
            )
        } else {
            false
        };
        Ok(Evaluation { matching, utility, population_size })
    }

    /// Evaluates all `t` single-bit neighbors of `base` in one batched cursor
    /// walk, returning one [`Evaluation`] per bit.
    ///
    /// Cache probes use O(1) incremental fingerprints (no neighbor context is
    /// materialized); every miss costs one bit flip on the shared cursor,
    /// one fused AND/popcount pass and one flip back. This is the child
    /// generation primitive of the graph searches: a whole neighbor frontier
    /// shares one cursor walk.
    ///
    /// # Errors
    /// Propagates population-evaluation errors (context/schema mismatch).
    pub fn evaluate_neighbors(&mut self, base: &Context) -> Result<Vec<Evaluation>> {
        // Warm the base itself first: searches always need it, and it leaves
        // the cursor positioned adjacent to every neighbor.
        self.evaluate(base)?;
        let base_parts = fingerprint_parts(base);
        let t = base.len();
        let mut out = Vec::with_capacity(t);
        let mut cursor_at_base = false;
        for bit in 0..t {
            let key = fp_key(neighbor_parts(base, base_parts, bit));
            self.lookups += 1;
            if let Some(cached) = self.cache.get(&key) {
                out.push(*cached);
                continue;
            }
            self.check_cancelled()?;
            if !cursor_at_base {
                // Position once; after each miss we flip back, so the cursor
                // stays at `base` for the rest of the walk.
                self.position_cursor(base)?;
                cursor_at_base = true;
            }
            let cursor = self.cursor.as_mut().expect("cursor positioned above");
            cursor.flip(bit);
            let evaluation = self.evaluate_at_cursor();
            // Flip back before propagating any error so the cursor stays at
            // `base` (move_to recovers from arbitrary positions anyway, but
            // the invariant keeps the fast path honest).
            self.cursor.as_mut().expect("cursor positioned above").flip(bit);
            let evaluation = evaluation?;
            self.cache.insert(key, evaluation);
            out.push(evaluation);
        }
        Ok(out)
    }

    /// Whether `context` is a matching context for `V` (`f_M(D_C, V) = true`
    /// and `V ∈ D_C`).
    ///
    /// # Errors
    /// Propagates evaluation errors.
    pub fn is_matching(&mut self, context: &Context) -> Result<bool> {
        Ok(self.evaluate(context)?.matching)
    }

    /// The Exponential-mechanism score of `context` (utility if matching,
    /// `-∞` otherwise).
    ///
    /// # Errors
    /// Propagates evaluation errors.
    pub fn mechanism_score(&mut self, context: &Context) -> Result<f64> {
        Ok(self.evaluate(context)?.mechanism_score())
    }
}

impl std::fmt::Debug for Verifier<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Verifier")
            .field("outlier_id", &self.outlier_id)
            .field("detector", &self.detector.name())
            .field("utility", &self.utility.name())
            .field("calls", &self.calls)
            .field("lookups", &self.lookups)
            .field("cached_contexts", &self.cache.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcor_data::{Attribute, Record, Schema};
    use pcor_dp::PopulationSizeUtility;
    use pcor_outlier::ZScoreDetector;

    /// Ten records over a 2x2 schema; record 9 has an extreme metric within
    /// the (a0, b0) subgroup but is unremarkable against a broad population.
    fn toy() -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_values("A", &["a0", "a1"]),
                Attribute::from_values("B", &["b0", "b1"]),
            ],
            "M",
        )
        .unwrap();
        let mut records: Vec<Record> = (0..9)
            .map(|i| {
                let a = (i % 2) as u16;
                let b = ((i / 2) % 2) as u16;
                Record::new(vec![a, b], 100.0 + i as f64)
            })
            .collect();
        records.push(Record::new(vec![0, 0], 500.0));
        Dataset::new(schema, records).unwrap()
    }

    #[test]
    fn evaluation_distinguishes_matching_and_non_matching() {
        let dataset = toy();
        // Note: with a population of 4 the largest attainable z-score is
        // (n-1)/sqrt(n) = 1.5, so use a slightly lower threshold.
        let detector = ZScoreDetector::new(1.4);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 9);

        // The record's own subgroup (a0 AND b0) contains records 0, 4, 8, 9 —
        // the 500.0 value stands out.
        let own = dataset.minimal_context(9).unwrap();
        let eval = verifier.evaluate(&own).unwrap();
        assert!(eval.matching);
        assert_eq!(eval.population_size, 4);
        assert_eq!(eval.utility, 4.0);
        assert_eq!(eval.mechanism_score(), 4.0);

        // A context not covering the record is never matching.
        let elsewhere = Context::from_indices(4, [1, 3]); // a1 AND b1
        let eval = verifier.evaluate(&elsewhere).unwrap();
        assert!(!eval.matching);
        assert_eq!(eval.mechanism_score(), f64::NEG_INFINITY);
        assert!(verifier.mechanism_score(&elsewhere).unwrap().is_infinite());
        assert!(verifier.is_matching(&own).unwrap());
    }

    #[test]
    fn cache_avoids_recomputation() {
        let dataset = toy();
        // Note: with a population of 4 the largest attainable z-score is
        // (n-1)/sqrt(n) = 1.5, so use a slightly lower threshold.
        let detector = ZScoreDetector::new(1.4);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 9);
        let c = dataset.minimal_context(9).unwrap();
        for _ in 0..10 {
            verifier.evaluate(&c).unwrap();
        }
        assert_eq!(verifier.calls(), 1);
        assert_eq!(verifier.distinct_contexts(), 1);
        assert_eq!(verifier.lookups(), 10);
        assert_eq!(verifier.cache_hits(), 9);
        let other = Context::full(4);
        verifier.evaluate(&other).unwrap();
        assert_eq!(verifier.calls(), 2);
        assert_eq!(verifier.distinct_contexts(), 2);
    }

    #[test]
    fn evaluate_neighbors_agrees_with_per_context_evaluation() {
        let dataset = toy();
        let detector = ZScoreDetector::new(1.4);
        let utility = PopulationSizeUtility;
        let base = dataset.minimal_context(9).unwrap();

        let mut batched = Verifier::new(&dataset, &detector, &utility, 9);
        let neighbor_evals = batched.evaluate_neighbors(&base).unwrap();
        assert_eq!(neighbor_evals.len(), 4);

        let mut serial = Verifier::new(&dataset, &detector, &utility, 9);
        for (bit, eval) in neighbor_evals.iter().enumerate() {
            let expected = serial.evaluate(&base.with_flipped(bit)).unwrap();
            assert_eq!(*eval, expected, "neighbor {bit} diverged");
        }
        // A second batched walk is answered entirely from cache.
        let calls = batched.calls();
        let again = batched.evaluate_neighbors(&base).unwrap();
        assert_eq!(again, neighbor_evals);
        assert_eq!(batched.calls(), calls);
    }

    /// Forces the slice path of any moment-decidable detector — the
    /// from-scratch reference the incremental moment path must agree with.
    struct SlicePath<D>(D);

    impl<D: OutlierDetector> OutlierDetector for SlicePath<D> {
        fn name(&self) -> &'static str {
            "SlicePath"
        }
        fn is_outlier(&self, population: &[f64], target: usize) -> bool {
            self.0.is_outlier(population, target)
        }
        fn supports_moments(&self) -> bool {
            false
        }
    }

    /// A wider dataset with adversarial metric magnitudes: a large common
    /// offset with small spread maximizes cancellation in the moment
    /// accumulators, which is exactly what the Neumaier compensation and the
    /// origin shift are there to survive.
    fn adversarial() -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_values("A", &["a0", "a1", "a2"]),
                Attribute::from_values("B", &["b0", "b1"]),
                Attribute::from_values("C", &["c0", "c1", "c2"]),
            ],
            "M",
        )
        .unwrap();
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut records: Vec<Record> = (0..300)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let jitter = ((state >> 40) as f64) / (1u64 << 24) as f64; // [0, 1)
                Record::new(
                    vec![(i % 3) as u16, ((i / 3) % 2) as u16, ((i / 5) % 3) as u16],
                    1.0e9 + jitter,
                )
            })
            .collect();
        // One genuinely extreme record in every subgroup it belongs to.
        records.push(Record::new(vec![0, 0, 0], 1.0e9 + 50.0));
        Dataset::new(schema, records).unwrap()
    }

    #[test]
    fn moment_path_verdicts_agree_with_slice_path_over_long_walks() {
        let dataset = adversarial();
        let outlier_id = dataset.len() - 1;
        let detector = ZScoreDetector::new(2.5);
        assert!(detector.supports_moments());
        let slice_detector = SlicePath(ZScoreDetector::new(2.5));
        let utility = PopulationSizeUtility;
        let mut tracked = Verifier::new(&dataset, &detector, &utility, outlier_id);
        let mut reference = Verifier::new(&dataset, &slice_detector, &utility, outlier_id);

        let t = dataset.schema().total_values();
        let mut context = dataset.minimal_context(outlier_id).unwrap();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut matched = 0usize;
        // Long enough to cross the default refresh interval (256) several
        // times: each uncached evaluation is one delta sync.
        for step in 0..600 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            context.flip((state >> 33) as usize % t);
            let a = tracked.evaluate(&context).unwrap();
            let b = reference.evaluate(&context).unwrap();
            assert_eq!(a, b, "verdict diverged at step {step}");
            matched += a.matching as usize;
        }
        // The walk exercised both verdicts and the incremental path did sync.
        assert!(matched > 0, "walk never produced a matching context");
        assert!(tracked.moment_words_scanned() > 0);
        assert_eq!(reference.moment_words_scanned(), 0);
    }

    #[test]
    fn all_supported_kernels_evaluate_identically() {
        let dataset = adversarial();
        let outlier_id = dataset.len() - 1;
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let t = dataset.schema().total_values();
        let mut reference =
            Verifier::with_kernel(&dataset, &detector, &utility, outlier_id, KernelKind::Scalar);
        for kind in KernelKind::supported() {
            let mut verifier =
                Verifier::with_kernel(&dataset, &detector, &utility, outlier_id, kind);
            assert_eq!(verifier.kernel(), kind);
            let mut context = dataset.minimal_context(outlier_id).unwrap();
            let mut state = 0xDEADBEEFCAFEF00Du64;
            for step in 0..128 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                context.flip((state >> 33) as usize % t);
                assert_eq!(
                    verifier.evaluate(&context).unwrap(),
                    reference.evaluate(&context).unwrap(),
                    "kernel {kind} diverged at step {step}"
                );
            }
        }
    }

    #[test]
    fn accessors_and_debug() {
        let dataset = toy();
        let detector = ZScoreDetector::default();
        let utility = PopulationSizeUtility;
        let verifier = Verifier::new(&dataset, &detector, &utility, 3);
        assert_eq!(verifier.outlier_id(), 3);
        assert_eq!(verifier.dataset().len(), 10);
        assert_eq!(verifier.utility().name(), "PopulationSize");
        let dbg = format!("{verifier:?}");
        assert!(dbg.contains("ZScore"));
        assert!(dbg.contains("outlier_id"));
    }

    #[test]
    fn minimal_context_covers_the_record() {
        let dataset = toy();
        let detector = ZScoreDetector::default();
        let utility = PopulationSizeUtility;
        let verifier = Verifier::new(&dataset, &detector, &utility, 9);
        let c = verifier.minimal_context().unwrap();
        assert!(dataset.covers(&c, 9).unwrap());
    }

    #[test]
    fn wrong_length_context_is_an_error() {
        let dataset = toy();
        let detector = ZScoreDetector::default();
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 0);
        assert!(verifier.evaluate(&Context::empty(7)).is_err());
        assert!(verifier.evaluate_neighbors(&Context::empty(7)).is_err());
    }

    #[test]
    fn fingerprints_are_incremental() {
        let context = Context::from_bit_string("1010011100101").unwrap();
        let parts = fingerprint_parts(&context);
        for bit in 0..context.len() {
            let direct = fingerprint_parts(&context.with_flipped(bit));
            assert_eq!(neighbor_parts(&context, parts, bit), direct);
        }
        // Distinct lengths fingerprint differently even with equal words.
        assert_ne!(
            fp_key(fingerprint_parts(&Context::empty(5))),
            fp_key(fingerprint_parts(&Context::empty(6)))
        );
    }

    #[test]
    fn cancel_token_preempts_fused_pass_in_flight() {
        let dataset = toy();
        let detector = ZScoreDetector::new(1.4);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 9);
        let own = dataset.minimal_context(9).unwrap();
        // Warm the cache with one evaluation, then cancel: the cached answer
        // keeps flowing while fresh work is preempted.
        let cached = verifier.evaluate(&own).unwrap();
        let token = CancelToken::new();
        verifier.set_cancel_token(token.clone());
        assert_eq!(verifier.evaluate(&own).unwrap(), cached);
        token.cancel();
        assert_eq!(verifier.evaluate(&own).unwrap(), cached);
        let other = Context::full(own.len());
        let calls_before = verifier.calls();
        assert!(matches!(verifier.evaluate(&other), Err(PcorError::Cancelled)));
        // The preempted evaluation was discarded: not counted, not cached,
        // and a fresh verifier agrees on the answer it would have produced.
        assert_eq!(verifier.calls(), calls_before);
        let mut fresh = Verifier::new(&dataset, &detector, &utility, 9);
        fresh.set_cancel_token(CancelToken::new());
        let expected = fresh.evaluate(&other).unwrap();
        let mut replaced = Verifier::new(&dataset, &detector, &utility, 9);
        replaced.set_cancel_token(CancelToken::new());
        assert_eq!(replaced.evaluate(&other).unwrap(), expected);
    }

    #[test]
    fn halt_probe_reaches_an_existing_cursor() {
        let dataset = toy();
        let detector = ZScoreDetector::new(1.4);
        let utility = PopulationSizeUtility;
        let mut verifier = Verifier::new(&dataset, &detector, &utility, 9);
        let own = dataset.minimal_context(9).unwrap();
        // First evaluation creates the cursor; installing the token after
        // must still preempt that cursor's passes.
        verifier.evaluate(&own).unwrap();
        let token = CancelToken::new();
        verifier.set_cancel_token(token.clone());
        token.cancel();
        assert!(matches!(verifier.evaluate(&Context::full(own.len())), Err(PcorError::Cancelled)));
        assert!(matches!(verifier.evaluate_neighbors(&own), Err(PcorError::Cancelled)));
    }
}
