//! Incremental, allocation-free population evaluation.
//!
//! `Dataset::population` is the inner loop of every PCOR algorithm: the
//! paper's runtime numbers are essentially counts of `f_M` evaluations, and
//! each one filters the dataset. The naive evaluation allocates two fresh
//! [`RecordBitmap`]s and re-runs the OR/AND pass over *all* attributes even
//! though the search algorithms (BFS, DFS, random walk, Gray-code
//! enumeration) only ever move by single-bit context flips.
//!
//! [`PopulationCursor`] removes both costs: a stateful evaluator that caches
//! one union bitmap *per attribute*. A one-bit context flip then recomputes
//! only the touched attribute's union (an OR over at most `|A_i|` value
//! bitmaps — or a single OR when a bit turns on) followed by one fused
//! AND + popcount pass over the `m` cached unions, instead of the full
//! per-attribute loop over all selected values.
//!
//! Every pass runs on the calling thread: a release is one search on one
//! thread, and the server runs releases in parallel, one per pool worker.

use crate::bitmap::RecordBitmap;
use crate::context::Context;
use crate::dataset::Dataset;
use crate::kernel::{self, KernelFn, KernelKind};
use crate::{DataError, Result};
use std::sync::Arc;

/// A cooperative stop probe threaded into fused passes: the pass polls it
/// between sub-chunks and is abandoned when it returns `true`. The closure
/// form keeps `pcor-data` below the crate that owns request lifecycles —
/// `pcor-core` adapts its `CancelToken` (deadline included) into one of
/// these without this crate knowing what a request is.
pub type HaltFn = Arc<dyn Fn() -> bool + Send + Sync>;

/// A stateful population evaluator positioned at one context.
///
/// The cursor caches the per-attribute union bitmap
/// `U_i = OR over selected values j of attribute i (B_ij)` for its current
/// context. Moving to a connected context (one-bit flip) updates only the
/// touched attribute's union — a single OR when the bit turns on, an OR over
/// the block's remaining selected values when it turns off — and the
/// population is then one fused AND + popcount pass over the `m` cached
/// unions. No step allocates.
///
/// [`PopulationCursor::move_to`] generalizes to arbitrary jumps at cost
/// proportional to the number of *attributes* whose selection changed, so a
/// cursor is never slower than a from-scratch evaluation and strictly
/// cheaper for the local moves every search algorithm makes.
pub struct PopulationCursor<'a> {
    dataset: &'a Dataset,
    context: Context,
    /// One cached union bitmap per attribute.
    attr_unions: Vec<RecordBitmap>,
    /// Number of selected values per attribute (0 ⇒ empty population).
    selected: Vec<usize>,
    /// Scratch flags for [`PopulationCursor::move_to`] (one per attribute).
    touched: Vec<bool>,
    result: RecordBitmap,
    population_size: usize,
    /// Whether `result`/`population_size` reflect the current context.
    fresh: bool,
    /// Whether the last pass was abandoned by the halt probe. An
    /// interrupted pass leaves `result` partial and `population_size` at 0,
    /// and `fresh` stays false so the next accessor recomputes; callers
    /// observing this must discard the evaluation (and not let a moment
    /// tracker sync against the partial bitmap).
    interrupted: bool,
    /// The fused-pass kernel the cursor runs with.
    kind: KernelKind,
    /// The fused-pass implementation, resolved once from `kind`.
    kernel: KernelFn,
    /// Cooperative stop probe polled between sub-chunks of every pass;
    /// `None` means passes always run to completion.
    halt: Option<HaltFn>,
    /// Total bitmap words read by fused passes over the cursor's lifetime.
    words_scanned: u64,
    /// Incremental sufficient statistics for moment-decidable detectors,
    /// enabled by [`PopulationCursor::track_moments`].
    moments: Option<MomentTracker>,
    /// Whether the population may have moved since the tracker last synced.
    moments_dirty: bool,
    /// Words read by moment syncs (bitmap diffs + one word per metric load),
    /// metered separately from the fused passes.
    moment_words: u64,
}

impl<'a> PopulationCursor<'a> {
    /// Default drift-bound refresh interval of the moment tracker: after
    /// this many consecutive delta syncs the statistics are rebuilt from
    /// scratch. Each delta applies two compensated additions whose rounding
    /// error is bounded by a few ulps of the running magnitude, so even 256
    /// deltas stay far inside the slack of any detector threshold; the
    /// scheduled rescan makes the bound unconditional rather than
    /// statistical.
    pub const MOMENT_REFRESH_INTERVAL: u32 = 256;

    /// Positions a new cursor at `context`, running its passes with the
    /// process-wide dispatched kernel ([`kernel::selected`], which honors
    /// `PCOR_KERNEL`).
    ///
    /// # Errors
    /// Returns [`DataError::ContextLengthMismatch`] when the context does
    /// not match the dataset's schema.
    pub fn new(dataset: &'a Dataset, context: &Context) -> Result<Self> {
        Self::with_kernel(dataset, context, kernel::selected())
    }

    /// Positions a new cursor at `context` with an explicit fused-pass
    /// kernel, for comparing kernels within one process (tests,
    /// benchmarks). Unsupported kinds degrade to the scalar implementation
    /// at dispatch time ([`KernelKind::func`]), so a pinned cursor is
    /// always safe to run.
    ///
    /// # Errors
    /// Returns [`DataError::ContextLengthMismatch`] when the context does
    /// not match the dataset's schema.
    pub fn with_kernel(dataset: &'a Dataset, context: &Context, kind: KernelKind) -> Result<Self> {
        let schema = dataset.schema();
        if context.len() != schema.total_values() {
            return Err(DataError::ContextLengthMismatch {
                expected: schema.total_values(),
                actual: context.len(),
            });
        }
        let n = dataset.len();
        let m = schema.num_attributes();
        let mut cursor = PopulationCursor {
            dataset,
            context: context.clone(),
            attr_unions: vec![RecordBitmap::new(n); m],
            selected: vec![0; m],
            touched: vec![false; m],
            result: RecordBitmap::new(n),
            population_size: 0,
            fresh: false,
            interrupted: false,
            kind,
            kernel: kind.func(),
            halt: None,
            words_scanned: 0,
            moments: None,
            moments_dirty: false,
            moment_words: 0,
        };
        for attr in 0..m {
            cursor.rebuild_union(attr);
        }
        Ok(cursor)
    }

    /// The context the cursor is positioned at.
    pub fn context(&self) -> &Context {
        &self.context
    }

    /// The dataset the cursor evaluates against.
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// The fused-pass kernel this cursor's passes run with.
    pub fn kernel(&self) -> KernelKind {
        self.kind
    }

    /// Installs or clears the cooperative stop probe: every fused pass
    /// polls it between 4096-word sub-chunks and abandons
    /// the pass — marking the cursor [`PopulationCursor::interrupted`] —
    /// when it returns `true`. This is how a request deadline reaches into
    /// a pass already running; the probe typically wraps a cancel token
    /// shared with the request lifecycle.
    pub fn set_halt(&mut self, halt: Option<HaltFn>) {
        self.halt = halt;
    }

    /// Whether the most recent pass was abandoned by the halt probe. The
    /// cursor stays usable — the next accessor recomputes from the cached
    /// unions — but the evaluation that set this flag must be discarded.
    pub fn interrupted(&self) -> bool {
        self.interrupted
    }

    /// Total bitmap words read by the cursor's fused AND/popcount passes so
    /// far (each pass reads `words × attribute count` words; ×8 gives the
    /// bytes the hot loop touched). The server counts it into
    /// `pcor_verifier_words_scanned`; releasebench reports it per `f_M`
    /// call as `data.words_per_fmcall`.
    pub fn words_scanned(&self) -> u64 {
        self.words_scanned
    }

    /// Flips one context bit and updates the touched attribute's cached
    /// union. Returns the bit's new value. Cost: one bitmap OR when the bit
    /// turns on, an OR over the block's remaining selected values when it
    /// turns off. The population itself is recomputed lazily on the next
    /// [`PopulationCursor::population`] call.
    ///
    /// # Panics
    /// Panics if `bit` is out of range for the schema.
    pub fn flip(&mut self, bit: usize) -> bool {
        let now_set = self.context.flip(bit);
        let (attr, _) = self.dataset.schema().bit_to_attr_value(bit);
        if now_set {
            self.attr_unions[attr].union_with(self.dataset.value_bitmap(bit));
            self.selected[attr] += 1;
        } else {
            self.selected[attr] -= 1;
            self.rebuild_union(attr);
        }
        self.fresh = false;
        self.moments_dirty = true;
        now_set
    }

    /// Repositions the cursor at `target`, rebuilding only the unions of
    /// attributes whose selection actually changed.
    ///
    /// # Errors
    /// Returns [`DataError::ContextLengthMismatch`] when the target does not
    /// match the schema.
    pub fn move_to(&mut self, target: &Context) -> Result<()> {
        let schema = self.dataset.schema();
        if target.len() != schema.total_values() {
            return Err(DataError::ContextLengthMismatch {
                expected: schema.total_values(),
                actual: target.len(),
            });
        }
        self.touched.iter_mut().for_each(|t| *t = false);
        let mut any = false;
        for (word_index, (current, wanted)) in
            self.context.words().iter().zip(target.words()).enumerate()
        {
            let mut diff = current ^ wanted;
            while diff != 0 {
                let bit = word_index * 64 + diff.trailing_zeros() as usize;
                diff &= diff - 1;
                let (attr, _) = schema.bit_to_attr_value(bit);
                self.touched[attr] = true;
                any = true;
            }
        }
        if !any {
            return Ok(());
        }
        self.context.words_mut().copy_from_slice(target.words());
        for attr in 0..self.touched.len() {
            if self.touched[attr] {
                self.rebuild_union(attr);
            }
        }
        self.fresh = false;
        self.moments_dirty = true;
        Ok(())
    }

    /// The population bitmap `D_C` of the current context. Recomputes the
    /// fused AND/popcount pass only when the context moved since the last
    /// call.
    pub fn population(&mut self) -> &RecordBitmap {
        self.refresh();
        &self.result
    }

    /// The population size `|D_C|` of the current context.
    pub fn population_size(&mut self) -> usize {
        self.refresh();
        self.population_size
    }

    /// Refreshes and returns the current `(context, population, |D_C|)` as
    /// simultaneous shared borrows — the shape the verification hot path
    /// needs (coverage probe, utility scoring and metric gather all read the
    /// same evaluation).
    pub fn evaluated(&mut self) -> (&Context, &RecordBitmap, usize) {
        self.refresh();
        (&self.context, &self.result, self.population_size)
    }

    /// Enables incremental moment tracking with deviations centered on
    /// `origin` (the queried record's metric — see
    /// [`Dataset::population_metric_moments`] for why the origin matters
    /// numerically), using the default refresh interval
    /// [`PopulationCursor::MOMENT_REFRESH_INTERVAL`].
    pub fn track_moments(&mut self, origin: f64) {
        self.track_moments_every(origin, Self::MOMENT_REFRESH_INTERVAL);
    }

    /// Enables incremental moment tracking with an explicit drift-bound
    /// refresh interval: after `refresh_every` delta syncs the tracker
    /// rebuilds its statistics from scratch, discarding any accumulated
    /// floating-point drift. `refresh_every` is clamped to at least 1;
    /// interval 1 degenerates to a full rescan on every sync (useful in
    /// tests as the drift-free reference).
    pub fn track_moments_every(&mut self, origin: f64, refresh_every: u32) {
        self.moments = Some(MomentTracker::new(origin, self.dataset.len(), refresh_every.max(1)));
        self.moments_dirty = true;
    }

    /// The `(Σ x, Σ (x − x̄)²)` sufficient statistics of the current
    /// population's metric values — the same quantities as
    /// [`Dataset::population_metric_moments`] with the tracker's origin, but
    /// maintained incrementally: the tracker diffs the population bitmap
    /// against its last-synced copy and applies per-record deltas under
    /// compensated (Neumaier) summation, instead of rescanning every member.
    /// A scheduled full rescan every `refresh_every` syncs bounds drift.
    ///
    /// # Panics
    /// Panics unless [`PopulationCursor::track_moments`] enabled tracking.
    pub fn moments(&mut self) -> (f64, f64) {
        self.refresh();
        if self.interrupted {
            // The pass was abandoned and `result` is partial garbage: do not
            // sync the tracker against it (and keep `moments_dirty` set so
            // the next complete pass does sync). The stale statistics
            // returned here are as discarded as the evaluation itself.
            let tracker = self
                .moments
                .as_ref()
                .expect("moment tracking not enabled; call track_moments() first");
            return tracker.moments();
        }
        let metrics = self.dataset.metrics();
        let dirty = std::mem::take(&mut self.moments_dirty);
        let PopulationCursor { result, moments, moment_words, population_size, .. } = self;
        let tracker =
            moments.as_mut().expect("moment tracking not enabled; call track_moments() first");
        if dirty || !tracker.synced {
            *moment_words += tracker.sync(result, metrics);
        }
        debug_assert_eq!(tracker.count, *population_size, "tracker count diverged");
        tracker.moments()
    }

    /// Words read by moment syncs so far (bitmap-diff words plus one word
    /// per `f64` metric load) — the incremental counterpart of the
    /// full-rescan cost `words + |D_C|` per call. Metered separately from
    /// [`PopulationCursor::words_scanned`].
    pub fn moment_words_scanned(&self) -> u64 {
        self.moment_words
    }

    /// Number of full moment rescans performed (first sync + scheduled
    /// drift-bound refreshes).
    pub fn moment_full_refreshes(&self) -> u64 {
        self.moments.as_ref().map_or(0, |t| t.full_refreshes)
    }

    /// Number of incremental (diff-based) moment syncs performed.
    pub fn moment_delta_syncs(&self) -> u64 {
        self.moments.as_ref().map_or(0, |t| t.delta_syncs)
    }

    /// Rebuilds `attr`'s union from the context's selected values and resets
    /// the selected count.
    fn rebuild_union(&mut self, attr: usize) {
        let schema = self.dataset.schema();
        let union = &mut self.attr_unions[attr];
        union.clear();
        let mut count = 0;
        for bit in schema.block(attr) {
            if self.context.get(bit) {
                union.union_with(self.dataset.value_bitmap(bit));
                count += 1;
            }
        }
        self.selected[attr] = count;
    }

    /// Recomputes the result bitmap and popcount when stale: one fused pass
    /// computing `AND over attributes i (U_i)` word by word.
    fn refresh(&mut self) {
        if self.fresh {
            return;
        }
        self.fresh = true;
        self.interrupted = false;
        if self.selected.contains(&0) {
            // Ill-formed context (an attribute with no selected value):
            // empty population by definition.
            self.result.clear();
            self.population_size = 0;
            return;
        }
        let PopulationCursor { attr_unions, result, kernel, halt, words_scanned, .. } = self;
        let count = if halt.as_ref().is_some_and(|probe| probe()) {
            // Already cancelled before any work: abandon without touching
            // the bitmap so the caller can discard and retry cheaply.
            None
        } else {
            let (first, rest) = attr_unions.split_first().expect("schemas have >= 1 attribute");
            let out = result.words_mut();
            // One fused pass reads every output word once from `first` and
            // once per remaining attribute union.
            *words_scanned += (out.len() * (1 + rest.len())) as u64;
            fused_pass(*kernel, first.words(), rest, out, halt.as_ref())
        };
        match count {
            Some(count) => self.population_size = count,
            None => {
                // Skipped or partial pass: `result` may hold a mix of new
                // and stale words. Leave the cursor stale so the next
                // accessor recomputes, and flag the interruption so this
                // evaluation gets discarded.
                self.fresh = false;
                self.interrupted = true;
                self.population_size = 0;
            }
        }
    }
}

impl std::fmt::Debug for PopulationCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PopulationCursor")
            .field("context", &self.context)
            .field("population_size", &self.population_size)
            .field("fresh", &self.fresh)
            .field("interrupted", &self.interrupted)
            .field("kernel", &self.kind)
            .field("halt", &self.halt.as_ref().map(|_| "<fn>"))
            .field("words_scanned", &self.words_scanned)
            .finish_non_exhaustive()
    }
}

/// Granularity, in output words, between halt-probe checks inside one fused
/// pass. 4096 words (32 KiB of `first` plus the same per remaining
/// attribute) amortises the probe to well under 1% of kernel time while
/// bounding cancellation latency to microseconds.
const HALT_CHECK_WORDS: usize = 1 << 12;

/// Runs `kernel` over the whole word range. With no halt probe this is a
/// single kernel call; with one, the pass proceeds in
/// [`HALT_CHECK_WORDS`]-word sub-chunks and checks the probe before each.
/// Returns `None` once the probe fires: the partial count is meaningless
/// and the caller discards the whole pass.
fn fused_pass(
    kernel: KernelFn,
    first: &[u64],
    rest: &[RecordBitmap],
    out: &mut [u64],
    halt: Option<&HaltFn>,
) -> Option<usize> {
    let Some(halt) = halt else {
        return Some(kernel(first, rest, out, 0));
    };
    let mut count = 0;
    for (chunk, (first, out)) in
        first.chunks(HALT_CHECK_WORDS).zip(out.chunks_mut(HALT_CHECK_WORDS)).enumerate()
    {
        if halt() {
            return None;
        }
        count += kernel(first, rest, out, chunk * HALT_CHECK_WORDS);
    }
    Some(count)
}

/// Incrementally maintained centered sufficient statistics of a population's
/// metric values: exact integer `count`, and compensated accumulators for
/// `Σ d` and `Σ d²` with `d = x − origin`.
///
/// The tracker keeps a copy of the population bitmap as of its last sync
/// (`prev`). Syncing XOR-diffs the current population against that copy and
/// applies one add/remove delta per changed record — `O(words)` streaming
/// over two bitmaps plus `O(changed)` metric loads, instead of the full
/// rescan's one metric load per population member. Because deltas are
/// floating-point additions, error can accumulate over long flip sequences;
/// Neumaier compensation keeps the per-delta error at a few ulps and a
/// scheduled full rescan every `refresh_every` syncs re-zeroes the drift
/// outright, so verdicts may safely depend on the tracked values.
#[derive(Debug)]
struct MomentTracker {
    /// Deviation origin (the queried record's metric).
    origin: f64,
    /// Population bitmap as of the last sync.
    prev: RecordBitmap,
    /// Exact member count as of the last sync.
    count: usize,
    /// Compensated `Σ (x − origin)` over current members.
    sum_dev: Neumaier,
    /// Compensated `Σ (x − origin)²` over current members.
    sum_sq: Neumaier,
    /// Whether the tracker has synced at least once since construction.
    synced: bool,
    /// Delta syncs since the last full rescan.
    syncs_since_refresh: u32,
    /// Drift bound: full rescan after this many delta syncs.
    refresh_every: u32,
    /// Lifetime full rescans (first sync + scheduled refreshes).
    full_refreshes: u64,
    /// Lifetime delta syncs.
    delta_syncs: u64,
}

impl MomentTracker {
    fn new(origin: f64, len: usize, refresh_every: u32) -> Self {
        MomentTracker {
            origin,
            prev: RecordBitmap::new(len),
            count: 0,
            sum_dev: Neumaier::default(),
            sum_sq: Neumaier::default(),
            synced: false,
            syncs_since_refresh: 0,
            refresh_every,
            full_refreshes: 0,
            delta_syncs: 0,
        }
    }

    /// Brings the statistics in line with `result`, returning the number of
    /// words read (bitmap words + one per metric load).
    fn sync(&mut self, result: &RecordBitmap, metrics: &[f64]) -> u64 {
        if !self.synced || self.syncs_since_refresh >= self.refresh_every {
            return self.rescan(result, metrics);
        }
        let words = result.words();
        let prev = self.prev.words_mut();
        let mut changed = 0u64;
        for (word_index, (&now, old)) in words.iter().zip(prev.iter_mut()).enumerate() {
            let mut diff = now ^ *old;
            if diff == 0 {
                continue;
            }
            *old = now;
            while diff != 0 {
                let id = word_index * 64 + diff.trailing_zeros() as usize;
                diff &= diff - 1;
                let d = metrics[id] - self.origin;
                if (now >> (id % 64)) & 1 == 1 {
                    self.count += 1;
                    self.sum_dev.add(d);
                    self.sum_sq.add(d * d);
                } else {
                    self.count -= 1;
                    self.sum_dev.add(-d);
                    self.sum_sq.add(-(d * d));
                }
                changed += 1;
            }
        }
        self.syncs_since_refresh += 1;
        self.delta_syncs += 1;
        2 * words.len() as u64 + changed
    }

    /// Full rescan: copies the population into `prev` and rebuilds both
    /// accumulators from scratch, zeroing any accumulated drift.
    fn rescan(&mut self, result: &RecordBitmap, metrics: &[f64]) -> u64 {
        self.prev.words_mut().copy_from_slice(result.words());
        self.count = 0;
        self.sum_dev = Neumaier::default();
        self.sum_sq = Neumaier::default();
        for id in result.iter_ones() {
            let d = metrics[id] - self.origin;
            self.sum_dev.add(d);
            self.sum_sq.add(d * d);
            self.count += 1;
        }
        self.synced = true;
        self.syncs_since_refresh = 0;
        self.full_refreshes += 1;
        2 * result.words().len() as u64 + self.count as u64
    }

    /// The `(Σ x, Σ (x − x̄)²)` pair, de-centered exactly like
    /// [`Dataset::population_metric_moments`] (same shifted-variance
    /// identity, same zero clamp) so the two paths agree to summation order.
    fn moments(&self) -> (f64, f64) {
        if self.count == 0 {
            return (0.0, 0.0);
        }
        let sum_dev = self.sum_dev.value();
        let sum = self.origin * self.count as f64 + sum_dev;
        let sum_sq_dev = (self.sum_sq.value() - sum_dev * sum_dev / self.count as f64).max(0.0);
        (sum, sum_sq_dev)
    }
}

/// Neumaier (improved Kahan) compensated accumulator: tracks the rounding
/// error of every addition in a parallel compensation term, so sums of
/// mixed-sign deltas with adversarial magnitudes stay accurate to a few ulps
/// of the running total instead of drifting with the sequence length.
#[derive(Debug, Clone, Copy, Default)]
struct Neumaier {
    sum: f64,
    compensation: f64,
}

impl Neumaier {
    fn add(&mut self, value: f64) {
        let total = self.sum + value;
        if self.sum.abs() >= value.abs() {
            self.compensation += (self.sum - total) + value;
        } else {
            self.compensation += (value - total) + self.sum;
        }
        self.sum = total;
    }

    fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use crate::schema::{Attribute, Schema};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn dataset() -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_values("A", &["a0", "a1", "a2"]),
                Attribute::from_values("B", &["b0", "b1"]),
                Attribute::from_values("C", &["c0", "c1", "c2", "c3"]),
            ],
            "M",
        )
        .unwrap();
        let records = (0..200u32)
            .map(|i| {
                Record::new(
                    vec![(i % 3) as u16, ((i / 3) % 2) as u16, ((i / 7) % 4) as u16],
                    i as f64,
                )
            })
            .collect();
        Dataset::new(schema, records).unwrap()
    }

    #[test]
    fn cursor_matches_from_scratch_population_after_flips() {
        let d = dataset();
        let t = d.schema().total_values();
        let start = Context::from_indices(t, [0, 3, 5]);
        let mut cursor = PopulationCursor::new(&d, &start).unwrap();
        let mut reference = start.clone();
        // A deterministic pseudo-random flip sequence.
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let bit = (state >> 33) as usize % t;
            cursor.flip(bit);
            reference.flip(bit);
            let expected = d.population(&reference).unwrap();
            assert_eq!(cursor.population(), &expected);
            assert_eq!(cursor.population_size(), expected.count());
            assert_eq!(cursor.context(), &reference);
        }
    }

    #[test]
    fn move_to_handles_arbitrary_jumps() {
        let d = dataset();
        let t = d.schema().total_values();
        let mut cursor = PopulationCursor::new(&d, &Context::empty(t)).unwrap();
        let targets = [
            Context::full(t),
            Context::from_indices(t, [1, 4, 6, 8]),
            Context::empty(t),
            Context::from_indices(t, [0, 1, 2, 3, 4, 5, 6, 7, 8]),
        ];
        for target in &targets {
            cursor.move_to(target).unwrap();
            let expected = d.population(target).unwrap();
            assert_eq!(cursor.population(), &expected);
        }
        // A no-op move keeps the cached result valid.
        let before = cursor.population_size();
        cursor.move_to(&targets[targets.len() - 1].clone()).unwrap();
        assert_eq!(cursor.population_size(), before);
    }

    #[test]
    fn ill_formed_contexts_have_empty_populations() {
        let d = dataset();
        let t = d.schema().total_values();
        // No value of attribute B selected.
        let context = Context::from_indices(t, [0, 6]);
        let mut cursor = PopulationCursor::new(&d, &context).unwrap();
        assert_eq!(cursor.population_size(), 0);
        assert_eq!(cursor.population().count(), 0);
        // Selecting a B value repairs it.
        cursor.flip(3);
        assert!(cursor.population_size() > 0);
    }

    #[test]
    fn length_mismatches_are_rejected() {
        let d = dataset();
        assert!(PopulationCursor::new(&d, &Context::empty(3)).is_err());
        let t = d.schema().total_values();
        let mut cursor = PopulationCursor::new(&d, &Context::empty(t)).unwrap();
        assert!(cursor.move_to(&Context::empty(3)).is_err());
    }

    #[test]
    fn tracked_moments_match_from_scratch_over_flips() {
        let d = dataset();
        let t = d.schema().total_values();
        let origin = d.metric(42);
        let start = Context::from_indices(t, [0, 3, 5]);
        let mut cursor = PopulationCursor::new(&d, &start).unwrap();
        // Interval 3 forces several refresh boundaries inside the walk.
        cursor.track_moments_every(origin, 3);
        let mut state = 0x9E3779B97F4A7C15u64;
        for step in 0..100 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cursor.flip((state >> 33) as usize % t);
            let (sum, sum_sq_dev) = cursor.moments();
            let expected = d.population_metric_moments(cursor.population(), origin);
            let tol = 1e-9 * (1.0 + expected.0.abs());
            assert!((sum - expected.0).abs() <= tol, "step {step}: sum {sum} vs {expected:?}");
            let tol = 1e-9 * (1.0 + expected.1.abs());
            assert!((sum_sq_dev - expected.1).abs() <= tol, "step {step}: sq {sum_sq_dev}");
        }
        assert!(cursor.moment_full_refreshes() > 1, "refresh boundary never crossed");
        assert!(cursor.moment_delta_syncs() > cursor.moment_full_refreshes());
        assert!(cursor.moment_words_scanned() > 0);
    }

    #[test]
    fn tracked_moments_skip_sync_when_population_unchanged() {
        let d = dataset();
        let t = d.schema().total_values();
        let context = Context::full(t);
        let mut cursor = PopulationCursor::new(&d, &context).unwrap();
        cursor.track_moments(d.metric(0));
        let first = cursor.moments();
        let words_after_first = cursor.moment_words_scanned();
        // No movement between calls: the tracker must not re-diff.
        assert_eq!(cursor.moments(), first);
        assert_eq!(cursor.moment_words_scanned(), words_after_first);
    }

    #[test]
    #[should_panic(expected = "moment tracking not enabled")]
    fn moments_without_tracking_panics() {
        let d = dataset();
        let t = d.schema().total_values();
        let mut cursor = PopulationCursor::new(&d, &Context::full(t)).unwrap();
        cursor.moments();
    }

    #[test]
    fn policies_carry_kernels_and_cursors_run_them_identically() {
        let d = dataset();
        let t = d.schema().total_values();
        let context = Context::from_indices(t, [0, 2, 3, 5, 7]);
        let mut reference = PopulationCursor::new(&d, &context).unwrap();
        assert_eq!(reference.kernel(), kernel::selected());
        for kind in KernelKind::supported() {
            let mut cursor = PopulationCursor::with_kernel(&d, &context, kind).unwrap();
            assert_eq!(cursor.kernel(), kind);
            assert_eq!(cursor.population(), reference.population());
            assert_eq!(cursor.population_size(), reference.population_size());
        }
    }

    #[test]
    fn neumaier_recovers_catastrophic_cancellation() {
        // 1e16 + 1 − 1e16 loses the 1 in naive f64 summation.
        let mut naive = 0.0f64;
        let mut comp = Neumaier::default();
        for x in [1e16, 1.0, -1e16] {
            naive += x;
            comp.add(x);
        }
        assert_eq!(naive, 0.0);
        assert_eq!(comp.value(), 1.0);
    }

    #[test]
    fn halt_before_any_work_interrupts_and_recovers() {
        let d = dataset();
        let t = d.schema().total_values();
        let context = Context::from_indices(t, [0, 3, 5]);
        let mut cursor = PopulationCursor::new(&d, &context).unwrap();
        cursor.set_halt(Some(Arc::new(|| true)));
        assert_eq!(cursor.population_size(), 0);
        assert!(cursor.interrupted());
        // Clearing the halt recovers the exact evaluation: `fresh` stayed
        // false, so the next accessor recomputes from the cached unions.
        cursor.set_halt(None);
        let expected = d.population(&context).unwrap();
        assert_eq!(cursor.population(), &expected);
        assert!(!cursor.interrupted());
    }

    #[test]
    fn halt_mid_pass_discards_partial_result() {
        let d = dataset();
        let t = d.schema().total_values();
        let context = Context::from_indices(t, [0, 1, 2, 3, 4, 5, 6, 7, 8]);
        let mut cursor = PopulationCursor::new(&d, &context).unwrap();
        // Fires on the second probe: the up-front check passes, then the
        // probe before the pass's first sub-chunk trips it.
        let probes = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&probes);
        cursor.set_halt(Some(Arc::new(move || seen.fetch_add(1, Ordering::Relaxed) >= 1)));
        assert_eq!(cursor.population_size(), 0);
        assert!(cursor.interrupted());
        cursor.set_halt(None);
        let expected = d.population(&context).unwrap();
        assert_eq!(cursor.population(), &expected);
        assert_eq!(cursor.population_size(), expected.count());
    }

    #[test]
    fn interrupted_pass_never_corrupts_moment_tracking() {
        let d = dataset();
        let t = d.schema().total_values();
        let context = Context::full(t);
        let mut cursor = PopulationCursor::new(&d, &context).unwrap();
        cursor.track_moments(0.0);
        let clean = cursor.moments();
        // Move the context, then interrupt the recompute: moments() must not
        // sync the tracker against the partial bitmap.
        cursor.flip(1);
        cursor.set_halt(Some(Arc::new(|| true)));
        assert_eq!(cursor.moments(), clean);
        assert!(cursor.interrupted());
        // After the halt clears, the tracker syncs against the completed
        // pass and matches the from-scratch statistics.
        cursor.set_halt(None);
        let expected = d.population_metric_moments(cursor.population(), 0.0);
        let tracked = cursor.moments();
        assert!((tracked.0 - expected.0).abs() < 1e-6);
        assert!((tracked.1 - expected.1).abs() < 1e-6);
    }
}
