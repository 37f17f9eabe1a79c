//! The release engine: a [`ReleaseSession`] binds one
//! `(dataset, detector, utility)` triple and serves many releases from it.
//!
//! The paper's cost model is dominated by `f_M` verification calls, and its
//! experiments repeatedly query the same dataset/detector pair. The one-shot
//! [`release_context`](crate::release_context) entry point tears down the
//! memoized [`Verifier`] after every call, so repeat releases of the same
//! record pay the full verification cost again. A session keeps one verifier
//! **per queried record** alive across releases: the starting-context search
//! and every context evaluated by earlier releases stay memoized, so repeated
//! releases (different seeds, different ε, different algorithms) only pay for
//! contexts they have not seen before.
//!
//! Reusing the verifier is privacy-neutral: `f_M` is a deterministic function
//! of the dataset, so a memoized answer is byte-identical to a recomputed one
//! and the released distribution — and therefore the OCDP accounting — is
//! unchanged. Each release still consumes its own ε; the session amortizes
//! *computation*, never *budget*.
//!
//! ```
//! use pcor_core::session::{ReleaseSession, ReleaseSpec, SeedPolicy};
//! use pcor_core::SamplingAlgorithm;
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
//! // Bind the session to records that actually are contextual outliers.
//! let outliers = session.find_outliers(1, 200).unwrap();
//! let record_id = outliers[0].record_id;
//!
//! let spec = ReleaseSpec::new(SamplingAlgorithm::Bfs, 0.2).with_samples(10);
//! let first = session.release(record_id, &spec).unwrap();
//! let second = session.release(record_id, &spec).unwrap();
//! // The second release reuses the memoized verifier: strictly fewer fresh
//! // verification calls than the first.
//! assert!(second.verification_calls < first.verification_calls);
//! assert!(first.guarantee.epsilon <= 0.2 + 1e-12);
//! ```

use crate::cancel::CancelToken;
use crate::coe::{enumerate_coe_with, ReferenceFile};
use crate::runner::OutlierQuery;
use crate::starting::{find_starting_context, DEFAULT_SEARCH_BUDGET};
use crate::verify::Verifier;
use crate::{PcorError, PcorResult, Result, SamplingAlgorithm};
use pcor_data::{Context, Dataset, KernelKind};
use pcor_dp::{MechanismKind, MechanismTally, Utility};
use pcor_outlier::OutlierDetector;
use pcor_telemetry::{SpanId, Telemetry, TraceId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-candidate starting-context search budget used by
/// [`ReleaseSession::find_outliers`] (matches the historical behavior of
/// [`find_random_outlier`](crate::runner::find_random_outlier)).
const CANDIDATE_SEARCH_BUDGET: usize = 500;

/// Configuration of one PCOR release (formerly `PcorConfig`; the old name
/// remains available as a type alias).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReleaseSpec {
    /// Which release algorithm to run.
    pub algorithm: SamplingAlgorithm,
    /// Total OCDP privacy budget `ε`.
    pub epsilon: f64,
    /// Number of samples `n` the sampling algorithms collect (the paper's
    /// experiments use 25–200, default 50).
    pub samples: usize,
    /// Attempt cap for uniform sampling (it may otherwise never find `n`
    /// matching contexts).
    pub max_attempts: usize,
    /// Maximum `t` for which exhaustive enumeration (Direct / reference file)
    /// is permitted; protects against accidentally requesting `2^25` work.
    pub enumeration_limit: usize,
    /// Optional explicit starting context `C_V`; when `None` the release
    /// searches for one from the record's minimal context (a session caches
    /// the search result per record).
    pub starting_context: Option<Context>,
    /// The DP selection mechanism drawing every private choice of this
    /// release. `None` defers to the session's default (itself
    /// [`MechanismKind::Exponential`] unless overridden on the builder), so
    /// specs serialized before the mechanism axis existed keep their exact
    /// behavior.
    pub mechanism: Option<MechanismKind>,
}

impl ReleaseSpec {
    /// Creates a spec with the paper's defaults (`n = 50`, 200 000
    /// uniform-sampling attempts, enumeration limited to `t ≤ 22`).
    pub fn new(algorithm: SamplingAlgorithm, epsilon: f64) -> Self {
        ReleaseSpec {
            algorithm,
            epsilon,
            samples: 50,
            max_attempts: 200_000,
            enumeration_limit: 22,
            starting_context: None,
            mechanism: None,
        }
    }

    /// Sets the number of samples `n`.
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Sets the uniform-sampling attempt cap.
    pub fn with_max_attempts(mut self, attempts: usize) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Sets the exhaustive-enumeration limit on `t`.
    pub fn with_enumeration_limit(mut self, limit: usize) -> Self {
        self.enumeration_limit = limit;
        self
    }

    /// Provides an explicit starting context.
    pub fn with_starting_context(mut self, context: Context) -> Self {
        self.starting_context = Some(context);
        self
    }

    /// Selects the DP mechanism every private draw of this release goes
    /// through (overriding the session default).
    pub fn with_mechanism(mut self, mechanism: MechanismKind) -> Self {
        self.mechanism = Some(mechanism);
        self
    }

    /// The effective mechanism of this spec when run outside a session
    /// (`Exponential` unless explicitly set).
    pub fn mechanism_kind(&self) -> MechanismKind {
        self.mechanism.unwrap_or_default()
    }

    /// Validates the spec.
    ///
    /// # Errors
    /// Returns [`PcorError::InvalidConfig`] for non-positive `ε` or zero
    /// samples.
    pub fn validate(&self) -> Result<()> {
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(PcorError::InvalidConfig(format!(
                "epsilon must be > 0, got {}",
                self.epsilon
            )));
        }
        if self.samples == 0 {
            return Err(PcorError::InvalidConfig("samples must be >= 1".into()));
        }
        Ok(())
    }
}

/// How a session derives the RNG seed of each release it runs through
/// [`ReleaseSession::release`] / [`ReleaseSession::release_batch`].
///
/// The explicit-seed entry points ([`ReleaseSession::release_with_seed`],
/// [`ReleaseSession::release_with_rng`]) bypass the policy. **Who picks the
/// seed matters for privacy** — see the seed caveat in the `pcor-service`
/// request documentation: seeds must come from entropy the analyst does not
/// know.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedPolicy {
    /// Derive a fresh deterministic seed per release by mixing a base seed
    /// with the session's release counter (replayable, never repeats within
    /// a session).
    Derived {
        /// The base seed every per-release seed is derived from.
        base: u64,
    },
    /// The same fixed seed for every release (useful for audit replay of a
    /// single release; repeated releases are identical by construction).
    Fixed(u64),
}

impl Default for SeedPolicy {
    fn default() -> Self {
        SeedPolicy::Derived { base: 0 }
    }
}

impl SeedPolicy {
    /// The seed of the `sequence`-th draw under this policy.
    pub fn seed_for(&self, sequence: u64) -> u64 {
        match self {
            SeedPolicy::Fixed(seed) => *seed,
            SeedPolicy::Derived { base } => splitmix64(base.wrapping_add(sequence)),
        }
    }
}

/// SplitMix64 finalizer — decorrelates consecutive counter values into
/// well-spread seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a [`ReleaseSession`], binding the dataset, detector and utility
/// once and configuring the optional knobs.
pub struct ReleaseSessionBuilder<'a> {
    dataset: &'a Dataset,
    detector: &'a dyn OutlierDetector,
    utility: &'a dyn Utility,
    seed_policy: SeedPolicy,
    search_budget: usize,
    mechanism: MechanismKind,
    trace: Option<TraceContext>,
    cancel: Option<CancelToken>,
}

/// The telemetry hookup of a traced session: every release opens a
/// `session.release` span (with a `session.verify` child) under `parent`
/// within `trace`.
#[derive(Clone)]
struct TraceContext {
    telemetry: Telemetry,
    trace: TraceId,
    parent: Option<SpanId>,
}

impl<'a> ReleaseSessionBuilder<'a> {
    /// Sets the seed policy for [`ReleaseSession::release`].
    #[must_use]
    pub fn seed_policy(mut self, policy: SeedPolicy) -> Self {
        self.seed_policy = policy;
        self
    }

    /// Sets the session's default DP selection mechanism (default
    /// [`MechanismKind::Exponential`], the paper's primitive). Specs with an
    /// explicit [`ReleaseSpec::mechanism`] override it per release.
    #[must_use]
    pub fn mechanism(mut self, mechanism: MechanismKind) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Sets the starting-context search budget (contexts examined before the
    /// search gives up; default [`DEFAULT_SEARCH_BUDGET`]).
    #[must_use]
    pub fn search_budget(mut self, budget: usize) -> Self {
        self.search_budget = budget.max(1);
        self
    }

    /// Attaches a telemetry bundle and the caller's trace position. Every
    /// release the session runs then opens a `session.release` span (with a
    /// `session.verify` child around the search itself) parented to
    /// `parent` within `trace`, and records its wall time into the stage
    /// histograms. Sessions without a trace context emit nothing.
    #[must_use]
    pub fn trace_context(
        mut self,
        telemetry: Telemetry,
        trace: TraceId,
        parent: Option<SpanId>,
    ) -> Self {
        self.trace = Some(TraceContext { telemetry, trace, parent });
        self
    }

    /// Attaches a [`CancelToken`]: every verifier the session creates
    /// checks it before each fresh `f_M` evaluation, so a tripped token
    /// stops in-flight releases with [`PcorError::Cancelled`] within one
    /// verification call. The session stays usable afterwards — memo
    /// caches are intact — which is what lets a serving layer refund a
    /// cancelled release's budget and keep the session warm.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Finalizes the session.
    pub fn build(self) -> ReleaseSession<'a> {
        ReleaseSession {
            dataset: self.dataset,
            detector: self.detector,
            utility: self.utility,
            seed_policy: self.seed_policy,
            search_budget: self.search_budget,
            mechanism: self.mechanism,
            trace: self.trace,
            cancel: self.cancel,
            verifiers: HashMap::new(),
            starting_contexts: HashMap::new(),
            references: HashMap::new(),
            releases: 0,
            draws: 0,
            mechanism_releases: MechanismTally::default(),
        }
    }
}

/// Cumulative counters of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Records with a live verifier (distinct records queried so far).
    pub records_bound: usize,
    /// Successful releases served by the session.
    pub releases: u64,
    /// Total uncached `f_M` verification calls across all verifiers.
    pub verification_calls: usize,
    /// Total evaluation requests across all verifiers (cache hits included).
    pub cache_lookups: usize,
    /// Evaluation requests answered from the verifiers' memo caches.
    pub cache_hits: usize,
    /// Total distinct contexts memoized across all verifiers.
    pub cached_contexts: usize,
    /// Bitmap words read by the verifiers' fused population passes (×8
    /// gives the bytes the verification hot loop touched).
    pub words_scanned: u64,
    /// Words read by the verifiers' incremental moment syncs (bitmap diffs
    /// plus one word per metric load); zero for slice-path detectors.
    pub moment_words_scanned: u64,
    /// The fused-pass kernel the session's verifiers run with (the
    /// process-wide runtime dispatch — `PCOR_KERNEL` or feature detection).
    pub kernel: KernelKind,
    /// Starting contexts resolved and cached.
    pub starting_contexts: usize,
    /// Successful releases broken down by the selection mechanism that
    /// produced them.
    pub mechanism_releases: MechanismTally,
}

impl SessionStats {
    /// Fraction of evaluation requests answered from the memo caches
    /// (`0.0` before any lookup happened).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }
}

/// A release engine bound to one `(dataset, detector, utility)` triple.
///
/// Created through [`ReleaseSession::builder`]. The session owns one
/// memoized [`Verifier`] per queried record, a starting-context cache and a
/// reference-file cache, all reused across releases — see the module docs
/// for why this is privacy-neutral.
pub struct ReleaseSession<'a> {
    dataset: &'a Dataset,
    detector: &'a dyn OutlierDetector,
    utility: &'a dyn Utility,
    seed_policy: SeedPolicy,
    search_budget: usize,
    mechanism: MechanismKind,
    trace: Option<TraceContext>,
    cancel: Option<CancelToken>,
    verifiers: HashMap<usize, Verifier<'a>>,
    starting_contexts: HashMap<usize, Context>,
    references: HashMap<usize, ReferenceFile>,
    releases: u64,
    draws: u64,
    mechanism_releases: MechanismTally,
}

impl<'a> ReleaseSession<'a> {
    /// Starts building a session over `dataset` with `detector` and
    /// `utility`.
    pub fn builder(
        dataset: &'a Dataset,
        detector: &'a dyn OutlierDetector,
        utility: &'a dyn Utility,
    ) -> ReleaseSessionBuilder<'a> {
        ReleaseSessionBuilder {
            dataset,
            detector,
            utility,
            seed_policy: SeedPolicy::default(),
            search_budget: DEFAULT_SEARCH_BUDGET,
            mechanism: MechanismKind::default(),
            trace: None,
            cancel: None,
        }
    }

    /// The session's default DP selection mechanism (applied to specs that
    /// leave [`ReleaseSpec::mechanism`] unset).
    pub fn mechanism(&self) -> MechanismKind {
        self.mechanism
    }

    /// The dataset the session is bound to.
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// The seed policy of [`release`](ReleaseSession::release).
    pub fn seed_policy(&self) -> SeedPolicy {
        self.seed_policy
    }

    /// The cached starting context of `record_id`, if one has been resolved.
    pub fn starting_context(&self, record_id: usize) -> Option<&Context> {
        self.starting_contexts.get(&record_id)
    }

    /// Whether the session already holds a verifier for `record_id`.
    pub fn has_record(&self, record_id: usize) -> bool {
        self.verifiers.contains_key(&record_id)
    }

    /// Cumulative session counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            records_bound: self.verifiers.len(),
            releases: self.releases,
            verification_calls: self.verifiers.values().map(Verifier::calls).sum(),
            cache_lookups: self.verifiers.values().map(Verifier::lookups).sum(),
            cache_hits: self.verifiers.values().map(Verifier::cache_hits).sum(),
            cached_contexts: self.verifiers.values().map(Verifier::distinct_contexts).sum(),
            words_scanned: self.verifiers.values().map(Verifier::words_scanned).sum(),
            moment_words_scanned: self.verifiers.values().map(Verifier::moment_words_scanned).sum(),
            kernel: self
                .verifiers
                .values()
                .next()
                .map_or_else(pcor_data::kernel::selected, Verifier::kernel),
            starting_contexts: self.starting_contexts.len(),
            mechanism_releases: self.mechanism_releases,
        }
    }

    /// The memoized verifier of `record_id`, created on first use.
    fn verifier(&mut self, record_id: usize) -> &mut Verifier<'a> {
        if !self.verifiers.contains_key(&record_id) {
            let verifier = self.new_verifier(record_id);
            self.verifiers.insert(record_id, verifier);
        }
        self.verifiers.get_mut(&record_id).expect("inserted above")
    }

    /// A fresh verifier for `record_id` that honours the session's cancel
    /// token. Every verifier the session runs is built here.
    fn new_verifier(&self, record_id: usize) -> Verifier<'a> {
        let mut verifier = Verifier::new(self.dataset, self.detector, self.utility, record_id);
        if let Some(token) = &self.cancel {
            verifier.set_cancel_token(token.clone());
        }
        verifier
    }

    /// Runs one release for `record_id`, seeding the RNG from the session's
    /// [`SeedPolicy`].
    ///
    /// # Errors
    /// As [`release_with_rng`](ReleaseSession::release_with_rng).
    pub fn release(&mut self, record_id: usize, spec: &ReleaseSpec) -> Result<PcorResult> {
        let seed = self.seed_policy.seed_for(self.draws);
        self.draws += 1;
        self.release_with_seed(record_id, spec, seed)
    }

    /// Runs one release for `record_id` with an explicit RNG seed
    /// (replayable: same session state + same seed ⇒ same released context).
    ///
    /// # Errors
    /// As [`release_with_rng`](ReleaseSession::release_with_rng).
    pub fn release_with_seed(
        &mut self,
        record_id: usize,
        spec: &ReleaseSpec,
        seed: u64,
    ) -> Result<PcorResult> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        self.release_with_rng(record_id, spec, &mut rng)
    }

    /// Runs one release for `record_id` drawing randomness from `rng`.
    ///
    /// The record's verifier (and its memoized `f_M` evaluations) is reused
    /// across calls; the result's `verification_calls` counts only the
    /// *fresh* calls this release performed.
    ///
    /// # Errors
    /// * [`PcorError::InvalidConfig`] for invalid specs or out-of-range ids;
    /// * [`PcorError::NoStartingContext`] when the record has no matching
    ///   context within the search budget (graph algorithms);
    /// * [`PcorError::NoSamples`] when sampling found no matching context;
    /// * verification/mechanism errors otherwise.
    pub fn release_with_rng<R: Rng + ?Sized>(
        &mut self,
        record_id: usize,
        spec: &ReleaseSpec,
        rng: &mut R,
    ) -> Result<PcorResult> {
        spec.validate()?;
        if record_id >= self.dataset.len() {
            return Err(PcorError::InvalidConfig(format!(
                "outlier id {record_id} out of range for a dataset of {} records",
                self.dataset.len()
            )));
        }
        let started = std::time::Instant::now();
        // Clone the (cheap, Arc-backed) trace hookup up front: the span
        // guards must outlive the mutable verifier borrow below.
        let trace = self.trace.clone();
        let release_span =
            trace.as_ref().map(|ctx| ctx.telemetry.span(ctx.trace, ctx.parent, "session.release"));
        let release_span_id = release_span.as_ref().map(pcor_telemetry::SpanGuard::id);
        // Snapshot before resolving the starting context so a first release
        // counts its search calls (matching the historical one-shot
        // behavior); cached repeats skip the search entirely.
        let calls_before = self.verifier(record_id).calls();
        let mut effective = spec.clone();
        // A spec without an explicit mechanism draws through the session
        // default (itself Exponential unless the builder overrode it).
        if effective.mechanism.is_none() {
            effective.mechanism = Some(self.mechanism);
        }
        if effective.starting_context.is_none() && effective.algorithm.needs_starting_context() {
            effective.starting_context = Some(self.resolve_starting_context(record_id)?);
        }
        let verifier = self.verifier(record_id);
        let mut result = {
            let _verify_span = trace
                .as_ref()
                .map(|ctx| ctx.telemetry.span(ctx.trace, release_span_id, "session.verify"));
            match effective.algorithm {
                SamplingAlgorithm::Direct => crate::direct::run(verifier, &effective, rng),
                SamplingAlgorithm::Uniform => crate::uniform::run(verifier, &effective, rng),
                SamplingAlgorithm::RandomWalk => crate::random_walk::run(verifier, &effective, rng),
                SamplingAlgorithm::Dfs => crate::dfs::run(verifier, &effective, rng),
                SamplingAlgorithm::Bfs => crate::bfs::run(verifier, &effective, rng),
            }
        }?;
        result.verification_calls = verifier.calls() - calls_before;
        result.runtime = started.elapsed();
        result.algorithm = effective.algorithm;
        self.releases += 1;
        self.mechanism_releases.record(result.mechanism);
        Ok(result)
    }

    /// Releases a context for every record in `record_ids` under one shared
    /// spec, seeding each release from the session's [`SeedPolicy`].
    ///
    /// Partial-failure semantics: every record gets its own `Result`; a
    /// failing record does not abort the rest of the batch. Repeated records
    /// share the memoized verifier, so they cost strictly fewer fresh
    /// verification calls than independent one-shot releases.
    pub fn release_batch(
        &mut self,
        record_ids: &[usize],
        spec: &ReleaseSpec,
    ) -> Vec<Result<PcorResult>> {
        record_ids.iter().map(|&record_id| self.release(record_id, spec)).collect()
    }

    /// Resolves (and caches) a starting context for `record_id`, searching
    /// with the session's budget on the record's memoized verifier.
    ///
    /// # Errors
    /// Returns [`PcorError::NoStartingContext`] when the record has no
    /// matching context within the budget.
    pub fn resolve_starting_context(&mut self, record_id: usize) -> Result<Context> {
        if let Some(context) = self.starting_contexts.get(&record_id) {
            return Ok(context.clone());
        }
        let budget = self.search_budget;
        let verifier = self.verifier(record_id);
        let context = find_starting_context(verifier, budget)?;
        self.starting_contexts.insert(record_id, context.clone());
        Ok(context)
    }

    /// Seeds the starting-context cache with an externally resolved context
    /// (e.g. a serving layer's shared cache). The context is **not**
    /// re-verified here; the release algorithms validate it before use.
    pub fn seed_starting_context(&mut self, record_id: usize, context: Context) {
        self.starting_contexts.insert(record_id, context);
    }

    /// Finds up to `count` distinct records of the dataset that are
    /// contextual outliers under the session's detector, examining up to
    /// `max_candidates` uniformly random candidates drawn from the session's
    /// [`SeedPolicy`]. Discovered starting contexts are cached for later
    /// releases.
    ///
    /// # Errors
    /// Returns [`PcorError::NoMatchingContext`] when not a single outlier
    /// was found.
    pub fn find_outliers(
        &mut self,
        count: usize,
        max_candidates: usize,
    ) -> Result<Vec<OutlierQuery>> {
        let seed = self.seed_policy.seed_for(self.draws);
        self.draws += 1;
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        self.find_outliers_with_rng(count, max_candidates, &mut rng)
    }

    /// As [`find_outliers`](ReleaseSession::find_outliers), drawing candidate
    /// records from `rng`.
    ///
    /// # Errors
    /// Returns [`PcorError::NoMatchingContext`] when not a single outlier
    /// was found.
    pub fn find_outliers_with_rng<R: Rng + ?Sized>(
        &mut self,
        count: usize,
        max_candidates: usize,
        rng: &mut R,
    ) -> Result<Vec<OutlierQuery>> {
        if self.dataset.is_empty() || count == 0 {
            return Err(PcorError::NoMatchingContext);
        }
        let mut found: Vec<OutlierQuery> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..max_candidates {
            if found.len() >= count {
                break;
            }
            let record_id = rng.random_range(0..self.dataset.len());
            if let Some(context) = self.starting_contexts.get(&record_id) {
                if seen.insert(record_id) {
                    found.push(OutlierQuery { record_id, starting_context: context.clone() });
                }
                continue;
            }
            // Search on the record's verifier if the session already holds
            // one, otherwise on a scratch verifier that is kept only when
            // the candidate turns out to be an outlier — a scan over
            // thousands of non-outlier candidates must not pin thousands of
            // memoized caches in memory.
            let mut scratch = if self.verifiers.contains_key(&record_id) {
                None
            } else {
                Some(self.new_verifier(record_id))
            };
            let verifier = match scratch.as_mut() {
                Some(verifier) => verifier,
                None => self.verifiers.get_mut(&record_id).expect("checked above"),
            };
            match find_starting_context(verifier, CANDIDATE_SEARCH_BUDGET) {
                Ok(context) => {
                    if let Some(verifier) = scratch {
                        self.verifiers.insert(record_id, verifier);
                    }
                    self.starting_contexts.insert(record_id, context.clone());
                    if seen.insert(record_id) {
                        found.push(OutlierQuery { record_id, starting_context: context });
                    }
                }
                Err(PcorError::NoStartingContext) => {}
                Err(other) => return Err(other),
            }
        }
        if found.is_empty() {
            return Err(PcorError::NoMatchingContext);
        }
        Ok(found)
    }

    /// The reference file (`COE_M` enumeration) of `record_id`, cached for
    /// the session's lifetime. The enumeration runs on the record's
    /// memoized verifier, reusing — and feeding — its `f_M` cache.
    ///
    /// # Errors
    /// * [`PcorError::TooManyAttributeValues`] when `t` exceeds `limit`;
    /// * [`PcorError::InvalidConfig`] for out-of-range ids.
    pub fn reference(&mut self, record_id: usize, limit: usize) -> Result<&ReferenceFile> {
        if record_id >= self.dataset.len() {
            return Err(PcorError::InvalidConfig(format!(
                "outlier id {record_id} out of range for a dataset of {} records",
                self.dataset.len()
            )));
        }
        if !self.references.contains_key(&record_id) {
            let reference = enumerate_coe_with(self.verifier(record_id), limit)?;
            self.references.insert(record_id, reference);
        }
        Ok(&self.references[&record_id])
    }
}

impl std::fmt::Debug for ReleaseSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReleaseSession")
            .field("detector", &self.detector.name())
            .field("utility", &self.utility.name())
            .field("seed_policy", &self.seed_policy)
            .field("stats", &self.stats())
            .finish()
    }
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
        let mut records = vec![Record::new(vec![0, 0], 950.0), Record::new(vec![1, 2], 875.0)];
        for i in 0..90 {
            records.push(Record::new(vec![(i % 2) as u16, (i % 3) as u16], 100.0 + (i % 9) as f64));
        }
        Dataset::new(schema, records).unwrap()
    }

    #[test]
    fn repeated_releases_reuse_the_verifier_cache() {
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut session = ReleaseSession::builder(&d, &detector, &utility).build();
        let spec = ReleaseSpec::new(SamplingAlgorithm::Bfs, 0.2).with_samples(8);
        let first = session.release(0, &spec).unwrap();
        let second = session.release(0, &spec).unwrap();
        assert!(first.verification_calls >= 1);
        assert!(
            second.verification_calls < first.verification_calls,
            "second release must replay mostly from cache ({} vs {})",
            second.verification_calls,
            first.verification_calls
        );
        // Per-release guarantees are unchanged by the shared cache.
        assert_eq!(first.guarantee, second.guarantee);
        let stats = session.stats();
        assert_eq!(stats.releases, 2);
        assert_eq!(stats.records_bound, 1);
        assert_eq!(stats.starting_contexts, 1);
        assert!(stats.verification_calls >= first.verification_calls);
    }

    #[test]
    fn one_shot_and_session_release_agree_for_equal_seeds() {
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let spec = ReleaseSpec::new(SamplingAlgorithm::Bfs, 0.2).with_samples(8);
        let mut session = ReleaseSession::builder(&d, &detector, &utility).build();
        let via_session = session.release_with_seed(0, &spec, 99).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(99);
        let via_free = crate::release_context(&d, 0, &detector, &utility, &spec, &mut rng).unwrap();
        assert_eq!(via_session.context, via_free.context);
        assert_eq!(via_session.utility, via_free.utility);
    }

    #[test]
    fn batch_returns_per_record_results_with_partial_failures() {
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut session = ReleaseSession::builder(&d, &detector, &utility).build();
        let spec = ReleaseSpec::new(SamplingAlgorithm::Bfs, 0.2).with_samples(8);
        // Record 5 sits in the bulk of its cell: its release must fail while
        // the planted outliers 0 and 1 succeed.
        let results = session.release_batch(&[0, 5, 1, 0], &spec);
        assert_eq!(results.len(), 4);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(PcorError::NoStartingContext));
        assert!(results[2].is_ok());
        assert!(results[3].is_ok());
        // The repeat of record 0 replays from cache.
        let first = results[0].as_ref().unwrap();
        let repeat = results[3].as_ref().unwrap();
        assert!(repeat.verification_calls < first.verification_calls);
    }

    #[test]
    fn seed_policy_drives_determinism() {
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let spec = ReleaseSpec::new(SamplingAlgorithm::Bfs, 0.2).with_samples(8);

        let run = |policy: SeedPolicy| {
            let mut session =
                ReleaseSession::builder(&d, &detector, &utility).seed_policy(policy).build();
            let a = session.release(0, &spec).unwrap();
            let b = session.release(0, &spec).unwrap();
            (a.context.clone(), b.context.clone())
        };
        // Derived policies replay across sessions...
        let (a1, b1) = run(SeedPolicy::Derived { base: 42 });
        let (a2, b2) = run(SeedPolicy::Derived { base: 42 });
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        // ...and a fixed policy makes repeats identical by construction.
        let (a3, b3) = run(SeedPolicy::Fixed(7));
        assert_eq!(a3, b3);
        // Distinct sequence numbers give distinct derived seeds.
        let policy = SeedPolicy::Derived { base: 42 };
        assert_ne!(policy.seed_for(0), policy.seed_for(1));
        assert_eq!(SeedPolicy::Fixed(9).seed_for(0), SeedPolicy::Fixed(9).seed_for(5));
    }

    #[test]
    fn find_outliers_caches_starting_contexts_for_release() {
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut session = ReleaseSession::builder(&d, &detector, &utility)
            .seed_policy(SeedPolicy::Derived { base: 9 })
            .build();
        let found = session.find_outliers(2, 2_000).unwrap();
        assert_eq!(found.len(), 2);
        assert_ne!(found[0].record_id, found[1].record_id);
        for query in &found {
            assert!(session.starting_context(query.record_id).is_some());
            assert!(query.record_id == 0 || query.record_id == 1);
        }
        // The release of a discovered record needs no fresh starting search.
        let calls_before = session.stats().verification_calls;
        let spec = ReleaseSpec::new(SamplingAlgorithm::Bfs, 0.2).with_samples(5);
        session.release(found[0].record_id, &spec).unwrap();
        assert!(session.stats().verification_calls >= calls_before);
    }

    #[test]
    fn failed_candidate_scans_do_not_pin_verifiers() {
        // A flat dataset has no outliers anywhere: the scan must fail
        // without binding a memoized verifier per examined candidate.
        let schema = Schema::new(vec![Attribute::from_values("A", &["a0", "a1"])], "M").unwrap();
        let records = (0..40).map(|i| Record::new(vec![(i % 2) as u16], 10.0)).collect();
        let d = Dataset::new(schema, records).unwrap();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut session = ReleaseSession::builder(&d, &detector, &utility).build();
        assert_eq!(session.find_outliers(3, 200), Err(PcorError::NoMatchingContext));
        assert_eq!(session.stats().records_bound, 0, "failed candidates must not be retained");
    }

    #[test]
    fn direct_and_uniform_need_no_starting_context() {
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut session = ReleaseSession::builder(&d, &detector, &utility).build();
        let spec = ReleaseSpec::new(SamplingAlgorithm::Direct, 0.2);
        session.release_with_seed(0, &spec, 3).unwrap();
        // No starting context was resolved for the direct algorithm.
        assert!(session.starting_context(0).is_none());
    }

    #[test]
    fn invalid_specs_and_ids_are_rejected() {
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut session = ReleaseSession::builder(&d, &detector, &utility).build();
        let spec = ReleaseSpec::new(SamplingAlgorithm::Bfs, -1.0);
        assert!(matches!(session.release(0, &spec), Err(PcorError::InvalidConfig(_))));
        let spec = ReleaseSpec::new(SamplingAlgorithm::Bfs, 0.2);
        assert!(matches!(session.release(10_000, &spec), Err(PcorError::InvalidConfig(_))));
        assert!(matches!(session.reference(10_000, 22), Err(PcorError::InvalidConfig(_))));
        assert!(matches!(session.find_outliers(0, 10), Err(PcorError::NoMatchingContext)));
    }

    #[test]
    fn references_are_cached_per_record() {
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut session = ReleaseSession::builder(&d, &detector, &utility).build();
        let first_len = session.reference(0, 22).unwrap().len();
        assert!(first_len >= 1);
        let calls_after_first = session.stats().verification_calls;
        let second_len = session.reference(0, 22).unwrap().len();
        assert_eq!(first_len, second_len);
        // The cached reference costs no fresh verification calls.
        assert_eq!(session.stats().verification_calls, calls_after_first);
        // It agrees with the standalone enumeration.
        let standalone = crate::coe::enumerate_coe(&d, 0, &detector, &utility, 22).unwrap();
        assert_eq!(session.reference(0, 22).unwrap().context_set(), standalone.context_set());
    }

    #[test]
    fn seeded_external_starting_context_is_used() {
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut session = ReleaseSession::builder(&d, &detector, &utility).build();
        let minimal = d.minimal_context(0).unwrap();
        session.seed_starting_context(0, minimal.clone());
        assert_eq!(session.starting_context(0), Some(&minimal));
        let resolved = session.resolve_starting_context(0).unwrap();
        assert_eq!(resolved, minimal);
    }

    #[test]
    fn specs_select_mechanisms_per_release_and_stats_tally_them() {
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let mut session = ReleaseSession::builder(&d, &detector, &utility).build();
        assert_eq!(session.mechanism(), MechanismKind::Exponential);
        let base = ReleaseSpec::new(SamplingAlgorithm::Bfs, 0.2).with_samples(8);
        for kind in MechanismKind::all() {
            let result =
                session.release_with_seed(0, &base.clone().with_mechanism(kind), 5).unwrap();
            assert_eq!(result.mechanism, kind);
            assert_eq!(result.guarantee.mechanism, kind);
            assert!((result.guarantee.epsilon - 0.2).abs() < 1e-12);
        }
        let tally = session.stats().mechanism_releases;
        assert_eq!(tally.count(MechanismKind::Exponential), 1);
        assert_eq!(tally.count(MechanismKind::PermuteAndFlip), 1);
        assert_eq!(tally.count(MechanismKind::ReportNoisyMax), 1);
        assert_eq!(tally.total(), 3);
    }

    #[test]
    fn builder_default_mechanism_applies_when_the_spec_is_silent() {
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let spec = ReleaseSpec::new(SamplingAlgorithm::Bfs, 0.2).with_samples(8);
        assert_eq!(spec.mechanism, None);
        assert_eq!(spec.mechanism_kind(), MechanismKind::Exponential);

        let mut session = ReleaseSession::builder(&d, &detector, &utility)
            .mechanism(MechanismKind::PermuteAndFlip)
            .build();
        assert_eq!(session.mechanism(), MechanismKind::PermuteAndFlip);
        let result = session.release_with_seed(0, &spec, 7).unwrap();
        assert_eq!(result.mechanism, MechanismKind::PermuteAndFlip);
        // An explicit spec mechanism overrides the session default.
        let result = session
            .release_with_seed(0, &spec.clone().with_mechanism(MechanismKind::Exponential), 7)
            .unwrap();
        assert_eq!(result.mechanism, MechanismKind::Exponential);
    }

    #[test]
    fn default_mechanism_releases_are_unchanged_by_the_mechanism_axis() {
        // The acceptance bar of the redesign: with MechanismKind::Exponential
        // (explicit or defaulted) the released context is bit-identical for
        // equal seeds.
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let spec = ReleaseSpec::new(SamplingAlgorithm::Bfs, 0.2).with_samples(8);
        let explicit = spec.clone().with_mechanism(MechanismKind::Exponential);
        let mut a = ReleaseSession::builder(&d, &detector, &utility).build();
        let mut b = ReleaseSession::builder(&d, &detector, &utility).build();
        for seed in [3u64, 99, 1234] {
            let defaulted = a.release_with_seed(0, &spec, seed).unwrap();
            let explicit = b.release_with_seed(0, &explicit, seed).unwrap();
            assert_eq!(defaulted.context, explicit.context);
            assert_eq!(defaulted.utility, explicit.utility);
        }
    }

    #[test]
    fn tripped_cancel_tokens_stop_releases_between_verifications() {
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let token = CancelToken::new();
        let mut session =
            ReleaseSession::builder(&d, &detector, &utility).cancel_token(token.clone()).build();
        let spec = ReleaseSpec::new(SamplingAlgorithm::Bfs, 0.2).with_samples(8);
        // Untripped: releases flow normally.
        session.release_with_seed(0, &spec, 5).unwrap();
        let cached_calls = session.stats().verification_calls;
        token.cancel();
        // A replayed release is served from the memo cache as far as it
        // goes, but the first *fresh* evaluation fails with Cancelled.
        let outcome = session.release_with_seed(1, &spec, 5);
        assert_eq!(outcome, Err(PcorError::Cancelled));
        assert_eq!(
            session.stats().verification_calls,
            cached_calls,
            "a cancelled release must not run fresh verification work"
        );
    }

    #[test]
    fn tripped_cancel_tokens_stop_fully_memoized_replays() {
        // A replay whose every verdict is cached never makes a fresh `f_M`
        // call, so only the per-step check can stop it.
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        for algorithm in SamplingAlgorithm::all() {
            let token = CancelToken::new();
            let mut session = ReleaseSession::builder(&d, &detector, &utility)
                .cancel_token(token.clone())
                .build();
            let spec = ReleaseSpec::new(algorithm, 0.2).with_samples(8);
            session.release_with_seed(0, &spec, 5).unwrap();
            let warm_calls = session.stats().verification_calls;
            token.cancel();
            let outcome = session.release_with_seed(0, &spec, 5);
            assert_eq!(outcome, Err(PcorError::Cancelled), "{algorithm:?}");
            assert_eq!(session.stats().verification_calls, warm_calls, "{algorithm:?}");
        }
    }

    #[test]
    fn tripped_cancel_tokens_stop_outlier_scans() {
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let token = CancelToken::new();
        token.cancel();
        let mut session =
            ReleaseSession::builder(&d, &detector, &utility).cancel_token(token).build();
        assert_eq!(session.find_outliers(1, 200), Err(PcorError::Cancelled));
        assert_eq!(session.stats().verification_calls, 0);
    }

    #[test]
    fn records_found_by_an_outlier_scan_honour_the_cancel_token() {
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let token = CancelToken::new();
        let mut session =
            ReleaseSession::builder(&d, &detector, &utility).cancel_token(token.clone()).build();
        let found = session.find_outliers(1, 200).unwrap();
        token.cancel();
        let spec = ReleaseSpec::new(SamplingAlgorithm::Bfs, 0.2).with_samples(8);
        assert_eq!(session.release(found[0].record_id, &spec), Err(PcorError::Cancelled));
    }

    #[test]
    fn debug_exposes_the_bound_components() {
        let d = dataset();
        let detector = ZScoreDetector::new(2.5);
        let utility = PopulationSizeUtility;
        let session = ReleaseSession::builder(&d, &detector, &utility)
            .search_budget(0) // clamped to >= 1
            .build();
        let dbg = format!("{session:?}");
        assert!(dbg.contains("ZScore"));
        assert!(dbg.contains("PopulationSize"));
    }
}
