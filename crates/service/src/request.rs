//! Typed, serializable release requests and responses, wrapped in a
//! versioned protocol envelope.
//!
//! Everything a remote analyst puts on the wire travels inside a
//! [`RequestEnvelope`]: a protocol version `v` plus a [`RequestBody`] that
//! is either a [`Single`](RequestBody::Single) [`ReleaseRequest`] or a
//! [`Batch`](RequestBody::Batch) [`BatchReleaseRequest`]. Responses mirror
//! the shape ([`ResponseEnvelope`] / [`ResponseBody`]). Versioning the
//! envelope (rather than the payloads) lets the protocol grow new body
//! kinds without breaking old clients: a server refuses versions it does
//! not speak with `ServiceError::UnsupportedProtocol` instead of
//! misparsing them.
//!
//! ## Protocol versions
//!
//! * **v1** — the original envelope: single/batch bodies, no mechanism
//!   choice. Still accepted: a v1 envelope deserializes with
//!   `mechanism: None` and is served through the default
//!   [`MechanismKind::Exponential`], byte-identical to a v1 server.
//! * **v2** (current) — bodies carry an optional `mechanism` field
//!   selecting the DP primitive ([`MechanismKind`]) the release is drawn
//!   through, and the envelope carries an optional `deadline_ms` budget:
//!   the server sheds or cancels the request once that much wall time has
//!   elapsed since admission, refunding any reserved ε
//!   (`ServiceError::DeadlineExceeded`). A v1 envelope that smuggles
//!   either v2 field is refused with `InvalidRequest` rather than
//!   silently honored, so custodians can gate both axes on the negotiated
//!   version.
//!
//! A [`ReleaseRequest`] carries the analyst's principal name, the dataset
//! and record they are querying, the detector, the release algorithm and
//! its ε/samples knobs, and a deterministic seed. The seed makes the
//! service *replayable*: the same request against the same registered
//! dataset produces the same released context, which is what an auditor
//! needs to verify a custodian's logs.
//!
//! A [`BatchReleaseRequest`] bundles many record queries against one
//! dataset/detector/algorithm binding. **Batch ε accounting:** the server
//! makes *one* two-phase ledger reservation for the **sum** of the
//! per-item budgets before any work starts (a batch that does not fit is
//! refused whole), shares one release session — and therefore one memoized
//! verifier per record — across all items, and resolves each item
//! independently: items that fail refund exactly their own ε slice while
//! the successful items' slices are committed. Per-record OCDP guarantees
//! are identical to single requests; only computation is amortized.
//!
//! **Privacy caveat — who picks the seed matters.** The OCDP guarantee of
//! the Exponential mechanism holds against observers who do *not* know the
//! mechanism's randomness. A seed chosen (or known) by the analyst makes
//! the release a deterministic function of the dataset for that analyst,
//! and the ε-ratio bound no longer constrains what they learn. In a
//! deployment with adversarial analysts the custodian must therefore
//! assign seeds itself — drawn from secret entropy and logged for audit
//! replay — rather than accept them from the request; the field is a knob
//! for the custodian's front end, not a promise that analyst-chosen seeds
//! are safe. (Trusted-analyst settings, experiments and tests can use it
//! directly, which is what this workspace's examples do.)

use crate::{Result, ServiceError};
use pcor_core::{PcorConfig, SamplingAlgorithm};
use pcor_data::Context;
use pcor_dp::budget::OcdpGuarantee;
use pcor_dp::MechanismKind;
use pcor_outlier::DetectorKind;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A contextual-outlier release request from one analyst.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReleaseRequest {
    /// The requesting analyst (budget principal).
    pub analyst: String,
    /// The registered dataset name.
    pub dataset: String,
    /// The queried record id.
    pub record_id: usize,
    /// The outlier detector to verify contexts with.
    pub detector: DetectorKind,
    /// The release algorithm.
    pub algorithm: SamplingAlgorithm,
    /// Total OCDP budget ε this release may consume.
    pub epsilon: f64,
    /// Number of samples `n` for the sampling algorithms.
    pub samples: usize,
    /// Seed of the per-request deterministic RNG.
    pub seed: u64,
    /// The DP selection mechanism to draw the release through (a **v2**
    /// protocol field). `None` — and every v1 envelope — means the default
    /// [`MechanismKind::Exponential`].
    pub mechanism: Option<MechanismKind>,
}

impl ReleaseRequest {
    /// Creates a request with the paper's default knobs (BFS, ε = 0.2,
    /// `n = 50`, LOF detector, seed 0, Exponential mechanism).
    pub fn new(analyst: &str, dataset: &str, record_id: usize) -> Self {
        ReleaseRequest {
            analyst: analyst.to_string(),
            dataset: dataset.to_string(),
            record_id,
            detector: DetectorKind::Lof,
            algorithm: SamplingAlgorithm::Bfs,
            epsilon: 0.2,
            samples: 50,
            seed: 0,
            mechanism: None,
        }
    }

    /// Sets the detector.
    #[must_use]
    pub fn with_detector(mut self, detector: DetectorKind) -> Self {
        self.detector = detector;
        self
    }

    /// Sets the release algorithm.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: SamplingAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the privacy budget ε of this release.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the sample count `n`.
    #[must_use]
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Sets the deterministic seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the DP mechanism the release is drawn through (requires a
    /// v2 envelope on the wire).
    #[must_use]
    pub fn with_mechanism(mut self, mechanism: MechanismKind) -> Self {
        self.mechanism = Some(mechanism);
        self
    }

    /// Validates the request's scalar knobs (the dataset/record existence
    /// checks happen against the registry at execution time).
    ///
    /// # Errors
    /// Returns [`ServiceError::InvalidRequest`] for empty principals,
    /// non-positive ε, or samples outside `1..=`[`MAX_SAMPLES`].
    pub fn validate(&self) -> Result<()> {
        if self.analyst.is_empty() {
            return Err(ServiceError::InvalidRequest("analyst must not be empty".into()));
        }
        if self.dataset.is_empty() {
            return Err(ServiceError::InvalidRequest("dataset must not be empty".into()));
        }
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(ServiceError::InvalidRequest(format!(
                "epsilon must be positive, got {}",
                self.epsilon
            )));
        }
        if self.samples == 0 || self.samples > MAX_SAMPLES {
            return Err(ServiceError::InvalidRequest(format!(
                "samples must be in 1..={MAX_SAMPLES}, got {}",
                self.samples
            )));
        }
        Ok(())
    }

    /// Maps the request's knobs onto a core [`PcorConfig`]. The starting
    /// context is left unset: the server resolves it through the release
    /// session (warmed from the registry cache).
    pub fn to_config(&self) -> PcorConfig {
        let config = PcorConfig::new(self.algorithm, self.epsilon).with_samples(self.samples);
        match self.mechanism {
            Some(mechanism) => config.with_mechanism(mechanism),
            None => config,
        }
    }
}

/// The outcome of a successfully served release.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReleaseResponse {
    /// The analyst the release was served to.
    pub analyst: String,
    /// The dataset queried.
    pub dataset: String,
    /// The record queried.
    pub record_id: usize,
    /// The privately released context.
    pub context: Context,
    /// The released context rendered as a predicate string.
    pub predicate: String,
    /// The utility score of the released context.
    pub utility: f64,
    /// Samples the algorithm collected before the final draw.
    pub samples_collected: usize,
    /// `f_M` verification calls performed by this query.
    pub verification_calls: usize,
    /// The OCDP guarantee of the release.
    pub guarantee: OcdpGuarantee,
    /// The DP selection mechanism that produced the release.
    pub mechanism: MechanismKind,
    /// ε this release consumed (committed against the analyst's budget).
    pub epsilon_spent: f64,
    /// ε the analyst still has on this dataset after the release.
    pub remaining_budget: f64,
    /// Whether the starting context came from the registry cache.
    pub cache_hit: bool,
    /// End-to-end service latency of this query (queue wait + release).
    pub latency: Duration,
    /// Index of the worker thread that served the query.
    pub worker: usize,
}

/// The wire-protocol version this build of the service speaks (v2: bodies
/// may carry a `mechanism` field).
pub const PROTOCOL_VERSION: u16 = 2;

/// The oldest protocol version the server still accepts. v1 envelopes are
/// served with the default mechanism, exactly as a v1 server would.
pub const MIN_PROTOCOL_VERSION: u16 = 1;

/// The most samples `n` one release may ask for: 5× the paper's largest
/// `n` (200). A release's work grows with `n`, and a random walk keeps
/// drawing memoized verdicts that never reach the cancel check, so an
/// unbounded `n` would pin a worker.
pub const MAX_SAMPLES: usize = 1_000;

/// The most items one batch may carry.
pub const MAX_BATCH_ITEMS: usize = 1_024;

/// The versioned request envelope: every message to the server is one of
/// these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Protocol version; the server accepts
    /// [`MIN_PROTOCOL_VERSION`]`..=`[`PROTOCOL_VERSION`] and refuses
    /// everything else.
    pub v: u16,
    /// Optional client-supplied trace id for end-to-end observability: the
    /// server adopts it as the release's `TraceId` (minting a fresh one
    /// when absent), so a front end can correlate its own logs with the
    /// server's spans and budget-audit events. Purely diagnostic — it never
    /// influences the release — and absent from v1 envelopes, which
    /// deserialize to `None`.
    pub trace: Option<u64>,
    /// Optional wall-clock budget for the whole request, in milliseconds
    /// since admission (a **v2** protocol field; v1 envelopes deserialize
    /// to `None` = no deadline). Once elapsed, a queued request is
    /// answered [`ServiceError::DeadlineExceeded`] without running and an
    /// in-flight release is cooperatively cancelled at its next
    /// verification call, refunding its reserved ε.
    pub deadline_ms: Option<u64>,
    /// The request payload.
    pub body: RequestBody,
}

impl RequestEnvelope {
    /// Wraps a single-record request at the current protocol version.
    pub fn single(request: ReleaseRequest) -> Self {
        RequestEnvelope {
            v: PROTOCOL_VERSION,
            trace: None,
            deadline_ms: None,
            body: RequestBody::Single(request),
        }
    }

    /// Wraps a batch request at the current protocol version.
    pub fn batch(batch: BatchReleaseRequest) -> Self {
        RequestEnvelope {
            v: PROTOCOL_VERSION,
            trace: None,
            deadline_ms: None,
            body: RequestBody::Batch(batch),
        }
    }

    /// Re-stamps the envelope at an explicit protocol version (for clients
    /// pinned to an older revision and for back-compat tests).
    #[must_use]
    pub fn at_version(mut self, v: u16) -> Self {
        self.v = v;
        self
    }

    /// Attaches a client-chosen trace id (non-zero) the server will adopt
    /// for this release's spans and audit events.
    #[must_use]
    pub fn with_trace(mut self, trace: u64) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Sets the request's wall-clock deadline, in milliseconds from
    /// admission (requires a v2 envelope on the wire).
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// The request's deadline as a [`Duration`], if one was set.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline_ms.map(Duration::from_millis)
    }

    /// The mechanism requested by the body, if any.
    pub fn mechanism(&self) -> Option<MechanismKind> {
        match &self.body {
            RequestBody::Single(request) => request.mechanism,
            RequestBody::Batch(batch) => batch.mechanism,
        }
    }

    /// Validates the envelope: version check plus body validation.
    ///
    /// # Errors
    /// Returns [`ServiceError::UnsupportedProtocol`] for versions outside
    /// the accepted range, [`ServiceError::InvalidRequest`] for a v1
    /// envelope carrying a v2 field (`mechanism`, `deadline_ms`) or a zero
    /// deadline, and propagates the body's validation errors.
    pub fn validate(&self) -> Result<()> {
        if self.v < MIN_PROTOCOL_VERSION || self.v > PROTOCOL_VERSION {
            return Err(ServiceError::UnsupportedProtocol {
                requested: self.v,
                supported: PROTOCOL_VERSION,
            });
        }
        if self.v < 2 && self.mechanism().is_some() {
            return Err(ServiceError::InvalidRequest(
                "the mechanism field requires protocol v2".into(),
            ));
        }
        if self.v < 2 && self.deadline_ms.is_some() {
            return Err(ServiceError::InvalidRequest(
                "the deadline_ms field requires protocol v2".into(),
            ));
        }
        if self.deadline_ms == Some(0) {
            return Err(ServiceError::InvalidRequest(
                "deadline_ms must be positive; omit the field for no deadline".into(),
            ));
        }
        match &self.body {
            RequestBody::Single(request) => request.validate(),
            RequestBody::Batch(batch) => batch.validate(),
        }
    }
}

/// The payload of a [`RequestEnvelope`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// One record query.
    Single(ReleaseRequest),
    /// Many record queries sharing one dataset/detector/algorithm binding.
    Batch(BatchReleaseRequest),
}

/// One record query inside a batch: the per-item knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchItem {
    /// The queried record id.
    pub record_id: usize,
    /// OCDP budget ε this item may consume (refunded if the item fails).
    pub epsilon: f64,
    /// Number of samples `n` for the sampling algorithms.
    pub samples: usize,
    /// Seed of this item's deterministic RNG.
    pub seed: u64,
}

impl BatchItem {
    /// Creates an item with the paper's default knobs (ε = 0.2, `n = 50`,
    /// seed 0).
    pub fn new(record_id: usize) -> Self {
        BatchItem { record_id, epsilon: 0.2, samples: 50, seed: 0 }
    }

    /// Sets the item's privacy budget ε.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the item's sample count `n`.
    #[must_use]
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Sets the item's deterministic seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A batched release request: many records, one dataset/detector/algorithm
/// binding, one summed-ε ledger reservation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReleaseRequest {
    /// The requesting analyst (budget principal).
    pub analyst: String,
    /// The registered dataset name.
    pub dataset: String,
    /// The outlier detector shared by every item.
    pub detector: DetectorKind,
    /// The release algorithm shared by every item.
    pub algorithm: SamplingAlgorithm,
    /// The DP selection mechanism shared by every item (a **v2** protocol
    /// field). `None` — and every v1 envelope — means the default
    /// [`MechanismKind::Exponential`].
    pub mechanism: Option<MechanismKind>,
    /// The record queries.
    pub items: Vec<BatchItem>,
}

impl BatchReleaseRequest {
    /// Creates an empty batch with the paper's default knobs (BFS, LOF,
    /// Exponential mechanism).
    pub fn new(analyst: &str, dataset: &str) -> Self {
        BatchReleaseRequest {
            analyst: analyst.to_string(),
            dataset: dataset.to_string(),
            detector: DetectorKind::Lof,
            algorithm: SamplingAlgorithm::Bfs,
            mechanism: None,
            items: Vec::new(),
        }
    }

    /// Sets the shared detector.
    #[must_use]
    pub fn with_detector(mut self, detector: DetectorKind) -> Self {
        self.detector = detector;
        self
    }

    /// Sets the shared release algorithm.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: SamplingAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the DP mechanism every item is drawn through (requires a v2
    /// envelope on the wire).
    #[must_use]
    pub fn with_mechanism(mut self, mechanism: MechanismKind) -> Self {
        self.mechanism = Some(mechanism);
        self
    }

    /// Appends one item.
    #[must_use]
    pub fn push(mut self, item: BatchItem) -> Self {
        self.items.push(item);
        self
    }

    /// Replaces the item list.
    #[must_use]
    pub fn with_items(mut self, items: Vec<BatchItem>) -> Self {
        self.items = items;
        self
    }

    /// The summed ε of every item — the size of the batch's single ledger
    /// reservation.
    pub fn total_epsilon(&self) -> f64 {
        self.items.iter().map(|item| item.epsilon).sum()
    }

    /// Validates the batch's scalar knobs (dataset/record existence checks
    /// happen against the registry at execution time).
    ///
    /// # Errors
    /// Returns [`ServiceError::InvalidRequest`] for empty principals, an
    /// item count outside `1..=`[`MAX_BATCH_ITEMS`], non-positive per-item
    /// ε, per-item samples outside `1..=`[`MAX_SAMPLES`], or a summed ε
    /// that is not finite.
    pub fn validate(&self) -> Result<()> {
        if self.analyst.is_empty() {
            return Err(ServiceError::InvalidRequest("analyst must not be empty".into()));
        }
        if self.dataset.is_empty() {
            return Err(ServiceError::InvalidRequest("dataset must not be empty".into()));
        }
        if self.items.is_empty() || self.items.len() > MAX_BATCH_ITEMS {
            return Err(ServiceError::InvalidRequest(format!(
                "batch must contain 1..={MAX_BATCH_ITEMS} items, got {}",
                self.items.len()
            )));
        }
        for (index, item) in self.items.iter().enumerate() {
            if !item.epsilon.is_finite() || item.epsilon <= 0.0 {
                return Err(ServiceError::InvalidRequest(format!(
                    "item {index}: epsilon must be positive, got {}",
                    item.epsilon
                )));
            }
            if item.samples == 0 || item.samples > MAX_SAMPLES {
                return Err(ServiceError::InvalidRequest(format!(
                    "item {index}: samples must be in 1..={MAX_SAMPLES}, got {}",
                    item.samples
                )));
            }
        }
        // Finite items can still sum past f64::MAX; the ledger must never
        // be asked to reserve an infinite ε.
        if !self.total_epsilon().is_finite() {
            return Err(ServiceError::InvalidRequest("summed epsilon is not finite".into()));
        }
        Ok(())
    }

    /// Maps one item's knobs onto a core [`PcorConfig`].
    pub fn item_config(&self, item: &BatchItem) -> PcorConfig {
        let config = PcorConfig::new(self.algorithm, item.epsilon).with_samples(item.samples);
        match self.mechanism {
            Some(mechanism) => config.with_mechanism(mechanism),
            None => config,
        }
    }
}

/// A single release is a one-item batch: same binding, one item carrying
/// the request's ε, samples and seed. The server serves singles this way.
impl From<ReleaseRequest> for BatchReleaseRequest {
    fn from(request: ReleaseRequest) -> Self {
        BatchReleaseRequest {
            analyst: request.analyst,
            dataset: request.dataset,
            detector: request.detector,
            algorithm: request.algorithm,
            mechanism: request.mechanism,
            items: vec![BatchItem {
                record_id: request.record_id,
                epsilon: request.epsilon,
                samples: request.samples,
                seed: request.seed,
            }],
        }
    }
}

/// The versioned response envelope mirroring [`RequestEnvelope`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// Protocol version of the response.
    pub v: u16,
    /// The response payload.
    pub body: ResponseBody,
}

impl ResponseEnvelope {
    /// Wraps a single-record response at the current protocol version.
    pub fn single(response: ReleaseResponse) -> Self {
        ResponseEnvelope { v: PROTOCOL_VERSION, body: ResponseBody::Single(response) }
    }

    /// Wraps a batch response at the current protocol version.
    pub fn batch(response: BatchReleaseResponse) -> Self {
        ResponseEnvelope { v: PROTOCOL_VERSION, body: ResponseBody::Batch(response) }
    }

    /// Re-stamps the envelope at an explicit protocol version. The server
    /// echoes the *request's* version here, so a v1 client never receives
    /// a response stamped with a version it would refuse.
    #[must_use]
    pub fn at_version(mut self, v: u16) -> Self {
        self.v = v;
        self
    }

    /// Unwraps a single-record response, `None` for batch bodies.
    pub fn into_single(self) -> Option<ReleaseResponse> {
        match self.body {
            ResponseBody::Single(response) => Some(response),
            ResponseBody::Batch(_) => None,
        }
    }

    /// Unwraps a batch response, `None` for single bodies.
    pub fn into_batch(self) -> Option<BatchReleaseResponse> {
        match self.body {
            ResponseBody::Batch(response) => Some(response),
            ResponseBody::Single(_) => None,
        }
    }
}

/// The payload of a [`ResponseEnvelope`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponseBody {
    /// The answer to a [`RequestBody::Single`].
    Single(ReleaseResponse),
    /// The answer to a [`RequestBody::Batch`].
    Batch(BatchReleaseResponse),
}

/// The released context of one successful batch item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemRelease {
    /// The privately released context.
    pub context: Context,
    /// The released context rendered as a predicate string.
    pub predicate: String,
    /// The utility score of the released context.
    pub utility: f64,
    /// Samples the algorithm collected before the final draw.
    pub samples_collected: usize,
    /// Fresh `f_M` verification calls this item performed (cached
    /// evaluations from earlier items in the batch are free and not
    /// counted).
    pub verification_calls: usize,
    /// The OCDP guarantee of this item's release (identical to an
    /// equivalent single request).
    pub guarantee: OcdpGuarantee,
    /// The DP selection mechanism that produced this item's release.
    pub mechanism: MechanismKind,
    /// Whether the item's starting context was already cached (by the
    /// registry or by an earlier item of this batch).
    pub cache_hit: bool,
}

/// How one batch item resolved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ItemOutcome {
    /// The item's release succeeded; its ε slice was committed.
    Released(ItemRelease),
    /// The item's release failed; its ε slice was refunded.
    Failed {
        /// Human-readable failure reason.
        error: String,
    },
}

impl ItemOutcome {
    /// The release payload, `None` for failed items.
    pub fn released(&self) -> Option<&ItemRelease> {
        match self {
            ItemOutcome::Released(release) => Some(release),
            ItemOutcome::Failed { .. } => None,
        }
    }

    /// Whether the item succeeded.
    pub fn is_released(&self) -> bool {
        matches!(self, ItemOutcome::Released(_))
    }
}

/// The per-item result of one batch item, echoing its identity and ε slice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchItemResponse {
    /// The queried record id.
    pub record_id: usize,
    /// The item's ε slice (committed on success, refunded on failure).
    pub epsilon: f64,
    /// How the item resolved.
    pub outcome: ItemOutcome,
}

/// The outcome of a served batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReleaseResponse {
    /// The analyst the batch was served to.
    pub analyst: String,
    /// The dataset queried.
    pub dataset: String,
    /// Per-item results, in request order (partial-failure semantics).
    pub items: Vec<BatchItemResponse>,
    /// ε committed against the analyst's budget (sum over released items).
    pub epsilon_committed: f64,
    /// ε refunded back to the analyst (sum over failed items).
    pub epsilon_refunded: f64,
    /// ε the analyst still has on this dataset after the batch.
    pub remaining_budget: f64,
    /// Total fresh `f_M` verification calls across the whole batch.
    pub verification_calls: usize,
    /// End-to-end service latency of the batch (queue wait + releases).
    pub latency: Duration,
    /// Index of the worker thread that served the batch.
    pub worker: usize,
}

impl BatchReleaseResponse {
    /// Number of items that released successfully.
    pub fn released(&self) -> usize {
        self.items.iter().filter(|item| item.outcome.is_released()).count()
    }

    /// Number of items that failed.
    pub fn failed(&self) -> usize {
        self.items.len() - self.released()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_every_knob() {
        let request = ReleaseRequest::new("alice", "salary", 3)
            .with_detector(DetectorKind::ZScore)
            .with_algorithm(SamplingAlgorithm::RandomWalk)
            .with_epsilon(0.4)
            .with_samples(25)
            .with_seed(99);
        assert_eq!(request.analyst, "alice");
        assert_eq!(request.dataset, "salary");
        assert_eq!(request.record_id, 3);
        assert_eq!(request.detector, DetectorKind::ZScore);
        assert_eq!(request.algorithm, SamplingAlgorithm::RandomWalk);
        assert_eq!(request.epsilon, 0.4);
        assert_eq!(request.samples, 25);
        assert_eq!(request.seed, 99);
        assert!(request.validate().is_ok());
        let config = request.to_config();
        assert_eq!(config.algorithm, SamplingAlgorithm::RandomWalk);
        assert_eq!(config.epsilon, 0.4);
        assert_eq!(config.samples, 25);
        assert!(config.starting_context.is_none(), "the session resolves the starting context");
    }

    #[test]
    fn validation_rejects_bad_requests() {
        assert!(ReleaseRequest::new("", "salary", 0).validate().is_err());
        assert!(ReleaseRequest::new("a", "", 0).validate().is_err());
        assert!(ReleaseRequest::new("a", "d", 0).with_epsilon(0.0).validate().is_err());
        assert!(ReleaseRequest::new("a", "d", 0).with_epsilon(f64::NAN).validate().is_err());
        assert!(ReleaseRequest::new("a", "d", 0).with_samples(0).validate().is_err());
    }

    #[test]
    fn validation_caps_samples_at_max_samples() {
        let request = ReleaseRequest::new("a", "d", 0);
        assert!(request.clone().with_samples(MAX_SAMPLES).validate().is_ok());
        assert!(request.clone().with_samples(MAX_SAMPLES + 1).validate().is_err());
        assert!(request.with_samples(usize::MAX).validate().is_err());
        let batch = |samples| {
            BatchReleaseRequest::new("a", "d").push(BatchItem::new(0).with_samples(samples))
        };
        assert!(batch(MAX_SAMPLES).validate().is_ok());
        match batch(usize::MAX).validate() {
            Err(ServiceError::InvalidRequest(msg)) => assert!(msg.contains("item 0"), "{msg}"),
            other => panic!("expected a samples refusal, got {other:?}"),
        }
    }

    #[test]
    fn validation_caps_batches_at_max_batch_items() {
        let batch =
            |items| BatchReleaseRequest::new("a", "d").with_items(vec![BatchItem::new(0); items]);
        assert!(batch(MAX_BATCH_ITEMS).validate().is_ok());
        assert!(batch(MAX_BATCH_ITEMS + 1).validate().is_err());
    }

    #[test]
    fn validation_refuses_a_batch_whose_summed_epsilon_overflows() {
        let item = BatchItem::new(0).with_epsilon(f64::MAX);
        let one = BatchReleaseRequest::new("a", "d").push(item.clone());
        assert!(one.validate().is_ok(), "each item's ε is finite on its own");
        let two = one.push(item);
        assert!(two.total_epsilon().is_infinite());
        assert!(two.validate().is_err());
    }

    #[test]
    fn envelopes_round_trip_through_json() {
        let single = RequestEnvelope::single(ReleaseRequest::new("alice", "salary", 3));
        let json = serde_json::to_string(&single).unwrap();
        let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, single);
        assert!(json.contains("\"v\""));
        assert!(json.contains("\"Single\""));

        let batch = RequestEnvelope::batch(
            BatchReleaseRequest::new("bob", "homicide")
                .with_detector(DetectorKind::ZScore)
                .with_algorithm(SamplingAlgorithm::Dfs)
                .push(BatchItem::new(4).with_epsilon(0.1).with_samples(25).with_seed(9))
                .push(BatchItem::new(7)),
        );
        let json = serde_json::to_string(&batch).unwrap();
        let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, batch);
        assert!(json.contains("\"Batch\""));
        assert!(json.contains("\"items\""));
    }

    #[test]
    fn envelope_validation_checks_version_and_body() {
        let good = RequestEnvelope::single(ReleaseRequest::new("alice", "salary", 3));
        assert_eq!(good.v, PROTOCOL_VERSION);
        assert!(good.validate().is_ok());
        let wrong_version = good.clone().at_version(PROTOCOL_VERSION + 1);
        assert!(matches!(
            wrong_version.validate(),
            Err(ServiceError::UnsupportedProtocol { requested: 3, supported: PROTOCOL_VERSION })
        ));
        let too_old = good.clone().at_version(0);
        assert!(matches!(too_old.validate(), Err(ServiceError::UnsupportedProtocol { .. })));
        let bad_body = RequestEnvelope::single(ReleaseRequest::new("", "salary", 3));
        assert!(matches!(bad_body.validate(), Err(ServiceError::InvalidRequest(_))));
        let empty_batch = RequestEnvelope::batch(BatchReleaseRequest::new("alice", "salary"));
        assert!(matches!(empty_batch.validate(), Err(ServiceError::InvalidRequest(_))));
    }

    #[test]
    fn v1_envelopes_without_a_mechanism_field_still_parse_and_validate() {
        // A request serialized by a v1 client has no `mechanism` key at
        // all; it must deserialize to `None` and validate at v = 1.
        let v1_json = r#"{
            "v": 1,
            "body": {"Single": {
                "analyst": "alice", "dataset": "salary", "record_id": 3,
                "detector": "Lof", "algorithm": "Bfs",
                "epsilon": 0.2, "samples": 50, "seed": 7
            }}
        }"#;
        let envelope: RequestEnvelope = serde_json::from_str(v1_json).unwrap();
        assert_eq!(envelope.v, 1);
        assert!(envelope.validate().is_ok());
        assert_eq!(envelope.mechanism(), None);
        match &envelope.body {
            RequestBody::Single(request) => {
                assert_eq!(request.seed, 7);
                assert_eq!(request.to_config().mechanism_kind(), MechanismKind::Exponential);
            }
            other => panic!("expected a single body, got {other:?}"),
        }
        // The same body round-trips through the v2 serializer unchanged.
        let reserialized = serde_json::to_string(&envelope).unwrap();
        let back: RequestEnvelope = serde_json::from_str(&reserialized).unwrap();
        assert_eq!(back, envelope);
    }

    #[test]
    fn v1_envelopes_cannot_smuggle_the_v2_mechanism_field() {
        let request =
            ReleaseRequest::new("alice", "salary", 3).with_mechanism(MechanismKind::PermuteAndFlip);
        let v1 = RequestEnvelope::single(request).at_version(1);
        match v1.validate() {
            Err(ServiceError::InvalidRequest(msg)) => assert!(msg.contains("v2"), "{msg}"),
            other => panic!("expected an invalid-request refusal, got {other:?}"),
        }
        let batch = BatchReleaseRequest::new("alice", "salary")
            .with_mechanism(MechanismKind::ReportNoisyMax)
            .push(BatchItem::new(0));
        let v1 = RequestEnvelope::batch(batch).at_version(1);
        assert!(matches!(v1.validate(), Err(ServiceError::InvalidRequest(_))));
    }

    #[test]
    fn deadlines_are_a_v2_field_and_round_trip() {
        let envelope = RequestEnvelope::single(ReleaseRequest::new("alice", "salary", 3))
            .with_deadline_ms(1500);
        assert!(envelope.validate().is_ok());
        assert_eq!(envelope.deadline(), Some(Duration::from_millis(1500)));
        let json = serde_json::to_string(&envelope).unwrap();
        assert!(json.contains("deadline_ms"));
        let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, envelope);

        // A v1 envelope cannot smuggle a deadline.
        let v1 = envelope.clone().at_version(1);
        match v1.validate() {
            Err(ServiceError::InvalidRequest(msg)) => assert!(msg.contains("v2"), "{msg}"),
            other => panic!("expected an invalid-request refusal, got {other:?}"),
        }
        // A zero deadline is meaningless: refuse it loudly instead of
        // expiring every such request at admission.
        let zero =
            RequestEnvelope::single(ReleaseRequest::new("alice", "salary", 3)).with_deadline_ms(0);
        assert!(matches!(zero.validate(), Err(ServiceError::InvalidRequest(_))));
        // v1 JSON without the field still parses to "no deadline".
        let v1_json = r#"{
            "v": 1,
            "body": {"Single": {
                "analyst": "alice", "dataset": "salary", "record_id": 3,
                "detector": "Lof", "algorithm": "Bfs",
                "epsilon": 0.2, "samples": 50, "seed": 7
            }}
        }"#;
        let parsed: RequestEnvelope = serde_json::from_str(v1_json).unwrap();
        assert_eq!(parsed.deadline_ms, None);
        assert!(parsed.validate().is_ok());
    }

    #[test]
    fn v2_envelopes_round_trip_the_mechanism_choice() {
        let single = RequestEnvelope::single(
            ReleaseRequest::new("alice", "salary", 3).with_mechanism(MechanismKind::PermuteAndFlip),
        );
        assert!(single.validate().is_ok());
        assert_eq!(single.mechanism(), Some(MechanismKind::PermuteAndFlip));
        let json = serde_json::to_string(&single).unwrap();
        assert!(json.contains("PermuteAndFlip"));
        let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, single);
        let batch = RequestEnvelope::batch(
            BatchReleaseRequest::new("bob", "homicide")
                .with_mechanism(MechanismKind::ReportNoisyMax)
                .push(BatchItem::new(4)),
        );
        let json = serde_json::to_string(&batch).unwrap();
        let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, batch);
        match &back.body {
            RequestBody::Batch(batch) => {
                let config = batch.item_config(&batch.items[0]);
                assert_eq!(config.mechanism_kind(), MechanismKind::ReportNoisyMax);
            }
            other => panic!("expected a batch body, got {other:?}"),
        }
    }

    #[test]
    fn batch_builders_sum_epsilon_and_map_item_configs() {
        let batch = BatchReleaseRequest::new("alice", "salary")
            .with_detector(DetectorKind::Iqr)
            .with_algorithm(SamplingAlgorithm::RandomWalk)
            .with_items(vec![
                BatchItem::new(1).with_epsilon(0.2).with_samples(10).with_seed(1),
                BatchItem::new(2).with_epsilon(0.3).with_samples(20).with_seed(2),
            ]);
        assert!((batch.total_epsilon() - 0.5).abs() < 1e-12);
        assert!(batch.validate().is_ok());
        let config = batch.item_config(&batch.items[1]);
        assert_eq!(config.algorithm, SamplingAlgorithm::RandomWalk);
        assert_eq!(config.epsilon, 0.3);
        assert_eq!(config.samples, 20);
        // Per-item validation failures name the offending item.
        let bad = batch.clone().push(BatchItem::new(3).with_samples(0));
        match bad.validate() {
            Err(ServiceError::InvalidRequest(msg)) => assert!(msg.contains("item 2")),
            other => panic!("expected per-item validation failure, got {other:?}"),
        }
    }

    #[test]
    fn response_envelopes_unwrap_by_kind() {
        let batch_response = BatchReleaseResponse {
            analyst: "alice".into(),
            dataset: "salary".into(),
            items: vec![BatchItemResponse {
                record_id: 1,
                epsilon: 0.2,
                outcome: ItemOutcome::Failed { error: "no matching context".into() },
            }],
            epsilon_committed: 0.0,
            epsilon_refunded: 0.2,
            remaining_budget: 1.0,
            verification_calls: 12,
            latency: Duration::from_millis(3),
            worker: 0,
        };
        assert_eq!(batch_response.released(), 0);
        assert_eq!(batch_response.failed(), 1);
        assert!(!batch_response.items[0].outcome.is_released());
        assert!(batch_response.items[0].outcome.released().is_none());
        let envelope = ResponseEnvelope::batch(batch_response.clone());
        let json = serde_json::to_string(&envelope).unwrap();
        let back: ResponseEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, envelope);
        assert!(back.clone().into_single().is_none());
        assert_eq!(back.into_batch().unwrap(), batch_response);
    }

    #[test]
    fn requests_round_trip_through_json() {
        let request = ReleaseRequest::new("bob", "homicide", 17)
            .with_algorithm(SamplingAlgorithm::Dfs)
            .with_seed(u64::MAX);
        let json = serde_json::to_string(&request).unwrap();
        let back: ReleaseRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request);
        // The wire format is readable: field names and the enum tags appear.
        assert!(json.contains("\"analyst\""));
        assert!(json.contains("\"Dfs\""));
        assert!(json.contains("\"Lof\""));
    }
}
