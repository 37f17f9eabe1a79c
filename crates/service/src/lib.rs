//! # pcor-service
//!
//! A concurrent, multi-analyst release server over the PCOR core — the
//! serving layer the paper's deployment story implies: a data custodian
//! hosts sensitive datasets and answers contextual-outlier queries from
//! many untrusted analysts, metering each analyst's Output-Constrained-DP
//! budget across queries (in the spirit of per-user budget accounting in
//! search-log publication) and caching per-dataset derived state so repeat
//! queries do not pay the full search cost again.
//!
//! The subsystem is built from four pieces:
//!
//! * [`DatasetRegistry`] — named datasets behind
//!   `Arc`, with memoized schema statistics and an LRU cache of *verified
//!   starting contexts* keyed by `(dataset, record, detector)`. Starting-
//!   context discovery is the expensive, non-private preprocessing step of
//!   every graph-based release; caching it turns repeat queries against the
//!   same record into cheap work.
//! * [`BudgetLedger`] — per-`(analyst, dataset)`
//!   budget accounts driven by a two-phase reserve/commit/refund protocol,
//!   so concurrent requests can never jointly over-spend and failed
//!   releases return their ε. Each account is its grant plus the fold of
//!   the [`pcor_telemetry::BudgetEvent`]s it recorded, so the ledger, its
//!   audit log and its write-ahead log hold one budget truth.
//! * [`RequestEnvelope`] /
//!   [`ResponseEnvelope`] — the **versioned wire
//!   protocol**: every message is an envelope whose body is either a
//!   [`Single`](RequestBody::Single)
//!   [`ReleaseRequest`] or a
//!   [`Batch`](RequestBody::Batch)
//!   [`BatchReleaseRequest`]; unknown
//!   versions are refused with [`ServiceError::UnsupportedProtocol`].
//! * [`Server`] — a bounded-queue worker pool executing
//!   envelopes concurrently; every response reports per-query latency and
//!   the analyst's remaining budget. A batch makes one summed-ε ledger
//!   reservation (refused whole if it does not fit), is served on one
//!   shared [`pcor_core::ReleaseSession`] — so repeat records replay from
//!   the memoized verifier — and resolves items independently: failed
//!   items refund exactly their ε slice (see the [`request`] module docs
//!   for the full accounting rule).
//!
//! ## Privacy model and caveats
//!
//! The ledger meters the ε consumed by the Exponential-mechanism releases
//! themselves. Two boundaries of that accounting are worth knowing:
//!
//! * **Failure is a free bit.** A release for a record that is not a
//!   contextual outlier fails before any mechanism runs, and its reserved
//!   ε is refunded (the ISSUE-mandated refund-on-error semantics). The
//!   success/failure outcome itself, however, reveals whether the record
//!   is a contextual outlier — a dataset-dependent bit delivered at zero
//!   metered cost. The paper's model sidesteps this by assuming the
//!   custodian answers only for records already confirmed as outliers
//!   (footnote 5); a deployment accepting arbitrary record ids from
//!   untrusted analysts should pre-filter requests the same way (or
//!   charge failures instead of refunding) rather than expose the
//!   refunded-failure oracle.
//! * **Seeds must be custodian-chosen for adversarial analysts.** See the
//!   [`request`] module docs: analyst-known seeds void the guarantee.
//!
//! ## Quick start
//!
//! ```
//! use pcor_service::prelude::*;
//! use pcor_core::SamplingAlgorithm;
//! use pcor_data::generator::{salary_dataset, SalaryConfig};
//! use pcor_outlier::DetectorKind;
//!
//! let registry = std::sync::Arc::new(DatasetRegistry::new());
//! registry.register("salary", salary_dataset(&SalaryConfig::tiny()).unwrap());
//!
//! let ledger = std::sync::Arc::new(BudgetLedger::new(1.0));
//! let server = Server::start(
//!     ServerConfig::default().with_workers(2),
//!     registry.clone(),
//!     ledger.clone(),
//! );
//!
//! // Find a record that actually is a contextual outlier, then query it.
//! let entry = registry.get("salary").unwrap();
//! let outlier = pcor_service::find_serviceable_outlier(
//!     &entry, DetectorKind::ZScore, 200, 7,
//! );
//! if let Some(record_id) = outlier {
//!     let request = ReleaseRequest::new("alice", "salary", record_id)
//!         .with_detector(DetectorKind::ZScore)
//!         .with_algorithm(SamplingAlgorithm::Bfs)
//!         .with_epsilon(0.2)
//!         .with_samples(10)
//!         .with_seed(42);
//!     let response = server.execute(request).unwrap();
//!     assert!(response.remaining_budget < 1.0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod durable;
pub mod ledger;
pub mod metrics;
pub mod registry;
pub mod request;
pub mod server;
pub mod wire;

pub use cache::LruCache;
pub use durable::{BreakerState, DurableLedger, JournalHealth, RecoveryReport, WalConfig};
pub use ledger::{BudgetLedger, LedgerEntry, Reservation};
pub use metrics::ServerMetricsSnapshot;
pub use registry::{
    CacheStats, DatasetEntry, DatasetRegistry, DatasetStats, WarmContext, WarmDataset, WarmState,
};
pub use request::{
    BatchItem, BatchItemResponse, BatchReleaseRequest, BatchReleaseResponse, ItemOutcome,
    ItemRelease, ReleaseRequest, ReleaseResponse, RequestBody, RequestEnvelope, ResponseBody,
    ResponseEnvelope, MAX_BATCH_ITEMS, MAX_SAMPLES, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
pub use server::{HealthReport, PendingResponse, Server, ServerConfig};
pub use wire::{
    decode_reply, decode_request, encode_reply, encode_request, frame_bytes, FrameDecoder,
    FrameError, WireError, WireReply, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};

use pcor_core::runner::find_random_outlier;
use pcor_outlier::DetectorKind;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Everything an embedding application needs, in one import.
pub mod prelude {
    pub use crate::durable::{DurableLedger, RecoveryReport, WalConfig};
    pub use crate::ledger::{BudgetLedger, LedgerEntry};
    pub use crate::registry::{DatasetEntry, DatasetRegistry};
    pub use crate::request::{
        BatchItem, BatchReleaseRequest, BatchReleaseResponse, ItemOutcome, ReleaseRequest,
        ReleaseResponse, RequestEnvelope, ResponseEnvelope,
    };
    pub use crate::server::{PendingResponse, Server, ServerConfig};
    pub use crate::ServiceError;
    pub use pcor_dp::MechanismKind;
    pub use pcor_runtime::ThreadPool;
}

/// Errors produced by the serving layer.
///
/// Marked `#[non_exhaustive]`: the envelope protocol grows new refusal
/// kinds without a semver break, so downstream matches **must** keep a
/// wildcard arm. Match on the variants you can act on and funnel the rest
/// into your generic failure path:
///
/// ```
/// use pcor_service::ServiceError;
/// # fn classify(err: ServiceError) -> &'static str {
/// match err {
///     // Transient pressure: back off and retry.
///     ServiceError::QueueFull | ServiceError::Overloaded { .. } => "retry later",
///     // The request's own budget ran out; retrying won't help.
///     ServiceError::DeadlineExceeded | ServiceError::Cancelled => "give up",
///     // Future variants land here instead of breaking the build.
///     _ => "failed",
/// }
/// # }
/// # assert_eq!(classify(ServiceError::QueueFull), "retry later");
/// ```
///
/// The two admission refusals are deliberately distinct:
/// [`QueueFull`](ServiceError::QueueFull) is *reactive* (the bounded queue
/// literally has no slot) while [`Overloaded`](ServiceError::Overloaded)
/// is *proactive* (a slot exists, but measured service latency says the
/// request would miss its deadline anyway) and carries a `retry_after`
/// hint sized from the current backlog.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The request named a dataset the registry does not hold.
    UnknownDataset(String),
    /// The request envelope's protocol version is not supported.
    UnsupportedProtocol {
        /// The version the client asked for.
        requested: u16,
        /// The version this server speaks.
        supported: u16,
    },
    /// The analyst's budget for the dataset cannot cover the request.
    BudgetExhausted {
        /// The requesting analyst.
        analyst: String,
        /// The queried dataset.
        dataset: String,
        /// The ε the request asked for.
        requested: f64,
        /// The ε still available to this analyst on this dataset.
        remaining: f64,
    },
    /// The bounded request queue is full (back-pressure).
    QueueFull,
    /// The server shed the request before queuing it: the measured
    /// service latency and current backlog say it would miss its deadline
    /// (or the server's load-shed threshold). Retry after the hint.
    Overloaded {
        /// How long the admission controller suggests waiting before a
        /// retry, sized from the current backlog.
        retry_after: std::time::Duration,
    },
    /// The request's deadline passed before the release completed; any
    /// reserved ε was refunded (no private draw was published).
    DeadlineExceeded,
    /// The request was cooperatively cancelled mid-release; any reserved
    /// ε was refunded (no private draw was published).
    Cancelled,
    /// The server is shutting down and no longer accepts requests.
    Shutdown,
    /// The request was structurally invalid.
    InvalidRequest(String),
    /// The release itself failed (no matching context, config errors, …).
    Release(String),
    /// The durable ledger could not persist or replay its state (WAL
    /// write failure, corruption, or a non-contiguous recovered stream).
    Durability(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownDataset(name) => write!(f, "unknown dataset `{name}`"),
            ServiceError::UnsupportedProtocol { requested, supported } => write!(
                f,
                "unsupported protocol version {requested} (this server speaks {supported})"
            ),
            ServiceError::BudgetExhausted { analyst, dataset, requested, remaining } => write!(
                f,
                "budget exhausted for analyst `{analyst}` on `{dataset}`: \
                 requested ε = {requested}, remaining ε = {remaining}"
            ),
            ServiceError::QueueFull => write!(f, "request queue is full"),
            ServiceError::Overloaded { retry_after } => {
                write!(f, "server is overloaded; retry after {}ms", retry_after.as_millis())
            }
            ServiceError::DeadlineExceeded => {
                write!(f, "request deadline exceeded; reserved budget was refunded")
            }
            ServiceError::Cancelled => {
                write!(f, "request was cancelled; reserved budget was refunded")
            }
            ServiceError::Shutdown => write!(f, "server is shut down"),
            ServiceError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServiceError::Release(msg) => write!(f, "release failed: {msg}"),
            ServiceError::Durability(msg) => write!(f, "durability failure: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<pcor_core::PcorError> for ServiceError {
    fn from(e: pcor_core::PcorError) -> Self {
        match e {
            // A cooperative stop is a lifecycle outcome, not a release
            // failure: the caller distinguishes it to refund the exact
            // reserved slice.
            pcor_core::PcorError::Cancelled => ServiceError::Cancelled,
            other => ServiceError::Release(other.to_string()),
        }
    }
}

/// Convenience result alias for the serving layer.
pub type Result<T> = std::result::Result<T, ServiceError>;

/// Finds a record of `entry`'s dataset that is a contextual outlier under
/// `detector` — a convenience for examples and load generators that need
/// *serviceable* queries (the server refuses non-outlier records without
/// spending budget, so pointing load at them only measures refusals).
pub fn find_serviceable_outlier(
    entry: &registry::DatasetEntry,
    detector: DetectorKind,
    max_candidates: usize,
    seed: u64,
) -> Option<usize> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let built = detector.build();
    find_random_outlier(entry.dataset(), built.as_ref(), max_candidates, &mut rng)
        .ok()
        .map(|q| q.record_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        let e = ServiceError::UnknownDataset("salary".into());
        assert!(e.to_string().contains("salary"));
        let e = ServiceError::BudgetExhausted {
            analyst: "alice".into(),
            dataset: "d".into(),
            requested: 0.2,
            remaining: 0.1,
        };
        let text = e.to_string();
        assert!(text.contains("alice") && text.contains("0.2") && text.contains("0.1"));
        assert!(ServiceError::QueueFull.to_string().contains("queue"));
        let e = ServiceError::Overloaded { retry_after: std::time::Duration::from_millis(40) };
        assert!(e.to_string().contains("overloaded") && e.to_string().contains("40ms"));
        assert!(ServiceError::DeadlineExceeded.to_string().contains("deadline"));
        assert!(ServiceError::Cancelled.to_string().contains("cancelled"));
        assert!(ServiceError::Shutdown.to_string().contains("shut down"));
        assert!(ServiceError::InvalidRequest("x".into()).to_string().contains("x"));
        let e: ServiceError = pcor_core::PcorError::NoMatchingContext.into();
        assert!(matches!(e, ServiceError::Release(_)));
        let e: ServiceError = pcor_core::PcorError::Cancelled.into();
        assert_eq!(e, ServiceError::Cancelled);
    }
}
