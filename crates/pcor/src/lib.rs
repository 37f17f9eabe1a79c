//! # pcor
//!
//! Facade crate for **PCOR — Private Contextual Outlier Release via
//! Differentially Private Search** (Shafieinejad, Kerschbaum, Ilyas;
//! SIGMOD 2021), re-exporting the full public API of the workspace:
//!
//! * [`data`] — schemas, contexts, datasets, synthetic workload generators
//!   (`pcor-data`);
//! * [`stats`] — the statistics substrate (`pcor-stats`);
//! * [`outlier`] — Grubbs, Histogram, LOF and extension detectors
//!   (`pcor-outlier`);
//! * [`dp`] — the Exponential/Laplace mechanisms, utility functions and OCDP
//!   budgets (`pcor-dp`);
//! * [`graph`] — the implicit context graph and classic searches
//!   (`pcor-graph`);
//! * [`core`] — the five PCOR release algorithms, COE enumeration and the
//!   privacy experiments (`pcor-core`);
//! * [`service`] — the concurrent multi-analyst release server: dataset
//!   registry, per-analyst budget ledger and streaming batch delivery
//!   (`pcor-service`);
//! * [`runtime`] — the persistent work-stealing thread pool the serving
//!   layer runs its requests on (`pcor-runtime`);
//! * [`telemetry`] — the observability bundle: metrics registry with a
//!   Prometheus-text exporter, per-release tracing spans and the
//!   privacy-budget audit log (`pcor-telemetry`);
//! * [`wal`] — the segmented, CRC-framed, torn-tail-tolerant write-ahead
//!   log behind the crash-safe budget ledger
//!   ([`DurableLedger`](pcor_service::DurableLedger)) and its warm cache
//!   restarts (`pcor-wal`).
//!
//! The most common entry points are re-exported at the crate root so a typical
//! application only needs `use pcor::prelude::*`. The recommended way to
//! release is a [`ReleaseSession`](pcor_core::ReleaseSession): bind the
//! dataset, detector and utility once, then release as many times as the
//! privacy budget allows — repeats share the memoized verifier.
//!
//! ```
//! use pcor::prelude::*;
//!
//! let dataset = salary_dataset(&SalaryConfig::tiny()).unwrap();
//! let detector = LofDetector::default();
//! let utility = PopulationSizeUtility;
//!
//! let mut session = ReleaseSession::builder(&dataset, &detector, &utility)
//!     .seed_policy(SeedPolicy::Derived { base: 1 })
//!     .build();
//! if let Ok(outliers) = session.find_outliers(1, 100) {
//!     let spec = ReleaseSpec::new(SamplingAlgorithm::Bfs, 0.2).with_samples(20);
//!     let released = session.release(outliers[0].record_id, &spec).unwrap();
//!     println!("{}", released.context.to_predicate_string(dataset.schema()));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pcor_core as core;
pub use pcor_data as data;
pub use pcor_dp as dp;
pub use pcor_faults as faults;
pub use pcor_graph as graph;
pub use pcor_net as net;
pub use pcor_outlier as outlier;
pub use pcor_runtime as runtime;
pub use pcor_service as service;
pub use pcor_stats as stats;
pub use pcor_telemetry as telemetry;
pub use pcor_wal as wal;

/// Everything a typical PCOR application needs, in one import.
pub mod prelude {
    pub use pcor_core::runner::{find_random_outlier, find_random_outliers, OutlierQuery};
    pub use pcor_core::{
        enumerate_coe, release_context, PcorConfig, PcorError, PcorResult, ReferenceFile,
        ReleaseSession, ReleaseSpec, SamplingAlgorithm, SeedPolicy, SessionStats,
    };
    pub use pcor_data::generator::{
        homicide_dataset, salary_dataset, HomicideConfig, SalaryConfig,
    };
    pub use pcor_data::{Attribute, Context, Dataset, PopulationCursor, Record, Schema};
    pub use pcor_dp::{
        BudgetAccountant, ExponentialMechanism, LaplaceMechanism, MechanismKind, MechanismTally,
        OverlapUtility, PermuteAndFlip, PopulationSizeUtility, ReportNoisyMax, SelectionMechanism,
        Utility,
    };
    pub use pcor_graph::ContextGraph;
    pub use pcor_net::{http_get, NetClient, NetConfig, NetFront};
    pub use pcor_outlier::{
        DetectorKind, GrubbsDetector, HistogramDetector, IqrDetector, LofDetector, OutlierDetector,
        PopulationMoments, ZScoreDetector,
    };
    pub use pcor_runtime::ThreadPool;
    pub use pcor_service::{
        BatchItem, BatchReleaseRequest, BatchReleaseResponse, BudgetLedger, DatasetRegistry,
        DurableLedger, HealthReport, ItemOutcome, PendingResponse, RecoveryReport, ReleaseRequest,
        ReleaseResponse, RequestEnvelope, ResponseEnvelope, Server, ServerConfig, ServiceError,
        WalConfig,
    };
    pub use pcor_stats::{ConfidenceInterval, RuntimeSummary, UtilitySummary};
    pub use pcor_telemetry::{
        AuditLog, BudgetEvent, MetricsRegistry, Telemetry, TraceId, TraceSink,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_types() {
        use crate::prelude::*;
        // Construct one value of each central type to prove the re-exports
        // resolve.
        let _ = PcorConfig::new(SamplingAlgorithm::Bfs, 0.2);
        let _ = SalaryConfig::tiny();
        let _ = HomicideConfig::tiny();
        let _ = PopulationSizeUtility;
        let _ = LofDetector::default();
        let _ = GrubbsDetector::default();
        let _ = HistogramDetector::default();
        let _ = ContextGraph::new(4);
        let _ = Context::empty(4);
        let _ = DatasetRegistry::new();
        let _ = BudgetLedger::new(1.0);
        let _ = ServerConfig::default();
        let _ = ReleaseRequest::new("a", "d", 0);
        let _ = ReleaseSpec::new(SamplingAlgorithm::Bfs, 0.2);
        let _ = SeedPolicy::Derived { base: 7 };
        let _ = RequestEnvelope::batch(
            BatchReleaseRequest::new("a", "d").push(BatchItem::new(0).with_epsilon(0.1)),
        );
        let telemetry = Telemetry::new();
        assert!(telemetry.render_prometheus().is_empty());
        let _ = TraceId::next();
    }
}
