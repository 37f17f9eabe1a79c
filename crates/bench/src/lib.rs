//! # pcor-bench
//!
//! Experiment harness reproducing the evaluation section of the PCOR paper
//! (SIGMOD 2021): every table (2–13) and figure (1–5) has a corresponding
//! experiment module, and the `reproduce` binary prints paper-style tables for
//! any subset of them.
//!
//! The paper's experiments ran on a 132-core, 1 TB machine over 51 k–110 k
//! record datasets with 200 repetitions per configuration; the reproduction
//! defaults to a laptop-scale configuration ([`config::ExperimentScale::quick`])
//! that preserves the *shape* of every result (which algorithm wins, by
//! roughly what factor, how the trends move with `ε` and `n`). The full-scale
//! settings are available through [`config::ExperimentScale::paper`] for
//! anyone with the patience.
//!
//! Two experiments go beyond the paper, because they measure what the
//! end-to-end release benchmark (`releasebench/`) cannot: the exact output
//! distributions of the DP selection mechanisms
//! ([`experiments::mechanisms`]) and the WAL's fsync-policy and replay
//! sweep ([`experiments::wal`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod measure;
pub mod report;
pub mod workloads;

pub use config::ExperimentScale;
pub use report::{Histogram, Table};

/// Errors produced by the experiment harness.
#[derive(Debug)]
pub enum BenchError {
    /// An error bubbled up from the PCOR core.
    Pcor(pcor_core::PcorError),
    /// An error from the statistics substrate (summaries).
    Stats(pcor_stats::StatsError),
    /// An error from the data substrate (generators).
    Data(pcor_data::DataError),
    /// The harness could not find a suitable outlier record in the workload.
    NoOutlierFound,
    /// An error from the serving layer (`pcor-service`).
    Service(String),
    /// I/O error while persisting results.
    Io(std::io::Error),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Pcor(e) => write!(f, "pcor error: {e}"),
            BenchError::Stats(e) => write!(f, "stats error: {e}"),
            BenchError::Data(e) => write!(f, "data error: {e}"),
            BenchError::NoOutlierFound => write!(f, "no contextual outlier found in the workload"),
            BenchError::Service(msg) => write!(f, "service error: {msg}"),
            BenchError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<pcor_core::PcorError> for BenchError {
    fn from(e: pcor_core::PcorError) -> Self {
        BenchError::Pcor(e)
    }
}
impl From<pcor_stats::StatsError> for BenchError {
    fn from(e: pcor_stats::StatsError) -> Self {
        BenchError::Stats(e)
    }
}
impl From<pcor_data::DataError> for BenchError {
    fn from(e: pcor_data::DataError) -> Self {
        BenchError::Data(e)
    }
}
impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

/// Convenience result alias for the harness.
pub type Result<T> = std::result::Result<T, BenchError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_wrap_and_display() {
        let e: BenchError = pcor_core::PcorError::NoMatchingContext.into();
        assert!(e.to_string().contains("pcor error"));
        let e: BenchError = pcor_stats::StatsError::EmptyInput.into();
        assert!(e.to_string().contains("stats error"));
        let e: BenchError = pcor_data::DataError::EmptySchema.into();
        assert!(e.to_string().contains("data error"));
        let e: BenchError = std::io::Error::other("x").into();
        assert!(e.to_string().contains("io error"));
        let e = BenchError::Service("queue full".into());
        assert!(e.to_string().contains("service error: queue full"));
        assert!(BenchError::NoOutlierFound.to_string().contains("outlier"));
    }
}
