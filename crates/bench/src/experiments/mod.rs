//! One experiment module per table/figure group of the paper's evaluation.
//!
//! | Module | Reproduces |
//! |--------|------------|
//! | [`sampling`] | Tables 2–3, Figure 1 — the four sampling algorithms |
//! | [`overlap`] | Tables 4–5, Figure 2 — the overlap utility |
//! | [`detectors`] | Tables 6–7, Figure 3 — Grubbs and Histogram detectors |
//! | [`epsilon_sweep`] | Tables 8–9, Figure 4 — effect of the privacy budget |
//! | [`samples_sweep`] | Tables 10–11, Figure 5 — effect of the sample count |
//! | [`coe_match`] | Tables 12–13 — COE match under group privacy |
//! | [`ratio_check`] | Section 6.7 — empirical `e^ε` ratio check |
//! | [`direct_vs_sampling`] | Section 1.2 headline — direct approach vs. BFS |
//! | [`service_throughput`] | (beyond the paper) `pcor-service` throughput vs. worker count |
//! | [`batch`] | (beyond the paper) batched releases vs. equivalent singles |
//! | [`verify_hotpath`] | (beyond the paper) `f_M` evaluation engines: from-scratch vs. incremental |
//! | [`mechanisms`] | (beyond the paper) DP selection mechanisms at equal ε: Exponential vs permute-and-flip vs report-noisy-max |
//! | [`wal`] | (beyond the paper) WAL durability: append throughput per fsync policy, replay vs checkpointed replay |
//! | [`net`] | (beyond the paper) `pcor-net` reactor: frames/sec, p99 round trip and shed rate vs connections × in-flight |

pub mod batch;
pub mod coe_match;
pub mod detectors;
pub mod direct_vs_sampling;
pub mod epsilon_sweep;
pub mod mechanisms;
pub mod net;
pub mod overlap;
pub mod ratio_check;
pub mod samples_sweep;
pub mod sampling;
pub mod service_throughput;
pub mod verify_hotpath;
pub mod wal;

use crate::report::{Histogram, Table};
use serde::{Deserialize, Serialize};

/// Machine context a benchmark run was measured under, persisted alongside
/// the tables so a committed `BENCH_*.json` is interpretable later: the same
/// bytes/sec means something different on 1 core without AVX-512 than on 32
/// cores with it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunEnvironment {
    /// Logical CPUs visible to the process (`nproc`).
    pub nproc: usize,
    /// The fused-pass kernel the dispatcher selected (`PCOR_KERNEL` respected).
    pub kernel: String,
    /// Measured STREAM-triad memory bandwidth in bytes/sec — the denominator
    /// of the `% membw` column in the kernel table.
    pub triad_bytes_per_sec: f64,
}

/// The output of one experiment: paper-style tables plus the histogram series
/// behind the corresponding figures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ExperimentOutput {
    /// Rendered tables.
    pub tables: Vec<Table>,
    /// Histogram series (figures).
    pub figures: Vec<Histogram>,
    /// Machine context, when the experiment measured it (absent in older
    /// `BENCH_*.json` files; missing fields deserialize to `None`).
    pub environment: Option<RunEnvironment>,
}

impl ExperimentOutput {
    /// Merges another output into this one. The first measured environment
    /// wins — all experiments in one invocation ran on the same machine.
    pub fn extend(&mut self, other: ExperimentOutput) {
        self.tables.extend(other.tables);
        self.figures.extend(other.figures);
        if self.environment.is_none() {
            self.environment = other.environment;
        }
    }
}

impl std::fmt::Display for ExperimentOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for table in &self.tables {
            writeln!(f, "{table}")?;
        }
        for figure in &self.figures {
            writeln!(f, "{figure}")?;
        }
        Ok(())
    }
}

/// The identifiers accepted by the `reproduce` binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentId {
    /// Tables 2–3 + Figure 1.
    Sampling,
    /// Tables 4–5 + Figure 2.
    Overlap,
    /// Tables 6–7 + Figure 3.
    Detectors,
    /// Tables 8–9 + Figure 4.
    EpsilonSweep,
    /// Tables 10–11 + Figure 5.
    SamplesSweep,
    /// Table 12 (salary).
    CoeMatchSalary,
    /// Table 13 (homicide).
    CoeMatchHomicide,
    /// Section 6.7 ratio check.
    RatioCheck,
    /// Section 1.2 direct-vs-BFS headline.
    Direct,
    /// Serving-layer throughput vs. worker count (beyond the paper).
    ServiceThroughput,
    /// Batched releases vs. equivalent single requests (beyond the paper).
    BatchVsSingles,
    /// `f_M` verification engines: from-scratch vs. incremental
    /// (beyond the paper).
    VerifyHotpath,
    /// DP selection mechanisms at equal ε: Exponential vs permute-and-flip
    /// vs report-noisy-max (beyond the paper).
    Mechanisms,
    /// WAL durability: append throughput per fsync policy and replay cost
    /// with/without checkpoints (beyond the paper).
    Wal,
    /// Reactor wire front: frames/sec, p99 round trip and shed rate across
    /// connections × pipelined in-flight envelopes (beyond the paper).
    Net,
}

impl ExperimentId {
    /// All experiments in presentation order.
    pub fn all() -> Vec<ExperimentId> {
        vec![
            ExperimentId::Sampling,
            ExperimentId::Overlap,
            ExperimentId::Detectors,
            ExperimentId::EpsilonSweep,
            ExperimentId::SamplesSweep,
            ExperimentId::CoeMatchSalary,
            ExperimentId::CoeMatchHomicide,
            ExperimentId::RatioCheck,
            ExperimentId::Direct,
            ExperimentId::ServiceThroughput,
            ExperimentId::BatchVsSingles,
            ExperimentId::VerifyHotpath,
            ExperimentId::Mechanisms,
            ExperimentId::Wal,
            ExperimentId::Net,
        ]
    }

    /// Parses a command-line selector into experiment ids.
    pub fn parse(selector: &str) -> Vec<ExperimentId> {
        match selector {
            "all" => Self::all(),
            "table2" | "table3" | "sampling" | "figure1" => vec![ExperimentId::Sampling],
            "table4" | "table5" | "overlap" | "figure2" => vec![ExperimentId::Overlap],
            "table6" | "table7" | "detectors" | "figure3" => vec![ExperimentId::Detectors],
            "table8" | "table9" | "epsilon" | "figure4" => vec![ExperimentId::EpsilonSweep],
            "table10" | "table11" | "samples" | "figure5" => vec![ExperimentId::SamplesSweep],
            "table12" | "coe-salary" => vec![ExperimentId::CoeMatchSalary],
            "table13" | "coe-homicide" => vec![ExperimentId::CoeMatchHomicide],
            "ratio" => vec![ExperimentId::RatioCheck],
            "direct" => vec![ExperimentId::Direct],
            "service" | "throughput" => vec![ExperimentId::ServiceThroughput],
            "batch" | "batch-vs-singles" => vec![ExperimentId::BatchVsSingles],
            "verify" | "verify-hotpath" | "hotpath" => vec![ExperimentId::VerifyHotpath],
            "mechanisms" | "mechanism" => vec![ExperimentId::Mechanisms],
            "wal" | "durability" | "wal-replay" => vec![ExperimentId::Wal],
            "net" | "reactor" | "wire" => vec![ExperimentId::Net],
            "figures" => vec![
                ExperimentId::Sampling,
                ExperimentId::Overlap,
                ExperimentId::Detectors,
                ExperimentId::EpsilonSweep,
                ExperimentId::SamplesSweep,
            ],
            _ => vec![],
        }
    }
}

impl std::fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ExperimentId::Sampling => "sampling (Tables 2-3, Figure 1)",
            ExperimentId::Overlap => "overlap utility (Tables 4-5, Figure 2)",
            ExperimentId::Detectors => "detectors (Tables 6-7, Figure 3)",
            ExperimentId::EpsilonSweep => "epsilon sweep (Tables 8-9, Figure 4)",
            ExperimentId::SamplesSweep => "sample-count sweep (Tables 10-11, Figure 5)",
            ExperimentId::CoeMatchSalary => "COE match, salary (Table 12)",
            ExperimentId::CoeMatchHomicide => "COE match, homicide (Table 13)",
            ExperimentId::RatioCheck => "empirical ratio check (Section 6.7)",
            ExperimentId::Direct => "direct vs BFS (Section 1.2)",
            ExperimentId::ServiceThroughput => "service throughput vs workers (pcor-service)",
            ExperimentId::BatchVsSingles => "batched releases vs equivalent singles (pcor-service)",
            ExperimentId::VerifyHotpath => {
                "verify hot path: f_M evaluation engines (pcor-data/core)"
            }
            ExperimentId::Mechanisms => {
                "selection mechanisms at equal eps: EM vs PF vs RNM (pcor-dp/core)"
            }
            ExperimentId::Wal => {
                "WAL durability: fsync policies + checkpointed replay (pcor-wal/service)"
            }
            ExperimentId::Net => {
                "reactor wire front: frames/sec, p99 RTT, shed rate (pcor-net/service)"
            }
        };
        write!(f, "{name}")
    }
}

/// Runs one experiment at the given scale.
///
/// # Errors
/// Propagates the experiment's errors.
pub fn run(id: ExperimentId, scale: &crate::ExperimentScale) -> crate::Result<ExperimentOutput> {
    match id {
        ExperimentId::Sampling => sampling::run(scale),
        ExperimentId::Overlap => overlap::run(scale),
        ExperimentId::Detectors => detectors::run(scale),
        ExperimentId::EpsilonSweep => epsilon_sweep::run(scale),
        ExperimentId::SamplesSweep => samples_sweep::run(scale),
        ExperimentId::CoeMatchSalary => coe_match::run_salary(scale),
        ExperimentId::CoeMatchHomicide => coe_match::run_homicide(scale),
        ExperimentId::RatioCheck => ratio_check::run(scale),
        ExperimentId::Direct => direct_vs_sampling::run(scale),
        ExperimentId::ServiceThroughput => service_throughput::run(scale),
        ExperimentId::BatchVsSingles => batch::run(scale),
        ExperimentId::VerifyHotpath => verify_hotpath::run(scale),
        ExperimentId::Mechanisms => mechanisms::run(scale),
        ExperimentId::Wal => wal::run(scale),
        ExperimentId::Net => net::run(scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_parsing_covers_all_aliases() {
        assert_eq!(ExperimentId::parse("all").len(), ExperimentId::all().len());
        assert_eq!(ExperimentId::parse("table2"), vec![ExperimentId::Sampling]);
        assert_eq!(ExperimentId::parse("figure4"), vec![ExperimentId::EpsilonSweep]);
        assert_eq!(ExperimentId::parse("table13"), vec![ExperimentId::CoeMatchHomicide]);
        assert_eq!(ExperimentId::parse("ratio"), vec![ExperimentId::RatioCheck]);
        assert_eq!(ExperimentId::parse("direct"), vec![ExperimentId::Direct]);
        assert_eq!(ExperimentId::parse("service"), vec![ExperimentId::ServiceThroughput]);
        assert_eq!(ExperimentId::parse("throughput"), vec![ExperimentId::ServiceThroughput]);
        assert_eq!(ExperimentId::parse("batch"), vec![ExperimentId::BatchVsSingles]);
        assert_eq!(ExperimentId::parse("batch-vs-singles"), vec![ExperimentId::BatchVsSingles]);
        assert_eq!(ExperimentId::parse("verify"), vec![ExperimentId::VerifyHotpath]);
        assert_eq!(ExperimentId::parse("verify-hotpath"), vec![ExperimentId::VerifyHotpath]);
        assert_eq!(ExperimentId::parse("mechanisms"), vec![ExperimentId::Mechanisms]);
        assert_eq!(ExperimentId::parse("mechanism"), vec![ExperimentId::Mechanisms]);
        assert_eq!(ExperimentId::parse("net"), vec![ExperimentId::Net]);
        assert_eq!(ExperimentId::parse("reactor"), vec![ExperimentId::Net]);
        assert_eq!(ExperimentId::parse("figures").len(), 5);
        assert!(ExperimentId::parse("nonsense").is_empty());
        for id in ExperimentId::all() {
            assert!(!id.to_string().is_empty());
        }
    }

    #[test]
    fn output_extend_concatenates() {
        let mut a = ExperimentOutput::default();
        let mut b = ExperimentOutput::default();
        b.tables.push(crate::Table::new("T", &["x"]));
        b.figures.push(crate::Histogram::from_values("F", &[1.0, 2.0], 2));
        a.extend(b);
        assert_eq!(a.tables.len(), 1);
        assert_eq!(a.figures.len(), 1);
        assert!(a.to_string().contains('T'));
    }
}
