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
//! | [`mechanisms`] | (beyond the paper) DP selection mechanisms at equal ε: Exponential vs permute-and-flip vs report-noisy-max |
//! | [`wal`] | (beyond the paper) WAL durability: append throughput per fsync policy, replay vs checkpointed replay |

pub mod coe_match;
pub mod detectors;
pub mod direct_vs_sampling;
pub mod epsilon_sweep;
pub mod mechanisms;
pub mod overlap;
pub mod ratio_check;
pub mod samples_sweep;
pub mod sampling;
pub mod wal;

use crate::config::ExperimentScale;
use crate::report::{Histogram, Table};
use serde::{Deserialize, Serialize};

/// Machine context a run was measured under, persisted alongside the tables
/// so a committed `BENCH_*.json` is interpretable later: the same
/// records/sec means something different on 1 core than on 32.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunEnvironment {
    /// Logical CPUs visible to the process (`nproc`).
    pub nproc: usize,
    /// The fused-pass kernel the dispatcher selected (`PCOR_KERNEL` respected).
    pub kernel: String,
    /// The scale every experiment of the run used.
    pub scale: ExperimentScale,
}

impl RunEnvironment {
    /// The environment of this process, running at `scale`.
    pub fn current(scale: &ExperimentScale) -> Self {
        RunEnvironment {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            kernel: pcor_data::kernel::selected().name().to_string(),
            scale: scale.clone(),
        }
    }
}

/// The output of one experiment: paper-style tables plus the histogram series
/// behind the corresponding figures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ExperimentOutput {
    /// Rendered tables.
    pub tables: Vec<Table>,
    /// Histogram series (figures).
    pub figures: Vec<Histogram>,
    /// Machine context of the run; `reproduce` stamps it on every `--json`
    /// write, experiments leave it `None`.
    pub environment: Option<RunEnvironment>,
}

impl ExperimentOutput {
    /// Merges another output's tables and figures into this one.
    pub fn extend(&mut self, other: ExperimentOutput) {
        self.tables.extend(other.tables);
        self.figures.extend(other.figures);
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
    /// DP selection mechanisms at equal ε: Exponential vs permute-and-flip
    /// vs report-noisy-max (beyond the paper).
    Mechanisms,
    /// WAL durability: append throughput per fsync policy and replay cost
    /// with/without checkpoints (beyond the paper).
    Wal,
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
            ExperimentId::Mechanisms,
            ExperimentId::Wal,
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
            "mechanisms" | "mechanism" => vec![ExperimentId::Mechanisms],
            "wal" | "durability" | "wal-replay" => vec![ExperimentId::Wal],
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
            ExperimentId::Mechanisms => {
                "selection mechanisms at equal eps: EM vs PF vs RNM (pcor-dp/core)"
            }
            ExperimentId::Wal => {
                "WAL durability: fsync policies + checkpointed replay (pcor-wal/service)"
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
        ExperimentId::Mechanisms => mechanisms::run(scale),
        ExperimentId::Wal => wal::run(scale),
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
        assert_eq!(ExperimentId::parse("mechanisms"), vec![ExperimentId::Mechanisms]);
        assert_eq!(ExperimentId::parse("mechanism"), vec![ExperimentId::Mechanisms]);
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

    #[test]
    fn committed_bench_files_record_their_environment() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            files += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            let output: ExperimentOutput =
                serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let env = output.environment.unwrap_or_else(|| panic!("{name}: no environment"));
            assert!(env.nproc >= 1, "{name}: nproc {}", env.nproc);
            assert!(!env.kernel.is_empty(), "{name}: empty kernel");
        }
        assert!(files > 0, "no BENCH_*.json under {}", root.display());
    }
}
