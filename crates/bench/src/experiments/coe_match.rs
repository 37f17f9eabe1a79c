//! Tables 12–13: COE match between a dataset and its neighbors at group
//! privacy distances ΔD ∈ {1, 5, 10, 25}, for the Grubbs, LOF and Histogram
//! detectors, on the reduced salary (Table 12) and homicide (Table 13)
//! workloads.
//!
//! The paper does not spell out its set-match measure; we report the Jaccard
//! similarity `|COE(D) ∩ COE(D')| / |COE(D) ∪ COE(D')|`, which equals 100%
//! exactly when the OCDP assumption `COE(D) = COE(D')` holds.

use crate::config::ExperimentScale;
use crate::report::Table;
use crate::workloads::Workload;
use crate::Result;
use pcor_core::enumerate_coe;
use pcor_core::privacy::{compare_references, reindex_after_removal};
use pcor_core::runner::find_random_outliers;
use pcor_data::generator::{homicide_dataset, salary_dataset, HomicideConfig, SalaryConfig};
use pcor_data::Dataset;
use pcor_dp::PopulationSizeUtility;
use pcor_outlier::DetectorKind;

use super::ExperimentOutput;

/// Group-privacy distances reported in the paper.
pub const DELTAS: [usize; 4] = [1, 5, 10, 25];

/// Table 12: the salary dataset.
///
/// # Errors
/// Propagates generation/enumeration errors.
pub fn run_salary(scale: &ExperimentScale) -> Result<ExperimentOutput> {
    let dataset = salary_dataset(&SalaryConfig::reduced().with_records(scale.salary_records))?;
    run_for(scale, &dataset, "Table 12: COE Match - Salary dataset", "coe-salary")
}

/// Table 13: the homicide dataset.
///
/// # Errors
/// Propagates generation/enumeration errors.
pub fn run_homicide(scale: &ExperimentScale) -> Result<ExperimentOutput> {
    let dataset =
        homicide_dataset(&HomicideConfig::reduced().with_records(scale.homicide_records))?;
    run_for(scale, &dataset, "Table 13: COE Match - Homicide dataset", "coe-homicide")
}

fn run_for(
    scale: &ExperimentScale,
    dataset: &Dataset,
    title: &str,
    rng_label: &str,
) -> Result<ExperimentOutput> {
    let utility = PopulationSizeUtility;
    let mut rng = Workload::rng(scale, rng_label);
    let mut table = Table::new(title, &["Algorithm", "dD=1", "dD=5", "dD=10", "dD=25"]);

    for kind in DetectorKind::paper_detectors() {
        let detector = kind.build();
        let outliers = match find_random_outliers(
            dataset,
            detector.as_ref(),
            scale.coe_outliers,
            3_000,
            &mut rng,
        ) {
            Ok(o) => o,
            Err(_) => {
                table.push_row(vec![
                    kind.to_string(),
                    "n/a".into(),
                    "n/a".into(),
                    "n/a".into(),
                    "n/a".into(),
                ]);
                continue;
            }
        };
        let mut row = vec![kind.to_string()];
        for delta in DELTAS {
            let mut total = 0.0;
            let mut count = 0usize;
            for outlier in &outliers {
                let reference =
                    enumerate_coe(dataset, outlier.record_id, detector.as_ref(), &utility, 22)?;
                for _ in 0..scale.coe_neighbors {
                    let (neighbor, removed) = dataset
                        .random_neighbor(&mut rng, delta, &[outlier.record_id])
                        .map_err(pcor_core::PcorError::from)?;
                    let new_id = reindex_after_removal(outlier.record_id, &removed)
                        .expect("the outlier record is protected from removal");
                    let neighbor_ref =
                        enumerate_coe(&neighbor, new_id, detector.as_ref(), &utility, 22)?;
                    total += compare_references(&reference, &neighbor_ref).jaccard;
                    count += 1;
                }
            }
            row.push(format!("{:.1}%", 100.0 * total / count.max(1) as f64));
        }
        table.push_row(row);
    }

    Ok(ExperimentOutput { tables: vec![table], ..ExperimentOutput::default() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salary_coe_match_reports_three_detectors_and_four_deltas() {
        let output = run_salary(&ExperimentScale::smoke()).unwrap();
        assert_eq!(output.tables.len(), 1);
        let table = &output.tables[0];
        assert_eq!(table.len(), 3);
        assert_eq!(table.headers.len(), 5);
        assert!(table.title.contains("Table 12"));
        // Every populated cell is a percentage between 0 and 100.
        for row in &table.rows {
            for cell in &row[1..] {
                if cell != "n/a" {
                    let v: f64 = cell.trim_end_matches('%').parse().unwrap();
                    assert!((0.0..=100.0).contains(&v));
                }
            }
        }
    }

    #[test]
    fn single_record_neighbors_match_better_than_distant_ones() {
        // The qualitative trend of Tables 12-13: dD = 1 matches at least as
        // well as dD = 25 on average.
        let output = run_salary(&ExperimentScale::smoke()).unwrap();
        let table = &output.tables[0];
        let mut near_total = 0.0;
        let mut far_total = 0.0;
        let mut rows = 0.0;
        for row in &table.rows {
            if row[1] == "n/a" || row[4] == "n/a" {
                continue;
            }
            near_total += row[1].trim_end_matches('%').parse::<f64>().unwrap();
            far_total += row[4].trim_end_matches('%').parse::<f64>().unwrap();
            rows += 1.0;
        }
        if rows > 0.0 {
            assert!(near_total / rows + 1e-9 >= far_total / rows);
        }
    }
}
