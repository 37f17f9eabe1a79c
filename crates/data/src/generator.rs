//! Synthetic workload generators.
//!
//! The paper evaluates PCOR on two real datasets that we cannot redistribute:
//!
//! 1. the Ontario public-sector salary disclosure (≈51 000 employees earning
//!    ≥ $100 000; attributes `JobTitle(9) × Employer(8) × Year(8)`, metric
//!    `Salary`), and
//! 2. the Murder Accountability Project homicide reports (≈110 000 records;
//!    attributes `AgencyType(4) × State(6) × Weapon(6)`, metric `VictimAge`).
//!
//! These generators produce synthetic datasets with the **same schemas, domain
//! sizes and qualitative structure**: per-group metric distributions with
//! multiplicative group effects, plus a configurable fraction of planted
//! *contextual outliers* — records whose metric is normal globally but extreme
//! within their own categorical subgroup. PCOR only ever observes the data
//! through categorical filtering and the metric column handed to a detector,
//! so this preserves the behaviour the paper measures.

use crate::dataset::Dataset;
use crate::record::Record;
use crate::schema::{Attribute, Schema};
use crate::Result;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Draws a standard-normal sample via the Box–Muller transform.
///
/// Implemented locally so the generators need nothing beyond the base `rand`
/// crate.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random::<f64>();
        let u2: f64 = rng.random::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// Configuration of the synthetic salary workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SalaryConfig {
    /// Number of records to generate.
    pub num_records: usize,
    /// Domain size of the `JobTitle` attribute (9 in the paper's full dataset).
    pub num_job_titles: usize,
    /// Domain size of the `Employer` attribute (8 in the paper).
    pub num_employers: usize,
    /// Domain size of the `Year` attribute (8 in the paper).
    pub num_years: usize,
    /// Fraction of records turned into planted contextual outliers.
    pub outlier_fraction: f64,
    /// RNG seed; the same seed always produces the same dataset.
    pub seed: u64,
}

impl SalaryConfig {
    /// The full-size configuration used in Sections 6.3–6.6 of the paper
    /// (51 000 records, domains 9/8/8, `t = 25`).
    pub fn full() -> Self {
        SalaryConfig {
            num_records: 51_000,
            num_job_titles: 9,
            num_employers: 8,
            num_years: 8,
            outlier_fraction: 0.02,
            seed: 0xC0FFEE,
        }
    }

    /// The reduced configuration of Sections 6.5 and 6.7 (≈11 000 records,
    /// 14 attribute values in total, `t = 14`).
    pub fn reduced() -> Self {
        SalaryConfig {
            num_records: 11_000,
            num_job_titles: 6,
            num_employers: 4,
            num_years: 4,
            outlier_fraction: 0.02,
            seed: 0xC0FFEE,
        }
    }

    /// A tiny configuration for unit tests and doc examples (fast to
    /// enumerate exhaustively).
    pub fn tiny() -> Self {
        SalaryConfig {
            num_records: 400,
            num_job_titles: 3,
            num_employers: 3,
            num_years: 2,
            outlier_fraction: 0.05,
            seed: 7,
        }
    }

    /// Returns a copy with a different number of records.
    pub fn with_records(mut self, n: usize) -> Self {
        self.num_records = n;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

const JOB_TITLES: &[&str] = &[
    "Professor",
    "Police Officer",
    "Firefighter",
    "Registered Nurse",
    "Engineer",
    "Physician",
    "Judge",
    "Deputy Minister",
    "Crown Attorney",
    "Director",
    "Analyst",
    "Superintendent",
];

const EMPLOYERS: &[&str] = &[
    "City of Toronto",
    "University of Waterloo",
    "Ontario Power Generation",
    "Hydro One",
    "Hospital Network",
    "School Board",
    "Provincial Police",
    "Ministry of Health",
    "Transit Commission",
    "Municipality of Ottawa",
];

/// Builds the salary schema for a given configuration (domains truncated from
/// a fixed name pool, years starting at 2012).
pub fn salary_schema(cfg: &SalaryConfig) -> Result<Schema> {
    let job_titles: Vec<String> = JOB_TITLES
        .iter()
        .cycle()
        .take(cfg.num_job_titles)
        .enumerate()
        .map(|(i, s)| if i < JOB_TITLES.len() { s.to_string() } else { format!("{s} {i}") })
        .collect();
    let employers: Vec<String> = EMPLOYERS
        .iter()
        .cycle()
        .take(cfg.num_employers)
        .enumerate()
        .map(|(i, s)| if i < EMPLOYERS.len() { s.to_string() } else { format!("{s} {i}") })
        .collect();
    let years: Vec<String> = (0..cfg.num_years).map(|i| (2012 + i).to_string()).collect();
    Schema::new(
        vec![
            Attribute::new("JobTitle", job_titles)?,
            Attribute::new("Employer", employers)?,
            Attribute::new("Year", years)?,
        ],
        "Salary",
    )
}

/// Generates the synthetic salary dataset.
///
/// Salaries are log-normal around a per-job-title base, scaled by a per-
/// employer factor and a mild year-over-year growth; everything is clamped to
/// ≥ $100 000 to mirror the disclosure threshold of the real dataset. A
/// `outlier_fraction` share of records receives a 2.5–6× multiplier, turning
/// them into contextual outliers within their subgroup.
///
/// # Errors
/// Propagates schema-construction errors (empty domains).
pub fn salary_dataset(cfg: &SalaryConfig) -> Result<Dataset> {
    let schema = salary_schema(cfg)?;
    let mut rng = ChaCha12Rng::seed_from_u64(cfg.seed);

    // Per-group effects.
    let base_by_job: Vec<f64> =
        (0..cfg.num_job_titles).map(|i| 105_000.0 + 28_000.0 * i as f64).collect();
    let employer_factor: Vec<f64> = (0..cfg.num_employers).map(|i| 0.9 + 0.05 * i as f64).collect();
    let year_growth: Vec<f64> = (0..cfg.num_years).map(|i| 1.0 + 0.02 * i as f64).collect();

    let mut records = Vec::with_capacity(cfg.num_records);
    for _ in 0..cfg.num_records {
        let job = rng.random_range(0..cfg.num_job_titles) as u16;
        let employer = rng.random_range(0..cfg.num_employers) as u16;
        let year = rng.random_range(0..cfg.num_years) as u16;

        let base = base_by_job[job as usize]
            * employer_factor[employer as usize]
            * year_growth[year as usize];
        // Log-normal noise with ~12% relative spread.
        let noise = (0.12 * sample_standard_normal(&mut rng)).exp();
        let mut salary = (base * noise).max(100_000.0);

        if rng.random::<f64>() < cfg.outlier_fraction {
            salary *= 2.5 + 3.5 * rng.random::<f64>();
        }
        records.push(Record::new(vec![job, employer, year], salary.round()));
    }
    Dataset::new(schema, records)
}

/// Configuration of the synthetic homicide workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HomicideConfig {
    /// Number of records to generate.
    pub num_records: usize,
    /// Domain size of the `AgencyType` attribute (4 in the paper).
    pub num_agency_types: usize,
    /// Domain size of the `State` attribute (6 in the paper).
    pub num_states: usize,
    /// Domain size of the `Weapon` attribute (6 in the paper).
    pub num_weapons: usize,
    /// Fraction of records turned into planted contextual outliers.
    pub outlier_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl HomicideConfig {
    /// The full configuration (≈110 000 records, domains 4/6/6, `t = 16`).
    pub fn full() -> Self {
        HomicideConfig {
            num_records: 110_000,
            num_agency_types: 4,
            num_states: 6,
            num_weapons: 6,
            outlier_fraction: 0.02,
            seed: 0xBEEF,
        }
    }

    /// The reduced configuration of Section 6.7 (≈28 000 records, 12
    /// attribute values, `t = 12`).
    pub fn reduced() -> Self {
        HomicideConfig {
            num_records: 28_000,
            num_agency_types: 4,
            num_states: 4,
            num_weapons: 4,
            outlier_fraction: 0.02,
            seed: 0xBEEF,
        }
    }

    /// A tiny configuration for unit tests and doc examples.
    pub fn tiny() -> Self {
        HomicideConfig {
            num_records: 400,
            num_agency_types: 2,
            num_states: 3,
            num_weapons: 3,
            outlier_fraction: 0.05,
            seed: 11,
        }
    }

    /// Returns a copy with a different number of records.
    pub fn with_records(mut self, n: usize) -> Self {
        self.num_records = n;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

const AGENCY_TYPES: &[&str] = &["Municipal Police", "County Police", "State Police", "Sheriff"];
const STATES: &[&str] = &["California", "Texas", "New York", "Florida", "Illinois", "Ohio"];
const WEAPONS: &[&str] = &["Handgun", "Knife", "Blunt Object", "Rifle", "Strangulation", "Shotgun"];

/// Builds the homicide schema for a given configuration.
pub fn homicide_schema(cfg: &HomicideConfig) -> Result<Schema> {
    let take = |pool: &[&str], n: usize| -> Vec<String> {
        pool.iter()
            .cycle()
            .take(n)
            .enumerate()
            .map(|(i, s)| if i < pool.len() { s.to_string() } else { format!("{s} {i}") })
            .collect()
    };
    Schema::new(
        vec![
            Attribute::new("AgencyType", take(AGENCY_TYPES, cfg.num_agency_types))?,
            Attribute::new("State", take(STATES, cfg.num_states))?,
            Attribute::new("Weapon", take(WEAPONS, cfg.num_weapons))?,
        ],
        "VictimAge",
    )
}

/// Generates the synthetic homicide dataset.
///
/// Victim ages are normal around a per-weapon mean (e.g. strangulation skews
/// older, handguns younger), shifted slightly per state, clamped to `[1, 99]`.
/// Planted contextual outliers move a record's age to the far tail of its own
/// subgroup.
///
/// # Errors
/// Propagates schema-construction errors.
pub fn homicide_dataset(cfg: &HomicideConfig) -> Result<Dataset> {
    let schema = homicide_schema(cfg)?;
    let mut rng = ChaCha12Rng::seed_from_u64(cfg.seed);

    let mean_age_by_weapon: Vec<f64> =
        (0..cfg.num_weapons).map(|i| 24.0 + 6.0 * i as f64).collect();
    let state_shift: Vec<f64> = (0..cfg.num_states).map(|i| i as f64 - 2.0).collect();

    let mut records = Vec::with_capacity(cfg.num_records);
    for _ in 0..cfg.num_records {
        let agency = rng.random_range(0..cfg.num_agency_types) as u16;
        let state = rng.random_range(0..cfg.num_states) as u16;
        let weapon = rng.random_range(0..cfg.num_weapons) as u16;

        let mean = mean_age_by_weapon[weapon as usize] + state_shift[state as usize];
        let mut age = mean + 8.0 * sample_standard_normal(&mut rng);

        if rng.random::<f64>() < cfg.outlier_fraction {
            // Push into the far tail of the subgroup: very old or very young.
            age = if rng.random::<bool>() {
                mean + 45.0 + 10.0 * rng.random::<f64>()
            } else {
                (mean - 30.0 - 10.0 * rng.random::<f64>()).max(1.0)
            };
        }
        let age = age.clamp(1.0, 99.0).round();
        records.push(Record::new(vec![agency, state, weapon], age));
    }
    Dataset::new(schema, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salary_schema_matches_paper_domains() {
        let schema = salary_schema(&SalaryConfig::full()).unwrap();
        assert_eq!(schema.num_attributes(), 3);
        assert_eq!(schema.attribute(0).domain_size(), 9);
        assert_eq!(schema.attribute(1).domain_size(), 8);
        assert_eq!(schema.attribute(2).domain_size(), 8);
        assert_eq!(schema.total_values(), 25);
        assert_eq!(schema.metric_name(), "Salary");
    }

    #[test]
    fn reduced_salary_has_fourteen_attribute_values() {
        let schema = salary_schema(&SalaryConfig::reduced()).unwrap();
        assert_eq!(schema.total_values(), 14);
    }

    #[test]
    fn reduced_homicide_has_twelve_attribute_values() {
        let schema = homicide_schema(&HomicideConfig::reduced()).unwrap();
        assert_eq!(schema.total_values(), 12);
    }

    #[test]
    fn salary_generation_is_deterministic_and_valid() {
        let cfg = SalaryConfig::tiny();
        let d1 = salary_dataset(&cfg).unwrap();
        let d2 = salary_dataset(&cfg).unwrap();
        assert_eq!(d1.len(), cfg.num_records);
        assert_eq!(d1.records(), d2.records());
        // All salaries respect the $100k disclosure threshold.
        assert!(d1.metrics().iter().all(|&s| s >= 100_000.0));
        // A different seed produces different data.
        let d3 = salary_dataset(&cfg.clone().with_seed(99)).unwrap();
        assert_ne!(d1.records(), d3.records());
    }

    #[test]
    fn homicide_generation_is_deterministic_and_valid() {
        let cfg = HomicideConfig::tiny();
        let d1 = homicide_dataset(&cfg).unwrap();
        let d2 = homicide_dataset(&cfg).unwrap();
        assert_eq!(d1.len(), cfg.num_records);
        assert_eq!(d1.records(), d2.records());
        assert!(d1.metrics().iter().all(|&a| (1.0..=99.0).contains(&a)));
    }

    #[test]
    fn planted_outliers_create_extreme_subgroup_values() {
        let cfg = SalaryConfig::tiny().with_records(2_000);
        let d = salary_dataset(&cfg).unwrap();
        let metrics = d.metrics();
        let mean = metrics.iter().sum::<f64>() / metrics.len() as f64;
        let max = metrics.iter().cloned().fold(f64::MIN, f64::max);
        // With a 5% outlier fraction and 2.5–6x multipliers, the max must be
        // far above the mean.
        assert!(max > 2.0 * mean, "max {max} should dominate mean {mean}");
    }

    #[test]
    fn with_records_override_is_respected() {
        let d = homicide_dataset(&HomicideConfig::tiny().with_records(123)).unwrap();
        assert_eq!(d.len(), 123);
    }

    #[test]
    fn standard_normal_sampler_has_sane_moments() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let samples: Vec<f64> = (0..20_000).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}
