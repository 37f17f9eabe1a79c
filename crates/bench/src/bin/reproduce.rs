//! `reproduce` — regenerate the tables and figures of the PCOR paper.
//!
//! ```text
//! Usage: reproduce [--scale smoke|quick|paper] [--json <path>] [SELECTOR ...]
//!
//! Selectors (default: all):
//!   all                 every experiment
//!   table2 .. table13   the corresponding table (paired tables run together)
//!   figure1 .. figure5  the experiment behind the corresponding figure
//!   sampling overlap detectors epsilon samples coe-salary coe-homicide
//!   ratio direct figures mechanisms wal
//! ```
//!
//! Exits 2 on a bad selector or scale, and 1 when an experiment fails or the
//! `--json` results cannot be written.
//!
//! Examples:
//!
//! ```bash
//! cargo run --release -p pcor-bench --bin reproduce -- table2 table3
//! cargo run --release -p pcor-bench --bin reproduce -- --scale quick all
//! cargo run --release -p pcor-bench --bin reproduce -- --json results.json all
//! ```

use pcor_bench::experiments::{self, ExperimentId, ExperimentOutput, RunEnvironment};
use pcor_bench::ExperimentScale;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = ExperimentScale::quick();
    let mut selectors: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let name = args.get(i).map(String::as_str).unwrap_or("");
                match ExperimentScale::by_name(name) {
                    Some(s) => scale = s,
                    None => {
                        eprintln!("unknown scale '{name}' (expected smoke, quick or paper)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--json" => {
                i += 1;
                json_path = args.get(i).cloned();
                if json_path.is_none() {
                    eprintln!("--json requires a path");
                    return ExitCode::from(2);
                }
            }
            "--help" | "-h" => {
                println!(
                    "Usage: reproduce [--scale smoke|quick|paper] [--json <path>] [SELECTOR ...]"
                );
                println!("Selectors: all, table2..table13, figure1..figure5, sampling, overlap,");
                println!(
                    "           detectors, epsilon, samples, coe-salary, coe-homicide, ratio,"
                );
                println!("           direct, figures, mechanisms, wal");
                return ExitCode::SUCCESS;
            }
            other => selectors.push(other.to_string()),
        }
        i += 1;
    }
    if selectors.is_empty() {
        selectors.push("all".to_string());
    }

    let mut ids: Vec<ExperimentId> = Vec::new();
    for selector in &selectors {
        let parsed = ExperimentId::parse(selector);
        if parsed.is_empty() {
            eprintln!("unknown experiment selector '{selector}' (try --help)");
            return ExitCode::from(2);
        }
        for id in parsed {
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
    }

    println!(
        "PCOR reproduction harness — scale: {} records (salary), {} repetitions, eps = {}, n = {}\n",
        scale.salary_records, scale.repetitions, scale.epsilon, scale.samples
    );

    let mut combined = ExperimentOutput::default();
    let mut failed = false;
    for id in ids {
        println!(">>> running {id}");
        let start = Instant::now();
        match experiments::run(id, &scale) {
            Ok(output) => {
                println!("    done in {:.1?}\n", start.elapsed());
                print!("{output}");
                combined.extend(output);
            }
            Err(err) => {
                eprintln!("    FAILED: {err}\n");
                failed = true;
            }
        }
    }

    if let Some(path) = json_path {
        combined.environment = Some(RunEnvironment::current(&scale));
        match serde_json::to_string_pretty(&combined) {
            Ok(json) => match std::fs::write(&path, json) {
                Ok(()) => println!("wrote results to {path}"),
                Err(err) => {
                    eprintln!("could not write {path}: {err}");
                    failed = true;
                }
            },
            Err(err) => {
                eprintln!("could not serialize results: {err}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
