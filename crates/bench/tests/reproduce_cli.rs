//! Exit codes of the `reproduce` binary: a run that cannot deliver its
//! results must fail, so a CI step over it can fail too.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce")).args(args).output().expect("reproduce runs")
}

#[test]
fn an_unwritable_json_path_fails_the_run() {
    let missing_dir = std::env::temp_dir()
        .join(format!("pcor-reproduce-cli-missing-{}", std::process::id()))
        .join("no-such-dir");
    let path = missing_dir.join("out.json");
    let output = reproduce(&["--scale", "smoke", "--json", path.to_str().unwrap(), "mechanisms"]);
    assert_eq!(output.status.code(), Some(1), "{}", String::from_utf8_lossy(&output.stderr));
    assert!(String::from_utf8_lossy(&output.stderr).contains("could not write"));
    assert!(!path.exists());
}

#[test]
fn retired_selectors_are_unknown() {
    for selector in ["service", "batch", "verify", "net", "pool"] {
        let output = reproduce(&["--scale", "smoke", selector]);
        assert_eq!(output.status.code(), Some(2), "selector {selector}");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("unknown experiment selector"),
            "selector {selector}"
        );
    }
}
