//! Drives the `icfl-exp` binary: usage errors, one full run with its
//! persisted rows and profile artifacts, and the registry's names.

use icfl_experiments::{find, EXPERIMENTS};
use std::path::Path;
use std::process::{Command, Output};

fn icfl_exp(results: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_icfl-exp"))
        .args(args)
        .env("ICFL_RESULTS_DIR", results)
        .output()
        .expect("icfl-exp runs")
}

#[test]
fn usage_errors_exit_2_and_name_the_choices() {
    let dir = std::env::temp_dir().join(format!("icfl-cli-usage-{}", std::process::id()));
    let unknown = icfl_exp(&dir, &["table3"]);
    assert_eq!(unknown.status.code(), Some(2));
    let err = String::from_utf8_lossy(&unknown.stderr);
    for exp in &EXPERIMENTS {
        assert!(err.contains(exp.name), "{} not listed in: {err}", exp.name);
    }

    let bad_flag = icfl_exp(&dir, &["chaosbench", "--fleet"]);
    assert_eq!(bad_flag.status.code(), Some(2));
    let err = String::from_utf8_lossy(&bad_flag.stderr);
    assert!(err.contains("unknown argument --fleet"), "{err}");
    assert!(
        err.contains("icfl-exp chaosbench [--quick|--paper]") && err.contains("[--kills N]"),
        "{err}"
    );
    assert!(bad_flag.stdout.is_empty());
    assert!(!dir.exists(), "a usage error must not write results");
}

#[test]
fn fig4_prints_persists_and_profiles() {
    let dir = std::env::temp_dir().join(format!("icfl-cli-fig4-{}", std::process::id()));
    let profile = dir.join("profile");
    let run = icfl_exp(
        &dir,
        &[
            "fig4",
            "--seed",
            "42",
            "--profile",
            profile.to_str().unwrap(),
        ],
    );
    assert_eq!(run.status.code(), Some(0), "{run:?}");
    let out = String::from_utf8_lossy(&run.stdout);
    assert!(
        out.contains("CausalBench topology") && out.contains("A -> B"),
        "{out}"
    );
    let timings = std::fs::read_to_string(dir.join("timings.csv")).unwrap();
    assert!(
        timings.lines().any(|l| l.starts_with("fig4,quick,42,")),
        "{timings}"
    );
    for name in ["profile_fig4.txt", "fig4_trace.json"] {
        let len = std::fs::metadata(profile.join(name)).map(|m| m.len());
        assert!(matches!(len, Ok(n) if n > 0), "{name}: {len:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_names_are_unique_and_cover_the_artifact_table() {
    for (i, exp) in EXPERIMENTS.iter().enumerate() {
        assert!(
            EXPERIMENTS[..i].iter().all(|e| e.name != exp.name),
            "{} registered twice",
            exp.name
        );
    }
    // Every `icfl-exp <name>` the crate docs advertise resolves.
    let lib = include_str!("../src/lib.rs");
    let advertised: Vec<&str> = lib
        .lines()
        .filter(|l| l.starts_with("//! |"))
        .filter_map(|l| l.split("`icfl-exp ").nth(1)?.split('`').next())
        .collect();
    assert!(advertised.len() >= 15, "{advertised:?}");
    for name in advertised {
        assert!(find(name).is_some(), "lib.rs advertises unknown `{name}`");
    }
}
