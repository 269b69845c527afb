//! Runs the whole suite at smoke size — every workload, untraced and
//! traced, each in its own child process — and holds the output, the
//! metric tables and `BENCHMARK.json` together. This is what keeps the
//! harness compiling and correct against API changes in the crates it
//! drives; it measures nothing.

use serde::Value;
use std::path::Path;
use std::process::Command;

const BENCH: &str = env!("CARGO_BIN_EXE_icfl-bench");

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    serde::obj_get(v.as_obj().expect("an object"), key).unwrap_or_else(|| panic!("no key {key:?}"))
}

fn names_and_units(manifest: &Value, group: &str) -> Vec<(String, String)> {
    get(manifest, group)
        .as_arr()
        .expect("an array")
        .iter()
        .map(|m| {
            let text = |k| get(m, k).as_str().expect("a string").to_owned();
            (text("name"), text("unit"))
        })
        .collect()
}

/// A suite file with one workload whose every end-to-end metric reads
/// `values`, except `scrapes_per_s`, which reads `rates`.
fn suite_file(manifest: &Value, values: &[f64], rates: &[f64]) -> String {
    let list = |v: &[f64]| format!("{v:?}");
    let metrics: Vec<String> = names_and_units(manifest, "end_to_end")
        .iter()
        .map(|(name, unit)| {
            let values = if name == "scrapes_per_s" {
                rates
            } else {
                values
            };
            format!(
                "\"{name}\":{{\"unit\":\"{unit}\",\"values\":{}}}",
                list(values)
            )
        })
        .collect();
    format!(
        "{{\"commit\":\"c\",\"rustc\":\"r\",\"nproc\":2,\"seed\":1,\"seconds\":8.0,\"smoke\":false,\
         \"workloads\":{{\"ingest_quiet\":{{\"attempted\":10,\"failed\":0,\
         \"end_to_end\":{{{}}},\"per_layer\":{{}}}}}}}}",
        metrics.join(",")
    )
}

#[test]
fn compare_fails_only_beyond_the_bound_in_the_worse_direction() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let committed = std::fs::read_to_string(repo.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let manifest = serde_json::parse_value_str(&committed).expect("BENCHMARK.json parses");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let steady = [1.00, 1.01, 0.99, 1.00];
    let write = |name: &str, rates: &[f64]| {
        let path = dir.join(name);
        std::fs::write(&path, suite_file(&manifest, &steady, rates)).expect("write");
        path
    };
    let base = write("base.json", &[100.0, 101.0, 99.0, 100.0]);
    let faster = write("faster.json", &[150.0, 151.0, 149.0, 150.0]);
    let slower = write("slower.json", &[80.0, 81.0, 79.0, 80.0]);
    let noisy = write("noisy.json", &[70.0, 130.0, 100.0, 99.0]);
    let compare = |a: &Path, b: &Path| {
        let out = Command::new(BENCH)
            .arg("compare")
            .args([a, b])
            .output()
            .expect("compare");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    assert_eq!(compare(&base, &base).0, Some(0));
    assert_eq!(
        compare(&base, &faster).0,
        Some(0),
        "a gain is not a regression"
    );
    let (code, text) = compare(&base, &slower);
    assert_eq!(
        code,
        Some(1),
        "100 scrapes/s against 80 is 25% worse, beyond the 20% bound"
    );
    assert!(text.contains("WORSE"));
    let (code, text) = compare(&base, &noisy);
    assert_eq!(code, Some(0));
    assert!(
        text.contains("unresolved"),
        "a spread wider than the bound settles nothing"
    );
}

#[test]
fn smoke_suite_reports_every_declared_metric() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let committed = std::fs::read_to_string(repo.join("BENCHMARK.json")).expect("BENCHMARK.json");

    // BENCHMARK.json is generated from the tables in the package.
    let generated = Command::new(BENCH)
        .arg("manifest")
        .output()
        .expect("manifest");
    assert!(generated.status.success());
    assert_eq!(
        String::from_utf8_lossy(&generated.stdout).trim(),
        committed.trim(),
        "BENCHMARK.json is stale: regenerate it with `icfl-bench manifest`"
    );
    let manifest = serde_json::parse_value_str(&committed).expect("BENCHMARK.json parses");

    // The suite runs inside the test's own scratch directory.
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("scratch dir");
    let suite = Command::new(BENCH)
        .args(["--smoke", "--traced", "--out", "smoke.json"])
        .current_dir(&cwd)
        .output()
        .expect("run the suite");
    assert!(
        suite.status.success(),
        "suite failed:\n{}\n{}",
        String::from_utf8_lossy(&suite.stdout),
        String::from_utf8_lossy(&suite.stderr)
    );
    let text = std::fs::read_to_string(cwd.join("smoke.json")).expect("suite output");
    let file = serde_json::parse_value_str(&text).expect("suite output parses");
    for key in ["commit", "rustc", "nproc", "seed"] {
        get(&file, key);
    }

    let valid = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    let workloads = get(&manifest, "workloads").as_arr().expect("an array");
    assert_eq!(workloads.len(), 6);
    for w in workloads {
        let name = get(w, "name").as_str().expect("a string");
        assert!(valid(name), "workload name {name:?}");
        let runs = get(get(&file, "workloads"), name);
        assert_eq!(
            get(runs, "failed"),
            &Value::Num(serde::Number::U(0)),
            "{name}: failed_share"
        );
        for (group, declared) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
            for (metric, unit) in names_and_units(&manifest, declared) {
                assert!(valid(&metric), "metric name {metric:?}");
                let series = get(get(runs, group), &metric);
                assert_eq!(
                    get(series, "unit").as_str(),
                    Some(unit.as_str()),
                    "{name}: {metric}"
                );
                assert_eq!(get(series, "values").as_arr().map(<[Value]>::len), Some(1));
            }
        }
    }

    // Nothing but the kept artifacts is left behind.
    assert!(!cwd.join(".bench_tmp").exists(), "temp dirs are removed");
    assert!(cwd.join(".bench_out").is_dir(), "Chrome traces are kept");
}
