//! The command line: one workload (the form the benchmark driver calls),
//! every workload in child processes, `compare`, and `manifest`.

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::run::{self, Report};
use crate::stats::{median, quartiles};
use crate::workload::{self, Size, REF_SECONDS, WORKLOADS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// One reported number.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// The last line a single-workload run prints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

/// A metric over the runs of one suite.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Series {
    pub unit: String,
    pub values: Vec<f64>,
}

/// One workload's results over the runs of one suite.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkloadRuns {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<String, Series>,
    /// From the traced run, when the suite made one.
    pub per_layer: BTreeMap<String, Series>,
}

/// What `icfl-bench --out FILE` writes and `compare` reads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteFile {
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
    /// Seed of the first run; run `i` uses `seed + i`.
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub workloads: BTreeMap<String, WorkloadRuns>,
}

fn print_report(report: &Report) {
    for (name, value, unit) in &report.diagnostics {
        println!("diag   {name} {value} {unit}");
    }
    for note in &report.notes {
        println!("FAILED {note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name} {value} {unit}");
    }
    let line = ResultLine {
        correct: report.failed == 0,
        attempted: report.attempted.max(1),
        failed: report.failed,
        metrics: report
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let unit = unit.to_owned();
                (name.to_owned(), Metric { value, unit })
            })
            .collect(),
    };
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    flag(args, name).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("{name} needs a number, got {v:?}"))
    })
}

const USAGE: &str = "usage:
  icfl-bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  icfl-bench [--seed N] [--seconds S] [--runs R] [--traced] [--smoke] [--out FILE]
  icfl-bench compare A.json B.json
  icfl-bench manifest";

pub fn cli(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match args {
            [_, a, b] => compare(a, b),
            _ => Err(USAGE.to_owned()),
        },
        Some("manifest") => {
            println!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ if flag(args, "--workload").is_some() => one(args),
        _ => all(args),
    }
}

fn one(args: &[String]) -> Result<ExitCode, String> {
    let seed = number(args, "--seed", 42)?;
    let size = if args.iter().any(|a| a == "--smoke") {
        Size::smoke()
    } else {
        Size::full(number(args, "--seconds", REF_SECONDS)?)
    };
    let name = flag(args, "--workload").expect("checked by the caller");
    let w = workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let report = match flag(args, "--trace").unwrap_or("0") {
        "0" => run::end_to_end(w, seed, &size),
        "1" => run::per_layer(w, seed, &size),
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    }
    .map_err(|e| format!("{name}: {e}"))?;
    print_report(&report);
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// First line of a command's output, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs one workload in a fresh process of this program, so that peak
/// memory and leftover tenant threads of one workload do not leak into
/// the next, and returns its result line and its `diag` rows.
fn child(
    name: &str,
    seed: u64,
    args: &[String],
    trace: u8,
) -> Result<(ResultLine, BTreeMap<String, f64>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()]);
    cmd.args(["--trace", &trace.to_string()]);
    if let Some(seconds) = flag(args, "--seconds") {
        cmd.args(["--seconds", seconds]);
    }
    if args.iter().any(|a| a == "--smoke") {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("{name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("FAILED")) {
        println!("  {line}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result: ResultLine = serde_json::from_str(last).map_err(|e| {
        format!(
            "{name}: no result line ({e}); exit {:?}; stderr: {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })?;
    let diags = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("diag "))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            Some((parts.next()?.to_owned(), parts.next()?.parse().ok()?))
        })
        .collect();
    Ok((result, diags))
}

fn push(into: &mut BTreeMap<String, Series>, metrics: &BTreeMap<String, Metric>) {
    for (name, m) in metrics {
        let series = into.entry(name.clone()).or_default();
        series.unit = m.unit.clone();
        series.values.push(m.value);
    }
}

fn all(args: &[String]) -> Result<ExitCode, String> {
    let seed = number(args, "--seed", 42)?;
    let runs = number(args, "--runs", 1)?;
    let traced = args.iter().any(|a| a == "--traced");
    let mut file = SuiteFile {
        commit: first_line("git", &["rev-parse", "HEAD"]),
        rustc: first_line("rustc", &["--version"]),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seed,
        seconds: number(args, "--seconds", REF_SECONDS)?,
        smoke: args.iter().any(|a| a == "--smoke"),
        workloads: BTreeMap::new(),
    };
    println!(
        "icfl-bench: commit {} | {} | {} cpus | seed {seed} | {runs} run(s)",
        file.commit, file.rustc, file.nproc
    );
    let mut failed = 0;
    for w in &WORKLOADS {
        let entry = file.workloads.entry(w.name.to_owned()).or_default();
        let mut untraced_rate = 0.0;
        for i in 0..runs {
            let (result, _) = child(w.name, seed + i, args, 0)?;
            entry.attempted += result.attempted;
            entry.failed += result.failed;
            untraced_rate = result.metrics["scrapes_per_s"].value;
            push(&mut entry.end_to_end, &result.metrics);
        }
        let mut overhead = None;
        if traced {
            let (result, diags) = child(w.name, seed + runs - 1, args, 1)?;
            entry.attempted += result.attempted;
            entry.failed += result.failed;
            push(&mut entry.per_layer, &result.metrics);
            overhead = diags
                .get("trace.live_scrapes_per_s")
                .map(|traced_rate| untraced_rate / traced_rate - 1.0);
        }
        failed += entry.failed;
        println!(
            "\n{}  failed_share {}/{}",
            w.name, entry.failed, entry.attempted
        );
        for group in [&entry.end_to_end, &entry.per_layer] {
            for (name, s) in group {
                println!("  {name:34} {:>14.6} {}", median(&s.values), s.unit);
            }
        }
        if let Some(share) = overhead {
            println!("  {:34} {share:>14.6} ratio", "trace.overhead_share");
        }
    }
    if let Some(path) = flag(args, "--out") {
        let json = serde_json::to_string_pretty(&file).expect("suite serializes");
        std::fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("\nwrote {path}");
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// IQR ÷ median, the driver's measure of spread; 0 for a single run.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

fn load(path: &str) -> Result<SuiteFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Per workload × end-to-end metric: both medians, both spreads, the
/// change in the worse direction and the bound. Fails when a change
/// exceeds its bound or an operation failed; a pairing whose spread is
/// wider than its bound is reported as unresolved, not as unchanged.
fn compare(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (label, f) in [("A", &a), ("B", &b)] {
        println!(
            "{label}: commit {} | {} | {} cpus | seed {} | {} s",
            f.commit, f.rustc, f.nproc, f.seed, f.seconds
        );
    }
    println!(
        "\n{:16} {:24} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "worse%", "bound%"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for (name, wa) in &a.workloads {
        let Some(wb) = b.workloads.get(name) else {
            continue;
        };
        if wa.failed + wb.failed > 0 {
            println!("{name}: failed operations: A {} B {}", wa.failed, wb.failed);
            worse += 1;
        }
        for (metric, _, better, bound) in END_TO_END {
            let (Some(sa), Some(sb)) = (wa.end_to_end.get(metric), wb.end_to_end.get(metric))
            else {
                return Err(format!("{name}: {metric} is missing from a file"));
            };
            let (ma, mb) = (median(&sa.values), median(&sb.values));
            let change = match better {
                Better::Lower => mb / ma - 1.0,
                Better::Higher => ma / mb - 1.0,
            };
            let (spread_a, spread_b) = (spread(&sa.values), spread(&sb.values));
            // Every run of B better than every run of A settles it
            // whatever the spread.
            let b_wins = match better {
                Better::Lower => max(&sb.values) < min(&sa.values),
                Better::Higher => min(&sb.values) > max(&sa.values),
            };
            let verdict = if change > bound {
                worse += 1;
                "WORSE"
            } else if spread_a.max(spread_b) > bound && !b_wins {
                unresolved += 1;
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{name:16} {metric:24} {ma:>12.5} {:>7.2} {mb:>12.5} {:>7.2} {:>8.2} {:>6.1}  {verdict}",
                spread_a * 100.0,
                spread_b * 100.0,
                change * 100.0,
                bound * 100.0
            );
        }
    }
    println!("\n{worse} worse, {unresolved} unresolved");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// `BENCHMARK.json`, generated from the tables in this package.
pub fn manifest() -> String {
    #[derive(Serialize)]
    struct Manifest {
        command: Vec<&'static str>,
        paths: Vec<&'static str>,
        run_seconds: u64,
        workloads: Vec<Named>,
        end_to_end: Vec<Bounded>,
        per_layer: Vec<Layered>,
    }
    #[derive(Serialize)]
    struct Named {
        name: &'static str,
        why: &'static str,
    }
    #[derive(Serialize)]
    struct Bounded {
        name: &'static str,
        unit: &'static str,
        better: &'static str,
        bound: f64,
    }
    #[derive(Serialize)]
    struct Layered {
        name: &'static str,
        unit: &'static str,
        better: &'static str,
    }
    let manifest = Manifest {
        command: vec![
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "perfbench/Cargo.toml",
            "--",
        ],
        paths: vec!["perfbench"],
        run_seconds: REF_SECONDS as u64,
        workloads: WORKLOADS
            .iter()
            .map(|w| Named {
                name: w.name,
                why: w.why,
            })
            .collect(),
        end_to_end: END_TO_END
            .iter()
            .map(|&(name, unit, better, bound)| Bounded {
                name,
                unit,
                better: better.as_str(),
                bound,
            })
            .collect(),
        per_layer: PER_LAYER
            .iter()
            .map(|&(name, unit, better)| Layered {
                name,
                unit,
                better: better.as_str(),
            })
            .collect(),
    };
    serde_json::to_string_pretty(&manifest).expect("manifest serializes")
}
