//! Wall-clock measurement and persistence for the experiments.
//!
//! The runner times every experiment with [`run_timed`] and appends one
//! `phase = total` CSV row to `results/timings.csv` via
//! [`record_timing`], so the speedup of the parallel executor is captured
//! next to the scientific outputs it produced, plus one row per pipeline
//! phase (`scenario-build`, `sim-run`, `windowing`, `learn`, `localize`)
//! via [`record_phase_timings`], sourced from the global profiler's span
//! aggregate.

use crate::mode::CliOptions;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A result annotated with how long it took to produce.
#[derive(Debug)]
pub struct Timed<T> {
    /// The experiment's output.
    pub result: T,
    /// Wall-clock time of the experiment body.
    pub wall: Duration,
}

/// Runs `f`, measuring its wall-clock time.
pub fn run_timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let start = Instant::now();
    let result = f();
    Timed {
        result,
        wall: start.elapsed(),
    }
}

/// Where experiments keep what they write (timing rows, result files,
/// the model registry): `$ICFL_RESULTS_DIR`, or `results` under the
/// current directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("ICFL_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Where timing rows are appended: `timings.csv` in [`results_dir`].
pub fn timings_path() -> PathBuf {
    results_dir().join("timings.csv")
}

/// The CSV header written before the `phase` column existed.
const TIMINGS_HEADER_V1: &str = "experiment,mode,seed,threads,wall_secs";

/// The CSV header of [`timings_path`].
const TIMINGS_HEADER: &str = "experiment,mode,seed,threads,wall_secs,phase";

/// The pipeline phases [`record_phase_timings`] reports, in pipeline
/// order. Each is instrumented at exactly one non-nesting point, so the
/// flat per-name totals are a disjoint breakdown of the run.
pub const PIPELINE_PHASES: [&str; 5] = [
    "scenario-build",
    "sim-run",
    "windowing",
    "learn",
    "localize",
];

/// Rewrites `path` to the current header if it is headerless (written by
/// versions predating any header) or carries the pre-`phase` header; old
/// rows are padded with `,total`, which is exactly what those versions
/// were measuring.
fn upgrade_schema(path: &std::path::Path) -> std::io::Result<()> {
    let body = std::fs::read_to_string(path)?;
    let first = body.lines().next();
    if first == Some(TIMINGS_HEADER) {
        return Ok(());
    }
    let mut out = String::with_capacity(body.len() + 64);
    out.push_str(TIMINGS_HEADER);
    out.push('\n');
    for line in body.lines() {
        if line == TIMINGS_HEADER_V1 || line.is_empty() {
            continue;
        }
        out.push_str(line);
        if line.matches(',').count() == 4 {
            out.push_str(",total");
        }
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Appends one row (`experiment,mode,seed,threads,wall_secs,phase`) to
/// [`timings_path`], creating the file (with a header) and its directory
/// on first use, and upgrading older schemas in place (headerless or
/// pre-`phase` files get the header and `,total`) first. The `wall_secs`
/// column carries
/// `value` — seconds for the `total` and pipeline-phase rows, else a
/// rate, a ratio, a count (any finite number) named by `phase` (e.g.
/// `scrapes_per_sec@4x`), so sweeps persist derived numbers next to their
/// wall-clock rows.
///
/// # Errors
///
/// [`std::io::ErrorKind::InvalidInput`] for a NaN or infinite `value`;
/// otherwise propagates filesystem errors.
pub fn record_metric_row(
    experiment: &str,
    opts: &CliOptions,
    value: f64,
    phase: &str,
) -> std::io::Result<PathBuf> {
    use std::io::Write;
    if !value.is_finite() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{experiment} {phase}: {value} is not a finite number"),
        ));
    }
    let path = timings_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let fresh = !path.exists();
    if !fresh {
        upgrade_schema(&path)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    if fresh {
        writeln!(file, "{TIMINGS_HEADER}")?;
    }
    writeln!(
        file,
        "{experiment},{},{},{},{value:.3},{phase}",
        opts.mode,
        opts.seed,
        opts.resolved_threads(),
    )?;
    Ok(path)
}

/// Appends the whole-run timing row (`phase = total`) to
/// [`timings_path`].
///
/// # Errors
///
/// Propagates filesystem errors (callers usually just warn: timings are
/// diagnostics, not results).
pub fn record_timing(
    experiment: &str,
    opts: &CliOptions,
    wall: Duration,
) -> std::io::Result<PathBuf> {
    record_metric_row(experiment, opts, wall.as_secs_f64(), "total")
}

/// Appends one row per [`PIPELINE_PHASES`] entry the global `icfl-obs`
/// profiler has spans for, reporting each phase's summed wall-clock time.
/// Returns the phases written. The runner calls this right after the timed
/// body, so the rows describe the same run as the `total` row.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn record_phase_timings(
    experiment: &str,
    opts: &CliOptions,
) -> std::io::Result<Vec<&'static str>> {
    let aggregate = icfl_obs::global().profiler.aggregate();
    let mut written = Vec::new();
    for phase in PIPELINE_PHASES {
        if let Some(row) = aggregate.iter().find(|r| r.name == phase) {
            record_metric_row(experiment, opts, row.total_secs, phase)?;
            written.push(phase);
        }
    }
    Ok(written)
}

/// Logs the standard timing trailer and appends the `total` row plus the
/// per-phase breakdown to the timings file, warning (not failing) if the
/// file is unwritable.
pub fn report_timing(experiment: &str, opts: &CliOptions, wall: Duration) {
    icfl_obs::info!(
        "{experiment}: wall-clock {:.2}s with {} worker thread(s)",
        wall.as_secs_f64(),
        opts.resolved_threads()
    );
    match record_timing(experiment, opts, wall) {
        Ok(path) => icfl_obs::info!("{experiment}: timing appended to {}", path.display()),
        Err(e) => icfl_obs::warn!("{experiment}: could not persist timing: {e}"),
    }
    match record_phase_timings(experiment, opts) {
        Ok(phases) if !phases.is_empty() => {
            icfl_obs::debug!("{experiment}: phase rows appended: {}", phases.join(", "));
        }
        Ok(_) => {}
        Err(e) => icfl_obs::warn!("{experiment}: could not persist phase timings: {e}"),
    }
}

/// Serializes tests that repoint `ICFL_RESULTS_DIR` or reset the global
/// collector (both process-global).
#[cfg(test)]
pub(crate) static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::Mode;

    fn opts(seed: u64, threads: usize) -> CliOptions {
        CliOptions {
            mode: Mode::Quick,
            seed,
            threads,
            ..CliOptions::defaults()
        }
    }

    #[test]
    fn run_timed_returns_result_and_nonzero_duration() {
        let t = run_timed(|| (0..1000).sum::<u64>());
        assert_eq!(t.result, 499_500);
        assert!(t.wall.as_nanos() > 0);
    }

    #[test]
    fn record_timing_appends_csv_rows() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("icfl-timings-{}", std::process::id()));
        std::env::set_var("ICFL_RESULTS_DIR", &dir);
        let opts = opts(9, 2);
        let p1 = record_timing("unit-test", &opts, Duration::from_millis(1500)).unwrap();
        let p2 = record_timing("unit-test", &opts, Duration::from_millis(250)).unwrap();
        // Metric rows carry any finite number, and only finite ones.
        record_metric_row("unit-test", &opts, -0.25, "delta").unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = record_metric_row("unit-test", &opts, bad, "delta").unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        }
        std::env::remove_var("ICFL_RESULTS_DIR");
        assert_eq!(p1, p2);
        let body = std::fs::read_to_string(&p1).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines[0], "experiment,mode,seed,threads,wall_secs,phase");
        assert_eq!(lines[1], "unit-test,quick,9,2,1.500,total");
        assert_eq!(lines[2], "unit-test,quick,9,2,0.250,total");
        assert_eq!(lines[3], "unit-test,quick,9,2,-0.250,delta");
        assert_eq!(lines.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn headerless_file_is_upgraded_in_place() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("icfl-timings-hdr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("timings.csv"), "old-run,quick,1,1,9.000\n").unwrap();
        std::env::set_var("ICFL_RESULTS_DIR", &dir);
        let p = record_timing("unit-test", &opts(3, 1), Duration::from_millis(500)).unwrap();
        std::env::remove_var("ICFL_RESULTS_DIR");
        let body = std::fs::read_to_string(&p).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines[0], "experiment,mode,seed,threads,wall_secs,phase");
        assert_eq!(lines[1], "old-run,quick,1,1,9.000,total");
        assert_eq!(lines[2], "unit-test,quick,3,1,0.500,total");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pre_phase_header_is_upgraded_in_place() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("icfl-timings-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("timings.csv"),
            "experiment,mode,seed,threads,wall_secs\ntable2,quick,42,8,1.925\n",
        )
        .unwrap();
        std::env::set_var("ICFL_RESULTS_DIR", &dir);
        let p = record_timing("unit-test", &opts(5, 4), Duration::from_millis(750)).unwrap();
        std::env::remove_var("ICFL_RESULTS_DIR");
        let body = std::fs::read_to_string(&p).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines[0], "experiment,mode,seed,threads,wall_secs,phase");
        assert_eq!(lines[1], "table2,quick,42,8,1.925,total");
        assert_eq!(lines[2], "unit-test,quick,5,4,0.750,total");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn phase_rows_come_from_the_global_profiler() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("icfl-timings-ph-{}", std::process::id()));
        std::env::set_var("ICFL_RESULTS_DIR", &dir);
        icfl_obs::reset();
        drop(icfl_obs::span("learn"));
        drop(icfl_obs::span("localize"));
        drop(icfl_obs::span("not-a-pipeline-phase"));
        let written = record_phase_timings("unit-test", &opts(1, 1)).unwrap();
        icfl_obs::reset();
        std::env::remove_var("ICFL_RESULTS_DIR");
        assert_eq!(written, vec!["learn", "localize"]);
        let body = std::fs::read_to_string(dir.join("timings.csv")).unwrap();
        // Pipeline order, one row each, after the header.
        let phases: Vec<&str> = body
            .lines()
            .skip(1)
            .map(|l| l.rsplit(',').next().unwrap())
            .collect();
        assert_eq!(phases, vec!["learn", "localize"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
