//! The experiment registry and the one runner behind `icfl-exp`.
//!
//! Every table, figure and gate is one [`Experiment`] row: a name, the
//! flags it takes beyond the common set, and a `run` fn that turns
//! parsed options into an [`Outcome`]. [`run_cli`] owns everything else:
//! parsing with per-experiment usage, logger and `ICFL_THREADS` set-up,
//! timing, printing, result files, metric rows, profile artifacts and
//! the exit code.

use crate::error::Result;
use crate::mode::{CliOptions, LocalFlags, Mode};
use crate::profiling::{profile_report, render_profile_text, write_profile_artifacts};
use crate::timing::{record_metric_row, report_timing, results_dir, run_timed};
use crate::{
    ablations, chaosbench, comparison, confusability, fig1, fig2, fig4, forensics, grayfail,
    grayfail_smoke, production, robustness, scalability, scalability_fleet,
    scalability_fleet_smoke, serverbench, table1, table2, ChaosbenchOptions, GrayFail, GrayFailRow,
    ProductionOptions, ServerbenchOptions, DROP_RATES, RESET_PROB, STREAMS_PER_SCALE,
};
use serde::Serialize;
use std::time::Duration;

/// What one experiment run hands back to the runner.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The rendered report, printed to stdout.
    pub report: String,
    /// The structured result (`--json` only), printed after the report.
    pub json: Option<String>,
    /// `(phase, value)` metric rows for `timings.csv`.
    pub metrics: Vec<(String, f64)>,
    /// `(file name, body)` result files, written into the results dir.
    pub files: Vec<(String, String)>,
    /// Violated pass/fail rules; any entry makes the run exit 1 after
    /// everything above was still printed and persisted.
    pub gate_failures: Vec<String>,
    /// Set by the `profile` experiment only: write the profile artifacts
    /// even without `--profile` (into the results dir), under this stem.
    pub profile_stem: Option<String>,
}

impl Outcome {
    fn new<T: Serialize>(opts: &CliOptions, report: String, result: &T) -> Result<Outcome> {
        let json = opts
            .json
            .then(|| serde_json::to_string_pretty(result))
            .transpose()?;
        Ok(Outcome {
            report,
            json,
            ..Outcome::default()
        })
    }
}

/// One row of the registry.
#[derive(Debug)]
pub struct Experiment {
    /// The `icfl-exp <name>` argument; also the base tier's name in
    /// `timings.csv` and in `--profile` file names.
    pub name: &'static str,
    /// What the run regenerates, for logs and the experiment listing.
    pub title: &'static str,
    /// Flags beyond the common set.
    pub local: LocalFlags,
    /// Runs the experiment.
    pub run: Run,
}

type Run = fn(&CliOptions) -> Result<Outcome>;

/// A registry row with local flags: tier flags (each with its recorded
/// name) and the other flags as the usage line shows them.
const fn flagged(
    name: &'static str,
    title: &'static str,
    tiers: &'static [(&'static str, &'static str)],
    flags: &'static [&'static str],
    run: Run,
) -> Experiment {
    let local = LocalFlags { tiers, flags };
    Experiment {
        name,
        title,
        local,
        run,
    }
}

/// A registry row with no flags beyond the common set.
const fn plain(name: &'static str, title: &'static str, run: Run) -> Experiment {
    flagged(name, title, &[], &[], run)
}

/// An outcome whose report is `head`, a blank line, the rendered result.
fn report<T: Serialize>(o: &CliOptions, head: &str, r: &T, rendered: String) -> Result<Outcome> {
    Outcome::new(o, format!("{head}\n\n{rendered}"), r)
}

/// Every experiment `icfl-exp` can run.
pub static EXPERIMENTS: [Experiment; 17] = [
    plain("table1", "Table I", |o| {
        let head = "Table I — fault localization accuracy and informativeness\n\
                    (train @1x, derived metrics; paper columns shown for reference)";
        let r = table1(o.mode, o.seed)?;
        report(o, head, &r, r.render())
    }),
    plain("table2", "Table II", |o| {
        let head = "Table II — informativeness by metric catalog\n\
                    (train @1x, test @4x; raw vs derived x msg/cpu/all)";
        let r = table2(o.mode, o.seed)?;
        report(o, head, &r, r.render())
    }),
    plain("fig1", "Fig. 1 / §VI-B", |o| {
        let head = "Fig. 1 — causal relations depend on the observed metric";
        let r = fig1(o.mode, o.seed)?;
        report(o, head, &r, r.render())
    }),
    plain("fig2", "Fig. 2", |o| {
        let head = "Fig. 2 — request-rate boxplots under faults (external load fixed)";
        let r = fig2(o.mode, o.seed)?;
        report(o, head, &r, r.render())
    }),
    plain("fig4", "Fig. 4", |o| {
        let r = fig4(o.seed)?;
        Outcome::new(o, r.render(), &r)
    }),
    plain("baselines", "Baselines", |o| {
        let head = "Baseline comparison — accuracy and informativeness";
        let r = comparison(o.mode, o.seed)?;
        report(o, head, &r, r.render())
    }),
    plain("ablations", "Ablations", |o| {
        let head = "Ablations on CausalBench (train @1x, service-unavailable campaign)";
        let r = ablations(o.mode, o.seed)?;
        report(o, head, &r, r.render())
    }),
    plain("all", "Tables, figures and baselines in sequence", run_all),
    flagged(
        "scalability",
        "Scalability sweep over synthetic topologies",
        &[
            ("--fleet", "scalability-fleet"),
            ("--fleet-smoke", "scalability-fleet-smoke"),
        ],
        &[],
        run_scalability,
    ),
    plain("confusability", "Signature confusability", |o| {
        let head = "Causal-signature confusability (top pairs per app)";
        let r = confusability(o.mode, o.seed)?;
        report(o, head, &r, r.render())
    }),
    flagged(
        "production",
        "Production platform: streaming detection + live localization",
        &[],
        &["--ad"],
        run_production,
    ),
    plain(
        "robustness",
        "Robustness under degraded telemetry",
        run_robustness,
    ),
    flagged(
        "serverbench",
        "Ingest server load sweep",
        &[("--smoke", "serverbench-smoke")],
        &["--emit-trace DIR"],
        run_serverbench,
    ),
    flagged(
        "grayfail",
        "Gray failures and overload cascades at instance granularity",
        &[("--smoke", "gray-smoke")],
        &[],
        run_grayfail,
    ),
    flagged(
        "chaosbench",
        "Chaos recovery campaign",
        &[("--smoke", "chaosbench-smoke")],
        &["--kills N"],
        run_chaosbench,
    ),
    flagged(
        "forensics",
        "Evidence-chain forensics gate",
        &[("--smoke", "forensics-smoke")],
        &[],
        run_forensics,
    ),
    plain("profile", "Pipeline self-profile", run_profile),
];

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

fn run_all(o: &CliOptions) -> Result<Outcome> {
    let mut all = Outcome::default();
    for name in ["table1", "table2", "fig1", "fig2", "fig4", "baselines"] {
        let exp = find(name).expect("a registered experiment");
        let part = (exp.run)(o)?;
        if !all.report.is_empty() {
            all.report.push('\n');
        }
        all.report += &format!("=== {} ===\n{}", exp.title, part.report);
        all.metrics.extend(part.metrics);
        all.files.extend(part.files);
        all.gate_failures.extend(part.gate_failures);
    }
    Ok(all)
}

fn run_scalability(o: &CliOptions) -> Result<Outcome> {
    let (r, what) = match o.tier {
        None => (scalability(o.mode, o.seed)?, "topology size"),
        Some("scalability-fleet") => (
            scalability_fleet(o.mode, o.seed)?,
            "fleet size (100-1000 services)",
        ),
        Some(_) => (
            scalability_fleet_smoke(o.seed)?,
            "fleet smoke (100 services)",
        ),
    };
    let head = format!("Scalability of Algorithms 1-2 with {what} (derived metrics, 1x load)");
    report(o, &head, &r, r.render())
}

fn run_production(o: &CliOptions) -> Result<Outcome> {
    let mut popts = ProductionOptions::new(o.mode, o.seed);
    popts.threads = o.threads;
    popts.anderson_darling = o.ad;
    let r = production(&popts)?;
    let head = format!(
        "Production platform — online detection and localization\n\
         ({} incidents injected across {} apps; models served from {})",
        r.total_episodes(),
        r.apps.len(),
        popts.registry_root.display()
    );
    report(o, &head, &r, r.render())
}

fn run_robustness(o: &CliOptions) -> Result<Outcome> {
    let r = robustness(o.mode, o.seed)?;
    let head = format!(
        "Robustness under degraded telemetry\n\
         (drop rates {DROP_RATES:?}, reset prob {RESET_PROB} per scrape)"
    );
    let mut out = report(o, &head, &r, r.render())?;
    out.files = vec![
        (format!("robustness_{}.txt", o.mode), r.render()),
        (format!("robustness_{}.csv", o.mode), r.to_csv()),
    ];
    // The headline robustness claim is enforced, not just recorded:
    // telemetry gaps alone must never read as an incident.
    if r.gaps_only_false_alarms() > 0 {
        out.gate_failures.push(format!(
            "gaps-only arm raised {} false alarm(s) — missing telemetry was treated as anomalous",
            r.gaps_only_false_alarms()
        ));
    }
    Ok(out)
}

/// Gate: `counter` moved in this process's journal — the traffic, kill
/// or chain the report describes really went through the instrumented
/// path, not a shortcut around it.
fn counter_gate(counter: &str, meaning: &str) -> Option<String> {
    (icfl_obs::counter_total(counter) == 0).then(|| format!("{counter} is zero — {meaning}"))
}

fn run_serverbench(o: &CliOptions) -> Result<Outcome> {
    let smoke = o.tier.is_some();
    let mut sopts = if smoke {
        ServerbenchOptions::smoke(o.seed)
    } else {
        ServerbenchOptions::new(o.mode, o.seed)
    };
    sopts.emit_trace = o.emit_trace.clone();
    let r = serverbench(&sopts)?;
    let head = format!(
        "Ingest server under load (loopback, bulk batches, {STREAMS_PER_SCALE}x streams per scale)"
    );
    let mut out = report(o, &head, &r, r.render())?;
    // Full sweep only: the smoke tier must not overwrite the report with
    // a single point.
    if !smoke {
        let md = r.to_markdown(o.mode, o.seed);
        out.files.push(("server_load.md".to_owned(), md));
    }
    for row in &r.rows {
        let scale = row.scale;
        out.metrics
            .push((format!("scrapes_per_sec@{scale}x"), row.scrapes_per_sec));
        out.metrics
            .push((format!("detect_p99_ms@{scale}x"), row.detect_p99_ms));
    }
    out.gate_failures.extend(counter_gate(
        "icfl_server_batches_accepted_total",
        "no batches reached the server",
    ));
    Ok(out)
}

/// The instance top-1 every gray scenario must reach.
const GRAY_TOP1_FLOOR: f64 = 0.9;

/// Gate: every gray scenario localizes the degraded replica at or above
/// `floor` (cascade scenarios are recorded, not gated).
fn gray_gate(report: &GrayFail, floor: f64) -> Vec<String> {
    let gray = |r: &&GrayFailRow| !r.scenario.starts_with("cascade");
    let gray: Vec<&GrayFailRow> = report.rows.iter().filter(gray).collect();
    if gray.is_empty() {
        return vec!["no gray scenario was measured".to_owned()];
    }
    let below = gray.into_iter().filter(|r| r.instance_top1 < floor);
    below
        .map(|r| {
            format!(
                "{} instance top-1 {:.2} below the {floor} bar",
                r.scenario, r.instance_top1
            )
        })
        .collect()
}

fn run_grayfail(o: &CliOptions) -> Result<Outcome> {
    let r = match o.tier {
        Some(_) => grayfail_smoke(o.seed)?,
        None => grayfail(o.mode, o.seed)?,
    };
    let head = "Instance-granularity localization: gray replicas and overload cascades";
    let mut out = report(o, head, &r, r.render())?;
    for row in &r.rows {
        let phase = if row.scenario.starts_with("cascade") {
            "cascade_top1"
        } else {
            "gray_instance_acc"
        };
        out.metrics.push((phase.to_owned(), row.instance_top1));
    }
    out.gate_failures = gray_gate(&r, GRAY_TOP1_FLOOR);
    Ok(out)
}

fn run_chaosbench(o: &CliOptions) -> Result<Outcome> {
    let smoke = o.tier.is_some();
    let mut copts = if smoke {
        ChaosbenchOptions::smoke(o.seed)
    } else {
        ChaosbenchOptions::new(o.mode, o.seed)
    };
    copts.kills = o.kills.unwrap_or(copts.kills);
    let r = chaosbench(&copts)?;
    let head = "Chaos recovery campaign (seeded proxy faults + scheduled server kills)";
    let mut out = report(o, head, &r, r.render())?;
    // Full campaign only: the smoke tier must not overwrite the report
    // with a single-kill run.
    if !smoke {
        let md = r.to_markdown(o.mode, o.seed);
        out.files.push(("chaos_recovery.md".to_owned(), md));
    }
    out.metrics = vec![
        ("send_inflation".to_owned(), r.inflation()),
        ("detect_p99_ms".to_owned(), r.detect_p99_ms),
        ("server_restarts".to_owned(), r.restarts as f64),
    ];
    out.gate_failures.extend(counter_gate(
        "icfl_server_simulated_crashes_total",
        "the chaos kill never fired",
    ));
    Ok(out)
}

fn run_forensics(o: &CliOptions) -> Result<Outcome> {
    // The smoke tier is the quick-mode gate whatever mode was asked for.
    let mode = o.tier.map_or(o.mode, |_| Mode::Quick);
    let r = forensics(mode, o.seed)?;
    let head = "Evidence-chain forensics gate (thread + replay byte-determinism)";
    let mut out = report(o, head, &r, r.render())?;
    for row in &r.rows {
        let app = &row.app;
        out.metrics
            .push((format!("chains@{app}"), row.chains as f64));
        out.metrics
            .push((format!("breakdowns@{app}"), row.breakdowns_checked as f64));
    }
    out.gate_failures.extend(counter_gate(
        "icfl_forensics_chains_total",
        "no evidence chain was ever opened",
    ));
    Ok(out)
}

/// Profiles the pipeline end to end — the Table II offline workload
/// (campaign → windowing → learn → localize) plus the streaming
/// production platform — and reports the per-phase breakdown. The
/// artifact set is always written, with the mode as the stem
/// (`profile_quick.txt`, `quick_trace.json`, …).
fn run_profile(o: &CliOptions) -> Result<Outcome> {
    table2(o.mode, o.seed)?;
    // A throw-away registry: profiling must not add versions to the
    // models the production experiment serves.
    let registry =
        std::env::temp_dir().join(format!("icfl-profile-registry-{}", std::process::id()));
    let prod = production(&ProductionOptions::new(o.mode, o.seed).with_registry_root(&registry));
    std::fs::remove_dir_all(&registry).ok();
    prod?;
    let r = profile_report();
    let head = "Pipeline profile — offline campaign + online sessions";
    let mut out = report(o, head, &r, render_profile_text(&r))?;
    out.profile_stem = Some(o.mode.to_string());
    Ok(out)
}

/// Runs `icfl-exp <experiment> [flags]` (`args` excludes the binary
/// name) and returns the process exit code: 0 on success, 1 when the
/// experiment or one of its gates failed, 2 on a usage error.
pub fn run_cli(args: impl IntoIterator<Item = String>) -> i32 {
    let mut args = args.into_iter();
    let name = args.next();
    let Some(exp) = name.as_deref().and_then(find) else {
        if let Some(name) = name {
            eprintln!("unknown experiment {name}");
        }
        eprintln!("usage: icfl-exp <experiment> [flags], where <experiment> is one of:");
        for e in &EXPERIMENTS {
            eprintln!("  {:<14} {}", e.name, e.title);
        }
        return 2;
    };
    let opts = match CliOptions::parse(args, &exp.local) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}; usage: icfl-exp {} {}", exp.name, exp.local.usage());
            return 2;
        }
    };
    // Exported rather than threaded through: every `RunConfig` built
    // anywhere in the experiment then resolves to the same worker count.
    if opts.threads > 0 {
        std::env::set_var("ICFL_THREADS", opts.threads.to_string());
    }
    if let Some(level) = opts.log {
        icfl_obs::logger::set_level(level);
    }
    let tier = opts.tier.unwrap_or(exp.name);
    icfl_obs::info!(
        "running {tier} ({}) in {} mode (seed {})...",
        exp.title,
        opts.mode,
        opts.seed
    );
    let timed = run_timed(|| (exp.run)(&opts));
    match timed.result {
        Ok(outcome) => conclude(tier, &opts, &outcome, timed.wall),
        Err(e) => {
            icfl_obs::error!("{tier} failed: {e}");
            1
        }
    }
}

/// Prints and persists one outcome; returns the exit code.
fn conclude(tier: &str, opts: &CliOptions, outcome: &Outcome, wall: Duration) -> i32 {
    println!("{}", outcome.report);
    if let Some(json) = &outcome.json {
        println!("{json}");
    }
    let results = results_dir();
    for (name, body) in &outcome.files {
        let path = results.join(name);
        match std::fs::create_dir_all(&results).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => icfl_obs::info!("{tier}: wrote {}", path.display()),
            Err(e) => {
                icfl_obs::error!("{tier}: cannot write {}: {e}", path.display());
                return 1;
            }
        }
    }
    for (phase, value) in &outcome.metrics {
        if let Err(e) = record_metric_row(tier, opts, *value, phase) {
            icfl_obs::warn!("{tier}: could not persist {phase}: {e}");
        }
    }
    let stem = outcome.profile_stem.as_deref();
    if let Some(dir) = opts.profile.clone().or_else(|| stem.map(|_| results)) {
        match write_profile_artifacts(&dir, stem.unwrap_or(tier)) {
            Ok(paths) => {
                for p in paths {
                    icfl_obs::info!("{tier}: profile artifact {}", p.display());
                }
            }
            Err(e) => icfl_obs::warn!("{tier}: could not write profile artifacts: {e}"),
        }
    }
    report_timing(tier, opts, wall);
    for failure in &outcome.gate_failures {
        icfl_obs::error!("{tier}: FAIL: {failure}");
    }
    i32::from(!outcome.gate_failures.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_local_flags_are_ones_the_parser_knows() {
        for exp in &EXPERIMENTS {
            for flag in exp.local.flags {
                let mut words = flag.split(' ').map(str::to_owned).collect::<Vec<_>>();
                if words.len() == 2 {
                    words[1] = "3".to_owned();
                }
                let parsed = CliOptions::parse(words, &exp.local);
                assert!(parsed.is_ok(), "{} {flag}: {parsed:?}", exp.name);
            }
            for (flag, name) in exp.local.tiers {
                let opts = CliOptions::parse([flag.to_string()], &exp.local).unwrap();
                assert_eq!(opts.tier, Some(*name));
            }
        }
    }

    /// The gates moved out of the CI YAML bite: a gray floor above the
    /// measured 1.00 and a misspelled counter both fail the run.
    #[test]
    fn a_violated_gate_exits_1() {
        let measured = GrayFail {
            rows: vec![GrayFailRow {
                scenario: "gray-b3".into(),
                rows: 5,
                cases: 5,
                instance_top1: 1.0,
                service_top1: 1.0,
            }],
        };
        assert!(gray_gate(&measured, GRAY_TOP1_FLOOR).is_empty());
        assert_eq!(gray_gate(&measured, 1.01).len(), 1);
        assert_eq!(gray_gate(&GrayFail { rows: vec![] }, 0.0).len(), 1);

        let _guard = crate::timing::ENV_LOCK.lock().unwrap();
        icfl_obs::reset();
        icfl_obs::counter_add("icfl_server_batches_accepted_total", &[("t", "a")], 3);
        let spelled = counter_gate("icfl_server_batches_accepted_total", "unit");
        let misspelled = counter_gate("icfl_server_batches_acepted_total", "unit");
        icfl_obs::reset();
        assert_eq!(spelled, None);
        assert!(misspelled.is_some());

        let dir = std::env::temp_dir().join(format!("icfl-gates-{}", std::process::id()));
        std::env::set_var("ICFL_RESULTS_DIR", &dir);
        let mut outcome = Outcome::default();
        let opts = CliOptions::defaults();
        let passed = conclude("unit-test", &opts, &outcome, Duration::ZERO);
        outcome.gate_failures = gray_gate(&measured, 1.01);
        let gray_failed = conclude("unit-test", &opts, &outcome, Duration::ZERO);
        outcome.gate_failures = misspelled.into_iter().collect();
        let counter_failed = conclude("unit-test", &opts, &outcome, Duration::ZERO);
        std::env::remove_var("ICFL_RESULTS_DIR");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!((passed, gray_failed, counter_failed), (0, 1, 1));
    }
}
