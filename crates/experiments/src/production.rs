//! The `production` experiment: long multi-incident online runs.
//!
//! Where `table1`/`table2` replay whole offline campaigns, this experiment
//! exercises the paper's *platform* (Fig. 3) end to end: per application it
//! (1) trains a causal model with an Algorithm-1 campaign, (2) persists it
//! through the [`ModelRegistry`] and reloads it — every localization below
//! is served by the *reloaded* model, as production would; (3) measures the
//! offline Table-I-style accuracy at 1× as the reference bar; and (4) runs
//! several long [`OnlineSession`]s in parallel, each a continuously loaded
//! cluster with scheduled `service-unavailable` outages — evenly spaced,
//! back-to-back, and overlapping — watched by the streaming ingester,
//! incident detector, and online localizer. The report carries
//! per-incident time-to-detect, time-to-localize, and ranked candidates.
//!
//! Sessions are independent seeded simulations, so they fan out over
//! [`parallel_map`] exactly like campaign phases; thread count never
//! changes the report (asserted by the `production_determinism` test).

use crate::error::Result;
use crate::mode::Mode;
use crate::render::TextTable;
use icfl_core::{parallel_map, CampaignRun, EvalSuite, RunConfig};
use icfl_micro::{FaultKind, ServiceId};
use icfl_online::{
    Episode, EpisodeFault, IncidentSchedule, ModelMeta, ModelRegistry, OnlineConfig, OnlineSession,
    SessionReport,
};
use icfl_sim::{SimDuration, SimTime};
use icfl_stats::{ShiftDetector, TestKind};
use icfl_telemetry::MetricCatalog;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Tuning of one production run.
#[derive(Debug, Clone)]
pub struct ProductionOptions {
    /// Timing mode (window geometry and phase lengths).
    pub mode: Mode,
    /// Root seed for training and all sessions.
    pub seed: u64,
    /// Worker threads for session fan-out (`0` = auto).
    pub threads: usize,
    /// Where models are persisted and reloaded from.
    pub registry_root: PathBuf,
    /// Use Anderson–Darling instead of KS for live incident detection.
    pub anderson_darling: bool,
}

impl ProductionOptions {
    /// Defaults: quick mode, seed 42, auto threads, KS detection, models
    /// under `results/models` (honoring `ICFL_RESULTS_DIR`).
    pub fn new(mode: Mode, seed: u64) -> Self {
        ProductionOptions {
            mode,
            seed,
            threads: 0,
            registry_root: crate::timing::results_dir().join("models"),
            anderson_darling: false,
        }
    }

    /// Sets the registry root, returning `self`.
    pub fn with_registry_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.registry_root = root.into();
        self
    }

    /// The session tuning for this run's mode and detector choice.
    fn online_cfg(&self) -> OnlineConfig {
        let cfg = self.mode.online_cfg();
        if self.anderson_darling {
            let detector = ShiftDetector {
                kind: TestKind::AndersonDarling,
                ..cfg.detector
            };
            cfg.with_detector(detector)
        } else {
            cfg
        }
    }
}

/// One application's slice of the production run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProductionAppReport {
    /// Application name.
    pub app: String,
    /// Registry version the sessions' model was reloaded from.
    pub model_version: u32,
    /// Offline Table-I-style accuracy at 1× of the reloaded model — the
    /// reference bar the online loop is held to.
    pub offline_accuracy: f64,
    /// The online sessions, in schedule order.
    pub sessions: Vec<SessionReport>,
}

impl ProductionAppReport {
    /// Incident episodes across all sessions.
    pub fn episodes(&self) -> usize {
        self.sessions.iter().map(|s| s.incidents.len()).sum()
    }

    /// Faults injected across all sessions.
    pub fn injected_faults(&self) -> usize {
        self.sessions.iter().map(|s| s.injected_faults).sum()
    }

    /// Detected episodes across all sessions.
    pub fn detected(&self) -> usize {
        self.sessions
            .iter()
            .flat_map(|s| &s.incidents)
            .filter(|i| i.detected)
            .count()
    }

    /// Correct top-1 verdicts across all sessions.
    pub fn top1_correct(&self) -> usize {
        self.sessions
            .iter()
            .flat_map(|s| &s.incidents)
            .filter(|i| i.top1_correct)
            .count()
    }

    /// Correct top-1 verdicts / episodes (misses count against accuracy).
    pub fn online_top1_accuracy(&self) -> f64 {
        let n = self.episodes();
        if n == 0 {
            return 0.0;
        }
        self.top1_correct() as f64 / n as f64
    }

    /// False alarms across all sessions.
    pub fn false_alarms(&self) -> usize {
        self.sessions.iter().map(|s| s.false_alarms).sum()
    }

    /// Mean time-to-detect over detected episodes.
    pub fn mean_time_to_detect_secs(&self) -> Option<f64> {
        mean(
            self.sessions
                .iter()
                .flat_map(|s| &s.incidents)
                .filter_map(|i| i.time_to_detect_secs),
        )
    }

    /// Mean time-to-localize over localized episodes.
    pub fn mean_time_to_localize_secs(&self) -> Option<f64> {
        mean(
            self.sessions
                .iter()
                .flat_map(|s| &s.incidents)
                .filter_map(|i| i.time_to_localize_secs),
        )
    }
}

fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// The full production run report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProductionReport {
    /// Timing mode the run used.
    pub mode: Mode,
    /// Root seed.
    pub seed: u64,
    /// Two-sample test driving live detection.
    pub detector: String,
    /// Per-application results.
    pub apps: Vec<ProductionAppReport>,
}

impl ProductionReport {
    /// Incident episodes across all applications.
    pub fn total_episodes(&self) -> usize {
        self.apps.iter().map(ProductionAppReport::episodes).sum()
    }

    /// Faults injected across all applications.
    pub fn total_injected_faults(&self) -> usize {
        self.apps
            .iter()
            .map(ProductionAppReport::injected_faults)
            .sum()
    }

    /// Aggregate online top-1 accuracy over every episode.
    pub fn online_top1_accuracy(&self) -> f64 {
        let n = self.total_episodes();
        if n == 0 {
            return 0.0;
        }
        let correct: usize = self
            .apps
            .iter()
            .map(ProductionAppReport::top1_correct)
            .sum();
        correct as f64 / n as f64
    }

    /// Renders the per-incident log and the per-app summary.
    pub fn render(&self) -> String {
        let mut incidents = TextTable::new(vec![
            "App", "Session", "Episode", "Services", "Injected", "TTD(s)", "TTL(s)", "Top-1",
            "Correct",
        ]);
        for app in &self.apps {
            for (si, session) in app.sessions.iter().enumerate() {
                for inc in &session.incidents {
                    incidents.row(vec![
                        app.app.clone(),
                        si.to_string(),
                        inc.episode.to_string(),
                        inc.services.join("+"),
                        format!("{:.0}s", inc.injected_start_secs),
                        inc.time_to_detect_secs
                            .map_or("miss".into(), |t| format!("{t:.1}")),
                        inc.time_to_localize_secs
                            .map_or("-".into(), |t| format!("{t:.1}")),
                        inc.top1.clone().unwrap_or_else(|| "-".into()),
                        if inc.top1_correct { "yes" } else { "no" }.into(),
                    ]);
                }
            }
        }

        let mut summary = TextTable::new(vec![
            "App",
            "Episodes",
            "Detected",
            "FalseAlarms",
            "MeanTTD(s)",
            "MeanTTL(s)",
            "OnlineTop1",
            "OfflineAcc",
        ]);
        for app in &self.apps {
            summary.row(vec![
                app.app.clone(),
                app.episodes().to_string(),
                app.detected().to_string(),
                app.false_alarms().to_string(),
                app.mean_time_to_detect_secs()
                    .map_or("-".into(), |t| format!("{t:.1}")),
                app.mean_time_to_localize_secs()
                    .map_or("-".into(), |t| format!("{t:.1}")),
                format!("{:.2}", app.online_top1_accuracy()),
                format!("{:.2}", app.offline_accuracy),
            ]);
        }
        format!(
            "Per-incident log ({} detection):\n{}\nSummary:\n{}",
            self.detector,
            incidents.render(),
            summary.render()
        )
    }
}

/// When the first outage of every schedule starts: sixteen hops after the
/// first full window, on a window boundary.
fn first_onset(cfg: &OnlineConfig) -> SimTime {
    SimTime::ZERO + cfg.warmup + cfg.windows.window + hops(cfg, 16)
}

fn hops(cfg: &OnlineConfig, n: u64) -> SimDuration {
    SimDuration::from_nanos(cfg.windows.hop.as_nanos() * n)
}

/// `count` single-service ten-hop outages `spacing` hops apart, hitting
/// `targets[first_target..]` round-robin. All spans are multiples of the
/// hop so every onset sits on a window boundary; constants scale with
/// the mode's window geometry. Shared by every online experiment.
pub(crate) fn spaced_outages(
    cfg: &OnlineConfig,
    targets: &[ServiceId],
    count: usize,
    spacing: u64,
    first_target: usize,
) -> IncidentSchedule {
    let single = |k: usize| {
        Episode::single(
            first_onset(cfg) + hops(cfg, spacing * k as u64),
            targets[(first_target + k) % targets.len()],
            FaultKind::ServiceUnavailable,
            hops(cfg, 10),
        )
    };
    IncidentSchedule::new((0..count).map(single).collect())
}

/// Builds the three session schedules for an application: evenly spaced
/// single outages, back-to-back single outages, and a mix ending in an
/// overlapping double outage.
fn session_schedules(targets: &[ServiceId], cfg: &OnlineConfig) -> Vec<IncidentSchedule> {
    // Session 0: four outages with generous spacing.
    let spaced = spaced_outages(cfg, targets, 4, 32, 0);

    // Session 1: four back-to-back outages — the next begins six hops
    // after the previous lifts, while the detector is still draining.
    let tight = spaced_outages(cfg, targets, 4, 16, 4);

    // Session 2: two singles, then two faults overlapping in time —
    // one incident episode with two root causes.
    let overlapping = |target: usize, offset: u64| EpisodeFault {
        service: targets[target % targets.len()],
        fault: FaultKind::ServiceUnavailable,
        offset: hops(cfg, offset),
        duration: hops(cfg, 10),
    };
    let mut mixed = spaced_outages(cfg, targets, 2, 32, 8).episodes().to_vec();
    mixed.push(Episode {
        start: first_onset(cfg) + hops(cfg, 64),
        faults: vec![overlapping(10, 0), overlapping(13, 3)],
    });

    vec![spaced, tight, IncidentSchedule::new(mixed)]
}

/// Learns `campaign`'s derived-metric model with the default detector and
/// saves it, with its provenance, under the app's name; returns the
/// registry version. Shared with the server campaigns.
pub(crate) fn learn_and_publish(
    registry: &ModelRegistry,
    app: &icfl_apps::App,
    campaign: &CampaignRun,
    seed: u64,
    note: &str,
) -> Result<u32> {
    let catalog = MetricCatalog::derived_all();
    let detector = RunConfig::default_detector();
    let model = campaign.learn(&catalog, detector)?;
    let meta = ModelMeta {
        app: app.name.clone(),
        seed,
        catalog: catalog.name().to_owned(),
        detector: detector.kind.to_string(),
        num_services: model.num_services(),
        targets: campaign
            .targets()
            .iter()
            .map(|&t| campaign.service_names()[t.index()].clone())
            .collect(),
        note: note.to_owned(),
    };
    Ok(registry.save(&app.name, meta, &model)?)
}

/// Runs the production experiment.
///
/// # Errors
///
/// Propagates training, registry, and session errors.
pub fn production(opts: &ProductionOptions) -> Result<ProductionReport> {
    let registry = ModelRegistry::open(&opts.registry_root)?;
    let online_cfg = opts.online_cfg();
    let mut apps = Vec::new();

    for (app_idx, app) in [icfl_apps::causalbench(), icfl_apps::robot_shop()]
        .into_iter()
        .enumerate()
    {
        // Train offline (Algorithm 1) and persist through the registry;
        // everything below runs on the *reloaded* model.
        let train_cfg = opts.mode.train_cfg(opts.seed).with_threads(opts.threads);
        let campaign = CampaignRun::execute(&app, &train_cfg)?;
        let model_version = learn_and_publish(
            &registry,
            &app,
            &campaign,
            opts.seed,
            "production experiment",
        )?;
        let record = registry.load_latest(&app.name)?;
        let model = record.model;

        // Offline reference: Table-I-style accuracy at 1× load.
        let eval_cfg = opts.mode.eval_cfg(opts.seed).with_threads(opts.threads);
        let suite = EvalSuite::execute(&app, campaign.targets(), &eval_cfg)?;
        let offline_accuracy = suite.evaluate(&model)?.accuracy;

        // Online sessions: independent seeded simulations, fanned out.
        let schedules = session_schedules(campaign.targets(), &online_cfg);
        let threads = train_cfg.resolved_threads(schedules.len());
        let outcomes = parallel_map(schedules.len(), threads, |i| {
            OnlineSession::run(
                &app,
                &model,
                &schedules[i],
                &online_cfg,
                icfl_scenario::seeds::production_session(opts.seed, app_idx, i),
            )
        });
        let mut sessions = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            sessions.push(outcome?);
        }

        apps.push(ProductionAppReport {
            app: app.name.clone(),
            model_version,
            offline_accuracy,
            sessions,
        });
    }

    Ok(ProductionReport {
        mode: opts.mode,
        seed: opts.seed,
        detector: if opts.anderson_darling {
            TestKind::AndersonDarling.to_string()
        } else {
            TestKind::KolmogorovSmirnov.to_string()
        },
        apps,
    })
}
