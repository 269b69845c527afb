//! The `robustness` experiment: online localization under degraded
//! telemetry.
//!
//! The paper's platform assumes Prometheus-style scraping, and real scrape
//! streams lose samples, deliver late and out of order, duplicate on
//! retry, and reset counters when pods restart. This experiment turns the
//! seeded [`DegradationConfig`] knobs on over full [`OnlineSession`] runs
//! and measures how detection and localization decay: per application it
//! trains one model on clean telemetry, then replays the *same* seeded
//! incident session under every cell of a drop-rate × counter-reset grid
//! (only the degradation seed stream differs between cells, so deltas are
//! attributable to telemetry loss alone). A final gaps-only arm runs a
//! fault-free session under the heaviest degradation and demands zero
//! false alarms: missing telemetry must read as "no data", never as an
//! incident.

use crate::error::Result;
use crate::mode::Mode;
use crate::production::spaced_outages;
use crate::render::TextTable;
use icfl_core::{parallel_map, CampaignRun, RunConfig};
use icfl_online::{IncidentSchedule, OnlineSession, SessionReport};
use icfl_sim::SimDuration;
use icfl_telemetry::{DegradationConfig, MetricCatalog};
use serde::{Deserialize, Serialize};

/// The swept scrape-drop rates.
pub const DROP_RATES: [f64; 5] = [0.0, 0.01, 0.05, 0.10, 0.20];

/// Per-scrape counter-reset probability of the reset arm (one pod
/// restart every ~500 scrapes somewhere in the cluster).
pub const RESET_PROB: f64 = 0.002;

/// One cell of the degradation grid: a session replayed under one
/// degradation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessCell {
    /// Scrape-drop probability of this cell.
    pub drop_prob: f64,
    /// Whether counter resets (pod restarts) were injected.
    pub resets: bool,
    /// The session as observed through this cell's telemetry.
    pub session: SessionReport,
}

impl RobustnessCell {
    /// True for the clean reference cell (no degradation at all).
    pub fn is_baseline(&self) -> bool {
        self.drop_prob == 0.0 && !self.resets
    }
}

/// One application's slice of the robustness run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessAppReport {
    /// Application name.
    pub app: String,
    /// The degradation grid, drop rate ascending within each reset arm.
    pub cells: Vec<RobustnessCell>,
    /// False alarms of the fault-free gaps-only arm (heaviest drop rate,
    /// resets on, nothing injected). Must be zero: gaps are not anomalies.
    pub gaps_only_false_alarms: usize,
    /// Windows the gaps-only arm flagged invalid — evidence the arm
    /// actually starved the detector rather than trivially passing.
    pub gaps_only_invalid_windows: u64,
}

impl RobustnessAppReport {
    /// The clean reference cell.
    pub fn baseline(&self) -> &RobustnessCell {
        self.cells
            .iter()
            .find(|c| c.is_baseline())
            .expect("grid always contains the clean cell")
    }
}

/// The full robustness report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Timing mode the run used.
    pub mode: Mode,
    /// Root seed.
    pub seed: u64,
    /// Per-application grids.
    pub apps: Vec<RobustnessAppReport>,
}

impl RobustnessReport {
    /// False alarms across every gaps-only arm (the headline robustness
    /// claim is that this is zero).
    pub fn gaps_only_false_alarms(&self) -> usize {
        self.apps.iter().map(|a| a.gaps_only_false_alarms).sum()
    }

    /// Renders the per-cell decay table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "App",
            "Drop",
            "Resets",
            "Detected",
            "FalseAlarms",
            "Top1",
            "MeanTTD(s)",
            "dTTD(s)",
            "MeanTTL(s)",
            "dTTL(s)",
            "InvalidWin",
        ]);
        for app in &self.apps {
            let base = app.baseline();
            let base_ttd = base.session.mean_time_to_detect_secs();
            let base_ttl = base.session.mean_time_to_localize_secs();
            for cell in &app.cells {
                let s = &cell.session;
                let delta = |v: Option<f64>, b: Option<f64>| match (v, b) {
                    (Some(v), Some(b)) => format!("{:+.1}", v - b),
                    _ => "-".into(),
                };
                table.row(vec![
                    app.app.clone(),
                    format!("{:.0}%", cell.drop_prob * 100.0),
                    if cell.resets { "yes" } else { "no" }.into(),
                    format!(
                        "{}/{}",
                        s.incidents.iter().filter(|i| i.detected).count(),
                        s.incidents.len()
                    ),
                    s.false_alarms.to_string(),
                    format!("{:.2}", s.top1_accuracy()),
                    s.mean_time_to_detect_secs()
                        .map_or("-".into(), |t| format!("{t:.1}")),
                    delta(s.mean_time_to_detect_secs(), base_ttd),
                    s.mean_time_to_localize_secs()
                        .map_or("-".into(), |t| format!("{t:.1}")),
                    delta(s.mean_time_to_localize_secs(), base_ttl),
                    s.degraded.invalid_windows.to_string(),
                ]);
            }
        }
        let mut gaps = String::new();
        for app in &self.apps {
            gaps.push_str(&format!(
                "  {}: gaps-only arm — {} false alarms, {} invalid windows\n",
                app.app, app.gaps_only_false_alarms, app.gaps_only_invalid_windows
            ));
        }
        format!(
            "Degradation grid:\n{}\nFault-free arm:\n{gaps}",
            table.render()
        )
    }

    /// The grid as CSV (one row per cell, plus the gaps-only arms).
    pub fn to_csv(&self) -> String {
        let mut csv = String::from(
            "app,drop_prob,resets,episodes,detected,false_alarms,top1_accuracy,\
             mean_ttd_secs,mean_ttl_secs,late_dropped,duplicates_coalesced,\
             resets_detected,invalid_windows\n",
        );
        let opt = |v: Option<f64>| v.map_or(String::new(), |t| format!("{t:.3}"));
        for app in &self.apps {
            for cell in &app.cells {
                let s = &cell.session;
                csv.push_str(&format!(
                    "{},{},{},{},{},{},{:.4},{},{},{},{},{},{}\n",
                    app.app,
                    cell.drop_prob,
                    cell.resets,
                    s.incidents.len(),
                    s.incidents.iter().filter(|i| i.detected).count(),
                    s.false_alarms,
                    s.top1_accuracy(),
                    opt(s.mean_time_to_detect_secs()),
                    opt(s.mean_time_to_localize_secs()),
                    s.degraded.late_dropped,
                    s.degraded.duplicates_coalesced,
                    s.degraded.resets_detected,
                    s.degraded.invalid_windows,
                ));
            }
            csv.push_str(&format!(
                "{},gaps_only,true,0,0,{},,,,,,,{}\n",
                app.app, app.gaps_only_false_alarms, app.gaps_only_invalid_windows
            ));
        }
        csv
    }
}

/// The degradation configuration of one grid cell. Cells with any loss
/// also carry mild delivery jitter and duplicates — real scrape paths
/// that drop samples also reorder and retry them.
fn cell_config(deg_seed: u64, drop_prob: f64, resets: bool) -> DegradationConfig {
    let mut cfg = DegradationConfig::none(deg_seed).with_drop(drop_prob);
    if drop_prob > 0.0 {
        cfg = cfg.with_delay(0.05, 2).with_duplicates(0.03);
    }
    if resets {
        cfg = cfg.with_resets(RESET_PROB);
    }
    cfg
}

/// Runs the robustness experiment.
///
/// # Errors
///
/// Propagates training and session errors.
pub fn robustness(mode: Mode, seed: u64) -> Result<RobustnessReport> {
    let online_cfg = mode.online_cfg();
    let catalog = MetricCatalog::derived_all();
    let mut apps = Vec::new();

    for (app_idx, app) in [icfl_apps::causalbench(), icfl_apps::robot_shop()]
        .into_iter()
        .enumerate()
    {
        // One clean-telemetry model per app; every cell below is served
        // by the same model, as production would be after a scrape-path
        // regression.
        let train_cfg = mode.train_cfg(seed);
        let campaign = CampaignRun::execute(&app, &train_cfg)?;
        let model = campaign.learn(&catalog, RunConfig::default_detector())?;
        // The shared incident schedule every cell replays: three spaced
        // single-service outages.
        let schedule = spaced_outages(&online_cfg, campaign.targets(), 3, 28, 0);

        // All cells replay the same seeded session; only the degradation
        // stream (its own salted seed) differs from cell to cell.
        let session_seed = icfl_scenario::seeds::production_session(seed, app_idx, 9);
        let deg_seed = icfl_scenario::seeds::degradation(session_seed);
        let grid: Vec<(f64, bool)> = [false, true]
            .into_iter()
            .flat_map(|resets| DROP_RATES.into_iter().map(move |d| (d, resets)))
            .collect();

        let threads = train_cfg.resolved_threads(grid.len());
        let outcomes = parallel_map(grid.len(), threads, |i| {
            let (drop_prob, resets) = grid[i];
            let deg = cell_config(deg_seed, drop_prob, resets);
            let mut cfg = online_cfg.clone();
            cfg.degrade = if deg.is_none() { None } else { Some(deg) };
            OnlineSession::run(&app, &model, &schedule, &cfg, session_seed)
        });
        let mut cells = Vec::with_capacity(outcomes.len());
        for (&(drop_prob, resets), outcome) in grid.iter().zip(outcomes) {
            cells.push(RobustnessCell {
                drop_prob,
                resets,
                session: outcome?,
            });
        }

        // Gaps-only arm: heaviest degradation, zero faults. Stretch the
        // drain so the fault-free session still covers a long stretch of
        // detection ticks under dark telemetry.
        let mut gaps_cfg = online_cfg.clone();
        gaps_cfg.degrade = Some(cell_config(deg_seed, *DROP_RATES.last().unwrap(), true));
        gaps_cfg.drain = SimDuration::from_nanos(online_cfg.windows.hop.as_nanos() * 80);
        let gaps = OnlineSession::run(
            &app,
            &model,
            &IncidentSchedule::new(Vec::new()),
            &gaps_cfg,
            session_seed,
        )?;

        apps.push(RobustnessAppReport {
            app: app.name.clone(),
            cells,
            gaps_only_false_alarms: gaps.false_alarms,
            gaps_only_invalid_windows: gaps.degraded.invalid_windows,
        });
    }

    Ok(RobustnessReport { mode, seed, apps })
}
