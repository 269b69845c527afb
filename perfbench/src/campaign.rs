//! The batch path: `App` → `CampaignRun::execute` → `learn` (→
//! `EvalSuite::execute` → `evaluate`), single-threaded so its wall time is
//! the simulator's, not the scheduler's.

use icfl_apps::App;
use icfl_core::{CampaignRun, CausalModel, CoreError, EvalSuite, RunConfig};
use icfl_micro::ServiceId;
use icfl_telemetry::MetricCatalog;
use std::time::{Duration, Instant};

/// The configuration of one pass over one app.
#[derive(Debug, Clone)]
pub struct Plan {
    pub app: App,
    /// Load scales the learned model is evaluated at: none when the pass
    /// only trains (what a deployment does before it can serve), `[1, 4]`
    /// for a Table-I row pair.
    pub eval_loads: &'static [usize],
    /// Cap on intervention targets (fleet topologies).
    pub max_targets: Option<usize>,
}

/// What one pass over one app produced.
pub struct AppResult {
    pub model: CausalModel,
    pub targets: Vec<ServiceId>,
    /// `(accuracy, informativeness)` per evaluated load scale.
    pub scores: Vec<(f64, f64)>,
    /// Wall time of each of the four calls, for the per-layer report.
    pub execute: Duration,
    pub learn: Duration,
    pub eval_execute: Duration,
    pub evaluate: Duration,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs one pass of `plan` at `seed`.
pub fn run(plan: &Plan, seed: u64) -> Result<AppResult, CoreError> {
    let with_cap = |cfg: RunConfig| match plan.max_targets {
        Some(m) => cfg.with_max_targets(m),
        None => cfg,
    };
    let train_cfg = with_cap(RunConfig::quick(seed).with_threads(1));
    let (campaign, execute) = timed(|| CampaignRun::execute(&plan.app, &train_cfg));
    let campaign = campaign?;
    let (model, learn) =
        timed(|| campaign.learn(&MetricCatalog::derived_all(), RunConfig::default_detector()));
    let model = model?;
    let mut scores = Vec::new();
    let mut eval_execute = Duration::ZERO;
    let mut evaluate = Duration::ZERO;
    // The same seed derivation as `icfl_experiments::Mode::eval_cfg`.
    let eval_cfg =
        with_cap(RunConfig::quick(icfl_scenario::seeds::eval_phase(seed)).with_threads(1));
    for &load in plan.eval_loads {
        let (suite, t) = timed(|| {
            EvalSuite::execute(
                &plan.app,
                campaign.targets(),
                &eval_cfg.clone().with_replicas(load),
            )
        });
        eval_execute += t;
        let suite = suite?;
        let (summary, t) = timed(|| suite.evaluate(&model));
        evaluate += t;
        let summary = summary?;
        scores.push((summary.accuracy, summary.informativeness));
    }
    Ok(AppResult {
        model,
        targets: campaign.targets().to_vec(),
        scores,
        execute,
        learn,
        eval_execute,
        evaluate,
    })
}
