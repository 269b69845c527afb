//! The forensics gate: every confirmed incident must carry a complete,
//! byte-deterministic [`EvidenceChain`].
//!
//! Per application it trains a quick Algorithm-1 model, runs scheduled
//! outage sessions through [`OnlineSession::run_with_forensics`], and
//! holds the chains to the invariants the `/explain` surface relies on:
//!
//! 1. **Coverage** — every confirmed incident (detections and false
//!    alarms alike) has a chain; chains carry the current format
//!    version, a non-empty window ring, and the detector transitions
//!    that confirmed the incident.
//! 2. **Score accounting** — for every localized incident, each
//!    candidate's per-metric contribution deltas sum to the reported
//!    Algorithm-2 score *bit for bit* (`f64::to_bits` equality, not an
//!    epsilon), and the breakdown targets match the ranked candidates.
//! 3. **Thread invariance** — serialized chains are byte-identical when
//!    the session fan-out runs on 1, 2, and max worker threads.
//! 4. **Replay equivalence** — replaying the recorded scrape trace
//!    through a [`FeedSession`] (as the networked server would) yields
//!    byte-identical chains, including across a mid-stream
//!    checkpoint/restore of the feed — the in-process analog of the
//!    server's SIGKILL + WAL recovery path.
//!
//! Any violated invariant is an error, so the smoke tier doubles as the
//! CI forensics gate.

use crate::error::{ExperimentError, Result};
use crate::mode::Mode;
use crate::production::spaced_outages;
use crate::render::TextTable;
use icfl_core::{parallel_map, CampaignRun, CausalModel, RunConfig};
use icfl_online::{
    record_trace, EvidenceChain, FeedConfig, FeedSession, IncidentSchedule, ModelMeta,
    ModelProvenance, OnlineConfig, OnlineSession, CHAIN_FORMAT_VERSION,
};
use icfl_sim::SimTime;
use icfl_telemetry::MetricCatalog;
use serde::{Deserialize, Serialize};

/// One application's slice of the forensics gate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForensicsRow {
    /// Application name.
    pub app: String,
    /// Scheduled incident episodes across the app's sessions.
    pub episodes: usize,
    /// Confirmed incidents — each one carries a chain.
    pub chains: usize,
    /// Chains with a localization verdict (candidates + breakdowns).
    pub localized: usize,
    /// Candidate score breakdowns whose delta sums were checked
    /// bit-for-bit against the reported Algorithm-2 scores.
    pub breakdowns_checked: usize,
    /// Serialized size of the app's chains, in bytes (the payload the
    /// `/explain` route would serve).
    pub chain_bytes: usize,
    /// Chains were byte-identical across 1/2/max worker threads.
    pub thread_byte_equal: bool,
    /// Trace replay through a `FeedSession` — plus a mid-stream
    /// checkpoint/restore — reproduced the chains byte-identically.
    pub replay_byte_equal: bool,
}

/// The full forensics gate report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForensicsReport {
    /// Timing mode the run used.
    pub mode: Mode,
    /// Root seed.
    pub seed: u64,
    /// Per-application results.
    pub rows: Vec<ForensicsRow>,
}

impl ForensicsReport {
    /// Confirmed incidents (= chains) across all applications.
    pub fn total_chains(&self) -> usize {
        self.rows.iter().map(|r| r.chains).sum()
    }

    /// Renders the per-app summary table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "App",
            "Episodes",
            "Chains",
            "Localized",
            "Breakdowns",
            "Bytes",
            "ThreadEq",
            "ReplayEq",
        ]);
        for row in &self.rows {
            table.row(vec![
                row.app.clone(),
                row.episodes.to_string(),
                row.chains.to_string(),
                row.localized.to_string(),
                row.breakdowns_checked.to_string(),
                row.chain_bytes.to_string(),
                if row.thread_byte_equal { "yes" } else { "NO" }.into(),
                if row.replay_byte_equal { "yes" } else { "NO" }.into(),
            ]);
        }
        table.render()
    }
}

/// Runs every schedule through [`OnlineSession::run_with_forensics`] on
/// `threads` workers and returns the per-session chains.
fn fan_out(
    app: &icfl_apps::App,
    model: &CausalModel,
    schedules: &[IncidentSchedule],
    cfg: &OnlineConfig,
    seed: u64,
    threads: usize,
) -> Result<Vec<Vec<EvidenceChain>>> {
    let outcomes = parallel_map(schedules.len(), threads, |i| {
        OnlineSession::run_with_forensics(
            app,
            model,
            &schedules[i],
            cfg,
            seed.wrapping_add(i as u64),
        )
    });
    let mut chains = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        chains.push(outcome?.1);
    }
    Ok(chains)
}

fn to_bytes(chains: &[Vec<EvidenceChain>]) -> String {
    serde_json::to_string(chains).expect("chains serialize")
}

/// Checks the structural and score-accounting invariants of one chain.
/// Returns the number of candidate breakdowns verified bit-for-bit.
fn check_chain(app: &str, chain: &EvidenceChain) -> Result<usize> {
    let fail = |msg: String| Err(ExperimentError::Invariant(format!("{app}: {msg}")));
    if chain.format_version != CHAIN_FORMAT_VERSION {
        return fail(format!(
            "incident {} has format version {} (expected {CHAIN_FORMAT_VERSION})",
            chain.incident, chain.format_version
        ));
    }
    if chain.windows.is_empty() {
        return fail(format!(
            "incident {} has no window evidence",
            chain.incident
        ));
    }
    if chain.transitions.is_empty() {
        return fail(format!(
            "incident {} has no detector transitions",
            chain.incident
        ));
    }
    if chain.model.key.is_empty() {
        return fail(format!(
            "incident {} has no model provenance",
            chain.incident
        ));
    }
    if chain.localized_at_nanos.is_none() {
        // Confirmed but never localized: candidates/breakdowns stay empty.
        return Ok(0);
    }
    if chain.candidates.is_empty() || chain.breakdowns.is_empty() {
        return fail(format!(
            "localized incident {} has an empty verdict breakdown",
            chain.incident
        ));
    }
    for b in &chain.breakdowns {
        if !chain.candidates.contains(&b.target) {
            return fail(format!(
                "incident {}: breakdown target {} is not a ranked candidate",
                chain.incident, b.target
            ));
        }
        let sum: f64 = b.contributions.iter().map(|c| c.delta).sum();
        if sum.to_bits() != b.score.to_bits() {
            return fail(format!(
                "incident {}: {} contribution deltas sum to {sum} but the \
                 Algorithm-2 score is {} (bitwise mismatch)",
                chain.incident, b.target, b.score
            ));
        }
    }
    Ok(chain.breakdowns.len())
}

/// Replays each schedule's recorded trace through a [`FeedSession`] —
/// with a mid-stream checkpoint/restore, the in-process analog of the
/// server's crash-recovery path — and returns the replayed chains.
fn replay_chains(
    app: &icfl_apps::App,
    model: &CausalModel,
    schedules: &[IncidentSchedule],
    cfg: &OnlineConfig,
    seed: u64,
) -> Result<Vec<Vec<EvidenceChain>>> {
    // `OnlineSession` stamps this provenance when no registry is in the
    // loop; the replay must match it for chains to byte-compare.
    let provenance = ModelProvenance {
        key: app.name.clone(),
        version: 0,
        meta: ModelMeta::default(),
    };
    let mut all = Vec::with_capacity(schedules.len());
    for (i, schedule) in schedules.iter().enumerate() {
        let session_seed = seed.wrapping_add(i as u64);
        let trace = record_trace(app, schedule, cfg, session_seed)?;
        let mut feed = FeedSession::new(
            model.clone(),
            trace.meta.service_names.clone(),
            FeedConfig::from_online(cfg),
        )?
        .with_provenance(provenance.clone());
        let half = trace.scrapes.len() / 2;
        for (at, row) in &trace.scrapes[..half] {
            feed.push(SimTime::from_nanos(*at), row.clone())?;
        }
        // Crash mid-stream: serialize the checkpoint, drop the session,
        // restore into a fresh one, and keep feeding.
        let ckpt = feed.checkpoint();
        drop(feed);
        let mut feed = FeedSession::new(
            model.clone(),
            trace.meta.service_names.clone(),
            FeedConfig::from_online(cfg),
        )?
        .with_provenance(provenance.clone());
        feed.restore(ckpt);
        for (at, row) in &trace.scrapes[half..] {
            feed.push(SimTime::from_nanos(*at), row.clone())?;
        }
        all.push(feed.chains().into_iter().cloned().collect());
    }
    Ok(all)
}

/// Runs the forensics gate.
///
/// # Errors
///
/// Propagates training and session errors, and reports any violated
/// chain invariant as [`ExperimentError::Invariant`].
pub fn forensics(mode: Mode, seed: u64) -> Result<ForensicsReport> {
    let catalog = MetricCatalog::derived_all();
    let cfg = mode.online_cfg();
    let apps = match mode {
        Mode::Quick => vec![icfl_apps::pattern1()],
        Mode::Paper => vec![icfl_apps::pattern1(), icfl_apps::causalbench()],
    };

    let mut rows = Vec::new();
    for app in &apps {
        let train_cfg = mode.train_cfg(seed);
        let campaign = CampaignRun::execute(app, &train_cfg)?;
        let model = campaign.learn(&catalog, RunConfig::default_detector())?;
        // One evenly spaced and one back-to-back schedule per app: enough
        // to confirm several incidents per session while staying inside
        // the smoke tier's wall-clock budget.
        let targets = campaign.targets();
        let schedules = [
            spaced_outages(&cfg, targets, 2, 32, 0),
            spaced_outages(&cfg, targets, 2, 16, 2),
        ];
        let episodes: usize = schedules.iter().map(|s| s.episodes().len()).sum();

        // Invariants 1 + 2 on the max-thread run, then byte-compare the
        // 1- and 2-thread runs against it (invariant 3).
        let reference = fan_out(app, &model, &schedules, &cfg, seed, schedules.len())?;
        let mut breakdowns_checked = 0;
        for chain in reference.iter().flatten() {
            breakdowns_checked += check_chain(&app.name, chain)?;
        }
        let chains: usize = reference.iter().map(Vec::len).sum();
        if chains == 0 {
            return Err(ExperimentError::Invariant(format!(
                "{}: no incident was confirmed — the gate checked nothing",
                app.name
            )));
        }
        let localized = reference
            .iter()
            .flatten()
            .filter(|c| c.localized_at_nanos.is_some())
            .count();
        if localized == 0 {
            return Err(ExperimentError::Invariant(format!(
                "{}: no incident was localized — score accounting went unchecked",
                app.name
            )));
        }
        let reference_bytes = to_bytes(&reference);
        let thread_byte_equal = [1usize, 2].iter().all(|&threads| {
            fan_out(app, &model, &schedules, &cfg, seed, threads)
                .map(|runs| to_bytes(&runs) == reference_bytes)
                .unwrap_or(false)
        });
        if !thread_byte_equal {
            return Err(ExperimentError::Invariant(format!(
                "{}: chains differ across worker-thread counts",
                app.name
            )));
        }

        // Invariant 4: trace replay (with a mid-stream crash) matches.
        let replayed = replay_chains(app, &model, &schedules, &cfg, seed)?;
        let replay_byte_equal = to_bytes(&replayed) == reference_bytes;
        if !replay_byte_equal {
            return Err(ExperimentError::Invariant(format!(
                "{}: feed-replay chains diverge from the live session's",
                app.name
            )));
        }

        rows.push(ForensicsRow {
            app: app.name.clone(),
            episodes,
            chains,
            localized,
            breakdowns_checked,
            chain_bytes: reference_bytes.len(),
            thread_byte_equal,
            replay_byte_equal,
        });
    }

    Ok(ForensicsReport { mode, seed, rows })
}
