//! Server load sweep: throughput and detection latency of the networked
//! ingest path (`icfl-server` + `icfl-loadgen-http` core) at increasing
//! concurrency.
//!
//! The sweep trains one model per app (fig2 + causalbench), persists
//! them through the model registry, records one scrape trace per app
//! from a scheduled-outage session, then starts an in-process server on
//! a loopback port and replays the traces through the load-generator
//! core at 1×/4×/16× scale (2 tenant streams per scale unit, half fig2,
//! half causalbench). Every batch is either accepted or visibly
//! rejected-and-retried, so `scrapes accepted == scrapes sent` is an
//! invariant, not a hope — the sweep fails if a scrape went missing or a
//! scheduled incident went undetected.

use crate::error::{ExperimentError, Result};
use crate::mode::Mode;
use crate::production::{learn_and_publish, spaced_outages};
use crate::render::TextTable;
use icfl_apps::App;
use icfl_core::CampaignRun;
use icfl_online::{record_trace, FeedConfig, ModelRegistry, OnlineConfig};
use icfl_scenario::ScrapeTrace;
use icfl_server::loadgen::{run as run_loadgen, LoadMode, LoadgenConfig, LoadgenSummary};
use icfl_server::{IcflServer, ServerConfig, ServerHandle};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The default sweep's concurrency scales.
pub const SERVERBENCH_SCALES: [usize; 3] = [1, 4, 16];

/// Tenant streams per scale unit (one fig2 + one causalbench).
pub const STREAMS_PER_SCALE: usize = 2;

/// Options for the server load sweep.
#[derive(Debug, Clone)]
pub struct ServerbenchOptions {
    /// Timing mode (training protocol + window geometry).
    pub mode: Mode,
    /// Root seed for training, traces, and batch sizing.
    pub seed: u64,
    /// Concurrency scales to sweep (streams = scale ×
    /// [`STREAMS_PER_SCALE`]).
    pub scales: Vec<usize>,
    /// Where trained models are persisted and served from.
    pub registry_root: PathBuf,
    /// Also save the recorded traces as JSONL under this directory (the
    /// two-terminal quick-start's input).
    pub emit_trace: Option<PathBuf>,
    /// Per-tenant queue bound, in batches.
    pub queue_cap: usize,
    /// Scrapes per ingest batch.
    pub bulk_size: usize,
}

impl ServerbenchOptions {
    /// Defaults: the full 1×/4×/16× sweep, models under `results/models`
    /// (honoring `ICFL_RESULTS_DIR`).
    pub fn new(mode: Mode, seed: u64) -> Self {
        ServerbenchOptions {
            mode,
            seed,
            scales: SERVERBENCH_SCALES.to_vec(),
            registry_root: crate::timing::results_dir().join("models"),
            emit_trace: None,
            queue_cap: 64,
            bulk_size: 64,
        }
    }

    /// The CI gate: the 1× point only.
    pub fn smoke(seed: u64) -> Self {
        let mut opts = Self::new(Mode::Quick, seed);
        opts.scales = vec![1];
        opts
    }
}

/// One swept scale point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerbenchRow {
    /// Scale factor (streams = scale × [`STREAMS_PER_SCALE`]).
    pub scale: usize,
    /// Concurrent tenant streams at this point.
    pub streams: usize,
    /// Scrapes sent (== accepted; lost scrapes fail the sweep).
    pub scrapes: u64,
    /// Accepted ingest batches.
    pub batches: u64,
    /// 429 rejections that were retried to acceptance.
    pub retried: u64,
    /// Sustained ingest throughput over the send phase.
    pub scrapes_per_sec: f64,
    /// Median detection latency (scheduled fault start → confirmation,
    /// stream time), milliseconds.
    pub detect_p50_ms: f64,
    /// Tail detection latency, milliseconds.
    pub detect_p99_ms: f64,
    /// Scheduled fault episodes fully replayed at this point.
    pub incidents_expected: u64,
    /// Incidents confirmed by the served sessions.
    pub incidents_detected: u64,
}

/// The sweep's full result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Serverbench {
    /// Apps served (registry model names).
    pub apps: Vec<String>,
    /// One row per swept scale, ascending.
    pub rows: Vec<ServerbenchRow>,
}

impl Serverbench {
    /// Renders the sweep as an aligned text table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "Scale",
            "Streams",
            "Scrapes",
            "Scrapes/s",
            "Retried",
            "Detected",
            "Detect p50 (ms)",
            "Detect p99 (ms)",
        ]);
        for r in &self.rows {
            t.row(vec![
                format!("{}x", r.scale),
                r.streams.to_string(),
                r.scrapes.to_string(),
                format!("{:.0}", r.scrapes_per_sec),
                r.retried.to_string(),
                format!("{}/{}", r.incidents_detected, r.incidents_expected),
                format!("{:.0}", r.detect_p50_ms),
                format!("{:.0}", r.detect_p99_ms),
            ]);
        }
        t.render()
    }

    /// Renders the `results/server_load.md` report body.
    pub fn to_markdown(&self, mode: Mode, seed: u64) -> String {
        let mut out = String::new();
        out.push_str("# Ingest server under load\n\n");
        out.push_str(&format!(
            "Loopback sweep of `icfl-server` + the `icfl-loadgen-http` core \
             (`{mode}` mode, seed {seed}): per scale unit, {STREAMS_PER_SCALE} tenant \
             streams (one per app: {}) replay recorded scheduled-outage traces in bulk \
             batches over keep-alive HTTP/1.1 connections. Backpressure is explicit — \
             a full tenant queue answers 429 + retry-after and the generator re-sends, \
             so every scrape is eventually accepted (`scrapes accepted == sent` is \
             asserted, 0 silent drops). Detection latency is stream-time from the \
             scheduled fault start to the served confirmation, identical by \
             construction to an in-process replay (see \
             `crates/server/tests/loopback.rs`).\n\n",
            self.apps.join(", "),
        ));
        out.push_str("```text\n");
        out.push_str(&self.render());
        out.push_str("```\n\n");
        out.push_str(
            "Regenerate with `cargo run --release -p icfl-experiments --bin icfl-exp -- serverbench`; \
             the same numbers land in `results/timings.csv` as \
             `scrapes_per_sec@{scale}x` / `detect_p99_ms@{scale}x` phase rows.\n",
        );
        out
    }
}

/// Trains `app`, persists the model, and records its replay trace.
/// Shared with the chaos campaign (`chaosbench`), which replays the same
/// traces against a durable server it kills mid-flight.
pub(crate) fn prepare_app(
    app: &App,
    registry: &ModelRegistry,
    online_cfg: &OnlineConfig,
    opts: &ServerbenchOptions,
) -> Result<ScrapeTrace> {
    let campaign = CampaignRun::execute(app, &opts.mode.train_cfg(opts.seed))?;
    learn_and_publish(registry, app, &campaign, opts.seed, "serverbench sweep")?;
    // Two spaced outages per app.
    let schedule = spaced_outages(online_cfg, campaign.targets(), 2, 32, 0);
    let trace = record_trace(app, &schedule, online_cfg, opts.seed)?;
    if let Some(dir) = &opts.emit_trace {
        let path = dir.join(format!("{}.jsonl", app.name));
        trace
            .save(&path)
            .map_err(|e| std::io::Error::other(format!("emit {}: {e}", path.display())))?;
        icfl_obs::info!("serverbench: trace saved to {}", path.display());
    }
    Ok(trace)
}

/// The loopback server both server campaigns start: ephemeral port, the
/// campaign's queue bound, a short 429 retry hint.
pub(crate) fn server_cfg(registry_root: &Path, feed: FeedConfig, queue_cap: usize) -> ServerConfig {
    ServerConfig {
        feed,
        queue_cap,
        http_workers: 32,
        retry_after_ms: 5,
        ..ServerConfig::quick(registry_root)
    }
}

/// The bulk replay both server campaigns run: each of `streams` tenants
/// replays one full pass of the longest trace, so every scheduled
/// episode is fully covered at every scale.
pub(crate) fn loadgen_cfg(
    addr: String,
    traces: &[ScrapeTrace],
    streams: usize,
    opts: &ServerbenchOptions,
    tenant_prefix: String,
) -> LoadgenConfig {
    let per_stream = traces
        .iter()
        .map(|t| t.scrapes.len() as u64)
        .max()
        .unwrap_or(0);
    LoadgenConfig {
        addr,
        traces: traces.to_vec(),
        total: per_stream * streams as u64,
        concurrency: streams,
        bulk_size: opts.bulk_size,
        mode: LoadMode::Bulk,
        rate: 0.0,
        seed: opts.seed,
        tenant_prefix,
        max_transport_retries: 0,
        max_reject_retries: 0,
    }
}

/// The delivery invariants of a finished campaign: every scrape sent was
/// accepted and every scheduled incident detected. Returns the accepted
/// count.
pub(crate) fn check_delivery(run: &str, summary: &LoadgenSummary) -> Result<u64> {
    let accepted: u64 = summary.tenants.iter().map(|t| t.scrapes_accepted).sum();
    if accepted != summary.scrapes_sent {
        return Err(ExperimentError::Invariant(format!(
            "{run}: sent {} scrapes but only {accepted} accepted",
            summary.scrapes_sent
        )));
    }
    if summary.incidents_detected() < summary.incidents_expected() {
        return Err(ExperimentError::Invariant(format!(
            "{run}: {}/{} scheduled incidents detected",
            summary.incidents_detected(),
            summary.incidents_expected()
        )));
    }
    Ok(accepted)
}

/// Runs the sweep: train + record once, then one load campaign per scale
/// against a single in-process server.
///
/// # Errors
///
/// Training/registry/transport failures, or a violated sweep invariant
/// (a lost scrape, an undetected scheduled incident).
pub fn serverbench(opts: &ServerbenchOptions) -> Result<Serverbench> {
    let cfg = opts.mode.online_cfg();
    let registry = ModelRegistry::open(&opts.registry_root)?;
    if let Some(dir) = &opts.emit_trace {
        std::fs::create_dir_all(dir)?;
    }
    let apps = [icfl_apps::fig2_topology(), icfl_apps::causalbench()];
    let mut traces = Vec::new();
    for app in &apps {
        icfl_obs::info!("serverbench: training + recording {}...", app.name);
        traces.push(prepare_app(app, &registry, &cfg, opts)?);
    }

    let feed = FeedConfig::from_online(&cfg);
    let handle = IcflServer::start(server_cfg(&opts.registry_root, feed, opts.queue_cap))?;

    let mut rows = Vec::new();
    for &scale in &opts.scales {
        rows.push(run_scale(&handle, &traces, scale, opts)?);
    }
    Ok(Serverbench {
        apps: apps.iter().map(|a| a.name.clone()).collect(),
        rows,
    })
}

fn run_scale(
    handle: &ServerHandle,
    traces: &[ScrapeTrace],
    scale: usize,
    opts: &ServerbenchOptions,
) -> Result<ServerbenchRow> {
    let streams = scale * STREAMS_PER_SCALE;
    let addr = handle.addr().to_string();
    let summary = run_loadgen(&loadgen_cfg(
        addr,
        traces,
        streams,
        opts,
        format!("x{scale}-"),
    ))?;
    check_delivery(&format!("{scale}x"), &summary)?;
    icfl_obs::info!("serverbench {scale}x: {}", summary.one_line());
    Ok(ServerbenchRow {
        scale,
        streams,
        scrapes: summary.scrapes_sent,
        batches: summary.batches_ok,
        retried: summary.batches_retried,
        scrapes_per_sec: summary.scrapes_per_sec(),
        detect_p50_ms: summary.detect_p(0.50).unwrap_or(0.0),
        detect_p99_ms: summary.detect_p(0.99).unwrap_or(0.0),
        incidents_expected: summary.incidents_expected(),
        incidents_detected: summary.incidents_detected(),
    })
}
