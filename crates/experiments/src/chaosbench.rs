//! Chaos campaign against the durable ingest server: kill the server at
//! scheduled points mid-campaign — behind a deterministic chaos proxy
//! that delays, corrupts, and severs frames — restart it from its
//! `--state-dir`, and score recovery against an uninterrupted reference
//! run.
//!
//! The campaign asserts the three recovery guarantees the resilience
//! layer makes:
//!
//! 1. **Byte-equal incidents** — after every kill/restart cycle, each
//!    tenant's `/incidents` body is byte-identical to the reference
//!    run's (checkpoint + WAL replay reconstruct the exact session).
//! 2. **Zero silent drops** — every scrape the generator sent was
//!    acknowledged by the server (`scrapes accepted == scrapes sent`);
//!    lost acks are survived by idempotent re-sends, not re-counted.
//! 3. **Bounded inflation** — chaos slows the campaign down (reconnects,
//!    recovery pauses, retry backoff) but detection output is unchanged;
//!    the wall-clock inflation factor is reported, not hidden.
//!
//! `--smoke` (one kill, quick mode) is the CI `chaos-smoke` gate.

use crate::error::{ExperimentError, Result};
use crate::mode::Mode;
use crate::render::TextTable;
use crate::serverbench::{
    check_delivery, loadgen_cfg, prepare_app, server_cfg, ServerbenchOptions, STREAMS_PER_SCALE,
};
use icfl_online::{FeedConfig, ModelRegistry};
use icfl_server::loadgen::{run as run_loadgen, LoadgenSummary};
use icfl_server::{ChaosConfig, ChaosProxy, HttpClient, IcflServer, ServerConfig, ServerHandle};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How long the killer waits for the campaign to reach a kill point
/// before declaring the run wedged.
const KILL_POINT_TIMEOUT: Duration = Duration::from_secs(300);

/// Options for the chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosbenchOptions {
    /// Timing mode (training protocol + window geometry).
    pub mode: Mode,
    /// Root seed for training, traces, chaos faults, and retry jitter.
    pub seed: u64,
    /// Scheduled server kills (kill `k` of `K` fires once the fleet's
    /// accepted-scrape count crosses `total · k / (K+1)`).
    pub kills: usize,
    /// Where trained models are persisted and served from.
    pub registry_root: PathBuf,
    /// Durable per-tenant state root for the chaos server (wiped at the
    /// start of the campaign).
    pub state_dir: PathBuf,
    /// Per-tenant queue bound, in batches.
    pub queue_cap: usize,
    /// Scrapes per ingest batch.
    pub bulk_size: usize,
}

impl ChaosbenchOptions {
    /// Defaults: two kills, models under `results/models` and state under
    /// `results/chaosbench-state` (honoring `ICFL_RESULTS_DIR`).
    pub fn new(mode: Mode, seed: u64) -> Self {
        let results = crate::timing::results_dir();
        ChaosbenchOptions {
            mode,
            seed,
            kills: 2,
            registry_root: results.join("models"),
            state_dir: results.join("chaosbench-state"),
            queue_cap: 64,
            bulk_size: 64,
        }
    }

    /// The CI `chaos-smoke` gate: one kill, quick mode.
    pub fn smoke(seed: u64) -> Self {
        let mut opts = Self::new(Mode::Quick, seed);
        opts.kills = 1;
        opts
    }
}

/// One tenant's recovery outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosTenantRow {
    /// Tenant name.
    pub tenant: String,
    /// Scrapes the (restarted) server acknowledged for this tenant.
    pub scrapes_accepted: u64,
    /// Incidents confirmed by the recovered session.
    pub incidents: u64,
    /// Whether `/incidents` is byte-identical to the reference run's.
    pub byte_equal: bool,
}

/// The chaos campaign's full result. Only returned when every recovery
/// guarantee held — a divergent tenant or a silent drop is an error.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Chaosbench {
    /// Apps served (registry model names).
    pub apps: Vec<String>,
    /// Scheduled server kills that fired.
    pub kills: usize,
    /// Server restarts (recoveries from the state dir); equals `kills`.
    pub restarts: usize,
    /// Scrapes sent (and acknowledged) across all tenants.
    pub scrapes_sent: u64,
    /// Scrapes the final recovered server accounts for.
    pub scrapes_accepted: u64,
    /// Transport failures survived by reconnect-and-resend.
    pub transport_retries: u64,
    /// Chaos-induced 4xx rejects survived by a clean resend.
    pub reject_retries: u64,
    /// 429 backpressure rejections that were retried.
    pub batches_retried: u64,
    /// Scheduled fault episodes fully replayed.
    pub incidents_expected: u64,
    /// Incidents confirmed across all recovered tenants.
    pub incidents_detected: u64,
    /// Tail detection latency (stream time — identical to the reference
    /// run by the byte-equality guarantee), milliseconds.
    pub detect_p99_ms: f64,
    /// Send-phase wall clock of the uninterrupted reference run, seconds.
    pub ref_send_secs: f64,
    /// Send-phase wall clock under chaos (kills, reconnects, recovery),
    /// seconds.
    pub chaos_send_secs: f64,
    /// Per-tenant outcomes.
    pub tenants: Vec<ChaosTenantRow>,
}

impl Chaosbench {
    /// Wall-clock inflation of the send phase under chaos (≥ 1.0 in
    /// practice; the price of the kills and retries).
    pub fn inflation(&self) -> f64 {
        if self.ref_send_secs <= 0.0 {
            return 1.0;
        }
        self.chaos_send_secs / self.ref_send_secs
    }

    /// Renders the campaign as an aligned text table plus the guarantee
    /// lines the CI gate greps for.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["Tenant", "Scrapes", "Incidents", "Byte-equal"]);
        for r in &self.tenants {
            t.row(vec![
                r.tenant.clone(),
                r.scrapes_accepted.to_string(),
                r.incidents.to_string(),
                if r.byte_equal { "yes" } else { "NO" }.to_owned(),
            ]);
        }
        let equal = self.tenants.iter().filter(|r| r.byte_equal).count();
        format!(
            "{}\nkills={} restarts={} | retries transport={} reject={} backpressure={} \
             | incidents {}/{} detected | detect p99={:.0}ms\n\
             byte-equal incidents {equal}/{} tenants\n\
             0 silent drops ({} scrapes accepted == {} sent)\n\
             send-phase inflation {:.2}x ({:.2}s chaos vs {:.2}s reference)",
            t.render(),
            self.kills,
            self.restarts,
            self.transport_retries,
            self.reject_retries,
            self.batches_retried,
            self.incidents_detected,
            self.incidents_expected,
            self.detect_p99_ms,
            self.tenants.len(),
            self.scrapes_accepted,
            self.scrapes_sent,
            self.inflation(),
            self.chaos_send_secs,
            self.ref_send_secs,
        )
    }

    /// Renders the `results/chaos_recovery.md` report body.
    pub fn to_markdown(&self, mode: Mode, seed: u64) -> String {
        let mut out = String::new();
        out.push_str("# Chaos recovery campaign\n\n");
        out.push_str(&format!(
            "`chaosbench` (`{mode}` mode, seed {seed}): {} tenant streams ({}) replay \
             recorded scheduled-outage traces through a seeded chaos proxy \
             (delay/corrupt/sever) at a durable `icfl-server`; the harness kills the \
             server at {} scheduled points and restarts it from `--state-dir`. Every \
             tenant's `/incidents` must come back byte-identical to an uninterrupted \
             reference run, with zero silent drops.\n\n",
            self.tenants.len(),
            self.apps.join(", "),
            self.kills,
        ));
        out.push_str("```text\n");
        out.push_str(&self.render());
        out.push_str("\n```\n\n");
        out.push_str(
            "Regenerate with `cargo run --release -p icfl-experiments --bin icfl-exp -- chaosbench`; \
             the CI gate runs `--smoke` (one kill) and fails on any divergent byte or \
             lost scrape.\n",
        );
        out
    }
}

/// Builds the chaos server's config: durable state, tight checkpoint and
/// fsync cadence so kills land between checkpoints and mid-WAL.
fn chaos_server_cfg(opts: &ChaosbenchOptions, cfg: &FeedConfig) -> ServerConfig {
    ServerConfig {
        state_dir: Some(opts.state_dir.clone()),
        checkpoint_every_ticks: 4,
        fsync_every_batches: 4,
        ..server_cfg(&opts.registry_root, cfg.clone(), opts.queue_cap)
    }
}

/// Fetches each tenant's raw `/incidents` body over a direct connection
/// (bypassing the chaos proxy, so the comparison sees server bytes).
fn fetch_incidents(addr: &str, tenants: &[String]) -> Result<Vec<Vec<u8>>> {
    let mut client = HttpClient::connect(addr);
    let mut bodies = Vec::with_capacity(tenants.len());
    for tenant in tenants {
        let resp = client.get(&format!("/incidents/{tenant}"))?;
        if resp.status != 200 {
            return Err(ExperimentError::Invariant(format!(
                "incidents {tenant}: {} {}",
                resp.status,
                resp.text().trim()
            )));
        }
        bodies.push(resp.body);
    }
    Ok(bodies)
}

/// Blocks until the fleet's accepted-scrape count crosses `at`, polling
/// the live pipelines. Errs if the campaign finished or wedged first.
fn wait_for_kill_point(
    handle: &ServerHandle,
    tenants: &[String],
    at: u64,
    campaign: &std::thread::ScopedJoinHandle<
        '_,
        std::result::Result<LoadgenSummary, icfl_server::LoadgenError>,
    >,
) -> Result<()> {
    let deadline = Instant::now() + KILL_POINT_TIMEOUT;
    loop {
        let accepted: u64 = tenants
            .iter()
            .filter_map(|t| handle.tenant(t))
            .map(|p| p.scrapes_accepted())
            .sum();
        if accepted >= at {
            return Ok(());
        }
        if campaign.is_finished() {
            return Err(ExperimentError::Invariant(format!(
                "campaign finished before the kill point at {at} accepted scrapes"
            )));
        }
        if Instant::now() >= deadline {
            return Err(ExperimentError::Invariant(format!(
                "campaign wedged at {accepted}/{at} accepted scrapes"
            )));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs the chaos campaign: train + record once, score an uninterrupted
/// reference run, then replay the same campaign through the chaos proxy
/// with scheduled kills and compare.
///
/// # Errors
///
/// Training/registry/transport failures, a tenant whose recovered
/// `/incidents` diverges from the reference, a silently dropped scrape,
/// or a kill point the campaign never reached.
pub fn chaosbench(opts: &ChaosbenchOptions) -> Result<Chaosbench> {
    let cfg = opts.mode.online_cfg();
    let registry = ModelRegistry::open(&opts.registry_root)?;
    let sb_opts = ServerbenchOptions {
        queue_cap: opts.queue_cap,
        bulk_size: opts.bulk_size,
        registry_root: opts.registry_root.clone(),
        ..ServerbenchOptions::new(opts.mode, opts.seed)
    };
    let apps = [icfl_apps::fig2_topology(), icfl_apps::causalbench()];
    let mut traces = Vec::new();
    for app in &apps {
        icfl_obs::info!("chaosbench: training + recording {}...", app.name);
        traces.push(prepare_app(app, &registry, &cfg, &sb_opts)?);
    }
    let tenants: Vec<String> = (0..STREAMS_PER_SCALE)
        .map(|w| format!("{}:chaos-w{w}", traces[w % traces.len()].meta.app))
        .collect();
    let feed = FeedConfig::from_online(&cfg);

    // Uninterrupted reference run: same campaign, no proxy, no durable
    // state, no kills.
    icfl_obs::info!("chaosbench: reference run (no chaos)...");
    // Both runs replay the same campaign under fixed tenant names, so
    // their `/incidents` are comparable.
    let campaign = |addr: String| {
        loadgen_cfg(
            addr,
            &traces,
            STREAMS_PER_SCALE,
            &sb_opts,
            "chaos-".to_owned(),
        )
    };
    let ref_cfg = server_cfg(&opts.registry_root, feed.clone(), opts.queue_cap);
    let mut ref_handle = IcflServer::start(ref_cfg)?;
    let ref_summary = run_loadgen(&campaign(ref_handle.addr().to_string()))?;
    let reference = fetch_incidents(&ref_handle.addr().to_string(), &tenants)?;
    ref_handle.shutdown();

    // Chaos run: durable server behind the seeded proxy, killed at the
    // scheduled points and restarted from its state dir each time.
    if opts.state_dir.exists() {
        std::fs::remove_dir_all(&opts.state_dir)?;
    }
    std::fs::create_dir_all(&opts.state_dir)?;
    let mut handle = IcflServer::start(chaos_server_cfg(opts, &feed))?;
    let proxy = ChaosProxy::start(handle.addr().to_string(), ChaosConfig::mild(opts.seed))?;

    let mut chaos_cfg = campaign(proxy.addr().to_string());
    // Generous retry budgets: every kill severs in-flight requests, and
    // each reconnect may land while the server is still recovering.
    chaos_cfg.max_transport_retries = 4000;
    chaos_cfg.max_reject_retries = 64;
    let total = chaos_cfg.total;
    let kill_points: Vec<u64> = (1..=opts.kills)
        .map(|k| total * k as u64 / (opts.kills as u64 + 1))
        .collect();
    icfl_obs::info!(
        "chaosbench: chaos run — {total} scrapes, kills at {kill_points:?} accepted..."
    );

    let (summary, restarts) = std::thread::scope(|scope| -> Result<(LoadgenSummary, usize)> {
        let campaign = scope.spawn(|| run_loadgen(&chaos_cfg));
        let mut restarts = 0usize;
        for &at in &kill_points {
            wait_for_kill_point(&handle, &tenants, at, &campaign)?;
            icfl_obs::info!("chaosbench: killing server at ≥{at} accepted scrapes");
            handle.crash();
            handle = IcflServer::start(chaos_server_cfg(opts, &feed))?;
            proxy.set_upstream(handle.addr().to_string());
            restarts += 1;
        }
        let summary = campaign
            .join()
            .map_err(|_| ExperimentError::Invariant("campaign thread panicked".into()))??;
        Ok((summary, restarts))
    })?;

    let recovered = fetch_incidents(&handle.addr().to_string(), &tenants)?;
    handle.shutdown();

    // Score: byte-equality per tenant, zero silent drops fleet-wide.
    let mut rows = Vec::new();
    for (i, tenant) in tenants.iter().enumerate() {
        let outcome = summary
            .tenants
            .iter()
            .find(|t| &t.tenant == tenant)
            .ok_or_else(|| {
                ExperimentError::Invariant(format!("tenant {tenant} missing from the campaign"))
            })?;
        rows.push(ChaosTenantRow {
            tenant: tenant.clone(),
            scrapes_accepted: outcome.scrapes_accepted,
            incidents: outcome.verdicts.len() as u64,
            byte_equal: recovered[i] == reference[i],
        });
    }
    if let Some(bad) = rows.iter().find(|r| !r.byte_equal) {
        return Err(ExperimentError::Invariant(format!(
            "tenant {} served divergent /incidents after recovery",
            bad.tenant
        )));
    }
    let accepted = check_delivery("after recovery", &summary)?;
    if restarts != opts.kills {
        return Err(ExperimentError::Invariant(format!(
            "{restarts} restarts for {} scheduled kills",
            opts.kills
        )));
    }
    icfl_obs::info!("chaosbench: {}", summary.one_line());

    Ok(Chaosbench {
        apps: apps.iter().map(|a| a.name.clone()).collect(),
        kills: opts.kills,
        restarts,
        scrapes_sent: summary.scrapes_sent,
        scrapes_accepted: accepted,
        transport_retries: summary.transport_retries,
        reject_retries: summary.reject_retries,
        batches_retried: summary.batches_retried,
        incidents_expected: summary.incidents_expected(),
        incidents_detected: summary.incidents_detected(),
        detect_p99_ms: summary.detect_p(0.99).unwrap_or(0.0),
        ref_send_secs: ref_summary.send_wall.as_secs_f64(),
        chaos_send_secs: summary.send_wall.as_secs_f64(),
        tenants: rows,
    })
}
