//! One workload, start to finish: campaign phase → publish → serve →
//! restart, with the output checks; untraced for the end-to-end metrics,
//! traced for the per-layer ones.

use crate::campaign::{self, AppResult, Plan};
use crate::ingest::{self, Lane, Outcome};
use crate::layers::{self, Rows};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::prep::{Reference, Stream, TraceKind};
use crate::spans::SpanLog;
use crate::stats::{median, peak_rss_mb, quantile, quartiles};
use crate::workload::{Size, Workload};
use icfl_online::{FeedConfig, ModelMeta, ModelRegistry, OnlineConfig};
use icfl_server::ServerHandle;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub type AnyError = Box<dyn std::error::Error>;

/// Where traced runs leave their Chrome traces (kept after the run).
const OUT_DIR: &str = ".bench_out";

/// Distance between the seeds tried for a quiet recording (the SplitMix64
/// increment, so that neighbouring `--seed`s do not share their retries),
/// and how many are tried: of seeds 1–200 none needed more than three.
const RESEED_STEP: u64 = 0x9E37_79B9_7F4A_7C15;
const MAX_RECORDINGS: u64 = 8;

/// A scratch directory inside the checkout, removed when dropped — on
/// success, on an error return and on a panic alike.
struct TempDir(PathBuf);

impl TempDir {
    fn create(label: &str) -> std::io::Result<TempDir> {
        let dir = PathBuf::from(".bench_tmp").join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once the last run has left it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// What one run of one workload found.
#[derive(Default)]
pub struct Report {
    /// The metrics of the mode the run was made in, in table order.
    pub metrics: Rows,
    /// Printed, never compared.
    pub diagnostics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Report {
    fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(note());
        }
    }

    fn diag(&mut self, name: &str, value: f64, unit: &'static str) {
        self.diagnostics.push((name.to_owned(), value, unit));
    }
}

/// Everything the ingest phase reads.
struct Inputs {
    app: String,
    stream: Stream,
    reference: Reference,
    registry: PathBuf,
    state_dir: Option<PathBuf>,
}

impl Inputs {
    fn lane(&self) -> Lane<'_> {
        Lane {
            app: &self.app,
            stream: &self.stream,
            reference: &self.reference,
        }
    }
}

/// Publishes the model and prepares the stream: registry save, trace
/// recording, body pre-encoding, reference replay, server start.
fn set_up(
    w: &Workload,
    plan: &Plan,
    trained: &AppResult,
    loops: u64,
    seed: u64,
    dir: &Path,
) -> Result<(Inputs, ServerHandle), AnyError> {
    let online = OnlineConfig::quick();
    let feed = FeedConfig::from_online(&online);
    let app = &plan.app;
    let registry_root = dir.join("registry");
    ModelRegistry::open(&registry_root)?.save(
        &app.name,
        ModelMeta {
            app: app.name.clone(),
            seed,
            catalog: trained.model.catalog().name().to_owned(),
            detector: trained.model.detector().kind.to_string(),
            num_services: trained.model.num_services(),
            targets: trained
                .targets
                .iter()
                .map(|t| app.spec.services[t.index()].name.clone())
                .collect(),
            note: format!("icfl-bench {}", w.name),
        },
        &trained.model,
    )?;
    // A quiet loop that raised nothing in three loops raises nothing
    // later: loops are identical and hop-aligned, so the session meets
    // every seam in the same state (seeds 1–200: every false alarm fell in
    // the first loop or at the first seam, none in the 38 loops after).
    // Replaying all of a million-scrape stream in process would cost as
    // much as the run itself.
    let replayed = match w.trace {
        TraceKind::Quiet => loops.min(3),
        TraceKind::TwoOutage => loops,
    };
    // One seed in twelve records a fault-free stream on which the model
    // raises a false alarm. Such a recording is not a quiet workload, so
    // the next seed of a fixed sequence is recorded instead: every seed
    // still names exactly one input.
    let mut recording = 0;
    let (stream, reference) = loop {
        let trace_seed = seed.wrapping_add(RESEED_STEP.wrapping_mul(recording));
        let stream = Stream::record(app, w.trace, &trained.targets, &online, trace_seed)?;
        let reference = Reference::replay(&trained.model, &stream, replayed, &feed)?;
        if w.trace != TraceKind::Quiet || reference.confirming.is_empty() {
            break (stream, reference);
        }
        recording += 1;
        if recording == MAX_RECORDINGS {
            return Err(format!(
                "{}: {MAX_RECORDINGS} fault-free recordings of {} from seed {seed} each raised an incident",
                w.name, app.name
            )
            .into());
        }
    };
    let state_dir = w.durable.then(|| dir.join("state"));
    let server = ingest::start_server(&registry_root, state_dir.as_deref())?;
    let inputs = Inputs {
        app: app.name.clone(),
        stream,
        reference,
        registry: registry_root,
        state_dir,
    };
    Ok((inputs, server))
}

/// One pass of the campaign phase over every plan.
fn campaign_pass(plans: &[Plan], seed: u64) -> Result<Vec<AppResult>, AnyError> {
    Ok(plans
        .iter()
        .map(|p| campaign::run(p, seed))
        .collect::<Result<Vec<_>, _>>()?)
}

/// Runs `w` once, untraced, and reports every end-to-end metric.
pub fn end_to_end(w: &Workload, seed: u64, size: &Size) -> Result<Report, AnyError> {
    let seed = w.input_seed(seed);
    let mut report = Report::default();
    let tmp = TempDir::create(w.name)?;
    let plans = w.plans(size);

    // Campaign phase: identical passes, so every pass must score alike.
    let mut pass_s = Vec::new();
    let mut trained: Vec<AppResult> = Vec::new();
    for pass in 0..w.passes(size) {
        let start = Instant::now();
        let results = campaign_pass(&plans, seed)?;
        pass_s.push(start.elapsed().as_secs_f64());
        if pass == 0 {
            trained = results;
        } else {
            let same = results
                .iter()
                .zip(&trained)
                .all(|(a, b)| a.scores == b.scores && a.model == b.model);
            report.check(same, || format!("campaign pass {pass} differs from pass 0"));
        }
    }
    if let Some(pinned) = w.pinned_accuracy(seed, size) {
        for ((plan, result), want) in plans.iter().zip(&trained).zip(pinned) {
            let got: Vec<f64> = result.scores.iter().map(|s| s.0).collect();
            let ok = got.len() == want.len()
                && got.iter().zip(&want).all(|(g, w)| (g - w).abs() < 0.005);
            report.check(ok, || {
                format!("{} accuracy {got:?}, expected {want:?}", plan.app.name)
            });
        }
    }

    // Set-up, repeated for a median; the last one is used.
    let shape = w.shape(size);
    let loops = shape.loops_per_tenant;
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for r in 0..size.repeats {
        drop(prepared.take()); // stop the previous server before the next starts
        let start = Instant::now();
        let dir = tmp.0.join(format!("setup{r}"));
        prepared = Some(set_up(w, &plans[0], &trained[0], loops, seed, &dir)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (inputs, server) = prepared.expect("at least one set-up");

    // Serve.
    let warmup = ingest::warm_up(server.addr(), inputs.lane(), shape, size.warmup)?;
    let out = ingest::run(&server, inputs.lane(), shape, false)?;
    drop(server);

    // Restart on the same registry (and state directory, if any).
    // A restart without a state directory takes about a millisecond, so
    // its median needs more samples than the set-up's.
    let mut recover_s = Vec::new();
    for _ in 0..5 * size.repeats {
        let (took, body) = ingest::restart(
            &inputs.registry,
            inputs.state_dir.as_deref(),
            &out.last_tenant,
            inputs.lane(),
        )?;
        recover_s.push(took.as_secs_f64());
        if w.durable {
            report.check(body == out.last_body, || {
                format!("{}: /incidents differs after the restart", out.last_tenant)
            });
        }
    }

    absorb(&mut report, w, &out);
    let wall = out.wall_s();
    let rows = vec![
        ("setup_s", median(&setup_s), "s"),
        ("campaign_s", median(&pass_s), "s"),
        ("scrapes_per_s", out.scrapes as f64 / wall, "1/s"),
        ("requests_per_s", out.posts as f64 / wall, "1/s"),
        ("req_p50_ms", median(&out.req_ms), "ms"),
        ("verdict_visible_p50_ms", median(&out.visible_ms), "ms"),
        (
            "verdict_visible_p90_ms",
            quantile(&out.visible_ms, 0.9),
            "ms",
        ),
        ("aging_ratio", out.aging_ratio, "ratio"),
        ("recover_s", median(&recover_s), "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    report.metrics = in_table_order(rows, END_TO_END.map(|(name, unit, ..)| (name, unit)))?;
    report.diag("warmup_s", warmup.as_secs_f64(), "s");
    report.diag("campaign.passes", pass_s.len() as f64, "count");
    if pass_s.len() >= 2 {
        let (q1, q3) = quartiles(&pass_s);
        report.diag("campaign.pass_q1_s", q1, "s");
        report.diag("campaign.pass_q3_s", q3, "s");
    }
    client_diagnostics(&mut report, &out);
    report.diag("gen.busy_share", out.busy_share, "ratio");
    report.diag(
        "tenant.retried_share",
        out.retried as f64 / out.posts as f64,
        "ratio",
    );
    Ok(report)
}

/// The measured rows a metric table names, in the table's order; an error
/// if one is missing or carries another unit. This is what holds the
/// tables (and `BENCHMARK.json`, generated from them) and the code together.
fn in_table_order<const N: usize>(
    rows: Rows,
    table: [(&'static str, &'static str); N],
) -> Result<Rows, AnyError> {
    table
        .iter()
        .map(|&(name, unit)| {
            rows.iter()
                .find(|row| row.0 == name && row.2 == unit)
                .copied()
                .ok_or_else(|| format!("metric {name} [{unit}] was not measured").into())
        })
        .collect()
}

/// Folds the client's own tally into the report and asserts that the
/// numbers measure the server, not the generator.
fn absorb(report: &mut Report, w: &Workload, out: &Outcome) {
    report.attempted += out.attempted;
    report.failed += out.failed;
    report.notes.extend(out.notes.iter().cloned());
    report.check(out.busy_share < 0.25, || {
        format!("{}: gen.busy_share {:.3} >= 0.25", w.name, out.busy_share)
    });
}

fn client_diagnostics(report: &mut Report, out: &Outcome) {
    report.diag("ingest.wall_s", out.wall_s(), "s");
    for (i, f) in out.fifths.iter().enumerate() {
        report.diag(&format!("ingest.fifth{}_s", i + 1), f.as_secs_f64(), "s");
    }
    report.diag("ingest.scrapes", out.scrapes as f64, "count");
    report.diag("ingest.posts", out.posts as f64, "count");
    report.diag("ingest.verdicts", out.verdicts as f64, "count");
    report.diag("client.req_n", out.req_ms.len() as f64, "count");
    report.diag("client.req_p99_ms", quantile(&out.req_ms, 0.99), "ms");
    report.diag(
        "client.verdict_visible_n",
        out.visible_ms.len() as f64,
        "count",
    );
    report.diag(
        "client.verdict_visible_p99_ms",
        quantile(&out.visible_ms, 0.99),
        "ms",
    );
}

/// Runs `w` once with client-side spans on, then replays one tenant's
/// batches through each layer's public functions, and reports every
/// per-layer metric. The spans go to a Chrome trace under [`OUT_DIR`].
pub fn per_layer(w: &Workload, seed: u64, size: &Size) -> Result<Report, AnyError> {
    let seed = w.input_seed(seed);
    let mut report = Report::default();
    let tmp = TempDir::create(w.name)?;
    let plans = w.plans(size);
    let epoch = Instant::now();

    let trained = campaign_pass(&plans, seed)?;
    let mut rows = layers::core_layers(&trained)?;
    rows.extend(layers::sim_layers(&plans[0], seed)?);

    let shape = w.shape(size);
    let live_dir = tmp.0.join("live");
    let (inputs, server) = set_up(
        w,
        &plans[0],
        &trained[0],
        shape.loops_per_tenant,
        seed,
        &live_dir,
    )?;
    ingest::warm_up(server.addr(), inputs.lane(), shape, size.warmup)?;
    let out = ingest::run(&server, inputs.lane(), shape, true)?;
    drop(server);
    absorb(&mut report, w, &out);
    rows.extend([
        (
            "tenant.queue_high_water",
            out.queue_high_water as f64,
            "count",
        ),
        (
            "tenant.retried_share",
            out.retried as f64 / out.posts as f64,
            "ratio",
        ),
        ("server.session_post_ms_p50", median(&out.session_ms), "ms"),
        ("server.incidents_get_ms_last", out.last_incidents_ms, "ms"),
        (
            "server.incidents_bytes_last",
            out.last_incidents_bytes as f64,
            "bytes",
        ),
        ("gen.busy_share", out.busy_share, "ratio"),
    ]);

    let replay_dir = tmp.0.join("replay");
    let mut replay = SpanLog::default();
    rows.extend(layers::serve_layers(
        &trained[0].model,
        &inputs.stream,
        shape,
        &FeedConfig::from_online(&OnlineConfig::quick()),
        w.durable.then_some(replay_dir.as_path()),
        &mut replay,
    )?);

    report.metrics = in_table_order(rows, PER_LAYER.map(|(name, unit, _)| (name, unit)))?;

    client_diagnostics(&mut report, &out);
    report.diag(
        "trace.live_scrapes_per_s",
        out.scrapes as f64 / out.wall_s(),
        "1/s",
    );
    span_diagnostics(&mut report, &out.spans);
    span_diagnostics(&mut report, &replay);
    std::fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join(format!("trace_{}_seed{seed}.json", w.name));
    let logs = [("live client", &out.spans), ("serial replay", &replay)];
    crate::spans::write_chrome(&path, epoch, &logs)?;
    println!("trace  {}", path.display());
    Ok(report)
}

/// Self time per span name: duration minus the part child spans cover.
fn span_diagnostics(report: &mut Report, spans: &SpanLog) {
    for (name, (n, total, own)) in spans.self_times() {
        report.diag(&format!("span.{name}.n"), n as f64, "count");
        report.diag(
            &format!("span.{name}.total_ms"),
            total.as_secs_f64() * 1e3,
            "ms",
        );
        report.diag(
            &format!("span.{name}.self_ms"),
            own.as_secs_f64() * 1e3,
            "ms",
        );
    }
}
