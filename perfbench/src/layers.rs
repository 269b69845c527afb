//! Per-layer numbers, timed from outside: each layer's public function is
//! called on the inputs the workload really sends, one batch at a time on
//! one thread, in pipeline order, under a per-batch root span. Spans
//! inside the crates are a later change; until then this is where "where
//! did the time go?" is answered.

use crate::campaign::{AppResult, Plan};
use crate::client::request_head;
use crate::ingest::Shape;
use crate::prep::{Stream, LOOP_SCRAPES};
use crate::run::AnyError;
use crate::spans::{BatchId, SpanLog};
use icfl_core::RunConfig;
use icfl_online::{FeedConfig, FeedSession};
use icfl_scenario::trace::{encode_scrape_line, parse_scrape_line};
use icfl_scenario::{NoTap, RecorderTap, Scenario};
use icfl_server::http::{read_request, reason, write_response};
use icfl_server::wal::{self, StoreConfig, StoredCheckpoint, StoredMeta, TenantStore};
use icfl_server::{Batch, PipelineOptions, ServerConfig, TenantPipeline};
use icfl_sim::SimTime;
use icfl_telemetry::{EngineConfig, MetricCatalog, WindowEngine};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// `(name, value, unit)` rows, in report order.
pub type Rows = Vec<(&'static str, f64, &'static str)>;

/// The serial replay covers at most this many loops of one tenant's
/// stream: enough for history growth to show, short enough to keep.
const REPLAY_LOOPS: u64 = 200;

fn mean_ns(total: Duration, n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    total.as_nanos() as f64 / n as f64
}

/// `sim` + `micro` + `loadgen` and `telemetry`: the baseline phase of the
/// plan's campaign, once without a tap and once with the recorder.
pub fn sim_layers(plan: &Plan, seed: u64) -> Result<Rows, AnyError> {
    let cfg = RunConfig::quick(seed);
    let from = SimTime::ZERO + cfg.campaign.warmup;
    let to = from + cfg.campaign.baseline;

    let start = Instant::now();
    let (mut bare, ()) = Scenario::builder(&plan.app, seed).build_with(NoTap)?;
    let build = start.elapsed();
    let start = Instant::now();
    bare.run_until(to);
    let run = start.elapsed();
    let events = bare.sim.events_executed();
    drop(bare);

    let (mut tapped, recorder) =
        Scenario::builder(&plan.app, seed).build_with(RecorderTap::new((from, to), cfg.windows))?;
    let start = Instant::now();
    tapped.run_until(to);
    let run_tapped = start.elapsed();
    let start = Instant::now();
    let dataset = recorder.dataset(&MetricCatalog::derived_all())?;
    let dataset_took = start.elapsed();
    black_box(dataset);

    Ok(vec![
        ("scenario.build_ms", build.as_secs_f64() * 1e3, "ms"),
        ("sim.run_s", run.as_secs_f64(), "s"),
        ("sim.events", events as f64, "count"),
        ("sim.events_per_s", events as f64 / run.as_secs_f64(), "1/s"),
        // On a small app the tap costs less than two runs differ by.
        (
            "telemetry.tap_s",
            run_tapped.saturating_sub(run).as_secs_f64(),
            "s",
        ),
        (
            "telemetry.dataset_ms",
            dataset_took.as_secs_f64() * 1e3,
            "ms",
        ),
    ])
}

/// `core` and `stats`: the four calls of one campaign pass, summed over
/// the workload's apps, and one KS test on the baseline's own samples.
pub fn core_layers(results: &[AppResult]) -> Result<Rows, AnyError> {
    let sum = |f: fn(&AppResult) -> Duration| results.iter().map(f).sum::<Duration>();
    let cases: usize = results
        .iter()
        .map(|r| r.targets.len() * r.scores.len())
        .sum();
    let model_bytes: usize = results
        .iter()
        .map(|r| r.model.to_json().map(|j| j.len()))
        .sum::<Result<_, _>>()?;

    let baseline = results[0].model.baseline();
    let targets = &results[0].targets;
    let xs = baseline.samples(0, targets[0]);
    let ys = baseline.samples(0, targets[targets.len() - 1]);
    const KS_CALLS: u64 = 2_000;
    let start = Instant::now();
    for _ in 0..KS_CALLS {
        black_box(icfl_stats::ks_test(black_box(xs), black_box(ys))?);
    }
    let ks = start.elapsed();

    Ok(vec![
        (
            "core.campaign_execute_s",
            sum(|r| r.execute).as_secs_f64(),
            "s",
        ),
        (
            "core.eval_execute_s",
            sum(|r| r.eval_execute).as_secs_f64(),
            "s",
        ),
        ("core.learn_ms", sum(|r| r.learn).as_secs_f64() * 1e3, "ms"),
        (
            "core.localize_ms",
            if cases == 0 {
                0.0
            } else {
                sum(|r| r.evaluate).as_secs_f64() * 1e3 / cases as f64
            },
            "ms",
        ),
        ("core.model_json_bytes", model_bytes as f64, "bytes"),
        ("stats.ks_test_ns", mean_ns(ks, KS_CALLS), "ns"),
    ])
}

/// Time accumulated per stage of the serial replay.
#[derive(Default)]
struct Stage {
    total: Duration,
    calls: u64,
}

impl Stage {
    /// Runs `f` as a child span of `root` and books its time.
    fn run<T>(
        &mut self,
        spans: &mut SpanLog,
        name: &'static str,
        batch: BatchId,
        root: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        spans.record(name, batch, Some(root), start, end);
        self.total += end - start;
        self.calls += 1;
        out
    }
}

/// The server side of one tenant's stream, replayed layer by layer:
/// `http.read_request` → `codec.parse`×n → `tenant.submit` [→
/// `wal.append`] → `online.push`×n → `online.checkpoint` [→
/// `wal.write_checkpoint`] → `http.write_response`, each batch under a
/// root span `batch`. `state_dir` is set for a durable workload.
pub fn serve_layers(
    model: &icfl_core::CausalModel,
    stream: &Stream,
    shape: Shape,
    feed: &FeedConfig,
    state_dir: Option<&Path>,
    spans: &mut SpanLog,
) -> Result<Rows, AnyError> {
    let defaults = ServerConfig::quick("");
    let names = stream.meta.service_names.clone();
    let new_session = || FeedSession::new(model.clone(), names.clone(), feed.clone());
    let mut session = new_session()?;
    // The pipeline gets a session of its own: its worker thread pushes
    // what `submit` queues, which times the queue hand-off without
    // standing in for the `online.push` spans below.
    let pipeline = TenantPipeline::open_with(
        "replay",
        new_session()?,
        PipelineOptions {
            queue_cap: defaults.queue_cap,
            retry_after_ms: defaults.retry_after_ms,
            checkpoint_every_ticks: defaults.checkpoint_every_ticks,
            max_worker_restarts: defaults.max_worker_restarts,
        },
        None,
    );
    // Syncs are issued here on the server's cadence, so that they can be
    // timed apart from the appends.
    let mut store = match state_dir {
        Some(dir) => Some(
            TenantStore::create(
                dir,
                &StoredMeta {
                    tenant: "replay".to_owned(),
                    service_names: names.clone(),
                },
            )?
            .with_config(StoreConfig {
                fsync_every_batches: u32::MAX,
            }),
        ),
        None => None,
    };

    let loops = shape.loops_per_tenant.min(REPLAY_LOOPS);
    let path = "/ingest/replay";
    let ack = b"{\"accepted\":64}\n";
    let [mut read, mut parse, mut submit, mut queue_wait, mut append, mut sync] =
        std::array::from_fn(|_| Stage::default());
    let [mut push, mut push_tick, mut push_notick, mut checkpoint, mut write_ckpt, mut respond] =
        std::array::from_fn(|_| Stage::default());
    let mut handoff_ms = Vec::new();
    let mut roots = Duration::ZERO;
    let (mut scrapes, mut request_bytes, mut ticks, mut ticks_since_ckpt) =
        (0u64, 0u64, 0u64, 0u64);
    let (mut first_ckpt, mut last_ckpt) = (None, Duration::ZERO);
    let mut last_feed = None;
    let mut seq = 0u64;
    let (mut req, mut body, mut response) = (Vec::new(), Vec::new(), Vec::new());

    for l in 0..loops {
        let mut from = 0;
        while from < LOOP_SCRAPES {
            let to = (from + shape.batch).min(LOOP_SCRAPES);
            body.clear();
            stream.encode_into(&mut body, l, from, to);
            req.clear();
            request_head(&mut req, "POST", path, body.len());
            req.extend_from_slice(&body);
            seq += 1;
            let id: BatchId = (0, seq);
            let root_start = Instant::now();
            let root = spans.record("batch", id, None, root_start, root_start);

            let parsed = read.run(spans, "http.read_request", id, root, || {
                read_request(&mut &req[..], None)
            })?;
            let parsed = parsed.ok_or("empty request")?;
            let text = std::str::from_utf8(&parsed.body)?;
            let mut batch: Batch = Vec::with_capacity(to - from);
            for line in text.lines() {
                batch.push(parse.run(spans, "codec.parse", id, root, || parse_scrape_line(line))?);
            }
            let for_pipeline = batch.clone();
            let submitted = Instant::now();
            submit
                .run(spans, "tenant.submit", id, root, || {
                    pipeline.submit(for_pipeline)
                })
                .map_err(|e| format!("submit: {e}"))?;
            // Time the batch waits for the tenant worker and in it: the
            // worker repeats, on the pipeline's own session, the pushes
            // and checkpoints timed one by one below, so this span is
            // waiting, not a further cost of the batch.
            queue_wait.run(spans, "tenant.queue_wait", id, root, || {
                while pipeline.processed() < seq {
                    std::hint::spin_loop();
                }
            });
            handoff_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
            if let Some(store) = store.as_mut() {
                append.run(spans, "wal.append", id, root, || store.append(seq, &batch))?;
                if seq.is_multiple_of(u64::from(defaults.fsync_every_batches)) {
                    sync.run(spans, "wal.sync", id, root, || store.sync())?;
                }
            }
            for (at, row) in &batch {
                let row = row.clone();
                let start = Instant::now();
                let progress = session.push(SimTime::from_nanos(*at), row)?;
                let end = Instant::now();
                spans.record("online.push", id, Some(root), start, end);
                let split = if progress.ticks > 0 {
                    &mut push_tick
                } else {
                    &mut push_notick
                };
                for stage in [&mut push, split] {
                    stage.total += end - start;
                    stage.calls += 1;
                }
                ticks += u64::from(progress.ticks);
                ticks_since_ckpt += u64::from(progress.ticks);
            }
            if ticks_since_ckpt >= u64::from(defaults.checkpoint_every_ticks) {
                ticks_since_ckpt = 0;
                let before = checkpoint.total;
                let ckpt = checkpoint.run(spans, "online.checkpoint", id, root, || {
                    session.checkpoint()
                });
                last_ckpt = checkpoint.total - before;
                first_ckpt.get_or_insert(last_ckpt);
                let stored = StoredCheckpoint {
                    wal_seq: seq,
                    scrapes: scrapes + batch.len() as u64,
                    feed: ckpt,
                };
                if let Some(store) = store.as_mut() {
                    write_ckpt.run(spans, "wal.write_checkpoint", id, root, || {
                        store.write_checkpoint(&stored)
                    })?;
                }
                last_feed = Some(stored.feed);
            }
            response.clear();
            respond.run(spans, "http.write_response", id, root, || {
                write_response(&mut response, 200, reason(200), &[], ack, true)
            })?;
            let root_end = Instant::now();
            spans.close(root, root_end);
            roots += root_end - root_start;
            scrapes += batch.len() as u64;
            request_bytes += req.len() as u64;
            from = to;
        }
    }
    if let Some(e) = pipeline.worker_error() {
        return Err(format!("replay pipeline: {e}").into());
    }

    // The engine on its own, on the same rows, with the ring a
    // `FeedSession` keeps under this tuning: 8 live windows + 4.
    let mut engine_cfg = EngineConfig::streaming(feed.windows, 12, feed.collect_from);
    engine_cfg.interval = feed.interval;
    let mut engine = WindowEngine::new(engine_cfg, names.len());
    let rows: Vec<_> = stream.scrapes.iter().map(|(_, row)| row.clone()).collect();
    let mut engine_push = Duration::ZERO;
    for l in 0..loops.min(20) {
        for (i, row) in rows.iter().enumerate() {
            let row = row.clone();
            let start = Instant::now();
            engine.push(SimTime::from_nanos(stream.at(l, i)), row);
            engine_push += start.elapsed();
        }
    }
    let engine_pushes = loops.min(20) * LOOP_SCRAPES as u64;

    // Re-encoding is what the WAL does to every accepted scrape.
    let start = Instant::now();
    for (at, row) in &stream.scrapes {
        black_box(encode_scrape_line(*at, row));
    }
    let encode = start.elapsed();

    let feed_bytes = match &last_feed {
        Some(feed) => serde_json::to_string(feed)?.len(),
        None => 0,
    };
    let (mut wal_bytes, mut ckpt_bytes, mut recover) = (0u64, 0u64, Duration::ZERO);
    if let Some(dir) = state_dir {
        drop(store.take()); // close the WAL before recovery reopens it
        wal_bytes = std::fs::metadata(dir.join("replay/wal.jsonl"))?.len();
        ckpt_bytes = std::fs::metadata(dir.join("replay/ckpt.json"))?.len();
        let start = Instant::now();
        black_box(wal::recover(dir, "replay")?);
        recover = start.elapsed();
    }

    let us = |d: Duration| d.as_secs_f64() * 1e6;
    Ok(vec![
        (
            "http.read_request_ns",
            mean_ns(read.total, read.calls),
            "ns",
        ),
        (
            "http.write_response_ns",
            mean_ns(respond.total, respond.calls),
            "ns",
        ),
        (
            "http.bytes_per_scrape",
            request_bytes as f64 / scrapes as f64,
            "bytes",
        ),
        (
            "codec.parse_ns_per_scrape",
            mean_ns(parse.total, parse.calls),
            "ns",
        ),
        (
            "codec.encode_ns_per_scrape",
            mean_ns(encode, LOOP_SCRAPES as u64),
            "ns",
        ),
        (
            "tenant.submit_ns_per_batch",
            mean_ns(submit.total, submit.calls),
            "ns",
        ),
        (
            "tenant.submit_to_processed_ms_p50",
            crate::stats::median(&handoff_ms),
            "ms",
        ),
        (
            "wal.append_us_per_batch",
            mean_ns(append.total, append.calls) / 1e3,
            "us",
        ),
        ("wal.sync_us", mean_ns(sync.total, sync.calls) / 1e3, "us"),
        (
            "wal.write_checkpoint_ms",
            mean_ns(write_ckpt.total, write_ckpt.calls) / 1e6,
            "ms",
        ),
        (
            "wal.bytes_per_scrape",
            wal_bytes as f64 / scrapes as f64,
            "bytes",
        ),
        ("wal.checkpoint_bytes", ckpt_bytes as f64, "bytes"),
        ("wal.recover_ms", recover.as_secs_f64() * 1e3, "ms"),
        (
            "online.push_ns_per_scrape",
            mean_ns(push.total, push.calls),
            "ns",
        ),
        (
            "online.push_tick_us",
            mean_ns(push_tick.total, push_tick.calls) / 1e3,
            "us",
        ),
        (
            "online.push_notick_ns",
            mean_ns(push_notick.total, push_notick.calls),
            "ns",
        ),
        ("online.ticks", ticks as f64, "count"),
        (
            "online.checkpoint_us_first",
            us(first_ckpt.unwrap_or_default()),
            "us",
        ),
        ("online.checkpoint_us_last", us(last_ckpt), "us"),
        ("online.checkpoint_bytes_last", feed_bytes as f64, "bytes"),
        ("online.verdicts", session.verdicts().len() as f64, "count"),
        (
            "telemetry.engine_push_ns",
            mean_ns(engine_push, engine_pushes),
            "ns",
        ),
        (
            "trace.serial_us_per_scrape",
            us(roots - queue_wait.total) / scrapes as f64,
            "us",
        ),
    ])
}
