//! Input generation: everything a workload's ingest phase needs before a
//! byte is sent — the recorded scrape trace cut into a loopable steady
//! section, its request bodies pre-encoded, and the in-process reference
//! replay the server's verdicts are compared against.

use icfl_apps::App;
use icfl_core::CausalModel;
use icfl_micro::{FaultKind, ServiceId};
use icfl_online::{
    record_trace, Episode, FeedConfig, FeedSession, IncidentSchedule, OnlineConfig, OnlineError,
};
use icfl_scenario::trace::{encode_scrape_line, ScrapeTrace, TraceMeta};
use icfl_scenario::{Scenario, TraceTap};
use icfl_sim::{SimDuration, SimTime};

/// Which recording a stream loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// No fault is ever injected: the steady state of production.
    Quiet,
    /// The serverbench schedule: two service outages per loop.
    TwoOutage,
}

/// Scrapes dropped from the head of every recording: the simulated
/// cluster starts cold, and a loop seam that re-enters the cold start
/// reads as a rate shift (false alarms 13–19 s after the seam on
/// causalbench and robot-shop at most seeds).
const COLD_START_SCRAPES: usize = 20;

/// Scrapes per loop. A multiple of the 5 s hop, so every loop meets the
/// window grid at the same phase and the verdict pattern repeats exactly
/// from loop to loop instead of beating with a five-loop period.
pub const LOOP_SCRAPES: usize = 350;

/// The serverbench two-outage schedule (hop-relative, so it stays valid
/// under other window geometries).
fn two_outage(cfg: &OnlineConfig, targets: &[ServiceId]) -> IncidentSchedule {
    let hop = cfg.windows.hop;
    let hops = |n: u64| SimDuration::from_nanos(hop.as_nanos() * n);
    let first = SimTime::ZERO + cfg.warmup + cfg.windows.window + hops(16);
    let fault_len = hops(10);
    IncidentSchedule::new(vec![
        Episode::single(first, targets[0], FaultKind::ServiceUnavailable, fault_len),
        Episode::single(
            first + hops(32),
            targets[1 % targets.len()],
            FaultKind::ServiceUnavailable,
            fault_len,
        ),
    ])
}

/// Records `app` for the two-outage horizon, with or without the outages.
fn record(
    app: &App,
    kind: TraceKind,
    targets: &[ServiceId],
    cfg: &OnlineConfig,
    seed: u64,
) -> Result<ScrapeTrace, OnlineError> {
    let schedule = two_outage(cfg, targets);
    if kind == TraceKind::TwoOutage {
        return record_trace(app, &schedule, cfg, seed);
    }
    // `record_trace` with an empty schedule would stop at the drain
    // horizon; the quiet recording must be as long as the outage one.
    let interval = SimDuration::from_secs(1);
    let (mut scenario, sink) = Scenario::builder(app, seed)
        .replicas(cfg.replicas)
        .build_with(TraceTap::new(interval))
        .map_err(|e| OnlineError::Feed(format!("quiet scenario: {e}")))?;
    scenario.run_until(schedule.end() + cfg.drain);
    let service_names = (0..scenario.cluster.num_services())
        .map(|i| {
            scenario
                .cluster
                .service_name(ServiceId::from_index(i))
                .to_owned()
        })
        .collect();
    Ok(ScrapeTrace {
        meta: TraceMeta {
            app: app.name.clone(),
            seed,
            interval_nanos: interval.as_nanos(),
            service_names,
            episodes: Vec::new(),
        },
        scrapes: sink.take(),
    })
}

/// One app's loopable stream with its request bodies pre-encoded: the
/// client only ever writes a timestamp in front of a stored row suffix,
/// so it never calls `encode_scrape_line` while the clock runs.
pub struct Stream {
    /// The trace header (`POST /session` body, service names).
    pub meta: TraceMeta,
    /// The loop's scrapes, re-based so the first is at time zero.
    pub scrapes: Vec<(u64, Vec<icfl_micro::Counters>)>,
    /// Per scrape, the encoded line after its timestamp: `,[[..],..]]\n`.
    pub suffixes: Vec<Vec<u8>>,
    /// Stream time one loop spans, in nanoseconds.
    pub period_nanos: u64,
}

impl Stream {
    /// Records `app` and cuts the loop out of it.
    pub fn record(
        app: &App,
        kind: TraceKind,
        targets: &[ServiceId],
        cfg: &OnlineConfig,
        seed: u64,
    ) -> Result<Stream, OnlineError> {
        let trace = record(app, kind, targets, cfg, seed)?;
        let cut = trace
            .scrapes
            .get(COLD_START_SCRAPES..COLD_START_SCRAPES + LOOP_SCRAPES)
            .ok_or_else(|| {
                OnlineError::Feed(format!(
                    "recording has {} scrapes, the loop needs {}",
                    trace.scrapes.len(),
                    COLD_START_SCRAPES + LOOP_SCRAPES
                ))
            })?;
        let base = cut[0].0;
        let scrapes: Vec<_> = cut
            .iter()
            .map(|(at, row)| (at - base, row.clone()))
            .collect();
        let suffixes = scrapes
            .iter()
            .map(|(at, row)| {
                let line = encode_scrape_line(*at, row);
                let comma = line.find(',').expect("scrape line has a timestamp");
                let mut suffix = line.as_bytes()[comma..].to_vec();
                suffix.push(b'\n');
                suffix
            })
            .collect();
        Ok(Stream {
            period_nanos: LOOP_SCRAPES as u64 * trace.meta.interval_nanos,
            meta: trace.meta,
            scrapes,
            suffixes,
        })
    }

    /// Stream time of scrape `i` of loop `l`.
    pub fn at(&self, l: u64, i: usize) -> u64 {
        self.scrapes[i].0 + l * self.period_nanos
    }

    /// Appends the wire lines of scrapes `from..to` of loop `l` to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>, l: u64, from: usize, to: usize) {
        use std::io::Write;
        for i in from..to {
            write!(out, "[{}", self.at(l, i)).expect("write to a Vec");
            out.extend_from_slice(&self.suffixes[i]);
        }
    }
}

/// What an in-process [`FeedSession`] makes of one tenant's whole stream:
/// the byte-exact verdict JSON the server must serve, and which scrapes
/// confirm an incident.
pub struct Reference {
    /// `serde_json` of the session's verdict list after the last scrape.
    pub verdicts_json: String,
    /// `(stream position, verdicts visible once it is processed)` for
    /// every scrape whose push confirmed an incident, in stream order.
    pub confirming: Vec<(u64, usize)>,
}

impl Reference {
    /// Replays `loops` loops of `stream` through a fresh session.
    pub fn replay(
        model: &CausalModel,
        stream: &Stream,
        loops: u64,
        feed: &FeedConfig,
    ) -> Result<Reference, OnlineError> {
        let mut session = FeedSession::new(
            model.clone(),
            stream.meta.service_names.clone(),
            feed.clone(),
        )?;
        let mut confirming = Vec::new();
        let mut verdicts = 0usize;
        for l in 0..loops {
            for (i, (_, row)) in stream.scrapes.iter().enumerate() {
                let progress = session.push(SimTime::from_nanos(stream.at(l, i)), row.clone())?;
                if progress.confirmed > 0 {
                    verdicts += progress.confirmed as usize;
                    confirming.push((l * LOOP_SCRAPES as u64 + i as u64, verdicts));
                }
            }
        }
        Ok(Reference {
            verdicts_json: serde_json::to_string(&session.verdicts())
                .map_err(|e| OnlineError::Feed(format!("verdict JSON: {e}")))?,
            confirming,
        })
    }
}
