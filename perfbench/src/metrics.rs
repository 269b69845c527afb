//! The names every comparison is read off: end-to-end metrics with the
//! share of the parent's median by which each may worsen, and per-layer
//! metrics. `BENCHMARK.json` is generated from these tables
//! (`icfl-bench manifest`), and a test holds the two together.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, Better, f64);

/// What a user of the system sees. Every workload reports every one of
/// them (see the README for what each means on each workload).
///
/// A bound holds for a metric on all six workloads, so the noisiest
/// workload sets it: each is about three times the widest ten-seed
/// spread (IQR ÷ median) measured for that metric over six sets
/// (`campaign_s` 3.7% on `campaign_fleet`, `scrapes_per_s` 6.2% on
/// `ingest_durable`), or the contract's ceiling of 0.25 where three
/// times the spread would pass it (`verdict_visible_p50_ms`: 13.9% on
/// `ingest_incident`). The README has the spreads.
pub const END_TO_END: [EndToEnd; 10] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("campaign_s", "s", Better::Lower, 0.10),
    ("scrapes_per_s", "1/s", Better::Higher, 0.20),
    ("requests_per_s", "1/s", Better::Higher, 0.20),
    ("req_p50_ms", "ms", Better::Lower, 0.25),
    ("verdict_visible_p50_ms", "ms", Better::Lower, 0.25),
    ("verdict_visible_p90_ms", "ms", Better::Lower, 0.25),
    ("aging_ratio", "ratio", Better::Lower, 0.25),
    ("recover_s", "s", Better::Lower, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, Better);

/// One layer's work, time or waste, measured in the traced run only. A
/// layer that does no work in a workload reports 0 there (`wal.*`
/// without a state directory, `core.eval_execute_s` when the campaign
/// phase only trains).
pub const PER_LAYER: [PerLayer; 41] = [
    // server.http
    ("http.read_request_ns", "ns", Better::Lower),
    ("http.write_response_ns", "ns", Better::Lower),
    ("http.bytes_per_scrape", "bytes", Better::Lower),
    // scenario.trace, the scrape codec
    ("codec.parse_ns_per_scrape", "ns", Better::Lower),
    ("codec.encode_ns_per_scrape", "ns", Better::Lower),
    // server.tenant
    ("tenant.submit_ns_per_batch", "ns", Better::Lower),
    ("tenant.submit_to_processed_ms_p50", "ms", Better::Lower),
    ("tenant.queue_high_water", "count", Better::Lower),
    ("tenant.retried_share", "ratio", Better::Lower),
    // server.wal
    ("wal.append_us_per_batch", "us", Better::Lower),
    ("wal.sync_us", "us", Better::Lower),
    ("wal.write_checkpoint_ms", "ms", Better::Lower),
    ("wal.bytes_per_scrape", "bytes", Better::Lower),
    ("wal.checkpoint_bytes", "bytes", Better::Lower),
    ("wal.recover_ms", "ms", Better::Lower),
    // online
    ("online.push_ns_per_scrape", "ns", Better::Lower),
    ("online.push_tick_us", "us", Better::Lower),
    ("online.push_notick_ns", "ns", Better::Lower),
    ("online.ticks", "count", Better::Lower),
    ("online.checkpoint_us_first", "us", Better::Lower),
    ("online.checkpoint_us_last", "us", Better::Lower),
    ("online.checkpoint_bytes_last", "bytes", Better::Lower),
    ("online.verdicts", "count", Better::Higher),
    // server routes
    ("server.session_post_ms_p50", "ms", Better::Lower),
    ("server.incidents_get_ms_last", "ms", Better::Lower),
    ("server.incidents_bytes_last", "bytes", Better::Lower),
    // sim + micro + loadgen
    ("scenario.build_ms", "ms", Better::Lower),
    ("sim.run_s", "s", Better::Lower),
    ("sim.events", "count", Better::Lower),
    ("sim.events_per_s", "1/s", Better::Higher),
    // telemetry
    ("telemetry.tap_s", "s", Better::Lower),
    ("telemetry.dataset_ms", "ms", Better::Lower),
    ("telemetry.engine_push_ns", "ns", Better::Lower),
    // core / stats
    ("core.campaign_execute_s", "s", Better::Lower),
    ("core.eval_execute_s", "s", Better::Lower),
    ("core.learn_ms", "ms", Better::Lower),
    ("core.localize_ms", "ms", Better::Lower),
    ("core.model_json_bytes", "bytes", Better::Lower),
    ("stats.ks_test_ns", "ns", Better::Lower),
    // the benchmark's own client and serial replay
    ("gen.busy_share", "ratio", Better::Lower),
    ("trace.serial_us_per_scrape", "us", Better::Lower),
];
