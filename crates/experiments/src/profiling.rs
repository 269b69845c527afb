//! Profiling artifact rendering: per-phase breakdowns, Chrome traces, and
//! journal snapshots for any experiment run.
//!
//! Every experiment accepts `--profile <dir>` and, after its workload,
//! the runner dumps the global `icfl-obs` collector here:
//!
//! | Artifact | Contents |
//! |---|---|
//! | `profile_<stem>.txt` | per-phase wall-clock table + latency accumulators |
//! | `profile_<stem>.json` | the same breakdown, machine-readable |
//! | `<stem>_trace.json` | Chrome-trace/Perfetto timeline of every span |
//! | `<stem>_metrics.prom` | deterministic journal, Prometheus exposition |
//! | `<stem>_metrics.jsonl` | deterministic journal, one JSON sample per line |
//! | `<stem>_manifests.jsonl` | run manifests recorded by the scenario builder |
//!
//! The `.prom`/`.jsonl`/manifest files are deterministic (byte-identical
//! across worker-thread counts); the `.txt`/`.json`/trace files measure
//! the host machine and are diagnostics only.

use crate::render::TextTable;
use icfl_obs::{PhaseAggregate, StatSummary, TraceEvent};
use serde::Serialize;
use std::path::{Path, PathBuf};

/// Machine-readable form of the per-phase profile
/// (`profile_<stem>.json`).
#[derive(Debug, Clone, Serialize)]
pub struct ProfileReport {
    /// Per-name span/stat rows, sorted by descending total time.
    pub phases: Vec<PhaseAggregate>,
    /// High-frequency latency accumulators by name.
    pub stats: Vec<StatRow>,
}

/// One named latency accumulator in a [`ProfileReport`].
#[derive(Debug, Clone, Serialize)]
pub struct StatRow {
    /// Accumulator name (e.g. `online.scrape`).
    pub name: String,
    /// Count/total/max of the recorded samples.
    pub summary: StatSummary,
}

/// Builds the profile report from the global collector's current state.
pub fn profile_report() -> ProfileReport {
    let obs = icfl_obs::global();
    ProfileReport {
        phases: obs.profiler.aggregate(),
        stats: obs
            .profiler
            .stats()
            .into_iter()
            .map(|(name, summary)| StatRow { name, summary })
            .collect(),
    }
}

/// Renders the per-phase breakdown as an aligned text table.
pub fn render_profile_text(report: &ProfileReport) -> String {
    let mut t = TextTable::new(vec!["Phase", "Calls", "Total (s)", "Max (s)"]);
    for row in &report.phases {
        t.row(vec![
            row.name.clone(),
            row.calls.to_string(),
            format!("{:.3}", row.total_secs),
            format!("{:.3}", row.max_secs),
        ]);
    }
    let mut out = String::from("Per-phase wall-clock profile\n\n");
    out.push_str(&t.render());
    if !report.stats.is_empty() {
        let mut s = TextTable::new(vec!["Accumulator", "Samples", "Total (ms)", "Max (ms)"]);
        for row in &report.stats {
            s.row(vec![
                row.name.clone(),
                row.summary.count.to_string(),
                format!("{:.3}", row.summary.total_us as f64 / 1e3),
                format!("{:.3}", row.summary.max_us as f64 / 1e3),
            ]);
        }
        out.push_str("\nLatency accumulators\n\n");
        out.push_str(&s.render());
    }
    out
}

/// Writes the full artifact set (see the module table) for the global
/// collector's current state into `dir`, returning the paths written.
///
/// # Errors
///
/// Propagates filesystem and serialization errors.
pub fn write_profile_artifacts(dir: &Path, stem: &str) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let obs = icfl_obs::global();
    let report = profile_report();
    let json = serde_json::to_string_pretty(&report)
        .map_err(|e| std::io::Error::other(format!("profile report serialization: {e}")))?;
    let trace = icfl_obs::trace::chrome_trace_json(&obs.profiler.trace_events());
    let snap = obs.metrics.snapshot();
    let manifests = icfl_obs::manifest::manifests_jsonl(&obs.manifests());
    let files = [
        (format!("profile_{stem}.txt"), render_profile_text(&report)),
        (format!("profile_{stem}.json"), json),
        (format!("{stem}_trace.json"), trace),
        (format!("{stem}_metrics.prom"), snap.to_prometheus()),
        (format!("{stem}_metrics.jsonl"), snap.to_jsonl()),
        (format!("{stem}_manifests.jsonl"), manifests),
    ];
    let mut written = Vec::with_capacity(files.len());
    for (name, body) in files {
        let path = dir.join(name);
        std::fs::write(&path, body)?;
        written.push(path);
    }
    Ok(written)
}

/// Converts `icfl-micro` request spans to Chrome-trace events on the
/// *simulated* clock (`ts` is simulation microseconds).
///
/// Each request gets its own thread lane (`tid` = request id) inside the
/// service's process lane (`pid` = service index + 1), so concurrent
/// requests occupying one service never partially overlap in a lane and
/// the export always passes
/// [`validate_chrome_trace`](icfl_obs::trace::validate_chrome_trace).
/// `service_names` maps service index → display name; missing entries
/// fall back to `svc<index>`.
pub fn micro_spans_to_trace(
    spans: &[icfl_micro::Span],
    service_names: &[String],
) -> Vec<TraceEvent> {
    spans
        .iter()
        .map(|s| {
            let idx = s.service.index();
            let name = service_names
                .get(idx)
                .cloned()
                .unwrap_or_else(|| format!("svc{idx}"));
            let mut args = vec![
                ("request".to_owned(), s.request.raw().to_string()),
                ("service".to_owned(), name.clone()),
                ("status".to_owned(), format!("{:?}", s.status)),
            ];
            if let Some(parent) = s.parent {
                args.push(("parent".to_owned(), parent.raw().to_string()));
            }
            TraceEvent {
                name,
                cat: "request".to_owned(),
                ph: "X".to_owned(),
                ts: s.start.as_nanos() / 1_000,
                dur: s.duration().as_nanos().max(1_000) / 1_000,
                pid: idx as u64 + 1,
                tid: s.request.raw(),
                args,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfl_micro::{RequestId, ServiceId, Span, Status};
    use icfl_sim::SimTime;

    fn span(req: u64, svc: usize, start_us: u64, end_us: u64) -> Span {
        Span {
            request: RequestId::from_raw(req),
            parent: (req > 1).then(|| RequestId::from_raw(req - 1)),
            service: ServiceId::from_index(svc),
            start: SimTime::from_nanos(start_us * 1_000),
            end: SimTime::from_nanos(end_us * 1_000),
            status: Status::Ok,
        }
    }

    #[test]
    fn micro_spans_map_to_simulated_timeline() {
        let names = vec!["front".to_owned()];
        let events = micro_spans_to_trace(&[span(1, 0, 100, 400), span(2, 1, 150, 300)], &names);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "front");
        assert_eq!(events[0].ts, 100);
        assert_eq!(events[0].dur, 300);
        assert_eq!(events[0].tid, 1);
        assert_eq!(events[1].name, "svc1");
        assert!(events[1]
            .args
            .iter()
            .any(|(k, v)| k == "parent" && v == "1"));
        let json = icfl_obs::trace::chrome_trace_json(&events);
        assert_eq!(icfl_obs::trace::validate_chrome_trace(&json), Ok(2));
    }

    #[test]
    fn zero_length_spans_get_a_visible_duration() {
        let events = micro_spans_to_trace(&[span(1, 0, 100, 100)], &[]);
        assert_eq!(events[0].dur, 1);
    }

    #[test]
    fn artifacts_cover_the_full_set() {
        let _guard = crate::timing::ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("icfl-profile-{}", std::process::id()));
        icfl_obs::reset();
        icfl_obs::counter_add("icfl_unit_total", &[], 7);
        drop(icfl_obs::span("windowing"));
        let paths = write_profile_artifacts(&dir, "unit").unwrap();
        icfl_obs::reset();
        assert_eq!(paths.len(), 6);
        for p in &paths {
            assert!(p.exists(), "missing {}", p.display());
        }
        let txt = std::fs::read_to_string(dir.join("profile_unit.txt")).unwrap();
        assert!(txt.contains("windowing"));
        let prom = std::fs::read_to_string(dir.join("unit_metrics.prom")).unwrap();
        assert!(prom.contains("icfl_unit_total 7"));
        let trace = std::fs::read_to_string(dir.join("unit_trace.json")).unwrap();
        assert!(icfl_obs::trace::validate_chrome_trace(&trace).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
