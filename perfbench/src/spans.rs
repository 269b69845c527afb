//! Spans recorded by the benchmark around its calls into each layer:
//! kept in memory while the clock runs, aggregated and written out as a
//! Chrome trace when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The batch a span belongs to: tenant number and sequence within the
/// tenant. Rendered `t3/17`; spans of one batch share it.
pub type BatchId = (u64, u64);

/// One timed interval.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    batch: BatchId,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// Spans in the order they were recorded.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

/// Per span name: how many, their summed duration, and their summed self
/// time (duration minus the part covered by child spans).
pub type SelfTimes = BTreeMap<&'static str, (u64, Duration, Duration)>;

/// The Chrome trace holds at most this many spans of each log; a full
/// probe run records over a million, which no viewer loads.
const MAX_WRITTEN: usize = 30_000;

impl SpanLog {
    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        batch: BatchId,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            batch,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Sets the end of span `at`, recorded open (`end == start`) so that
    /// its children could name it as their parent.
    pub fn close(&mut self, at: usize, end: Instant) {
        self.spans[at].end = end;
    }

    /// Count, total and self time per span name. Children of one parent
    /// never overlap here (each layer is called after the previous one
    /// returned), so the cover is the plain sum of their durations.
    pub fn self_times(&self) -> SelfTimes {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        let mut out = SelfTimes::new();
        for (s, cover) in self.spans.iter().zip(covered) {
            let total = s.end - s.start;
            let row = out.entry(s.name).or_default();
            row.0 += 1;
            row.1 += total;
            row.2 += total.saturating_sub(cover);
        }
        out
    }
}

/// Writes the first [`MAX_WRITTEN`] spans of each log as Chrome-trace
/// JSON (`chrome://tracing`, Perfetto), one named thread per log,
/// timestamps relative to `epoch`.
pub fn write_chrome(path: &Path, epoch: Instant, logs: &[(&str, &SpanLog)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"traceEvents\":[")?;
    let mut first = true;
    let mut comma = |out: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
        if !std::mem::take(&mut first) {
            write!(out, ",")?;
        }
        Ok(())
    };
    for (tid, (thread, log)) in logs.iter().enumerate() {
        comma(&mut out)?;
        write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{thread}\"}}}}"
        )?;
        for (i, s) in log.spans.iter().take(MAX_WRITTEN).enumerate() {
            let ts = s.start.saturating_duration_since(epoch).as_secs_f64() * 1e6;
            let dur = (s.end - s.start).as_secs_f64() * 1e6;
            let (tenant, seq) = s.batch;
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            comma(&mut out)?;
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":{tid},\"args\":{{\"span\":{i},\"parent\":{parent},\"batch\":\"t{tenant}/{seq}\"}}}}",
                s.name,
            )?;
        }
    }
    let recorded: usize = logs.iter().map(|(_, log)| log.spans.len()).sum();
    write!(
        out,
        "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"spans_recorded\":{recorded},\"spans_per_thread_cap\":{MAX_WRITTEN}}}}}"
    )?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut log = SpanLog::default();
        let root = log.record("root", (0, 1), None, at(0), at(10));
        log.record("child", (0, 1), Some(root), at(1), at(4));
        log.record("child", (0, 1), Some(root), at(5), at(9));
        let times = log.self_times();
        assert_eq!(
            times["root"],
            (1, Duration::from_millis(10), Duration::from_millis(3))
        );
        assert_eq!(
            times["child"],
            (2, Duration::from_millis(7), Duration::from_millis(7))
        );
    }
}
