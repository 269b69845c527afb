//! The serving path: scrape bytes on a loopback socket → verdict visible
//! on `/incidents`, driven closed-loop by one client against an
//! in-process `IcflServer` that runs with the operator defaults.
//!
//! One connection, not one per core: with two, six runnable threads
//! (clients, HTTP workers, tenant workers) shared two cores and the
//! scheduler's placement decided the result — `scrapes_per_s` on
//! `ingest_quiet` came out 25% low in one run of six. With one, the HTTP
//! worker and the tenant worker each have a core and identical runs agree
//! within 1%.

use crate::client::{count, json_u64, request, request_head, Conn};
use crate::prep::{Reference, Stream, LOOP_SCRAPES};
use crate::spans::{BatchId, SpanLog};
use icfl_server::{IcflServer, IncidentsReport, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Load discarded before the clock starts. After an idle stretch the
/// first ~2 s of loopback traffic run 30–40% slow on this box, which
/// alone would exceed every bound.
pub const WARMUP: Duration = Duration::from_secs(3);

/// Pause between polls of `/incidents` (see [`Caller`]).
const POLL_PAUSE: Duration = Duration::from_micros(200);

/// How the client packs and paces one workload's stream.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Scrapes per `POST /ingest` (the last batch of a loop is shorter:
    /// batches never straddle a loop seam).
    pub batch: usize,
    /// Loops each tenant receives.
    pub loops_per_tenant: u64,
    /// Tenants streamed one after the other.
    pub tenants: u64,
    /// What the caller waits to see on `/incidents`.
    pub wait_for: WaitFor,
    /// The caller waits after every n-th candidate only.
    pub visible_every: u64,
    /// How the caller waits.
    pub caller: Caller,
}

/// How a caller spends the time until the answer it waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caller {
    /// Sends batch after batch and looks at `/incidents` now and then.
    /// Blocks in `read` for each response, so that the server has both
    /// cores, and sleeps [`POLL_PAUSE`] between polls: a client polling
    /// back to back takes the CPU the tenant worker needs, the backlog
    /// grows, waits lengthen, and the run tips into a state seven times
    /// slower (one of five identical `ingest_incident` runs).
    Streaming,
    /// Sees every batch processed before it sends the next. Spins on the
    /// socket until a response is there instead of blocking: for a caller
    /// that is idle whenever the server works, blocking makes the result a
    /// measurement of where the scheduler wakes the two ends. Spinning
    /// keeps the caller on one core and the server's threads on the other
    /// (`req_p50_ms` on `campaign_fleet`: spread 16% blocking, 3.5%
    /// spinning). The spin is socket wait, not generator work, in
    /// `busy_share`. Polls are paused as for [`Caller::Streaming`].
    Synchronous,
    /// [`Caller::Synchronous`], one scrape at a time, and never sleeps:
    /// polls for the verdict back to back. Its exchanges take tens of
    /// microseconds, its tenants are short-lived and its waits last one
    /// or two polls. Blocking, `req_p50_ms` read 0.017 or 0.055 ms and
    /// flipped within single runs; spinning, identical runs agree within
    /// 1%.
    Probe,
}

impl Caller {
    fn spins(self) -> bool {
        self != Caller::Streaming
    }

    fn pauses(self) -> bool {
        self != Caller::Probe
    }
}

/// The event whose visibility on `/incidents` a caller waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitFor {
    /// The new verdict, after each POST carrying a scrape that the
    /// reference replay marks as confirming an incident.
    Verdict,
    /// The batch counted as processed, after each POST: the verdict "no
    /// incident" on a quiet stream, and the only usable signal on the
    /// fleet topology, where the default detector never leaves its first
    /// incident (one shifted pair among ~10^4 is always found).
    Processed,
}

/// The client's inputs.
#[derive(Clone, Copy)]
pub struct Lane<'a> {
    /// Registry key of the model and prefix of the tenant names.
    pub app: &'a str,
    pub stream: &'a Stream,
    /// The in-process replay of one tenant's whole stream.
    pub reference: &'a Reference,
}

/// What the client measured.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of each fifth of the stream, from the first byte sent to
    /// the tenant's queue drained.
    pub fifths: Vec<Duration>,
    /// Typical wall time per unit (one loop of one tenant) in the last
    /// fifth ÷ in the first fifth.
    pub aging_ratio: f64,
    pub scrapes: u64,
    pub posts: u64,
    /// 429 answers met (each later succeeded or counted as failed).
    pub retried: u64,
    /// `POST /ingest` first byte → ack parsed, in ms.
    pub req_ms: Vec<f64>,
    /// First byte of the POST carrying the scrape → first `/incidents`
    /// body reflecting it, in ms.
    pub visible_ms: Vec<f64>,
    /// `POST /session` round trips, in ms.
    pub session_ms: Vec<f64>,
    /// Last `/incidents` fetch of the run: latency in ms and body size.
    pub last_incidents_ms: f64,
    pub last_incidents_bytes: usize,
    /// Verdicts served over all tenants.
    pub verdicts: usize,
    /// Client time not spent in the socket or asleep ÷ wall.
    pub busy_share: f64,
    /// Highest queue depth the last tenant's pipeline saw.
    pub queue_high_water: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
    /// The last tenant and the `/incidents` body it served once drained.
    pub last_tenant: String,
    pub last_body: Vec<u8>,
    /// Client-side spans (traced runs only).
    pub spans: SpanLog,
}

impl Outcome {
    /// Wall time of the whole timed stream, in seconds.
    pub fn wall_s(&self) -> f64 {
        self.fifths.iter().sum::<Duration>().as_secs_f64()
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What a caller waits to see on `/incidents` after a POST.
enum Visible {
    /// At least this many verdicts.
    Verdicts(usize),
    /// At least this many batches processed.
    Processed(u64),
}

/// The load generator: streams its lane tenant by tenant.
struct Client<'a> {
    conn: Conn,
    lane: Lane<'a>,
    shape: Shape,
    /// Distinguishes warm-up tenants from timed ones.
    tag: &'a str,
    traced: bool,
    out: Outcome,
    /// Reused request buffers.
    body: Vec<u8>,
    req: Vec<u8>,
    /// Batches acknowledged for the current tenant.
    tenant_batches: u64,
    /// Candidates for a visibility wait seen so far.
    candidates: u64,
    /// Next entry of `lane.reference.confirming` within the tenant.
    next_confirming: usize,
}

impl<'a> Client<'a> {
    fn new(
        addr: SocketAddr,
        lane: Lane<'a>,
        shape: Shape,
        tag: &'a str,
        traced: bool,
    ) -> std::io::Result<Client<'a>> {
        Ok(Client {
            conn: Conn::open(addr, shape.caller.spins())?,
            lane,
            shape,
            tag,
            traced,
            out: Outcome::default(),
            body: Vec::new(),
            req: Vec::new(),
            tenant_batches: 0,
            candidates: 0,
            next_confirming: 0,
        })
    }

    fn tenant(&self, k: u64) -> String {
        format!("{}:{}t{k}", self.lane.app, self.tag)
    }

    fn span(&mut self, name: &'static str, batch: BatchId, start: Instant, end: Instant) {
        if self.traced {
            self.out.spans.record(name, batch, None, start, end);
        }
    }

    /// Streams units `from..to`, a unit being one loop of one tenant, then
    /// waits for the current tenant's queue to drain. Returns the wall
    /// time of each unit.
    fn run_units(&mut self, from: u64, to: u64) -> std::io::Result<Vec<Duration>> {
        let loops = self.shape.loops_per_tenant;
        let mut walls = Vec::with_capacity((to - from) as usize);
        for unit in from..to {
            let start = Instant::now();
            let (k, l) = (unit / loops, unit % loops);
            let tenant = self.tenant(k);
            // The first tenant is registered before the clock starts;
            // opening the later ones is part of the traffic.
            if l == 0 && k > 0 {
                self.register(&tenant)?;
            }
            self.stream_loop(&tenant, k, l)?;
            if l + 1 == loops {
                self.finish_tenant(&tenant)?;
            }
            walls.push(start.elapsed());
        }
        if !to.is_multiple_of(loops) {
            self.drain(&self.tenant((to - 1) / loops))?;
        }
        Ok(walls)
    }

    fn register(&mut self, tenant: &str) -> std::io::Result<()> {
        let meta = serde_json::to_string(&self.lane.stream.meta).expect("meta serializes");
        let req = request("POST", &format!("/session/{tenant}"), meta.as_bytes());
        let (resp, sent, parsed) = self.conn.exchange(&req)?;
        self.out.attempted += 1;
        self.out.session_ms.push(ms(parsed - sent));
        if resp.status != 200 {
            self.out.fail(format!(
                "session {tenant}: {} {}",
                resp.status,
                resp.text().trim()
            ));
        }
        self.tenant_batches = 0;
        self.next_confirming = 0;
        Ok(())
    }

    fn stream_loop(&mut self, tenant: &str, k: u64, l: u64) -> std::io::Result<()> {
        let path = format!("/ingest/{tenant}");
        let mut from = 0;
        while from < LOOP_SCRAPES {
            let to = (from + self.shape.batch).min(LOOP_SCRAPES);
            let encode_start = Instant::now();
            self.body.clear();
            self.lane.stream.encode_into(&mut self.body, l, from, to);
            self.req.clear();
            request_head(&mut self.req, "POST", &path, self.body.len());
            self.req.extend_from_slice(&self.body);
            let (resp, sent, parsed, retries) = self.conn.exchange_retrying(&self.req)?;
            let seq = self.tenant_batches + 1;
            self.span("gen.encode", (k, seq), encode_start, sent);
            self.span("client.post_ingest", (k, seq), sent, parsed);
            self.out.attempted += 1;
            self.out.posts += 1;
            self.out.retried += retries;
            self.out.req_ms.push(ms(parsed - sent));
            if resp.status == 200 {
                self.tenant_batches = seq;
                self.out.scrapes += (to - from) as u64;
            } else {
                self.out.fail(format!(
                    "ingest {tenant} seq {seq}: {} {}",
                    resp.status,
                    resp.text().trim()
                ));
            }
            if let Some(want) = self.candidate(l, to) {
                self.await_visible(tenant, (k, seq), want, sent)?;
            }
            from = to;
        }
        Ok(())
    }

    /// Whether the caller waits on `/incidents` after the batch that ends
    /// before scrape `to` of loop `l`, and for what.
    fn candidate(&mut self, l: u64, to: usize) -> Option<Visible> {
        let mut want = None;
        if self.shape.wait_for == WaitFor::Processed {
            want = Some(Visible::Processed(self.tenant_batches));
        } else {
            let confirming = &self.lane.reference.confirming;
            let end = l * LOOP_SCRAPES as u64 + to as u64;
            // Several scrapes of one batch may each confirm an incident;
            // the caller waits for the last of them.
            while let Some(&(pos, verdicts)) = confirming.get(self.next_confirming) {
                if pos >= end {
                    break;
                }
                self.next_confirming += 1;
                want = Some(Visible::Verdicts(verdicts));
            }
        }
        let want = want?;
        // The first candidate and every n-th after it: with n a multiple
        // of the batches in a loop, always a loop's first batch.
        let chosen = self.candidates.is_multiple_of(self.shape.visible_every);
        self.candidates += 1;
        chosen.then_some(want)
    }

    fn await_visible(
        &mut self,
        tenant: &str,
        batch: BatchId,
        want: Visible,
        sent: Instant,
    ) -> std::io::Result<()> {
        let req = request("GET", &format!("/incidents/{tenant}"), b"");
        loop {
            let (resp, _, parsed) = self.conn.exchange(&req)?;
            if resp.status != 200 {
                self.out
                    .fail(format!("incidents {tenant}: {}", resp.status));
                return Ok(());
            }
            let seen = match want {
                Visible::Verdicts(n) => count(&resp.body, b"\"confirmed_at_secs\"") >= n,
                Visible::Processed(n) => {
                    json_u64(&resp.body, "batches_processed").is_some_and(|p| p >= n)
                }
            };
            if seen {
                self.span("client.poll_verdict", batch, sent, parsed);
                self.out.visible_ms.push(ms(parsed - sent));
                return Ok(());
            }
            if self.shape.caller.pauses() {
                std::thread::sleep(POLL_PAUSE);
                self.conn.asleep += POLL_PAUSE;
            }
        }
    }

    /// Polls until every accepted batch of `tenant` is processed and
    /// returns that `/incidents` body.
    fn drain(&mut self, tenant: &str) -> std::io::Result<Vec<u8>> {
        let req = request("GET", &format!("/incidents/{tenant}"), b"");
        loop {
            let (resp, sent, parsed) = self.conn.exchange(&req)?;
            if resp.status != 200 {
                return Err(std::io::Error::other(format!(
                    "incidents {tenant}: {}",
                    resp.status
                )));
            }
            let processed = json_u64(&resp.body, "batches_processed");
            if processed.is_some() && processed == json_u64(&resp.body, "batches_accepted") {
                self.out.last_incidents_ms = ms(parsed - sent);
                self.out.last_incidents_bytes = resp.body.len();
                return Ok(resp.body);
            }
            std::thread::sleep(POLL_PAUSE);
            self.conn.asleep += POLL_PAUSE;
        }
    }

    /// Drains a tenant whose stream is complete and checks what it
    /// serves: every scrape accounted for, no worker error, and the
    /// verdict JSON byte-equal to the in-process replay.
    fn finish_tenant(&mut self, tenant: &str) -> std::io::Result<()> {
        let body = self.drain(tenant)?;
        self.out.attempted += 1;
        let sent = self.shape.loops_per_tenant * LOOP_SCRAPES as u64;
        let expected_tail = format!("\"verdicts\":{}}}\n", self.lane.reference.verdicts_json);
        let report: Result<IncidentsReport, _> =
            serde_json::from_str(String::from_utf8_lossy(&body).trim_end());
        match report {
            Err(e) => self.out.fail(format!("incidents {tenant}: bad JSON: {e}")),
            Ok(r) => {
                self.out.verdicts += r.verdicts.len();
                if r.scrapes_accepted != sent {
                    self.out.fail(format!(
                        "{tenant}: sent {sent} scrapes, {} accepted",
                        r.scrapes_accepted
                    ));
                } else if let Some(e) = r.worker_error {
                    self.out.fail(format!("{tenant}: worker error: {e}"));
                } else if !body.ends_with(expected_tail.as_bytes()) {
                    self.out.fail(format!(
                        "{tenant}: {} verdicts differ from the in-process replay",
                        r.verdicts.len()
                    ));
                }
            }
        }
        self.out.last_tenant = tenant.to_owned();
        self.out.last_body = body;
        Ok(())
    }
}

/// Starts the server a workload's ingest phase talks to: operator
/// defaults, an ephemeral loopback port, and a state directory only when
/// the workload is durable.
pub fn start_server(registry: &Path, state_dir: Option<&Path>) -> std::io::Result<ServerHandle> {
    IcflServer::start(ServerConfig {
        state_dir: state_dir.map(Path::to_path_buf),
        ..ServerConfig::quick(registry)
    })
}

/// Drives a throwaway tenant with the workload's own traffic for `budget`
/// and discards everything. Returns how long it took.
pub fn warm_up(
    addr: SocketAddr,
    lane: Lane<'_>,
    shape: Shape,
    budget: Duration,
) -> std::io::Result<Duration> {
    let start = Instant::now();
    let mut client = Client::new(addr, lane, shape, "warm-", false)?;
    let tenant = client.tenant(0);
    client.register(&tenant)?;
    let mut l = 0;
    while start.elapsed() < budget {
        client.stream_loop(&tenant, 0, l)?;
        l += 1;
    }
    client.drain(&tenant)?;
    Ok(start.elapsed())
}

/// The typical wall time of a unit within one fifth of the stream: the
/// fifth is cut into five runs of consecutive units and the median run
/// is taken, so that one stall (an fsync, a scheduler hiccup, a slow
/// tenant start) does not decide the fifth. A run is long enough to hold
/// the caller's waits, which is how a slow tenant worker reaches the
/// client's clock.
fn typical(unit_walls: &[Duration]) -> f64 {
    let run = (unit_walls.len() / 5).max(1);
    let runs: Vec<f64> = unit_walls
        .chunks_exact(run)
        .map(|c| c.iter().sum::<Duration>().as_secs_f64() / run as f64)
        .collect();
    crate::stats::median(&runs)
}

/// Streams the whole workload, a fifth at a time: a fifth ends when the
/// tenant's queue is seen drained on `/incidents`.
pub fn run(
    server: &ServerHandle,
    lane: Lane<'_>,
    shape: Shape,
    traced: bool,
) -> std::io::Result<Outcome> {
    let units = shape.tenants * shape.loops_per_tenant;
    assert!(units.is_multiple_of(5), "the stream must split into fifths");
    let mut client = Client::new(server.addr(), lane, shape, "", traced)?;
    client.register(&client.tenant(0))?;
    // The registration above is before the clock, so its socket time must
    // not be charged against the timed wall either.
    let waiting_before = client.conn.socket + client.conn.asleep;
    let mut fifths = Vec::new();
    let mut typical_unit = Vec::new();
    for f in 0..5 {
        let start = Instant::now();
        let walls = client.run_units(f * units / 5, (f + 1) * units / 5)?;
        fifths.push(start.elapsed());
        typical_unit.push(typical(&walls));
    }
    let wall: Duration = fifths.iter().sum();
    let waiting = client.conn.socket + client.conn.asleep - waiting_before;
    let mut out = client.out;
    out.busy_share = wall.saturating_sub(waiting).as_secs_f64() / wall.as_secs_f64();
    out.fifths = fifths;
    out.aging_ratio = typical_unit[4] / typical_unit[0];
    if let Some(pipeline) = server.tenant(&out.last_tenant) {
        out.queue_high_water = pipeline.queue_high_water();
    }
    Ok(out)
}

/// Starts a server over the same registry and state directory and waits
/// until `tenant` answers `/incidents`: recovered from the state
/// directory when there is one, registered again otherwise. Returns the
/// time that took and the body served.
pub fn restart(
    registry: &Path,
    state_dir: Option<&Path>,
    tenant: &str,
    lane: Lane<'_>,
) -> std::io::Result<(Duration, Vec<u8>)> {
    let start = Instant::now();
    let server = start_server(registry, state_dir)?;
    let mut conn = Conn::open(server.addr(), false)?;
    let get = request("GET", &format!("/incidents/{tenant}"), b"");
    let (mut resp, ..) = conn.exchange(&get)?;
    if resp.status == 404 && state_dir.is_none() {
        let meta = serde_json::to_string(&lane.stream.meta).expect("meta serializes");
        let post = request("POST", &format!("/session/{tenant}"), meta.as_bytes());
        conn.exchange(&post)?;
        resp = conn.exchange(&get)?.0;
    }
    if resp.status != 200 {
        return Err(std::io::Error::other(format!(
            "restart: incidents {tenant}: {}",
            resp.status
        )));
    }
    Ok((start.elapsed(), resp.body))
}
