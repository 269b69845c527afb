//! The load generator's connection: one keep-alive socket that times
//! every exchange from the first request byte to the parsed response and
//! keeps its own books on where the client thread's time went.
//!
//! `icfl_server::HttpClient` is not used here on purpose: it re-sends
//! once on a dead socket without telling the caller (a transport error
//! the benchmark must count as a failure), and it offers no place to
//! separate socket time from generator time.

use icfl_server::http::{read_response, Response};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest wait for a response before the run is given up.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a spinning caller waits for a response before it starts to
/// yield (see `Conn::spin_until_readable`): a little over twice the
/// median single-scrape exchange.
const PURE_SPIN: Duration = Duration::from_micros(100);

/// One keep-alive connection and its time ledger.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Time inside `write` + `read` + response parsing.
    pub socket: Duration,
    /// Time asleep on a 429 hint.
    pub asleep: Duration,
    /// Whether to spin until a response arrives instead of blocking.
    spin: bool,
}

impl Conn {
    /// Connects to `addr`. With `spin`, the wait for each response is a
    /// busy loop on the socket (see `ingest::Caller::Synchronous`).
    pub fn open(addr: SocketAddr, spin: bool) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            socket: Duration::ZERO,
            asleep: Duration::ZERO,
            spin,
        })
    }

    /// Sends the complete request bytes `req` and reads the response,
    /// returning it with the instant the first byte was handed to the
    /// socket and the instant the response was parsed.
    pub fn exchange(&mut self, req: &[u8]) -> std::io::Result<(Response, Instant, Instant)> {
        let sent = Instant::now();
        self.stream.write_all(req)?;
        if self.spin {
            self.spin_until_readable(sent)?;
        }
        let resp = read_response(&mut self.reader)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "server closed the connection",
            )
        })?;
        let parsed = Instant::now();
        self.socket += parsed - sent;
        Ok((resp, sent, parsed))
    }

    /// Busy-waits until the socket has bytes to read.
    ///
    /// The first [`PURE_SPIN`] never leaves the CPU: the scheduler sees
    /// this core as taken and wakes the server's threads on the other one,
    /// which is what keeps the median exchange where it is. An answer that
    /// takes longer is either real work (a multi-megabyte POST) or a
    /// server thread queued behind this very loop; from then on every turn
    /// yields, so that such a thread runs now and not when the timeslice
    /// ends — without it one exchange in a thousand stalled 1–3 ms and
    /// `requests_per_s` on `ingest_probe` spread 9% on that tail alone.
    /// Yielding from the first turn moved the median instead (0.036 or
    /// 0.043 ms from run to run).
    fn spin_until_readable(&self, since: Instant) -> std::io::Result<()> {
        self.stream.set_nonblocking(true)?;
        let mut probe = [0u8; 1];
        let mut turns = 0u32;
        let mut yielding = false;
        loop {
            match self.stream.peek(&mut probe) {
                Ok(_) => break,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
            if yielding {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
            turns = turns.wrapping_add(1);
            if turns.is_multiple_of(64) {
                let waited = since.elapsed();
                yielding = waited > PURE_SPIN;
                // A dead server must not hang the run.
                if waited > READ_TIMEOUT {
                    return Err(std::io::ErrorKind::TimedOut.into());
                }
            }
        }
        self.stream.set_nonblocking(false)
    }

    /// Sends `req` until it is answered with something other than 429,
    /// sleeping exactly the server's `x-retry-after-ms` hint in between
    /// (no jitter: the runs must repeat). Returns the final response, the
    /// first attempt's send instant, the final parse instant and the
    /// number of 429s met.
    pub fn exchange_retrying(
        &mut self,
        req: &[u8],
    ) -> std::io::Result<(Response, Instant, Instant, u64)> {
        let mut first_sent = None;
        let mut retries = 0;
        loop {
            let (resp, sent, parsed) = self.exchange(req)?;
            let first = *first_sent.get_or_insert(sent);
            if resp.status != 429 {
                return Ok((resp, first, parsed, retries));
            }
            retries += 1;
            let hint = resp
                .header("x-retry-after-ms")
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| std::io::Error::other("429 without x-retry-after-ms"))?;
            let pause = Duration::from_millis(hint);
            std::thread::sleep(pause);
            self.asleep += pause;
        }
    }
}

/// Writes the head of a request carrying `body_len` body bytes.
pub fn request_head(out: &mut Vec<u8>, method: &str, path: &str, body_len: usize) {
    write!(
        out,
        "{method} {path} HTTP/1.1\r\ncontent-length: {body_len}\r\n\r\n"
    )
    .expect("write to a Vec");
}

/// A complete request as bytes.
pub fn request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(96 + body.len());
    request_head(&mut out, method, path, body.len());
    out.extend_from_slice(body);
    out
}

/// The unsigned integer after `"key":` in a JSON body, without parsing
/// the rest (an `/incidents` body grows with every verdict and is polled
/// in a loop).
pub fn json_u64(body: &[u8], key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = find(body, needle.as_bytes())? + needle.len();
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// Occurrences of `needle` in `haystack`.
pub fn count(haystack: &[u8], needle: &[u8]) -> usize {
    let mut n = 0;
    let mut rest = haystack;
    while let Some(at) = find(rest, needle) {
        n += 1;
        rest = &rest[at + needle.len()..];
    }
    n
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}
