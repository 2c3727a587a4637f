//! The closed-loop client: one thread per connection, the next request
//! sent only after the previous response is complete.
//!
//! The client frames with `aon_net::wire` (the same code the server
//! frames with) and knows nothing else of the workspace. Requests are
//! built once from the corpus; the server sees only those bytes.

use crate::spec::LiveSpec;
use crate::trace::SpanLog;
use aon_net::wire::{status_code, write_all, FrameBuf, WireLimits};
use aon_server::{Corpus, UseCase};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

/// How long a response may take before the request counts as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);
/// Client spans kept per thread for the JSONL file.
const SPANS_PER_THREAD: usize = 8192;

/// One request as sent, with the verdict the corpus says it must get.
pub struct Prepared {
    pub bytes: Vec<u8>,
    pub body: Range<usize>,
    pub expect: u16,
}

/// Every corpus variant under every use case of `spec`, use cases cycling
/// fastest so a mixed workload alternates them request by request.
pub fn prepare(corpus: &Corpus, spec: &LiveSpec) -> Vec<Prepared> {
    let connection = if spec.one_shot { "close" } else { "keep-alive" };
    let mut out = Vec::with_capacity(corpus.variants.len() * spec.use_cases.len());
    for v in &corpus.variants {
        let body = &v.http[v.body_start..];
        for uc in spec.use_cases {
            let (path, accepted) = match uc {
                UseCase::Fr => ("/aon/fr", true),
                UseCase::Cbr => ("/aon/cbr", v.cbr_match),
                UseCase::Sv => ("/aon/sv", v.sv_valid),
                other => unreachable!("no workload sends {other:?}"),
            };
            let mut bytes = format!(
                "POST {path} HTTP/1.1\r\nHost: aon.local\r\nContent-Type: text/xml\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            let start = bytes.len();
            bytes.extend_from_slice(body);
            out.push(Prepared {
                body: start..bytes.len(),
                bytes,
                expect: if accepted { 200 } else { 422 },
            });
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Sent and checked, not measured.
    Warm,
    /// Measured.
    Plain,
    /// Measured, with client spans kept.
    Traced,
}

#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Index into the target addresses.
    pub target: usize,
    pub phase: Phase,
    pub len: Duration,
}

/// The run's timeline, shared by every client thread: window `i` covers
/// `[ends[i-1], ends[i])` after the common start.
pub struct Schedule {
    pub windows: Vec<Window>,
    ends: Vec<Duration>,
}

impl Schedule {
    pub fn new(windows: Vec<Window>) -> Schedule {
        let mut t = Duration::ZERO;
        let ends = windows
            .iter()
            .map(|w| {
                t += w.len;
                t
            })
            .collect();
        Schedule { windows, ends }
    }

    /// The window holding `elapsed`, searching forward from `cursor`.
    fn at(&self, elapsed: Duration, cursor: &mut usize) -> Option<usize> {
        while *cursor < self.ends.len() && elapsed >= self.ends[*cursor] {
            *cursor += 1;
        }
        (*cursor < self.ends.len()).then_some(*cursor)
    }
}

/// What one window saw. A request belongs to the window it started in.
#[derive(Default)]
pub struct WindowTally {
    /// Responses with the expected status.
    pub ok: u64,
    pub payload_bytes: u64,
    pub latency_ns: Vec<u32>,
    /// Traced windows only.
    pub connect_ns: Vec<u32>,
    pub write_ns: Vec<u32>,
    pub wait_ns: Vec<u32>,
}

/// One client thread's result; `merge` folds threads together.
#[derive(Default)]
pub struct Tally {
    pub windows: Vec<WindowTally>,
    pub attempted: u64,
    pub failed: u64,
    /// Responses by status, for the equality with `ServeStats`.
    pub status_200: u64,
    pub status_422: u64,
    pub status_503: u64,
    pub reconnects: u64,
    pub first_error: Option<String>,
}

impl Tally {
    pub fn new(windows: usize) -> Tally {
        Tally {
            windows: (0..windows).map(|_| WindowTally::default()).collect(),
            ..Tally::default()
        }
    }

    fn count_status(&mut self, status: Option<u16>) {
        match status {
            Some(200) => self.status_200 += 1,
            Some(422) => self.status_422 += 1,
            Some(503) => self.status_503 += 1,
            _ => {}
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }

    /// Fold another thread's windows and totals into this one.
    pub fn merge(&mut self, other: Tally) {
        self.add_totals(&other);
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.ok += theirs.ok;
            mine.payload_bytes += theirs.payload_bytes;
            mine.latency_ns.extend(theirs.latency_ns);
            mine.connect_ns.extend(theirs.connect_ns);
            mine.write_ns.extend(theirs.write_ns);
            mine.wait_ns.extend(theirs.wait_ns);
        }
    }

    /// Add `other`'s run-wide counters (not its windows).
    pub fn add_totals(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.status_200 += other.status_200;
        self.status_422 += other.status_422;
        self.status_503 += other.status_503;
        self.reconnects += other.reconnects;
        if self.first_error.is_none() {
            self.first_error.clone_from(&other.first_error);
        }
    }
}

/// An open connection and its response framer.
pub struct Conn {
    stream: TcpStream,
    fb: FrameBuf,
}

pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
    let stream =
        TcpStream::connect_timeout(&addr, RESPONSE_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    Ok(Conn { stream, fb: FrameBuf::new() })
}

struct Response {
    status: Option<u16>,
    server_closes: bool,
    written: Instant,
}

/// Send `req` and read the complete response.
fn exchange(conn: &mut Conn, req: &Prepared, sent: Instant) -> Result<Response, String> {
    write_all(&mut conn.stream, &req.bytes).map_err(|e| format!("write: {e}"))?;
    let written = Instant::now();
    let frame = conn
        .fb
        .read_frame(&mut conn.stream, &WireLimits::default(), sent + RESPONSE_TIMEOUT)
        .map_err(|e| format!("read: {e}"))?;
    let head = &conn.fb.bytes()[..frame.head_len];
    let response = Response { status: status_code(head), server_closes: says_close(head), written };
    conn.fb.consume(frame.total());
    Ok(response)
}

/// Does the response head carry `Connection: close`?
fn says_close(head: &[u8]) -> bool {
    head.split(|&b| b == b'\n').any(|line| {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        line.iter().position(|&b| b == b':').is_some_and(|colon| {
            line[..colon].eq_ignore_ascii_case(b"connection")
                && line[colon + 1..].trim_ascii().eq_ignore_ascii_case(b"close")
        })
    })
}

fn ns32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// One client thread: a connection per target (or one per request when
/// `one_shot`), requests cycled from `first`, until the schedule ends.
pub struct Client<'a> {
    pub targets: &'a [SocketAddr],
    pub requests: &'a [Prepared],
    pub one_shot: bool,
    pub schedule: &'a Schedule,
    pub start: Instant,
    /// Where this thread starts in the request cycle.
    pub first: usize,
    /// Connections already open (set-up hands them over warm).
    pub conns: Vec<Option<Conn>>,
}

impl Client<'_> {
    pub fn run(mut self, spans: &mut SpanLog) -> Tally {
        let mut tally = Tally::new(self.schedule.windows.len());
        let mut cursor = 0;
        let mut next = self.first;
        let mut seq = 0u64;
        loop {
            let t0 = Instant::now();
            let Some(w) = self.schedule.at(t0.saturating_duration_since(self.start), &mut cursor)
            else {
                break;
            };
            let window = self.schedule.windows[w];
            let traced = window.phase == Phase::Traced;
            let req = &self.requests[next % self.requests.len()];
            next += 1;
            seq += 1;
            tally.attempted += 1;

            // A one-shot request pays for its connection inside its
            // latency; a keep-alive reconnect (the server's request cap)
            // is outside it.
            let slot = &mut self.conns[window.target];
            let mut connected = None;
            if self.one_shot || slot.is_none() {
                match connect(self.targets[window.target]) {
                    Ok(c) => *slot = Some(c),
                    Err(e) => {
                        tally.fail(e);
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                }
                connected = Some(Instant::now());
            }
            let write_from = connected.unwrap_or(t0);
            let sent = if self.one_shot { t0 } else { write_from };
            let conn = slot.as_mut().expect("connected above");

            let response = match exchange(conn, req, sent) {
                Ok(r) => r,
                Err(e) => {
                    tally.fail(e);
                    *slot = None;
                    continue;
                }
            };
            let done = Instant::now();
            tally.count_status(response.status);
            if response.status == Some(req.expect) {
                let wt = &mut tally.windows[w];
                wt.ok += 1;
                wt.payload_bytes += req.body.len() as u64;
                wt.latency_ns.push(ns32(done - sent));
                if traced {
                    wt.write_ns.push(ns32(response.written - write_from));
                    wt.wait_ns.push(ns32(done - response.written));
                    let root = spans.id();
                    spans.push("client.request", root, 0, seq, t0, done);
                    if let Some(c) = connected {
                        wt.connect_ns.push(ns32(c - t0));
                        let id = spans.id();
                        spans.push("client.connect", id, root, seq, t0, c);
                    }
                    let id = spans.id();
                    spans.push("client.write", id, root, seq, write_from, response.written);
                    let id = spans.id();
                    spans.push("client.wait", id, root, seq, response.written, done);
                }
            } else {
                tally.fail(format!("status {:?}, expected {}", response.status, req.expect));
            }
            if self.one_shot {
                *slot = None;
            } else if response.server_closes {
                tally.reconnects += 1;
                *slot = None;
            }
        }
        tally
    }
}

/// One checked round trip from the calling thread (set-up's first
/// response on a connection).
pub fn round_trip(conn: &mut Conn, req: &Prepared, tally: &mut Tally) -> bool {
    tally.attempted += 1;
    match exchange(conn, req, Instant::now()) {
        Ok(r) => {
            tally.count_status(r.status);
            if r.status != Some(req.expect) {
                tally.fail(format!("status {:?}, expected {}", r.status, req.expect));
            }
            r.status == Some(req.expect)
        }
        Err(e) => {
            tally.fail(e);
            false
        }
    }
}

pub fn span_log(epoch: Instant, thread: usize) -> SpanLog {
    SpanLog::new(epoch, (thread as u64 + 1) << 32, SPANS_PER_THREAD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Kind, WORKLOADS};

    #[test]
    fn prepared_requests_carry_corpus_verdicts() {
        let corpus = Corpus::generate_sized(7, 8, 5 * 1024);
        let Kind::Live(mixed) = WORKLOADS[3].kind else { panic!("mixed is live") };
        let reqs = prepare(&corpus, &mixed);
        assert_eq!(reqs.len(), 24);
        assert!(reqs[0].bytes.starts_with(b"POST /aon/fr "));
        assert!(reqs[1].bytes.starts_with(b"POST /aon/cbr "));
        assert!(reqs[2].bytes.starts_with(b"POST /aon/sv "));
        assert!(reqs.iter().all(|r| says_close(&r.bytes[..r.body.start])));
        // Variant 1 misses the CBR route; variant 3 breaks the schema.
        assert_eq!([reqs[3].expect, reqs[4].expect, reqs[5].expect], [200, 422, 200]);
        assert_eq!(reqs[11].expect, 422);
        assert_eq!(
            &reqs[0].bytes[reqs[0].body.clone()],
            &corpus.variants[0].http[corpus.variants[0].body_start..]
        );
    }

    #[test]
    fn schedule_maps_elapsed_time_to_windows() {
        let w = |ms| Window { target: 0, phase: Phase::Plain, len: Duration::from_millis(ms) };
        let s = Schedule::new(vec![w(100), w(50), w(50)]);
        let mut cursor = 0;
        assert_eq!(s.at(Duration::from_millis(0), &mut cursor), Some(0));
        assert_eq!(s.at(Duration::from_millis(99), &mut cursor), Some(0));
        assert_eq!(s.at(Duration::from_millis(100), &mut cursor), Some(1));
        assert_eq!(s.at(Duration::from_millis(199), &mut cursor), Some(2));
        assert_eq!(s.at(Duration::from_millis(200), &mut cursor), None);
    }

    #[test]
    fn connection_close_is_read_from_the_head() {
        assert!(says_close(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n"));
        assert!(says_close(b"HTTP/1.1 200 OK\r\nconnection:  Close \r\n\r\n"));
        assert!(!says_close(b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\n"));
    }
}
