//! Netperf-style closed-loop load generator for the live server.
//!
//! Mirrors the paper's measurement methodology (§3.2.2): N persistent
//! connections each issue one request, wait for the full response, and
//! immediately issue the next — so offered load tracks server capacity
//! (closed loop) instead of overwhelming it (open loop). Request bodies
//! come from the same deterministic [`aon_server::corpus`] the simulator
//! replays, and each request carries a *known expected status* derived
//! from the corpus flags — a run whose [`LoadgenCounts::failed`] is zero
//! therefore proves end-to-end protocol and routing correctness, not just
//! liveness. The client counts outcomes only; what a request cost is the
//! server's to say (its histograms, `/stats.json`).
//!
//! This file is on the `aon-audit` cast-enforced list: no raw `as`
//! numeric casts.

#![deny(clippy::as_conversions)]

use aon_net::wire::{status_code, write_all, FrameBuf, WireError, WireLimits};
use aon_server::corpus::Corpus;
use aon_server::usecase::UseCase;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Corpus seed: the server parses whatever arrives, but a fixed seed keeps
/// runs comparable.
const CORPUS_SEED: u64 = 42;
/// Corpus variants cycled per use case.
const CORPUS_VARIANTS: usize = 4;
/// Per-response read deadline.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

/// Load generator knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (normally the in-process server's loopback addr).
    pub addr: SocketAddr,
    /// Concurrent closed-loop connections.
    pub connections: usize,
    /// Measurement window.
    pub duration: Duration,
    /// Use cases in the request mix (cycled per request).
    pub use_cases: Vec<UseCase>,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            connections: 4,
            duration: Duration::from_secs(2),
            use_cases: UseCase::ALL.to_vec(),
        }
    }
}

/// What one closed-loop run counted, client side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadgenCounts {
    /// Requests answered with the expected status (200 or 422).
    pub ok: u64,
    /// Responses whose status did not match the expected routing outcome.
    pub status_mismatch: u64,
    /// Wire-level failures (framing, timeouts, mid-message EOF).
    pub wire: u64,
    /// Socket-level failures (connect/write errors).
    pub io: u64,
    /// Reconnects after the server's keep-alive cap (not failures).
    pub reconnects: u64,
}

impl LoadgenCounts {
    /// Failures that count against the run (reconnects do not).
    pub fn failed(&self) -> u64 {
        self.status_mismatch + self.wire + self.io
    }

    fn add(&mut self, o: &LoadgenCounts) {
        self.ok += o.ok;
        self.status_mismatch += o.status_mismatch;
        self.wire += o.wire;
        self.io += o.io;
        self.reconnects += o.reconnects;
    }
}

/// One prepared request: raw bytes plus the status the server must
/// return for the run to count it as OK.
#[derive(Clone)]
struct PreparedRequest {
    bytes: Vec<u8>,
    expect_status: u16,
}

/// Build the keep-alive request mix: one request per (use case ×
/// corpus variant), with the expected status derived from the variant's
/// routing flags.
fn prepare_requests(cfg: &LoadgenConfig) -> Vec<PreparedRequest> {
    let corpus = Corpus::generate(CORPUS_SEED, CORPUS_VARIANTS);
    let mut out = Vec::with_capacity(cfg.use_cases.len() * corpus.len());
    for uc in &cfg.use_cases {
        let path = match uc {
            UseCase::Fr => "/aon/fr",
            UseCase::Cbr => "/aon/cbr",
            UseCase::Sv => "/aon/sv",
            UseCase::Dpi => "/aon/dpi",
            UseCase::Crypto => "/aon/crypto",
        };
        for v in &corpus.variants {
            let body = &v.http[v.body_start..];
            // Routing verdict per the engine's semantics: 200 when the
            // use case accepts the message, 422 when it rejects it.
            let accepted = match uc {
                UseCase::Fr | UseCase::Crypto => true,
                UseCase::Cbr => v.cbr_match,
                UseCase::Sv => v.sv_valid,
                // Corpus bodies carry no DPI signatures.
                UseCase::Dpi => true,
            };
            let mut bytes = Vec::with_capacity(body.len() + 160);
            bytes.extend_from_slice(format!(
                "POST {path} HTTP/1.1\r\nHost: aon.local\r\nContent-Type: text/xml\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
                body.len()
            ).as_bytes());
            bytes.extend_from_slice(body);
            out.push(PreparedRequest { bytes, expect_status: if accepted { 200 } else { 422 } });
        }
    }
    out
}

/// Run the closed loop against `cfg.addr` for `cfg.duration` and count.
pub fn run(cfg: &LoadgenConfig) -> LoadgenCounts {
    let requests = prepare_requests(cfg);
    assert!(!requests.is_empty(), "loadgen needs at least one use case");
    let deadline = Instant::now() + cfg.duration;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections.max(1))
            .map(|tid| {
                let requests = &requests;
                scope.spawn(move || connection_loop(cfg.addr, requests, tid, deadline))
            })
            .collect();
        let mut total = LoadgenCounts::default();
        for h in handles {
            total.add(&h.join().unwrap_or_default());
        }
        total
    })
}

/// One closed-loop connection: send, await full response, repeat. The
/// server closing a healthy keep-alive session (its request cap) is a
/// reconnect, not a failure.
fn connection_loop(
    addr: SocketAddr,
    requests: &[PreparedRequest],
    tid: usize,
    deadline: Instant,
) -> LoadgenCounts {
    let mut res = LoadgenCounts::default();
    let mut fb = FrameBuf::new();
    let mut stream: Option<TcpStream> = None;
    // Stagger the cycle start so threads don't all hit the same variant.
    let mut next = tid % requests.len();

    while Instant::now() < deadline {
        if stream.is_none() {
            match connect(addr) {
                Ok(s) => {
                    fb = FrameBuf::new();
                    stream = Some(s);
                }
                Err(()) => {
                    res.io += 1;
                    thread::sleep(Duration::from_millis(5));
                    continue;
                }
            }
        }
        let s = stream.as_mut().expect("connected above");

        let req = &requests[next];
        next = (next + 1) % requests.len();
        let sent = Instant::now();
        if let Err(e) = write_all(s, &req.bytes) {
            // A send into a connection the server already closed (keep-
            // alive cap) surfaces as an I/O error; reconnect and retry.
            classify_send_error(&e, &mut res);
            stream = None;
            continue;
        }
        match fb.read_frame(s, &WireLimits::default(), sent + RESPONSE_TIMEOUT) {
            Ok(frame) => {
                let status = status_code(&fb.bytes()[..frame.head_len]);
                let head = &fb.bytes()[..frame.head_len];
                let server_closing = head_says_close(head);
                fb.consume(frame.total());
                if status == Some(req.expect_status) {
                    res.ok += 1;
                } else {
                    res.status_mismatch += 1;
                }
                if server_closing {
                    res.reconnects += 1;
                    stream = None;
                }
            }
            Err(WireError::Closed) => {
                // Clean close before any response bytes: keep-alive cap
                // raced our send. Not a failure; replay on a fresh
                // connection would double-count, so just reconnect.
                res.reconnects += 1;
                stream = None;
            }
            Err(WireError::Io(_)) => {
                res.io += 1;
                stream = None;
            }
            Err(_) => {
                res.wire += 1;
                stream = None;
            }
        }
    }
    res
}

/// Fetch an admin endpoint (`/metrics`, `/stats.json`, `/trace.jsonl`)
/// from a running server over its own TCP port and return the response
/// body — what an external scraper sees, framed by the same wire code
/// the closed loop uses.
pub fn scrape(addr: SocketAddr, path: &str, timeout: Duration) -> Result<String, WireError> {
    let mut s = TcpStream::connect_timeout(&addr, timeout).map_err(|e| WireError::Io(e.kind()))?;
    let _ = s.set_nodelay(true);
    let req = format!("GET {path} HTTP/1.1\r\nHost: aon.local\r\nConnection: close\r\n\r\n");
    write_all(&mut s, req.as_bytes())?;
    let mut fb = FrameBuf::new();
    // Admin bodies (full metric exposition, trace dumps) outgrow the
    // default response limits; give them dedicated generous ones.
    let limits = WireLimits { max_head: 16 * 1024, max_body: 16 * 1024 * 1024 };
    let frame = fb.read_frame(&mut s, &limits, Instant::now() + timeout)?;
    if status_code(&fb.bytes()[..frame.head_len]) != Some(200) {
        return Err(WireError::BadFrame);
    }
    let body = &fb.bytes()[frame.head_len..frame.total()];
    Ok(String::from_utf8_lossy(body).into_owned())
}

/// Connect with TCP_NODELAY (request/response pattern).
fn connect(addr: SocketAddr) -> Result<TcpStream, ()> {
    let s = TcpStream::connect_timeout(&addr, RESPONSE_TIMEOUT).map_err(|_| ())?;
    let _ = s.set_nodelay(true);
    Ok(s)
}

/// Did the response head ask us to close the connection?
fn head_says_close(head: &[u8]) -> bool {
    head.split(|&b| b == b'\n').any(|line| {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            return false;
        };
        line[..colon].eq_ignore_ascii_case(b"connection")
            && line[colon + 1..].trim_ascii().eq_ignore_ascii_case(b"close")
    })
}

/// Send failures on a stale keep-alive connection (peer already closed)
/// are reconnects; anything else is a real I/O failure.
fn classify_send_error(e: &WireError, errors: &mut LoadgenCounts) {
    match e {
        WireError::Io(
            std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted,
        ) => {
            errors.reconnects += 1;
        }
        WireError::Closed => errors.reconnects += 1,
        WireError::TimedOut => errors.wire += 1,
        _ => errors.io += 1,
    }
}

/// Drain any remaining bytes best-effort (used by tests to verify the
/// server half-closes cleanly).
#[cfg(test)]
fn drain(mut s: TcpStream) {
    use std::io::Read;
    let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
    let mut sink = [0u8; 4096];
    while matches!(s.read(&mut sink), Ok(n) if n > 0) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, Server};

    #[test]
    fn prepared_requests_cover_mix_and_expectations() {
        let cfg = LoadgenConfig::default();
        let reqs = prepare_requests(&cfg);
        // 3 use cases × 4 variants.
        assert_eq!(reqs.len(), 12);
        // FR always expects 200; the mix must also contain 422s (CBR
        // mismatches and SV-invalid variants exist in a 4-variant corpus).
        assert!(reqs.iter().any(|r| r.expect_status == 200));
        assert!(reqs.iter().any(|r| r.expect_status == 422));
        for r in &reqs {
            assert!(r.bytes.starts_with(b"POST /aon/"));
        }
    }

    #[test]
    fn closed_loop_against_live_server_has_zero_failures() {
        let server = Server::start(ServeConfig { workers: 2, ..ServeConfig::default() })
            .expect("bind loopback");
        let cfg = LoadgenConfig {
            addr: server.addr(),
            connections: 2,
            duration: Duration::from_millis(300),
            ..LoadgenConfig::default()
        };
        let counts = run(&cfg);
        let stats = server.shutdown();
        assert!(counts.ok > 0, "served nothing: {counts:?}");
        assert_eq!(counts.failed(), 0, "failures: {counts:?}");
        assert_eq!(stats.protocol_errors(), 0);
        // Every OK the client saw, the server counted (2xx or 422).
        assert_eq!(counts.ok, stats.requests_ok + stats.requests_rejected);
    }

    #[test]
    fn reconnects_after_keepalive_cap_are_not_failures() {
        let server = Server::start(ServeConfig {
            workers: 1,
            keepalive_max_requests: 3,
            ..ServeConfig::default()
        })
        .expect("bind loopback");
        let cfg = LoadgenConfig {
            addr: server.addr(),
            connections: 1,
            duration: Duration::from_millis(250),
            use_cases: vec![UseCase::Fr],
        };
        let counts = run(&cfg);
        server.shutdown();
        assert_eq!(counts.failed(), 0, "failures: {counts:?}");
        assert!(
            counts.reconnects > 0,
            "cap of 3 over {} requests must force reconnects",
            counts.ok
        );
    }

    #[test]
    fn scrape_fetches_metrics_over_tcp() {
        let server = Server::start(ServeConfig { workers: 1, ..ServeConfig::default() })
            .expect("bind loopback");
        let text = scrape(server.addr(), "/metrics", Duration::from_secs(5)).expect("scrape");
        assert!(text.contains("aon_connections_accepted_total"), "{text}");
        let stats = scrape(server.addr(), "/stats.json", Duration::from_secs(5)).expect("stats");
        assert!(stats.contains("\"queue_depth_hwm\""), "{stats}");
        assert!(
            scrape(server.addr(), "/nope", Duration::from_secs(5)).is_err(),
            "non-200 admin scrape must error"
        );
        let final_stats = server.shutdown();
        assert_eq!(final_stats.admin_requests, 2);
        assert_eq!(final_stats.requests_ok, 0, "scrapes are not requests");
    }

    #[test]
    fn head_says_close_parses_connection_header() {
        assert!(head_says_close(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n"));
        assert!(head_says_close(b"HTTP/1.1 200 OK\r\nCONNECTION:  Close \r\n\r\n"));
        assert!(!head_says_close(b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\n"));
        assert!(!head_says_close(b"HTTP/1.1 200 OK\r\n\r\n"));
    }

    #[test]
    fn drain_helper_survives_closed_socket() {
        // A worker that accepts the idle connection before the stop edge
        // holds shutdown for the read timeout: keep that short.
        let server = Server::start(ServeConfig {
            read_timeout: Duration::from_millis(100),
            ..ServeConfig::default()
        })
        .expect("bind loopback");
        let s = TcpStream::connect(server.addr()).expect("connect");
        server.shutdown();
        drain(s);
    }
}
