//! The live HTTP/1.1 server: one listener shared by a worker pool whose
//! threads block in `accept(2)` and serve what they accept, keep-alive
//! request loop, robustness limits, graceful shutdown — and a
//! software performance-counter layer ([`crate::obs`]) exposed over admin
//! endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition (counters, gauges,
//!   per-stage latency histograms);
//! * `GET /stats.json` — the [`ServeStatsSnapshot`] as JSON;
//! * `GET /trace.jsonl` — the tail-sampled per-request span traces
//!   ([`aon_obs::reqtrace`]) as JSONL;
//! * `GET /profile.folded` — the continuous worker-state profiler's
//!   folded-stack dump ([`aon_obs::profiler`]), directly consumable by
//!   `flamegraph.pl`.
//!
//! Admin hits are counted in a separate counter (never in the request
//! totals), so scraping `/metrics` mid-run cannot perturb the numbers it
//! reports — the CI cross-check relies on exact equality with the load
//! generator.
//!
//! The serve path is generic over its per-request recorder
//! ([`BoundaryRecorder`]) and runs two instantiations, chosen once per
//! worker from [`ServeConfig::observe`]: with the planes on, the worker's
//! [`aon_obs::record::Recorder`] reads the clock once per boundary (frame
//! complete, stage edges, write start, write end) for every plane at
//! once, and the finished record goes to [`ServerObs::record`] after the
//! write; with them off, [`NoopStages`] — no clock read, no store, and
//! every admin endpoint but `/stats.json` answers 404. An admin handler
//! that reads the profiler refreshes its ledger with its own clock read,
//! so the server runs no thread but its workers.
//!
//! No timer and no hand-off sits on the connection set-up path: every
//! `aon-worker-*` blocks in `accept(2)` on the one listener, the kernel
//! wakes exactly one of them per connection, and that thread serves it.
//! The listen backlog is the only queue in front of the pool, and the only
//! admission control: nothing in the server sheds on load. Stopping is
//! therefore an explicit wake: store the shutdown flag and connect to
//! the server's own address once per worker; a worker re-checks the flag
//! after every `accept` return, drops that stream unaccounted and exits.

use crate::obs::ServerObs;
use aon_hw::HwGroup;
use aon_net::wire::{write_all, FrameBuf, WireError, WireLimits, WireStream};
use aon_obs::metric::{Counter, HistogramSnapshot};
use aon_obs::profiler::{Profiler, WorkerState};
use aon_obs::record::BoundaryRecorder;
use aon_obs::reqtrace::{TraceConfig, Tracer};
use aon_obs::stage::{NoopStages, Stage};
use aon_server::engine::{Engine, ParseMode};
use aon_server::http::{self, Method};
use aon_server::usecase::UseCase;
use aon_trace::NullProbe;
use aon_xml::input::TBuf;
use std::borrow::Cow;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server deployment parameters for the live path.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads; 0 means one per logical CPU (the paper's sizing).
    pub workers: usize,
    /// No effect: the server has no user-space accept queue (the
    /// kernel's listen backlog is the one queue in front of the pool).
    /// The field is pinned by `benchmark/src/layers.rs`, which sizes a
    /// queue kernel of its own from it, and goes with that kernel.
    pub accept_backlog: usize,
    /// Per-request read deadline (head + body must arrive within it).
    pub read_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Requests served per connection before the server closes it.
    pub keepalive_max_requests: u32,
    /// Head/body size limits.
    pub limits: WireLimits,
    /// The master switch of the observability planes ([`crate::obs`]):
    /// per-use-case/stage histograms and `/metrics`, and inside it the
    /// tracer, the profiler and the hardware counters as their own
    /// switches select. Off = none of them exists: no clock reads on the
    /// pipeline (the engine runs the untimed instantiation), no tracer,
    /// no ledger, no perf group, and `/metrics`, `/trace.jsonl`
    /// and `/profile.folded` answer 404. [`ServeStats`] counts either way.
    pub observe: bool,
    /// Per-thread hardware performance counters ([`aon_hw`]): each worker
    /// opens a perf event group and the recorder attributes counter deltas
    /// to pipeline stages. Off by default — the perf backend costs a
    /// group read per stage edge; when on but unavailable (no PMU, locked
    /// down `perf_event_paranoid`) it degrades to the no-op backend.
    /// Requires [`ServeConfig::observe`].
    pub hw_counters: bool,
    /// Tail-sampled per-request tracing ([`aon_obs::reqtrace`]): slow and
    /// errored requests always keep their span trees, the rest are
    /// reservoir-sampled; dumped at `GET /trace.jsonl`, and every kept
    /// trace's id is the exemplar of its latency bucket. Requires
    /// [`ServeConfig::observe`].
    pub trace: TraceConfig,
    /// Continuous worker-state profiling ([`aon_obs::profiler`]): each
    /// worker charges its exact wall time per (use case × state) at the
    /// boundaries it already reads the clock for, behind
    /// `GET /profile.folded`. Requires [`ServeConfig::observe`] (the
    /// families live in the same registry).
    pub profiler: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            accept_backlog: 128,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            keepalive_max_requests: 10_000,
            limits: WireLimits::default(),
            observe: true,
            hw_counters: false,
            trace: TraceConfig::default(),
            profiler: true,
        }
    }
}

/// Monotonic serving counters (lock-free; read with
/// [`ServeStats::snapshot`]), each incremented at one place. With
/// [`ServeConfig::observe`] on, [`ServerObs::new`] hands the response,
/// connection and admin counters to the registry, so `/metrics` renders
/// these very cells.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections accepted off the listener.
    pub accepted: Arc<Counter>,
    /// Requests answered 200.
    pub requests_ok: Arc<Counter>,
    /// Requests answered 422 (content did not route/validate).
    pub requests_rejected: Arc<Counter>,
    /// Requests answered 404.
    pub not_found: Arc<Counter>,
    /// Requests answered 400 (malformed HTTP).
    pub bad_request: Arc<Counter>,
    /// Requests answered 413 (head or body over limit).
    pub too_large: Arc<Counter>,
    /// Requests answered 408 (deadline passed mid-request).
    pub timeouts: Arc<Counter>,
    /// Connections torn down on socket errors or mid-message EOF (no
    /// `/metrics` family names it, so it is never handed to a registry).
    pub io_errors: Counter,
    /// Admin endpoint hits (`/metrics`, `/stats.json`, `/trace.jsonl`,
    /// `/profile.folded`) — counted here and **nowhere else**, so scrapes
    /// don't move totals.
    pub admin: Arc<Counter>,
}

/// A point-in-time copy of [`ServeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStatsSnapshot {
    /// Connections accepted off the listener.
    pub accepted: u64,
    /// Always 0: there is no user-space accept queue to overflow. Pinned
    /// (with its `/stats.json` key) by `benchmark/`.
    pub dropped_backlog: u64,
    /// Always 0, pinned like [`ServeStatsSnapshot::dropped_backlog`].
    pub rejected_closed: u64,
    /// Always 0, pinned like [`ServeStatsSnapshot::dropped_backlog`].
    pub queue_depth_hwm: u64,
    /// Requests answered 200.
    pub requests_ok: u64,
    /// Requests answered 422.
    pub requests_rejected: u64,
    /// Always 0: nothing sheds. Pinned like
    /// [`ServeStatsSnapshot::dropped_backlog`].
    pub requests_shed: u64,
    /// Requests answered 404.
    pub not_found: u64,
    /// Requests answered 400.
    pub bad_request: u64,
    /// Requests answered 413.
    pub too_large: u64,
    /// Requests answered 408.
    pub timeouts: u64,
    /// Connections torn down on socket errors.
    pub io_errors: u64,
    /// Admin endpoint hits (excluded from every request total).
    pub admin_requests: u64,
}

impl ServeStats {
    /// The counter of non-admin responses answered `status` (anything the
    /// server has no status line for counts as a bad request).
    pub fn status(&self, status: u16) -> &Arc<Counter> {
        match status {
            200 => &self.requests_ok,
            422 => &self.requests_rejected,
            404 => &self.not_found,
            413 => &self.too_large,
            408 => &self.timeouts,
            _ => &self.bad_request,
        }
    }

    /// Copy the counters.
    pub fn snapshot(&self) -> ServeStatsSnapshot {
        ServeStatsSnapshot {
            accepted: self.accepted.get(),
            dropped_backlog: 0,
            rejected_closed: 0,
            queue_depth_hwm: 0,
            requests_ok: self.requests_ok.get(),
            requests_rejected: self.requests_rejected.get(),
            requests_shed: 0,
            not_found: self.not_found.get(),
            bad_request: self.bad_request.get(),
            too_large: self.too_large.get(),
            timeouts: self.timeouts.get(),
            io_errors: self.io_errors.get(),
            admin_requests: self.admin.get(),
        }
    }
}

impl ServeStatsSnapshot {
    /// Requests the server answered with a protocol-level error
    /// (400 + 413 + 408) — `aon-report obs --self-drive` asserts this is
    /// zero under well-formed load.
    pub fn protocol_errors(&self) -> u64 {
        self.bad_request + self.too_large + self.timeouts
    }

    /// All non-admin requests answered, any status.
    pub fn requests_total(&self) -> u64 {
        self.requests_ok
            + self.requests_rejected
            + self.not_found
            + self.bad_request
            + self.too_large
            + self.timeouts
    }

    /// The body of `GET /stats.json`: the counters, then — with
    /// observability on — the bucket-derived service-time percentiles
    /// (`latency`, interpolated p99.9 included, so a scraper gets latency
    /// without parsing the Prometheus exposition), then the pool shape: a
    /// reporter must not have to infer the worker count from
    /// configuration, and with the profiler on `pool` adds its live
    /// saturation and per-worker busy fractions (both per mille).
    pub fn to_stats_json(
        &self,
        latency: Option<HistogramSnapshot>,
        workers: usize,
        pool: Option<(u64, Vec<u64>)>,
    ) -> String {
        let members = [
            ("accepted", self.accepted),
            // The next three always read 0 (no user-space accept queue);
            // `benchmark/` pins the keys, see `ServeStatsSnapshot`.
            ("dropped_backlog", self.dropped_backlog),
            ("rejected_closed", self.rejected_closed),
            ("queue_depth_hwm", self.queue_depth_hwm),
            ("requests_ok", self.requests_ok),
            ("requests_rejected", self.requests_rejected),
            ("not_found", self.not_found),
            ("bad_request", self.bad_request),
            ("too_large", self.too_large),
            ("timeouts", self.timeouts),
            ("io_errors", self.io_errors),
            ("admin_requests", self.admin_requests),
            ("protocol_errors", self.protocol_errors()),
        ];
        let lines: Vec<String> =
            members.iter().map(|(name, value)| format!("  \"{name}\": {value}")).collect();
        let mut s = format!("{{\n{}", lines.join(",\n"));
        if let Some(h) = latency {
            s.push_str(&format!(
                ",\n  \"service_latency_ns\": {{ \"count\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {} }}",
                h.count,
                h.percentile(50),
                h.percentile(99),
                h.percentile_per_mille(999)
            ));
        }
        s.push_str(&format!(",\n  \"worker_pool\": {{ \"workers\": {workers}"));
        if let Some((saturation, busy)) = pool {
            let busy = busy.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
            s.push_str(&format!(
                ", \"saturation_permille\": {saturation}, \"busy_permille\": [{busy}]"
            ));
        }
        s.push_str(" }\n}\n");
        s
    }
}

struct Shared {
    cfg: ServeConfig,
    /// The one listening socket; every worker blocks in `accept(2)` on it
    /// and the kernel's listen backlog is the queue in front of the pool.
    listener: TcpListener,
    // audit:role(flag): stop edge; Release store in stop() (shutdown()/Drop)
    // happens-before the workers' Acquire loads after each accept return
    // and between keep-alive requests, so everything written before the
    // signal is visible to exiting threads
    shutdown: AtomicBool,
    stats: ServeStats,
    engine: Engine,
    /// The observability planes; `None` with [`ServeConfig::observe`] off.
    obs: Option<ServerObs>,
    /// Resolved worker-pool size (0-in-config already expanded).
    workers: usize,
}

/// A running live server. Create with [`Server::start`], stop with
/// [`Server::shutdown`] (graceful: finishes in-flight requests; what is
/// still in the kernel's listen backlog is reset when the socket closes).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and spawn the worker threads. A configuration the server
    /// cannot run is refused with [`io::ErrorKind::InvalidInput`].
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        if cfg.observe && cfg.trace.enabled && cfg.trace.capacity == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "trace.capacity must be at least 1 with tracing on",
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let workers = if cfg.workers > 0 {
            cfg.workers
        } else {
            std::thread::available_parallelism().map(usize::from).unwrap_or(2)
        };
        let stats = ServeStats::default();
        let obs = cfg.observe.then(|| ServerObs::new(&cfg, workers, &stats));
        let shared = Arc::new(Shared {
            listener,
            cfg,
            shutdown: AtomicBool::new(false),
            stats,
            engine: Engine::new(),
            obs,
            workers,
        });
        // A spawn that fails part-way returns through `Drop`, which stops
        // and joins the threads already started — they would otherwise sit
        // in `accept(2)` for ever, holding the port.
        let mut server = Server { addr, shared, workers: Vec::new() };
        server.spawn_threads()?;
        Ok(server)
    }

    fn spawn_threads(&mut self) -> io::Result<()> {
        for i in 0..self.shared.workers {
            let shared = Arc::clone(&self.shared);
            let worker = std::thread::Builder::new()
                .name(format!("aon-worker-{i}"))
                .spawn(move || worker_loop(&shared, i))?;
            self.workers.push(worker);
        }
        Ok(())
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> ServeStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The observability layer, when [`ServeConfig::observe`] is on.
    pub fn obs(&self) -> Option<&ServerObs> {
        self.shared.obs.as_ref()
    }

    /// The Prometheus exposition `GET /metrics` would return right now
    /// (`None` with observability off).
    pub fn metrics_text(&self) -> Option<String> {
        self.shared.obs.as_ref().map(ServerObs::render_metrics)
    }

    /// The trace dump `GET /trace.jsonl` would return right now (`None`
    /// with tracing off).
    pub fn trace_jsonl(&self) -> Option<String> {
        self.tracer().map(Tracer::dump_jsonl)
    }

    /// The tail-sampling tracer, when observability and
    /// [`TraceConfig::enabled`] are both on.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.shared.obs.as_ref().and_then(ServerObs::tracer)
    }

    /// The continuous worker-state profiler, refreshed to now, when
    /// observability and [`ServeConfig::profiler`] are both on.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.shared.obs.as_ref().and_then(ServerObs::profiler)
    }

    /// The folded-stack dump `GET /profile.folded` would return right
    /// now (`None` with the profiler off).
    pub fn profile_folded(&self) -> Option<String> {
        self.profiler().map(Profiler::folded)
    }

    /// Resolved worker-pool size (a zero in [`ServeConfig::workers`]
    /// already expanded to the machine's parallelism).
    pub fn worker_count(&self) -> usize {
        self.shared.workers
    }

    /// Raise the stop edge, wake the pool — one self-connect per worker so
    /// each leaves `accept(2)` and sees the flag — and join every thread.
    /// A worker that is serving a connection finishes its in-flight
    /// request first. Idempotent
    /// (`Drop` runs it again after [`Server::shutdown`], on no threads).
    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        wake_workers(self.addr, &self.workers);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests, join
    /// every thread; returns the final counters.
    pub fn shutdown(mut self) -> ServeStatsSnapshot {
        self.stop();
        self.shared.stats.snapshot()
    }
}

impl Drop for Server {
    /// For servers dropped without [`Server::shutdown`] (and for a
    /// [`Server::start`] that failed part-way): the same stop and join, so
    /// the last owner of the listener is gone and the port is released
    /// when `drop` returns.
    fn drop(&mut self) {
        self.stop();
    }
}

/// Connect to the server's own listener once per worker, so that each
/// blocked `accept(2)` returns and re-checks the shutdown flag the caller
/// has already stored. Any worker may take any of the connections, and a
/// completed connect stays in the listen backlog until one does, so a busy
/// worker finds a wake when it next accepts. A failed connect (backlog
/// full under a burst) is retried only while some worker is unfinished —
/// the burst's own connections wake workers just as well. No sleep unless
/// a connect failed.
fn wake_workers(addr: SocketAddr, workers: &[JoinHandle<()>]) {
    // A wildcard bind is not connectable everywhere; its loopback is.
    let target = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => (Ipv4Addr::LOCALHOST, addr.port()).into(),
        IpAddr::V6(ip) if ip.is_unspecified() => (Ipv6Addr::LOCALHOST, addr.port()).into(),
        _ => addr,
    };
    for _ in workers {
        while TcpStream::connect_timeout(&target, Duration::from_millis(100)).is_err()
            && workers.iter().any(|w| !w.is_finished())
        {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// The profiler context index for a routed use case (0 = none).
fn profile_ctx(use_case: UseCase) -> usize {
    1 + crate::obs::use_case_index(use_case)
}

/// One worker thread: pick the recorder once, then serve until shutdown.
/// With the planes on the worker owns one perf counter group (when
/// [`ServeConfig::hw_counters`] is on): the fds are thread-bound, so the
/// group lives exactly as long as the worker and never needs locking.
fn worker_loop(shared: &Shared, worker: usize) {
    match &shared.obs {
        Some(obs) => {
            let hw_group = shared.cfg.hw_counters.then(HwGroup::open_for_thread);
            if let Some(g) = &hw_group {
                obs.hw_backend(g.active());
            }
            accept_loop(shared, &mut obs.recorder(worker, hw_group.as_ref()));
        }
        None => accept_loop(shared, &mut NoopStages),
    }
}

/// Accept and serve connections until shutdown: the thread the kernel
/// wakes for a connection is the thread that serves it. The flag is
/// re-checked after every `accept` return: a connection that completes
/// after the stop edge (a wake, or a client racing it) is dropped
/// unaccounted, exactly like one left in the kernel backlog when the
/// listener closes.
fn accept_loop<R: BoundaryRecorder>(shared: &Shared, rec: &mut R) {
    loop {
        rec.wait(WorkerState::AcceptWait);
        let accepted = shared.listener.accept();
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                shared.stats.accepted.inc();
                handle_connection(shared, stream, rec);
            }
            Err(_) => {
                shared.stats.io_errors.inc();
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    rec.wait(WorkerState::Idle);
}

/// What one request resolves to.
struct Reply {
    status: u16,
    /// Verdict, health and refusal bodies are literals; only error text
    /// and the admin dumps own their bytes.
    body: Cow<'static, str>,
    close: bool,
    content_type: &'static str,
    /// Admin endpoints count in [`ServeStats::admin`] only.
    admin: bool,
    /// The request was a `HEAD`: the head goes out as for `GET`
    /// (`Content-Length` included) and the body stays here.
    head_only: bool,
    /// Engine use case, when the request reached the pipeline.
    use_case: Option<UseCase>,
    /// Request payload bytes handed to the engine.
    payload_bytes: u64,
    /// True when the request failed (malformed HTTP or an engine error)
    /// — the tail sampler's `error` retention class. A negative routing
    /// verdict (`422 routed="false"`) is a valid answer, not an error.
    errored: bool,
}

impl Reply {
    fn new(status: u16, body: impl Into<Cow<'static, str>>, close: bool) -> Reply {
        Reply {
            status,
            body: body.into(),
            close,
            content_type: "text/xml",
            admin: false,
            head_only: false,
            use_case: None,
            payload_bytes: 0,
            errored: false,
        }
    }
}

/// Serve one connection's keep-alive loop.
fn handle_connection<R: BoundaryRecorder>(shared: &Shared, mut stream: TcpStream, rec: &mut R) {
    let cfg = &shared.cfg;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let mut fb = FrameBuf::new();
    // Response bytes, assembled here for every reply of the connection.
    let mut out = Vec::new();
    let mut served: u32 = 0;
    // Keep-alive pinning is occupancy: the blocked read holds this worker
    // even though no request exists yet. Every reply below leaves the
    // worker in this state again.
    rec.wait(WorkerState::ReadWait);

    loop {
        let deadline = Instant::now() + cfg.read_timeout;
        let frame = match fb.read_frame(&mut stream, &cfg.limits, deadline) {
            Ok(f) => f,
            Err(WireError::Closed) => break,
            Err(WireError::TimedOut) => {
                // Mid-request stall → 408; an idle keep-alive connection
                // that never started a request is closed silently.
                if !fb.is_empty() {
                    refuse(shared, &mut stream, &mut out, 408, "<aon error=\"request timeout\"/>");
                }
                break;
            }
            Err(WireError::HeadTooLarge | WireError::BodyTooLarge) => {
                refuse(shared, &mut stream, &mut out, 413, "<aon error=\"message too large\"/>");
                break;
            }
            Err(WireError::BadFrame) => {
                refuse(shared, &mut stream, &mut out, 400, "<aon error=\"bad request\"/>");
                break;
            }
            Err(WireError::UnexpectedEof | WireError::Io(_)) => {
                shared.stats.io_errors.inc();
                break;
            }
        };

        // Frame complete: the service clock runs from here to the end of
        // the response write.
        rec.begin();
        let total = frame.total();
        served += 1;
        // Close after this response when the cap is reached or the server
        // is draining for shutdown.
        let server_close =
            served >= cfg.keepalive_max_requests || shared.shutdown.load(Ordering::Acquire);
        let mut reply = handle_request(shared, &fb.bytes()[..total], frame.body_len, rec);
        reply.close |= server_close;

        // Admin replies are never recorded — not even their write time —
        // so a scrape cannot perturb the totals it reports.
        let sent = if reply.admin {
            shared.stats.admin.inc();
            let sent = send(&mut stream, &mut out, &reply);
            rec.wait(WorkerState::ReadWait);
            sent
        } else {
            shared.stats.status(reply.status).inc();
            let sent = rec.time(Stage::Write, || send(&mut stream, &mut out, &reply));
            // The service clock stopped with the write; the sinks run off
            // it, with the worker already out of the in-service states.
            if let (Some(record), Some(obs)) = (rec.end(), &shared.obs) {
                let Reply { use_case, status, errored, payload_bytes, .. } = reply;
                obs.record(record, use_case, status, errored, payload_bytes);
            }
            sent
        };
        if sent.is_err() {
            shared.stats.io_errors.inc();
            break;
        }
        fb.consume(total);
        if reply.close {
            break;
        }
    }
}

/// Answer a wire-level error (408/413/400, straight from the connection
/// loop, which closes afterwards). Wire errors are *not* traced: the
/// failure happened before a request frame existed, so there is no span
/// tree to retain — the status counters carry them.
fn refuse(
    shared: &Shared,
    stream: &mut TcpStream,
    out: &mut Vec<u8>,
    status: u16,
    body: &'static str,
) {
    shared.stats.status(status).inc();
    let _ = send(stream, out, &Reply::new(status, body, true));
}

/// Parse, route, and process one framed request. `rec` is the worker's
/// recorder: the engine times its stages into it, and an admin reply
/// moves the worker to `Admin` on it.
fn handle_request<R: BoundaryRecorder>(
    shared: &Shared,
    msg: &[u8],
    framed_body_len: usize,
    rec: &mut R,
) -> Reply {
    let req = match http::parse_request(TBuf::msg(msg), &mut NullProbe) {
        Ok(r) => r,
        Err(_) => return bad_request("malformed request"),
    };
    // Defense in depth: the instrumented parser and the wire framer must
    // agree on the body boundary, or we refuse to serve the request.
    if req.content_length.unwrap_or(0) != framed_body_len {
        return bad_request("body length disagreement");
    }
    let Ok(body_span) = req.body_span(msg.len()) else {
        return bad_request("truncated body");
    };
    let body = &msg[body_span.start..body_span.end];
    let path = &msg[req.path.start..req.path.end];
    let close = req
        .find_header(msg, b"connection")
        .is_some_and(|v| v.trim_ascii().eq_ignore_ascii_case(b"close"));

    let mut reply = match (req.method, path) {
        (Method::Get | Method::Head, b"/health") => Reply::new(200, "<aon health=\"ok\"/>", close),
        (Method::Get | Method::Head, b"/metrics") => admin(
            rec,
            shared.obs.as_ref(),
            ServerObs::render_metrics,
            "text/plain; version=0.0.4",
            close,
        ),
        (Method::Get | Method::Head, b"/stats.json") => {
            admin(rec, Some(shared), stats_json, "application/json", close)
        }
        (Method::Get | Method::Head, b"/trace.jsonl") => admin(
            rec,
            shared.obs.as_ref().and_then(ServerObs::tracer),
            Tracer::dump_jsonl,
            "application/x-ndjson",
            close,
        ),
        (Method::Get | Method::Head, b"/profile.folded") => admin(
            rec,
            shared.obs.as_ref().and_then(ServerObs::profiler),
            Profiler::folded,
            "text/plain",
            close,
        ),
        (Method::Post, _) => match route_use_case(path) {
            Some(uc) => {
                rec.route(profile_ctx(uc));
                let outcome = shared.engine.process_mode_staged(ParseMode::Fast, uc, body, rec);
                let mut r = match outcome {
                    Ok(true) => Reply::new(200, "<aon routed=\"true\"/>", close),
                    Ok(false) => Reply::new(422, "<aon routed=\"false\"/>", close),
                    Err(e) => {
                        let mut r = Reply::new(422, format!("<aon error=\"{e}\"/>"), close);
                        r.errored = true;
                        r
                    }
                };
                r.use_case = Some(uc);
                r.payload_bytes = u64::try_from(body.len()).unwrap_or(u64::MAX);
                r
            }
            None => not_found(close),
        },
        _ => not_found(close),
    };
    reply.head_only = req.method == Method::Head;
    reply
}

/// An admin endpoint's reply — `plane` rendered with the worker already
/// in `Admin`, which no request total sees — or 404 when the plane is off.
fn admin<R: BoundaryRecorder, P>(
    rec: &mut R,
    plane: Option<P>,
    render: impl FnOnce(P) -> String,
    content_type: &'static str,
    close: bool,
) -> Reply {
    let Some(plane) = plane else { return not_found(close) };
    rec.wait(WorkerState::Admin);
    let mut r = Reply::new(200, render(plane), close);
    r.content_type = content_type;
    r.admin = true;
    r
}

/// The body of `GET /stats.json`: it reads [`ServeStats`], so it answers
/// with the planes off too, just without latency and pool occupancy.
fn stats_json(shared: &Shared) -> String {
    let obs = shared.obs.as_ref();
    shared.stats.snapshot().to_stats_json(
        obs.map(ServerObs::service_histogram_merged),
        shared.workers,
        obs.and_then(ServerObs::profiler)
            .map(|p| (p.saturation_permille(), p.worker_utilization_permille())),
    )
}

fn bad_request(why: &str) -> Reply {
    let mut r = Reply::new(400, format!("<aon error=\"{why}\"/>"), true);
    r.errored = true;
    r
}

fn not_found(close: bool) -> Reply {
    Reply::new(404, "<aon error=\"no such endpoint\"/>", close)
}

/// Map a request path onto a use case. `/aon/process`, the path the
/// corpus messages carry, routes to FR.
fn route_use_case(path: &[u8]) -> Option<UseCase> {
    match path {
        b"/aon/fr" | b"/aon/process" => Some(UseCase::Fr),
        b"/aon/cbr" => Some(UseCase::Cbr),
        b"/aon/sv" => Some(UseCase::Sv),
        b"/aon/dpi" => Some(UseCase::Dpi),
        b"/aon/crypto" => Some(UseCase::Crypto),
        _ => None,
    }
}

/// Serialize one response into `out` — the connection's buffer, so a
/// keep-alive loop allocates for its first reply only — and write it with
/// a single `write_all`. A `HEAD` answer is the head alone.
fn send<S: WireStream>(stream: &mut S, out: &mut Vec<u8>, reply: &Reply) -> Result<(), WireError> {
    let Reply { status, body, close, content_type, head_only, .. } = reply;
    out.clear();
    http::write_head(out, *status, content_type, body.len(), *close, &mut NullProbe);
    if !head_only {
        out.extend_from_slice(body.as_bytes());
    }
    write_all(stream, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_obs::reqtrace::TraceClass;
    use std::io::{Read, Write};

    fn tiny_server() -> Server {
        tiny_server_with(2)
    }

    fn tiny_server_with(workers: usize) -> Server {
        Server::start(ServeConfig {
            workers,
            read_timeout: Duration::from_millis(300),
            ..ServeConfig::default()
        })
        .expect("bind ephemeral")
    }

    /// A peer that sends half a head and stalls, returned once a worker
    /// has accepted it (and is therefore pinned until the read deadline).
    fn stalled_peer(server: &Server) -> TcpStream {
        let accepted = server.stats().accepted;
        let mut stall = TcpStream::connect(server.addr()).unwrap();
        stall.write_all(b"POST /aon/fr HTTP/1.1\r\nContent-").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().accepted == accepted {
            assert!(Instant::now() < deadline, "no worker took the stalled connection");
            std::thread::sleep(Duration::from_millis(5));
        }
        stall
    }

    fn roundtrip(addr: SocketAddr, req: &[u8]) -> Vec<u8> {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(req).unwrap();
        // Half-close so read_to_end terminates even on keep-alive replies.
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        out
    }

    fn post(path: &[u8], body: &[u8]) -> Vec<u8> {
        let mut req = Vec::new();
        req.extend_from_slice(b"POST ");
        req.extend_from_slice(path);
        req.extend_from_slice(
            format!(" HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n", body.len())
                .as_bytes(),
        );
        req.extend_from_slice(body);
        req
    }

    /// A socket stand-in that keeps what is written to it.
    #[derive(Default)]
    struct Sink(Vec<u8>);

    impl Read for Sink {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Ok(0)
        }
    }

    impl Write for Sink {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl WireStream for Sink {
        fn arm_read_timeout(&mut self, _: Duration) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_bytes_are_pinned() {
        // (status, body, close, content type, HEAD) -> exact bytes.
        type Case = (u16, &'static str, bool, &'static str, bool, &'static str);
        let table: [Case; 9] = [
            (
                200,
                "<aon routed=\"true\"/>",
                false,
                "text/xml",
                false,
                "HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Length: 20\r\n\
                 Connection: keep-alive\r\n\r\n<aon routed=\"true\"/>",
            ),
            (
                422,
                "<aon routed=\"false\"/>",
                true,
                "text/xml",
                false,
                "HTTP/1.1 422 Unprocessable Entity\r\nContent-Type: text/xml\r\n\
                 Content-Length: 21\r\nConnection: close\r\n\r\n<aon routed=\"false\"/>",
            ),
            (
                400,
                "<aon error=\"bad request\"/>",
                true,
                "text/xml",
                false,
                "HTTP/1.1 400 Bad Request\r\nContent-Type: text/xml\r\nContent-Length: 26\r\n\
                 Connection: close\r\n\r\n<aon error=\"bad request\"/>",
            ),
            (
                404,
                "<aon error=\"no such endpoint\"/>",
                false,
                "text/xml",
                false,
                "HTTP/1.1 404 Not Found\r\nContent-Type: text/xml\r\nContent-Length: 31\r\n\
                 Connection: keep-alive\r\n\r\n<aon error=\"no such endpoint\"/>",
            ),
            (
                408,
                "<aon error=\"request timeout\"/>",
                true,
                "text/xml",
                false,
                "HTTP/1.1 408 Request Timeout\r\nContent-Type: text/xml\r\nContent-Length: 30\r\n\
                 Connection: close\r\n\r\n<aon error=\"request timeout\"/>",
            ),
            (
                413,
                "<aon error=\"message too large\"/>",
                true,
                "text/xml",
                false,
                "HTTP/1.1 413 Payload Too Large\r\nContent-Type: text/xml\r\n\
                 Content-Length: 32\r\nConnection: close\r\n\r\n<aon error=\"message too large\"/>",
            ),
            (
                200,
                "{}\n",
                false,
                "application/json",
                false,
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 3\r\n\
                 Connection: keep-alive\r\n\r\n{}\n",
            ),
            // HEAD: the GET head, `Content-Length` included, and no body.
            (
                200,
                "<aon health=\"ok\"/>",
                false,
                "text/xml",
                true,
                "HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Length: 18\r\n\
                 Connection: keep-alive\r\n\r\n",
            ),
            (
                404,
                "<aon error=\"no such endpoint\"/>",
                true,
                "text/xml",
                true,
                "HTTP/1.1 404 Not Found\r\nContent-Type: text/xml\r\nContent-Length: 31\r\n\
                 Connection: close\r\n\r\n",
            ),
        ];
        // One buffer for all, as a keep-alive connection has: a reply must
        // not depend on what the buffer held before.
        let mut out = b"left over from the previous reply".to_vec();
        for (status, body, close, content_type, head_only, want) in table {
            let reply = Reply { content_type, head_only, ..Reply::new(status, body, close) };
            let mut sink = Sink::default();
            send(&mut sink, &mut out, &reply).unwrap();
            assert_eq!(String::from_utf8_lossy(&sink.0), want, "status {status}");
        }
    }

    #[test]
    fn a_zero_capacity_trace_ring_is_refused_at_start() {
        let trace = TraceConfig { capacity: 0, ..TraceConfig::default() };
        let cfg = ServeConfig { workers: 1, trace: trace.clone(), ..ServeConfig::default() };
        let err = Server::start(cfg).err().expect("a ring that retains nothing is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("trace.capacity"), "{err}");
        // No tracer, no ring: the capacity is never read.
        let off = TraceConfig { enabled: false, ..trace.clone() };
        for cfg in [
            ServeConfig { workers: 1, trace: off, ..ServeConfig::default() },
            ServeConfig { workers: 1, observe: false, trace, ..ServeConfig::default() },
        ] {
            Server::start(cfg).expect("starts").shutdown();
        }
    }

    #[test]
    fn serves_health_and_routes_use_cases() {
        let server = tiny_server();
        let addr = server.addr();
        let got = roundtrip(addr, b"GET /health HTTP/1.1\r\n\r\n");
        assert!(got.starts_with(b"HTTP/1.1 200"), "{}", String::from_utf8_lossy(&got));

        let corpus = aon_server::Corpus::generate(42, 4);
        let v = &corpus.variants[0]; // cbr_match = true, sv_valid = true
        let body = &v.http[v.body_start..];
        for (path, expect) in [
            (&b"/aon/fr"[..], &b"HTTP/1.1 200"[..]),
            (b"/aon/cbr", b"HTTP/1.1 200"),
            (b"/aon/sv", b"HTTP/1.1 200"),
        ] {
            let got = roundtrip(addr, &post(path, body));
            assert!(
                got.starts_with(expect),
                "{}: {}",
                String::from_utf8_lossy(path),
                String::from_utf8_lossy(&got[..40.min(got.len())])
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.requests_ok, 4);
        assert_eq!(stats.protocol_errors(), 0);
    }

    #[test]
    fn the_corpus_path_is_served_exactly_as_fr() {
        let server = tiny_server();
        for path in [&b"/aon/process"[..], b"/aon/fr"] {
            let got = roundtrip(server.addr(), &post(path, b"not xml at all"));
            let text = String::from_utf8_lossy(&got);
            assert!(text.starts_with("HTTP/1.1 200"), "{}: {text}", String::from_utf8_lossy(path));
            assert!(text.ends_with("<aon routed=\"true\"/>"), "{text}");
        }
        let metrics = server.metrics_text().expect("observability on");
        assert!(metrics.contains("aon_requests_total{use_case=\"FR\",outcome=\"ok\"} 2"));
        assert_eq!(server.shutdown().requests_ok, 2);
    }

    #[test]
    fn stats_json_bytes_are_pinned_for_its_three_shapes() {
        let snap = ServeStatsSnapshot {
            accepted: 3,
            queue_depth_hwm: 2,
            requests_ok: 7,
            bad_request: 1,
            admin_requests: 4,
            ..Default::default()
        };
        let counters = "{\n  \"accepted\": 3,\n  \"dropped_backlog\": 0,\n  \
            \"rejected_closed\": 0,\n  \"queue_depth_hwm\": 2,\n  \"requests_ok\": 7,\n  \
            \"requests_rejected\": 0,\n  \"not_found\": 0,\n  \
            \"bad_request\": 1,\n  \"too_large\": 0,\n  \"timeouts\": 0,\n  \"io_errors\": 0,\n  \
            \"admin_requests\": 4,\n  \"protocol_errors\": 1";
        // Observability off.
        assert_eq!(
            snap.to_stats_json(None, 2, None),
            format!("{counters},\n  \"worker_pool\": {{ \"workers\": 2 }}\n}}\n")
        );
        // On: two 1000 ns requests sit in the [512, 1023] bucket.
        let h = aon_obs::metric::Histogram::new();
        h.record(1000);
        h.record(1000);
        let latency = "  \"service_latency_ns\": { \"count\": 2, \"p50\": 1023, \"p99\": 1023, \
            \"p999\": 895 }";
        assert_eq!(
            snap.to_stats_json(Some(h.snapshot()), 2, None),
            format!("{counters},\n{latency},\n  \"worker_pool\": {{ \"workers\": 2 }}\n}}\n")
        );
        // On with the profiler.
        assert_eq!(
            snap.to_stats_json(Some(h.snapshot()), 2, Some((500, vec![1000, 0]))),
            format!(
                "{counters},\n{latency},\n  \"worker_pool\": {{ \"workers\": 2, \
                 \"saturation_permille\": 500, \"busy_permille\": [1000, 0] }}\n}}\n"
            )
        );
    }

    #[test]
    fn served_outcomes_match_the_scalar_reference() {
        let corpus = aon_server::Corpus::generate(99, 6);
        let mut bodies: Vec<&[u8]> =
            corpus.variants.iter().map(|v| &v.http[v.body_start..]).collect();
        // Garbage bodies must be rejected identically, not differently.
        bodies.extend([&b"\xff\xfe"[..], b"<unclosed", b"<notsoap/>"]);
        let engine = Engine::new();
        let server =
            Server::start(ServeConfig { workers: 2, ..ServeConfig::default() }).expect("bind");
        for body in bodies {
            for (path, uc) in [(&b"/aon/cbr"[..], UseCase::Cbr), (b"/aon/sv", UseCase::Sv)] {
                let got = roundtrip(server.addr(), &post(path, body));
                let status: u16 = String::from_utf8_lossy(&got[9..12]).parse().unwrap();
                let reference = engine.process_mode_staged(
                    ParseMode::Scalar,
                    uc,
                    body,
                    &mut aon_obs::stage::NoopStages,
                );
                let want = if reference == Ok(true) { 200 } else { 422 };
                assert_eq!(status, want, "{uc:?} on {:?}", String::from_utf8_lossy(body));
            }
        }
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400_and_unknown_paths_404() {
        let server = tiny_server();
        let addr = server.addr();
        let got = roundtrip(addr, b"POST / HTTP/1.1\r\nX: a\nEvil: b\r\n\r\n");
        assert!(got.starts_with(b"HTTP/1.1 400"), "{}", String::from_utf8_lossy(&got));
        let got = roundtrip(addr, b"POST /nope HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        assert!(got.starts_with(b"HTTP/1.1 404"), "{}", String::from_utf8_lossy(&got));
        let got = roundtrip(addr, b"GET /flight.jsonl HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(got.starts_with(b"HTTP/1.1 404"), "{}", String::from_utf8_lossy(&got));
        let stats = server.shutdown();
        assert_eq!(stats.bad_request, 1);
        assert_eq!(stats.not_found, 2);
    }

    #[test]
    fn oversized_body_gets_413() {
        let server = Server::start(ServeConfig {
            workers: 1,
            limits: WireLimits { max_head: 1024, max_body: 64 },
            ..ServeConfig::default()
        })
        .expect("bind");
        let got =
            roundtrip(server.addr(), b"POST /aon/fr HTTP/1.1\r\nContent-Length: 100000\r\n\r\n");
        assert!(got.starts_with(b"HTTP/1.1 413"), "{}", String::from_utf8_lossy(&got));
        assert_eq!(server.shutdown().too_large, 1);
    }

    #[test]
    fn stalled_request_gets_408() {
        let server = Server::start(ServeConfig {
            workers: 1,
            read_timeout: Duration::from_millis(60),
            ..ServeConfig::default()
        })
        .expect("bind");
        let mut s = TcpStream::connect(server.addr()).unwrap();
        // Send half a head, then stall past the deadline.
        s.write_all(b"POST /aon/fr HTTP/1.1\r\nContent-").unwrap();
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        assert!(out.starts_with(b"HTTP/1.1 408"), "{}", String::from_utf8_lossy(&out));
        assert_eq!(server.shutdown().timeouts, 1);
    }

    #[test]
    fn keepalive_serves_multiple_requests_then_caps() {
        let server = Server::start(ServeConfig {
            workers: 1,
            keepalive_max_requests: 3,
            ..ServeConfig::default()
        })
        .expect("bind");
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let req = b"GET /health HTTP/1.1\r\n\r\n";
        let mut served = 0u32;
        let mut buf = [0u8; 4096];
        for i in 0..3 {
            s.write_all(req).unwrap();
            let n = s.read(&mut buf).unwrap();
            assert!(n > 0);
            let text = String::from_utf8_lossy(&buf[..n]);
            assert!(text.starts_with("HTTP/1.1 200"));
            served += 1;
            let expect_close = i == 2;
            assert_eq!(text.contains("Connection: close"), expect_close, "request {i}: {text}");
        }
        assert_eq!(served, 3);
        // The capped connection is now closed by the server.
        let n = s.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "server must close after the keep-alive cap");
        assert_eq!(server.shutdown().requests_ok, 3);
    }

    #[test]
    fn head_answers_are_bare_heads_and_the_connection_stays_in_frame() {
        let server = tiny_server_with(1);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        for path in ["/health", "/metrics", "/stats.json", "/trace.jsonl", "/profile.folded", "/no"]
        {
            s.write_all(format!("HEAD {path} HTTP/1.1\r\n\r\n").as_bytes()).unwrap();
        }
        s.write_all(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        let text = String::from_utf8_lossy(&out);
        // A HEAD answer is the GET head, length included, and nothing else:
        // a body byte would sit in front of the next piece's status line.
        let pieces: Vec<&str> = text.split_inclusive("\r\n\r\n").collect();
        assert_eq!(pieces.len(), 8, "seven heads and the one GET body: {text}");
        for (head, status) in pieces[..7].iter().zip([200, 200, 200, 200, 200, 404, 200]) {
            assert!(head.starts_with(&format!("HTTP/1.1 {status} ")), "{head}");
        }
        assert!(pieces[0].contains("Content-Length: 18\r\n"), "{}", pieces[0]);
        assert_eq!(pieces[7], "<aon health=\"ok\"/>");
        let stats = server.shutdown();
        assert_eq!((stats.requests_ok, stats.not_found, stats.admin_requests), (2, 1, 4));
    }

    #[test]
    fn connections_behind_a_pinned_worker_wait_in_the_backlog_and_are_all_served() {
        use aon_obs::reqtrace::ParsedTrace;
        let server = Server::start(ServeConfig {
            workers: 1,
            read_timeout: Duration::from_millis(400),
            // Keep every trace: their ids are the order of service.
            trace: TraceConfig { sample_per_million: 1_000_000, ..TraceConfig::default() },
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        // Occupy the only worker with a stalled request...
        let mut stall = stalled_peer(&server);
        // ...and queue three whole requests behind it, told apart by use
        // case. The kernel's listen backlog holds them; nothing refuses.
        let corpus = aon_server::Corpus::generate(42, 4);
        let v = &corpus.variants[0]; // cbr_match = true, sv_valid = true
        let body = &v.http[v.body_start..];
        let queued: Vec<TcpStream> = [&b"/aon/fr"[..], b"/aon/cbr", b"/aon/sv"]
            .into_iter()
            .map(|path| {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(&post(path, body)).unwrap();
                s
            })
            .collect();
        assert_eq!(server.stats().accepted, 1, "the pinned worker accepts nothing meanwhile");
        // What the server shows of the overload: the whole pool occupied.
        let deadline = Instant::now() + Duration::from_millis(300);
        while server.profiler().expect("profiler on by default").saturation_permille() < 1000 {
            assert!(Instant::now() < deadline, "saturation never reached 1000 within the stall");
            std::thread::sleep(Duration::from_millis(5));
        }

        let mut out = Vec::new();
        stall.read_to_end(&mut out).unwrap();
        assert!(out.starts_with(b"HTTP/1.1 408"), "{}", String::from_utf8_lossy(&out));
        for mut s in queued {
            out.clear();
            s.read_to_end(&mut out).unwrap();
            assert!(out.starts_with(b"HTTP/1.1 200"), "{}", String::from_utf8_lossy(&out));
        }
        let mut traces =
            ParsedTrace::parse_jsonl(&server.trace_jsonl().expect("tracing on")).expect("valid");
        traces.sort_by_key(|t| t.id);
        let served: Vec<&str> = traces.iter().map(|t| t.use_case.as_str()).collect();
        assert_eq!(served, ["FR", "CBR", "SV"], "served in arrival order");

        let stats = server.shutdown();
        assert_eq!((stats.accepted, stats.timeouts, stats.requests_ok), (4, 1, 3), "{stats:?}");
        assert_eq!(stats.accepted, stats.requests_total());
        assert_eq!(stats.dropped_backlog + stats.rejected_closed + stats.io_errors, 0);
    }

    #[test]
    fn graceful_shutdown_reports_consistent_totals() {
        let server = tiny_server();
        let addr = server.addr();
        for _ in 0..5 {
            let got = roundtrip(addr, b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n");
            assert!(got.starts_with(b"HTTP/1.1 200"));
        }
        let stats = server.shutdown();
        assert_eq!(stats.requests_ok, 5);
        assert_eq!(stats.accepted, 5);
        assert_eq!(stats.requests_total(), 5);
    }

    #[test]
    fn metrics_endpoint_reports_exact_request_totals() {
        let server = tiny_server();
        let addr = server.addr();
        let corpus = aon_server::Corpus::generate(42, 6);
        let mut expect_ok = 0u64;
        let mut expect_rejected = 0u64;
        for v in &corpus.variants {
            let body = &v.http[v.body_start..];
            let got = roundtrip(addr, &post(b"/aon/cbr", body));
            if v.cbr_match {
                expect_ok += 1;
                assert!(got.starts_with(b"HTTP/1.1 200"));
            } else {
                expect_rejected += 1;
                assert!(got.starts_with(b"HTTP/1.1 422"));
            }
        }
        assert!(expect_ok > 0 && expect_rejected > 0, "corpus must mix outcomes");

        // Scrape twice: the scrape itself must not move any request total.
        let first = roundtrip(addr, b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        let text1 = String::from_utf8_lossy(&first).to_string();
        assert!(text1.starts_with("HTTP/1.1 200"), "{text1}");
        assert!(text1.contains("Content-Type: text/plain; version=0.0.4"), "{text1}");
        let second = roundtrip(addr, b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        let text2 = String::from_utf8_lossy(&second).to_string();

        for text in [&text1, &text2] {
            assert!(
                text.contains(&format!(
                    "aon_requests_total{{use_case=\"CBR\",outcome=\"ok\"}} {expect_ok}"
                )),
                "{text}"
            );
            assert!(text.contains(&format!(
                "aon_requests_total{{use_case=\"CBR\",outcome=\"rejected\"}} {expect_rejected}"
            )));
            assert!(text.contains("aon_stage_duration_ns_bucket{use_case=\"CBR\",stage=\"parse\""));
            assert!(text.contains("aon_stage_duration_ns_bucket{use_case=\"CBR\",stage=\"write\""));
        }
        // The second scrape sees the first only in the admin counter.
        assert!(text1.contains("aon_admin_requests_total 0"), "{text1}");
        assert!(text2.contains("aon_admin_requests_total 1"), "{text2}");

        let stats = server.shutdown();
        assert_eq!(stats.requests_ok, expect_ok);
        assert_eq!(stats.requests_rejected, expect_rejected);
        assert_eq!(stats.admin_requests, 2);
    }

    /// Every family `/metrics` can expose, with its kind and the label
    /// keys of its series, and every value of each bounded label key: the
    /// catalogue dashboards and `aon-report` are written against.
    #[test]
    fn metrics_catalogue_is_pinned() {
        use std::collections::{BTreeMap, BTreeSet};
        // Every plane on; `hw_counters` registers `aon_hw_*` whatever the
        // PMU says.
        let server =
            Server::start(ServeConfig { workers: 1, hw_counters: true, ..ServeConfig::default() })
                .expect("bind");
        let text = server.metrics_text().expect("observability on");
        server.shutdown();

        let mut families: BTreeMap<&str, (&str, BTreeSet<String>)> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split_once(' ').expect("name and kind"))
            .map(|(name, kind)| (name, (kind, BTreeSet::new())))
            .collect();
        let mut values: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for sample in aon_obs::scrape::parse_prometheus(&text) {
            // A histogram's samples carry a suffix and `le`; neither is
            // the family's own.
            let name = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| sample.name.strip_suffix(suffix))
                .filter(|stem| families.contains_key(stem))
                .unwrap_or(&sample.name);
            let keys = &mut families.get_mut(name).expect("a sample of a declared family").1;
            for (key, value) in sample.labels.into_iter().filter(|(k, _)| k != "le") {
                keys.insert(key.clone());
                values.entry(key).or_default().insert(value);
            }
        }
        // `worker` grows with the pool; every other key is a closed set,
        // so a series the server no longer produces cannot come back.
        let got_values: Vec<String> = values
            .iter()
            .filter(|(key, _)| *key != "worker")
            .map(|(key, vs)| format!("{key}: {}", vs.iter().cloned().collect::<Vec<_>>().join(",")))
            .collect();
        let want_values = [
            "class: error,sampled,slow",
            "event: branch_miss,cycles,instructions,l1d_miss,llc_miss",
            "kind: keep,sampled",
            "outcome: ok,rejected",
            "stage: crypto,dpi,parse,validate,write,xpath",
            "state: accept_wait,admin,crypto,dpi,idle,parse,read_wait,validate,write,xpath",
            "status: 200,400,404,408,413,422",
            "use_case: CBR,CRYPTO,DPI,FR,SV",
        ];
        assert_eq!(got_values, want_values, "{text}");
        let got: Vec<String> = families
            .iter()
            .map(|(name, (kind, keys))| {
                format!("{name} {kind} {}", keys.iter().cloned().collect::<Vec<_>>().join(","))
            })
            .collect();
        let want = [
            "aon_admin_requests_total counter ",
            "aon_connections_accepted_total counter ",
            "aon_http_responses_total counter status",
            "aon_hw_backend_active gauge ",
            "aon_hw_events_total counter event,stage,use_case",
            "aon_payload_bytes_total counter use_case",
            "aon_pool_busy_ns gauge ",
            "aon_pool_in_service_ns gauge ",
            "aon_pool_saturation_permille gauge ",
            "aon_request_duration_ns histogram use_case",
            "aon_requests_total counter outcome,use_case",
            "aon_stage_duration_ns histogram stage,use_case",
            "aon_trace_dropped_total counter kind",
            "aon_trace_kept_total counter class",
            "aon_worker_state_ns gauge state",
            "aon_worker_utilization_permille gauge worker",
        ];
        assert_eq!(got, want, "{text}");
    }

    #[test]
    fn stats_json_endpoint_serves_observability_state() {
        let server = tiny_server();
        let addr = server.addr();
        let corpus = aon_server::Corpus::generate(7, 2);
        let body = &corpus.variants[0].http[corpus.variants[0].body_start..];
        let got = roundtrip(addr, &post(b"/aon/sv", body));
        assert!(got.starts_with(b"HTTP/1.1 200"), "{}", String::from_utf8_lossy(&got));

        let got = roundtrip(addr, b"GET /stats.json HTTP/1.1\r\nConnection: close\r\n\r\n");
        let text = String::from_utf8_lossy(&got);
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("Content-Type: application/json"));
        assert!(text.contains("\"requests_ok\": 1"), "{text}");
        assert!(text.contains("\"queue_depth_hwm\": 0"), "no user-space queue: {text}");
        assert!(text.contains("\"admin_requests\": 0"), "{text}");

        let metrics = server.metrics_text().expect("observability on");
        let samples = aon_obs::scrape::parse_prometheus(&metrics);
        for stage in ["validate", "write"] {
            let cell = [("use_case", "SV"), ("stage", stage)];
            let n = aon_obs::scrape::sum_samples(&samples, "aon_stage_duration_ns_count", &cell);
            assert_eq!(n, 1.0, "{stage}: {metrics}");
        }
        let stats = server.shutdown();
        assert_eq!(stats.admin_requests, 1);
        assert_eq!(stats.requests_total(), 1, "admin hits are not requests");
    }

    #[test]
    fn trace_endpoint_serves_complete_span_trees_without_perturbing_totals() {
        use aon_obs::reqtrace::ParsedTrace;
        let server = Server::start(ServeConfig {
            workers: 1,
            // Sample everything so the one request is provably retained
            // regardless of its latency class.
            trace: TraceConfig { sample_per_million: 1_000_000, ..TraceConfig::default() },
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        let corpus = aon_server::Corpus::generate(7, 2);
        let body = &corpus.variants[0].http[corpus.variants[0].body_start..];
        let got = roundtrip(addr, &post(b"/aon/sv", body));
        assert!(got.starts_with(b"HTTP/1.1 200"), "{}", String::from_utf8_lossy(&got));

        let got = roundtrip(addr, b"GET /trace.jsonl HTTP/1.1\r\nConnection: close\r\n\r\n");
        let text = String::from_utf8_lossy(&got);
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("Content-Type: application/x-ndjson"), "{text}");
        let body_start = text.find("\r\n\r\n").expect("has body") + 4;
        let traces = ParsedTrace::parse_jsonl(&text[body_start..]).expect("valid trace JSONL");
        assert_eq!(traces.len(), 1, "exactly the one POST is traced — never the admin GETs");
        let t = &traces[0];
        t.tree_complete().expect("span tree complete");
        assert_eq!(t.use_case, "SV");
        assert_eq!(t.status, 200);
        assert!(t.span_ns("validate") > 0, "SV runs the validate stage: {:?}", t.spans);
        assert!(t.span_ns("write") > 0, "response write is a span");

        let stats = server.shutdown();
        assert_eq!(stats.requests_total(), 1, "trace reads never perturb request totals");
        assert_eq!(stats.admin_requests, 1);
    }

    #[test]
    fn tail_sampler_always_keeps_errored_requests_even_with_sampling_off() {
        let server = Server::start(ServeConfig {
            workers: 1,
            // Reservoir rate zero: only the always-keep classes survive.
            trace: TraceConfig { sample_per_million: 0, ..TraceConfig::default() },
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        let corpus = aon_server::Corpus::generate(42, 2);
        let body = &corpus.variants[0].http[corpus.variants[0].body_start..];

        let got = roundtrip(addr, &post(b"/aon/fr", body));
        assert!(got.starts_with(b"HTTP/1.1 200"), "a fast, unsampled FR is discarded");
        let got = roundtrip(addr, &post(b"/aon/sv", b"<unclosed"));
        let text = String::from_utf8_lossy(&got);
        assert!(text.starts_with("HTTP/1.1 422"), "a malformed SV body is an error: {text}");

        let tracer = server.tracer().expect("tracing on by default");
        assert_eq!(tracer.dropped_keep(), 0, "no always-keep trace may ever be evicted");
        let dump = server.trace_jsonl().expect("tracing on");
        let traces = aon_obs::reqtrace::ParsedTrace::parse_jsonl(&dump).expect("valid");
        assert_eq!(traces.len(), 1, "only the errored request is retained: {dump}");
        assert_eq!((traces[0].class, traces[0].status), (TraceClass::Error, 422));
        assert_eq!(traces[0].use_case, "SV");
        traces[0].tree_complete().expect("span tree complete");

        let metrics = server.metrics_text().expect("observability on");
        assert!(metrics.contains("aon_trace_kept_total{class=\"error\"} 1"), "{metrics}");
        assert!(metrics.contains("aon_trace_dropped_total{kind=\"keep\"} 0"));
        server.shutdown();
    }

    #[test]
    fn tracing_off_disables_trace_endpoint_and_families() {
        let server = Server::start(ServeConfig {
            workers: 1,
            trace: TraceConfig { enabled: false, ..TraceConfig::default() },
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        assert!(server.trace_jsonl().is_none());
        assert!(server.tracer().is_none());
        let got = roundtrip(addr, b"GET /trace.jsonl HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(got.starts_with(b"HTTP/1.1 404"), "{}", String::from_utf8_lossy(&got));
        let metrics = server.metrics_text().expect("observability on");
        assert!(!metrics.contains("aon_trace_"), "no dead trace series: {metrics}");
        server.shutdown();
    }

    #[test]
    fn stats_json_carries_bucket_derived_latency_percentiles() {
        let server = tiny_server();
        let addr = server.addr();
        let corpus = aon_server::Corpus::generate(42, 2);
        let body = &corpus.variants[0].http[corpus.variants[0].body_start..];
        let got = roundtrip(addr, &post(b"/aon/fr", body));
        assert!(got.starts_with(b"HTTP/1.1 200"));
        let got = roundtrip(addr, b"GET /stats.json HTTP/1.1\r\nConnection: close\r\n\r\n");
        let text = String::from_utf8_lossy(&got);
        assert!(text.contains("\"service_latency_ns\""), "{text}");
        assert!(text.contains("\"p999\":"), "{text}");
        assert!(
            text.contains("\"count\": 1"),
            "the FR request is in the service histogram: {text}"
        );
        server.shutdown();
    }

    #[test]
    fn profiler_off_disables_endpoint_and_families() {
        let server =
            Server::start(ServeConfig { workers: 1, profiler: false, ..ServeConfig::default() })
                .expect("bind");
        let addr = server.addr();
        assert!(server.profiler().is_none());
        assert!(server.profile_folded().is_none());
        let got = roundtrip(addr, b"GET /profile.folded HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(got.starts_with(b"HTTP/1.1 404"), "{}", String::from_utf8_lossy(&got));
        let metrics = server.metrics_text().expect("observability on");
        assert!(!metrics.contains("aon_worker_"), "no dead profiler series: {metrics}");
        assert!(!metrics.contains("aon_pool_"), "{metrics}");
        server.shutdown();
    }

    #[test]
    fn profile_folded_serves_worker_states_without_perturbing_totals() {
        let server = tiny_server();
        let addr = server.addr();
        let corpus = aon_server::Corpus::generate(7, 2);
        let body = &corpus.variants[0].http[corpus.variants[0].body_start..];
        let got = roundtrip(addr, &post(b"/aon/sv", body));
        assert!(got.starts_with(b"HTTP/1.1 200"), "{}", String::from_utf8_lossy(&got));

        let got = roundtrip(addr, b"GET /profile.folded HTTP/1.1\r\nConnection: close\r\n\r\n");
        let text = String::from_utf8_lossy(&got);
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("Content-Type: text/plain"), "{text}");
        let folded_start = text.find("\r\n\r\n").expect("has body") + 4;
        for line in text[folded_start..].lines() {
            let (frames, count) = line.rsplit_once(' ').expect("folded grammar");
            assert!(count.parse::<u64>().is_ok(), "{line}");
            assert_eq!(frames.split(';').count(), 2, "{line}");
        }
        assert!(text.contains("SV;validate "), "the request's own cell: {text}");
        // Both workers have waited in accept(2), so the per-state ledger
        // in /metrics shows it.
        let metrics = server.metrics_text().expect("observability on");
        let samples = aon_obs::scrape::parse_prometheus(&metrics);
        let accept_wait = [("state", "accept_wait")];
        assert!(aon_obs::scrape::sum_samples(&samples, "aon_worker_state_ns", &accept_wait) > 0.0);

        let stats = server.shutdown();
        assert_eq!(stats.requests_total(), 1, "profile reads never perturb request totals");
        assert_eq!(stats.admin_requests, 1);
    }

    #[test]
    fn stats_json_reports_worker_pool_shape() {
        let server = tiny_server();
        let addr = server.addr();
        assert_eq!(server.worker_count(), 2);
        let got = roundtrip(addr, b"GET /stats.json HTTP/1.1\r\nConnection: close\r\n\r\n");
        let text = String::from_utf8_lossy(&got);
        assert!(text.contains("\"worker_pool\""), "{text}");
        assert!(text.contains("\"workers\": 2"), "{text}");
        assert!(text.contains("\"saturation_permille\":"), "{text}");
        assert!(text.contains("\"busy_permille\": ["), "{text}");
        server.shutdown();

        // Profiler off: the pool size still surfaces (no more inferring
        // worker count from configuration), just without live saturation.
        let server =
            Server::start(ServeConfig { workers: 3, profiler: false, ..ServeConfig::default() })
                .expect("bind");
        let got =
            roundtrip(server.addr(), b"GET /stats.json HTTP/1.1\r\nConnection: close\r\n\r\n");
        let text = String::from_utf8_lossy(&got);
        assert!(text.contains("\"workers\": 3"), "{text}");
        assert!(!text.contains("saturation_permille"), "{text}");
        server.shutdown();
    }

    #[test]
    fn exemplars_link_latency_buckets_to_kept_traces() {
        use aon_obs::reqtrace::ParsedTrace;
        let server = Server::start(ServeConfig {
            workers: 1,
            // Sample everything: the request is provably kept, so its id
            // must appear both as an exemplar and in /trace.jsonl.
            trace: TraceConfig { sample_per_million: 1_000_000, ..TraceConfig::default() },
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        let corpus = aon_server::Corpus::generate(7, 2);
        let body = &corpus.variants[0].http[corpus.variants[0].body_start..];
        let got = roundtrip(addr, &post(b"/aon/sv", body));
        assert!(got.starts_with(b"HTTP/1.1 200"), "{}", String::from_utf8_lossy(&got));

        let metrics = server.metrics_text().expect("observability on");
        let samples = aon_obs::scrape::parse_prometheus(&metrics);
        let exemplar = samples
            .iter()
            .filter(|s| s.name == "aon_request_duration_ns_bucket")
            .find_map(|s| s.exemplar.as_ref())
            .expect("a service bucket carries an exemplar");
        let id: u64 = exemplar.label("trace_id").expect("trace_id label").parse().expect("id");
        assert!(exemplar.value > 0.0, "exemplar value is the observed service time");

        let dump = server.trace_jsonl().expect("tracing on");
        let traces = ParsedTrace::parse_jsonl(&dump).expect("valid trace JSONL");
        assert!(
            traces.iter().any(|t| t.id == id),
            "exemplar trace id {id} must resolve in /trace.jsonl: {dump}"
        );
        server.shutdown();
    }

    #[test]
    fn observability_off_disables_admin_metrics() {
        // Every plane's own switch left on (and the hardware plane asked
        // for): `observe` is the master switch over all of them.
        let server = Server::start(ServeConfig {
            workers: 1,
            observe: false,
            hw_counters: true,
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        assert!(server.metrics_text().is_none());
        assert!(server.tracer().is_none() && server.trace_jsonl().is_none());
        assert!(server.profiler().is_none() && server.profile_folded().is_none());
        let corpus = aon_server::Corpus::generate(42, 2);
        let body = &corpus.variants[0].http[corpus.variants[0].body_start..];
        for path in [&b"/aon/fr"[..], b"/aon/cbr", b"/aon/sv"] {
            let got = roundtrip(addr, &post(path, body));
            assert!(got.starts_with(b"HTTP/1.1 200"), "{}", String::from_utf8_lossy(&got));
        }
        for path in ["/metrics", "/trace.jsonl", "/profile.folded"] {
            let req = format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n");
            let got = roundtrip(addr, req.as_bytes());
            assert!(got.starts_with(b"HTTP/1.1 404"), "{path}: {}", String::from_utf8_lossy(&got));
        }
        // /stats.json works regardless: it reads ServeStats, not the registry.
        let got = roundtrip(addr, b"GET /stats.json HTTP/1.1\r\nConnection: close\r\n\r\n");
        let text = String::from_utf8_lossy(&got);
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("\"accepted\": 7"), "{text}");
        assert!(text.contains("\"requests_ok\": 3"), "{text}");
        assert!(text.contains("\"not_found\": 3"), "{text}");
        assert!(!text.contains("service_latency_ns"), "no histogram to read: {text}");
        let stats = server.shutdown();
        let want = ServeStatsSnapshot {
            accepted: 7,
            requests_ok: 3,
            not_found: 3,
            admin_requests: 1,
            ..Default::default()
        };
        assert_eq!(stats, want);
    }

    /// Little's law by construction: the profiler's in-service ledger and
    /// the service-time histogram are sums of the same clock reads.
    #[test]
    fn in_service_ledger_equals_the_service_time_histogram_sum() {
        let server = tiny_server_with(1);
        let corpus = aon_server::Corpus::generate(42, 4);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 4096];
        let mut sent = 0u64;
        // Use-case POSTs only: an admin hit or a `/health` is in service
        // for a while without ever reaching a use-case histogram.
        for _ in 0..25 {
            for v in &corpus.variants {
                for path in [&b"/aon/fr"[..], b"/aon/cbr", b"/aon/sv"] {
                    let body = &v.http[v.body_start..];
                    let head = format!(" HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len());
                    s.write_all(&[b"POST ", path, head.as_bytes(), body].concat()).unwrap();
                    assert!(s.read(&mut buf).unwrap() > 0);
                    sent += 1;
                }
            }
        }
        drop(s);
        // Quiesce: joining the worker publishes everything it recorded.
        let shared = Arc::clone(&server.shared);
        let stats = server.shutdown();
        assert_eq!((stats.requests_total(), sent), (300, 300));
        let obs = shared.obs.as_ref().expect("observability on");
        let service = obs.service_histogram_merged();
        assert_eq!(service.count, sent);
        let ledger = obs.profiler().expect("profiler on by default").slots().in_service_ns_total();
        assert_eq!(ledger, service.sum, "L's ledger and W's histogram, to the nanosecond");
    }

    /// `shutdown()` on its own thread, so a wake that never lands fails
    /// the test instead of hanging the suite.
    fn shutdown_within(server: Server, limit: Duration) -> ServeStatsSnapshot {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(server.shutdown()));
        rx.recv_timeout(limit).expect("shutdown must wake the blocked workers and join")
    }

    #[test]
    fn idle_shutdown_is_prompt_and_the_wake_is_unaccounted() {
        // No thread polls on a timer: only the explicit wakes (a connect
        // per blocked worker) can end it.
        let server = Server::start(ServeConfig::default()).expect("bind");
        let shared = Arc::clone(&server.shared);
        let stats = shutdown_within(server, Duration::from_secs(1));
        assert_eq!(stats, ServeStatsSnapshot::default(), "the wake connection counts nowhere");
        let metrics = shared.obs.as_ref().expect("observability on").render_metrics();
        assert!(metrics.contains("aon_connections_accepted_total 0"), "{metrics}");
    }

    #[test]
    fn wildcard_binds_shut_down_via_their_loopback() {
        for addr in ["0.0.0.0:0", "[::]:0"] {
            let cfg = ServeConfig { addr: addr.to_string(), workers: 1, ..ServeConfig::default() };
            match Server::start(cfg) {
                Ok(server) => {
                    assert!(server.addr().ip().is_unspecified());
                    assert_eq!(shutdown_within(server, Duration::from_secs(5)).accepted, 0);
                }
                // A host without IPv6 cannot bind `[::]`; IPv4 must work.
                Err(e) => assert!(addr.starts_with('['), "{addr}: {e}"),
            }
        }
    }

    #[test]
    fn dropped_server_releases_its_port() {
        let server = tiny_server();
        let addr = server.addr();
        drop(server);
        // Drop joined every owner of the listener, so the socket is already
        // closed; the deadline only absorbs a host slow to tear the port
        // down.
        let deadline = Instant::now() + Duration::from_secs(5);
        while TcpStream::connect(addr).is_ok() {
            assert!(Instant::now() < deadline, "still listening after drop");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn shutdown_with_one_worker_pinned_and_one_in_accept_joins_after_the_408() {
        let server = tiny_server(); // 2 workers, 300 ms read timeout
        let mut stall = stalled_peer(&server);
        // One wake ends the worker blocked in accept at once; the pinned
        // one answers its request first and finds its wake afterwards.
        let stats = shutdown_within(server, Duration::from_millis(300) + Duration::from_secs(2));
        let mut out = Vec::new();
        stall.read_to_end(&mut out).unwrap();
        assert!(out.starts_with(b"HTTP/1.1 408"), "{}", String::from_utf8_lossy(&out));
        let want = ServeStatsSnapshot { accepted: 1, timeouts: 1, ..Default::default() };
        assert_eq!(stats, want, "the wake connections count nowhere");
    }

    #[test]
    fn shutdown_racing_one_shot_connects_accounts_every_accepted_connection() {
        shutdown_racing_one_shot_connects(2);
    }

    #[test]
    fn shutdown_racing_a_burst_on_a_single_worker_accounts_every_accepted_connection() {
        shutdown_racing_one_shot_connects(1);
    }

    fn shutdown_racing_one_shot_connects(workers: usize) {
        let server = tiny_server_with(workers);
        let addr = server.addr();
        // One-shot clients that hammer the listener until it goes away;
        // each returns how many complete 200s it read.
        let clients: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut answered = 0u64;
                    loop {
                        let Ok(mut s) = TcpStream::connect(addr) else { break };
                        let mut out = Vec::new();
                        let sent =
                            s.write_all(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n");
                        if sent.is_err() || s.read_to_end(&mut out).is_err() || out.is_empty() {
                            break; // reset or EOF: shut down under us
                        }
                        assert!(
                            out.starts_with(b"HTTP/1.1 200"),
                            "{}",
                            String::from_utf8_lossy(&out)
                        );
                        answered += 1;
                    }
                    answered
                })
            })
            .collect();
        // Shut down only once the burst is demonstrably in flight.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().requests_ok < 50 {
            assert!(Instant::now() < deadline, "clients never got going");
            std::thread::yield_now();
        }
        let stats = shutdown_within(server, Duration::from_secs(10));
        let answered: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();
        assert_eq!(stats.requests_ok, answered, "every answer the server counted reached a client");
        assert_eq!(stats.io_errors, 0);
        assert_eq!(
            stats.accepted,
            stats.requests_total() + stats.dropped_backlog + stats.rejected_closed,
            "{stats:?}"
        );
    }
}
