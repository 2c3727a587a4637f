//! The four live workloads: an in-process `aon_serve::Server` with the
//! shipped defaults, `nproc` closed-loop client threads with one
//! connection each, over loopback.
//!
//! The end-to-end path touches the workspace through `Server::start`,
//! `addr`, `shutdown`, `ServeConfig` and `Corpus::generate_sized` only
//! (plus the wire framing in `client`).

use crate::client::{self, Client, Conn, Phase, Prepared, Schedule, Tally, Window, WindowTally};
use crate::outcome::Outcome;
use crate::procstat::{self, Sched, Threads};
use crate::spec::{LiveSpec, CORPUS_VARIANTS};
use crate::stats::{best, median, percentile};
use crate::trace::Span;
use crate::{alloc, perlayer};
use aon_serve::server::ServeStatsSnapshot;
use aon_serve::{ServeConfig, Server};
use aon_server::Corpus;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    /// Smoke sizing: one short window, few repetitions.
    pub quick: bool,
    /// Zero of the span clock.
    pub epoch: Instant,
}

/// Client threads and connections: one per CPU the process may use, never
/// more — a third client on two CPUs measures the scheduler.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(2, usize::from)
}

/// A started server, the requests for it, and one checked connection per
/// client thread (none for a one-shot workload, whose connections end
/// with their request).
struct Deployment {
    server: Server,
    requests: Vec<Prepared>,
    conns: Vec<Option<Conn>>,
}

/// Set-up as a user pays it: corpus, `Server::start` (engine compile,
/// bind, pool spawn) and a first correct response per client. Returns the
/// seconds it took.
fn deploy(
    spec: &LiveSpec,
    seed: u64,
    observe: bool,
    tally: &mut Tally,
) -> Result<(Deployment, f64), String> {
    let t0 = Instant::now();
    let corpus = Corpus::generate_sized(seed, CORPUS_VARIANTS, spec.body_size);
    let requests = client::prepare(&corpus, spec);
    let server = Server::start(ServeConfig { observe, ..ServeConfig::default() })
        .map_err(|e| format!("server start: {e}"))?;
    let mut conns = Vec::new();
    for i in 0..clients() {
        let mut conn = client::connect(server.addr())?;
        if !client::round_trip(&mut conn, &requests[i % requests.len()], tally) {
            return Err(tally.first_error.clone().unwrap_or_default());
        }
        conns.push((!spec.one_shot).then_some(conn));
    }
    Ok((Deployment { server, requests, conns }, t0.elapsed().as_secs_f64()))
}

/// Requests the servers answered, summed over every server of a run.
#[derive(Default)]
struct Served {
    ok: u64,
    rejected: u64,
    shed: u64,
    other: u64,
    accepted: u64,
    queue_depth_hwm: u64,
    dropped_backlog: u64,
}

impl Served {
    fn add(&mut self, s: ServeStatsSnapshot) {
        self.ok += s.requests_ok;
        self.rejected += s.requests_rejected;
        self.shed += s.requests_shed;
        self.other += s.not_found + s.bad_request + s.too_large + s.timeouts + s.io_errors;
        self.accepted += s.accepted;
        self.queue_depth_hwm = self.queue_depth_hwm.max(s.queue_depth_hwm);
        self.dropped_backlog += s.dropped_backlog + s.rejected_closed;
    }

    /// Client totals minus `ServeStats` totals at quiescence, as a count
    /// of disagreements; exact accounting makes it 0.
    fn mismatch(&self, t: &Tally) -> u64 {
        self.ok.abs_diff(t.status_200)
            + self.rejected.abs_diff(t.status_422)
            + self.shed.abs_diff(t.status_503)
            + self.other
    }
}

/// What driving one schedule produced.
struct Driven {
    tally: Tally,
    spans: Vec<Span>,
    /// `/proc` thread accounting at both edges of each traced window.
    sched: Vec<Option<(Threads, Threads)>>,
}

/// Run the client threads through `schedule` and wait for them.
fn drive(
    targets: &[SocketAddr],
    requests: &[Prepared],
    one_shot: bool,
    schedule: &Schedule,
    conns: Vec<Vec<Option<Conn>>>,
    epoch: Instant,
) -> Driven {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, conns)| {
                let client =
                    Client { targets, requests, one_shot, schedule, start, first: i, conns };
                std::thread::Builder::new()
                    .name(format!("bench-client-{i}"))
                    .spawn_scoped(scope, move || {
                        let mut log = client::span_log(epoch, i);
                        (client.run(&mut log), log.spans)
                    })
                    .expect("spawn client thread")
            })
            .collect();
        let mut sched = Vec::with_capacity(schedule.windows.len());
        let mut edge = start;
        for w in &schedule.windows {
            let before = (w.phase == Phase::Traced).then(procstat::threads);
            edge += w.len;
            std::thread::sleep(edge.saturating_duration_since(Instant::now()));
            sched.push(before.map(|b| (b, procstat::threads())));
        }
        let mut tally = Tally::new(schedule.windows.len());
        let mut spans = Vec::new();
        for h in handles {
            let (t, s) = h.join().expect("client thread panicked");
            tally.merge(t);
            spans.extend(s);
        }
        Driven { tally, spans, sched }
    })
}

fn sorted(v: &[u32]) -> Vec<u32> {
    let mut s = v.to_vec();
    s.sort_unstable();
    s
}

fn p50_us(v: &[u32]) -> f64 {
    f64::from(percentile(&sorted(v), 50.0)) / 1e3
}

/// Close `out` with the client's totals and its first error, if any.
fn finish(mut out: Outcome, tally: &Tally) -> Outcome {
    out.errors.extend(tally.first_error.clone());
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out
}

/// A measuring window. Short on purpose: the host's fast and slow
/// states last seconds, so a quarter-second window sits inside one of
/// them and `stats::best` can pick the undisturbed one.
const WINDOW_S: f64 = 0.25;

/// Per-window (requests per second, p50 latency in us) for the windows
/// `keep` accepts.
fn window_values(
    schedule: &Schedule,
    tally: &Tally,
    keep: impl Fn(&Window) -> bool,
) -> (Vec<f64>, Vec<f64>) {
    schedule
        .windows
        .iter()
        .zip(&tally.windows)
        .filter(|(w, _)| keep(w))
        .map(|(w, t)| (t.ok as f64 / w.len.as_secs_f64(), p50_us(&t.latency_ns)))
        .unzip()
}

fn window(target: usize, phase: Phase, len: f64) -> Window {
    Window { target, phase, len: Duration::from_secs_f64(len) }
}

/// The untraced run: every end-to-end metric, as the best of its windows
/// (of its repetitions, for set-up).
pub fn run(spec: &LiveSpec, p: Params) -> Outcome {
    let mut out = Outcome::default();
    let mut tally = Tally::new(0);
    let mut served = Served::default();
    let mut setup_s = Vec::new();

    // Set up several times before the windows and as often after them,
    // so the repetitions do not all fall into one state of the host.
    let repeats = if p.quick { 2 } else { 12 };
    let mut set_up = |n: usize, tally: &mut Tally, served: &mut Served| {
        let mut live: Option<Deployment> = None;
        for _ in 0..n {
            if let Some(d) = live.take() {
                drop(d.conns);
                served.add(d.server.shutdown());
            }
            let (d, seconds) = deploy(spec, p.seed, true, tally)?;
            setup_s.push(seconds);
            live = Some(d);
        }
        Ok::<_, String>(live.expect("at least one repetition"))
    };
    let Deployment { server, requests, conns } = match set_up(repeats, &mut tally, &mut served) {
        Ok(d) => d,
        Err(e) => {
            out.errors.push(e);
            return finish(out, &tally);
        }
    };

    let (warm, count) =
        if p.quick { (0.1, 2) } else { (1.0, (p.seconds / WINDOW_S).round() as usize) };
    let mut windows = vec![window(0, Phase::Warm, warm)];
    windows.extend((0..count.max(1)).map(|_| window(0, Phase::Plain, WINDOW_S)));
    let schedule = Schedule::new(windows);
    let conns = conns.into_iter().map(|c| vec![c]).collect();
    let driven = drive(&[server.addr()], &requests, spec.one_shot, &schedule, conns, p.epoch);
    served.add(server.shutdown());
    tally.add_totals(&driven.tally);

    match set_up(repeats, &mut tally, &mut served) {
        Ok(d) => {
            drop(d.conns);
            served.add(d.server.shutdown());
        }
        Err(e) => out.errors.push(e),
    }

    let mismatch = served.mismatch(&tally);
    if mismatch != 0 {
        out.errors.push(format!("client and ServeStats totals differ by {mismatch}"));
    }
    let (rates, p50s) = window_values(&schedule, &driven.tally, |w| w.phase == Phase::Plain);
    out.set("req_per_s", best(&rates, true));
    out.set("latency_p50_us", best(&p50s, false));
    out.set("setup_s", best(&setup_s, false));
    out.samples = vec![("req_per_s", rates), ("latency_p50_us", p50s), ("setup_s", setup_s)];
    finish(out, &tally)
}

/// Exactly `count` requests from this thread after `count / 8` unmeasured
/// ones, with the allocator counting the pool's threads in between.
fn count_allocations(
    addr: SocketAddr,
    requests: &[Prepared],
    one_shot: bool,
    count: usize,
    tally: &mut Tally,
) -> Result<(u64, u64), String> {
    let mut conn = None;
    let mut send = |i: usize, tally: &mut Tally| -> Result<(), String> {
        if one_shot || conn.is_none() {
            conn = Some(client::connect(addr)?);
        }
        let c = conn.as_mut().expect("connected above");
        if client::round_trip(c, &requests[i % requests.len()], tally) {
            Ok(())
        } else {
            Err(tally.first_error.clone().unwrap_or_default())
        }
    };
    let warm = count / 8;
    for i in 0..warm {
        send(i, tally)?;
    }
    alloc::start();
    let sent = (warm..warm + count).try_for_each(|i| send(i, tally));
    let counted = alloc::stop();
    sent.map(|()| counted)
}

/// The traced run: the same workload with client spans, `/proc`
/// accounting and the counting allocator, then the inline layer replay
/// and the OS floors. Returns the spans for the JSONL file.
pub fn run_traced(spec: &LiveSpec, p: Params) -> (Outcome, Vec<Span>) {
    let mut out = Outcome::default();
    let mut tally = Tally::new(0);
    let mut served = Served::default();
    let steal_before = procstat::host_jiffies();
    let fail = |mut out: Outcome, tally: &Tally, e: String| {
        out.errors.push(e);
        (finish(out, tally), Vec::new())
    };

    let (on, _) = match deploy(spec, p.seed, true, &mut tally) {
        Ok(d) => d,
        Err(e) => return fail(out, &tally, e),
    };

    // Phase A, one server: plain and traced windows alternate, so the
    // tracing overhead is a difference inside one run.
    let scale = p.seconds / 20.0;
    let (warm, pairs, obs_pairs) = if p.quick {
        (0.1, 2, 2)
    } else {
        (
            0.5,
            (8.0 * scale / WINDOW_S / 2.0).ceil() as usize,
            (4.0 * scale / WINDOW_S / 2.0).ceil() as usize,
        )
    };
    let mut windows = vec![window(0, Phase::Warm, warm)];
    for _ in 0..pairs {
        windows.push(window(0, Phase::Plain, WINDOW_S));
        windows.push(window(0, Phase::Traced, WINDOW_S));
    }
    let schedule_a = Schedule::new(windows);
    let conns = on.conns.into_iter().map(|c| vec![c]).collect();
    let a = drive(&[on.server.addr()], &on.requests, spec.one_shot, &schedule_a, conns, p.epoch);

    // Phase B, a second server with the observability planes off: plain
    // windows alternate between the two.
    let (off, _) = match deploy(spec, p.seed, false, &mut tally) {
        Ok(d) => d,
        Err(e) => return fail(out, &tally, e),
    };
    let targets = [on.server.addr(), off.server.addr()];
    let mut windows = vec![window(0, Phase::Warm, warm / 2.0), window(1, Phase::Warm, warm / 2.0)];
    for _ in 0..obs_pairs {
        windows.push(window(0, Phase::Plain, WINDOW_S));
        windows.push(window(1, Phase::Plain, WINDOW_S));
    }
    let schedule_b = Schedule::new(windows);
    let conns = off.conns.into_iter().map(|c| vec![None, c]).collect();
    let b = drive(&targets, &on.requests, spec.one_shot, &schedule_b, conns, p.epoch);

    // Phase C, a fixed request count, so the allocation count repeats.
    let count = if p.quick { 256 } else { 2048 };
    let allocs =
        count_allocations(on.server.addr(), &on.requests, spec.one_shot, count, &mut tally);

    served.add(on.server.shutdown());
    served.add(off.server.shutdown());
    tally.add_totals(&a.tally);
    tally.add_totals(&b.tally);

    // Client spans, over every traced window together.
    let traced: Vec<(&Window, &WindowTally)> = schedule_a
        .windows
        .iter()
        .zip(&a.tally.windows)
        .filter(|(w, _)| w.phase == Phase::Traced)
        .collect();
    let all = |pick: fn(&WindowTally) -> &Vec<u32>| -> Vec<u32> {
        traced.iter().flat_map(|(_, t)| pick(t).iter().copied()).collect()
    };
    let latency = sorted(&all(|t| &t.latency_ns));
    let traced_s = traced.len() as f64 * WINDOW_S;
    let payload: u64 = traced.iter().map(|(_, t)| t.payload_bytes).sum();
    out.set("client.connect_us_p50", p50_us(&all(|t| &t.connect_ns)));
    out.set("client.write_us_p50", p50_us(&all(|t| &t.write_ns)));
    out.set("client.wait_us_p50", p50_us(&all(|t| &t.wait_ns)));
    out.set("client.latency_p99_us", f64::from(percentile(&latency, 99.0)) / 1e3);
    out.set("client.latency_max_us", f64::from(latency.last().copied().unwrap_or(0)) / 1e3);
    out.set("client.samples", latency.len() as f64);
    out.set("client.reconnects", tally.reconnects as f64);
    out.set("client.payload_mbps", payload as f64 * 8.0 / traced_s / 1e6);

    // The pool from outside: thread CPU per traced window. Costs per
    // request take the best window like the latencies they explain;
    // shares of time take the median.
    let pool_ns = WINDOW_S * 1e9 * clients() as f64;
    let per_window = |keep: fn(&str) -> bool, value: fn(Sched, f64) -> f64| -> Vec<f64> {
        traced
            .iter()
            .zip(a.sched.iter().flatten())
            .map(|((_, t), (before, after))| {
                value(procstat::delta(before, after, keep), (t.ok as f64).max(1.0))
            })
            .collect()
    };
    let is_worker = |n: &str| n.starts_with("aon-worker");
    let cpu_us_per_req = |d: Sched, reqs: f64| d.run_ns as f64 / 1e3 / reqs;
    out.set(
        "client.cpu_us_per_req",
        best(&per_window(|n| n.starts_with("bench-client"), cpu_us_per_req), false),
    );
    out.set("serve.worker_cpu_us_per_req", best(&per_window(is_worker, cpu_us_per_req), false));
    let busy = per_window(is_worker, |d, _| d.run_ns as f64);
    let waiting = per_window(is_worker, |d, _| d.wait_ns as f64);
    out.set("serve.worker_busy_share", median(&busy) / pool_ns);
    out.set("serve.worker_runq_wait_share", median(&waiting) / pool_ns);
    // Keep-alive windows accept almost nothing, so this one is a total:
    // the listener's polling divided among the connections it took.
    let accept_ns: f64 = per_window(|n| n == "aon-accept", |d, _| d.run_ns as f64).iter().sum();
    let accepted = if spec.one_shot { latency.len() } else { all(|t| &t.connect_ns).len() };
    out.set("serve.accept_cpu_us_per_conn", accept_ns / 1e3 / (accepted as f64).max(1.0));
    let background: f64 = per_window(
        |n| matches!(n, "aon-accept" | "aon-governor" | "aon-profiler"),
        |d, _| d.run_ns as f64,
    )
    .iter()
    .sum();
    let everything: f64 = per_window(|_| true, |d, _| d.run_ns as f64).iter().sum();
    out.set("serve.background_cpu_share", background / everything.max(1.0));
    out.set("serve.accepted", served.accepted as f64);
    out.set("serve.queue_depth_hwm", served.queue_depth_hwm as f64);
    out.set("serve.dropped_backlog", served.dropped_backlog as f64);
    out.set("serve.requests_shed", served.shed as f64);
    let mismatch = served.mismatch(&tally);
    out.set("serve.count_mismatch", mismatch as f64);
    if mismatch != 0 {
        out.errors.push(format!("client and ServeStats totals differ by {mismatch}"));
    }
    match allocs {
        Ok((calls, bytes)) => {
            out.set("serve.allocs_per_req", calls as f64 / count as f64);
            out.set("serve.alloc_bytes_per_req", bytes as f64 / count as f64);
        }
        Err(e) => out.errors.push(e),
    }

    // Differences between interleaved windows.
    let p50_of = |schedule: &Schedule, tally: &Tally, phase: Phase, target: usize| {
        let keep = |w: &Window| w.phase == phase && w.target == target;
        best(&window_values(schedule, tally, keep).1, false)
    };
    let latency_p50_us = p50_of(&schedule_a, &a.tally, Phase::Plain, 0);
    let traced_p50_us = p50_of(&schedule_a, &a.tally, Phase::Traced, 0);
    out.set("trace.overhead_pct", (traced_p50_us / latency_p50_us - 1.0) * 100.0);
    out.set(
        "obs.planes_cost_us_per_req",
        p50_of(&schedule_b, &b.tally, Phase::Plain, 0)
            - p50_of(&schedule_b, &b.tally, Phase::Plain, 1),
    );

    // The layers alone, the floors, and what is left over.
    let mut spans = a.spans;
    let replay = perlayer::replay(&on.requests, spec.one_shot, p.quick, scale, p.epoch);
    out.metrics.extend(replay.metrics);
    out.errors.extend(replay.errors);
    spans.extend(replay.spans);
    out.metrics.extend(perlayer::kernels(&on.requests, p.quick));
    let floors = perlayer::floors(&on.requests, clients(), p.quick, scale);
    out.set("os.loopback_rtt_us", floors.rtt_us);
    out.set("os.connect_accept_close_us", floors.connect_us);
    let floor = floors.rtt_us + if spec.one_shot { floors.connect_us } else { 0.0 };
    let residual = latency_p50_us - replay.layers_us - floor;
    out.set("serve.residual_us", residual);
    out.set("serve.residual_share", residual / latency_p50_us);

    out.set("host.steal_share", procstat::steal_share_since(steal_before));
    out.set("host.nproc", clients() as f64);
    (finish(out, &tally), spans)
}
