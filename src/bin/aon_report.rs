//! `aon-report` — the one report tool over a live server's admin
//! endpoints (`/metrics`, `/stats.json`, `/trace.jsonl`,
//! `/profile.folded`).
//!
//! ```text
//! aon-report obs     (--addr HOST:PORT | --self-drive) [--interval-ms MS] [--connections N]
//! aon-report trace   (--addr HOST:PORT | --self-drive | --file PATH)
//! aon-report profile (--addr HOST:PORT | --self-drive) [--interval-ms MS] [--connections N]
//! ```
//!
//! Every subcommand reads one source. `--addr` is a running server;
//! `--self-drive` starts one in this process with every plane on (all
//! traces kept, hardware counters requested) and drives a closed loop over
//! all five use cases against it for the measurement window; `--file` is a
//! saved `/trace.jsonl` dump (`trace` only). The live subcommands scrape
//! `/metrics` at both ends of a window of `--interval-ms` and report the
//! difference. A self-driven run also checks its own contract and exits 1
//! on a breach; `--addr` and `--file` runs only report (`trace` excepted):
//!
//! * `obs` — paper-style per-use-case throughput (req/s, payload Mbps),
//!   the service-time decomposition by pipeline stage, the response status
//!   mix, pool shape, bucket-derived service-latency percentiles and the
//!   hardware-counter characterization (per-use-case CPI, LLC / branch /
//!   L1d misses per request) next to the paper's predicted
//!   single-Pentium-M CPI (Table 4). Self-driven, the contract is exact
//!   accounting: no failed request (any unexpected status, a 503
//!   included) and no protocol error; once the load has drained, the
//!   client's counts equal the settled `/metrics`
//!   `aon_requests_total{outcome}` sums, and those equal `ServeStats` at
//!   shutdown; the CBR `parse` and SV `validate` stages recorded time; and
//!   a live perf backend attributed events. Probe and degrade: without
//!   PMU access the hardware table is empty, a clean skip;
//! * `trace` — the per-use-case critical path over the retained traces,
//!   each span tree checked complete (exit 1 on an incomplete one, from any
//!   source). These are *individual* requests biased by design toward the
//!   tail, so the table answers "what do the bad requests spend their time
//!   on";
//! * `profile` — where the pool's wall time went by worker state (the
//!   waits the stage timers cannot see included), the folded stacks, and
//!   Little's law: `L` from the exact in-service ledger, refreshed at each
//!   scrape, against `λ·W` from the histograms. Both are sums of the same
//!   boundary clock reads, so only the requests in flight at the window's
//!   two scrapes separate them. Self-driven, a gap over 1 %, no latency
//!   exemplar resolving to a retained trace, or no `write` state in the
//!   folded stacks is a breach.
//!
//! Exits 2 on a usage, fetch or parse problem.

use aon_core::{paper, WorkloadKind};
use aon_obs::profiler::{LittlesLaw, WorkerState};
use aon_obs::reqtrace::{ParsedTrace, TraceClass, TraceConfig};
use aon_obs::scrape::{parse_prometheus, sum_samples, ScrapedSample};
use aon_obs::stage::Stage;
use aon_serve::loadgen::{run, scrape, LoadgenConfig, LoadgenCounts};
use aon_serve::server::{ServeConfig, ServeStatsSnapshot, Server};
use aon_server::usecase::UseCase;
use aon_trace::num::{exact_f64, ratio};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: aon-report (obs | trace | profile) \
    (--addr HOST:PORT | --self-drive | --file PATH) [--interval-ms MS] [--connections N]";

/// Little's-law tolerance of a self-driven `profile`: 1% relative gap
/// between `λ·W` and the ledger's `L`.
const LAW_TOLERANCE: f64 = 0.01;

const TIMEOUT: Duration = Duration::from_secs(10);

fn fail(msg: &str) -> ! {
    eprintln!("aon-report: {msg}");
    std::process::exit(2)
}

/// A self-driven run's contract: each breach is printed as it is found,
/// and [`Gate::finish`] exits 1 if there was any.
struct Gate {
    cmd: &'static str,
    breached: bool,
}

impl Gate {
    fn new(cmd: &'static str) -> Gate {
        Gate { cmd, breached: false }
    }

    fn check(&mut self, held: bool, breach: std::fmt::Arguments<'_>) {
        if !held {
            eprintln!("aon-report {}: FAILED: {breach}", self.cmd);
            self.breached = true;
        }
    }

    fn finish(self) {
        if self.breached {
            std::process::exit(1);
        }
        eprintln!("aon-report {}: self-drive contract holds", self.cmd);
    }
}

/// Where a report reads from.
enum Source {
    Addr(SocketAddr),
    SelfDrive,
    File(String),
}

struct Args {
    source: Source,
    interval: Duration,
    connections: usize,
}

/// Parse everything after the subcommand; `allowed` is what `cmd` takes.
fn parse_args(cmd: &str, allowed: &[&str], rest: impl Iterator<Item = String>) -> Args {
    let mut source = None;
    let mut args =
        Args { source: Source::SelfDrive, interval: Duration::from_millis(2000), connections: 4 };
    let mut it = rest;
    while let Some(arg) = it.next() {
        if !allowed.contains(&arg.as_str()) {
            fail(&format!("unknown argument {arg:?} for `{cmd}`\n{USAGE}"));
        }
        let mut value = || it.next().unwrap_or_else(|| fail(&format!("{arg} needs a value")));
        let mut set_source = |s| {
            if source.replace(s).is_some() {
                fail("exactly one of --addr, --self-drive, --file");
            }
        };
        match arg.as_str() {
            "--addr" => set_source(Source::Addr(
                value().parse().unwrap_or_else(|e| fail(&format!("--addr must be HOST:PORT: {e}"))),
            )),
            "--self-drive" => set_source(Source::SelfDrive),
            "--file" => set_source(Source::File(value())),
            "--interval-ms" => {
                let ms = value().parse().unwrap_or_else(|e| fail(&format!("--interval-ms: {e}")));
                args.interval = Duration::from_millis(ms);
            }
            "--connections" => {
                args.connections =
                    value().parse().unwrap_or_else(|e| fail(&format!("--connections: {e}")));
            }
            _ => unreachable!("every allowed argument is handled"),
        }
    }
    args.source = source.unwrap_or_else(|| fail(&format!("`{cmd}` needs a source\n{USAGE}")));
    args
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_else(|| fail(USAGE));
    const LIVE: [&str; 4] = ["--addr", "--self-drive", "--interval-ms", "--connections"];
    match cmd.as_str() {
        "obs" => obs(&parse_args("obs", &LIVE, argv)),
        "trace" => trace(&parse_args("trace", &["--addr", "--self-drive", "--file"], argv)),
        "profile" => profile(&parse_args("profile", &LIVE, argv)),
        "--help" | "-h" => println!("{USAGE}"),
        other => fail(&format!("unknown subcommand {other:?}\n{USAGE}")),
    }
}

/// A live server to scrape: someone else's, or one this process started
/// and is driving.
struct Live {
    addr: SocketAddr,
    server: Option<Server>,
    load: Option<JoinHandle<LoadgenCounts>>,
    /// The load's counts, once it has drained.
    counts: Option<LoadgenCounts>,
}

impl Live {
    /// Resolve `args.source`. A self-driven server runs with every plane
    /// on and *every* trace retained, so each latency observation carries
    /// a resolvable exemplar; the ring is sized to hold the tail of the
    /// run without outgrowing the admin scrape limit. It has one worker
    /// more than the load has connections: a keep-alive connection pins
    /// its worker, and a scrape must not wait for one to hit its request
    /// cap. The load runs for warm-up + window + slack, so a window opened
    /// after [`Live::open`] returns lies inside a busy steady state
    /// (Little's law assumes stability).
    fn open(args: &Args) -> Live {
        match &args.source {
            Source::Addr(a) => return Live { addr: *a, server: None, load: None, counts: None },
            Source::File(_) => fail("this report needs a live server (--addr or --self-drive)"),
            Source::SelfDrive => {}
        }
        let server = Server::start(ServeConfig {
            workers: args.connections + 1,
            hw_counters: true,
            trace: TraceConfig {
                capacity: 1 << 13,
                sample_per_million: 1_000_000,
                ..TraceConfig::default()
            },
            ..ServeConfig::default()
        })
        .unwrap_or_else(|e| fail(&format!("cannot bind loopback: {e}")));
        let warmup = Duration::from_millis(300);
        let cfg = LoadgenConfig {
            addr: server.addr(),
            connections: args.connections,
            duration: warmup + args.interval + Duration::from_millis(700),
            use_cases: UseCase::EXTENDED.to_vec(),
        };
        let load = std::thread::spawn(move || run(&cfg));
        std::thread::sleep(warmup);
        Live { addr: server.addr(), server: Some(server), load: Some(load), counts: None }
    }

    fn get(&self, path: &str) -> String {
        scrape(self.addr, path, TIMEOUT).unwrap_or_else(|e| {
            fail(&format!("cannot fetch {}{path}: {e:?} (plane off, or --no-obs?)", self.addr))
        })
    }

    /// `/metrics` at both ends of `interval`.
    fn window(&self, interval: Duration) -> Window {
        let first = parse_prometheus(&self.get("/metrics"));
        let started = Instant::now();
        std::thread::sleep(interval);
        let second = parse_prometheus(&self.get("/metrics"));
        Window { first, second, secs: started.elapsed().as_secs_f64() }
    }

    /// Wait for a self-driven load to finish and return its counts; the
    /// server stays up, so what is fetched afterwards is the quiesced
    /// state.
    fn drain(&mut self) -> Option<LoadgenCounts> {
        if let Some(load) = self.load.take() {
            let c = load.join().expect("load thread");
            eprintln!("aon-report: self-drive load: {} ok, {} failed", c.ok, c.failed());
            self.counts = Some(c);
        }
        self.counts
    }

    /// After [`Live::drain`]: `/metrics` once its request totals agree
    /// with the client's, outcome by outcome. The server records a request
    /// just after writing its response, so the last few can trail the
    /// client by a scheduling quantum; after ~1 s the last scrape stands.
    fn settled_metrics(&self, client: &LoadgenCounts) -> Vec<ScrapedSample> {
        let mut samples = Vec::new();
        for _ in 0..40 {
            samples = parse_prometheus(&self.get("/metrics"));
            if client_agrees(client, outcomes(&samples)) {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        samples
    }

    /// Stop what this process started: a self-driven run's client counts
    /// and the server's final counters.
    fn close(mut self) -> Option<(LoadgenCounts, ServeStatsSnapshot)> {
        let counts = self.drain()?;
        Some((counts, self.server.take()?.shutdown()))
    }
}

/// The `aon_requests_total` sums by outcome: `[ok, rejected]`.
fn outcomes(samples: &[ScrapedSample]) -> [f64; 2] {
    ["ok", "rejected"]
        .map(|outcome| sum_samples(samples, "aon_requests_total", &[("outcome", outcome)]))
}

/// Does the closed loop's count equal `[ok, rejected]` exactly? Its `ok`
/// is every answer with the expected status, 200 or 422.
fn client_agrees(client: &LoadgenCounts, [ok, rejected]: [f64; 2]) -> bool {
    ok + rejected == exact_f64(client.ok)
}

/// Two `/metrics` scrapes and the seconds between them.
struct Window {
    first: Vec<ScrapedSample>,
    second: Vec<ScrapedSample>,
    secs: f64,
}

impl Window {
    /// Counter increase across the window (clamped at zero: counters are
    /// monotonic, so a negative delta means the server restarted between
    /// scrapes and the window is meaningless for that series).
    fn delta(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        (sum_samples(&self.second, name, labels) - sum_samples(&self.first, name, labels)).max(0.0)
    }

    /// The cumulative value at the window's end.
    fn last(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        sum_samples(&self.second, name, labels)
    }
}

/// A numeric member of a named `/stats.json` sub-object, without a JSON
/// parser: the server emits the exact shape `"object": { "key": value, …`.
fn stats_field(stats: &str, object: &str, key: &str) -> Option<f64> {
    let obj = stats.split(&format!("\"{object}\"")).nth(1)?;
    let after = obj.split(&format!("\"{key}\":")).nth(1)?;
    let digits: String =
        after.trim_start().chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
    digits.parse().ok()
}

fn print_pool(stats: &str) {
    println!();
    println!("worker pool (/stats.json):");
    match stats_field(stats, "worker_pool", "workers") {
        Some(w) => {
            println!("  workers: {w:.0}");
            match stats_field(stats, "worker_pool", "saturation_permille") {
                Some(sat) => println!("  saturation: {:.1}%", sat / 10.0),
                None => println!("  saturation: unavailable (profiler off)"),
            }
        }
        None => println!("  unavailable (no worker_pool object)"),
    }
}

/// The paper's Table 4 CPI for the single Pentium M platform (the
/// closest analogue of one worker thread on one core), when the paper
/// characterized this workload. DPI and crypto are extensions — no
/// prediction exists for them.
fn predicted_cpi(use_case: UseCase) -> Option<f64> {
    let workload = match use_case {
        UseCase::Fr => WorkloadKind::Fr,
        UseCase::Cbr => WorkloadKind::Cbr,
        UseCase::Sv => WorkloadKind::Sv,
        _ => return None,
    };
    paper::table4_cpi(workload).map(|per_platform| per_platform[0])
}

/// One per-use-case row of the live hardware-counter characterization —
/// the live analogue of the paper's Table 4 (CPI) and Figures 4/5.
#[derive(Debug, Clone, PartialEq)]
struct HwRow {
    use_case: &'static str,
    /// Requests the counted events are attributed to.
    requests: u64,
    cycles: u64,
    instructions: u64,
    l1d_miss: u64,
    llc_miss: u64,
    branch_miss: u64,
    /// Table 4's single-Pentium-M CPI, when the paper has this use case.
    predicted_cpi: Option<f64>,
}

impl HwRow {
    fn cpi(&self) -> f64 {
        ratio(self.cycles, self.instructions)
    }

    fn llc_miss_per_request(&self) -> f64 {
        ratio(self.llc_miss, self.requests)
    }
}

/// The hardware-counter table over a window: per use case, the
/// `aon_hw_events_total` deltas summed across stages, attributed to every
/// request the counters ran under (ok + rejected). Use cases with
/// no counted event are omitted, so the noop backend yields an empty table
/// rather than zero rows pretending to be measurements.
fn hw_rows(w: &Window) -> Vec<HwRow> {
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a counter delta is whole and non-negative, and `as` saturates"
    )]
    let count = |v: f64| v as u64;
    UseCase::EXTENDED
        .into_iter()
        .filter_map(|uc| {
            let label = uc.label();
            let event = |event| {
                count(w.delta("aon_hw_events_total", &[("use_case", label), ("event", event)]))
            };
            let row = HwRow {
                use_case: label,
                requests: count(w.delta("aon_requests_total", &[("use_case", label)])),
                cycles: event("cycles"),
                instructions: event("instructions"),
                l1d_miss: event("l1d_miss"),
                llc_miss: event("llc_miss"),
                branch_miss: event("branch_miss"),
                predicted_cpi: predicted_cpi(uc),
            };
            let events =
                [row.cycles, row.instructions, row.l1d_miss, row.llc_miss, row.branch_miss];
            events.iter().any(|&v| v > 0).then_some(row)
        })
        .collect()
}

fn print_hw_rows(rows: &[HwRow]) {
    if rows.is_empty() {
        println!("  no counted events (server without --hw, or PMU unavailable)");
        return;
    }
    println!(
        "{:<8} {:>10} {:>8} {:>13} {:>8} {:>10} {:>11}",
        "use case", "requests", "cpi", "predicted_cpi", "llc/req", "branch/req", "l1d/req"
    );
    for r in rows {
        println!(
            "{:<8} {:>10} {:>8.3} {:>13} {:>8.1} {:>10.1} {:>11.1}",
            r.use_case,
            r.requests,
            r.cpi(),
            r.predicted_cpi.map_or("-".to_string(), |v| format!("{v:.2}")),
            r.llc_miss_per_request(),
            ratio(r.branch_miss, r.requests),
            ratio(r.l1d_miss, r.requests),
        );
    }
}

fn obs(args: &Args) {
    let probe = aon_hw::probe();
    let why = if probe.reason.is_empty() { String::new() } else { format!(" ({})", probe.reason) };
    eprintln!("aon-report obs: this host's backend {}{why}", probe.backend);

    let mut live = Live::open(args);
    let w = live.window(args.interval);
    let stats = live.get("/stats.json");
    println!("aon-report obs: {}, {:.2}s window", live.addr, w.secs);
    let settled = live.drain().map(|client| (client, live.settled_metrics(&client)));
    let served = live.close().map(|(_, served)| served);

    println!();
    println!("{:<8} {:>10} {:>10} {:>12}", "use case", "req/s", "rej/s", "payload Mbps");
    for uc in UseCase::EXTENDED {
        let label = uc.label();
        let rate = |outcome| {
            w.delta("aon_requests_total", &[("use_case", label), ("outcome", outcome)]) / w.secs
        };
        let mbps =
            w.delta("aon_payload_bytes_total", &[("use_case", label)]) * 8.0 / w.secs / 1_000_000.0;
        println!("{label:<8} {:>10.1} {:>10.1} {mbps:>12.3}", rate("ok"), rate("rejected"));
    }

    println!();
    println!("service-time decomposition (share of recorded stage time, this window):");
    print!("{:<8}", "use case");
    for stage in Stage::ALL {
        print!(" {:>9}", stage.label());
    }
    println!();
    for uc in UseCase::EXTENDED {
        let label = uc.label();
        let per_stage = Stage::ALL.map(|s| {
            w.delta("aon_stage_duration_ns_sum", &[("use_case", label), ("stage", s.label())])
        });
        let total: f64 = per_stage.iter().sum();
        print!("{label:<8}");
        for ns in per_stage {
            print_share(ns, total);
        }
        println!();
    }
    println!(
        "  (xpath / validate run fused inside `parse` and are booked there; their own cells are \
         placeholders timing only the verdict read)"
    );

    println!();
    println!("response status mix (cumulative):");
    for s in aon_serve::obs::STATUSES {
        let status = s.to_string();
        let n = w.last("aon_http_responses_total", &[("status", status.as_str())]);
        if n > 0.0 {
            println!("  {status}: {n:.0}");
        }
    }
    println!();
    println!("edge (cumulative):");
    println!("  accepted: {:.0}", w.last("aon_connections_accepted_total", &[]));
    println!("  admin scrapes: {:.0}", w.last("aon_admin_requests_total", &[]));

    print_pool(&stats);

    println!();
    println!("service latency, bucket-derived (cumulative, all use cases):");
    let latency = |key| stats_field(&stats, "service_latency_ns", key).unwrap_or(0.0);
    println!(
        "  count {:.0}, p50 {:.0}us, p99 {:.0}us, p999 {:.0}us",
        latency("count"),
        latency("p50") / 1000.0,
        latency("p99") / 1000.0,
        latency("p999") / 1000.0,
    );

    println!();
    println!("hardware counters (this window):");
    let rows = hw_rows(&w);
    print_hw_rows(&rows);

    // The probe describes this process's host, which is the server's when
    // it is self-driven; only then can an empty table be judged.
    if let (Some((client, scraped)), Some(served)) = (settled, served) {
        obs_contract(&client, &scraped, &served, probe.active(), &rows).finish();
    }
}

/// The contract of a self-driven `obs` run over a default server:
/// `client` from the load, `scraped` the settled `/metrics`, `served` the
/// counters at shutdown, `pmu_active` whether this host's perf backend is
/// live and `rows` the window's hardware table.
fn obs_contract(
    client: &LoadgenCounts,
    scraped: &[ScrapedSample],
    served: &ServeStatsSnapshot,
    pmu_active: bool,
    rows: &[HwRow],
) -> Gate {
    let mut gate = Gate::new("obs");
    gate.check(client.ok > 0 && client.failed() == 0, format_args!("load errors: {client:?}"));
    let protocol_errors = served.protocol_errors();
    gate.check(protocol_errors == 0, format_args!("{protocol_errors} protocol errors"));
    let metrics = outcomes(scraped);
    gate.check(
        client_agrees(client, metrics),
        format_args!("[ok, rejected]: /metrics {metrics:?}; the client {} answered", client.ok),
    );
    let stats = [served.requests_ok, served.requests_rejected];
    gate.check(
        metrics == stats.map(exact_f64),
        format_args!("[ok, rejected]: /metrics {metrics:?}, ServeStats {stats:?}"),
    );
    for (use_case, stage) in [("CBR", "parse"), ("SV", "validate")] {
        let cell = [("use_case", use_case), ("stage", stage)];
        let n = sum_samples(scraped, "aon_stage_duration_ns_count", &cell);
        gate.check(n > 0.0, format_args!("no {use_case} `{stage}` stage time recorded"));
    }
    gate.check(
        !pmu_active || !rows.is_empty(),
        format_args!("live perf backend but zero events attributed"),
    );
    gate
}

/// One percentage cell; `-` when the whole is zero (all-zero clocks
/// cannot yield shares).
fn print_share(part: f64, whole: f64) {
    if whole > 0.0 {
        print!(" {:>8.1}%", part / whole * 100.0);
    } else {
        print!(" {:>9}", "-");
    }
}

/// Per-use-case aggregate over retained traces.
#[derive(Debug, Default)]
struct UseCaseAgg {
    traces: u64,
    by_class: [u64; 3],
    total_ns: u64,
    stage_ns: [u64; 6],
}

fn trace(args: &Args) {
    let (source, text) = match &args.source {
        Source::File(f) => {
            let text = std::fs::read_to_string(f)
                .unwrap_or_else(|e| fail(&format!("cannot read {f}: {e}")));
            (f.clone(), text)
        }
        _ => {
            let mut live = Live::open(args);
            live.drain();
            let text = live.get("/trace.jsonl");
            let source = format!("{}/trace.jsonl", live.addr);
            live.close();
            (source, text)
        }
    };
    let traces = ParsedTrace::parse_jsonl(&text)
        .unwrap_or_else(|e| fail(&format!("bad trace dump from {source}: {e}")));
    if traces.is_empty() {
        println!("aon-report trace: {source}: trace ring is empty (no retained requests yet)");
        return;
    }

    let mut incomplete = 0u64;
    let mut aggs: BTreeMap<String, UseCaseAgg> = BTreeMap::new();
    for t in &traces {
        if let Err(e) = t.tree_complete() {
            eprintln!("aon-report trace: incomplete span tree (id {}): {e}", t.id);
            incomplete += 1;
            continue;
        }
        let agg = aggs.entry(t.use_case.clone()).or_default();
        agg.traces += 1;
        agg.by_class[t.class.index()] += 1;
        agg.total_ns += t.total_ns;
        for stage in Stage::ALL {
            agg.stage_ns[stage.index()] += t.span_ns(stage.label());
        }
    }

    let kept_by_class: Vec<String> = TraceClass::ALL
        .iter()
        .map(|c| {
            let n: u64 = aggs.values().map(|a| a.by_class[c.index()]).sum();
            format!("{} {}", n, c.label())
        })
        .collect();
    println!("aon-report trace: {} retained traces ({})", traces.len(), kept_by_class.join(", "));
    println!();

    print!("{:<8} {:>7} {:>13}", "use case", "traces", "avg total us");
    for stage in Stage::ALL {
        print!(" {:>9}", stage.label());
    }
    println!(" {:>9}", "other");
    for (use_case, agg) in &aggs {
        let attributed: u64 = agg.stage_ns.iter().sum();
        let total = exact_f64(agg.total_ns);
        print!(
            "{use_case:<8} {:>7} {:>13.1}",
            agg.traces,
            ratio(agg.total_ns, agg.traces) / 1000.0
        );
        for ns in agg.stage_ns {
            print_share(exact_f64(ns), total);
        }
        print_share(exact_f64(agg.total_ns.saturating_sub(attributed)), total);
        println!();
    }

    if incomplete > 0 {
        eprintln!("aon-report trace: FAILED: {incomplete} incomplete span trees");
        std::process::exit(1);
    }
}

fn profile(args: &Args) {
    let mut live = Live::open(args);
    let w = live.window(args.interval);
    // Let a self-driven load drain first, then take the linkage snapshot:
    // with the workload quiesced, each bucket's exemplar is its last
    // observation and the trace ring still holds the run's tail, so the
    // freshest exemplars must resolve.
    live.drain();
    let folded = live.get("/profile.folded");
    let stats = live.get("/stats.json");
    let final_metrics = parse_prometheus(&live.get("/metrics"));
    let trace_dump = live.get("/trace.jsonl");
    println!("aon-report profile: {}, {:.2}s window", live.addr, w.secs);
    let driven = live.close().is_some();

    // Wall-time decomposition: exact per-state nanoseconds over the window.
    let per_state =
        WorkerState::ALL.map(|s| (s, w.delta("aon_worker_state_ns", &[("state", s.label())])));
    let total: f64 = per_state.iter().map(|(_, n)| n).sum();
    println!();
    println!("worker wall-time decomposition (exact, this window):");
    for (state, n) in per_state.iter().filter(|(_, n)| *n > 0.0) {
        println!("  {:<12} {:>6.1}%", state.label(), n / total * 100.0);
    }

    println!();
    println!("folded stacks (cumulative ns, `flamegraph.pl`-ready):");
    for line in folded.lines() {
        println!("  {line}");
    }

    print_pool(&stats);

    // Little's law: λ and W from the request plane, L from the in-service
    // ledger. Each scrape refreshes the ledger to its own clock read, so
    // L/λW is Δledger/Δhistogram-sum over one window: only the requests
    // in flight at the two scrapes (and the scrapes' own parse spans)
    // separate them.
    let requests = w.delta("aon_request_duration_ns_count", &[]);
    let service_ns = w.delta("aon_request_duration_ns_sum", &[]);
    let law = LittlesLaw {
        lambda_per_sec: requests / w.secs,
        w_secs: if requests > 0.0 { service_ns / requests / 1e9 } else { 0.0 },
        l_observed: w.delta("aon_pool_in_service_ns", &[]) / (w.secs * 1e9),
    };
    println!();
    println!("Little's-law consistency (this window):");
    println!("  lambda = {:.1} req/s, W = {:.1}us", law.lambda_per_sec, law.w_secs * 1e6);
    println!(
        "  L predicted (lambda*W) = {:.4}, L ledger = {:.4}, gap {:.3}%",
        law.l_predicted(),
        law.l_observed,
        law.gap_fraction() * 100.0,
    );

    // Exemplar linkage: exemplars scraped from the latency buckets should
    // name trace ids retained in /trace.jsonl. Dangling ones are possible
    // (a cold bucket's last observation can predate the ring's tail) and
    // reported, but the linkage contract is that fresh exemplars resolve.
    let traces = ParsedTrace::parse_jsonl(&trace_dump).unwrap_or_default();
    let (resolved, dangling) = exemplar_resolution(&final_metrics, &traces);
    println!();
    println!(
        "exemplars: {resolved} resolved to retained traces, {dangling} dangling, \
         {} traces retained",
        traces.len()
    );

    if !driven {
        return;
    }
    let mut gate = Gate::new("profile");
    gate.check(
        law.within(LAW_TOLERANCE),
        format_args!(
            "Little's-law gap {:.1}% exceeds {:.0}%",
            law.gap_fraction() * 100.0,
            LAW_TOLERANCE * 100.0
        ),
    );
    gate.check(resolved > 0, format_args!("no latency exemplar resolved to a retained trace"));
    // Folded lines read `use_case;state ns`: served load spends time writing.
    gate.check(
        folded.lines().any(|l| l.contains(";write ")),
        format_args!("no `write` state in the folded stacks"),
    );
    gate.finish();
}

/// Count latency-bucket exemplars that resolve (and fail to resolve) to
/// a retained trace id.
fn exemplar_resolution(samples: &[ScrapedSample], traces: &[ParsedTrace]) -> (u64, u64) {
    let (mut resolved, mut dangling) = (0u64, 0u64);
    for ex in samples.iter().filter_map(|s| s.exemplar.as_ref()) {
        let id = ex.label("trace_id").and_then(|v| v.parse::<u64>().ok());
        if id.is_some_and(|id| traces.iter().any(|t| t.id == id)) {
            resolved += 1;
        } else {
            dangling += 1;
        }
    }
    (resolved, dangling)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(first: &str, second: &str) -> Window {
        Window { first: parse_prometheus(first), second: parse_prometheus(second), secs: 2.0 }
    }

    #[test]
    fn hw_rows_aggregate_event_deltas_across_stages_per_use_case() {
        let first = "\
            aon_requests_total{use_case=\"DPI\",outcome=\"ok\"} 10\n\
            aon_hw_events_total{use_case=\"DPI\",stage=\"parse\",event=\"cycles\"} 100\n";
        let second = "\
            aon_requests_total{use_case=\"DPI\",outcome=\"ok\"} 11\n\
            aon_requests_total{use_case=\"DPI\",outcome=\"rejected\"} 1\n\
            aon_requests_total{use_case=\"FR\",outcome=\"ok\"} 5\n\
            aon_hw_events_total{use_case=\"DPI\",stage=\"parse\",event=\"cycles\"} 400\n\
            aon_hw_events_total{use_case=\"DPI\",stage=\"write\",event=\"cycles\"} 300\n\
            aon_hw_events_total{use_case=\"DPI\",stage=\"parse\",event=\"instructions\"} 150\n\
            aon_hw_events_total{use_case=\"DPI\",stage=\"write\",event=\"instructions\"} 150\n\
            aon_hw_events_total{use_case=\"DPI\",stage=\"write\",event=\"llc_miss\"} 4\n\
            aon_hw_events_total{use_case=\"FR\",stage=\"write\",event=\"cycles\"} 0\n";
        let rows = hw_rows(&window(first, second));
        assert_eq!(rows.len(), 1, "only the use case with events gets a row");
        let row = &rows[0];
        assert_eq!(row.use_case, "DPI");
        assert_eq!(row.requests, 2, "ok + rejected both attribute, over the window only");
        assert_eq!(row.cycles, 600, "parse + write stages sum, minus the first scrape");
        assert_eq!(row.instructions, 300);
        assert!((row.cpi() - 2.0).abs() < 1e-9);
        assert!((row.llc_miss_per_request() - 2.0).abs() < 1e-9);
        assert_eq!(row.predicted_cpi, None, "the paper has no DPI column");
        assert!(hw_rows(&window(second, second)).is_empty(), "no counted events, no rows");
    }

    #[test]
    fn a_live_pmu_that_attributes_nothing_breaches_the_obs_contract() {
        let client = LoadgenCounts { ok: 3, ..LoadgenCounts::default() };
        let scraped = parse_prometheus(
            "aon_requests_total{use_case=\"CBR\",outcome=\"ok\"} 2\n\
             aon_requests_total{use_case=\"SV\",outcome=\"rejected\"} 1\n\
             aon_stage_duration_ns_count{use_case=\"CBR\",stage=\"parse\"} 2\n\
             aon_stage_duration_ns_count{use_case=\"SV\",stage=\"validate\"} 1\n",
        );
        let served =
            ServeStatsSnapshot { requests_ok: 2, requests_rejected: 1, ..Default::default() };
        let row = HwRow {
            use_case: "CBR",
            requests: 2,
            cycles: 10,
            instructions: 5,
            l1d_miss: 0,
            llc_miss: 0,
            branch_miss: 0,
            predicted_cpi: None,
        };
        let breached = |pmu_active, rows: &[HwRow]| {
            obs_contract(&client, &scraped, &served, pmu_active, rows).breached
        };
        assert!(breached(true, &[]), "a live backend with an empty table is a breach");
        assert!(!breached(false, &[]), "the noop backend's empty table is a clean skip");
        assert!(!breached(true, &[row]));
    }

    #[test]
    fn the_paper_predicts_cpi_for_its_three_use_cases_only() {
        for uc in [UseCase::Fr, UseCase::Cbr, UseCase::Sv] {
            assert!(predicted_cpi(uc).is_some_and(|cpi| cpi > 0.0), "{uc:?}");
        }
        assert_eq!(predicted_cpi(UseCase::Crypto), None);
    }

    #[test]
    fn window_deltas_clamp_a_restarted_server_to_zero() {
        let w = window("aon_x_total 9\n", "aon_x_total 4\n");
        assert_eq!(w.delta("aon_x_total", &[]), 0.0);
        assert_eq!(w.last("aon_x_total", &[]), 4.0);
    }

    #[test]
    fn stats_fields_are_read_from_their_own_object() {
        let stats =
            "{\n  \"accepted\": 3,\n  \"service_latency_ns\": { \"count\": 7, \"p50\": 900 },\n  \
                     \"worker_pool\": { \"workers\": 4, \"saturation_permille\": 250 }\n}\n";
        assert_eq!(stats_field(stats, "service_latency_ns", "p50"), Some(900.0));
        assert_eq!(stats_field(stats, "worker_pool", "workers"), Some(4.0));
        assert_eq!(stats_field(stats, "worker_pool", "busy"), None);
        assert_eq!(stats_field(stats, "nope", "workers"), None);
    }

    #[test]
    fn exemplars_resolve_against_retained_trace_ids() {
        let samples = parse_prometheus(
            "aon_request_duration_ns_bucket{use_case=\"FR\",le=\"127\"} 1 # {trace_id=\"7\"} 100\n\
             aon_request_duration_ns_bucket{use_case=\"FR\",le=\"255\"} 2 # {trace_id=\"9\"} 200\n\
             aon_request_duration_ns_count{use_case=\"FR\"} 2\n",
        );
        let kept = "{\"id\":7,\"use_case\":\"FR\",\"status\":200,\"class\":\"sampled\",\
                    \"total_ns\":100,\"spans\":[{\"label\":\"request\",\"start_ns\":0,\
                    \"dur_ns\":100,\"parent\":-1}]}\n";
        let traces = ParsedTrace::parse_jsonl(kept).expect("parses");
        assert_eq!(exemplar_resolution(&samples, &traces), (1, 1));
    }
}
