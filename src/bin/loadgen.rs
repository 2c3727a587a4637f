//! Netperf-style live benchmark: drive the real TCP server over loopback
//! and write `BENCH_live.json`.
//!
//! By default this starts an in-process [`aon_serve::Server`] on an
//! ephemeral loopback port, runs the closed-loop load generator against
//! it, folds the server's own counters and per-stage breakdown into the
//! report, cross-checks a live `/metrics` scrape against the client-side
//! counts, and exits 1 if any request failed (wrong status, wire error,
//! or I/O error), any request was answered 503, the server saw a protocol
//! error, or the scrape disagreed — so CI can gate on it.
//!
//! ```text
//! cargo run --release --bin loadgen -- --duration 2
//! cargo run --release --bin loadgen -- --addr 127.0.0.1:8080   # external server
//! cargo run --release --bin loadgen -- --use-case sv --connections 8
//! cargo run --release --bin loadgen -- --scrape-metrics metrics.prom
//! cargo run --release --bin loadgen -- --trace-smoke           # CI tracing gate
//! ```
//!
//! The in-process server runs as a production deployment would: software
//! counters, tail-sampled tracing and the worker-state profiler on (what
//! they cost is the repo benchmark's `obs.planes_cost_us_per_req`, not a
//! mode of this tool). `--hw` additionally opens per-worker perf counter
//! groups. `--trace-smoke` drives a mixed load against an FR-only server
//! and proves the tail sampler's retention contract: every shed
//! request's span tree is present in `/trace.jsonl` (`dropped_keep ==
//! 0`), every tree is complete, and the trace reads never moved the
//! request totals.

use aon_obs::reqtrace::{ParsedTrace, TraceClass, TraceConfig};
use aon_obs::scrape::{parse_prometheus, sum_samples};
use aon_serve::loadgen::{run, scrape, LoadgenConfig};
use aon_serve::metrics::LiveBenchReport;
use aon_serve::server::{ServeConfig, Server};
use aon_server::usecase::UseCase;
use aon_trace::num::exact_f64;
use std::time::Duration;

/// Parsed command line.
struct Args {
    duration_secs: u64,
    connections: usize,
    addr: Option<String>,
    use_cases: Vec<UseCase>,
    out_path: String,
    scrape_path: Option<String>,
    trace: bool,
    trace_smoke: bool,
    hw: bool,
}

fn main() {
    let args = parse_args();

    let outcome = drive(&args);

    // Tracing retention gate: its own in-process server (the nominal
    // closed loop above stays an unperturbed baseline).
    let trace_smoke_failed = args.trace_smoke && trace_smoke_scenario(&args);
    let report = &outcome.report;

    let json = report.to_json();
    std::fs::write(&args.out_path, &json).expect("write BENCH_live.json");
    eprintln!(
        "loadgen: {} ok, {} failed, {:.0} req/s, {:.2} Mbps payload, p50 {:.0}us p99 {:.0}us -> {}",
        report.requests_ok,
        report.requests_failed,
        report.requests_per_sec(),
        report.payload_mbps(),
        report.latency.p50_us,
        report.latency.p99_us,
        args.out_path,
    );
    if outcome.failed() || trace_smoke_failed {
        eprintln!(
            "loadgen: FAILED (failed={}, ok={}, server protocol errors={}, scrape mismatch={}, \
             sheds={}, trace smoke failed={trace_smoke_failed})",
            report.requests_failed,
            report.requests_ok,
            outcome.server_protocol_errors,
            outcome.scrape_mismatch,
            report.errors.shed,
        );
        std::process::exit(1);
    }
}

/// Drive a mixed load against an FR-only server with tracing on and gate
/// on the tail sampler's retention contract. FR-only mode sheds every
/// CBR/SV request, generating a large always-keep population; the gate
/// then proves three things exactly:
///
/// 1. every shed request's span tree is in `/trace.jsonl` (kept-shed
///    count == the server's 503 count, and `dropped_keep == 0`);
/// 2. every retained span tree is structurally complete;
/// 3. reading `/trace.jsonl` never moved a request total (server totals
///    equal the client's request count exactly).
///
/// One connection keeps the shed volume within the trace ring and the
/// scrape size limit — the proof is about exactness, not throughput.
fn trace_smoke_scenario(args: &Args) -> bool {
    if args.addr.is_some() {
        usage("--trace-smoke needs an in-process server (drop --addr)");
    }
    let server = Server::start(ServeConfig {
        fr_only: true,
        trace: TraceConfig { capacity: 1 << 17, ..TraceConfig::default() },
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let cfg = LoadgenConfig {
        addr: server.addr(),
        connections: 1,
        duration: Duration::from_secs(args.duration_secs),
        use_cases: args.use_cases.clone(),
        ..LoadgenConfig::default()
    };
    eprintln!(
        "loadgen: trace smoke — {}s mixed load, FR-only server (CBR/SV shed), tracing on",
        args.duration_secs
    );
    let report = run(&cfg);
    let dump = scrape(server.addr(), "/trace.jsonl", Duration::from_secs(10)).unwrap_or_default();
    let dropped_keep = server.tracer().map_or(u64::MAX, |t| t.dropped_keep());
    let stats = server.shutdown();

    let traces = match ParsedTrace::parse_jsonl(&dump) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("loadgen: trace smoke FAILED: bad /trace.jsonl: {e}");
            return true;
        }
    };
    let mut failed = false;
    if report.requests_ok == 0 {
        eprintln!("loadgen: trace smoke FAILED: no FR request succeeded");
        failed = true;
    }
    if traces.is_empty() {
        eprintln!("loadgen: trace smoke FAILED: /trace.jsonl is empty after load");
        failed = true;
    }
    for t in &traces {
        if let Err(e) = t.tree_complete() {
            eprintln!("loadgen: trace smoke FAILED: incomplete span tree (id {}): {e}", t.id);
            failed = true;
            break;
        }
    }
    let shed_kept = u64::try_from(traces.iter().filter(|t| t.class == TraceClass::Shed).count())
        .expect("trace count fits u64");
    if shed_kept != stats.requests_shed {
        eprintln!(
            "loadgen: trace smoke FAILED: {} shed requests served but {} shed traces kept",
            stats.requests_shed, shed_kept
        );
        failed = true;
    }
    if dropped_keep != 0 {
        eprintln!("loadgen: trace smoke FAILED: {dropped_keep} always-keep traces were evicted");
        failed = true;
    }
    let client_total = report.requests_ok + report.requests_failed + report.errors.shed;
    if stats.requests_total() != client_total {
        eprintln!(
            "loadgen: trace smoke FAILED: server served {} requests but the client drove {} \
             — an admin read perturbed the totals",
            stats.requests_total(),
            client_total
        );
        failed = true;
    }
    if !failed {
        eprintln!(
            "loadgen: trace smoke OK — {} traces kept ({} shed = 100% of {} served sheds), \
             dropped_keep 0, totals exact at {}",
            traces.len(),
            shed_kept,
            stats.requests_shed,
            client_total
        );
    }
    failed
}

/// The result of one measured run plus its gate inputs.
struct RunOutcome {
    report: LiveBenchReport,
    server_protocol_errors: u64,
    scrape_mismatch: bool,
}

impl RunOutcome {
    fn failed(&self) -> bool {
        self.report.requests_failed > 0
            || self.report.requests_ok == 0
            || self.server_protocol_errors > 0
            || self.scrape_mismatch
            // No default server sheds: a 503 is a wrong answer here.
            || self.report.errors.shed > 0
    }
}

/// Run the closed loop once: in-process server (unless `--addr`), load,
/// optional live `/metrics` scrape + cross-check, stats fold-in.
fn drive(args: &Args) -> RunOutcome {
    let server = match &args.addr {
        Some(_) => None,
        None => Some(
            Server::start(ServeConfig {
                hw_counters: args.hw,
                trace: TraceConfig { enabled: args.trace, ..TraceConfig::default() },
                ..ServeConfig::default()
            })
            .expect("bind loopback"),
        ),
    };
    let target = match (&server, &args.addr) {
        (Some(s), _) => s.addr(),
        (None, Some(a)) => a.parse().expect("--addr must be HOST:PORT"),
        (None, None) => unreachable!(),
    };

    let cfg = LoadgenConfig {
        addr: target,
        connections: args.connections,
        duration: Duration::from_secs(args.duration_secs),
        use_cases: args.use_cases.clone(),
        ..LoadgenConfig::default()
    };
    eprintln!(
        "loadgen: {} connections x {}s against {} ({})",
        cfg.connections,
        args.duration_secs,
        target,
        if server.is_some() { "in-process server" } else { "external server" },
    );

    let mut report = run(&cfg);
    let mut scrape_mismatch = false;

    // Scrape the *live* server (before shutdown) so the file matches what
    // an external Prometheus would have collected.
    if let Some(path) = &args.scrape_path {
        let text = scrape_settled(target, report.requests_ok, report.errors.shed);
        // Exact-equality cross-check is only sound against a server
        // this process drove exclusively.
        if server.is_some() && !metrics_agree(&text, report.requests_ok, report.errors.shed) {
            eprintln!(
                "loadgen: /metrics totals disagree with client counts \
                 (expected {} processed + {} shed)",
                report.requests_ok, report.errors.shed
            );
            scrape_mismatch = true;
        }
        std::fs::write(path, &text).expect("write scraped metrics");
        eprintln!("loadgen: scraped /metrics -> {path}");
    }

    let server_protocol_errors = match server {
        Some(s) => {
            report.stages = s.stage_cells();
            let stats = s.shutdown();
            let errs = stats.protocol_errors();
            report.server = Some(stats);
            errs
        }
        None => 0,
    };
    RunOutcome { report, server_protocol_errors, scrape_mismatch }
}

/// Scrape `/metrics` until the request totals settle at the expected
/// counts (the server records a request just *after* writing its
/// response, so the final few events can trail the client by a
/// scheduling quantum).
fn scrape_settled(addr: std::net::SocketAddr, expected: u64, expected_shed: u64) -> String {
    let timeout = Duration::from_secs(5);
    let mut text = String::new();
    for _ in 0..40 {
        text = scrape(addr, "/metrics", timeout).unwrap_or_default();
        if metrics_agree(&text, expected, expected_shed) {
            return text;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    text
}

/// Does the scraped exposition agree with the client exactly, outcome by
/// outcome — processed (`ok` + `rejected`) and shed?
fn metrics_agree(text: &str, expected: u64, expected_shed: u64) -> bool {
    let samples = parse_prometheus(text);
    let ok = sum_samples(&samples, "aon_requests_total", &[("outcome", "ok")]);
    let rejected = sum_samples(&samples, "aon_requests_total", &[("outcome", "rejected")]);
    let shed = sum_samples(&samples, "aon_requests_total", &[("outcome", "shed")]);
    ok + rejected == exact_f64(expected) && shed == exact_f64(expected_shed)
}

fn parse_args() -> Args {
    let mut args = Args {
        duration_secs: 2,
        connections: 4,
        addr: None,
        use_cases: Vec::new(),
        out_path: "BENCH_live.json".to_string(),
        scrape_path: None,
        trace: true,
        trace_smoke: false,
        hw: false,
    };

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| usage(&format!("{name} needs a value")));
        match arg.as_str() {
            "--duration" => {
                args.duration_secs = value("--duration")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("--duration: {e}")));
            }
            "--connections" => {
                args.connections = value("--connections")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("--connections: {e}")));
            }
            "--addr" => args.addr = Some(value("--addr")),
            "--use-case" => args.use_cases.push(parse_use_case(&value("--use-case"))),
            "--out" => args.out_path = value("--out"),
            "--scrape-metrics" => args.scrape_path = Some(value("--scrape-metrics")),
            "--trace-smoke" => args.trace_smoke = true,
            "--no-trace" => args.trace = false,
            "--hw" => args.hw = true,
            "--help" | "-h" => {
                println!(
                    "usage: loadgen [--duration SECS] [--connections N] \
                     [--use-case fr|cbr|sv|dpi|crypto]... [--addr HOST:PORT] [--out FILE] \
                     [--scrape-metrics FILE] [--trace-smoke] [--no-trace] [--hw]"
                );
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if args.use_cases.is_empty() {
        args.use_cases = UseCase::ALL.to_vec();
    }
    args
}

fn parse_use_case(s: &str) -> UseCase {
    match s.to_ascii_lowercase().as_str() {
        "fr" => UseCase::Fr,
        "cbr" => UseCase::Cbr,
        "sv" => UseCase::Sv,
        "dpi" => UseCase::Dpi,
        "crypto" => UseCase::Crypto,
        other => usage(&format!("unknown use case {other:?} (fr|cbr|sv|dpi|crypto)")),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("loadgen: {msg}");
    std::process::exit(2);
}
