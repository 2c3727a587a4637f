//! Paper-style wall-time decomposition from the continuous worker-state
//! profiler, plus the Little's-law consistency check.
//!
//! Scrapes `/metrics` twice across an interval and derives, from the
//! `aon_worker_state_samples_total` deltas, where the worker pool's wall
//! time went this window — the profiler's statistical answer to the
//! paper's "where do the cycles go?" tables, except measured on wall
//! time across *all* states (including the waits the stage timers cannot
//! see: blocking in `accept(2)` — the pool's spare capacity, and the
//! server's only view of it — and keep-alive read blocking). It then
//! cross-checks the sampler against the request plane with Little's law
//! (`L = λ·W`): arrivals and service times from the request counters and
//! duration histogram, occupancy from the state samples. Agreement is
//! evidence both planes are honest; a gap means one of them lies.
//!
//! ```text
//! cargo run --release --bin profile-report -- --addr 127.0.0.1:8080
//! cargo run --release --bin profile-report -- --self-drive
//! cargo run --release --bin profile-report -- --self-drive --check
//! cargo run --release --bin profile-report -- --self-drive --folded-out profile.folded
//! ```
//!
//! `--self-drive` starts an in-process server (profiler, tracing, and
//! every-trace retention on) and drives a closed loop against it for the
//! measurement window — a one-command demo and the CI gate's harness.
//! `--check` exits 1 unless the law holds within 15% **and** at least
//! one latency exemplar scraped from `/metrics` resolves to a retained
//! trace in `/trace.jsonl` (the exemplar-linkage contract). `--folded-out`
//! writes the `/profile.folded` body for `flamegraph.pl`.

use aon_obs::profiler::{LittlesLaw, WorkerState};
use aon_obs::reqtrace::{ParsedTrace, TraceConfig};
use aon_obs::scrape::{parse_prometheus, sum_samples, ScrapedSample};
use aon_serve::loadgen::{run, scrape, LoadgenConfig};
use aon_serve::server::{ServeConfig, Server};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Little's-law gate tolerance (`--check`): 15% relative gap.
const LAW_TOLERANCE: f64 = 0.15;

struct Args {
    addr: Option<SocketAddr>,
    self_drive: bool,
    check: bool,
    folded_out: Option<String>,
    interval_ms: u64,
    connections: usize,
}

fn main() {
    let args = parse_args();
    let timeout = Duration::from_secs(5);

    // Self-drive: in-process server with the profiler on and *every*
    // trace retained, so each latency observation carries a resolvable
    // exemplar — the linkage `--check` proves.
    let server = if args.self_drive {
        Some(
            Server::start(ServeConfig {
                workers: 4,
                // Keep every trace so each latency observation carries a
                // resolvable exemplar; the ring is sized to hold the tail
                // of the run without outgrowing the admin scrape limit.
                trace: TraceConfig {
                    capacity: 1 << 13,
                    sample_per_million: 1_000_000,
                    ..TraceConfig::default()
                },
                ..ServeConfig::default()
            })
            .expect("bind loopback"),
        )
    } else {
        None
    };
    let addr = match (&server, args.addr) {
        (Some(s), _) => s.addr(),
        (None, Some(a)) => a,
        (None, None) => fail("--addr HOST:PORT or --self-drive is required"),
    };

    // Drive load for warmup + window + slack so both scrapes land inside
    // a busy steady state (Little's law assumes stability).
    let warmup = Duration::from_millis(300);
    let interval = Duration::from_millis(args.interval_ms);
    let load = server.is_some().then(|| {
        let cfg = LoadgenConfig {
            addr,
            connections: args.connections,
            duration: warmup + interval + Duration::from_millis(700),
            ..LoadgenConfig::default()
        };
        std::thread::spawn(move || run(&cfg))
    });
    if load.is_some() {
        std::thread::sleep(warmup);
    }

    let first = match scrape(addr, "/metrics", timeout) {
        Ok(t) => parse_prometheus(&t),
        Err(e) => fail(&format!("cannot scrape {addr}/metrics: {e:?} (is --no-obs set?)")),
    };
    let started = Instant::now();
    std::thread::sleep(interval);
    let second_text = match scrape(addr, "/metrics", timeout) {
        Ok(t) => t,
        Err(e) => fail(&format!("second scrape failed: {e:?}")),
    };
    let second = parse_prometheus(&second_text);
    let window = started.elapsed().as_secs_f64();

    // Let the load drain first, then take the linkage snapshot: with the
    // workload quiesced, each bucket's exemplar is its last observation
    // and the trace ring still holds the run's tail, so the freshest
    // exemplars must resolve.
    if let Some(handle) = load {
        let report = handle.join().expect("load thread");
        eprintln!(
            "profile-report: self-drive load: {} ok, {} failed",
            report.requests_ok, report.requests_failed
        );
    }
    let folded = scrape(addr, "/profile.folded", timeout).unwrap_or_default();
    let stats = scrape(addr, "/stats.json", timeout).unwrap_or_default();
    let final_metrics = match scrape(addr, "/metrics", timeout) {
        Ok(t) => parse_prometheus(&t),
        Err(_) => second.clone(),
    };
    let trace_dump = scrape(addr, "/trace.jsonl", timeout).unwrap_or_default();
    if let Some(s) = server {
        s.shutdown();
    }

    println!("profile-report: {addr}, {window:.2}s window");

    // Wall-time decomposition: state-sample deltas over the window.
    let d = |name: &str, labels: &[(&str, &str)]| {
        (sum_samples(&second, name, labels) - sum_samples(&first, name, labels)).max(0.0)
    };
    let per_state: Vec<(WorkerState, f64)> = WorkerState::ALL
        .iter()
        .map(|&s| (s, d("aon_worker_state_samples_total", &[("state", s.label())])))
        .collect();
    let total: f64 = per_state.iter().map(|(_, n)| n).sum();
    let passes = d("aon_profiler_passes_total", &[]);
    if total == 0.0 || passes == 0.0 {
        println!("profile-report: no profiler samples this window (profiler off or degraded)");
        if args.check {
            std::process::exit(1);
        }
        return;
    }

    println!();
    println!("worker wall-time decomposition (state samples, this window):");
    for (state, n) in &per_state {
        if *n > 0.0 {
            println!("  {:<12} {:>6.1}%", state.label(), n / total * 100.0);
        }
    }

    // Cumulative per-context view from the folded dump (ctx;state count).
    println!();
    println!("folded stacks (cumulative, `flamegraph.pl`-ready):");
    if folded.is_empty() {
        println!("  unavailable (/profile.folded scrape failed or profiler off)");
    } else {
        for line in folded.lines() {
            println!("  {line}");
        }
    }
    if let Some(path) = &args.folded_out {
        std::fs::write(path, &folded).expect("write folded output");
        eprintln!("profile-report: folded stacks -> {path}");
    }

    // Pool shape: the /stats.json summary the dashboards read.
    println!();
    println!("worker pool:");
    match pool_field(&stats, "workers") {
        Some(w) => {
            println!("  workers: {w:.0}");
            if let Some(s) = pool_field(&stats, "saturation_permille") {
                println!("  saturation: {:.1}%", s / 10.0);
            }
        }
        None => println!("  unavailable (/stats.json scrape failed)"),
    }
    println!(
        "  profiler: {:.0} passes, {:.0} overruns, active={:.0}",
        sum_samples(&second, "aon_profiler_passes_total", &[]),
        sum_samples(&second, "aon_profiler_overruns_total", &[]),
        sum_samples(&second, "aon_profiler_active", &[]),
    );

    // Little's law: λ and W from the request plane, L from the state
    // plane's exact time-in-state ledger (the sampled estimate is shown
    // too, but on an oversubscribed host its sleep-based wakeups
    // under-sample busy states — see the profiler's bias caveats).
    let requests = d("aon_request_duration_ns_count", &[]);
    let service_ns = d("aon_request_duration_ns_sum", &[]);
    let in_service: f64 = per_state.iter().filter(|(s, _)| s.in_service()).map(|(_, n)| n).sum();
    let law = LittlesLaw {
        lambda_per_sec: if window > 0.0 { requests / window } else { 0.0 },
        w_secs: if requests > 0.0 { service_ns / requests / 1e9 } else { 0.0 },
        l_observed: d("aon_pool_in_service_ns", &[]) / (window * 1e9),
    };
    println!();
    println!("Little's-law consistency (this window):");
    println!("  lambda = {:.1} req/s, W = {:.1}us", law.lambda_per_sec, law.w_secs * 1e6);
    println!(
        "  L predicted (lambda*W) = {:.4}, L observed (exact ledger) = {:.4}, gap {:.1}% \
         (sampler estimate {:.4})",
        law.l_predicted(),
        law.l_observed,
        law.gap_fraction() * 100.0,
        in_service / passes,
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

    if args.check {
        let mut failed = false;
        if !law.within(LAW_TOLERANCE) {
            eprintln!(
                "profile-report: CHECK FAILED: Little's-law gap {:.1}% exceeds {:.0}%",
                law.gap_fraction() * 100.0,
                LAW_TOLERANCE * 100.0
            );
            failed = true;
        }
        if resolved == 0 {
            eprintln!(
                "profile-report: CHECK FAILED: no latency exemplar resolved to a retained trace"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "profile-report: CHECK OK (law within {:.0}%, exemplars resolve)",
            LAW_TOLERANCE * 100.0
        );
    }
}

/// Count latency-bucket exemplars that resolve (and fail to resolve) to
/// a retained trace id.
fn exemplar_resolution(samples: &[ScrapedSample], traces: &[ParsedTrace]) -> (u64, u64) {
    let (mut resolved, mut dangling) = (0u64, 0u64);
    for s in samples {
        let Some(ex) = &s.exemplar else { continue };
        let Some(id) = ex.label("trace_id").and_then(|v| v.parse::<u64>().ok()) else {
            dangling += 1;
            continue;
        };
        if traces.iter().any(|t| t.id == id) {
            resolved += 1;
        } else {
            dangling += 1;
        }
    }
    (resolved, dangling)
}

/// Extract a numeric field from the `"worker_pool"` object of a
/// `/stats.json` body without a JSON parser (the server emits the exact
/// shape `"key": value`, and `worker_pool` is the only object with these
/// keys).
fn pool_field(stats: &str, key: &str) -> Option<f64> {
    let obj = stats.split("\"worker_pool\"").nth(1)?;
    let after = obj.split(&format!("\"{key}\":")).nth(1)?;
    let digits: String =
        after.trim_start().chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
    digits.parse().ok()
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        self_drive: false,
        check: false,
        folded_out: None,
        interval_ms: 2000,
        connections: 4,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| fail(&format!("{name} needs a value")));
        match arg.as_str() {
            "--addr" => {
                args.addr = Some(
                    value("--addr")
                        .parse()
                        .unwrap_or_else(|e| fail(&format!("--addr must be HOST:PORT: {e}"))),
                );
            }
            "--self-drive" => args.self_drive = true,
            "--check" => args.check = true,
            "--folded-out" => args.folded_out = Some(value("--folded-out")),
            "--interval-ms" => {
                args.interval_ms = value("--interval-ms")
                    .parse()
                    .unwrap_or_else(|e| fail(&format!("--interval-ms: {e}")));
            }
            "--connections" => {
                args.connections = value("--connections")
                    .parse()
                    .unwrap_or_else(|e| fail(&format!("--connections: {e}")));
            }
            "--help" | "-h" => {
                println!(
                    "usage: profile-report (--addr HOST:PORT | --self-drive) [--check] \
                     [--folded-out FILE] [--interval-ms MS] [--connections N]"
                );
                std::process::exit(0);
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    if args.addr.is_some() && args.self_drive {
        fail("--addr and --self-drive are mutually exclusive");
    }
    args
}

fn fail(msg: &str) -> ! {
    eprintln!("profile-report: {msg}");
    std::process::exit(2)
}
