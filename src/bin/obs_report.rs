//! Paper-style live report from a running server's `/metrics` endpoint.
//!
//! Scrapes the Prometheus exposition twice across an interval and derives
//! the numbers the paper tabulates: per-use-case throughput (req/s,
//! payload Mbps), the service-time decomposition by pipeline stage
//! (where do the cycles go for CBR vs SV vs DPI?), the response status
//! mix, the accepted-connection count (the queue in front of the pool
//! is the kernel's listen backlog, invisible here; `profile-report`'s
//! `accept_wait` share is the pool's spare capacity), bucket-derived
//! service-latency percentiles (p50 / p99 / interpolated p999, from
//! `GET /stats.json`), and — when the server
//! runs with `--hw` on a machine whose PMU opened — the per-use-case
//! hardware-counter characterization (CPI, LLC and branch misses per
//! request) from the `aon_hw_events_total` deltas across the window.
//!
//! ```text
//! cargo run --release --bin obs-report -- --addr 127.0.0.1:8080
//! cargo run --release --bin obs-report -- --addr 127.0.0.1:8080 --interval-ms 5000
//! ```
//!
//! Works against any server started with observability on (the default);
//! exits 2 if the endpoint is unreachable or observability is off.

use aon_obs::scrape::{parse_prometheus, sum_samples, ScrapedSample};
use aon_obs::stage::Stage;
use aon_serve::loadgen::scrape;
use aon_server::usecase::UseCase;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn main() {
    let (addr, interval) = parse_args();
    let timeout = Duration::from_secs(5);

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

    println!("obs-report: {addr}, {window:.2}s window");
    println!();
    println!("{:<8} {:>10} {:>10} {:>12}", "use case", "req/s", "rej/s", "payload Mbps");
    for uc in UseCase::EXTENDED {
        let label = uc.label();
        let ok_rate =
            delta(&second, &first, "aon_requests_total", &[("use_case", label), ("outcome", "ok")])
                / window;
        let rej_rate = delta(
            &second,
            &first,
            "aon_requests_total",
            &[("use_case", label), ("outcome", "rejected")],
        ) / window;
        let mbps = delta(&second, &first, "aon_payload_bytes_total", &[("use_case", label)]) * 8.0
            / window
            / 1_000_000.0;
        println!("{label:<8} {ok_rate:>10.1} {rej_rate:>10.1} {mbps:>12.3}");
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
        let per_stage: Vec<f64> = Stage::ALL
            .iter()
            .map(|s| {
                delta(
                    &second,
                    &first,
                    "aon_stage_duration_ns_sum",
                    &[("use_case", label), ("stage", s.label())],
                )
            })
            .collect();
        let total: f64 = per_stage.iter().sum();
        print!("{label:<8}");
        for ns in &per_stage {
            if total > 0.0 {
                print!(" {:>8.1}%", ns / total * 100.0);
            } else {
                print!(" {:>9}", "-");
            }
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
        let n = sum_samples(&second, "aon_http_responses_total", &[("status", status.as_str())]);
        if n > 0.0 {
            println!("  {status}: {n:.0}");
        }
    }
    println!();
    println!("edge (cumulative):");
    println!("  accepted: {:.0}", sum_samples(&second, "aon_connections_accepted_total", &[]));
    println!("  admin scrapes: {:.0}", sum_samples(&second, "aon_admin_requests_total", &[]));

    let stats = scrape(addr, "/stats.json", timeout);

    // Pool shape comes from the server's own /stats.json report — never
    // inferred from configuration (satellite of the profiling plane:
    // saturation and per-worker busy fractions ride along when the
    // profiler is on).
    println!();
    println!("worker pool (/stats.json):");
    match &stats {
        Ok(s) => match object_field(s, "worker_pool", "workers") {
            Some(w) => {
                println!("  workers: {w:.0}");
                if let Some(sat) = object_field(s, "worker_pool", "saturation_permille") {
                    println!("  saturation: {:.1}%", sat / 10.0);
                } else {
                    println!("  saturation: unavailable (profiler off)");
                }
            }
            None => println!("  unavailable (no worker_pool object)"),
        },
        Err(e) => println!("  unavailable: /stats.json scrape failed: {e:?}"),
    }

    println!();
    println!("service latency, bucket-derived (cumulative, all use cases):");
    match &stats {
        Ok(stats) => {
            let us = |key| json_field(stats, key).map_or(0.0, |ns| ns / 1000.0);
            println!(
                "  count {:.0}, p50 {:.0}us, p99 {:.0}us, p999 {:.0}us",
                json_field(stats, "count").unwrap_or(0.0),
                us("p50"),
                us("p99"),
                us("p999"),
            );
        }
        Err(e) => println!("  unavailable: /stats.json scrape failed: {e:?}"),
    }

    println!();
    println!("hardware counters (this window):");
    if second.iter().any(|s| s.name == "aon_hw_events_total") {
        println!(
            "{:<8} {:>10} {:>8} {:>10} {:>12}",
            "use case", "requests", "cpi", "llc/req", "branch/req"
        );
        for uc in UseCase::EXTENDED {
            let label = uc.label();
            let hw = |event| {
                delta(
                    &second,
                    &first,
                    "aon_hw_events_total",
                    &[("use_case", label), ("event", event)],
                )
            };
            let (cycles, instructions) = (hw("cycles"), hw("instructions"));
            let requests = delta(&second, &first, "aon_requests_total", &[("use_case", label)]);
            if instructions == 0.0 || requests == 0.0 {
                continue;
            }
            println!(
                "{label:<8} {requests:>10.0} {:>8.3} {:>10.1} {:>12.1}",
                cycles / instructions,
                hw("llc_miss") / requests,
                hw("branch_miss") / requests,
            );
        }
    } else {
        println!("  absent (server without --hw, or PMU unavailable — see hw-report)");
    }
}

/// Extract a numeric field from the `"service_latency_ns"` object of a
/// `/stats.json` body without a JSON parser: the server emits the exact
/// shape `"key": value` and `service_latency_ns` is the only object in
/// the document containing these keys.
fn json_field(stats: &str, key: &str) -> Option<f64> {
    object_field(stats, "service_latency_ns", key)
}

/// Same shape-based extraction for any named `/stats.json` sub-object
/// (`"object": { "key": value, ... }`).
fn object_field(stats: &str, object: &str, key: &str) -> Option<f64> {
    let obj = stats.split(&format!("\"{object}\"")).nth(1)?;
    let after = obj.split(&format!("\"{key}\":")).nth(1)?;
    let digits: String =
        after.trim_start().chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
    digits.parse().ok()
}

/// Counter increase across the window (clamped at zero: counters are
/// monotonic, so a negative delta means the server restarted between
/// scrapes and the window is meaningless for that series).
fn delta(
    later: &[ScrapedSample],
    earlier: &[ScrapedSample],
    name: &str,
    labels: &[(&str, &str)],
) -> f64 {
    (sum_samples(later, name, labels) - sum_samples(earlier, name, labels)).max(0.0)
}

fn parse_args() -> (SocketAddr, Duration) {
    let mut addr: Option<SocketAddr> = None;
    let mut interval_ms: u64 = 2000;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| fail(&format!("{name} needs a value")));
        match arg.as_str() {
            "--addr" => {
                addr = Some(
                    value("--addr")
                        .parse()
                        .unwrap_or_else(|e| fail(&format!("--addr must be HOST:PORT: {e}"))),
                );
            }
            "--interval-ms" => {
                interval_ms = value("--interval-ms")
                    .parse()
                    .unwrap_or_else(|e| fail(&format!("--interval-ms: {e}")));
            }
            "--help" | "-h" => {
                println!("usage: obs-report --addr HOST:PORT [--interval-ms MS]");
                std::process::exit(0);
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    match addr {
        Some(a) => (a, Duration::from_millis(interval_ms)),
        None => fail("--addr is required (a running server with observability on)"),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("obs-report: {msg}");
    std::process::exit(2)
}
