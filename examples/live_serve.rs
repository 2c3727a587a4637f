//! Live serving end to end: start the real TCP server, speak HTTP/1.1 to
//! it over loopback by hand, then drive a short closed loop and read what
//! it cost from the server's own endpoints.
//!
//! This is the live counterpart of `examples/xml_gateway.rs` — the same
//! engines (parse, XPath routing, schema validation) behind a real
//! `std::net` socket instead of a replayed trace.
//!
//! Run: `cargo run --release --example live_serve`

use aon::serve::loadgen::{run, scrape, LoadgenConfig};
use aon::serve::server::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn main() {
    // 1. Stand the server up on an ephemeral loopback port.
    let server = Server::start(ServeConfig::default()).expect("bind loopback");
    println!("server listening on {}", server.addr());

    // 2. One request by hand: a health check.
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.write_all(b"GET /health HTTP/1.1\r\nHost: aon.local\r\nConnection: close\r\n\r\n")
        .expect("send");
    let mut response = String::new();
    s.read_to_string(&mut response).expect("read");
    println!("health check -> {}", response.lines().next().unwrap_or(""));
    assert!(response.starts_with("HTTP/1.1 200"));

    // 3. A malformed request is rejected at the edge, not crashed on.
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.write_all(b"POST  HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n").expect("send");
    let mut response = String::new();
    s.read_to_string(&mut response).expect("read");
    println!("empty path -> {}", response.lines().next().unwrap_or(""));
    assert!(response.starts_with("HTTP/1.1 400"));

    // 4. A short closed loop over the paper's three use cases. The client
    // counts outcomes; the service time is the server's to report, from
    // its histogram buckets in /stats.json.
    let started = Instant::now();
    let counts = run(&LoadgenConfig {
        addr: server.addr(),
        connections: 2,
        duration: Duration::from_millis(500),
        ..LoadgenConfig::default()
    });
    let secs = started.elapsed().as_secs_f64();
    assert_eq!(counts.failed(), 0, "live loop must be clean: {counts:?}");
    let stats = scrape(server.addr(), "/stats.json", Duration::from_secs(5)).expect("/stats.json");
    let ns = |key: &str| -> f64 {
        let after = stats.split(&format!("\"{key}\": ")).nth(1).unwrap_or("");
        after
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .and_then(|d| d.parse().ok())
            .unwrap_or(0.0)
    };
    println!(
        "closed loop: {} requests ok, {:.0} req/s, service p50 {:.1}us, p99 {:.1}us (bucket-derived)",
        counts.ok,
        aon::trace::num::exact_f64(counts.ok) / secs,
        ns("p50") / 1000.0,
        ns("p99") / 1000.0,
    );

    // 5. The server kept its own performance counters the whole time:
    // scrape the Prometheus exposition like a monitoring system would.
    let metrics = scrape(server.addr(), "/metrics", Duration::from_secs(5)).expect("/metrics");
    println!("\nscraped /metrics (selected series):");
    for line in metrics.lines() {
        if line.starts_with("aon_requests_total") || line.starts_with("aon_admin_requests_total") {
            println!("  {line}");
        }
    }
    let samples = aon::obs::scrape::parse_prometheus(&metrics);
    let processed = aon::obs::scrape::sum_samples(&samples, "aon_requests_total", &[]);
    assert!(processed > 0.0, "the benchmark's requests must appear in /metrics");

    // 6. Graceful shutdown: drain and report.
    let stats = server.shutdown();
    println!(
        "shutdown: accepted {}, served {}, protocol errors {}",
        stats.accepted,
        stats.requests_total(),
        stats.protocol_errors(),
    );
    assert_eq!(stats.protocol_errors(), 1, "exactly the hand-sent bad request");
}
