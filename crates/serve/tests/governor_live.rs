//! End-to-end tests of the capacity governor against a live server:
//! breach → escalate → shed-by-cost-class → hysteretic recovery, the
//! FR-only bypass, and the scrape==client accounting equality with a
//! shed outcome in play.

use aon_obs::scrape::{parse_prometheus, sum_samples};
use aon_serve::governor::{GovernorConfig, ShedLevel};
use aon_serve::loadgen::{run, scrape, LoadgenConfig};
use aon_serve::server::{ServeConfig, Server};
use aon_server::usecase::UseCase;
use aon_server::Corpus;
use aon_trace::num::exact_f64;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut req = Vec::new();
    req.extend_from_slice(
        format!(
            "POST {path} HTTP/1.1\r\nHost: aon.local\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    req.extend_from_slice(body);
    req
}

fn roundtrip(addr: SocketAddr, req: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    s.write_all(req).expect("send");
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

/// Poll until `pred` holds or the deadline passes; returns whether it held.
fn wait_for(mut pred: impl FnMut() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    pred()
}

#[test]
fn p99_breach_sheds_sv_then_recovers_hysteretically() {
    // A p99 budget of 1ns means any sampled window with traffic breaches:
    // the escalation and recovery mechanics become deterministic without
    // having to genuinely saturate the host.
    let server = Server::start(ServeConfig {
        workers: 2,
        governor: GovernorConfig {
            p99_budget: Duration::from_nanos(1),
            sample_interval: Duration::from_millis(20),
            min_window_samples: 1,
            recover_after: 2,
            ..GovernorConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let corpus = Corpus::generate(42, 2);
    let v = &corpus.variants[0];
    let body = &v.http[v.body_start..];

    // Drive traffic until the sampler has escalated at least one level.
    let escalated = wait_for(
        || {
            let _ = roundtrip(addr, &post("/aon/fr", body));
            server.governor().level() >= ShedLevel::Sv
        },
        Duration::from_secs(10),
    );
    assert!(escalated, "sampled breaches must escalate the shed level");

    // At level >= Sv the costliest class is refused while FR is served.
    let sv = roundtrip(addr, &post("/aon/sv", body));
    assert!(sv.starts_with("HTTP/1.1 503"), "SV must be shed: {sv}");
    assert!(sv.contains("Retry-After: "), "shed responses advertise backoff: {sv}");
    let fr = roundtrip(addr, &post("/aon/fr", body));
    assert!(fr.starts_with("HTTP/1.1 200"), "FR is never shed: {fr}");

    // Stop offering load: quiet windows (no samples) are healthy, so
    // after recover_after consecutive windows per level the governor
    // steps back down to None.
    let recovered =
        wait_for(|| server.governor().level() == ShedLevel::None, Duration::from_secs(10));
    assert!(recovered, "quiet windows must recover the level hysteretically");

    let sv = roundtrip(addr, &post("/aon/sv", body));
    assert!(sv.starts_with("HTTP/1.1 200"), "recovered server admits SV again: {sv}");

    // The metrics trail agrees: breaches and both transition directions.
    let text = server.metrics_text().expect("observability on");
    let samples = parse_prometheus(&text);
    assert!(sum_samples(&samples, "aon_governor_breaches_total", &[("signal", "p99")]) >= 1.0);
    assert!(sum_samples(&samples, "aon_governor_transitions_total", &[("direction", "up")]) >= 1.0);
    assert!(
        sum_samples(&samples, "aon_governor_transitions_total", &[("direction", "down")]) >= 1.0
    );
    let stats = server.shutdown();
    assert!(stats.requests_shed >= 1);
    assert_eq!(stats.protocol_errors(), 0);
}

#[test]
fn fr_only_bypass_survives_quiet_windows() {
    // The bypass mode is an operator pin, not a governor decision: no
    // sampler runs, so quiet windows must NOT relax it.
    let server = Server::start(ServeConfig {
        workers: 1,
        governor: GovernorConfig {
            fr_only: true,
            sample_interval: Duration::from_millis(10),
            recover_after: 1,
            ..GovernorConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("bind");
    std::thread::sleep(Duration::from_millis(120)); // many would-be windows
    assert_eq!(server.governor().level(), ShedLevel::FrOnly, "bypass mode never relaxes");
    let corpus = Corpus::generate(7, 2);
    let v = &corpus.variants[0];
    let body = &v.http[v.body_start..];
    let sv = roundtrip(server.addr(), &post("/aon/cbr", body));
    assert!(sv.starts_with("HTTP/1.1 503"), "{sv}");
    server.shutdown();
}

#[test]
fn scrape_equality_holds_with_sheds_in_play() {
    // FR-only bypass + a mixed closed loop: ok, rejected, and shed all
    // move, and the scraped totals must equal the client's counts
    // exactly, outcome by outcome.
    let server = Server::start(ServeConfig {
        workers: 2,
        governor: GovernorConfig { fr_only: true, ..GovernorConfig::default() },
        ..ServeConfig::default()
    })
    .expect("bind");
    let cfg = LoadgenConfig {
        addr: server.addr(),
        connections: 2,
        duration: Duration::from_millis(300),
        use_cases: vec![UseCase::Fr, UseCase::Sv],
        ..LoadgenConfig::default()
    };
    let report = run(&cfg);
    assert!(report.requests_ok > 0, "FR traffic must flow");
    assert!(report.errors.shed > 0, "SV traffic must be shed");
    assert_eq!(report.requests_failed, 0, "sheds are not failures: {:?}", report.errors);

    // The server records a request just after writing its response, so
    // allow the final events to land before scraping.
    let expect_processed = exact_f64(report.requests_ok);
    let expect_shed = exact_f64(report.errors.shed);
    let settled = wait_for(
        || {
            let text =
                scrape(server.addr(), "/metrics", Duration::from_secs(5)).unwrap_or_default();
            let samples = parse_prometheus(&text);
            let ok = sum_samples(&samples, "aon_requests_total", &[("outcome", "ok")]);
            let rejected = sum_samples(&samples, "aon_requests_total", &[("outcome", "rejected")]);
            let shed = sum_samples(&samples, "aon_requests_total", &[("outcome", "shed")]);
            ok + rejected == expect_processed && shed == expect_shed
        },
        Duration::from_secs(5),
    );
    assert!(settled, "scrape totals must settle to the client's exact counts");

    let stats = server.shutdown();
    assert_eq!(stats.requests_ok + stats.requests_rejected, report.requests_ok);
    assert_eq!(stats.requests_shed, report.errors.shed);
    assert_eq!(stats.requests_total(), report.requests_ok + report.errors.shed);
}
