//! End-to-end test of the three-way accounting equality (client ==
//! `/metrics` == `ServeStats`) with the shed outcome in play: an FR-only
//! server under a mixed closed loop.

use aon_obs::scrape::{parse_prometheus, sum_samples};
use aon_serve::loadgen::{run, scrape, LoadgenConfig};
use aon_serve::server::{ServeConfig, Server};
use aon_server::usecase::UseCase;
use aon_trace::num::exact_f64;
use std::time::{Duration, Instant};

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
fn scrape_equality_holds_with_sheds_in_play() {
    // FR-only bypass + a mixed closed loop: ok, rejected, and shed all
    // move, and the scraped totals must equal the client's counts
    // exactly, outcome by outcome.
    let server = Server::start(ServeConfig { workers: 2, fr_only: true, ..ServeConfig::default() })
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
