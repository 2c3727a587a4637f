//! End-to-end test of the three-way accounting equality (client ==
//! `/metrics` == `ServeStats`) with the shed outcome in play: an FR-only
//! server under a mixed closed loop. The same run carries the tail
//! sampler's retention contract: every shed request's span tree is kept.

use aon_obs::reqtrace::{ParsedTrace, TraceClass, TraceConfig};
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
    // exactly, outcome by outcome. The trace ring is sized to hold every
    // shed request of the run, so none may be evicted.
    let server = Server::start(ServeConfig {
        workers: 2,
        fr_only: true,
        trace: TraceConfig { capacity: 1 << 17, ..TraceConfig::default() },
        ..ServeConfig::default()
    })
    .expect("bind");
    let cfg = LoadgenConfig {
        addr: server.addr(),
        connections: 2,
        duration: Duration::from_millis(300),
        use_cases: vec![UseCase::Fr, UseCase::Sv],
    };
    let client = run(&cfg);
    assert!(client.ok > 0, "FR traffic must flow");
    assert!(client.shed > 0, "SV traffic must be shed");
    assert_eq!(client.failed(), 0, "sheds are not failures: {client:?}");

    // The server records a request just after writing its response, so
    // allow the final events to land before scraping.
    let expect_processed = exact_f64(client.ok);
    let expect_shed = exact_f64(client.shed);
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

    let tracer = server.tracer().expect("tracing on by default");
    assert_eq!(tracer.dropped_keep(), 0, "an always-keep trace was evicted");
    let traces = ParsedTrace::parse_jsonl(&tracer.dump_jsonl()).expect("valid trace JSONL");
    for t in &traces {
        t.tree_complete().unwrap_or_else(|e| panic!("incomplete span tree (id {}): {e}", t.id));
    }
    let shed_kept = traces.iter().filter(|t| t.class == TraceClass::Shed).count();

    let stats = server.shutdown();
    assert_eq!(stats.requests_ok + stats.requests_rejected, client.ok);
    assert_eq!(stats.requests_shed, client.shed);
    assert_eq!(stats.requests_total(), client.ok + client.shed);
    assert_eq!(u64::try_from(shed_kept).unwrap(), stats.requests_shed, "every shed trace is kept");
}
