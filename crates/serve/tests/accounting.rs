//! End-to-end test of the three-way accounting equality (client ==
//! `/metrics` == `ServeStats`): a default server under a mixed closed
//! loop. The same run carries the tail sampler's volume contract: with
//! every request sampled and a ring that fits the run, every request's
//! span tree is kept, whole.

use aon_obs::reqtrace::{ParsedTrace, TraceConfig};
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
fn scrape_equality_and_trace_volume_hold_under_a_mixed_closed_loop() {
    // A mixed closed loop moves both outcomes, ok and rejected; the
    // scraped totals must settle to the server's counters outcome by
    // outcome, and their sum to the client's count.
    let server = Server::start(ServeConfig {
        workers: 2,
        trace: TraceConfig {
            capacity: 1 << 17,
            sample_per_million: 1_000_000,
            ..TraceConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("bind");
    let cfg = LoadgenConfig {
        addr: server.addr(),
        connections: 2,
        duration: Duration::from_millis(300),
        use_cases: vec![UseCase::Fr, UseCase::Cbr, UseCase::Sv],
    };
    let client = run(&cfg);
    assert!(client.ok > 0, "traffic must flow");
    assert_eq!(client.failed(), 0, "{client:?}");

    // The server records a request just after writing its response, so
    // allow the final events to land before scraping.
    let expect = exact_f64(client.ok);
    let mut outcomes = [0.0; 2];
    let settled = wait_for(
        || {
            let text =
                scrape(server.addr(), "/metrics", Duration::from_secs(5)).unwrap_or_default();
            let samples = parse_prometheus(&text);
            outcomes = ["ok", "rejected"]
                .map(|o| sum_samples(&samples, "aon_requests_total", &[("outcome", o)]));
            outcomes[0] + outcomes[1] == expect
        },
        Duration::from_secs(5),
    );
    assert!(settled, "scrape totals {outcomes:?} must settle to the client's {}", client.ok);
    assert!(outcomes[1] > 0.0, "the corpus mix must produce 422s: {outcomes:?}");

    let tracer = server.tracer().expect("tracing on by default");
    assert_eq!((tracer.dropped_keep(), tracer.dropped_sampled()), (0, 0), "the ring fits the run");
    let traces = ParsedTrace::parse_jsonl(&tracer.dump_jsonl()).expect("valid trace JSONL");
    for t in &traces {
        t.tree_complete().unwrap_or_else(|e| panic!("incomplete span tree (id {}): {e}", t.id));
    }

    let stats = server.shutdown();
    assert_eq!([stats.requests_ok, stats.requests_rejected].map(exact_f64), outcomes);
    assert_eq!(stats.requests_ok + stats.requests_rejected, client.ok);
    assert_eq!(stats.requests_total(), client.ok, "nothing but the loop's requests");
    assert_eq!(u64::try_from(traces.len()).unwrap(), stats.requests_total(), "one trace each");
}
