//! Structural regression test on the server's threads, read from
//! `/proc/self/task`: idle workers sit in `accept(2)` and are never
//! scheduled, and the server is its workers and nothing else — no
//! hand-off thread, no sampler, no timer. It lives alone in this file, so
//! the process holds one server's threads.
#![cfg(target_os = "linux")]

use aon_serve::server::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Thread name → `voluntary_ctxt_switches`, for this process's `aon-*`
/// threads.
fn aon_threads() -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs").flatten() {
        let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
        let field = |key: &str| {
            status.lines().find_map(|l| l.strip_prefix(key)).map(|v| v.trim().to_string())
        };
        if let (Some(name), Some(switches)) = (field("Name:"), field("voluntary_ctxt_switches:")) {
            if name.starts_with("aon-") {
                out.insert(name, switches.parse().expect("a count"));
            }
        }
    }
    out
}

/// Threads name themselves after they start: wait for all `n` of them.
fn wait_for_threads(n: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while aon_threads().len() < n {
        assert!(Instant::now() < deadline, "threads missing: {:?}", aon_threads());
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A default server — every plane on but the hardware counters, the
/// profiler included — is its `aon-worker-*` threads alone, and none of
/// them wakes while idle. A thread that polls on a timer shows one
/// voluntary switch per expiry; one blocked in accept(2), none.
#[test]
fn an_idle_server_is_its_workers_and_nothing_wakes() {
    let server = Server::start(ServeConfig::default()).expect("bind loopback");
    assert!(server.profiler().is_some(), "the default config runs the profiler");
    let workers = server.worker_count();
    wait_for_threads(workers);
    std::thread::sleep(Duration::from_millis(50)); // let them reach accept
    let before = aon_threads();
    std::thread::sleep(Duration::from_millis(200));
    let after = aon_threads();
    server.shutdown();
    let mut want: Vec<String> = (0..workers).map(|i| format!("aon-worker-{i}")).collect();
    want.sort();
    assert_eq!(before.keys().collect::<Vec<_>>(), want.iter().collect::<Vec<_>>());
    assert_eq!(after.keys().collect::<Vec<_>>(), want.iter().collect::<Vec<_>>());
    for (name, switches) in &after {
        let woke = switches - before[name];
        assert!(woke <= 2, "{name} woke {woke} times while idle");
    }
}
