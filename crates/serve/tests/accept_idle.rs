//! Structural regression tests on the server's threads, read from
//! `/proc/self/task`: idle workers sit in `accept(2)` and are never
//! scheduled, no hand-off thread stands in front of them, and a governor
//! without a signal is not spawned. They live alone in this file — and
//! take turns — so the process holds one server's threads at a time.
#![cfg(target_os = "linux")]

use aon_serve::governor::{GovernorConfig, ShedLevel};
use aon_serve::server::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static ONE_SERVER_AT_A_TIME: Mutex<()> = Mutex::new(());

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

/// Threads name themselves after they start: wait for the whole pool.
fn wait_for_workers(n: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while aon_threads().keys().filter(|name| name.starts_with("aon-worker-")).count() < n {
        assert!(Instant::now() < deadline, "worker threads missing: {:?}", aon_threads());
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn idle_workers_block_in_accept_and_nothing_stands_in_front_of_them() {
    let _turn = ONE_SERVER_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(ServeConfig::default()).expect("bind loopback");
    wait_for_workers(server.worker_count());
    std::thread::sleep(Duration::from_millis(50)); // let them reach accept
    let before = aon_threads();
    std::thread::sleep(Duration::from_millis(200));
    let after = aon_threads();
    server.shutdown();
    assert!(!after.contains_key("aon-accept"), "no hand-off thread exists: {after:?}");
    // A worker that polls on a timer shows one voluntary switch per expiry
    // in this window; a thread blocked in accept(2) shows none.
    for (name, switches) in after.iter().filter(|(name, _)| name.starts_with("aon-worker-")) {
        let woke = switches - before[name];
        assert!(woke <= 2, "{name} woke {woke} times while idle");
    }
}

#[test]
fn a_governor_without_a_signal_is_not_spawned() {
    let _turn = ONE_SERVER_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Observability off: no service-time histogram, so nothing to sample.
    for fr_only in [false, true] {
        let server = Server::start(ServeConfig {
            workers: 1,
            observe: false,
            governor: GovernorConfig {
                p99_budget: Duration::from_nanos(1),
                sample_interval: Duration::from_millis(5),
                min_window_samples: 1,
                fr_only,
                ..GovernorConfig::default()
            },
            ..ServeConfig::default()
        })
        .expect("bind loopback");
        wait_for_workers(1);
        // Traffic that would breach the 1 ns budget in every window, were
        // there a sampler to see it.
        for _ in 0..5 {
            let mut s = TcpStream::connect(server.addr()).expect("connect");
            s.write_all(
                b"POST /aon/fr HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\n<a/>",
            )
            .expect("send");
            let mut reply = Vec::new();
            s.read_to_end(&mut reply).expect("reply");
            assert!(reply.starts_with(b"HTTP/1.1 200"), "{}", String::from_utf8_lossy(&reply));
            std::thread::sleep(Duration::from_millis(10));
        }
        let threads = aon_threads();
        let level = server.governor().level();
        server.shutdown();
        assert!(!threads.contains_key("aon-governor"), "{threads:?}");
        let pinned = if fr_only { ShedLevel::FrOnly } else { ShedLevel::None };
        assert_eq!(level, pinned, "fr_only {fr_only}: the level only ever moves by the pin");
    }
}
