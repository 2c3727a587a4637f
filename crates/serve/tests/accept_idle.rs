//! Structural regression tests on the server's threads, read from
//! `/proc/self/task`: idle workers sit in `accept(2)` and are never
//! scheduled, and the server is its workers and the profiler's sampler
//! and nothing else — no hand-off thread, no other timer. They live alone
//! in this file — and take turns — so the process holds one server's
//! threads at a time.
#![cfg(target_os = "linux")]

use aon_obs::profiler::ProfilerConfig;
use aon_serve::server::{ServeConfig, Server};
use std::collections::BTreeMap;
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

/// Threads name themselves after they start: wait for all `n` of them.
fn wait_for_threads(n: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while aon_threads().len() < n {
        assert!(Instant::now() < deadline, "threads missing: {:?}", aon_threads());
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Start a server, let its `threads` threads go idle, and return how often
/// each `aon-*` thread woke in 200 ms. A thread that polls on a timer
/// shows one voluntary switch per expiry; one blocked in accept(2), none.
fn idle_wakes(cfg: ServeConfig, threads: impl Fn(&Server) -> usize) -> BTreeMap<String, u64> {
    let _turn = ONE_SERVER_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(cfg).expect("bind loopback");
    wait_for_threads(threads(&server));
    std::thread::sleep(Duration::from_millis(50)); // let them reach accept
    let before = aon_threads();
    std::thread::sleep(Duration::from_millis(200));
    let after = aon_threads();
    server.shutdown();
    after.into_iter().map(|(name, switches)| (name.clone(), switches - before[&name])).collect()
}

#[test]
fn a_server_is_its_idle_workers_and_the_profiler_and_nothing_else() {
    let wakes = idle_wakes(ServeConfig::default(), |s| s.worker_count() + 1);
    // No hand-off thread in front of the workers, no sampler on a timer
    // besides the profiler's.
    let mut want: Vec<String> = (0..wakes.len() - 1).map(|i| format!("aon-worker-{i}")).collect();
    want.push("aon-profiler".to_string());
    want.sort();
    assert_eq!(wakes.keys().collect::<Vec<_>>(), want.iter().collect::<Vec<_>>());
    for (name, woke) in wakes.iter().filter(|(name, _)| name.starts_with("aon-worker-")) {
        assert!(*woke <= 2, "{name} woke {woke} times while idle");
    }
}

#[test]
fn without_the_profiler_an_idle_server_has_no_thread_that_wakes() {
    let cfg = ServeConfig {
        profiler: ProfilerConfig { enabled: false, ..ProfilerConfig::default() },
        ..ServeConfig::default()
    };
    let wakes = idle_wakes(cfg, Server::worker_count);
    assert!(wakes.keys().all(|name| name.starts_with("aon-worker-")), "workers only: {wakes:?}");
    for (name, woke) in &wakes {
        assert!(*woke <= 2, "{name} woke {woke} times while idle");
    }
}
