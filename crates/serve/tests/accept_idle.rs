//! Structural regression test for the event-driven accept path: an idle
//! listener sits in `accept(2)` and is never scheduled. Lives alone in
//! this file so the process holds exactly one `aon-accept` thread.
#![cfg(target_os = "linux")]

use aon_serve::server::{ServeConfig, Server};
use std::time::{Duration, Instant};

/// `voluntary_ctxt_switches` of this process's `aon-accept` thread.
fn accept_thread_switches() -> Option<u64> {
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
        if status.lines().next().is_some_and(|l| l.ends_with("\taon-accept")) {
            let line = status.lines().find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
            return line.split_whitespace().nth(1)?.parse().ok();
        }
    }
    None
}

#[test]
fn idle_listener_blocks_in_accept_instead_of_polling() {
    let server = Server::start(ServeConfig::default()).expect("bind loopback");
    // The thread names itself after it starts; then let it reach accept.
    let deadline = Instant::now() + Duration::from_secs(5);
    while accept_thread_switches().is_none() {
        assert!(Instant::now() < deadline, "no aon-accept thread in /proc/self/task");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50));
    let before = accept_thread_switches().expect("aon-accept");
    std::thread::sleep(Duration::from_millis(200));
    let after = accept_thread_switches().expect("aon-accept");
    server.shutdown();
    // A sleep-poll shows hundreds of voluntary switches in this window
    // (one per timer expiry); a thread blocked in accept(2) shows none.
    assert!(after - before <= 2, "aon-accept woke {} times while idle", after - before);
}
