//! `sim_grid_full`: the simulator half, through `aon_bench::perf::run`
//! and nothing else — record, replay and report over the paper's 5 x 5
//! grid, repeated in one process with the persistent cell cache off (this
//! process never enables it).
//!
//! The grid is the paper's fixed experiment, so `--seed` does not reach
//! it: every run simulates the same cells, and `sim.cycles_total` must
//! read the same in every repeat of every run.

use crate::outcome::Outcome;
use crate::procstat;
use crate::stats::best;
use aon_bench::perf::{self, PerfReport};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Cells of the paper's grid: 5 platforms x (3 use cases + 2 netperf).
const CELLS: u64 = 25;
/// Paper shape checks that pass today (ROADMAP: the score never drops).
const SHAPE_FLOOR: u64 = 19;

/// Fresh processes that record again, per run: the memo caches live as
/// long as a process, so this one's record phase is a single sample and
/// `setup_s` would be whatever state the host was in during those 20 ms.
const RECORD_CHILDREN: usize = 3;

/// `--sim-record`: one quick grid in this (fresh) process; prints the
/// seconds its record phase took. The quick grid records what the full
/// one does — the two differ only in simulated cycles per cell.
pub fn record_once() -> ExitCode {
    println!("{}", perf::run(true).wall.record);
    ExitCode::SUCCESS
}

fn record_in_child() -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe).arg("--sim-record").output().ok()?;
    let seconds = String::from_utf8(out.stdout).ok()?.trim().parse().ok()?;
    out.status.success().then_some(seconds)
}

/// Repeat the grid until nine tenths of `seconds` are used (three times
/// at 20 s on the authoring host), at least twice so the simulated cycle
/// count can be compared between repeats.
/// Between repeats a child process samples the record phase again.
fn repeats(seconds: f64, quick: bool) -> (Vec<PerfReport>, u64, Vec<f64>) {
    let start = Instant::now();
    let mut reports = Vec::new();
    let mut panicked = 0;
    let mut records = Vec::new();
    loop {
        match std::panic::catch_unwind(|| perf::run(quick)) {
            Ok(r) => reports.push(r),
            Err(_) => panicked += 1,
        }
        if records.len() < if quick { 1 } else { RECORD_CHILDREN } {
            records.extend(record_in_child());
        }
        let done = reports.len() as u64 + panicked;
        if done >= 2 && (quick || start.elapsed().as_secs_f64() >= 0.9 * seconds) {
            return (reports, panicked, records);
        }
    }
}

/// Both runs measure the same way; `traced` chooses which names to fill.
pub fn run(seconds: f64, quick: bool, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let steal_before = procstat::host_jiffies();
    let (reports, panicked, mut records) = repeats(seconds, quick);
    out.attempted = CELLS * (reports.len() as u64 + panicked);
    out.failed =
        CELLS * panicked + reports.iter().map(|r| CELLS.saturating_sub(r.cells)).sum::<u64>();
    let Some(first) = reports.first() else { return out };
    records.push(first.wall.record);

    if reports.iter().any(|r| r.simulated_cycles != first.simulated_cycles) {
        out.errors.push("sim.cycles_total differs between repeats".to_string());
    }
    let passed = reports.iter().map(|r| r.shape_checks_passed).min().unwrap_or(0);
    if !quick && passed < SHAPE_FLOOR {
        out.errors.push(format!("{passed} shape checks passed, {SHAPE_FLOOR} must"));
    }

    let walls: Vec<f64> = reports.iter().map(|r| r.wall.total()).collect();
    // The best repeat, as the live workloads take their best window.
    let wall = best(&walls, false);
    if !traced {
        // One request is one grid cell; the latency a user sees is the
        // wait for the whole grid's report.
        out.set("req_per_s", CELLS as f64 / wall);
        out.set("latency_p50_us", wall * 1e6);
        // Only the first repeat records (later ones hit the memo cache),
        // so the other samples come from the child processes.
        out.set("setup_s", best(&records, false));
        out.samples = vec![
            ("req_per_s", walls.iter().map(|w| CELLS as f64 / w).collect()),
            ("latency_p50_us", walls.iter().map(|w| w * 1e6).collect()),
            ("setup_s", records),
        ];
        return out;
    }

    let phase = |f: fn(&PerfReport) -> f64| best(&reports.iter().map(f).collect::<Vec<_>>(), false);
    out.set("core.record_s", best(&records, false));
    out.set("sim.replay_s", phase(|r| r.wall.replay));
    out.set("core.report_s", phase(|r| r.wall.report));
    out.set("sim.cells_per_s", CELLS as f64 / wall);
    out.set("sim.cycles_per_host_s", first.simulated_cycles as f64 / wall);
    out.set("sim.cycles_total", first.simulated_cycles as f64);
    out.set("sim.shape_passed", passed as f64);
    // After the first repeat, so the counts do not depend on how many
    // repeats the time budget allowed.
    let m = first.memo;
    out.set("core.memo_hits", (m.corpus_hits + m.server_hits + m.netperf_hits) as f64);
    out.set("core.memo_misses", (m.corpus_misses + m.server_misses + m.netperf_misses) as f64);
    out.set("host.steal_share", procstat::steal_share_since(steal_before));
    out.set("host.nproc", crate::live::clients() as f64);
    out
}
