//! Simulator performance harness: wall-clock throughput of the pipeline.
//!
//! Everything else in this workspace measures the *simulated* machines;
//! this module measures the *simulator* — how fast the host turns
//! experiment cells into counters. It runs the standard 5 × 5 grid with
//! per-phase wall timing:
//!
//! * **record** — corpus generation plus use-case/netperf trace recording
//!   (warms the [`aon_core::memo`] caches; the grid then replays shared
//!   immutable traces). SV, CBR, FR and netperf record as four jobs on
//!   [`run_pooled`], the pool the grid runs on, longest first; each job's
//!   own wall time is kept beside the phase's, as RZBENCH prints each
//!   kernel beside the application;
//! * **replay** — all 25 cells on one call of the same pool, the
//!   simulation itself; each cell's own wall time is kept, so the phase
//!   line can print the pool's efficiency beside the makespan;
//! * **report** — metric derivation and the paper shape checks.
//!
//! The two headline figures are **cells per second** (experiment cells
//! retired per wall second) and **simulated cycles per wall second**
//! (per-CPU clockticks accounted in the measured windows, divided by total
//! wall time). `aon-bench perf` prints them; the judged simulator number
//! is the repo benchmark's `sim_grid_full` workload, which calls [`run`].
//! `aon-bench all` renders EXPERIMENTS.md from the same timed grid
//! ([`timed_grid`]).

#![deny(clippy::as_conversions)]

use aon_core::experiment::{
    pool_workers, run_grid_timed, run_pooled, ExperimentConfig, Measurement,
};
use aon_core::memo::{self, CorpusSpec, MemoStats};
use aon_core::report::check_all_shapes;
use aon_core::workload::WorkloadKind;
use aon_sim::config::Platform;
use aon_sim::counters::PerfCounters;
use aon_trace::num::exact_f64;
use std::time::Instant;

/// Wall-clock seconds spent in each pipeline phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSeconds {
    /// Corpus generation + trace recording (memo-cache warm-up).
    pub record: f64,
    /// Grid simulation (trace replay).
    pub replay: f64,
    /// Metric derivation + shape checks.
    pub report: f64,
}

impl PhaseSeconds {
    /// Total wall seconds across the three phases.
    pub fn total(&self) -> f64 {
        self.record + self.replay + self.report
    }
}

/// One harness run's results.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// True when run with the CI-sized quick windows.
    pub quick: bool,
    /// Experiment cells simulated.
    pub cells: u64,
    /// Per-phase wall time.
    pub wall: PhaseSeconds,
    /// Per-CPU clockticks accounted across all measured windows.
    pub simulated_cycles: u64,
    /// FNV-1a over every per-CPU counter of every cell, in grid order, and
    /// each cell's completed units and bytes.
    pub counter_digest: u64,
    /// Shape checks that passed / total (sanity that the run was real).
    pub shape_checks_passed: u64,
    /// Total shape checks evaluated.
    pub shape_checks_total: u64,
    /// Memo cache statistics at the end of the run.
    pub memo: MemoStats,
    /// Per record job (SV, CBR, FR, netperf), its label and the wall
    /// seconds it took on its worker. Jobs overlap, so these sum to more
    /// than `wall.record` on a multi-core host.
    pub record_jobs: Vec<(&'static str, f64)>,
    /// Per grid cell, in grid order, the wall seconds its replay took on
    /// its worker.
    pub cell_seconds: Vec<f64>,
    /// Workers the replay pool ran on.
    pub workers: usize,
}

impl PerfReport {
    /// Cells retired per wall second.
    pub fn cells_per_second(&self) -> f64 {
        let total = self.wall.total();
        if total > 0.0 {
            exact_f64(self.cells) / total
        } else {
            0.0
        }
    }

    /// The pool's efficiency over the replay phase: the cells' own seconds
    /// over the workers' seconds, Σ cell / (workers × replay). 1.0 means no
    /// worker waited; the shortfall is the makespan's tail.
    pub fn pool_efficiency(&self) -> f64 {
        let capacity = exact_f64(u64::try_from(self.workers).expect("worker count fits u64"))
            * self.wall.replay;
        if capacity > 0.0 {
            self.cell_seconds.iter().sum::<f64>() / capacity
        } else {
            0.0
        }
    }

    /// Simulated CPU cycles accounted per wall second.
    pub fn simulated_cycles_per_wall_second(&self) -> f64 {
        let total = self.wall.total();
        if total > 0.0 {
            exact_f64(self.simulated_cycles) / total
        } else {
            0.0
        }
    }
}

/// Every counter of one CPU, in declaration order (destructured, so a new
/// field fails to compile here until it is digested).
fn counter_words(c: &PerfCounters) -> [u64; 14] {
    let PerfCounters {
        clockticks,
        inst_retired_milli,
        abstract_ops,
        branches_retired,
        branch_mispredicts,
        l1d_misses,
        l1i_misses,
        l2_misses,
        bus_txns,
        loads,
        stores,
        idle_cycles,
        flush_cycles,
        mem_stall_cycles,
    } = *c;
    [
        clockticks,
        inst_retired_milli,
        abstract_ops,
        branches_retired,
        branch_mispredicts,
        l1d_misses,
        l1i_misses,
        l2_misses,
        bus_txns,
        loads,
        stores,
        idle_cycles,
        flush_cycles,
        mem_stall_cycles,
    ]
}

/// FNV-1a over the little-endian bytes of every per-CPU counter of every
/// cell, in grid order, each cell closed by its completed units and bytes.
/// Σ clockticks and the shape score can stay equal while an event is
/// miscounted; this cannot.
fn counter_digest(grid: &[Measurement]) -> u64 {
    let cells =
        grid.iter().map(|m| (&m.stats.per_cpu, [m.stats.completed_units, m.stats.completed_bytes]));
    cells
        .flat_map(|(cpus, work)| cpus.iter().flat_map(counter_words).chain(work))
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The quick windows of `aon-bench perf --quick` and of the repo
/// benchmark's `--quick` smoke.
fn quick_config() -> ExperimentConfig {
    ExperimentConfig {
        warmup_cycles: 2_000_000,
        measure_cycles: 8_000_000,
        ..ExperimentConfig::default()
    }
}

/// What the record phase records, longest first: the pool starts jobs in
/// this order, so the short ones fill in behind the long ones. Both netperf
/// baselines replay the one netperf recording.
const RECORD_ORDER: [WorkloadKind; 4] =
    [WorkloadKind::Sv, WorkloadKind::Cbr, WorkloadKind::Fr, WorkloadKind::NetperfE2E];

/// Warm the memo cache entry that `w`'s cells replay.
fn record(w: WorkloadKind, spec: CorpusSpec) {
    match w.use_case() {
        Some(uc) => {
            memo::server_recording(uc, spec);
        }
        None => {
            memo::netperf_recording();
        }
    }
}

/// Run the harness: record, replay the full 5 × 5 grid, report; return the
/// timed results.
pub fn run(quick: bool) -> PerfReport {
    let cfg = if quick { quick_config() } else { ExperimentConfig::default() };
    timed_grid(&cfg, quick).0
}

/// [`run`] on any windows, also returning the grid it measured: the
/// netperf cells, then the server cells, every platform each (the order of
/// [`WorkloadKind::ALL`]).
pub fn timed_grid(cfg: &ExperimentConfig, quick: bool) -> (PerfReport, Vec<Measurement>) {
    let spec = CorpusSpec::of(cfg);

    // Phase 1: record. Warming the memo caches here cleanly separates
    // recording cost from replay cost; the grid then hits the caches.
    let t0 = Instant::now();
    let record_jobs = run_pooled(RECORD_ORDER.len(), |i| {
        let t = Instant::now();
        record(RECORD_ORDER[i], spec);
        (RECORD_ORDER[i].label(), t.elapsed().as_secs_f64())
    });
    let record = t0.elapsed().as_secs_f64();

    // Phase 2: replay, one pool over every cell.
    let t1 = Instant::now();
    let (all, cell_seconds): (Vec<Measurement>, Vec<f64>) =
        run_grid_timed(&Platform::ALL, &WorkloadKind::ALL, cfg).into_iter().unzip();
    let replay = t1.elapsed().as_secs_f64();

    // Phase 3: report.
    let t2 = Instant::now();
    let checks = check_all_shapes(&all);
    let report = t2.elapsed().as_secs_f64();

    let simulated_cycles =
        all.iter().flat_map(|m| m.stats.per_cpu.iter()).map(|c| c.clockticks).sum();
    let passed = checks.iter().filter(|c| c.pass).count();
    let perf = PerfReport {
        quick,
        cells: u64::try_from(all.len()).expect("cell count fits u64"),
        wall: PhaseSeconds { record, replay, report },
        simulated_cycles,
        counter_digest: counter_digest(&all),
        shape_checks_passed: u64::try_from(passed).expect("check count fits u64"),
        shape_checks_total: u64::try_from(checks.len()).expect("check count fits u64"),
        memo: memo::stats(),
        record_jobs,
        workers: pool_workers(cell_seconds.len()),
        cell_seconds,
    };
    (perf, all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_wall_time_yields_zero_rates() {
        let r = PerfReport {
            quick: true,
            cells: 1,
            wall: PhaseSeconds { record: 0.0, replay: 0.0, report: 0.0 },
            simulated_cycles: 1,
            counter_digest: 0,
            shape_checks_passed: 0,
            shape_checks_total: 0,
            memo: MemoStats::default(),
            record_jobs: Vec::new(),
            cell_seconds: vec![1.0],
            workers: 1,
        };
        assert_eq!(r.cells_per_second(), 0.0);
        assert_eq!(r.pool_efficiency(), 0.0);
        assert_eq!(r.simulated_cycles_per_wall_second(), 0.0);
    }
}
