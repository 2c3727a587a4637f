//! The experiment runner.
//!
//! One *cell* is one (platform × workload) measurement: build the machine,
//! wire the workload, warm up, reset the counters, measure for a fixed
//! simulated window, and collect [`MachineStats`]. The full grid (5 × 5)
//! can run across OS threads — each simulated machine is self-contained,
//! so the sweep parallelizes embarrassingly. [`run_pooled`] is the one
//! worker pool: the grid's cells and the harness's record phase share it.

use crate::workload::WorkloadKind;
use aon_sim::config::Platform;
use aon_sim::machine::Machine;
use aon_sim::stats::MachineStats;

/// Sweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Warm-up cycles before counters reset.
    pub warmup_cycles: u64,
    /// Measured window in cycles.
    pub measure_cycles: u64,
    /// Corpus seed.
    pub corpus_seed: u64,
    /// Number of message variants in the corpus.
    pub corpus_variants: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            warmup_cycles: 20_000_000,
            measure_cycles: 80_000_000,
            corpus_seed: 42,
            corpus_variants: 4,
        }
    }
}

impl ExperimentConfig {
    /// A fast configuration for unit tests (small windows).
    pub fn quick() -> Self {
        ExperimentConfig {
            warmup_cycles: 2_000_000,
            measure_cycles: 8_000_000,
            corpus_seed: 42,
            corpus_variants: 2,
        }
    }
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The platform measured.
    pub platform: Platform,
    /// The workload measured.
    pub workload: WorkloadKind,
    /// Collected statistics.
    pub stats: MachineStats,
}

/// Run one (platform × workload) cell.
///
/// Corpus generation and trace recording are memoized (see [`crate::memo`]):
/// the 5 × 5 grid records each workload once and replays the same
/// immutable traces on every platform.
pub fn run_cell(platform: Platform, workload: WorkloadKind, cfg: &ExperimentConfig) -> Measurement {
    let mut machine = Machine::new(platform.config());
    workload.build(&mut machine, crate::memo::CorpusSpec::of(cfg));
    Measurement { platform, workload, stats: measure(&mut machine, cfg) }
}

/// Warm up, reset the counters, measure: the back half of every cell, on
/// a machine whose workload is already built. The machine is left as the
/// window ends, so a caller can still read its sampling profile.
pub fn measure(machine: &mut Machine, cfg: &ExperimentConfig) -> MachineStats {
    machine.run(cfg.warmup_cycles);
    machine.reset_counters();
    let out = machine.run(cfg.warmup_cycles + cfg.measure_cycles);
    MachineStats::collect(machine, &out)
}

/// Workers [`run_pooled`] starts for `jobs` jobs: one per hardware thread,
/// never more than there are jobs, at least one.
pub fn pool_workers(jobs: usize) -> usize {
    let hw = std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1);
    hw.min(jobs).max(1)
}

/// Run jobs `0..jobs` on a bounded worker pool and return their results by
/// index. The pool has [`pool_workers`] workers: the jobs this runs
/// (recording a use case, simulating a cell) are CPU-bound, so
/// oversubscribing the host only adds scheduler churn and peak memory.
/// Workers take the next index from a shared ticket, so jobs start in index
/// order; put the longest first. Results land in their own slot, so
/// completion order cannot reach the output.
pub fn run_pooled<T: Send>(jobs: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    // audit:role(seqgen): unique work-ticket dispenser; Relaxed suffices
    // because jobs are independent and each result lands in its own slot
    let next = std::sync::atomic::AtomicUsize::new(0);
    // audit:role(lock): one slot per job; scope join publishes results
    let out: Vec<std::sync::Mutex<Option<T>>> =
        (0..jobs).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..pool_workers(jobs) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let r = job(i);
                *out[i].lock().expect("result slot lock") = Some(r);
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.into_inner().expect("result slot lock").expect("every job ran"))
        .collect()
}

/// Run every `platforms` × `workloads` cell, workload-major, on
/// [`run_pooled`] and return each with the host seconds its replay took on
/// its worker (each machine is independent; determinism is unaffected —
/// results land by cell index, not completion order).
pub fn run_grid_timed(
    platforms: &[Platform],
    workloads: &[WorkloadKind],
    cfg: &ExperimentConfig,
) -> Vec<(Measurement, f64)> {
    let cells: Vec<(Platform, WorkloadKind)> =
        workloads.iter().flat_map(|&w| platforms.iter().map(move |&p| (p, w))).collect();
    run_pooled(cells.len(), |i| {
        let t = std::time::Instant::now();
        let m = run_cell(cells[i].0, cells[i].1, cfg);
        (m, t.elapsed().as_secs_f64())
    })
}

/// [`run_grid_timed`] without the host seconds.
pub fn run_grid(
    platforms: &[Platform],
    workloads: &[WorkloadKind],
    cfg: &ExperimentConfig,
) -> Vec<Measurement> {
    run_grid_timed(platforms, workloads, cfg).into_iter().map(|(m, _)| m).collect()
}

/// Find a cell in a measurement set.
pub fn find(
    measurements: &[Measurement],
    platform: Platform,
    workload: WorkloadKind,
) -> Option<&Measurement> {
    measurements.iter().find(|m| m.platform == platform && m.workload == workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cell_produces_work() {
        let m = run_cell(Platform::OneCorePentiumM, WorkloadKind::Fr, &ExperimentConfig::quick());
        assert!(m.stats.completed_units > 0);
        assert!(m.stats.total.inst_retired() > 0.0);
        assert!(m.stats.total.cpi() > 0.5);
    }

    #[test]
    fn cells_are_deterministic() {
        let cfg = ExperimentConfig::quick();
        let a = run_cell(Platform::TwoLogicalXeon, WorkloadKind::Cbr, &cfg);
        let b = run_cell(Platform::TwoLogicalXeon, WorkloadKind::Cbr, &cfg);
        assert_eq!(a.stats.total, b.stats.total);
    }

    #[test]
    fn parallel_grid_matches_serial() {
        let cfg = ExperimentConfig::quick();
        let plats = [Platform::OneCorePentiumM, Platform::TwoCorePentiumM];
        let loads = [WorkloadKind::Fr];
        let serial: Vec<_> = plats.iter().map(|&p| run_cell(p, WorkloadKind::Fr, &cfg)).collect();
        let parallel = run_grid(&plats, &loads, &cfg);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.platform, b.platform);
            assert_eq!(a.stats.total, b.stats.total, "parallelism must not change results");
        }
    }

    #[test]
    fn find_locates_cells() {
        let cfg = ExperimentConfig::quick();
        let ms = run_grid(&[Platform::OneCorePentiumM], &[WorkloadKind::Sv], &cfg);
        assert!(find(&ms, Platform::OneCorePentiumM, WorkloadKind::Sv).is_some());
        assert!(find(&ms, Platform::TwoCorePentiumM, WorkloadKind::Sv).is_none());
    }
}
