//! Determinism equivalence suite for the perf optimizations.
//!
//! Every fast path in the pipeline — memoized trace recording, batched
//! replay, the pooled grid — has a slow reference twin. This suite runs both sides on at least two platforms
//! and two workloads and demands **byte-identical** [`PerfCounters`]
//! (full struct equality on the aggregate and every per-CPU block), so an
//! optimization that drifts by a single event count fails loudly here
//! before it can perturb EXPERIMENTS.md.

use aon_core::experiment::{
    measure, run_cell, run_cell_fresh, run_grid, ExperimentConfig, Measurement,
};
use aon_core::memo::CorpusSpec;
use aon_core::workload::WorkloadKind;
use aon_sim::config::Platform;
use aon_sim::machine::Machine;
use aon_sim::stats::MachineStats;

/// Platforms spanning both microarchitectures and both multi-unit styles.
const PLATFORMS: [Platform; 3] =
    [Platform::OneCorePentiumM, Platform::TwoCorePentiumM, Platform::TwoLogicalXeon];

/// A CPU-bound server case and an I/O-bound baseline.
const WORKLOADS: [WorkloadKind; 2] = [WorkloadKind::Sv, WorkloadKind::NetperfLoopback];

fn assert_stats_identical(a: &MachineStats, b: &MachineStats, what: &str) {
    assert_eq!(a.total, b.total, "{what}: aggregate counters must be byte-identical");
    assert_eq!(a.per_cpu, b.per_cpu, "{what}: per-CPU counters must be byte-identical");
    assert_eq!(a.cycles, b.cycles, "{what}: measured windows must agree");
    assert_eq!(a.completed_units, b.completed_units, "{what}: completed units must agree");
    assert_eq!(a.completed_bytes, b.completed_bytes, "{what}: completed bytes must agree");
}

#[test]
fn memoized_traces_match_fresh_recordings() {
    let cfg = ExperimentConfig::quick();
    for p in PLATFORMS {
        for w in WORKLOADS {
            let memoized = run_cell(p, w, &cfg);
            let fresh = run_cell_fresh(p, w, &cfg);
            assert_stats_identical(
                &memoized.stats,
                &fresh.stats,
                &format!("memoized vs fresh, {p:?} x {w:?}"),
            );
        }
    }
}

/// Replay a cell with the replay engine forced to the scalar reference
/// interpreter (the batched path is the production default).
fn run_cell_scalar(
    platform: Platform,
    workload: WorkloadKind,
    cfg: &ExperimentConfig,
) -> MachineStats {
    let mut machine = Machine::new(platform.config());
    machine.set_reference_replay(true);
    workload.build_memoized(&mut machine, CorpusSpec::of(cfg));
    measure(&mut machine, cfg)
}

#[test]
fn batched_replay_matches_scalar_reference() {
    let cfg = ExperimentConfig::quick();
    for p in PLATFORMS {
        for w in WORKLOADS {
            let batched = run_cell(p, w, &cfg);
            let scalar = run_cell_scalar(p, w, &cfg);
            assert_stats_identical(
                &batched.stats,
                &scalar,
                &format!("batched vs scalar, {p:?} x {w:?}"),
            );
        }
    }
}

#[test]
fn pooled_grid_matches_serial_grid() {
    let cfg = ExperimentConfig::quick();
    let serial: Vec<Measurement> =
        WORKLOADS.iter().flat_map(|&w| PLATFORMS.map(|p| run_cell(p, w, &cfg))).collect();
    let pooled = run_grid(&PLATFORMS, &WORKLOADS, &cfg);
    assert_eq!(serial.len(), pooled.len());
    for (a, b) in serial.iter().zip(&pooled) {
        assert_eq!(a.platform, b.platform, "grid cell order must be deterministic");
        assert_eq!(a.workload, b.workload, "grid cell order must be deterministic");
        assert_stats_identical(
            &a.stats,
            &b.stats,
            &format!("pooled vs serial, {:?} x {:?}", a.platform, a.workload),
        );
    }
}

#[test]
fn repeated_cells_are_bit_stable() {
    // The memo caches are warm after the first call; the second call must
    // reproduce the first exactly (shared traces cannot drift).
    let cfg = ExperimentConfig::quick();
    for w in WORKLOADS {
        let first = run_cell(Platform::TwoLogicalXeon, w, &cfg);
        let second = run_cell(Platform::TwoLogicalXeon, w, &cfg);
        assert_stats_identical(&first.stats, &second.stats, &format!("repeat, {w:?}"));
    }
}
