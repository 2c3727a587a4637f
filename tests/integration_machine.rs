//! Cross-crate integration: workloads on simulated machines — counter
//! consistency, determinism, and platform topology invariants.

use aon::core::experiment::{run_cell, ExperimentConfig};
use aon::core::workload::WorkloadKind;
use aon::sim::config::Platform;
use aon::trace::num::exact_f64;

fn quick() -> ExperimentConfig {
    ExperimentConfig {
        warmup_cycles: 1_000_000,
        measure_cycles: 5_000_000,
        corpus_seed: 42,
        corpus_variants: 2,
    }
}

#[test]
fn counters_are_internally_consistent() {
    for w in [WorkloadKind::Fr, WorkloadKind::NetperfLoopback] {
        let m = run_cell(Platform::TwoCorePentiumM, w, &quick());
        let t = &m.stats.total;
        // Mispredicts cannot exceed branches; L2 misses cannot exceed L1
        // misses + instruction fetch misses; branches are part of retired.
        assert!(t.branch_mispredicts <= t.branches_retired);
        assert!(exact_f64(t.branches_retired) <= t.inst_retired());
        assert!(t.loads + t.stores <= t.abstract_ops);
        // Clockticks are wall cycles per enabled CPU: identical across CPUs.
        let clk: Vec<u64> = m.stats.per_cpu.iter().map(|c| c.clockticks).collect();
        assert!(clk.windows(2).all(|w| w[0] == w[1]), "per-CPU clockticks differ: {clk:?}");
        // Stall + idle + flush cannot exceed total cycles per CPU.
        for c in &m.stats.per_cpu {
            assert!(c.idle_cycles <= c.clockticks);
        }
    }
}

#[test]
fn all_platform_workload_cells_run_without_deadlock() {
    let cfg = ExperimentConfig {
        warmup_cycles: 500_000,
        measure_cycles: 2_000_000,
        corpus_seed: 42,
        corpus_variants: 2,
    };
    for p in Platform::ALL {
        for w in WorkloadKind::ALL {
            let m = run_cell(p, w, &cfg);
            assert!(m.stats.completed_units > 0, "{w} on {p} completed nothing in the window");
            assert!(m.stats.total.inst_retired() > 0.0);
        }
    }
}

#[test]
fn determinism_holds_across_the_stack() {
    let cfg = quick();
    for w in [WorkloadKind::Sv, WorkloadKind::NetperfE2E] {
        let a = run_cell(Platform::TwoLogicalXeon, w, &cfg);
        let b = run_cell(Platform::TwoLogicalXeon, w, &cfg);
        assert_eq!(a.stats.total, b.stats.total, "{w} must be bit-deterministic");
        assert_eq!(a.stats.completed_units, b.stats.completed_units);
        assert_eq!(a.stats.per_cpu.len(), b.stats.per_cpu.len());
        for (x, y) in a.stats.per_cpu.iter().zip(&b.stats.per_cpu) {
            assert_eq!(x, y);
        }
    }
}

#[test]
fn dual_unit_platforms_use_both_cpus() {
    for p in [Platform::TwoCorePentiumM, Platform::TwoLogicalXeon, Platform::TwoPhysicalXeon] {
        let m = run_cell(p, WorkloadKind::Cbr, &quick());
        assert_eq!(m.stats.per_cpu.len(), 2);
        for (i, c) in m.stats.per_cpu.iter().enumerate() {
            assert!(c.abstract_ops > 0, "{p}: cpu{i} executed nothing");
        }
    }
}

#[test]
fn xeon_reports_more_retired_instructions_than_pm_for_same_work() {
    // Netburst cracking: same messages, more retired instructions.
    let cfg = quick();
    let pm = run_cell(Platform::OneCorePentiumM, WorkloadKind::Sv, &cfg);
    let xe = run_cell(Platform::OneLogicalXeon, WorkloadKind::Sv, &cfg);
    let pm_per_msg = pm.stats.total.inst_retired() / exact_f64(pm.stats.completed_units);
    let xe_per_msg = xe.stats.total.inst_retired() / exact_f64(xe.stats.completed_units);
    assert!(
        xe_per_msg / pm_per_msg > 1.4,
        "Xeon should retire ~1.8x instructions per message: {xe_per_msg:.0} vs {pm_per_msg:.0}"
    );
}
