//! Shape-reproduction integration tests: the paper's headline qualitative
//! claims, checked end-to-end on shortened measurement windows.
//!
//! The full-fidelity grid (default windows, all 20 checks) runs via
//! `aon-bench all` (`cargo run -p aon-bench --release -- all`); the
//! `full_grid_shapes` test below reruns it in-process and is `#[ignore]`d
//! by default because it takes minutes in debug builds — run it with
//! `cargo test --release -- --ignored`.

use aon::core::experiment::{run_grid, ExperimentConfig};
use aon::core::metrics::{throughput_scaling, MetricKind, ScalingPair};
use aon::core::report::{check_all_shapes, metric_row};
use aon::core::workload::WorkloadKind;
use aon::sim::config::Platform;

fn quick() -> ExperimentConfig {
    ExperimentConfig {
        warmup_cycles: 3_000_000,
        measure_cycles: 12_000_000,
        corpus_seed: 42,
        corpus_variants: 2,
    }
}

#[test]
fn branch_frequency_gap_table5() {
    let cfg = quick();
    let ms =
        run_grid(&[Platform::OneCorePentiumM, Platform::OneLogicalXeon], &[WorkloadKind::Sv], &cfg);
    let row = metric_row(&ms, WorkloadKind::Sv, MetricKind::BranchFreq);
    let (pm, xe) = (row[0], row[2]);
    assert!(pm / xe > 1.4, "PM branch fraction ~2x Xeon (Table 5): {pm:.1}% vs {xe:.1}%");
}

#[test]
fn hyperthreading_inflates_brmpr_table6() {
    let cfg = quick();
    let ms =
        run_grid(&[Platform::OneLogicalXeon, Platform::TwoLogicalXeon], &[WorkloadKind::Cbr], &cfg);
    let row = metric_row(&ms, WorkloadKind::Cbr, MetricKind::BrMpr);
    assert!(
        row[3] / row[2] >= 1.25,
        "HT must inflate BrMPR >= 25% (Table 6): 1LPx {:.2}% vs 2LPx {:.2}%",
        row[2],
        row[3]
    );
}

#[test]
fn cpi_ordering_table4() {
    let cfg = quick();
    let ms = run_grid(
        &[Platform::OneCorePentiumM, Platform::OneLogicalXeon],
        &[WorkloadKind::Fr, WorkloadKind::Sv],
        &cfg,
    );
    let fr = metric_row(&ms, WorkloadKind::Fr, MetricKind::Cpi);
    let sv = metric_row(&ms, WorkloadKind::Sv, MetricKind::Cpi);
    assert!(fr[0] > sv[0], "FR CPI > SV CPI on PM: {:.2} vs {:.2}", fr[0], sv[0]);
    assert!(fr[2] > sv[2], "FR CPI > SV CPI on Xeon: {:.2} vs {:.2}", fr[2], sv[2]);
    assert!(sv[2] > sv[0], "Xeon CPI above PM CPI: {:.2} vs {:.2}", sv[2], sv[0]);
}

#[test]
fn dual_package_beats_hyperthreading_fig3() {
    let cfg = quick();
    let ms = run_grid(
        &[Platform::OneLogicalXeon, Platform::TwoLogicalXeon, Platform::TwoPhysicalXeon],
        &[WorkloadKind::Sv],
        &cfg,
    );
    let ht = throughput_scaling(&ms, ScalingPair::XeonHyperthread, WorkloadKind::Sv).unwrap();
    let pp = throughput_scaling(&ms, ScalingPair::XeonDualPackage, WorkloadKind::Sv).unwrap();
    assert!(
        pp > ht + 0.3,
        "two packages must clearly beat HT for CPU-bound SV: {pp:.2} vs {ht:.2}"
    );
    assert!(pp > 1.6, "dual package scales well: {pp:.2}");
}

#[test]
fn loopback_collapses_across_packages_fig2() {
    let cfg = quick();
    let ms = run_grid(
        &[Platform::OneLogicalXeon, Platform::TwoPhysicalXeon],
        &[WorkloadKind::NetperfLoopback],
        &cfg,
    );
    let one = metric_row(&ms, WorkloadKind::NetperfLoopback, MetricKind::ThroughputMbps)[2];
    let two = metric_row(&ms, WorkloadKind::NetperfLoopback, MetricKind::ThroughputMbps)[4];
    assert!(
        two < 0.75 * one,
        "cross-package loopback must collapse (Fig 2): {two:.0} vs {one:.0} Mbps"
    );
}

#[test]
#[ignore = "minutes-long: full default-window grid; run with --release -- --ignored"]
fn full_grid_shapes() {
    let cfg = ExperimentConfig::default();
    let ms = run_grid(&Platform::ALL, &WorkloadKind::ALL, &cfg);
    let checks = check_all_shapes(&ms);
    let passed = checks.iter().filter(|c| c.pass).count();
    for c in &checks {
        eprintln!("[{}] {} — {}", if c.pass { "PASS" } else { "MISS" }, c.name, c.detail);
    }
    assert!(
        passed >= 19,
        "the shape score never drops below 19 (EXPERIMENTS.md): {passed}/{}",
        checks.len()
    );
}
