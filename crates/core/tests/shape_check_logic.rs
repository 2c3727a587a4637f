//! Unit tests for the shape-check predicates themselves, using synthetic
//! measurements (no simulation): feeding the checks the paper's *own*
//! published numbers must make every applicable check pass, and feeding
//! them inverted data must make them fail.

use aon_core::experiment::Measurement;
use aon_core::paper;
use aon_core::report::{
    check_fig3_shapes, check_table4_shapes, check_table5_shapes, check_table6_shapes,
};
use aon_core::workload::WorkloadKind;
use aon_sim::config::Platform;
use aon_sim::counters::PerfCounters;
use aon_sim::stats::MachineStats;
use aon_trace::num::exact_f64;

/// Truncating `f64` → `u64` for synthesizing counter values from target
/// ratios. Inputs are small positive magnitudes, so the narrowing is the
/// intended rounding, not data loss.
fn trunc_u64(v: f64) -> u64 {
    debug_assert!(v.is_finite() && v >= 0.0);
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "inputs are small positive magnitudes; truncation is the intended rounding"
    )]
    let out = v as u64;
    out
}

/// Build a synthetic measurement with chosen derived metrics.
fn synth(
    platform: Platform,
    workload: WorkloadKind,
    cpi: f64,
    brf_pct: f64,
    brmpr_pct: f64,
    units_per_sec: f64,
) -> Measurement {
    // Choose counters that produce the requested metrics at 1 GHz over 1 s.
    let cycles: u64 = 1_000_000_000;
    let inst = trunc_u64(exact_f64(cycles) / cpi);
    let branches = trunc_u64(exact_f64(inst) * brf_pct / 100.0);
    let mispredicts = trunc_u64(exact_f64(branches) * brmpr_pct / 100.0);
    let total = PerfCounters {
        clockticks: cycles,
        inst_retired_milli: inst * 1000,
        // Synthetic blocks must still satisfy the counter invariants the
        // report validates (branches are a subset of abstract ops).
        abstract_ops: inst,
        branches_retired: branches,
        branch_mispredicts: mispredicts,
        ..Default::default()
    };
    Measurement {
        platform,
        workload,
        stats: MachineStats {
            platform: platform.notation().to_string(),
            cpu_mhz: 1000,
            cycles,
            completed_units: trunc_u64(units_per_sec),
            completed_bytes: trunc_u64(units_per_sec) * 5120,
            total,
            per_cpu: vec![total],
        },
    }
}

/// A full server grid synthesized from the paper's published values.
fn paper_grid() -> Vec<Measurement> {
    let mut out = Vec::new();
    for w in WorkloadKind::SERVER {
        let cpi = paper::table4_cpi(w).expect("paper table covers every server workload");
        let brf = paper::table5_branch_freq(w).expect("paper table covers every server workload");
        let brmpr = paper::table6_brmpr(w).expect("paper table covers every server workload");
        // Synthesize absolute throughputs consistent with Figure 3's
        // scaling factors.
        let base = 10_000.0;
        let s3 = |pair| paper::fig3_scaling(pair, w).expect("paper figure covers every pair");
        use aon_core::metrics::ScalingPair::*;
        let tput = [
            base,
            base * s3(PmDualCore),
            base * 0.7,
            base * 0.7 * s3(XeonHyperthread),
            base * 0.7 * s3(XeonDualPackage),
        ];
        for (i, p) in Platform::ALL.iter().enumerate() {
            out.push(synth(*p, w, cpi[i], brf[i], brmpr[i], tput[i]));
        }
    }
    out
}

#[test]
fn paper_numbers_pass_their_own_checks() {
    let ms = paper_grid();
    for c in check_fig3_shapes(&ms)
        .into_iter()
        .chain(check_table4_shapes(&ms))
        .chain(check_table5_shapes(&ms))
        .chain(check_table6_shapes(&ms))
    {
        assert!(c.pass, "paper data must satisfy its own claim: {} — {}", c.name, c.detail);
    }
}

#[test]
fn inverted_scaling_fails_fig3_checks() {
    // Swap the HT and dual-package throughputs: "dual package beats HT"
    // must now fail.
    let mut ms = paper_grid();
    for m in &mut ms {
        match m.platform {
            Platform::TwoLogicalXeon => m.stats.completed_units *= 10,
            Platform::TwoPhysicalXeon => m.stats.completed_units /= 10,
            _ => {}
        }
    }
    let checks = check_fig3_shapes(&ms);
    assert!(checks.iter().any(|c| !c.pass), "inverted data must fail at least one Figure 3 check");
}

#[test]
fn flat_brmpr_fails_table6_ht_check() {
    // Make every platform's BrMPR identical: the HT-inflation claim fails.
    let ms: Vec<Measurement> = WorkloadKind::SERVER
        .iter()
        .flat_map(|&w| Platform::ALL.iter().map(move |&p| synth(p, w, 2.0, 20.0, 2.0, 10_000.0)))
        .collect();
    let checks = check_table6_shapes(&ms);
    let ht_check =
        checks.iter().find(|c| c.name.contains("Hyperthreading inflates")).expect("check exists");
    assert!(!ht_check.pass, "flat BrMPR must fail the HT claim");
}

#[test]
fn equal_branch_freq_fails_table5_check() {
    let ms: Vec<Measurement> = WorkloadKind::SERVER
        .iter()
        .flat_map(|&w| Platform::ALL.iter().map(move |&p| synth(p, w, 2.0, 20.0, 2.0, 10_000.0)))
        .collect();
    let checks = check_table5_shapes(&ms);
    assert!(checks.iter().any(|c| !c.pass), "identical branch fractions must fail the 2x claim");
}
