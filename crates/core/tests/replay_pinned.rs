//! What the simulator *does* with a recording, pinned by content.
//!
//! `recording_fingerprints` pins the op streams; this test pins the replay
//! of them. There is one replay interpreter and no reference twin beside
//! it, so a change to the op loop's bookkeeping or to the cache model
//! shows here and nowhere else in the crate's tests: five quick-window
//! cells, covering all five platforms and all five workloads, each reduced
//! to one digest over every per-CPU counter plus completed units and
//! bytes. The literals were taken before the replay fast paths they guard
//! were written; updating one is a regeneration of `EXPERIMENTS.md` and is
//! reviewed as one. `aon-sim`'s `every_op_kind_and_count_is_pinned` pins
//! each op kind's counts on a small scenario, and `ci.sh` pins the digest
//! of all 25 cells, quick and full windows.

use aon_core::experiment::{run_cell, ExperimentConfig};
use aon_core::workload::WorkloadKind;
use aon_sim::config::Platform;
use aon_sim::counters::PerfCounters;
use aon_sim::stats::MachineStats;

/// FNV-1a over the little-endian bytes of each word.
fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// One digest over every per-CPU counter (destructured, so a new field
/// fails to compile here until it is digested) plus the completed work.
fn digest(stats: &MachineStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for c in &stats.per_cpu {
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
        for w in [
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
        ] {
            fnv(&mut h, w);
        }
    }
    fnv(&mut h, stats.completed_units);
    fnv(&mut h, stats.completed_bytes);
    h
}

#[test]
fn replayed_counters_are_pinned() {
    let cfg = ExperimentConfig::quick();
    let mut moved = Vec::new();
    for (p, w, want) in [
        (Platform::OneCorePentiumM, WorkloadKind::Sv, 0xf68f_473e_0844_06d1_u64),
        (Platform::TwoCorePentiumM, WorkloadKind::NetperfLoopback, 0xde80_a634_5416_4351),
        (Platform::OneLogicalXeon, WorkloadKind::Cbr, 0xf33d_cc8d_79ac_5c20),
        (Platform::TwoLogicalXeon, WorkloadKind::Fr, 0xf65f_ee8b_bb35_da94),
        (Platform::TwoPhysicalXeon, WorkloadKind::NetperfE2E, 0x7977_cf2b_6271_538c),
    ] {
        let got = digest(&run_cell(p, w, &cfg).stats);
        if got != want {
            moved.push(format!("{p:?} x {w:?} replay moved: {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}
