//! End-to-end SMT effect tests: the mechanisms behind the paper's §5.5
//! observations, isolated with synthetic workloads.

use aon_sim::config::Platform;
use aon_sim::machine::Machine;
use aon_sim::thread::LoopWorkload;
use aon_trace::num::ratio;
use aon_trace::trace::{Binding, Trace};
use aon_trace::Op;

/// A branchy trace of short periodic loop patterns — fully predictable
/// with a private global-history register (the period fits in the history
/// window), destroyed when a sibling thread's outcomes interleave into a
/// shared history register.
fn branchy_trace(n: u32, seed: u32) -> Trace {
    let mut t = Trace::with_label("branchy");
    // Four branch sites, each with its own loop period.
    const SITES: [(u32, u32); 4] =
        [(0xcead_555f, 5), (0x509a_2ce6, 6), (0xf2c3_a62d, 7), (0x140b_3874, 3)];
    for i in 0..n {
        let (site, period) = SITES[((i + seed) % 4) as usize];
        t.push(Op::Alu(3));
        t.push(Op::Branch { site, taken: (i % period) != 0 });
    }
    t
}

fn brmpr_with_two_threads(p: Platform) -> f64 {
    let mut m = Machine::new(p.config());
    m.spawn(Box::new(LoopWorkload::new(branchy_trace(20_000, 7), Binding::new(), 10)));
    m.spawn(Box::new(LoopWorkload::new(branchy_trace(20_000, 13), Binding::new(), 10)));
    m.run(1_000_000_000);
    m.counters_total().brmpr_pct()
}

#[test]
fn shared_history_hurts_hyperthreads_but_not_packages() {
    // Same two threads: on 2LPx they share one core's history register; on
    // 2PPx they have private predictors. Table 6's §5.5 observation.
    let ht = brmpr_with_two_threads(Platform::TwoLogicalXeon);
    let pp = brmpr_with_two_threads(Platform::TwoPhysicalXeon);
    assert!(
        ht > pp * 1.25,
        "HT history sharing must inflate BrMPR: 2LPx {ht:.2}% vs 2PPx {pp:.2}%"
    );
}

#[test]
fn pm_dual_core_predicts_like_single_core() {
    let one = {
        let mut m = Machine::new(Platform::OneCorePentiumM.config());
        m.spawn(Box::new(LoopWorkload::new(branchy_trace(20_000, 7), Binding::new(), 10)));
        m.run(1_000_000_000);
        m.counters_total().brmpr_pct()
    };
    let two = brmpr_with_two_threads(Platform::TwoCorePentiumM);
    // Private predictors per core: no meaningful inflation.
    assert!(
        (two - one).abs() < one.max(0.2) * 0.5 + 0.2,
        "dual-core PM must not inflate BrMPR: {one:.2}% -> {two:.2}%"
    );
}

#[test]
fn smt_throughput_gain_depends_on_stall_fraction() {
    // A memory-stalling trace benefits from SMT; a pure-ALU trace barely
    // does (the paper's reverse trend, §5.1).
    use aon_trace::{Addr, RegionSlot};

    let alu_trace = {
        let mut t = Trace::with_label("alu");
        for _ in 0..5_000 {
            t.push(Op::Alu(16));
        }
        t
    };
    let mem_trace = {
        let mut t = Trace::with_label("mem");
        for i in 0..5_000u32 {
            // Streaming loads: every line misses.
            t.push(Op::Load { addr: Addr::new(RegionSlot::MSG, i * 64), size: 8 });
            t.push(Op::Alu(2));
        }
        t
    };

    let elapsed = |trace: &Trace, threads: u32| -> u64 {
        let mut m = Machine::new(Platform::TwoLogicalXeon.config());
        for k in 0..threads {
            let mut b = Binding::new();
            // Distinct streaming regions per thread.
            b.bind(RegionSlot::MSG, aon_trace::VAddr(0x4000_0000 + k as u64 * 0x400_0000));
            m.spawn(Box::new(LoopWorkload::new(trace.clone(), b, 8)));
        }
        m.run(5_000_000_000).end_time
    };

    let alu_gain = ratio(elapsed(&alu_trace, 1), elapsed(&alu_trace, 2)) * 2.0;
    let mem_gain = ratio(elapsed(&mem_trace, 1), elapsed(&mem_trace, 2)) * 2.0;
    assert!(
        mem_gain > alu_gain + 0.2,
        "SMT must help stall-heavy work more: mem {mem_gain:.2}x vs alu {alu_gain:.2}x"
    );
    assert!(alu_gain < 1.35, "issue-bound work cannot double on one core: {alu_gain:.2}x");
}
