//! Property tests for the tracing substrate.

use aon_trace::op::{Addr, Op, RegionSlot};
use aon_trace::trace::{Binding, Trace, TraceStats};
use aon_trace::{mix::Mix, Probe, SiteId, Tracer, VAddr};
use proptest::prelude::*;

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u16..500).prop_map(Op::Alu),
        (0u8..16, 0u32..100_000, prop_oneof![Just(1u8), Just(4), Just(8)]).prop_map(
            |(slot, off, size)| Op::Load { addr: Addr::new(RegionSlot(slot), off), size }
        ),
        (0u8..16, 0u32..100_000, prop_oneof![Just(1u8), Just(4), Just(8)]).prop_map(
            |(slot, off, size)| Op::Store { addr: Addr::new(RegionSlot(slot), off), size }
        ),
        (any::<u32>(), any::<bool>()).prop_map(|(site, taken)| Op::Branch { site, taken }),
        any::<u32>().prop_map(|site| Op::Jump { site }),
    ]
}

/// [`arb_op`] with one op in three an ALU run near `u16::MAX`, so
/// neighbouring runs overflow the coalescing limit and split.
fn arb_op_saturating() -> impl Strategy<Value = Op> {
    prop_oneof![arb_op(), arb_op(), (u16::MAX - 400..=u16::MAX).prop_map(Op::Alu)]
}

proptest! {
    #[test]
    fn on_demand_stats_equal_a_per_push_fold(
        ops in prop::collection::vec(arb_op_saturating(), 0..400),
    ) {
        let mut t = Trace::default();
        let mut reference = TraceStats::default();
        let mut tracer = Tracer::new();
        for op in &ops {
            reference.record(op);
            t.push(*op);
            match *op {
                Op::Alu(n) => tracer.alu(u32::from(n)),
                Op::Load { addr, size } => tracer.load(addr, size),
                Op::Store { addr, size } => tracer.store(addr, size),
                Op::Branch { site, taken } => tracer.branch(SiteId(site), taken),
                Op::Jump { site } => tracer.jump(SiteId(site)),
            }
        }
        prop_assert_eq!(t.stats(), reference);
        // The tracer appends non-ALU ops without the coalescing read-back
        // and still records exactly what `push` does.
        let recorded = tracer.finish();
        prop_assert_eq!(recorded.ops(), t.ops());
        prop_assert_eq!(recorded.stats(), reference);
    }

    #[test]
    fn stats_count_every_op_exactly_once(ops in prop::collection::vec(arb_op(), 0..400)) {
        let mut t = Trace::default();
        let mut expected_ops = 0u64;
        let mut expected_branches = 0u64;
        let mut expected_loads = 0u64;
        for op in &ops {
            expected_ops += op.weight();
            match op {
                Op::Branch { .. } => expected_branches += 1,
                Op::Load { .. } => expected_loads += 1,
                _ => {}
            }
            t.push(*op);
        }
        let s = t.stats();
        prop_assert_eq!(s.ops, expected_ops);
        prop_assert_eq!(s.branches, expected_branches);
        prop_assert_eq!(s.loads, expected_loads);
        // Coalescing never grows the record count.
        prop_assert!(t.len() <= ops.len());
    }

    #[test]
    fn alu_coalescing_preserves_totals(runs in prop::collection::vec(1u16..1000, 1..100)) {
        let mut coalesced = Trace::default();
        let mut split = Trace::default();
        for &n in &runs {
            coalesced.push(Op::Alu(n));
            // Same work, pushed one op at a time.
            for _ in 0..n {
                split.push(Op::Alu(1));
            }
        }
        prop_assert_eq!(coalesced.stats().alus, split.stats().alus);
        prop_assert_eq!(coalesced.stats().ops, split.stats().ops);
    }

    #[test]
    fn binding_resolution_is_affine(
        slot in 0u8..16,
        base in 0u64..u32::MAX as u64,
        off_a in 0u32..1_000_000,
        off_b in 0u32..1_000_000,
    ) {
        let mut b = Binding::new();
        b.bind(RegionSlot(slot), VAddr(base));
        let ra = b.resolve(Addr::new(RegionSlot(slot), off_a)).0;
        let rb = b.resolve(Addr::new(RegionSlot(slot), off_b)).0;
        prop_assert_eq!(ra - base, off_a as u64);
        // Address deltas equal offset deltas.
        prop_assert_eq!(ra as i128 - rb as i128, off_a as i128 - off_b as i128);
    }

    #[test]
    fn mix_fractions_always_normalized(ops in prop::collection::vec(arb_op(), 0..300)) {
        let mut t = Trace::default();
        for op in ops {
            t.push(op);
        }
        let m = Mix::of(&t);
        prop_assert!(m.is_normalized());
        prop_assert!(m.taken_ratio >= 0.0 && m.taken_ratio <= 1.0);
    }

    #[test]
    fn extend_from_equals_sequential_push(
        a in prop::collection::vec(arb_op(), 0..150),
        b in prop::collection::vec(arb_op(), 0..150),
    ) {
        let mut left = Trace::default();
        for op in a.iter().chain(&b) {
            left.push(*op);
        }
        let mut right = Trace::default();
        for op in &a {
            right.push(*op);
        }
        let mut tail = Trace::default();
        for op in &b {
            tail.push(*op);
        }
        right.extend_from(&tail);
        prop_assert_eq!(left.stats(), right.stats());
    }
}
