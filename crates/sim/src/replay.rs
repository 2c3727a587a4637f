//! The op loop: one quantum of one logical CPU's trace replay.
//!
//! [`replay`] is the one replay interpreter; every per-CPU counter of a
//! trace comes from it. It advances against an explicit [`Quantum`], so it
//! needs no [`crate::machine::Machine`]: the machine builds one per
//! scheduling quantum, and a microbenchmark builds one by hand.

use crate::branch::Gshare;
use crate::bus::SlotTimeline;
use crate::config::CoreArch;
use crate::counters::PerfCounters;
use crate::hier::{MemorySystem, Placement};
use crate::isa::CrackModel;
use aon_trace::code::site_pc;
use aon_trace::op::{Op, OpClass};
use aon_trace::trace::Binding;

/// What one quantum of replay touches: the memory system, the core's
/// predictor, a copy of the core's issue timeline, the CPU's placement and
/// four arch constants, each resolved once per quantum.
pub struct Quantum<'a> {
    mem: &'a mut MemorySystem,
    pred: &'a mut Gshare,
    /// Booked locally and written back by the caller. No other logical CPU
    /// runs during a quantum, so the SMT sibling never sees the copy.
    pub(crate) timeline: SlotTimeline,
    at: Placement,
    crack: CrackModel,
    penalty: u64,
    store_cost: u64,
    l1d_lat: u64,
}

impl<'a> Quantum<'a> {
    /// A quantum of the logical CPU placed at `at` on a core of `arch`,
    /// with that core's predictor and a copy of its issue timeline.
    pub fn new(
        mem: &'a mut MemorySystem,
        pred: &'a mut Gshare,
        timeline: SlotTimeline,
        at: Placement,
        arch: &CoreArch,
    ) -> Self {
        Quantum {
            mem,
            pred,
            timeline,
            at,
            crack: arch.crack,
            penalty: u64::from(arch.mispredict_penalty),
            store_cost: u64::from(arch.store_cost),
            l1d_lat: u64::from(arch.l1d.latency),
        }
    }

    /// Add a quantum's counts to a counter block. `inst_retired_milli`,
    /// `abstract_ops`, `branches_retired` and `flush_cycles` are linear in
    /// the counts, so they are derived here, exactly.
    pub(crate) fn merge(&self, n: &QuantumCounts, c: &mut PerfCounters) {
        let crack = self.crack;
        c.inst_retired_milli += crack.retired_milli(OpClass::Alu, n.alu)
            + crack.retired_milli(OpClass::Load, n.loads)
            + crack.retired_milli(OpClass::Store, n.stores)
            + crack.retired_milli(OpClass::Branch, n.branches)
            + crack.retired_milli(OpClass::Jump, n.jumps);
        c.abstract_ops += n.alu + n.loads + n.stores + n.branches + n.jumps;
        c.branches_retired += n.branches + n.jumps;
        c.branch_mispredicts += n.mispredicts;
        c.flush_cycles += self.penalty * n.mispredicts;
        c.l1d_misses += n.l1d_misses;
        c.l1i_misses += n.l1i_misses;
        c.l2_misses += n.l2_misses;
        c.bus_txns += n.bus_txns;
        c.loads += n.loads;
        c.stores += n.stores;
        c.mem_stall_cycles += n.mem_stall;
    }
}

/// One quantum's counts: ALU ops (the runs' lengths summed), load, store,
/// branch and jump records, mispredicts, L1D, L1I and L2 (data and
/// instruction) misses, bus transactions and memory stall cycles. A new
/// per-quantum count is a new field here, merged in [`Quantum::merge`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QuantumCounts {
    pub(crate) alu: u64,
    pub(crate) loads: u64,
    pub(crate) stores: u64,
    pub(crate) branches: u64,
    pub(crate) jumps: u64,
    pub(crate) mispredicts: u64,
    pub(crate) l1d_misses: u64,
    pub(crate) l1i_misses: u64,
    pub(crate) l2_misses: u64,
    pub(crate) bus_txns: u64,
    pub(crate) mem_stall: u64,
}

/// Replay `ops` from time `t`, resolving addresses through `binding`, until
/// they run out or a record would start past `t_limit`. A record that
/// starts by `t_limit` retires whole, however far it carries `t`. Returns
/// the time after the last retired record, the records retired and their
/// counts. DESIGN.md §11 (layer 2) says how the loop is built for speed.
#[inline]
pub fn replay(
    q: &mut Quantum<'_>,
    ops: &[Op],
    binding: &Binding,
    mut t: u64,
    t_limit: u64,
) -> (u64, usize, QuantumCounts) {
    let (at, penalty, store_cost, l1d_lat) = (q.at, q.penalty, q.store_cost, q.l1d_lat);
    let (mem, pred) = (&mut *q.mem, &mut *q.pred);
    let mut timeline = q.timeline;
    let sibling = at.sibling as usize;
    let mut executed = 0usize;
    let mut n = QuantumCounts::default();
    for op in ops {
        if t > t_limit {
            break;
        }
        executed += 1;
        match *op {
            Op::Alu(len) => {
                t = timeline.book(t, len);
                n.alu += u64::from(len);
            }
            Op::Load { addr, size } => {
                t = timeline.book(t, 1);
                let ev = mem.access_data(at, binding.resolve(addr).0, size as u32, false, t);
                // On a hit every multiplied term is zero.
                let miss = ev.l1_miss as u64;
                t += ev.latency * miss;
                n.mem_stall += ev.latency.saturating_sub(l1d_lat) * miss;
                n.l1d_misses += miss;
                n.l2_misses += ev.l2_miss as u64;
                n.bus_txns += ev.bus_txns as u64;
                n.loads += 1;
            }
            Op::Store { addr, size } => {
                t = timeline.book(t, 1);
                let ev = mem.access_data(at, binding.resolve(addr).0, size as u32, true, t);
                // Stores retire through the store buffer: a fixed cost, plus
                // backpressure when it drains slowly (a quarter of the miss
                // latency models the queue filling under streaming writes).
                let bp = (ev.latency / 4) * ev.l1_miss as u64;
                t += store_cost + bp;
                n.mem_stall += bp;
                n.l1d_misses += ev.l1_miss as u64;
                n.l2_misses += ev.l2_miss as u64;
                n.bus_txns += ev.bus_txns as u64;
                n.stores += 1;
            }
            Op::Branch { site, taken } => {
                t = timeline.book(t, 1);
                let pc = site_pc(site).0;
                let iev = mem.access_inst(at, pc, t);
                let wrong = !pred.update(pc, sibling, taken) as u64;
                if iev.l1_miss {
                    t += iev.latency;
                    n.l1i_misses += 1;
                    n.l2_misses += iev.l2_miss as u64;
                    n.bus_txns += iev.bus_txns as u64;
                }
                n.mispredicts += wrong;
                t += penalty * wrong;
                n.branches += 1;
            }
            Op::Jump { site } => {
                t = timeline.book(t, 1);
                let iev = mem.access_inst(at, site_pc(site).0, t);
                if iev.l1_miss {
                    t += iev.latency;
                    n.l1i_misses += 1;
                    n.l2_misses += iev.l2_miss as u64;
                    n.bus_txns += iev.bus_txns as u64;
                }
                n.jumps += 1;
            }
        }
    }
    q.timeline = timeline;
    (t, executed, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Platform;
    use aon_trace::op::{Addr, RegionSlot};

    #[test]
    fn a_record_that_starts_by_the_limit_retires_whole_and_the_next_does_not() {
        // A hand-built 1CPm quantum: no machine, no scheduler.
        let cfg = Platform::OneCorePentiumM.config();
        let mut mem = MemorySystem::new(&cfg);
        let mut pred = Gshare::new(cfg.arch.predictor);
        let at = mem.placement(0);
        let timeline = SlotTimeline::new(cfg.arch.issue_width_x100);
        let mut q = Quantum::new(&mut mem, &mut pred, timeline, at, &cfg.arch);
        let b = Binding::new();

        assert_eq!(replay(&mut q, &[], &b, 1_000, 1_120), (1_000, 0, QuantumCounts::default()));

        // The ALU run starts at t = 1, by the limit, and carries t past it;
        // the load after it starts past the limit and does not retire.
        let load = Op::Load { addr: Addr::new(RegionSlot::STATIC, 0), size: 8 };
        let ops = [Op::Alu(2), Op::Alu(400), load];
        let alu_only = QuantumCounts { alu: 402, ..QuantumCounts::default() };
        assert_eq!(replay(&mut q, &ops, &b, 0, 50), (251, 2, alu_only));

        // The next quantum resumes at the load: a cold miss.
        let load_miss = QuantumCounts {
            loads: 1,
            l1d_misses: 1,
            l2_misses: 1,
            bus_txns: 1,
            mem_stall: 161,
            ..QuantumCounts::default()
        };
        assert_eq!(replay(&mut q, &ops[2..], &b, 251, 251 + 120), (415, 1, load_miss));
    }
}
