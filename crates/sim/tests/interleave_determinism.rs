//! Deterministic-interleaving stress test for the scheduler.
//!
//! Every scheduling decision in [`aon_sim::machine`] — which ready thread
//! to place, which idle CPU receives it, which blocked thread a channel
//! operation wakes — is defined as a (key, index)-lexicographic minimum,
//! so the simulation must not depend on the order in which the scheduler's
//! selection loops happen to examine candidates. This test permutes that
//! scan order across many seeds (`Machine::set_scan_permutation`) over a
//! contended multi-stage pipeline that exercises `sync.rs` blocking sends
//! and receives, `thread.rs` timed waits, and CPU oversubscription, and
//! asserts that every permutation produces byte-identical counters.

use aon_sim::config::Platform;
use aon_sim::counters::PerfCounters;
use aon_sim::machine::Machine;
use aon_sim::sync::{ChannelConfig, ChannelId, Msg};
use aon_sim::thread::{Step, Workload, WorkloadCtx};
use aon_trace::trace::{Binding, Trace};
use aon_trace::{Addr, Op, RegionSlot};
use std::sync::Arc;

/// Produces `n` messages into a channel, computing between sends.
struct Producer {
    chan: ChannelId,
    trace: Arc<Trace>,
    n: u32,
    sent: bool,
}

impl Workload for Producer {
    fn next(&mut self, ctx: &mut WorkloadCtx) -> Step {
        if self.n == 0 {
            return Step::Done;
        }
        if self.sent {
            self.sent = false;
            return Step::Run { trace: Arc::clone(&self.trace), binding: Binding::new() };
        }
        self.n -= 1;
        self.sent = true;
        ctx.complete_units = 1;
        Step::Send { chan: self.chan, msg: Msg { bytes: 512, tag: u64::from(self.n) } }
    }
}

/// Receives from one channel, computes, and forwards to another.
struct Transformer {
    from: ChannelId,
    to: ChannelId,
    trace: Arc<Trace>,
}

impl Workload for Transformer {
    fn next(&mut self, ctx: &mut WorkloadCtx) -> Step {
        if let Some(msg) = ctx.last_recv.take() {
            return Step::Send { chan: self.to, msg };
        }
        if ctx.now.is_multiple_of(3) {
            // Occasionally compute before the next receive so the issue
            // timelines and caches see traffic between blocking points.
            return Step::Run { trace: Arc::clone(&self.trace), binding: Binding::new() };
        }
        Step::Recv { chan: self.from }
    }
}

/// Drains the final channel, pacing itself with timed waits.
struct Consumer {
    chan: ChannelId,
    pace: u64,
    next_wake: u64,
}

impl Workload for Consumer {
    fn next(&mut self, ctx: &mut WorkloadCtx) -> Step {
        if let Some(msg) = ctx.last_recv.take() {
            ctx.complete_units = 1;
            ctx.complete_bytes = u64::from(msg.bytes);
            self.next_wake = ctx.now + self.pace;
            return Step::WaitUntil(self.next_wake);
        }
        Step::Recv { chan: self.chan }
    }
}

fn compute_trace(label: &str, alu: u16) -> Arc<Trace> {
    let mut t = Trace::with_label(label);
    t.push(Op::Alu(alu));
    t.push(Op::Load { addr: Addr::new(RegionSlot::MSG, 0), size: 64 });
    t.push(Op::Branch { site: 7, taken: true });
    t.push(Op::Store { addr: Addr::new(RegionSlot::MSG, 64), size: 64 });
    t.push(Op::Branch { site: 9, taken: false });
    Arc::new(t)
}

/// Build the contended pipeline: 3 producers -> stage1 -> 3 transformers
/// -> stage2 -> 2 consumers, oversubscribing every platform's CPUs.
fn build(machine: &mut Machine) {
    let stage1 = machine.add_channel(ChannelConfig::bounded(2_048));
    let stage2 = machine.add_channel(ChannelConfig::bounded(1_024));
    for i in 0..3u32 {
        machine.spawn(Box::new(Producer {
            chan: stage1,
            trace: compute_trace("produce", 200 + u16::try_from(i * 50).expect("small literal")),
            n: 40,
            sent: false,
        }));
    }
    for _ in 0..3 {
        machine.spawn(Box::new(Transformer {
            from: stage1,
            to: stage2,
            trace: compute_trace("transform", 400),
        }));
    }
    for i in 0..2u64 {
        machine.spawn(Box::new(Consumer { chan: stage2, pace: 5_000 + i * 1_000, next_wake: 0 }));
    }
}

/// Run the pipeline, optionally under a permuted scan order, and return
/// everything observable: per-CPU counters and the run outcome.
fn run_once(platform: Platform, seed: Option<u64>) -> (Vec<PerfCounters>, u64, u64, u64) {
    let mut m = Machine::new(platform.config());
    if let Some(s) = seed {
        m.set_scan_permutation(s);
    }
    build(&mut m);
    m.run(150_000);
    m.reset_counters();
    let out = m.run(2_000_000);
    (m.counters().to_vec(), out.end_time, out.completed_units, out.completed_bytes)
}

#[test]
fn scan_permutation_cannot_change_the_simulation() {
    // ≥8 permutation seeds plus the unpermuted baseline, on both a
    // dual-core and an SMT platform (different CPU counts and sharing).
    let seeds: [u64; 9] = [1, 2, 3, 5, 8, 13, 0xDEAD_BEEF, u64::MAX, 42];
    for platform in [Platform::TwoCorePentiumM, Platform::TwoLogicalXeon] {
        let baseline = run_once(platform, None);
        assert!(baseline.2 > 0, "pipeline must make progress on {platform:?}");
        for seed in seeds {
            let permuted = run_once(platform, Some(seed));
            assert_eq!(
                baseline, permuted,
                "scan permutation seed {seed} changed the simulation on {platform:?}"
            );
        }
    }
}

#[test]
fn aggregate_counters_match_across_permutations() {
    // The aggregate block (what reports consume) must also be identical
    // field-for-field across permutations.
    let base = run_once(Platform::TwoCorePentiumM, None).0;
    let base_total = base.iter().fold(PerfCounters::default(), |mut acc, c| {
        acc.merge(c);
        acc
    });
    for seed in 100..108u64 {
        let run = run_once(Platform::TwoCorePentiumM, Some(seed)).0;
        let total = run.iter().fold(PerfCounters::default(), |mut acc, c| {
            acc.merge(c);
            acc
        });
        assert_eq!(base_total, total, "aggregate counters diverged at seed {seed}");
    }
}
