//! Scheduler regression tests — including the timed-waiter starvation bug
//! (a `Waiting(at)` thread must wake while other CPUs stay busy).

use aon_sim::config::Platform;
use aon_sim::machine::Machine;
use aon_sim::sync::{ChannelConfig, Msg};
use aon_sim::thread::{Step, Workload, WorkloadCtx};
use aon_trace::trace::{Binding, Trace};
use aon_trace::Op;
use std::sync::Arc;

/// Spins on the CPU forever (never blocks).
struct Spinner {
    trace: Arc<Trace>,
}

impl Workload for Spinner {
    fn next(&mut self, _ctx: &mut WorkloadCtx) -> Step {
        Step::Run { trace: Arc::clone(&self.trace), binding: Binding::new() }
    }
}

/// Sleeps in fixed intervals, counting wakes via complete_units.
struct Ticker {
    interval: u64,
    next: u64,
    remaining: u32,
}

impl Workload for Ticker {
    fn next(&mut self, ctx: &mut WorkloadCtx) -> Step {
        if self.remaining == 0 {
            return Step::Done;
        }
        if ctx.now >= self.next {
            self.remaining -= 1;
            self.next += self.interval;
            ctx.complete_units = 1;
        }
        Step::WaitUntil(self.next)
    }
}

fn spin_trace() -> Arc<Trace> {
    let mut t = Trace::with_label("spin");
    t.push(Op::Alu(1000));
    Arc::new(t)
}

#[test]
fn timed_waiters_wake_while_another_cpu_is_busy() {
    // Regression: with one CPU pinned by a spinner, a ticker on the other
    // CPU must still fire on schedule (the frontier promotes waiters).
    let mut m = Machine::new(Platform::TwoCorePentiumM.config());
    m.spawn(Box::new(Spinner { trace: spin_trace() }));
    m.spawn(Box::new(Ticker { interval: 100_000, next: 100_000, remaining: 50 }));
    let out = m.run(20_000_000);
    assert_eq!(out.completed_units, 50, "every tick must fire");
    assert!(!out.deadlocked);
}

#[test]
fn sender_blocked_on_full_channel_wakes_on_recv() {
    struct Producer {
        chan: aon_sim::sync::ChannelId,
        n: u32,
    }
    impl Workload for Producer {
        fn next(&mut self, ctx: &mut WorkloadCtx) -> Step {
            if self.n == 0 {
                return Step::Done;
            }
            self.n -= 1;
            ctx.complete_units = 1;
            Step::Send { chan: self.chan, msg: Msg { bytes: 1000, tag: self.n as u64 } }
        }
    }
    struct SlowConsumer {
        chan: aon_sim::sync::ChannelId,
        next_wake: u64,
        got: u32,
    }
    impl Workload for SlowConsumer {
        fn next(&mut self, ctx: &mut WorkloadCtx) -> Step {
            if ctx.last_recv.is_some() {
                self.got += 1;
            }
            if self.got >= 20 {
                return Step::Done;
            }
            // Poll slowly: forces the producer to block on the full buffer.
            if ctx.now < self.next_wake {
                return Step::WaitUntil(self.next_wake);
            }
            self.next_wake = ctx.now + 50_000;
            Step::Recv { chan: self.chan }
        }
    }
    let mut m = Machine::new(Platform::OneCorePentiumM.config());
    let chan = m.add_channel(ChannelConfig::bounded(2_000));
    m.spawn(Box::new(Producer { chan, n: 20 }));
    m.spawn(Box::new(SlowConsumer { chan, next_wake: 0, got: 0 }));
    let out = m.run(100_000_000);
    assert!(!out.deadlocked, "producer/slow-consumer must complete");
    assert_eq!(out.completed_units, 20);
}

#[test]
fn done_threads_release_their_cpu() {
    let mut m = Machine::new(Platform::OneCorePentiumM.config());
    // Three short-lived threads must all run on the single CPU in turn.
    for _ in 0..3 {
        m.spawn(Box::new(aon_sim::thread::LoopWorkload::new(
            {
                let mut t = Trace::default();
                t.push(Op::Alu(100));
                t
            },
            Binding::new(),
            5,
        )));
    }
    let out = m.run(10_000_000);
    assert_eq!(out.completed_units, 15);
    assert!(!out.deadlocked);
}

#[test]
fn profile_attributes_cycles_to_trace_labels() {
    let mut m = Machine::new(Platform::OneCorePentiumM.config());
    let mut heavy = Trace::with_label("heavy");
    heavy.push(Op::Alu(50_000));
    let mut light = Trace::with_label("light");
    light.push(Op::Alu(5_000));
    m.spawn(Box::new(aon_sim::thread::LoopWorkload::new(heavy, Binding::new(), 4)));
    m.spawn(Box::new(aon_sim::thread::LoopWorkload::new(light, Binding::new(), 4)));
    m.run(100_000_000);
    let prof = m.profile();
    let h = *prof.get("heavy").expect("heavy profiled");
    let l = *prof.get("light").expect("light profiled");
    assert!(h > l * 5, "cycle attribution must follow work: heavy {h} vs light {l}");
    // Attribution is bounded by wall time.
    assert!(h + l <= 100_000_000);
}
