//! Schedulable workload threads.
//!
//! A [`Workload`] is a state machine the machine drives: each call to
//! [`Workload::next`] yields one [`Step`] — run a compute trace, perform a
//! blocking channel operation, wait for a point in simulated time, or
//! finish. This mirrors how the paper's multithreaded XML server behaves
//! (POSIX threads alternating socket I/O and message processing, §3.2.1)
//! and is exactly enough to express netperf's producer/consumer pairs.

use crate::sync::{ChannelId, Msg};
use aon_trace::trace::{Binding, Trace};
use std::sync::Arc;

/// Identifies a thread within a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadId(pub u32);

/// What a workload wants to do next.
pub enum Step {
    /// Execute a compute trace with the given slot bindings.
    Run {
        /// The recorded trace to replay.
        trace: Arc<Trace>,
        /// Slot → base-address bindings for this replay.
        binding: Binding,
    },
    /// Send a message into a channel (blocks while full).
    Send {
        /// Target channel.
        chan: ChannelId,
        /// The message.
        msg: Msg,
    },
    /// Receive a message from a channel (blocks while empty). The message
    /// is delivered in [`WorkloadCtx::last_recv`] on the following call.
    Recv {
        /// Source channel.
        chan: ChannelId,
    },
    /// Do nothing until the given absolute cycle (rate-limited sources).
    WaitUntil(u64),
    /// A NIC DMA transfer: occupies the bus and keeps caches coherent
    /// (writes invalidate, reads snoop out dirty lines). The CPU pays only
    /// a descriptor-setup cost; the transfer itself is asynchronous.
    Dma {
        /// True for device-to-memory (receive), false for memory-to-device
        /// (transmit).
        write: bool,
        /// Start address of the transfer.
        addr: aon_trace::VAddr,
        /// Transfer length in bytes.
        len: u32,
    },
    /// Thread is finished.
    Done,
}

/// Context handed to [`Workload::next`].
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkloadCtx {
    /// Current simulated time (cycles) on this thread's CPU.
    pub now: u64,
    /// The message delivered by the previous `Recv` step, if any.
    pub last_recv: Option<Msg>,
    /// This thread's id.
    pub thread: ThreadId,
    /// Set by the workload: completed work units this step (the machine
    /// sums them for throughput reporting).
    pub complete_units: u32,
    /// Set by the workload: completed payload bytes this step.
    pub complete_bytes: u64,
}

impl Default for ThreadId {
    fn default() -> Self {
        ThreadId(u32::MAX)
    }
}

/// A schedulable workload.
pub trait Workload: Send {
    /// Produce the next step. `ctx.last_recv` carries the result of a
    /// preceding `Recv`; the workload may set `ctx.complete_units` /
    /// `ctx.complete_bytes` to report progress.
    fn next(&mut self, ctx: &mut WorkloadCtx) -> Step;
}

/// A trivial workload that replays one trace a fixed number of times
/// (useful for calibration and tests).
pub struct LoopWorkload {
    trace: Arc<Trace>,
    binding: Binding,
    remaining: u64,
}

impl LoopWorkload {
    /// Replay `trace` `iterations` times with a fixed binding.
    pub fn new(trace: Trace, binding: Binding, iterations: u64) -> Self {
        LoopWorkload { trace: Arc::new(trace), binding, remaining: iterations }
    }
}

impl Workload for LoopWorkload {
    fn next(&mut self, ctx: &mut WorkloadCtx) -> Step {
        if self.remaining == 0 {
            return Step::Done;
        }
        self.remaining -= 1;
        ctx.complete_units = 1;
        Step::Run { trace: Arc::clone(&self.trace), binding: self.binding }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_trace::{Addr, Op, RegionSlot};

    #[test]
    fn loop_workload_counts_down() {
        let mut t = Trace::default();
        t.push(Op::Alu(10));
        t.push(Op::Load { addr: Addr::new(RegionSlot::MSG, 0), size: 8 });
        let mut w = LoopWorkload::new(t, Binding::new(), 2);
        let mut ctx = WorkloadCtx::default();
        assert!(matches!(w.next(&mut ctx), Step::Run { .. }));
        assert_eq!(ctx.complete_units, 1);
        assert!(matches!(w.next(&mut ctx), Step::Run { .. }));
        assert!(matches!(w.next(&mut ctx), Step::Done));
    }
}
