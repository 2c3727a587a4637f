//! The netperf TCP_STREAM baseline (paper §3.2.2, Figure 2, Table 3).
//!
//! Two modes, matching the paper exactly:
//!
//! * **End-to-end** — `netperf` on the system under test streams to a
//!   `netserver` on another host across Gigabit Ethernet. Modelled as a
//!   sender thread doing TCP transmit work into a NIC queue drained at
//!   wire rate (with NIC DMA reads on the bus). The sender blocks on the
//!   full queue: the link is the bottleneck, the CPU mostly waits — the
//!   extreme *network I/O intensive* case.
//! * **Loopback** — both processes on the same host: a producer and a
//!   consumer thread copying through a shared kernel socket buffer. No
//!   wire, no DMA: pure CPU/memory work, with the socket-buffer ring
//!   shared between the two threads — the extreme *CPU intensive* case
//!   whose cache behaviour separates the five platforms (shared L1 on
//!   1CPm/2LPx, shared L2 on 2CPm, bus-crossing MESI transfers on 2PPx).

use crate::link::gige_per_kcycle;
use crate::tcpcost::{rx_trace, tx_trace};
use aon_sim::machine::Machine;
use aon_sim::sync::{ring_offset, ChannelConfig, ChannelId, Msg};
use aon_sim::thread::{Step, Workload, WorkloadCtx};
use aon_trace::trace::{Binding, Trace};
use aon_trace::{RegionSlot, VAddr};
use std::sync::Arc;

/// Bytes per socket send call (netperf's default message size).
const SEND_SIZE: u32 = 16 * 1024;
/// Socket buffer / NIC queue capacity, and the socket-buffer ring's size.
const SOCKBUF: u32 = 64 * 1024;

/// Virtual address of the sender's user buffer.
const USER_TX_BUF: VAddr = VAddr(0x2000_0000);
/// Virtual address of the receiver's user buffer.
const USER_RX_BUF: VAddr = VAddr(0x2400_0000);
/// Virtual address of the kernel socket-buffer ring.
const SOCKBUF_BASE: VAddr = VAddr(0x3000_0000);

/// Where the send or receive at byte `cursor` of the stream sits in the
/// socket-buffer ring. Sender and receiver each keep a cursor and advance
/// it by the bytes they move, so the receiver reads the lines the sender
/// wrote.
fn sockbuf_addr(cursor: u64, bytes: u32) -> VAddr {
    SOCKBUF_BASE.offset(ring_offset(u64::from(SOCKBUF), cursor, bytes))
}

/// The recorded transmit and receive traces netperf replays.
#[derive(Debug, Clone)]
pub struct NetperfRecording {
    /// Transmit-side trace.
    pub tx: Arc<Trace>,
    /// Receive-side trace.
    pub rx: Arc<Trace>,
}

impl NetperfRecording {
    /// Combined fingerprint of both traces.
    pub fn fingerprint(&self) -> u64 {
        (self.tx.fingerprint() ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(self.rx.fingerprint() | 1)
    }
}

/// Record the transmit and receive traces netperf replays.
///
/// The recording never depends on the platform, so a sweep records once
/// and replays the same immutable traces on every platform configuration.
pub fn record_netperf() -> NetperfRecording {
    NetperfRecording { tx: Arc::new(tx_trace(SEND_SIZE)), rx: Arc::new(rx_trace(SEND_SIZE)) }
}

enum SenderState {
    Compute,
    Send,
    Dma,
}

/// The `netperf` process: an endless TCP_STREAM transmit loop.
struct Sender {
    chan: ChannelId,
    trace: Arc<Trace>,
    cursor: u64,
    /// End-to-end mode: issue a NIC DMA read per send and report
    /// throughput at the sender.
    e2e: bool,
    state: SenderState,
}

impl Sender {
    fn new(chan: ChannelId, trace: Arc<Trace>, e2e: bool) -> Self {
        Sender { chan, trace, cursor: 0, e2e, state: SenderState::Compute }
    }
}

impl Workload for Sender {
    fn next(&mut self, ctx: &mut WorkloadCtx) -> Step {
        match self.state {
            SenderState::Compute => {
                let mut b = Binding::new();
                b.bind(RegionSlot::MSG, USER_TX_BUF);
                b.bind(RegionSlot::OUT, sockbuf_addr(self.cursor, SEND_SIZE));
                self.state = SenderState::Send;
                Step::Run { trace: Arc::clone(&self.trace), binding: b }
            }
            SenderState::Send => {
                let msg = Msg { bytes: SEND_SIZE, tag: self.cursor };
                if self.e2e {
                    // The DMA leg reads this send's buffer; the cursor
                    // advances there.
                    self.state = SenderState::Dma;
                    ctx.complete_units = 1;
                    ctx.complete_bytes = u64::from(SEND_SIZE);
                } else {
                    self.state = SenderState::Compute;
                    self.cursor += u64::from(SEND_SIZE);
                }
                Step::Send { chan: self.chan, msg }
            }
            SenderState::Dma => {
                let addr = sockbuf_addr(self.cursor, SEND_SIZE);
                self.cursor += u64::from(SEND_SIZE);
                self.state = SenderState::Compute;
                Step::Dma { write: false, addr, len: SEND_SIZE }
            }
        }
    }

    fn label(&self) -> &str {
        "netperf"
    }
}

/// The `netserver` process in loopback mode: an endless receive loop.
struct Receiver {
    chan: ChannelId,
    trace: Arc<Trace>,
    cursor: u64,
}

impl Workload for Receiver {
    fn next(&mut self, ctx: &mut WorkloadCtx) -> Step {
        if let Some(m) = ctx.last_recv {
            let mut b = Binding::new();
            b.bind(RegionSlot::MSG, USER_RX_BUF);
            b.bind(RegionSlot::IN2, sockbuf_addr(self.cursor, m.bytes));
            self.cursor += u64::from(m.bytes);
            ctx.complete_units = 1;
            ctx.complete_bytes = u64::from(m.bytes);
            return Step::Run { trace: Arc::clone(&self.trace), binding: b };
        }
        Step::Recv { chan: self.chan }
    }

    fn label(&self) -> &str {
        "netserver"
    }
}

/// Wire up netperf **loopback** mode on `machine` from a recording:
/// producer + consumer sharing a bounded kernel socket buffer.
pub fn build_netperf_loopback(machine: &mut Machine, rec: &NetperfRecording) {
    let chan = machine.add_channel(ChannelConfig::bounded(SOCKBUF));
    machine.spawn(Box::new(Sender::new(chan, Arc::clone(&rec.tx), false)));
    machine.spawn(Box::new(Receiver { chan, trace: Arc::clone(&rec.rx), cursor: 0 }));
}

/// Wire up netperf **end-to-end** transmit mode on `machine` from a
/// recording: a sender streaming into a NIC queue drained at Gigabit wire
/// rate, with NIC DMA reads on the bus.
pub fn build_netperf_e2e(machine: &mut Machine, rec: &NetperfRecording) {
    let mhz = machine.config().cpu_mhz;
    let chan = machine.add_channel(ChannelConfig {
        capacity: SOCKBUF,
        drain_per_kcycle: gige_per_kcycle(mhz),
        fill: None,
    });
    machine.spawn(Box::new(Sender::new(chan, Arc::clone(&rec.tx), true)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_sim::config::Platform;
    use aon_sim::stats::MachineStats;
    use aon_trace::Addr;
    use std::collections::HashSet;

    /// Sends that take the stream three times round the socket-buffer ring.
    const WRAPPING_SENDS: u32 = 3 * SOCKBUF / SEND_SIZE;

    /// Where a `Run` step binds `slot`.
    fn bound(step: Step, slot: RegionSlot) -> VAddr {
        let Step::Run { binding, .. } = step else { panic!("expected a Run step") };
        binding.resolve(Addr::new(slot, 0))
    }

    fn run(p: Platform, loopback: bool, cycles: u64) -> MachineStats {
        let mut m = Machine::new(p.config());
        let rec = record_netperf();
        if loopback {
            build_netperf_loopback(&mut m, &rec);
        } else {
            build_netperf_e2e(&mut m, &rec);
        }
        // Warm up, then measure.
        m.run(cycles / 4);
        m.reset_counters();
        let out = m.run(cycles / 4 + cycles);
        MachineStats::collect(&m, &out)
    }

    #[test]
    fn e2e_saturates_near_link_rate() {
        for p in [Platform::OneCorePentiumM, Platform::OneLogicalXeon] {
            let s = run(p, false, 30_000_000);
            let mbps = s.throughput_mbps();
            assert!(
                (800.0..=1000.0).contains(&mbps),
                "{} e2e should ride the gigabit link: {mbps:.0} Mbps",
                s.platform
            );
        }
    }

    #[test]
    fn loopback_exceeds_link_rate() {
        let s = run(Platform::OneCorePentiumM, true, 30_000_000);
        let mbps = s.throughput_mbps();
        assert!(mbps > 2000.0, "loopback is CPU-bound, not wire-bound: {mbps:.0} Mbps");
    }

    #[test]
    fn e2e_cpu_mostly_waits() {
        let s = run(Platform::OneCorePentiumM, false, 30_000_000);
        // CPI is inflated by idle/blocked time (paper Table 3: CPI 3.46).
        assert!(s.total.cpi() > 1.5, "link-bound sender idles: CPI {:.2}", s.total.cpi());
    }

    #[test]
    fn loopback_2ppx_generates_coherence_traffic() {
        let same = run(Platform::TwoCorePentiumM, true, 30_000_000);
        let cross = run(Platform::TwoPhysicalXeon, true, 30_000_000);
        // The paper's starkest result: cross-package loopback pays bus-
        // crossing cache-to-cache transfers; shared-L2 loopback does not.
        assert!(
            cross.total.btpi_pct() > same.total.btpi_pct() * 1.5,
            "2PPx BTPI {:.2}% should dwarf 2CPm {:.2}%",
            cross.total.btpi_pct(),
            same.total.btpi_pct()
        );
    }

    #[test]
    fn loopback_throughput_ordering_matches_paper() {
        // Figure 2: 1CPm > 1LPx > 2LPx-ish > 2CPm > 2PPx (2PPx collapses).
        let one_pm = run(Platform::OneCorePentiumM, true, 30_000_000).throughput_mbps();
        let two_pp = run(Platform::TwoPhysicalXeon, true, 30_000_000).throughput_mbps();
        assert!(
            one_pm > two_pp,
            "single-CPU loopback beats cross-package: {one_pm:.0} vs {two_pp:.0}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(Platform::TwoCorePentiumM, true, 10_000_000);
        let b = run(Platform::TwoCorePentiumM, true, 10_000_000);
        assert_eq!(a.total, b.total, "simulation must be deterministic");
        assert_eq!(a.completed_bytes, b.completed_bytes);
    }

    #[test]
    fn loopback_receiver_reads_the_lines_the_sender_wrote() {
        // The 2PPx loopback collapse rests on this: every receive copies
        // out of the very socket-buffer lines its send copied into.
        let rec = record_netperf();
        let mut tx = Sender::new(ChannelId(0), Arc::clone(&rec.tx), false);
        let mut rx = Receiver { chan: ChannelId(0), trace: Arc::clone(&rec.rx), cursor: 0 };
        let mut ctx = WorkloadCtx::default();
        let mut slots = HashSet::new();
        for i in 0..WRAPPING_SENDS {
            let out = bound(tx.next(&mut ctx), RegionSlot::OUT);
            let Step::Send { msg, .. } = tx.next(&mut ctx) else { panic!("copy, then send") };
            ctx.last_recv = Some(msg);
            let in2 = bound(rx.next(&mut ctx), RegionSlot::IN2);
            assert_eq!(in2, out, "send {i}: the receiver must read the sender's buffer");
            slots.insert(out);
        }
        let ring_slots = usize::try_from(SOCKBUF / SEND_SIZE).unwrap();
        assert_eq!(slots.len(), ring_slots, "the stream wraps round the ring");
    }

    #[test]
    fn e2e_dma_reads_the_buffer_the_sender_wrote() {
        let mut tx = Sender::new(ChannelId(0), record_netperf().tx, true);
        let mut ctx = WorkloadCtx::default();
        let mut slots = HashSet::new();
        for i in 0..WRAPPING_SENDS {
            let out = bound(tx.next(&mut ctx), RegionSlot::OUT);
            assert!(matches!(tx.next(&mut ctx), Step::Send { .. }), "copy, then send");
            let Step::Dma { write: false, addr, len } = tx.next(&mut ctx) else {
                panic!("send {i}: an e2e send is followed by a DMA read")
            };
            assert_eq!((addr, len), (out, SEND_SIZE), "send {i}: the DMA reads the sent buffer");
            slots.insert(out);
        }
        assert_eq!(slots.len(), usize::try_from(SOCKBUF / SEND_SIZE).unwrap());
    }
}
