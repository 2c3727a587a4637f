//! Instrumented TCP/IP stack work.
//!
//! These functions *execute* the byte-moving kernels a 2.6-era Linux stack
//! runs per socket call — segment header construction, combined
//! checksum-and-copy between user and kernel buffers, socket bookkeeping —
//! against a probe, producing replayable traces. Buffer roles map to
//! relocatable region slots:
//!
//! * [`RegionSlot::MSG`] — the user buffer (netperf's send buffer, the
//!   server's message buffer);
//! * [`RegionSlot::OUT`] — the destination kernel socket buffer (bound to
//!   a channel's ring window at replay time);
//! * [`RegionSlot::IN2`] — the source kernel socket buffer on the receive
//!   path.
//!
//! One trace covers one socket call moving `len` bytes (possibly several
//! MSS segments).

use crate::link::{segments, MSS};
use aon_trace::code::SiteId;
use aon_trace::{site, Addr, Probe, ProbeExt, RegionSlot, Trace, Tracer};

/// Per-syscall fixed overhead in abstract ALU ops (mode switch, fd lookup,
/// socket lock).
const SYSCALL_ALU: u32 = 420;
/// Per-segment header/bookkeeping overhead in ALU ops (IP/TCP header
/// build, route cache hit, timer update).
const SEGMENT_ALU: u32 = 180;
/// Span of the socket/TCP control structures touched per segment.
const SOCK_STATE: u32 = 32 << 10;

fn xorshift(x: &mut u32) -> u32 {
    *x ^= *x << 13;
    *x ^= *x >> 17;
    *x ^= *x << 5;
    *x
}

/// Per-segment TCP protocol processing: sequence/window arithmetic, timer
/// and congestion bookkeeping, socket-state reads — the branchy state
/// machine that makes bulk TCP traffic branch-rich (the paper's Table 3
/// reports ~34 % branch frequency for netperf on Pentium M). Branch sites
/// vary across 64 synthetic code paths with strong per-site biases, so
/// predictor capacity (and SMT history sharing) matters exactly as in
/// §5.5.
fn emit_segment_protocol<P: Probe>(seq: u32, p: &mut P) {
    let mut r = seq.wrapping_mul(0x9e37_79b9) | 1;
    // Socket / PCB field reads.
    for _ in 0..6 {
        p.load(Addr::new(RegionSlot::KERNEL, xorshift(&mut r) % SOCK_STATE), 8);
        p.alu(10);
    }
    // Protocol decision tree: a handful of code paths with strong biases
    // (fast-path TCP is highly predictable), plus header-field loops.
    let base = site!(0x3cf6_9c29).0;
    for _ in 0..64 {
        let v = xorshift(&mut r);
        let path = (v >> 6) & 15;
        let site = SiteId(base ^ path.wrapping_mul(0x9e37_79b9));
        let taken = if path & 1 == 0 { v & 63 != 0 } else { v & 63 == 0 };
        p.branch(site, taken);
        p.alu(1);
    }
    p.counted_loop(80, 1);
    // ACK / window update writes.
    p.store(Addr::new(RegionSlot::KERNEL, xorshift(&mut r) % SOCK_STATE), 8);
    p.alu(20);
}

/// Emit the work of `send(fd, buf, len)` onto `p`: per segment, header
/// construction plus checksum-and-copy from the user buffer (`MSG`) into
/// the kernel socket buffer (`OUT`).
pub fn emit_tx<P: Probe>(len: u32, p: &mut P) {
    p.alu(SYSCALL_ALU);
    p.call(64, 0);
    let nseg = segments(len);
    let mut off = 0u32;
    for s in 0..nseg {
        let seg = (len - off).min(MSS);
        p.alu(SEGMENT_ALU);
        emit_segment_protocol(s, p);
        // Header write into the kernel buffer ahead of the payload.
        p.store(Addr::new(RegionSlot::OUT, off), 8);
        p.store(Addr::new(RegionSlot::OUT, off + 8), 8);
        // csum_and_copy_from_user: word loads from MSG, word stores to OUT,
        // checksum accumulate.
        p.copy(Addr::new(RegionSlot::OUT, off + 64), Addr::new(RegionSlot::MSG, off), seg);
        p.counted_loop(seg / 32, 2); // checksum folding
        p.branch(site!(0x412b_d35a), s + 1 < nseg);
        off += seg;
    }
    p.ret(0);
}

/// Emit the work of `recv(fd, buf, len)` onto `p`: copy from the kernel
/// socket buffer (`IN2`) to the user buffer (`MSG`), with verification
/// checksum.
pub fn emit_rx<P: Probe>(len: u32, p: &mut P) {
    p.alu(SYSCALL_ALU);
    p.call(64, 0);
    let nseg = segments(len);
    let mut off = 0u32;
    for s in 0..nseg {
        let seg = (len - off).min(MSS);
        p.alu(SEGMENT_ALU);
        emit_segment_protocol(s.wrapping_add(0x8000), p);
        // Read the segment header.
        p.load(Addr::new(RegionSlot::IN2, off), 8);
        p.load(Addr::new(RegionSlot::IN2, off + 8), 8);
        // csum_and_copy_to_user.
        p.copy(Addr::new(RegionSlot::MSG, off), Addr::new(RegionSlot::IN2, off + 64), seg);
        p.counted_loop(seg / 32, 2);
        p.branch(site!(0x4927_bce2), s + 1 < nseg);
        off += seg;
    }
    p.ret(0);
}

/// Emit softirq-side receive processing for a message that arrived by NIC
/// DMA: per segment, header parsing and socket demux (the payload copy
/// happens later in [`emit_rx`]).
pub fn emit_softirq_rx<P: Probe>(len: u32, p: &mut P) {
    let nseg = segments(len);
    for s in 0..nseg {
        p.alu(SEGMENT_ALU);
        // Parse the DMA'd headers (cold lines — the NIC just wrote them).
        p.load(Addr::new(RegionSlot::IN2, s * MSS), 8);
        p.load(Addr::new(RegionSlot::IN2, s * MSS + 8), 8);
        p.alu(90); // demux hash, sequence check, ack bookkeeping
        p.branch(site!(0x5e37_24bd), s + 1 < nseg);
    }
}

/// Record [`emit_tx`] as a standalone trace.
pub fn tx_trace(len: u32) -> Trace {
    let mut t = Tracer::with_label(format!("tcp-tx:{len}"));
    emit_tx(len, &mut t);
    t.finish()
}

/// Record [`emit_rx`] as a standalone trace.
pub fn rx_trace(len: u32) -> Trace {
    let mut t = Tracer::with_label(format!("tcp-rx:{len}"));
    emit_rx(len, &mut t);
    t.finish()
}

/// Record [`emit_softirq_rx`] as a standalone trace.
pub fn softirq_rx_trace(len: u32) -> Trace {
    let mut t = Tracer::with_label(format!("tcp-softirq:{len}"));
    emit_softirq_rx(len, &mut t);
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_trace::mix::Mix;

    #[test]
    fn tx_moves_every_byte() {
        let t = tx_trace(16 * 1024);
        let s = t.stats();
        // Word-at-a-time copy: stores cover the payload (plus headers).
        assert!(s.bytes_stored >= 16 * 1024);
        assert!(s.bytes_loaded >= 16 * 1024);
    }

    #[test]
    fn rx_mirrors_tx_volume() {
        let tx = tx_trace(8 * 1024).stats();
        let rx = rx_trace(8 * 1024).stats();
        let ratio = aon_trace::num::ratio(tx.ops, rx.ops);
        assert!((0.8..1.25).contains(&ratio), "tx/rx op ratio {ratio}");
    }

    #[test]
    fn io_mix_is_memory_heavy() {
        let t = tx_trace(64 * 1024);
        let m = Mix::of(&t);
        assert!(m.load + m.store > 0.2, "bulk transfer is memory-rich: {m}");
        // Paper Table 5 shape: network I/O code is branch-rich too (~35%
        // of Pentium M retirement was branches for FR).
        assert!(m.branch > 0.15, "copy loops carry back-edges: {m}");
    }

    #[test]
    fn per_segment_costs_scale() {
        let one = tx_trace(MSS).stats().ops;
        let twelve = tx_trace(12 * MSS).stats().ops;
        let ratio = aon_trace::num::ratio(twelve, one);
        assert!((9.0..13.0).contains(&ratio), "12 segments ≈ 12x one: {ratio}");
    }

    #[test]
    fn softirq_is_header_only() {
        let s = softirq_rx_trace(16 * 1024).stats();
        assert!(s.bytes_loaded < 1024, "softirq touches headers, not payload");
        assert!(s.ops > 100);
    }
}
