//! Per-request kernel and connection work.
//!
//! The paper's server speaks HTTP without keep-alive (one TCP connection
//! per POSTed message — standard for 2006 AON traffic), so every request
//! drags the kernel through connection setup and teardown: handshake
//! packets, socket slab allocation, fd table updates, route/endpoint
//! lookups, timers, and the teardown mirror image. Three properties of
//! that work matter for reproducing the measurements:
//!
//! 1. it is *instruction-heavy* — tens of thousands of branchy kernel
//!    instructions per connection, which is what holds a mid-2000s proxy
//!    to O(10⁴) requests/second/core even when caches behave;
//! 2. it has a *working set near the L2 size* — each worker cycles its
//!    own hot connection slabs (`KERNEL_SLOTS` × `KERNEL_WINDOW` = 6 × 64
//!    KiB = 384 KiB), every worker walks the same lukewarm global tables
//!    (`KERNEL2_SLOTS` × `KERNEL2_WINDOW` = 6 × 128 KiB = 768 KiB), and a
//!    steady fraction of touches lands in a cold expanse (`KERNEL3_SLOTS`
//!    × `KERNEL3_WINDOW` = 64 × 512 KiB = 32 MiB). One worker's hot and
//!    lukewarm tiers (1.1 MiB) fit the Pentium M's 2 MiB L2 but not the
//!    Xeon's 1 MiB, and a second core on a shared L2 adds its own 384 KiB
//!    — the asymmetry behind the paper's FR scaling results (§5.1) and
//!    L2MPI ordering (§5.3);
//! 3. its misses ride the front-side bus, giving the network-I/O-heavy
//!    use cases their high BTPI (§5.4).
//!
//! [`emit_request_overhead`] reproduces all three: branchy table-walk
//! loops, a deterministic seeded scatter of loads/stores over a 64 KiB
//! per-connection window, and slab rotation driven by the worker's
//! [`RegionSlot::KERNEL`] binding.

use aon_trace::code::SiteId;
use aon_trace::{site, Addr, Probe, ProbeExt, RegionSlot, Trace, Tracer};

/// Size of one connection's kernel-state window.
pub const KERNEL_WINDOW: u32 = 64 << 10;
/// Slab windows *per worker* — the hot per-connection tier cycles through
/// `KERNEL_SLOTS` × `KERNEL_WINDOW` = 384 KiB of slab memory.
pub const KERNEL_SLOTS: u32 = 6;
/// Per-request window of the lukewarm global-table tier (`KERNEL2`).
pub const KERNEL2_WINDOW: u32 = 128 << 10;
/// Rotation positions of the lukewarm tier: reuse distance ≈ 1.5 MiB of
/// intervening traffic — retained by a 2 MiB L2, evicted from 1 MiB.
pub const KERNEL2_SLOTS: u32 = 6;
/// Per-request window of the cold tier (`KERNEL3`).
pub const KERNEL3_WINDOW: u32 = 512 << 10;
/// Rotation positions of the cold tier: reuse distance far beyond any L2.
pub const KERNEL3_SLOTS: u32 = 64;

/// xorshift for deterministic scattered offsets.
fn xorshift(x: &mut u32) -> u32 {
    *x ^= *x << 13;
    *x ^= *x >> 17;
    *x ^= *x << 5;
    *x
}

/// Emit the kernel-side work of accepting, servicing and closing one
/// HTTP-over-TCP connection carrying a `msg_len`-byte request.
///
/// `seed` individualizes the scatter pattern (callers pass the message
/// variant id so traces differ between variants but stay deterministic).
pub fn emit_request_overhead<P: Probe>(msg_len: u32, seed: u32, p: &mut P) {
    let mut rng = seed.wrapping_mul(0x9e37_79b9) | 1;

    // --- Accept path: SYN / SYN-ACK / ACK softirq processing, PCB lookup,
    // sequence-number bookkeeping.
    for _ in 0..3 {
        p.counted_loop(220, 2);
        p.load(Addr::new(RegionSlot::KERNEL, xorshift(&mut rng) % KERNEL_WINDOW), 8);
        p.alu(60);
    }

    // --- Socket + fd allocation: initialize scattered slab objects.
    // A sock struct, a file struct, epoll items, timer entries.
    for _ in 0..6 {
        let base = xorshift(&mut rng) % (KERNEL_WINDOW - 2048);
        for w in 0..16 {
            p.store(Addr::new(RegionSlot::KERNEL, base + w * 64), 8);
            p.alu(3);
        }
        p.counted_loop(40, 2); // slab free-list manipulation
    }

    // --- Request-time table walks: fd table, epoll ready list, route
    // cache, conntrack, dentry/page structures, endpoint/policy state.
    // Pointer-chasing loads with a tiered reuse profile: most touches hit
    // the hot per-connection window, some hit the worker's lukewarm global
    // tables, and a steady fraction lands in the cold expanse of kernel
    // memory (page structs, far slabs) that no 2006-era L2 can hold. The
    // cold tier is what keeps an AON proxy's CPI high even on the larger
    // Pentium M L2 (paper Table 4: FR CPI 2.24).
    for _ in 0..1280 {
        let r = xorshift(&mut rng);
        let pick = r % 20;
        if pick < 11 {
            // Hot: this connection's slab window (rotates per message).
            p.load(Addr::new(RegionSlot::KERNEL, r % KERNEL_WINDOW), 8);
        } else if pick < 13 {
            // Lukewarm: global tables with a mid-range reuse distance.
            p.load(Addr::new(RegionSlot::KERNEL2, r % KERNEL2_WINDOW), 8);
        } else {
            // Cold: the wider kernel expanse.
            p.load(Addr::new(RegionSlot::KERNEL3, r % KERNEL3_WINDOW), 8);
        }
        p.counted_loop(5, 2); // field validation on the fetched structure
        p.alu(4);
        // Each table walk takes one of many kernel code paths; the branch
        // PC varies (256 synthetic sites) and each path has a strong,
        // site-determined bias — a big predictor learns all of them, a
        // small or SMT-shared one aliases.
        let path = (r >> 8) & 0xff;
        let site = SiteId(site!(0xb86b_14c9).0 ^ path.wrapping_mul(0x9e37_79b9));
        let taken = if path & 1 == 0 { r & 127 != 0 } else { r & 127 == 0 };
        p.branch(site, taken);
    }

    // --- Protocol state machine churn: timers, window bookkeeping,
    // congestion state, HTTP framing over the socket layer.
    for _ in 0..4 {
        p.counted_loop(1400, 2);
        p.load(Addr::new(RegionSlot::KERNEL, xorshift(&mut rng) % KERNEL_WINDOW), 8);
        p.alu(40);
    }

    // --- Epoll/timer-wheel scan: strided pass over a table region.
    let scan_base = xorshift(&mut rng) % (KERNEL_WINDOW / 2);
    for i in 0..128 {
        p.load(Addr::new(RegionSlot::KERNEL, scan_base + i * 128), 8);
        p.alu(3);
        p.branch(site!(0xb37a_b2ab), i < 127);
    }

    // --- Endpoint selection against the device's routing policy (warm
    // STATIC config — the policy table is shared device configuration).
    for i in 0..16 {
        p.load(Addr::new(RegionSlot::STATIC, 0x8000 + i * 32), 8);
        p.alu(4);
        p.branch(site!(0xb630_7973), i < 15);
    }

    // --- Access log entry (~128 bytes formatted + stored).
    p.alu(256);
    let log_base = xorshift(&mut rng) % (KERNEL_WINDOW - 256);
    for w in 0..16 {
        p.store(Addr::new(RegionSlot::KERNEL, log_base + w * 8), 8);
    }

    // --- Teardown: FIN/ACK softirqs, timer cancellation, slab free.
    for _ in 0..2 {
        p.counted_loop(160, 2);
        p.load(Addr::new(RegionSlot::KERNEL, xorshift(&mut rng) % KERNEL_WINDOW), 8);
        p.alu(40);
    }
    // TIME_WAIT timer setup touches the timer wheel.
    p.load(Addr::new(RegionSlot::KERNEL, xorshift(&mut rng) % KERNEL_WINDOW), 8);
    p.store(Addr::new(RegionSlot::KERNEL, xorshift(&mut rng) % KERNEL_WINDOW), 8);
    p.alu(40);

    let _ = msg_len;
}

/// Record [`emit_request_overhead`] as a standalone trace.
pub fn overhead_trace(msg_len: u32, seed: u32) -> Trace {
    let mut t = Tracer::with_label(format!("conn-overhead:{seed}"));
    emit_request_overhead(msg_len, seed, &mut t);
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_trace::mix::Mix;

    #[test]
    fn overhead_is_substantial_and_scattered() {
        let t = overhead_trace(5120, 1);
        let s = t.stats();
        assert!(s.ops > 20_000, "connection churn is heavy: {} ops", s.ops);
        assert!(s.loads > 500, "table walks load scattered lines: {}", s.loads);
        assert!(s.stores > 40, "slab init stores: {}", s.stores);
    }

    #[test]
    fn seeds_give_different_scatter() {
        let a = overhead_trace(5120, 1);
        let b = overhead_trace(5120, 2);
        assert_ne!(a.ops(), b.ops(), "different seeds scatter differently");
        // Same structure though.
        assert_eq!(a.stats().loads, b.stats().loads);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = overhead_trace(5120, 7);
        let b = overhead_trace(5120, 7);
        assert_eq!(a.ops(), b.ops());
    }

    #[test]
    fn mix_is_branchy_kernel_code() {
        let m = Mix::of(&overhead_trace(5120, 3));
        assert!(m.branch > 0.2, "kernel code is branch-rich: {m}");
        assert!(m.alu > 0.5, "and ALU-heavy: {m}");
    }

    #[test]
    fn working_set_spans_the_window() {
        let t = overhead_trace(5120, 9);
        let mut lines = std::collections::HashSet::new();
        for op in t.ops() {
            if let aon_trace::Op::Load { addr, .. } | aon_trace::Op::Store { addr, .. } = op {
                if addr.slot == RegionSlot::KERNEL {
                    assert!(addr.offset < KERNEL_WINDOW);
                    lines.insert(addr.offset / 64);
                }
            }
        }
        // The scatter touches a large fraction of the window's lines.
        assert!(lines.len() > 300, "scatter coverage too small: {} lines", lines.len());
    }
}
