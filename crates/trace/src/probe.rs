//! The instrumentation sink.
//!
//! Workload code is generic over `P: Probe`. Two implementations matter:
//!
//! * [`NullProbe`] — every method is an empty `#[inline]` body, so the
//!   workload compiles down to plain Rust; this is how `aon-xml` works as an
//!   ordinary XML library and how Criterion measures its native speed.
//! * [`Tracer`](crate::Tracer) — records a replayable [`Trace`](crate::Trace)
//!   for the simulator.
//!
//! Granularity convention (documented here because every substrate relies on
//! it): one `load`/`store` per *architectural* memory access the real code
//! would make (a byte fetch in a scan loop, an 8-byte word in a copy loop),
//! `alu(n)` for the `n` arithmetic/logic ops between memory accesses, and
//! one `branch` per source-level conditional actually executed. The
//! [`ProbeExt`] helpers encode common kernels (memcpy/memcmp/scan) with the
//! loop structure a compiler would emit, including the loop back-edge
//! branches that dominate branch-frequency statistics.

use crate::code::SiteId;
use crate::op::{Addr, RegionSlot};
use crate::site;

/// Sink for abstract operations emitted by instrumented workload code.
pub trait Probe {
    /// `n` integer/logic operations.
    fn alu(&mut self, n: u32);
    /// A data load of `size` bytes at `addr`.
    fn load(&mut self, addr: Addr, size: u8);
    /// A data store of `size` bytes at `addr`.
    fn store(&mut self, addr: Addr, size: u8);
    /// A conditional branch with outcome `taken` at code site `site`.
    fn branch(&mut self, site: SiteId, taken: bool);
    /// An unconditional transfer (call/ret) at code site `site`.
    fn jump(&mut self, site: SiteId);
}

/// A probe that discards everything; lets instrumented code run natively.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProbe;

impl Probe for NullProbe {
    #[inline(always)]
    fn alu(&mut self, _n: u32) {}
    #[inline(always)]
    fn load(&mut self, _addr: Addr, _size: u8) {}
    #[inline(always)]
    fn store(&mut self, _addr: Addr, _size: u8) {}
    #[inline(always)]
    fn branch(&mut self, _site: SiteId, _taken: bool) {}
    #[inline(always)]
    fn jump(&mut self, _site: SiteId) {}
}

/// Forwarding impl so `&mut T` can be passed where `P: Probe` is expected.
impl<T: Probe + ?Sized> Probe for &mut T {
    #[inline]
    fn alu(&mut self, n: u32) {
        (**self).alu(n)
    }
    #[inline]
    fn load(&mut self, addr: Addr, size: u8) {
        (**self).load(addr, size)
    }
    #[inline]
    fn store(&mut self, addr: Addr, size: u8) {
        (**self).store(addr, size)
    }
    #[inline]
    fn branch(&mut self, site: SiteId, taken: bool) {
        (**self).branch(site, taken)
    }
    #[inline]
    fn jump(&mut self, site: SiteId) {
        (**self).jump(site)
    }
}

/// Higher-level emission helpers for common memory kernels.
///
/// These model the op stream of the obvious compiled loop: per 8-byte word,
/// a load (+ a store for copies), address arithmetic, and the loop back-edge
/// branch (taken for every iteration but the last).
pub trait ProbeExt: Probe + Sized {
    /// A word-at-a-time `memcpy` of `len` bytes from `src` to `dst`.
    fn copy(&mut self, dst: Addr, src: Addr, len: u32) {
        let words = len / 8;
        let tail = len % 8;
        for i in 0..words {
            self.load(Addr::new(src.slot, src.offset + i * 8), 8);
            self.store(Addr::new(dst.slot, dst.offset + i * 8), 8);
            self.alu(2); // pointer bumps
            self.branch(site!(0x33c2_a929), i + 1 < words || tail > 0);
        }
        if tail > 0 {
            self.load(Addr::new(src.slot, src.offset + words * 8), tail as u8);
            self.store(Addr::new(dst.slot, dst.offset + words * 8), tail as u8);
            self.alu(2);
            self.branch(site!(0x3230_efb3), false);
        }
    }

    /// A word-at-a-time `memcmp` over `len` bytes; `equal` is the real
    /// comparison outcome. On a mismatch the loop exits early, which we
    /// model (without knowing the mismatch position) as exiting halfway.
    fn compare(&mut self, a: Addr, b: Addr, len: u32, equal: bool) {
        let total = len.div_ceil(8);
        let words = if equal { total } else { total.div_ceil(2) };
        for i in 0..words {
            self.load(Addr::new(a.slot, a.offset + i * 8), 8);
            self.load(Addr::new(b.slot, b.offset + i * 8), 8);
            self.alu(2); // xor + test
            self.branch(site!(0x375b_ea7d), i + 1 < words);
        }
    }

    /// A byte-scan over `len` bytes (e.g. delimiter search): one byte load,
    /// one compare, one conditional branch per byte.
    fn scan_bytes(&mut self, base: Addr, len: u32) {
        for i in 0..len {
            self.load(Addr::new(base.slot, base.offset + i), 1);
            self.alu(1);
            self.branch(site!(0x3547_4a1b), i + 1 < len);
        }
    }

    /// `n` iterations of a counted loop with `body_alu` ALU ops per
    /// iteration and no memory traffic (e.g. checksum folding).
    fn counted_loop(&mut self, n: u32, body_alu: u32) {
        for i in 0..n {
            self.alu(body_alu);
            self.branch(site!(0x56bc_413c), i + 1 < n);
        }
    }

    /// Touch (load) every cache line of a `len`-byte buffer, modelling a
    /// DMA-visible read or a checksum pass at 8 bytes per load.
    fn stream_read(&mut self, base: Addr, len: u32) {
        let words = len.div_ceil(8);
        for i in 0..words {
            self.load(Addr::new(base.slot, base.offset + i * 8), 8);
            self.alu(1);
            self.branch(site!(0x538f_c83f), i + 1 < words);
        }
    }

    /// Store to every word of a `len`-byte buffer (e.g. zeroing, DMA write).
    fn stream_write(&mut self, base: Addr, len: u32) {
        let words = len.div_ceil(8);
        for i in 0..words {
            self.store(Addr::new(base.slot, base.offset + i * 8), 8);
            self.alu(1);
            self.branch(site!(0x6d8c_a8d5), i + 1 < words);
        }
    }

    /// Model a function call: jump + stack frame setup (push ra/fp, adjust sp).
    fn call(&mut self, frame_bytes: u32, stack_depth: u32) {
        self.jump(site!(0x6c47_2609));
        self.store(Addr::new(RegionSlot::STACK, stack_depth), 8);
        self.alu(2);
        let _ = frame_bytes;
    }

    /// Model a function return.
    fn ret(&mut self, stack_depth: u32) {
        self.load(Addr::new(RegionSlot::STACK, stack_depth), 8);
        self.alu(1);
        self.jump(site!(0x6e7b_9dfb));
    }
}

impl<P: Probe> ProbeExt for P {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    #[test]
    fn null_probe_is_usable() {
        let mut p = NullProbe;
        p.alu(3);
        p.copy(Addr::new(RegionSlot::OUT, 0), Addr::new(RegionSlot::MSG, 0), 100);
    }

    #[test]
    fn copy_emits_expected_counts() {
        let mut t = Tracer::new();
        t.copy(Addr::new(RegionSlot::OUT, 0), Addr::new(RegionSlot::MSG, 0), 64);
        let tr = t.finish();
        let s = tr.stats();
        assert_eq!(s.loads, 8);
        assert_eq!(s.stores, 8);
        assert_eq!(s.branches, 8);
    }

    #[test]
    fn copy_handles_tail() {
        let mut t = Tracer::new();
        t.copy(Addr::new(RegionSlot::OUT, 0), Addr::new(RegionSlot::MSG, 0), 13);
        let tr = t.finish();
        let s = tr.stats();
        assert_eq!(s.loads, 2); // one word + one tail
        assert_eq!(s.stores, 2);
    }

    #[test]
    fn scan_branch_bias_is_mostly_taken() {
        let mut t = Tracer::new();
        t.scan_bytes(Addr::new(RegionSlot::MSG, 0), 100);
        let tr = t.finish();
        let s = tr.stats();
        assert_eq!(s.branches, 100);
        assert_eq!(s.taken_branches, 99);
    }

    #[test]
    fn stream_rw_word_counts() {
        let mut t = Tracer::new();
        t.stream_read(Addr::new(RegionSlot::MSG, 0), 40);
        t.stream_write(Addr::new(RegionSlot::OUT, 0), 40);
        let tr = t.finish();
        let s = tr.stats();
        assert_eq!(s.loads, 5);
        assert_eq!(s.stores, 5);
    }
}
