//! Recorded traces and their replay-time address binding.
//!
//! A [`Trace`] is the unit the simulator executes: a compact op sequence
//! whose memory addresses are relocatable (region slot + offset). A
//! [`Binding`] maps slots to absolute bases; the server's request loop binds
//! the `MSG` slot to a fresh buffer per simulated message while keeping the
//! `STATIC` slot pinned, so temporal-reuse differences between workloads
//! (the paper's FR vs. SV axis, §5.3) are emergent rather than configured.

use crate::num::ratio;
use crate::op::{Addr, Op, RegionSlot};
use crate::vaddr::VAddr;

/// Aggregate counts over a trace (abstract-op granularity, pre-cracking).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total abstract operations (ALU runs expanded).
    pub ops: u64,
    /// ALU operations.
    pub alus: u64,
    /// Data loads.
    pub loads: u64,
    /// Data stores.
    pub stores: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Conditional branches that were taken.
    pub taken_branches: u64,
    /// Unconditional transfers.
    pub jumps: u64,
    /// Bytes loaded.
    pub bytes_loaded: u64,
    /// Bytes stored.
    pub bytes_stored: u64,
}

impl TraceStats {
    /// Accumulate one op record.
    pub fn record(&mut self, op: &Op) {
        match *op {
            Op::Alu(n) => {
                self.ops += n as u64;
                self.alus += n as u64;
            }
            Op::Load { size, .. } => {
                self.ops += 1;
                self.loads += 1;
                self.bytes_loaded += size as u64;
            }
            Op::Store { size, .. } => {
                self.ops += 1;
                self.stores += 1;
                self.bytes_stored += size as u64;
            }
            Op::Branch { taken, .. } => {
                self.ops += 1;
                self.branches += 1;
                if taken {
                    self.taken_branches += 1;
                }
            }
            Op::Jump { .. } => {
                self.ops += 1;
                self.jumps += 1;
            }
        }
    }

    /// Fraction of abstract ops that are conditional branches.
    pub fn branch_fraction(&self) -> f64 {
        ratio(self.branches, self.ops)
    }

    /// Fraction of abstract ops that touch memory.
    pub fn memory_fraction(&self) -> f64 {
        ratio(self.loads + self.stores, self.ops)
    }
}

/// A recorded, replayable op sequence.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    ops: Vec<Op>,
    /// Human-readable label ("cbr: parse+xpath", …) for reports and tests.
    pub label: String,
}

impl Trace {
    /// An empty trace with a label.
    pub fn with_label(label: impl Into<String>) -> Self {
        Trace { label: label.into(), ..Default::default() }
    }

    /// Append an op. An ALU op merges into a preceding ALU record while
    /// the sum fits `u16`, and otherwise starts a new record.
    pub fn push(&mut self, op: Op) {
        if let (Some(Op::Alu(prev)), Op::Alu(n)) = (self.ops.last_mut(), op) {
            if let Ok(sum) = u16::try_from(u32::from(*prev) + u32::from(n)) {
                *prev = sum;
                return;
            }
        }
        self.ops.push(op);
    }

    /// Append a non-ALU op: only ALU records coalesce, so there is no
    /// previous record to read back.
    pub(crate) fn append(&mut self, op: Op) {
        debug_assert!(!matches!(op, Op::Alu(_)), "ALU ops go through push");
        self.ops.push(op);
    }

    /// The op records (ALU runs still compressed).
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of op *records* (compressed length).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no ops were recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Aggregate statistics, folded over the records on demand. ALU
    /// coalescing only merges counts, so the fold equals the per-push sum.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        for op in &self.ops {
            s.record(op);
        }
        s
    }

    /// Append all ops of `other`.
    ///
    /// Goes through [`Trace::push`], so an ALU run at the end of `self` and
    /// one at the start of `other` coalesce into a single record across the
    /// concatenation boundary (saturating at `u16::MAX`) — stitching
    /// memoized phase traces never inflates the record count or the op
    /// statistics.
    pub fn extend_from(&mut self, other: &Trace) {
        for op in &other.ops {
            self.push(*op);
        }
    }

    /// Content fingerprint: FNV-1a over every op record and the label.
    ///
    /// Two traces with identical op sequences and labels share a
    /// fingerprint, so a memoization layer can prove that a cache hit
    /// returned exactly what a fresh recording would have produced.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |word: u64| {
            h ^= word;
            h = h.wrapping_mul(PRIME);
        };
        for b in self.label.as_bytes() {
            mix(u64::from(*b));
        }
        for op in &self.ops {
            match *op {
                Op::Alu(n) => {
                    mix(1);
                    mix(u64::from(n));
                }
                Op::Load { addr, size } => {
                    mix(2);
                    mix(u64::from(addr.slot.0) << 40
                        | u64::from(addr.offset) << 8
                        | u64::from(size));
                }
                Op::Store { addr, size } => {
                    mix(3);
                    mix(u64::from(addr.slot.0) << 40
                        | u64::from(addr.offset) << 8
                        | u64::from(size));
                }
                Op::Branch { site, taken } => {
                    mix(4);
                    mix(u64::from(site) << 1 | u64::from(taken));
                }
                Op::Jump { site } => {
                    mix(5);
                    mix(u64::from(site));
                }
            }
        }
        h
    }
}

/// Binding of region slots to absolute virtual addresses for one replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binding {
    bases: [u64; RegionSlot::MAX],
}

impl Default for Binding {
    fn default() -> Self {
        Self::new()
    }
}

impl Binding {
    /// All slots bound to distinct, well-separated default bases. Useful for
    /// tests and single-shot replays.
    pub fn new() -> Self {
        let mut bases = [0u64; RegionSlot::MAX];
        for (i, b) in bases.iter_mut().enumerate() {
            // 16 MiB apart — far beyond any cache, so unbound slots never
            // accidentally alias.
            *b = 0x1000_0000 + (i as u64) * (16 << 20);
        }
        Binding { bases }
    }

    /// Bind `slot` to `base`.
    pub fn bind(&mut self, slot: RegionSlot, base: VAddr) -> &mut Self {
        self.bases[slot.index()] = base.0;
        self
    }

    /// Resolve a relocatable address.
    #[inline]
    pub fn resolve(&self, addr: Addr) -> VAddr {
        VAddr(self.bases[addr.slot.index()] + addr.offset as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(slot: RegionSlot, off: u32) -> Addr {
        Addr::new(slot, off)
    }

    #[test]
    fn push_coalesces_alu_runs() {
        let mut t = Trace::default();
        t.push(Op::Alu(3));
        t.push(Op::Alu(4));
        assert_eq!(t.len(), 1);
        assert_eq!(t.stats().alus, 7);
        t.push(Op::Load { addr: addr(RegionSlot::MSG, 0), size: 8 });
        t.push(Op::Alu(1));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn alu_coalescing_saturates_at_u16() {
        let mut t = Trace::default();
        t.push(Op::Alu(u16::MAX));
        t.push(Op::Alu(10));
        assert_eq!(t.len(), 2);
        assert_eq!(t.stats().alus, u16::MAX as u64 + 10);
    }

    #[test]
    fn stats_track_everything() {
        let mut t = Trace::default();
        t.push(Op::Load { addr: addr(RegionSlot::MSG, 4), size: 4 });
        t.push(Op::Store { addr: addr(RegionSlot::OUT, 8), size: 8 });
        t.push(Op::Branch { site: 7, taken: true });
        t.push(Op::Branch { site: 7, taken: false });
        t.push(Op::Jump { site: 9 });
        let s = t.stats();
        assert_eq!(s.ops, 5);
        assert_eq!(s.bytes_loaded, 4);
        assert_eq!(s.bytes_stored, 8);
        assert_eq!(s.taken_branches, 1);
        assert_eq!(s.jumps, 1);
        assert!((s.branch_fraction() - 0.4).abs() < 1e-12);
        assert!((s.memory_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn binding_resolves_with_offset() {
        let mut b = Binding::new();
        b.bind(RegionSlot::MSG, VAddr(0x5000));
        assert_eq!(b.resolve(addr(RegionSlot::MSG, 0x20)), VAddr(0x5020));
    }

    #[test]
    fn default_binding_slots_do_not_alias() {
        let b = Binding::new();
        let a0 = b.resolve(addr(RegionSlot::STATIC, 0));
        let a1 = b.resolve(addr(RegionSlot::MSG, 0));
        assert!(a1.0 - a0.0 >= (16 << 20));
    }

    #[test]
    fn extend_from_merges() {
        let mut a = Trace::default();
        a.push(Op::Alu(2));
        let mut b = Trace::default();
        b.push(Op::Alu(3));
        b.push(Op::Jump { site: 1 });
        a.extend_from(&b);
        assert_eq!(a.stats().alus, 5);
        assert_eq!(a.stats().jumps, 1);
    }

    #[test]
    fn extend_from_coalesces_alu_runs_across_the_boundary() {
        // Pin the concatenation contract trace memoization depends on: an
        // ALU run ending `a` and one starting `b` become ONE record, so
        // stitched traces carry the same record count and statistics a
        // single continuous recording would have produced.
        let mut a = Trace::default();
        a.push(Op::Load { addr: addr(RegionSlot::MSG, 0), size: 8 });
        a.push(Op::Alu(7));
        let mut b = Trace::default();
        b.push(Op::Alu(5));
        b.push(Op::Branch { site: 3, taken: true });

        let mut continuous = Trace::default();
        continuous.push(Op::Load { addr: addr(RegionSlot::MSG, 0), size: 8 });
        continuous.push(Op::Alu(12));
        continuous.push(Op::Branch { site: 3, taken: true });

        a.extend_from(&b);
        assert_eq!(a.len(), 3, "boundary ALU runs must merge into one record");
        assert_eq!(a.ops(), continuous.ops());
        assert_eq!(a.stats(), continuous.stats());
        // Saturation still splits (u16 ceiling), exactly like push does.
        let mut big = Trace::default();
        big.push(Op::Alu(u16::MAX));
        let mut tail = Trace::default();
        tail.push(Op::Alu(1));
        big.extend_from(&tail);
        assert_eq!(big.len(), 2);
        assert_eq!(big.stats().alus, u64::from(u16::MAX) + 1);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let mut a = Trace::with_label("x");
        a.push(Op::Alu(3));
        a.push(Op::Load { addr: addr(RegionSlot::MSG, 4), size: 8 });
        let mut b = Trace::with_label("x");
        b.push(Op::Alu(3));
        b.push(Op::Load { addr: addr(RegionSlot::MSG, 4), size: 8 });
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.push(Op::Branch { site: 1, taken: false });
        assert_ne!(a.fingerprint(), b.fingerprint());
        let c = Trace::with_label("y");
        assert_ne!(Trace::with_label("x").fingerprint(), c.fingerprint());
    }
}
