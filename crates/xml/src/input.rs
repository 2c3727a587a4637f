//! Instrumented input buffers.
//!
//! A [`TBuf`] wraps a byte slice together with the relocatable region slot
//! the bytes notionally live in (usually [`RegionSlot::MSG`] — the incoming
//! message buffer). Every byte examined through the accessor methods emits a
//! load on the probe, so the lexer's byte-by-byte scanning shows up in the
//! trace with the exact spatial locality of the real buffer.

use aon_trace::{Addr, Probe, RegionSlot};

/// A byte buffer whose reads are traced.
#[derive(Debug, Clone, Copy)]
pub struct TBuf<'a> {
    data: &'a [u8],
    slot: RegionSlot,
    /// Offset of `data[0]` within the region (for sub-buffers).
    base: u32,
}

impl<'a> TBuf<'a> {
    /// Wrap `data` as the contents of `slot` starting at region offset 0.
    pub fn new(data: &'a [u8], slot: RegionSlot) -> Self {
        assert!(data.len() <= u32::MAX as usize, "buffer too large to trace");
        TBuf { data, slot, base: 0 }
    }

    /// Wrap message-buffer bytes (the common case).
    pub fn msg(data: &'a [u8]) -> Self {
        Self::new(data, RegionSlot::MSG)
    }

    /// Number of bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The traced address of byte `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> Addr {
        Addr::new(self.slot, self.base + i as u32)
    }

    /// Read byte `i`, tracing the load. Panics if out of bounds (callers
    /// bound-check with [`TBuf::len`], which is a register compare, not a
    /// memory access).
    #[inline]
    pub fn get<P: Probe>(&self, i: usize, p: &mut P) -> u8 {
        p.load(self.addr(i), 1);
        self.data[i]
    }

    /// Read byte `i` if in bounds, tracing the load when it happens.
    #[inline]
    pub fn try_get<P: Probe>(&self, i: usize, p: &mut P) -> Option<u8> {
        if i < self.data.len() {
            Some(self.get(i, p))
        } else {
            None
        }
    }

    /// The untraced underlying bytes (for slicing out results whose bytes
    /// were already traced during scanning — e.g. a token's text).
    #[inline]
    pub fn raw(&self) -> &'a [u8] {
        self.data
    }

    /// Untraced range access for already-scanned spans.
    #[inline]
    pub fn span(&self, start: usize, end: usize) -> &'a [u8] {
        &self.data[start..end]
    }

    /// A sub-buffer view of `start..end` that keeps region addressing
    /// consistent with the parent buffer.
    pub fn slice(&self, start: usize, end: usize) -> TBuf<'a> {
        TBuf { data: &self.data[start..end], slot: self.slot, base: self.base + start as u32 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_trace::{NullProbe, Tracer};

    #[test]
    fn get_traces_loads_at_right_addresses() {
        let mut t = Tracer::new();
        let b = TBuf::msg(b"hello");
        assert_eq!(b.get(1, &mut t), b'e');
        assert_eq!(b.get(4, &mut t), b'o');
        let tr = t.finish();
        assert_eq!(tr.stats().loads, 2);
        match tr.ops()[0] {
            aon_trace::Op::Load { addr, size } => {
                assert_eq!(addr.slot, RegionSlot::MSG);
                assert_eq!(addr.offset, 1);
                assert_eq!(size, 1);
            }
            ref other => panic!("expected load, got {other:?}"),
        }
    }

    #[test]
    fn slice_preserves_region_offsets() {
        let mut t = Tracer::new();
        let b = TBuf::msg(b"abcdef");
        let s = b.slice(2, 5);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(0, &mut t), b'c');
        let tr = t.finish();
        match tr.ops()[0] {
            aon_trace::Op::Load { addr, .. } => assert_eq!(addr.offset, 2),
            ref other => panic!("expected load, got {other:?}"),
        }
    }

    #[test]
    fn try_get_out_of_bounds_is_silent() {
        let mut t = Tracer::new();
        let b = TBuf::msg(b"x");
        assert_eq!(b.try_get(5, &mut t), None);
        assert!(t.finish().is_empty());
    }

    #[test]
    fn works_with_null_probe() {
        let mut p = NullProbe;
        let b = TBuf::msg(b"xy");
        assert_eq!(b.get(0, &mut p), b'x');
    }
}
