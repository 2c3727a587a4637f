//! Deterministic virtual addresses.
//!
//! Traced memory operations must carry addresses so the simulated cache
//! hierarchy sees realistic set-index distributions, spatial locality and
//! sharing patterns. Real pointer values would make traces non-deterministic
//! across runs, so a recorded op names a relocatable [`crate::Addr`] (a
//! [`crate::RegionSlot`] plus an offset) and never an absolute address.
//!
//! The absolute addresses come from base constants owned by each simulated
//! workload — `aon-server`'s `app.rs` puts its RX ring at `0x5000_0000` and
//! its per-worker arenas at `0x7000_0000`, `aon-net`'s `netperf.rs` its
//! socket-buffer ring at `0x3000_0000`, and so on. Per replay, a
//! [`crate::trace::Binding`] binds each slot to an address derived from
//! those bases (a rotating ring slot, a worker's arena), so one recorded
//! trace runs against fresh buffer placements. Only the code segment has a
//! crate-wide base, [`CODE_BASE`], from which [`crate::code`] derives the
//! synthetic program counters.

/// A virtual address in the simulated address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VAddr(pub u64);

impl VAddr {
    /// Byte offset addition.
    #[inline]
    pub fn offset(self, off: u64) -> VAddr {
        VAddr(self.0 + off)
    }

    /// The cache line index of this address for a given line size.
    ///
    /// `line_size` must be a power of two.
    #[inline]
    pub fn line(self, line_size: u64) -> u64 {
        debug_assert!(line_size.is_power_of_two());
        self.0 / line_size
    }
}

impl core::fmt::Display for VAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Base of the synthetic code segment.
pub const CODE_BASE: u64 = 0x0040_0000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_index() {
        assert_eq!(VAddr(0).line(64), 0);
        assert_eq!(VAddr(63).line(64), 0);
        assert_eq!(VAddr(64).line(64), 1);
        assert_eq!(VAddr(130).line(64), 2);
    }
}
