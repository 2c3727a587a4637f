//! The recording probe.

use crate::code::SiteId;
use crate::op::{Addr, Op};
use crate::probe::Probe;
use crate::trace::Trace;

/// A [`Probe`] that records every emitted operation into a [`Trace`].
///
/// ```
/// use aon_trace::{Tracer, Probe, ProbeExt, Addr, RegionSlot};
///
/// let mut t = Tracer::new();
/// t.alu(4);
/// t.copy(Addr::new(RegionSlot::OUT, 0), Addr::new(RegionSlot::MSG, 0), 256);
/// let trace = t.finish();
/// assert_eq!(trace.stats().loads, 32);
/// ```
#[derive(Debug, Default)]
pub struct Tracer {
    trace: Trace,
}

impl Tracer {
    /// A fresh tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// A fresh tracer whose trace carries `label`.
    pub fn with_label(label: impl Into<String>) -> Self {
        Tracer { trace: Trace::with_label(label) }
    }

    /// Finish recording and return the trace.
    pub fn finish(self) -> Trace {
        self.trace
    }

    /// Peek at the trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl Probe for Tracer {
    #[inline]
    fn alu(&mut self, n: u32) {
        let mut rem = n;
        while rem > 0 {
            let chunk = u16::try_from(rem.min(u32::from(u16::MAX))).expect("clamped to u16 range");
            self.trace.push(Op::Alu(chunk));
            rem -= chunk as u32;
        }
    }

    #[inline]
    fn load(&mut self, addr: Addr, size: u8) {
        self.trace.append(Op::Load { addr, size });
    }

    #[inline]
    fn store(&mut self, addr: Addr, size: u8) {
        self.trace.append(Op::Store { addr, size });
    }

    #[inline]
    fn branch(&mut self, site: SiteId, taken: bool) {
        self.trace.append(Op::Branch { site: site.0, taken });
    }

    #[inline]
    fn jump(&mut self, site: SiteId) {
        self.trace.append(Op::Jump { site: site.0 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::RegionSlot;

    #[test]
    fn records_in_order() {
        let mut t = Tracer::new();
        t.alu(1);
        t.load(Addr::new(RegionSlot::MSG, 0), 8);
        t.branch(SiteId(42), true);
        let tr = t.finish();
        assert!(matches!(tr.ops()[0], Op::Alu(1)));
        assert!(matches!(tr.ops()[1], Op::Load { .. }));
        assert!(matches!(tr.ops()[2], Op::Branch { site: 42, taken: true }));
    }

    #[test]
    fn huge_alu_runs_are_chunked() {
        let mut t = Tracer::new();
        t.alu(200_000);
        let tr = t.finish();
        assert_eq!(tr.stats().alus, 200_000);
        // 200_000 / 65_535 → 4 records, first 3 saturated.
        assert!(tr.len() <= 4);
    }

    #[test]
    fn zero_alu_is_a_noop() {
        let mut t = Tracer::new();
        t.alu(0);
        assert!(t.finish().is_empty());
    }

    #[test]
    fn label_is_preserved() {
        let t = Tracer::with_label("sv");
        assert_eq!(t.finish().label, "sv");
    }
}
