//! Bandwidth timelines — the contention primitive.
//!
//! Every shared resource in the machine (issue slots of a physical core,
//! the shared-L2 port, the front-side bus) is a server on which consumers
//! *book* occupancy. A booking at earliest-start `t` is granted at
//! `max(t, next_free)` and holds the resource for its busy time; the
//! granted start minus the requested start is queueing delay. Because the
//! machine always steps the logical CPU with the smallest local time,
//! bookings arrive in (approximately) nondecreasing time order and the
//! single-server FIFO model is accurate.
//!
//! Two flavours:
//!
//! * [`SlotTimeline`] — fractional slots per cycle (issue bandwidth).
//!   Internally it counts in slot units so a width of 1.35 ops/cycle is
//!   exact over time.
//! * [`BusyTimeline`] — occupancy in whole cycles (bus transactions, L2
//!   port).

/// Issue-slot timeline with fractional slots/cycle.
///
/// Width is given in hundredths of slots per cycle; internally time is kept
/// in "centislot" units: one cycle supplies `width_x100` centislots. The
/// next-free centislot time is stored decomposed as
/// `next_cycle * width_x100 + rem_cs` (with `rem_cs < width_x100`) so a
/// booking needs no 64-bit division — [`SlotTimeline::book`] runs once per
/// replayed op record, and on that path an integer divide is the single
/// most expensive instruction. The carry out of `rem_cs` is one multiply
/// by a precomputed reciprocal, exact over every booking the types admit.
/// The decomposition is exact: every quantity below is the same integer
/// the single-`next_free_cs` representation would produce.
#[derive(Debug, Clone, Copy)]
pub struct SlotTimeline {
    width_x100: u64,
    /// `ceil(2^32 / width_x100)`: `(x * recip) >> 32 == x / width_x100`
    /// for every `x < 2^23` when `width_x100 <= 512`.
    recip: u64,
    /// Next free time, whole-cycle part (`next_free_cs / width_x100`).
    next_cycle: u64,
    /// Next free time, centislot remainder (`next_free_cs % width_x100`).
    rem_cs: u64,
}

impl SlotTimeline {
    /// Widest timeline the reciprocal carry is exact for, in hundredths of
    /// slots per cycle (the modelled cores issue 0.5 and 1.6).
    const MAX_WIDTH_X100: u32 = 512;

    /// A timeline providing `width_x100 / 100` slots per cycle.
    pub fn new(width_x100: u32) -> Self {
        assert!(
            (1..=Self::MAX_WIDTH_X100).contains(&width_x100),
            "issue width {width_x100}/100 outside 1..={}",
            Self::MAX_WIDTH_X100
        );
        let w = u64::from(width_x100);
        SlotTimeline { width_x100: w, recip: (1u64 << 32).div_ceil(w), next_cycle: 0, rem_cs: 0 }
    }

    /// Book `slots` issue slots no earlier than `earliest` (cycles).
    /// Returns the cycle at which the last slot completes.
    ///
    /// Division-free: `rem_cs + 100 * slots` is below
    /// `512 + 100 * 65_535 < 2^23`, where the reciprocal multiply is the
    /// exact quotient (proof: `recip = 2^32/w + e` with `0 <= e < 1`, so the
    /// product overshoots `total / w` by `total * e / 2^32 < 1/w`, less
    /// than the gap from `total / w` to the next integer).
    #[inline]
    pub fn book(&mut self, earliest: u64, slots: u16) -> u64 {
        // max(next_free_cs, earliest * width): since rem_cs < width, the
        // comparison reduces to the whole-cycle parts.
        if self.next_cycle < earliest {
            self.next_cycle = earliest;
            self.rem_cs = 0;
        }
        // One slot costs 100 centislots of this resource's capacity.
        let total = self.rem_cs + u64::from(slots) * 100;
        let carry = (total * self.recip) >> 32;
        self.next_cycle += carry;
        self.rem_cs = total - carry * self.width_x100;
        self.next_cycle
    }
}

/// Whole-cycle occupancy timeline (bus, cache port).
#[derive(Debug, Clone, Default)]
pub struct BusyTimeline {
    next_free: u64,
    /// Total busy cycles booked (utilization accounting).
    busy_total: u64,
}

impl BusyTimeline {
    /// A fresh, idle timeline.
    pub fn new() -> Self {
        BusyTimeline::default()
    }

    /// Book `busy` cycles of occupancy no earlier than `earliest`.
    /// Returns `(start, end)` of the granted window.
    pub fn book(&mut self, earliest: u64, busy: u64) -> (u64, u64) {
        let start = self.next_free.max(earliest);
        let end = start + busy;
        self.next_free = end;
        self.busy_total += busy;
        (start, end)
    }

    /// Total booked busy cycles.
    pub fn busy_total(&self) -> u64 {
        self.busy_total
    }

    /// Utilization over `elapsed` cycles (0.0 when `elapsed` is 0).
    pub fn utilization(&self, elapsed: u64) -> f64 {
        aon_trace::num::ratio(self.busy_total, elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_timeline_rate() {
        // 1.35 ops/cycle: 135 ops should take ~100 cycles.
        let mut t = SlotTimeline::new(135);
        let mut end = 0;
        for _ in 0..135 {
            end = t.book(0, 1);
        }
        assert!((99..=101).contains(&end), "135 ops at 1.35/cyc took {end}");
    }

    #[test]
    fn slot_timeline_contention_pushes_later() {
        let mut t = SlotTimeline::new(100);
        // Two consumers interleave at the same earliest time: the second's
        // completions land strictly later.
        let a = t.book(0, 10);
        let b = t.book(0, 10);
        assert_eq!(a, 10);
        assert_eq!(b, 20);
    }

    #[test]
    fn slot_timeline_carry_equals_the_divide_for_every_booking() {
        // Every remainder with every slot count the replay can book, on
        // both modelled issue widths (Xeon 0.5, Pentium M 1.6 per cycle).
        for w in [50u32, 160] {
            let wide = u64::from(w);
            for rem in 0..wide {
                for slots in 0..=u16::MAX {
                    let mut t = SlotTimeline::new(w);
                    t.next_cycle = 7;
                    t.rem_cs = rem;
                    let total = rem + u64::from(slots) * 100;
                    assert_eq!(t.book(0, slots), 7 + total / wide, "w {w} rem {rem} slots {slots}");
                    assert_eq!(t.rem_cs, total % wide, "w {w} rem {rem} slots {slots}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn slot_timeline_rejects_a_width_the_carry_is_not_exact_for() {
        let _ = SlotTimeline::new(SlotTimeline::MAX_WIDTH_X100 + 1);
    }

    #[test]
    fn slot_timeline_idle_gap_respected() {
        let mut t = SlotTimeline::new(100);
        t.book(0, 5);
        // A booking far in the future must not start earlier.
        let end = t.book(1000, 1);
        assert_eq!(end, 1001);
    }

    #[test]
    fn busy_timeline_fifo() {
        let mut t = BusyTimeline::new();
        let (s1, e1) = t.book(10, 24);
        let (s2, e2) = t.book(10, 24);
        assert_eq!((s1, e1), (10, 34));
        assert_eq!((s2, e2), (34, 58));
        assert_eq!(t.busy_total(), 48);
    }

    #[test]
    fn utilization() {
        let mut t = BusyTimeline::new();
        t.book(0, 50);
        assert!((t.utilization(100) - 0.5).abs() < 1e-12);
        assert_eq!(t.utilization(0), 0.0);
    }
}
