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
/// most expensive instruction. The decomposition is exact: every quantity
/// below is the same integer the single-`next_free_cs` representation
/// would produce.
#[derive(Debug, Clone)]
pub struct SlotTimeline {
    width_x100: u64,
    /// Next free time, whole-cycle part (`next_free_cs / width_x100`).
    next_cycle: u64,
    /// Next free time, centislot remainder (`next_free_cs % width_x100`).
    rem_cs: u64,
}

impl SlotTimeline {
    /// A timeline providing `width_x100 / 100` slots per cycle.
    pub fn new(width_x100: u32) -> Self {
        assert!(width_x100 > 0);
        SlotTimeline { width_x100: width_x100 as u64, next_cycle: 0, rem_cs: 0 }
    }

    /// Book `slots` issue slots no earlier than `earliest` (cycles).
    /// Returns the cycle at which the last slot completes.
    pub fn book(&mut self, earliest: u64, slots: u32) -> u64 {
        // max(next_free_cs, earliest * width): since rem_cs < width, the
        // comparison reduces to the whole-cycle parts.
        if self.next_cycle < earliest {
            self.next_cycle = earliest;
            self.rem_cs = 0;
        }
        // One slot costs 100 centislots of this resource's capacity.
        let w = self.width_x100;
        let mut total = self.rem_cs + slots as u64 * 100;
        if total < w * 4 {
            // Single-slot bookings at realistic widths land here: at most
            // three subtractions replace the divide.
            while total >= w {
                total -= w;
                self.next_cycle += 1;
            }
        } else {
            self.next_cycle += total / w;
            total %= w;
        }
        self.rem_cs = total;
        self.next_cycle
    }

    /// The cycle at which the resource next becomes free.
    pub fn horizon(&self) -> u64 {
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

    /// The time at which the resource becomes free.
    pub fn horizon(&self) -> u64 {
        self.next_free
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
