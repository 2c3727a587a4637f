//! Safe per-thread hardware counter groups.
//!
//! [`HwGroup::open_for_thread`] opens the paper's five-event set on the
//! calling thread as one perf group; [`HwGroup::read_now`] is a single
//! syscall returning an atomically-scheduled [`HwSnapshot`] of all five.
//! Opening is a probe: on any refusal the group degrades to an inert
//! no-op (zero snapshots, zero syscalls) and records why.
//!
//! Everything here is plain safe Rust over the errno-returning wrappers
//! in [`crate::sys`].

#![deny(clippy::as_conversions)]

use crate::sys;

/// Number of hardware events in a group.
pub const EVENT_COUNT: usize = 5;

/// The five-event characterization set — the live analogue of the
/// paper's PMU reads (clockticks, instructions retired, cache misses,
/// branch misses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwEvent {
    /// CPU cycles (user mode; kernel/hypervisor excluded so the open
    /// stays permitted under default `perf_event_paranoid`).
    Cycles,
    /// Instructions retired.
    Instructions,
    /// L1 data-cache read misses.
    L1dMiss,
    /// Last-level cache misses.
    LlcMiss,
    /// Mispredicted branches.
    BranchMiss,
}

impl HwEvent {
    /// Every event, in group-open (and snapshot) order.
    pub const ALL: [HwEvent; EVENT_COUNT] = [
        HwEvent::Cycles,
        HwEvent::Instructions,
        HwEvent::L1dMiss,
        HwEvent::LlcMiss,
        HwEvent::BranchMiss,
    ];

    /// Stable metric-label name (`aon_hw_events_total{event=...}`).
    pub fn label(&self) -> &'static str {
        match self {
            HwEvent::Cycles => "cycles",
            HwEvent::Instructions => "instructions",
            HwEvent::L1dMiss => "l1d_miss",
            HwEvent::LlcMiss => "llc_miss",
            HwEvent::BranchMiss => "branch_miss",
        }
    }

    /// Position in [`HwEvent::ALL`] / [`HwSnapshot::values`].
    pub fn index(&self) -> usize {
        match self {
            HwEvent::Cycles => 0,
            HwEvent::Instructions => 1,
            HwEvent::L1dMiss => 2,
            HwEvent::LlcMiss => 3,
            HwEvent::BranchMiss => 4,
        }
    }

    /// The `(perf_type, config)` pair for `perf_event_open`.
    fn perf_ids(&self) -> (u32, u64) {
        match self {
            HwEvent::Cycles => (sys::PERF_TYPE_HARDWARE, sys::HW_CPU_CYCLES),
            HwEvent::Instructions => (sys::PERF_TYPE_HARDWARE, sys::HW_INSTRUCTIONS),
            HwEvent::L1dMiss => (sys::PERF_TYPE_HW_CACHE, sys::HW_CACHE_L1D_READ_MISS),
            HwEvent::LlcMiss => (sys::PERF_TYPE_HARDWARE, sys::HW_CACHE_MISSES),
            HwEvent::BranchMiss => (sys::PERF_TYPE_HARDWARE, sys::HW_BRANCH_MISSES),
        }
    }
}

/// One point-in-time reading of a group: cumulative event counts since
/// the group was opened (zeros for events the PMU refused, and all
/// zeros on the no-op backend). Plain data: subtractable and mergeable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwSnapshot {
    /// Counts indexed by [`HwEvent::index`].
    pub values: [u64; EVENT_COUNT],
}

impl HwSnapshot {
    /// The count for one event.
    pub fn get(&self, event: HwEvent) -> u64 {
        self.values[event.index()]
    }

    /// Element-wise `self - earlier`, saturating — with `earlier` read
    /// before `self` on the same group, the delta is the events spent in
    /// between (a stage span's cost).
    pub fn delta_since(&self, earlier: &HwSnapshot) -> HwSnapshot {
        let mut out = HwSnapshot::default();
        for (i, slot) in out.values.iter_mut().enumerate() {
            *slot = self.values[i].saturating_sub(earlier.values[i]);
        }
        out
    }

    /// Element-wise saturating accumulate (commutative, associative).
    pub fn accumulate(&mut self, delta: &HwSnapshot) {
        for (mine, d) in self.values.iter_mut().zip(delta.values.iter()) {
            *mine = mine.saturating_add(*d);
        }
    }

    /// True when every event count is zero.
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }
}

/// What [`probe`] (or a group open) found — the degrade-matrix entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HwProbe {
    /// `"perf_event"` when at least the group leader opened, else `"noop"`.
    pub backend: &'static str,
    /// Why the backend degraded (empty when fully available); per-event
    /// refusals are listed even when the backend itself is active.
    pub reason: String,
    /// Which of [`HwEvent::ALL`] actually opened.
    pub events: [bool; EVENT_COUNT],
}

impl HwProbe {
    /// True when hardware counts are flowing (leader opened).
    pub fn active(&self) -> bool {
        self.backend == "perf_event"
    }
}

/// A per-thread counter group. Open it on the thread you want measured;
/// reads from other threads would still be safe, just attributed to the
/// opening thread's schedule.
#[derive(Debug)]
pub struct HwGroup {
    /// Leader fd, or -1 for the no-op backend.
    leader: i32,
    /// Every owned fd (leader first), closed on drop.
    fds: Vec<i32>,
    /// Events that opened, in fd order — the group read returns values
    /// in exactly this order.
    opened: Vec<HwEvent>,
    probe: HwProbe,
}

impl HwGroup {
    /// The inert backend: zero snapshots, zero syscalls.
    pub fn noop(reason: String) -> HwGroup {
        HwGroup {
            leader: -1,
            fds: Vec::new(),
            opened: Vec::new(),
            probe: HwProbe { backend: "noop", reason, events: [false; EVENT_COUNT] },
        }
    }

    /// Probe-and-degrade open of the five-event group on the calling
    /// thread. The cycles event is the group leader: if it refuses, the
    /// whole group degrades to no-op with the errno recorded. Individual
    /// sibling refusals (e.g. an L1d cache event a VM's PMU lacks) only
    /// mark that event unavailable.
    pub fn open_for_thread() -> HwGroup {
        let mut fds: Vec<i32> = Vec::new();
        let mut opened: Vec<HwEvent> = Vec::new();
        let mut events = [false; EVENT_COUNT];
        let mut refusals: Vec<String> = Vec::new();
        for ev in HwEvent::ALL {
            let (ty, config) = ev.perf_ids();
            let group_fd = fds.first().copied().unwrap_or(-1);
            match sys::perf_event_open_thread(ty, config, group_fd) {
                Ok(fd) => {
                    fds.push(fd);
                    opened.push(ev);
                    events[ev.index()] = true;
                }
                Err(e) if fds.is_empty() => {
                    // Leader refused: the backend is unavailable here.
                    return HwGroup::noop(format!("{}: {}", ev.label(), sys::errno_name(e)));
                }
                Err(e) => refusals.push(format!("{}: {}", ev.label(), sys::errno_name(e))),
            }
        }
        let leader = fds[0];
        if let Err(e) = sys::group_reset(leader).and_then(|()| sys::group_enable(leader)) {
            for fd in &fds {
                sys::close_fd(*fd);
            }
            return HwGroup::noop(format!("enable: {}", sys::errno_name(e)));
        }
        HwGroup {
            leader,
            fds,
            opened,
            probe: HwProbe { backend: "perf_event", reason: refusals.join("; "), events },
        }
    }

    /// The probe record for this group (backend, reason, event mask).
    pub fn probe(&self) -> &HwProbe {
        &self.probe
    }

    /// True when hardware counts are flowing.
    pub fn active(&self) -> bool {
        self.leader >= 0
    }

    /// One-syscall snapshot of every event in the group (cumulative
    /// counts). The no-op backend — and any read error — returns zeros,
    /// so callers never branch on availability.
    pub fn read_now(&self) -> HwSnapshot {
        let mut snap = HwSnapshot::default();
        if self.leader < 0 {
            return snap;
        }
        // {nr, value[0..nr]} with PERF_FORMAT_GROUP.
        let mut buf = [0u64; 1 + EVENT_COUNT];
        let Ok(words) = sys::read_group(self.leader, &mut buf) else {
            return snap;
        };
        if words < 1 {
            return snap;
        }
        let nr = usize::try_from(buf[0]).unwrap_or(0).min(self.opened.len()).min(words - 1);
        for (slot, ev) in buf[1..1 + nr].iter().zip(self.opened.iter()) {
            snap.values[ev.index()] = *slot;
        }
        snap
    }
}

impl Drop for HwGroup {
    fn drop(&mut self) {
        if self.leader >= 0 {
            let _ = sys::group_disable(self.leader);
        }
        for fd in &self.fds {
            sys::close_fd(*fd);
        }
    }
}

/// Probe the backend on the calling thread: open a group, record the
/// outcome, drop it. This is `aon-report obs`'s availability check (a
/// live backend must attribute events) and the source of the DESIGN.md
/// degrade matrix entries.
pub fn probe() -> HwProbe {
    HwGroup::open_for_thread().probe().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_group_reads_zero_and_reports_backend() {
        let g = HwGroup::noop("test".to_string());
        assert!(!g.active());
        assert!(g.read_now().is_zero());
        assert_eq!(g.probe().backend, "noop");
        assert_eq!(g.probe().reason, "test");
        assert!(!g.probe().active());
    }

    #[test]
    fn snapshot_delta_and_accumulate_are_elementwise() {
        let a = HwSnapshot { values: [100, 50, 5, 2, 1] };
        let b = HwSnapshot { values: [150, 80, 6, 2, 3] };
        let d = b.delta_since(&a);
        assert_eq!(d.values, [50, 30, 1, 0, 2]);
        // Reversed order saturates to zero instead of wrapping.
        assert!(a.delta_since(&b).get(HwEvent::Cycles) == 0);
        let mut acc = HwSnapshot::default();
        acc.accumulate(&d);
        acc.accumulate(&d);
        assert_eq!(acc.get(HwEvent::Cycles), 100);
        assert_eq!(acc.get(HwEvent::BranchMiss), 4);
    }

    #[test]
    fn probe_never_panics_and_names_a_backend() {
        let p = probe();
        assert!(p.backend == "perf_event" || p.backend == "noop", "{p:?}");
        if p.backend == "noop" {
            assert!(!p.reason.is_empty(), "a degraded probe must say why");
        }
    }

    #[test]
    fn active_group_counts_work_when_available() {
        let g = HwGroup::open_for_thread();
        if !g.active() {
            // Probe-and-skip: containers routinely refuse perf_event.
            eprintln!("perf_event unavailable ({}), skipping live assertions", g.probe().reason);
            return;
        }
        let before = g.read_now();
        // Burn real instructions between the two snapshots.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..200_000u64 {
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17) ^ i;
        }
        std::hint::black_box(x);
        let after = g.read_now();
        let delta = after.delta_since(&before);
        assert!(delta.get(HwEvent::Instructions) > 0, "{delta:?}");
        assert!(delta.get(HwEvent::Cycles) > 0, "{delta:?}");
    }

    #[test]
    fn software_event_exercises_open_read_close_where_permitted() {
        // PMU-hardware events are often hidden (VMs report ENOENT), which
        // would leave the open/read/close path untested in CI; a software
        // task-clock event goes through the identical machinery and is
        // available wherever the syscall itself is permitted.
        let fd = match sys::perf_event_open_thread(sys::PERF_TYPE_SOFTWARE, sys::SW_TASK_CLOCK, -1)
        {
            Ok(fd) => fd,
            Err(e) => {
                eprintln!("perf_event_open refused ({}), skipping", sys::errno_name(e));
                return;
            }
        };
        sys::group_reset(fd).and_then(|()| sys::group_enable(fd)).expect("enable sw event");
        let mut x = 1u64;
        for i in 0..500_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let mut buf = [0u64; 2];
        let words = sys::read_group(fd, &mut buf).expect("group read");
        sys::close_fd(fd);
        assert_eq!(words, 2, "PERF_FORMAT_GROUP read returns {{nr, value}}");
        assert_eq!(buf[0], 1, "one event in the group");
        assert!(buf[1] > 0, "task clock advanced: {buf:?}");
    }

    #[test]
    fn event_labels_and_indices_are_stable() {
        for (i, ev) in HwEvent::ALL.iter().enumerate() {
            assert_eq!(ev.index(), i);
        }
        let labels: Vec<&str> = HwEvent::ALL.iter().map(HwEvent::label).collect();
        assert_eq!(labels, ["cycles", "instructions", "l1d_miss", "llc_miss", "branch_miss"]);
    }
}
