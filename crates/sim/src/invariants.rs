//! Structural invariants over performance counters.
//!
//! The simulator's whole output is a handful of counter-derived numbers,
//! so a silently inconsistent counter block corrupts every reproduced
//! table downstream. This module states what a well-formed
//! [`PerfCounters`] block must satisfy and what "the counters only move
//! forward" means, so both `debug_assert!`s inside the machine and the
//! report pipeline (`aon-core`) can check the same predicate.
//!
//! The invariants, for any counter block the machine exposes:
//!
//! * **Hierarchy** — an L2 miss implies an L1 miss on the same access, so
//!   `l2_misses ≤ l1d_misses + l1i_misses`; likewise every bus
//!   transaction originates at the L2/bus layer.
//! * **Retirement** — mispredicted branches are a subset of retired
//!   branches; loads, stores, and branches are each a subset of the
//!   abstract ops that produced them; a core cannot retire more
//!   instructions than its issue bandwidth admits over the elapsed
//!   cycles.
//! * **Accounting** — idle/flush/stall cycle accounts never exceed the
//!   elapsed clockticks individually.
//! * **Derived metrics** — every metric the report prints (CPI, L2MPI,
//!   BTPI, branch frequency, BrMPR) is finite and non-negative.
//!
//! Monotonicity across time is checked with [`CounterSnapshot`]: counters
//! are event counts, so between two observations no field may decrease
//! (except across an explicit [`crate::machine::Machine::reset_counters`]).

use crate::counters::PerfCounters;

/// A violated invariant, described for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant failed (short name).
    pub invariant: &'static str,
    /// What was observed.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Check one counter block.
///
/// `issue_width_x100` is the core's issue bandwidth in hundredths of
/// ops/cycle (from [`crate::config::CoreArch::issue_width_x100`]) and
/// `window` is the CPU's *true* counter-accrual span in cycles — from the
/// counter reset to wherever the CPU's clock actually stopped, which can
/// run past the measurement deadline (`clockticks` is clamped to the
/// deadline, so it under-states the span the events accrued over). Pass
/// `None` for either to skip the time-dependent bounds, e.g. for blocks
/// aggregated across CPUs where no single pipeline's span applies.
pub fn check_counters(
    c: &PerfCounters,
    issue_width_x100: Option<u32>,
    window: Option<u64>,
) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut require = |ok: bool, invariant: &'static str, detail: String| {
        if !ok {
            v.push(Violation { invariant, detail });
        }
    };

    require(
        c.l2_misses <= c.l1d_misses + c.l1i_misses,
        "cache-hierarchy",
        format!(
            "l2_misses ({}) exceeds l1d_misses + l1i_misses ({} + {})",
            c.l2_misses, c.l1d_misses, c.l1i_misses
        ),
    );
    require(
        c.branch_mispredicts <= c.branches_retired,
        "branch-retirement",
        format!(
            "branch_mispredicts ({}) exceeds branches_retired ({})",
            c.branch_mispredicts, c.branches_retired
        ),
    );
    for (name, count) in
        [("loads", c.loads), ("stores", c.stores), ("branches_retired", c.branches_retired)]
    {
        require(
            count <= c.abstract_ops,
            "op-accounting",
            format!("{name} ({count}) exceeds abstract_ops ({})", c.abstract_ops),
        );
    }
    if let (Some(width), Some(window)) = (issue_width_x100, window) {
        // ops ≤ window × width/100, in integers: ops × 100 ≤ window × width.
        // An op is booked on the issue timeline before it executes, so even
        // a batch that overshoots the deadline stays within the true span.
        require(
            c.abstract_ops.saturating_mul(100) <= window.saturating_mul(u64::from(width)),
            "issue-bandwidth",
            format!(
                "abstract_ops ({}) exceeds issue bandwidth over a {window}-cycle window \
                 at {width}/100 ops/cycle",
                c.abstract_ops
            ),
        );
    }
    if let Some(window) = window {
        for (name, cycles) in [
            ("idle_cycles", c.idle_cycles),
            ("flush_cycles", c.flush_cycles),
            ("mem_stall_cycles", c.mem_stall_cycles),
        ] {
            require(
                cycles <= window,
                "cycle-accounting",
                format!("{name} ({cycles}) exceeds the {window}-cycle window"),
            );
        }
    }
    for (name, value) in [
        ("cpi", c.cpi()),
        ("l2mpi_pct", c.l2mpi_pct()),
        ("btpi_pct", c.btpi_pct()),
        ("branch_freq_pct", c.branch_freq_pct()),
        ("brmpr_pct", c.brmpr_pct()),
        ("inst_retired", c.inst_retired()),
    ] {
        require(
            value.is_finite() && value >= 0.0,
            "derived-metrics",
            format!("{name} is {value}, expected finite and non-negative"),
        );
    }
    v
}

/// A point-in-time copy of one CPU's counters, for monotonicity checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    counters: PerfCounters,
}

impl CounterSnapshot {
    /// Capture the current counter values.
    pub fn capture(c: &PerfCounters) -> Self {
        CounterSnapshot { counters: *c }
    }

    /// Check that `now` has not moved backward relative to this snapshot
    /// in any field. Event counters only ever grow, so a decrease
    /// means double-booked state or a missed reset.
    pub fn check_monotonic(&self, now: &PerfCounters) -> Vec<Violation> {
        let then = &self.counters;
        let fields: [(&'static str, u64, u64); 14] = [
            ("clockticks", then.clockticks, now.clockticks),
            ("inst_retired_milli", then.inst_retired_milli, now.inst_retired_milli),
            ("abstract_ops", then.abstract_ops, now.abstract_ops),
            ("branches_retired", then.branches_retired, now.branches_retired),
            ("branch_mispredicts", then.branch_mispredicts, now.branch_mispredicts),
            ("l1d_misses", then.l1d_misses, now.l1d_misses),
            ("l1i_misses", then.l1i_misses, now.l1i_misses),
            ("l2_misses", then.l2_misses, now.l2_misses),
            ("bus_txns", then.bus_txns, now.bus_txns),
            ("loads", then.loads, now.loads),
            ("stores", then.stores, now.stores),
            ("idle_cycles", then.idle_cycles, now.idle_cycles),
            ("flush_cycles", then.flush_cycles, now.flush_cycles),
            ("mem_stall_cycles", then.mem_stall_cycles, now.mem_stall_cycles),
        ];
        fields
            .into_iter()
            .filter(|(_, before, after)| after < before)
            .map(|(name, before, after)| Violation {
                invariant: "monotonicity",
                detail: format!("{name} moved backward: {before} -> {after}"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sane() -> PerfCounters {
        PerfCounters {
            clockticks: 10_000,
            inst_retired_milli: 5_000_000, // 5000 instructions
            abstract_ops: 4_000,
            branches_retired: 800,
            branch_mispredicts: 40,
            l1d_misses: 120,
            l1i_misses: 15,
            l2_misses: 60,
            bus_txns: 90,
            loads: 1_500,
            stores: 700,
            idle_cycles: 2_000,
            flush_cycles: 300,
            mem_stall_cycles: 1_000,
        }
    }

    #[test]
    fn sane_counters_pass() {
        assert!(check_counters(&sane(), Some(160), Some(10_000)).is_empty());
        assert!(check_counters(&PerfCounters::default(), Some(160), Some(0)).is_empty());
    }

    #[test]
    fn l2_exceeding_l1_is_flagged() {
        let mut c = sane();
        c.l2_misses = c.l1d_misses + c.l1i_misses + 1;
        let v = check_counters(&c, None, None);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "cache-hierarchy");
    }

    #[test]
    fn mispredicts_exceeding_branches_is_flagged() {
        let mut c = sane();
        c.branch_mispredicts = c.branches_retired + 1;
        assert!(check_counters(&c, None, None).iter().any(|v| v.invariant == "branch-retirement"));
    }

    #[test]
    fn issue_bandwidth_bound_needs_width_and_window() {
        let mut c = sane();
        c.abstract_ops = 20_000; // needs 200/100 ops/cycle over a 10k window
        assert!(check_counters(&c, Some(160), Some(10_000))
            .iter()
            .any(|v| v.invariant == "issue-bandwidth"));
        assert!(check_counters(&c, Some(160), None).is_empty(), "no window, no bound");
        assert!(check_counters(&c, None, Some(10_000)).is_empty(), "no width, no bound");
        assert!(
            check_counters(&c, Some(160), Some(20_000)).is_empty(),
            "a wider true window admits the same ops"
        );
    }

    #[test]
    fn cycle_accounts_cannot_exceed_clockticks() {
        let mut c = sane();
        c.idle_cycles = 10_001;
        assert!(check_counters(&c, None, Some(10_000))
            .iter()
            .any(|v| v.invariant == "cycle-accounting"));
        assert!(check_counters(&c, None, None).is_empty(), "no window, no bound");
    }

    #[test]
    fn snapshot_detects_backward_motion() {
        let a = sane();
        let snap = CounterSnapshot::capture(&a);
        assert!(snap.check_monotonic(&a).is_empty());
        let mut b = a;
        b.loads += 10;
        b.clockticks += 500;
        assert!(snap.check_monotonic(&b).is_empty());
        b.l2_misses -= 1;
        let v = snap.check_monotonic(&b);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("l2_misses"));
    }

    #[test]
    fn violations_render_with_context() {
        let mut c = sane();
        c.branch_mispredicts = c.branches_retired + 5;
        let v = check_counters(&c, None, None);
        let text = v[0].to_string();
        assert!(text.contains("branch-retirement"));
        assert!(text.contains("805"));
    }
}
