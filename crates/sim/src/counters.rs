//! On-chip performance counters (the VTune event set of §3.3).
//!
//! One [`PerfCounters`] per logical CPU. Retired instructions accumulate in
//! milli-instruction units because per-architecture cracking is fractional
//! (see [`crate::isa`]); everything else is exact event counts.

#![deny(clippy::as_conversions)]

use aon_trace::num::{exact_f64, ratio};

/// Event counters for one logical CPU.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PerfCounters {
    /// Wall cycles this logical CPU was enabled (idle included — VTune's
    /// whole-system clocktick sampling counts idle loops too, which is why
    /// the paper's CPI doubles when a second, idle unit is enabled).
    pub clockticks: u64,
    /// Retired instructions in milli-instructions.
    pub inst_retired_milli: u64,
    /// Abstract ops executed (pre-cracking; for debugging and mixes).
    pub abstract_ops: u64,
    /// Retired branch instructions (conditional + unconditional).
    pub branches_retired: u64,
    /// Mispredicted conditional branches.
    pub branch_mispredicts: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L1I (instruction fetch) misses.
    pub l1i_misses: u64,
    /// L2 misses attributed to this CPU.
    pub l2_misses: u64,
    /// Front-side-bus transactions attributed to this CPU.
    pub bus_txns: u64,
    /// Data loads executed.
    pub loads: u64,
    /// Data stores executed.
    pub stores: u64,
    /// Cycles spent with no thread scheduled.
    pub idle_cycles: u64,
    /// Cycles lost to misprediction flushes.
    pub flush_cycles: u64,
    /// Cycles stalled waiting on memory.
    pub mem_stall_cycles: u64,
}

impl PerfCounters {
    /// Retired instructions as a float.
    pub fn inst_retired(&self) -> f64 {
        exact_f64(self.inst_retired_milli) / 1000.0
    }

    /// Cycles per retired instruction. Milli-instruction units cancel:
    /// `ticks / (milli / 1000)` equals `ticks * 1000 / milli`.
    pub fn cpi(&self) -> f64 {
        ratio(self.clockticks, self.inst_retired_milli) * 1000.0
    }

    /// L2 misses per retired instruction, as a percentage (the paper's
    /// L2MPI axis).
    pub fn l2mpi_pct(&self) -> f64 {
        self.per_kilo_inst(self.l2_misses) / 10.0
    }

    /// Bus transactions per retired instruction, as a percentage (BTPI).
    pub fn btpi_pct(&self) -> f64 {
        self.per_kilo_inst(self.bus_txns) / 10.0
    }

    /// Branch instructions retired per instruction retired, as a percentage
    /// (Table 5's branch frequency).
    pub fn branch_freq_pct(&self) -> f64 {
        self.per_kilo_inst(self.branches_retired) / 10.0
    }

    /// Branch misprediction ratio: mispredicts per retired branch, as a
    /// percentage (BrMPR).
    pub fn brmpr_pct(&self) -> f64 {
        ratio(self.branch_mispredicts, self.branches_retired) * 100.0
    }

    /// Events per 1000 retired instructions: `count / (milli / 1000) * 1000`
    /// equals `count * 10^6 / milli`.
    fn per_kilo_inst(&self, count: u64) -> f64 {
        ratio(count, self.inst_retired_milli) * 1_000_000.0
    }

    /// Merge another counter block (aggregating across CPUs).
    pub fn merge(&mut self, o: &PerfCounters) {
        self.clockticks += o.clockticks;
        self.inst_retired_milli += o.inst_retired_milli;
        self.abstract_ops += o.abstract_ops;
        self.branches_retired += o.branches_retired;
        self.branch_mispredicts += o.branch_mispredicts;
        self.l1d_misses += o.l1d_misses;
        self.l1i_misses += o.l1i_misses;
        self.l2_misses += o.l2_misses;
        self.bus_txns += o.bus_txns;
        self.loads += o.loads;
        self.stores += o.stores;
        self.idle_cycles += o.idle_cycles;
        self.flush_cycles += o.flush_cycles;
        self.mem_stall_cycles += o.mem_stall_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let c = PerfCounters {
            clockticks: 2_000,
            inst_retired_milli: 1_000_000, // 1000 instructions
            branches_retired: 200,
            branch_mispredicts: 10,
            l2_misses: 5,
            bus_txns: 20,
            ..Default::default()
        };
        assert!((c.cpi() - 2.0).abs() < 1e-9);
        assert!((c.l2mpi_pct() - 0.5).abs() < 1e-9);
        assert!((c.btpi_pct() - 2.0).abs() < 1e-9);
        assert!((c.branch_freq_pct() - 20.0).abs() < 1e-9);
        assert!((c.brmpr_pct() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_counters_are_zero_not_nan() {
        let c = PerfCounters::default();
        assert_eq!(c.cpi(), 0.0);
        assert_eq!(c.brmpr_pct(), 0.0);
        assert_eq!(c.l2mpi_pct(), 0.0);
    }

    #[test]
    fn merge_sums() {
        let mut a = PerfCounters { clockticks: 10, branches_retired: 1, ..Default::default() };
        let b = PerfCounters { clockticks: 5, branches_retired: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.clockticks, 15);
        assert_eq!(a.branches_retired, 3);
    }
}
