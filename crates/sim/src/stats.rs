//! Run-level statistics derived from machine counters.

#![deny(clippy::as_conversions)]

use crate::counters::PerfCounters;
use crate::machine::{Machine, RunOutcome};
use aon_trace::num::{exact_f64, ratio};

/// Everything an experiment reports about one machine run.
#[derive(Debug, Clone)]
pub struct MachineStats {
    /// Platform notation (`1CPm`, …).
    pub platform: String,
    /// CPU clock in MHz.
    pub cpu_mhz: u32,
    /// Simulated run length in cycles.
    pub cycles: u64,
    /// Completed work units (messages, transfers).
    pub completed_units: u64,
    /// Completed payload bytes.
    pub completed_bytes: u64,
    /// Aggregate counters across logical CPUs.
    pub total: PerfCounters,
    /// Per-logical-CPU counters.
    pub per_cpu: Vec<PerfCounters>,
}

impl MachineStats {
    /// Collect stats after a run. `cycles` is the *measured window* (from
    /// the last counter reset to the end of the run), which is also what
    /// each CPU's clocktick counter holds.
    pub fn collect(machine: &Machine, outcome: &RunOutcome) -> MachineStats {
        MachineStats {
            platform: machine.config().name.to_string(),
            cpu_mhz: machine.config().cpu_mhz,
            cycles: machine.counters().first().map(|c| c.clockticks).unwrap_or(outcome.end_time),
            completed_units: outcome.completed_units,
            completed_bytes: outcome.completed_bytes,
            total: machine.counters_total(),
            per_cpu: machine.counters().to_vec(),
        }
    }

    /// Wall-clock seconds of the simulated run.
    pub fn seconds(&self) -> f64 {
        exact_f64(self.cycles) / (f64::from(self.cpu_mhz) * 1e6)
    }

    /// Payload throughput in megabits per second.
    pub fn throughput_mbps(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            exact_f64(self.completed_bytes) * 8.0 / 1e6 / self.seconds()
        }
    }

    /// Completed units per second.
    pub fn units_per_sec(&self) -> f64 {
        // cycles / (mhz * 1e6) cancels to units * mhz * 1e6 / cycles.
        ratio(self.completed_units * u64::from(self.cpu_mhz), self.cycles) * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let s = MachineStats {
            platform: "1CPm".into(),
            cpu_mhz: 1000,
            cycles: 1_000_000_000, // 1 second at 1 GHz
            completed_units: 500,
            completed_bytes: 125_000_000, // 1 Gbit
            total: PerfCounters::default(),
            per_cpu: vec![],
        };
        assert!((s.seconds() - 1.0).abs() < 1e-9);
        assert!((s.throughput_mbps() - 1000.0).abs() < 1e-6);
        assert!((s.units_per_sec() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn zero_cycles_is_zero_not_nan() {
        let s = MachineStats {
            platform: "x".into(),
            cpu_mhz: 1000,
            cycles: 0,
            completed_units: 5,
            completed_bytes: 5,
            total: PerfCounters::default(),
            per_cpu: vec![],
        };
        assert_eq!(s.throughput_mbps(), 0.0);
        assert_eq!(s.units_per_sec(), 0.0);
    }
}
