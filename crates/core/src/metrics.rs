//! Derived metrics (§3.3 of the paper).

#![deny(clippy::as_conversions)]

use crate::experiment::{find, Measurement};
use crate::workload::WorkloadKind;
use aon_sim::config::Platform;

/// The microarchitectural metrics the paper reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Cycles per retired instruction.
    Cpi,
    /// L2 misses per retired instruction (%).
    L2Mpi,
    /// Bus transactions per retired instruction (%).
    Btpi,
    /// Branch instructions retired per instruction retired (%).
    BranchFreq,
    /// Branch mispredictions per retired branch (%).
    BrMpr,
    /// Payload throughput (Mbps).
    ThroughputMbps,
}

impl MetricKind {
    /// All counter-derived metrics (excludes throughput).
    pub const COUNTER_METRICS: [MetricKind; 5] = [
        MetricKind::Cpi,
        MetricKind::L2Mpi,
        MetricKind::Btpi,
        MetricKind::BranchFreq,
        MetricKind::BrMpr,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            MetricKind::Cpi => "CPI",
            MetricKind::L2Mpi => "L2MPI (%)",
            MetricKind::Btpi => "BTPI (%)",
            MetricKind::BranchFreq => "Branch freq (%)",
            MetricKind::BrMpr => "BrMPR (%)",
            MetricKind::ThroughputMbps => "Throughput (Mbps)",
        }
    }

    /// Extract this metric from a measurement.
    pub fn extract(&self, m: &Measurement) -> f64 {
        match self {
            MetricKind::Cpi => m.stats.total.cpi(),
            MetricKind::L2Mpi => m.stats.total.l2mpi_pct(),
            MetricKind::Btpi => m.stats.total.btpi_pct(),
            MetricKind::BranchFreq => m.stats.total.branch_freq_pct(),
            MetricKind::BrMpr => m.stats.total.brmpr_pct(),
            MetricKind::ThroughputMbps => m.stats.throughput_mbps(),
        }
    }
}

impl core::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The three dual-processing transitions of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalingPair {
    /// 1CPm → 2CPm (single core → dual core).
    PmDualCore,
    /// 1LPx → 2LPx (Hyperthreading on).
    XeonHyperthread,
    /// 1LPx → 2PPx (second physical CPU).
    XeonDualPackage,
}

impl ScalingPair {
    /// All three, in the paper's legend order.
    pub const ALL: [ScalingPair; 3] =
        [ScalingPair::PmDualCore, ScalingPair::XeonHyperthread, ScalingPair::XeonDualPackage];

    /// The (baseline, scaled) platforms.
    pub fn platforms(&self) -> (Platform, Platform) {
        match self {
            ScalingPair::PmDualCore => (Platform::OneCorePentiumM, Platform::TwoCorePentiumM),
            ScalingPair::XeonHyperthread => (Platform::OneLogicalXeon, Platform::TwoLogicalXeon),
            ScalingPair::XeonDualPackage => (Platform::OneLogicalXeon, Platform::TwoPhysicalXeon),
        }
    }

    /// The paper's legend label.
    pub fn label(&self) -> &'static str {
        match self {
            ScalingPair::PmDualCore => "1CPm->2CPm",
            ScalingPair::XeonHyperthread => "1LPx->2LPx",
            ScalingPair::XeonDualPackage => "1LPx->2PPx",
        }
    }
}

/// Throughput scaling of a workload across a dual-processing transition
/// (Figure 3's y-axis). `None` if either cell is missing.
pub fn throughput_scaling(
    measurements: &[Measurement],
    pair: ScalingPair,
    workload: WorkloadKind,
) -> Option<f64> {
    let (base, scaled) = pair.platforms();
    let b = find(measurements, base, workload)?;
    let s = find(measurements, scaled, workload)?;
    let base_tput = b.stats.units_per_sec();
    if base_tput == 0.0 {
        return None;
    }
    Some(s.stats.units_per_sec() / base_tput)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_grid, ExperimentConfig};

    #[test]
    fn scaling_pairs_cover_figure3() {
        assert_eq!(ScalingPair::ALL.len(), 3);
        let (b, s) = ScalingPair::XeonDualPackage.platforms();
        assert_eq!(b, Platform::OneLogicalXeon);
        assert_eq!(s, Platform::TwoPhysicalXeon);
    }

    #[test]
    fn scaling_computes_ratio() {
        let cfg = ExperimentConfig::quick();
        let ms = run_grid(
            &[Platform::OneLogicalXeon, Platform::TwoPhysicalXeon],
            &[WorkloadKind::Sv],
            &cfg,
        );
        let r = throughput_scaling(&ms, ScalingPair::XeonDualPackage, WorkloadKind::Sv).unwrap();
        assert!(r > 1.2 && r < 2.4, "two packages should speed SV up: {r}");
        assert!(
            throughput_scaling(&ms, ScalingPair::PmDualCore, WorkloadKind::Sv).is_none(),
            "missing cells yield None"
        );
    }

    #[test]
    fn metric_extraction_is_total_based() {
        let cfg = ExperimentConfig::quick();
        let ms = run_grid(&[Platform::OneCorePentiumM], &[WorkloadKind::Fr], &cfg);
        let m = &ms[0];
        assert!(MetricKind::Cpi.extract(m) > 0.0);
        assert!(MetricKind::BranchFreq.extract(m) > 10.0);
        assert!(MetricKind::ThroughputMbps.extract(m) > 0.0);
    }
}
