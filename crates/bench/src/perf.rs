//! Simulator performance harness: wall-clock throughput of the pipeline.
//!
//! Everything else in this workspace measures the *simulated* machines;
//! this module measures the *simulator* — how fast the host turns
//! experiment cells into counters. It runs the standard 5 × 5 grid with
//! per-phase wall timing:
//!
//! * **record** — corpus generation plus use-case/netperf trace recording
//!   (warms the [`aon_core::memo`] caches; the grid then replays shared
//!   immutable traces);
//! * **replay** — the netperf and server grids, the simulation itself;
//! * **report** — metric derivation and the paper shape checks.
//!
//! The two headline figures are **cells per second** (experiment cells
//! retired per wall second) and **simulated cycles per wall second**
//! (per-CPU clockticks accounted in the measured windows, divided by total
//! wall time). [`PerfReport::to_json`] renders `BENCH_sim.json`, the
//! artifact of the CI smoke — not a baseline. The judged simulator number
//! is the repo benchmark's `sim_grid_full` workload, which calls [`run`].

use crate::{experiment_config, run_netperf_grid, run_server_grid};
use aon_core::memo::{self, CorpusSpec, MemoStats};
use aon_core::report::check_all_shapes;
use aon_core::workload::WorkloadKind;
use aon_core::ExperimentConfig;
use aon_net::netperf::NetperfConfig;
use aon_trace::num::exact_f64;
use std::time::Instant;

/// Wall-clock seconds spent in each pipeline phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSeconds {
    /// Corpus generation + trace recording (memo-cache warm-up).
    pub record: f64,
    /// Grid simulation (trace replay).
    pub replay: f64,
    /// Metric derivation + shape checks.
    pub report: f64,
}

impl PhaseSeconds {
    /// Total wall seconds across the three phases.
    pub fn total(&self) -> f64 {
        self.record + self.replay + self.report
    }
}

/// One harness run's results.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// True when run with the CI-sized quick windows.
    pub quick: bool,
    /// Experiment cells simulated.
    pub cells: u64,
    /// Per-phase wall time.
    pub wall: PhaseSeconds,
    /// Per-CPU clockticks accounted across all measured windows.
    pub simulated_cycles: u64,
    /// Shape checks that passed / total (sanity that the run was real).
    pub shape_checks_passed: u64,
    /// Total shape checks evaluated.
    pub shape_checks_total: u64,
    /// Memo cache statistics at the end of the run.
    pub memo: MemoStats,
}

impl PerfReport {
    /// Cells retired per wall second.
    pub fn cells_per_second(&self) -> f64 {
        let total = self.wall.total();
        if total > 0.0 {
            exact_f64(self.cells) / total
        } else {
            0.0
        }
    }

    /// Simulated CPU cycles accounted per wall second.
    pub fn simulated_cycles_per_wall_second(&self) -> f64 {
        let total = self.wall.total();
        if total > 0.0 {
            exact_f64(self.simulated_cycles) / total
        } else {
            0.0
        }
    }

    /// Render as a JSON object (hand-rolled: the workspace is hermetic, no
    /// serde). All values are finite by construction, so the output is
    /// always valid JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!("  \"cells\": {},\n", self.cells));
        s.push_str("  \"wall_seconds\": {\n");
        s.push_str(&format!("    \"record\": {:.6},\n", self.wall.record));
        s.push_str(&format!("    \"replay\": {:.6},\n", self.wall.replay));
        s.push_str(&format!("    \"report\": {:.6},\n", self.wall.report));
        s.push_str(&format!("    \"total\": {:.6}\n", self.wall.total()));
        s.push_str("  },\n");
        s.push_str(&format!("  \"cells_per_second\": {:.4},\n", self.cells_per_second()));
        s.push_str(&format!("  \"simulated_cycles\": {},\n", self.simulated_cycles));
        s.push_str(&format!(
            "  \"simulated_cycles_per_wall_second\": {:.1},\n",
            self.simulated_cycles_per_wall_second()
        ));
        s.push_str(&format!(
            "  \"shape_checks\": {{ \"passed\": {}, \"total\": {} }},\n",
            self.shape_checks_passed, self.shape_checks_total
        ));
        s.push_str("  \"memo\": {\n");
        s.push_str(&format!("    \"corpus_hits\": {},\n", self.memo.corpus_hits));
        s.push_str(&format!("    \"corpus_misses\": {},\n", self.memo.corpus_misses));
        s.push_str(&format!("    \"server_hits\": {},\n", self.memo.server_hits));
        s.push_str(&format!("    \"server_misses\": {},\n", self.memo.server_misses));
        s.push_str(&format!("    \"netperf_hits\": {},\n", self.memo.netperf_hits));
        s.push_str(&format!("    \"netperf_misses\": {}\n", self.memo.netperf_misses));
        s.push_str("  }\n");
        s.push_str("}\n");
        s
    }
}

/// The quick (CI smoke) experiment windows.
fn quick_config() -> ExperimentConfig {
    ExperimentConfig {
        warmup_cycles: 2_000_000,
        measure_cycles: 8_000_000,
        ..ExperimentConfig::default()
    }
}

/// Run the harness: record, replay the full 5 × 5 grid, report; return the
/// timed results.
pub fn run(quick: bool) -> PerfReport {
    let cfg = if quick { quick_config() } else { experiment_config() };
    let spec = CorpusSpec::of(&cfg);

    // Phase 1: record. Warming the memo caches here cleanly separates
    // recording cost from replay cost; the grids then hit the caches.
    let t0 = Instant::now();
    for w in WorkloadKind::SERVER {
        memo::server_recording(w.use_case().expect("server workload"), spec);
    }
    memo::netperf_recording(&NetperfConfig::default());
    let record = t0.elapsed().as_secs_f64();

    // Phase 2: replay.
    let t1 = Instant::now();
    let net = run_netperf_grid(&cfg);
    let srv = run_server_grid(&cfg);
    let replay = t1.elapsed().as_secs_f64();

    // Phase 3: report.
    let t2 = Instant::now();
    let mut all = net;
    all.extend(srv);
    let checks = check_all_shapes(&all);
    let report = t2.elapsed().as_secs_f64();

    let simulated_cycles =
        all.iter().flat_map(|m| m.stats.per_cpu.iter()).map(|c| c.clockticks).sum();
    let passed = checks.iter().filter(|c| c.pass).count();
    PerfReport {
        quick,
        cells: u64::try_from(all.len()).expect("cell count fits u64"),
        wall: PhaseSeconds { record, replay, report },
        simulated_cycles,
        shape_checks_passed: u64::try_from(passed).expect("check count fits u64"),
        shape_checks_total: u64::try_from(checks.len()).expect("check count fits u64"),
        memo: memo::stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_wellformed() {
        let r = PerfReport {
            quick: true,
            cells: 25,
            wall: PhaseSeconds { record: 0.25, replay: 3.5, report: 0.01 },
            simulated_cycles: 5_000_000_000,
            shape_checks_passed: 19,
            shape_checks_total: 20,
            memo: MemoStats::default(),
        };
        let j = r.to_json();
        // Structural spot checks without a JSON parser: balanced braces,
        // the headline keys, no NaN/inf tokens.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"cells\": 25"));
        assert!(j.contains("\"cells_per_second\""));
        assert!(j.contains("\"simulated_cycles_per_wall_second\""));
        assert!(!j.contains("NaN") && !j.contains("inf"));
    }

    #[test]
    fn zero_wall_time_yields_zero_rates() {
        let r = PerfReport {
            quick: true,
            cells: 1,
            wall: PhaseSeconds { record: 0.0, replay: 0.0, report: 0.0 },
            simulated_cycles: 1,
            shape_checks_passed: 0,
            shape_checks_total: 0,
            memo: MemoStats::default(),
        };
        assert_eq!(r.cells_per_second(), 0.0);
        assert_eq!(r.simulated_cycles_per_wall_second(), 0.0);
    }
}
