//! # aon-bench — the paper harness
//!
//! One binary, `aon-bench`, regenerates the paper's evaluation
//! (`aon-bench <all|table N|fig N|sweep|ablation|extension|perf>`, see
//! `src/main.rs`). Each of the eight artifacts, Figures 2–5 and Tables
//! 3–6, is rendered by [`Artifact::section`]: `all` concatenates the
//! sections into EXPERIMENTS.md with [`experiments_md`], and `table N` /
//! `fig N` print one section from the one grid it reads. [`studies`] holds
//! the studies beyond the paper's artifacts; [`perf`] times the simulator.
//! Criterion benches measure the native speed of the substrates.

use aon_core::experiment::{ExperimentConfig, Measurement};
use aon_core::metrics::{throughput_scaling, MetricKind, ScalingPair};
use aon_core::paper;
use aon_core::report::{
    check_all_shapes, format_checks, metric_row, ShapeCheck, LOOPBACK_PEAK_CHECK,
};
use aon_core::workload::WorkloadKind;
use std::fmt::Write as _;

pub mod perf;
pub mod studies;

/// One of the paper's eight evaluation artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// Figure 2 — netperf baseline throughput.
    Fig2,
    /// Table 3 — netperf counter metrics.
    Table3,
    /// Figure 3 — dual-processor throughput scaling.
    Fig3,
    /// Table 4 — CPI.
    Table4,
    /// Figure 4 — L2 misses per instruction.
    Fig4,
    /// Figure 5 — bus transactions per instruction.
    Fig5,
    /// Table 5 — branch frequency.
    Table5,
    /// Table 6 — branch misprediction ratio.
    Table6,
}

impl Artifact {
    /// Every artifact, in the order EXPERIMENTS.md prints them.
    pub const ALL: [Artifact; 8] = [
        Artifact::Fig2,
        Artifact::Table3,
        Artifact::Fig3,
        Artifact::Table4,
        Artifact::Fig4,
        Artifact::Fig5,
        Artifact::Table5,
        Artifact::Table6,
    ];

    /// The two words of the subcommand that prints this artifact alone.
    pub fn id(self) -> (&'static str, &'static str) {
        match self {
            Artifact::Fig2 => ("fig", "2"),
            Artifact::Table3 => ("table", "3"),
            Artifact::Fig3 => ("fig", "3"),
            Artifact::Table4 => ("table", "4"),
            Artifact::Fig4 => ("fig", "4"),
            Artifact::Fig5 => ("fig", "5"),
            Artifact::Table5 => ("table", "5"),
            Artifact::Table6 => ("table", "6"),
        }
    }

    /// The workloads whose grid the artifact reads.
    pub fn workloads(self) -> &'static [WorkloadKind] {
        match self {
            Artifact::Fig2 | Artifact::Table3 => &WorkloadKind::NETPERF,
            _ => &WorkloadKind::SERVER,
        }
    }

    /// The artifact's EXPERIMENTS.md section, from measurements covering
    /// [`Artifact::workloads`] on every platform.
    pub fn section(self, ms: &[Measurement]) -> String {
        let table = |title, metric, paper_row: fn(WorkloadKind) -> Option<[f64; 5]>| {
            let mut md = format!("## {title}\n```\n{}", header());
            for w in [WorkloadKind::Sv, WorkloadKind::Cbr, WorkloadKind::Fr] {
                let p = paper_row(w).expect("the paper reports every server use case");
                md.push_str(&paper_vs_measured(w.label(), &p, &metric_row(ms, w, metric)));
            }
            md
        };
        let mut md = match self {
            Artifact::Fig2 => {
                let mut md =
                    format!("## Figure 2 — netperf baseline throughput (Mbps)\n```\n{}", header());
                for (label, p, w) in [
                    ("netperf-loopback", paper::FIG2_LOOPBACK_MBPS, WorkloadKind::NetperfLoopback),
                    ("netperf (e2e)", paper::FIG2_E2E_MBPS, WorkloadKind::NetperfE2E),
                ] {
                    let sim = metric_row(ms, w, MetricKind::ThroughputMbps);
                    md.push_str(&paper_vs_measured(label, &p, &sim));
                }
                md
            }
            Artifact::Table3 => {
                let mut md = String::from("## Table 3 — netperf performance metrics\n```\n");
                for (mode, w, rows) in [
                    ("loopback", WorkloadKind::NetperfLoopback, paper::TABLE3_LOOPBACK),
                    ("end-to-end", WorkloadKind::NetperfE2E, paper::TABLE3_E2E),
                ] {
                    let _ = write!(md, "--- netperf {mode} ---\n{}", header());
                    for (label, p, metric) in [
                        ("CPI", rows.cpi, MetricKind::Cpi),
                        ("L2MPI", rows.l2mpi, MetricKind::L2Mpi),
                        ("BTPI %", rows.btpi, MetricKind::Btpi),
                        ("Branch freq %", rows.branch_freq, MetricKind::BranchFreq),
                        ("BrMPR %", rows.brmpr, MetricKind::BrMpr),
                    ] {
                        md.push_str(&paper_vs_measured(label, &p, &metric_row(ms, w, metric)));
                    }
                }
                md
            }
            Artifact::Fig3 => {
                let mut md = String::from("## Figure 3 — dual-processor throughput scaling\n```\n");
                md.push_str(&row("", 14, ScalingPair::ALL.map(|p| p.label().to_string()), 14));
                for w in [WorkloadKind::Sv, WorkloadKind::Cbr, WorkloadKind::Fr] {
                    let p = ScalingPair::ALL
                        .map(|pr| paper::fig3_scaling(pr, w).expect("paper covers every pair"));
                    let s = ScalingPair::ALL
                        .map(|pr| throughput_scaling(ms, pr, w).unwrap_or(f64::NAN));
                    for (source, values) in [("paper", p), ("sim", s)] {
                        let cells = values.map(|v| format!("{v:.2}"));
                        md.push_str(&row(&format!("{w} ({source})"), 14, cells, 14));
                    }
                }
                md
            }
            Artifact::Table4 => table("Table 4 — CPI", MetricKind::Cpi, paper::table4_cpi),
            Artifact::Fig4 => table("Figure 4 — L2MPI (%)", MetricKind::L2Mpi, paper::fig4_l2mpi),
            Artifact::Fig5 => table("Figure 5 — BTPI (%)", MetricKind::Btpi, paper::fig5_btpi),
            Artifact::Table5 => table(
                "Table 5 — branch frequency (%)",
                MetricKind::BranchFreq,
                paper::table5_branch_freq,
            ),
            Artifact::Table6 => table(
                "Table 6 — branch misprediction ratio (%)",
                MetricKind::BrMpr,
                paper::table6_brmpr,
            ),
        };
        md.push_str("```\n\n");
        md
    }
}

/// EXPERIMENTS.md: the preamble, every artifact's section, the shape
/// checks and what the misses among them mean. `ms` is the netperf and
/// the server grid, both on every platform.
pub fn experiments_md(cfg: &ExperimentConfig, ms: &[Measurement]) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "# EXPERIMENTS — paper vs. simulated measurements\n");
    let _ = writeln!(
        md,
        "Generated by `cargo run -p aon-bench --release -- all`. Platforms are\n\
         the paper's Table 2 configurations; workloads are netperf (loopback /\n\
         end-to-end) and the XML server use cases (FR / CBR / SV). The paper's\n\
         hardware cannot be re-measured, so fidelity is judged on *shape*\n\
         (orderings, trends, crossovers); absolute magnitudes are calibrated\n\
         simulator outputs. Figure 4/5 paper values are digitized from charts\n\
         and approximate.\n"
    );
    let _ = writeln!(
        md,
        "Measurement window: {} Mcycles after {} Mcycles warm-up per cell; corpus seed {}.\n",
        cfg.measure_cycles / 1_000_000,
        cfg.warmup_cycles / 1_000_000,
        cfg.corpus_seed
    );
    let _ = writeln!(
        md,
        "Every number below comes from the *traced* scalar engines. The live\n\
         serving path's fast-scan twins (SWAR lexing, lazy parse, compiled\n\
         XPath/XSD automata — DESIGN.md §14) are untraced by construction and\n\
         never feed the simulator, so these tables are unaffected by them.\n"
    );
    for a in Artifact::ALL {
        md.push_str(&a.section(ms));
    }
    let checks = check_all_shapes(ms);
    let _ = write!(
        md,
        "## Shape checks — the paper's qualitative claims\n```\n{}```\n\n{}",
        format_checks(&checks),
        deviations(&checks)
    );
    md
}

/// The explanation of the one miss EXPERIMENTS.md can account for.
const LOOPBACK_DEVIATION: &str =
    "* **Loopback 1CPm > 2CPm inversion.** The paper measures single-CPU\n\
     loopback *faster* than dual-core (9550 vs 6252 Mbps) with 2CPm bus\n\
     traffic at 9.84% BTPI despite the shared L2. Our model moves\n\
     producer/consumer lines through the shared L2 (with 120-cycle\n\
     snoop interventions), and running the two netperf processes\n\
     concurrently on two cores still beats timesharing them on one;\n\
     the paper's large 2CPm loopback *bus* traffic is not explained by\n\
     first-order cache structure and likely involves effects\n\
     (socket-lock and scheduler-structure migration, interrupt\n\
     routing) below this simulator's fidelity floor. The rest of the\n\
     loopback column — including the cross-package 2PPx collapse, the\n\
     paper's starkest loopback result — does reproduce.\n";

/// What EXPERIMENTS.md says about the checks that miss: the loopback
/// explanation when [`LOOPBACK_PEAK_CHECK`] misses, and every other miss
/// by name as unexplained.
fn deviations(checks: &[ShapeCheck]) -> String {
    let mut md = String::new();
    let misses = checks.iter().filter(|c| !c.pass);
    if misses.clone().any(|c| c.name == LOOPBACK_PEAK_CHECK) {
        let _ = writeln!(md, "### Known deviations\n\n{LOOPBACK_DEVIATION}");
    }
    let unexplained: Vec<&str> =
        misses.map(|c| c.name.as_str()).filter(|&n| n != LOOPBACK_PEAK_CHECK).collect();
    if !unexplained.is_empty() {
        let _ = writeln!(md, "### Unexplained misses\n");
        for name in unexplained {
            let _ = writeln!(md, "* {name}: no explanation recorded.");
        }
        md.push('\n');
    }
    md
}

/// One text row: a left-aligned label, then right-aligned cells.
fn row(
    label: &str,
    label_width: usize,
    cells: impl IntoIterator<Item = String>,
    width: usize,
) -> String {
    let mut out = format!("{label:<label_width$}");
    for cell in cells {
        let _ = write!(out, "{cell:>width$}");
    }
    out.push('\n');
    out
}

/// The column header over one value per platform.
fn header() -> String {
    row("", 22, paper::PLATFORM_ORDER.map(String::from), 9)
}

/// A platform row of published values, then the simulated one.
fn paper_vs_measured(label: &str, paper: &[f64; 5], sim: &[f64; 5]) -> String {
    let published = row(&format!("{label} (paper)"), 22, paper.map(|v| v.to_string()), 9);
    published + &row(&format!("{label} (sim)"), 22, sim.map(|v| format!("{v:.2}")), 9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(name: &str, pass: bool) -> ShapeCheck {
        ShapeCheck { name: name.to_string(), pass, detail: String::new() }
    }

    #[test]
    fn the_loopback_paragraph_explains_only_the_loopback_miss() {
        let other = "Tbl3/§4: loopback bus traffic jumps an order of magnitude";
        let loopback = deviations(&[check(LOOPBACK_PEAK_CHECK, false), check(other, true)]);
        assert!(loopback.starts_with("### Known deviations\n\n* **Loopback 1CPm > 2CPm"));
        assert!(loopback.ends_with("does reproduce.\n\n"), "{loopback}");
        assert!(!loopback.contains("Unexplained"));

        let elsewhere = deviations(&[check(LOOPBACK_PEAK_CHECK, true), check(other, false)]);
        assert!(!elsewhere.contains("Known deviations") && !elsewhere.contains("Loopback 1CPm"));
        assert!(elsewhere.contains(&format!("* {other}: no explanation recorded.")));

        let both = deviations(&[check(LOOPBACK_PEAK_CHECK, false), check(other, false)]);
        assert!(both.contains("Loopback 1CPm") && both.contains(other));

        assert!(deviations(&[check(LOOPBACK_PEAK_CHECK, true), check(other, true)]).is_empty());
    }
}
