//! The studies beyond the paper's eight artifacts, printed as text:
//!
//! * [`sweep`] — the AONBench axes the paper fixes (message size, offered
//!   load), from its companion benchmark (Waheed & Ding, SAINT'07);
//! * [`ablation`] — the design choices DESIGN.md §6 calls out, each rerun
//!   on a modified machine description;
//! * [`extension`] — the paper's §6 future work, DPI and HMAC-SHA1 as
//!   fourth and fifth use cases (no paper numbers exist for them).

use crate::{header, row};
use aon_core::experiment::{find, measure, run_grid, ExperimentConfig};
use aon_core::memo::{self, CorpusSpec};
use aon_core::metrics::{throughput_scaling, MetricKind, ScalingPair};
use aon_core::report::metric_row;
use aon_core::workload::WorkloadKind;
use aon_server::app::build_server;
use aon_server::usecase::UseCase;
use aon_sim::config::{L2Topology, MachineConfig, Platform, PrefetchConfig};
use aon_sim::machine::Machine;
use aon_sim::stats::MachineStats;
use aon_trace::num::ratio;

/// One measured variant: throughput, the paper's counter metrics and the
/// idle share of the enabled CPUs.
fn line(label: &str, s: &MachineStats) {
    let idle: u64 = s.per_cpu.iter().map(|c| c.idle_cycles).sum();
    let ticks: u64 = s.per_cpu.iter().map(|c| c.clockticks).sum();
    println!(
        "{label:<22}{:>9.0} msg/s{:>7.0} Mbps  CPI {:.2}  L2MPI {:.3}%  BTPI {:.2}%  \
         BrMPR {:.2}%  idle {:.1}%",
        s.units_per_sec(),
        s.throughput_mbps(),
        s.total.cpi(),
        s.total.l2mpi_pct(),
        s.total.btpi_pct(),
        s.total.brmpr_pct(),
        ratio(idle, ticks.max(1)) * 100.0
    );
}

/// Message-size sweep (FR and SV on the two dual-unit flagships: bigger
/// messages amortise the per-connection work, so Mbps rises as msg/s
/// falls), then offered-load sweep (SV on 2CPm: below saturation the
/// server tracks the load with idle headroom, at saturation it flat-tops).
pub fn sweep(cfg: &ExperimentConfig) {
    let run = |platform: Platform, use_case, body_size, offered_load_pct| {
        // Each (use case, body size) records once; the platform × load grid
        // replays the shared traces.
        let spec = CorpusSpec { body_size: Some(body_size), ..CorpusSpec::of(cfg) };
        let mut m = Machine::new(platform.config());
        build_server(&mut m, &memo::server_recording(use_case, spec), offered_load_pct);
        measure(&mut m, cfg)
    };
    println!("=== Message size (saturation load) ===");
    for p in [Platform::TwoCorePentiumM, Platform::TwoPhysicalXeon] {
        for u in [UseCase::Fr, UseCase::Sv] {
            for body in [1536, 3 * 1024, 5 * 1024, 10 * 1024, 24 * 1024] {
                let label = format!("{} {} {body} B", p.notation(), u.label());
                line(&label, &run(p, u, body, 100));
            }
        }
    }
    println!("\n=== Offered load (SV on 2CPm, 5 KB messages) ===");
    for pct in [25, 50, 75, 90, 100] {
        line(
            &format!("{pct}% offered"),
            &run(Platform::TwoCorePentiumM, UseCase::Sv, 5 * 1024, pct),
        );
    }
}

/// How much each modelled mechanism contributes to the paper's effects:
/// shared vs private L2 (§5.1, §5.3), Smart Memory Access (§5.4), SMT
/// predictor sharing (§5.5), the misprediction penalty (Netburst pipeline
/// depth, §5.2) and the Xeon L2 size (§5.3).
pub fn ablation(cfg: &ExperimentConfig) {
    let run = |machine: MachineConfig, workload: WorkloadKind| {
        let mut m = Machine::new(machine);
        workload.build(&mut m, CorpusSpec::of(cfg));
        measure(&mut m, cfg)
    };

    println!("=== 2CPm shared vs private L2 (FR) ===");
    line("shared L2", &run(Platform::TwoCorePentiumM.config(), WorkloadKind::Fr));
    let mut private = Platform::TwoCorePentiumM.config();
    private.l2_topology = L2Topology::PerPackage;
    private.packages = 2;
    private.cores_per_package = 1;
    line("private L2", &run(private, WorkloadKind::Fr));

    println!("\n=== 1CPm Smart Memory Access on/off (FR) ===");
    line("SMA on", &run(Platform::OneCorePentiumM.config(), WorkloadKind::Fr));
    let mut off = Platform::OneCorePentiumM.config();
    off.arch.prefetch = PrefetchConfig::OFF;
    line("SMA off", &run(off, WorkloadKind::Fr));

    println!("\n=== 2LPx shared vs private predictor history (SV) ===");
    line("shared history", &run(Platform::TwoLogicalXeon.config(), WorkloadKind::Sv));
    let mut private = Platform::TwoLogicalXeon.config();
    private.smt_shared_predictor = false;
    line("private history", &run(private, WorkloadKind::Sv));

    println!("\n=== 1LPx misprediction penalty (SV) ===");
    for penalty in [12, 20, 30, 45] {
        let mut c = Platform::OneLogicalXeon.config();
        c.arch.mispredict_penalty = penalty;
        line(&format!("penalty {penalty} cycles"), &run(c, WorkloadKind::Sv));
    }

    println!("\n=== 1LPx L2 size (FR) ===");
    for size_kb in [512u32, 1024, 2048, 4096] {
        let mut c = Platform::OneLogicalXeon.config();
        c.l2.size = size_kb << 10;
        line(&format!("L2 {size_kb} KiB"), &run(c, WorkloadKind::Fr));
    }
}

/// DPI and HMAC-SHA1 beside FR and SV on the five platforms: throughput,
/// the counter metrics and Figure 3's scaling pairs.
pub fn extension(cfg: &ExperimentConfig) {
    let loads = [WorkloadKind::Fr, WorkloadKind::Sv, WorkloadKind::Dpi, WorkloadKind::Crypto];
    let ms = run_grid(&Platform::ALL, &loads, cfg);
    print!("--- msg/s ---\n{}", header());
    for w in loads {
        let tput =
            Platform::ALL.map(|p| find(&ms, p, w).map_or(f64::NAN, |m| m.stats.units_per_sec()));
        print!("{}", row(w.label(), 22, tput.map(|v| format!("{v:.0}")), 9));
    }
    for metric in MetricKind::COUNTER_METRICS {
        print!("\n--- {metric} ---\n{}", header());
        for w in loads {
            print!(
                "{}",
                row(w.label(), 22, metric_row(&ms, w, metric).map(|v| format!("{v:.2}")), 9)
            );
        }
    }
    println!("\n--- dual-processing scaling (Figure 3 extended) ---");
    print!("{}", row("", 14, ScalingPair::ALL.map(|p| p.label().to_string()), 14));
    for w in loads {
        let s = ScalingPair::ALL.map(|p| throughput_scaling(&ms, p, w).unwrap_or(f64::NAN));
        print!("{}", row(w.label(), 14, s.map(|v| format!("{v:.2}")), 14));
    }
    println!(
        "\nThe paper's analysis expects both extensions, CPU-intensive like SV, to scale\n\
         like SV: well on dual core and dual package, poorly under Hyperthreading."
    );
}
