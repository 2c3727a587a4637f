//! Characterize one (platform × workload) cell — the paper's §3
//! methodology in one command: run the workload on the simulated machine
//! and print the VTune-style counter report.
//!
//! Run: `cargo run --release --example characterize -- 2LPx SV`
//! Platforms: 1CPm 2CPm 1LPx 2LPx 2PPx
//! Workloads: FR CBR SV netperf netperf-loopback

use aon::core::experiment::{measure, ExperimentConfig};
use aon::core::memo::CorpusSpec;
use aon::core::workload::WorkloadKind;
use aon::sim::config::Platform;
use aon::sim::machine::Machine;
use aon::trace::num::ratio;

/// The entry of `all` named `arg` (any case), or `default` when the
/// argument is absent. A present but unknown name exits 2 listing the
/// accepted ones, rather than measuring some other cell.
fn parse<T: Copy>(
    what: &str,
    arg: Option<&String>,
    default: T,
    all: &[T],
    name: fn(&T) -> &'static str,
) -> T {
    let Some(arg) = arg else { return default };
    all.iter().copied().find(|x| name(x).eq_ignore_ascii_case(arg)).unwrap_or_else(|| {
        let accepted: Vec<&str> = all.iter().map(name).collect();
        eprintln!("characterize: unknown {what} {arg:?}; expected one of: {}", accepted.join(" "));
        std::process::exit(2)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let platform = parse(
        "platform",
        args.get(1),
        Platform::TwoCorePentiumM,
        &Platform::ALL,
        Platform::notation,
    );
    let workload =
        parse("workload", args.get(2), WorkloadKind::Cbr, &WorkloadKind::ALL, WorkloadKind::label);

    let cfg = ExperimentConfig::default();
    eprintln!(
        "measuring {workload} on {platform} ({} Mcycle window)...",
        cfg.measure_cycles / 1_000_000
    );
    // Run the cell by hand (instead of run_cell) to keep the machine for
    // its sampling profile.
    let mut machine = Machine::new(platform.config());
    workload.build(&mut machine, CorpusSpec::of(&cfg));
    let stats = measure(&mut machine, &cfg);
    let s = &stats;
    let t = &s.total;

    println!(
        "=== {workload} on {platform} ({} logical CPUs @ {} MHz) ===",
        s.per_cpu.len(),
        s.cpu_mhz
    );
    println!("simulated window      : {:.1} ms", s.seconds() * 1e3);
    println!("completed work units  : {} ({:.0}/s)", s.completed_units, s.units_per_sec());
    println!("payload throughput    : {:.0} Mbps", s.throughput_mbps());
    println!();
    println!("-- on-chip counters (aggregated) --");
    println!("clockticks            : {}", t.clockticks);
    println!("instructions retired  : {:.0}", t.inst_retired());
    println!("branches retired      : {}", t.branches_retired);
    println!("branch mispredictions : {}", t.branch_mispredicts);
    println!("L1D misses            : {}", t.l1d_misses);
    println!("L2 misses             : {}", t.l2_misses);
    println!("bus transactions      : {}", t.bus_txns);
    println!();
    println!("-- derived metrics (paper §3.3) --");
    println!("CPI                   : {:.2}", t.cpi());
    println!("L2MPI                 : {:.3} %", t.l2mpi_pct());
    println!("BTPI                  : {:.2} %", t.btpi_pct());
    println!("branch frequency      : {:.1} %", t.branch_freq_pct());
    println!("BrMPR                 : {:.2} %", t.brmpr_pct());
    println!();
    println!("-- sampling profile (cycles by trace label) --");
    let mut prof: Vec<(&String, &u64)> = machine.profile().iter().collect();
    prof.sort_by(|a, b| b.1.cmp(a.1));
    let total_prof: u64 = prof.iter().map(|(_, &c)| c).sum();
    for (label, &cycles) in prof.iter().take(8) {
        println!(
            "{:<28}{:>12}  ({:>4.1}%)",
            label,
            cycles,
            ratio(cycles, total_prof.max(1)) * 100.0
        );
    }
    println!();
    println!("-- per logical CPU --");
    for (i, c) in s.per_cpu.iter().enumerate() {
        println!(
            "cpu{i}: retired {:>12.0}  idle {:>5.1}%  mem-stall {:>5.1}%  flush {:>4.1}%",
            c.inst_retired(),
            ratio(c.idle_cycles, c.clockticks.max(1)) * 100.0,
            ratio(c.mem_stall_cycles, c.clockticks.max(1)) * 100.0,
            ratio(c.flush_cycles, c.clockticks.max(1)) * 100.0,
        );
    }
}
