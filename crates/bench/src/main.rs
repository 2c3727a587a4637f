//! `aon-bench`: the paper harness.
//!
//! ```text
//! aon-bench all [PATH]      every artifact and the shape checks -> PATH (EXPERIMENTS.md)
//! aon-bench table 3|4|5|6   one table, as its EXPERIMENTS.md section
//! aon-bench fig 2|3|4|5     one figure, likewise
//! aon-bench sweep           message-size and offered-load sweeps
//! aon-bench ablation        design-choice ablations
//! aon-bench extension       the paper's §6 future work: DPI and HMAC-SHA1
//! aon-bench perf [--quick]  time the simulator over the grid
//! ```
//!
//! Anything else exits 2 with "unknown argument". `perf` prints its phase
//! profile to stderr and one line to stdout:
//! `simulated_cycles <n> cells <c> shape <passed>/<total>`.

use aon_bench::perf::{self, PerfReport};
use aon_bench::{experiments_md, studies, Artifact};
use aon_core::experiment::{run_grid, ExperimentConfig};
use aon_sim::config::Platform;
use std::process::ExitCode;

const USAGE: &str = "usage: aon-bench <all [PATH] | table 3|4|5|6 | fig 2|3|4|5 | sweep | \
                     ablation | extension | perf [--quick]>";

/// What one invocation runs.
#[derive(Debug, PartialEq, Eq)]
enum Command {
    All(String),
    One(Artifact),
    Sweep,
    Ablation,
    Extension,
    Perf { quick: bool },
}

fn parse(args: &[&str]) -> Option<Command> {
    Some(match *args {
        ["all"] => Command::All("EXPERIMENTS.md".to_string()),
        ["all", path] => Command::All(path.to_string()),
        [kind, n] if kind == "table" || kind == "fig" => {
            Command::One(Artifact::ALL.into_iter().find(|a| a.id() == (kind, n))?)
        }
        ["sweep"] => Command::Sweep,
        ["ablation"] => Command::Ablation,
        ["extension"] => Command::Extension,
        ["perf"] => Command::Perf { quick: false },
        ["perf", "--quick"] => Command::Perf { quick: true },
        _ => return None,
    })
}

fn phase_profile(r: &PerfReport) -> String {
    let jobs: Vec<String> =
        r.record_jobs.iter().map(|(label, s)| format!("{label} {:.1}ms", s * 1e3)).collect();
    format!(
        "phases: record {:.3}s ({}), replay {:.3}s (cells {:.3}s on {} workers, pool efficiency \
         {:.3}), report {:.3}s (total {:.3}s); {} cells, {:.2} cells/s, {:.0} simulated \
         cycles/wall-s; memo: corpus {}h/{}m, server {}h/{}m, netperf {}h/{}m",
        r.wall.record,
        jobs.join(", "),
        r.wall.replay,
        r.cell_seconds.iter().sum::<f64>(),
        r.workers,
        r.pool_efficiency(),
        r.wall.report,
        r.wall.total(),
        r.cells,
        r.cells_per_second(),
        r.simulated_cycles_per_wall_second(),
        r.memo.corpus_hits,
        r.memo.corpus_misses,
        r.memo.server_hits,
        r.memo.server_misses,
        r.memo.netperf_hits,
        r.memo.netperf_misses
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    let Some(command) = parse(&words) else {
        eprintln!("unknown argument: {:?}\n{USAGE}", words.join(" "));
        return ExitCode::from(2);
    };
    let cfg = ExperimentConfig::default();
    match command {
        Command::All(path) => {
            let (report, ms) = perf::timed_grid(&cfg, false);
            let md = experiments_md(&cfg, &ms);
            print!("{md}");
            if let Err(e) = std::fs::write(&path, &md) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}\n{}", phase_profile(&report));
        }
        Command::One(a) => {
            print!("{}", a.section(&run_grid(&Platform::ALL, a.workloads(), &cfg)))
        }
        Command::Sweep => studies::sweep(&cfg),
        Command::Ablation => studies::ablation(&cfg),
        Command::Extension => studies::extension(&cfg),
        Command::Perf { quick } => {
            let r = perf::run(quick);
            eprintln!("{}", phase_profile(&r));
            println!(
                "simulated_cycles {} cells {} shape {}/{}",
                r.simulated_cycles, r.cells, r.shape_checks_passed, r.shape_checks_total
            );
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_subcommand_parses_and_nothing_else_does() {
        let cases: [(&[&str], Command); 7] = [
            (&["all"], Command::All("EXPERIMENTS.md".to_string())),
            (&["all", "/tmp/E.md"], Command::All("/tmp/E.md".to_string())),
            (&["sweep"], Command::Sweep),
            (&["ablation"], Command::Ablation),
            (&["extension"], Command::Extension),
            (&["perf"], Command::Perf { quick: false }),
            (&["perf", "--quick"], Command::Perf { quick: true }),
        ];
        for (args, want) in cases {
            assert_eq!(parse(args), Some(want), "{args:?}");
        }
        // table 3|4|5|6 and fig 2|3|4|5, each to its own artifact.
        for a in Artifact::ALL {
            let (kind, n) = a.id();
            assert_eq!(parse(&[kind, n]), Some(Command::One(a)));
        }
        // The old perf binary took an output path; the subcommand writes no file.
        for bad in [
            &["table", "7"][..],
            &["fig", "1"],
            &["table", "2"],
            &["perf", "sim.json"],
            &["perf", "--quick", "/tmp/x.json"],
            &["figure", "3"],
            &["all", "a", "b"],
            &[],
        ] {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
    }
}
