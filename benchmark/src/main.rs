//! The repo benchmark. See `benchmark/README.md` and `BENCHMARK.json`.
//!
//! ```text
//! aon-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! aon-benchmark --all [--seed N] [--seconds S] [--runs R] [--out FILE]
//! aon-benchmark --quick            # --all, smoke-sized
//! aon-benchmark --compare A.json B.json
//! ```
//!
//! The first form is one run of one workload and ends with the result
//! line the driver reads; the others are built on it.

mod alloc;
mod client;
mod compare;
mod host;
mod json;
mod layers;
mod live;
mod outcome;
mod perlayer;
mod procstat;
mod sim;
mod spec;
mod stats;
mod suite;
mod trace;

use spec::Kind;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where span files and default result files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: aon-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]\n       \
         aon-benchmark --all [--seed N] [--seconds S] [--runs R] [--out FILE]\n       \
         aon-benchmark --quick\n       \
         aon-benchmark --compare A.json B.json\nworkloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

/// One run of one workload; prints the samples line and the result line.
fn run_one(name: &str, seed: u64, seconds: u64, traced: bool, quick: bool) -> ExitCode {
    let epoch = Instant::now();
    let Some(w) = spec::workload(name) else { return usage() };
    let params = live::Params { seed, seconds: seconds as f64, quick, epoch };
    let outcome = match (&w.kind, traced) {
        (Kind::Live(spec), false) => live::run(spec, params),
        (Kind::Live(spec), true) => {
            let (outcome, spans) = live::run_traced(spec, params);
            let path = out_dir().join(format!("spans-{name}-{seed}.jsonl"));
            match trace::write_jsonl(&path, &spans) {
                Ok(()) => eprintln!("{} spans in {}", spans.len(), path.display()),
                Err(e) => eprintln!("{}: {e}", path.display()),
            }
            outcome
        }
        (Kind::Sim, traced) => sim::run(params.seconds, quick, traced),
    };
    for e in &outcome.errors {
        eprintln!("{name}: {e}");
    }
    println!("{}", outcome.samples_line());
    println!("{}", outcome.result_line(&w.kind, traced));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 20u64;
    let mut runs = 1u64;
    let mut traced = false;
    let mut quick = false;
    let mut all = false;
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        let value = || args.get(i + 1).map(String::as_str);
        let number = || value().and_then(|v| v.parse::<u64>().ok());
        match args[i].as_str() {
            "--compare" => {
                return match (args.get(i + 1), args.get(i + 2)) {
                    (Some(a), Some(b)) => compare::run(a, b),
                    _ => usage(),
                };
            }
            "--sim-record" => return sim::record_once(),
            "--quick" => quick = true,
            "--all" => all = true,
            flag @ ("--workload" | "--out") => {
                let Some(v) = value() else { return usage() };
                match flag {
                    "--workload" => workload = Some(v.to_string()),
                    _ => out = Some(PathBuf::from(v)),
                }
                i += 1;
            }
            flag @ ("--seed" | "--seconds" | "--runs" | "--trace") => {
                let Some(n) = number() else { return usage() };
                match flag {
                    "--seed" => seed = n,
                    "--seconds" => seconds = n.max(1),
                    "--runs" => runs = n.max(1),
                    _ => traced = n != 0,
                }
                i += 1;
            }
            _ => return usage(),
        }
        i += 1;
    }
    match workload {
        Some(name) => run_one(&name, seed, seconds, traced, quick),
        None if all || quick => suite::run(&suite::Args { seed, seconds, runs, quick, out }),
        None => usage(),
    }
}
