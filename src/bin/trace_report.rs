//! Critical-path breakdown from a live server's `/trace.jsonl` dump.
//!
//! ```text
//! cargo run --release --bin trace-report -- --addr 127.0.0.1:8080
//! cargo run --release --bin trace-report -- --file trace.jsonl
//! ```
//!
//! Fetches the tail-sampled trace ring (or reads a saved dump),
//! reconstructs every span tree, verifies each is structurally complete,
//! and prints the per-use-case critical path: where a request's wall
//! time went (each pipeline stage, the response write, and whatever
//! the spans do not cover). This is the
//! per-request view of the same decomposition `obs-report` derives from
//! histograms — except these are *individual* retained requests, biased
//! by design toward the tail (slow / shed / errored traces are always
//! kept), so the table answers "what do the bad requests spend their
//! time on", not "what does the average request do".
//!
//! Exits 2 on fetch/parse problems, 1 on an incomplete span tree (a
//! server-side tracing bug), 0 otherwise — an empty ring is reported,
//! not failed, so the tool is safe against an idle server.

use aon_obs::reqtrace::{ParsedTrace, TraceClass};
use aon_serve::loadgen::scrape;
use aon_trace::num::ratio;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Duration;

/// Span labels attributed as critical-path components, in print order;
/// each is reported as a share of the root span.
const STAGE_LABELS: [&str; 6] = ["parse", "xpath", "validate", "dpi", "crypto", "write"];

/// Per-use-case aggregate over retained traces.
#[derive(Debug, Default)]
struct UseCaseAgg {
    traces: u64,
    by_class: [u64; 4],
    total_ns: u64,
    stage_ns: [u64; 6],
}

fn main() {
    let (source, text) = fetch();
    let traces = match ParsedTrace::parse_jsonl(&text) {
        Ok(t) => t,
        Err(e) => fail(&format!("bad trace dump from {source}: {e}")),
    };
    if traces.is_empty() {
        println!("trace-report: {source}: trace ring is empty (no retained requests yet)");
        return;
    }

    let mut incomplete = 0u64;
    let mut aggs: BTreeMap<String, UseCaseAgg> = BTreeMap::new();
    for t in &traces {
        if let Err(e) = t.tree_complete() {
            eprintln!("trace-report: incomplete span tree (id {}): {e}", t.id);
            incomplete += 1;
            continue;
        }
        let agg = aggs.entry(t.use_case.clone()).or_default();
        agg.traces += 1;
        agg.by_class[t.class.index()] += 1;
        agg.total_ns += t.total_ns;
        for span in &t.spans {
            if let Some(i) = STAGE_LABELS.iter().position(|l| *l == span.label) {
                agg.stage_ns[i] += span.dur_ns;
            }
        }
    }

    let kept_by_class: Vec<String> = TraceClass::ALL
        .iter()
        .map(|c| {
            let n: u64 = aggs.values().map(|a| a.by_class[c.index()]).sum();
            format!("{} {}", n, c.label())
        })
        .collect();
    println!("trace-report: {} retained traces ({})", traces.len(), kept_by_class.join(", "));
    println!();

    print!("{:<8} {:>7} {:>13}", "use case", "traces", "avg total us");
    for label in STAGE_LABELS {
        print!(" {:>9}", label);
    }
    println!(" {:>9}", "other");
    for (use_case, agg) in &aggs {
        let attributed: u64 = agg.stage_ns.iter().sum();
        let other_ns = agg.total_ns.saturating_sub(attributed);
        print!(
            "{:<8} {:>7} {:>13.1}",
            use_case,
            agg.traces,
            ratio(agg.total_ns, agg.traces) / 1000.0,
        );
        for ns in agg.stage_ns {
            print_share(ns, agg.total_ns);
        }
        print_share(other_ns, agg.total_ns);
        println!();
    }

    if incomplete > 0 {
        eprintln!("trace-report: FAILED: {incomplete} incomplete span trees");
        std::process::exit(1);
    }
}

/// One percentage cell; `-` for a use case whose root spans never
/// accumulated time (all-zero clocks cannot yield shares).
fn print_share(part_ns: u64, total_ns: u64) {
    if total_ns > 0 {
        print!(" {:>8.1}%", ratio(part_ns, total_ns) * 100.0);
    } else {
        print!(" {:>9}", "-");
    }
}

/// The dump text plus a human-readable description of where it came from.
fn fetch() -> (String, String) {
    let mut addr: Option<SocketAddr> = None;
    let mut file: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| fail(&format!("{name} needs a value")));
        match arg.as_str() {
            "--addr" => {
                addr = Some(
                    value("--addr")
                        .parse()
                        .unwrap_or_else(|e| fail(&format!("--addr must be HOST:PORT: {e}"))),
                );
            }
            "--file" => file = Some(value("--file")),
            "--help" | "-h" => {
                println!("usage: trace-report (--addr HOST:PORT | --file PATH)");
                std::process::exit(0);
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    match (addr, file) {
        (Some(a), None) => {
            let text = scrape(a, "/trace.jsonl", Duration::from_secs(10)).unwrap_or_else(|e| {
                fail(&format!("cannot fetch {a}/trace.jsonl: {e:?} (tracing off, or --no-obs?)"))
            });
            (format!("{a}/trace.jsonl"), text)
        }
        (None, Some(f)) => {
            let text = std::fs::read_to_string(&f)
                .unwrap_or_else(|e| fail(&format!("cannot read {f}: {e}")));
            (f, text)
        }
        _ => fail("exactly one of --addr or --file is required"),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("trace-report: {msg}");
    std::process::exit(2)
}
