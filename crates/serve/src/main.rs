//! `aon-serve` — run the live AON server standalone.
//!
//! ```text
//! aon-serve [--addr 127.0.0.1:8080] [--threads N] [--for SECS] [--no-obs]
//!           [--no-trace] [--trace-capacity N] [--trace-sample-ppm N] [--hw]
//!           [--no-profiler]
//! ```
//!
//! `--no-obs` is the master switch: no metrics, no tracer, no profiler,
//! no perf groups, whatever the flags under it say; `/stats.json` and
//! the final counters stay.
//!
//! Binds, prints the bound address (the OS picks a port when `:0` is
//! given), serves until `--for` seconds elapse (default: forever), then
//! shuts down gracefully and prints the final counters. Drive it with any
//! HTTP client (`curl -d @msg.xml http://HOST:PORT/aon/sv`) and read it
//! with `aon-report <obs|trace|profile> --addr HOST:PORT`; the in-repo
//! closed-loop driver is `aon-report … --self-drive`, which starts its own
//! server.

use aon_serve::server::{ServeConfig, Server};
use std::time::Duration;

fn main() {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => {}
        Err(msg) => {
            eprintln!("aon-serve: {msg}");
            std::process::exit(2);
        }
    }
}

/// The value of option `arg`, parsed.
fn parsed<T: std::str::FromStr<Err: std::fmt::Display>>(
    arg: &str,
    value: Result<String, String>,
) -> Result<T, String> {
    value?.parse().map_err(|e| format!("{arg}: {e}"))
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut cfg = ServeConfig { addr: "127.0.0.1:8080".to_string(), ..ServeConfig::default() };
    let mut run_for: Option<Duration> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--addr" => cfg.addr = value()?,
            "--threads" => cfg.workers = parsed(&arg, value())?,
            "--for" => run_for = Some(Duration::from_secs(parsed(&arg, value())?)),
            "--no-obs" => cfg.observe = false,
            "--no-trace" => cfg.trace.enabled = false,
            "--trace-capacity" => cfg.trace.capacity = parsed(&arg, value())?,
            "--trace-sample-ppm" => cfg.trace.sample_per_million = parsed(&arg, value())?,
            "--hw" => cfg.hw_counters = true,
            "--no-profiler" => cfg.profiler = false,
            "--help" | "-h" => {
                println!(
                    "usage: aon-serve [--addr HOST:PORT] [--threads N] [--for SECS] [--no-obs] \
                     [--no-trace] [--trace-capacity N] [--trace-sample-ppm N] [--hw] \
                     [--no-profiler]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }

    let server = Server::start(cfg).map_err(|e| format!("cannot start: {e}"))?;
    println!("aon-serve listening on {}", server.addr());

    match run_for {
        Some(d) => std::thread::sleep(d),
        None => loop {
            // No signal handling in this hermetic workspace: run until
            // killed. Periodic heartbeat keeps the process observable.
            std::thread::sleep(Duration::from_secs(60));
            let s = server.stats();
            println!(
                "aon-serve: {} requests served, {} protocol errors",
                s.requests_total(),
                s.protocol_errors()
            );
        },
    }

    let stats = server.shutdown();
    println!(
        "aon-serve: done — accepted {}, served {} ({} ok, {} routed-reject), \
         {} bad requests, {} too large, {} timeouts",
        stats.accepted,
        stats.requests_total(),
        stats.requests_ok,
        stats.requests_rejected,
        stats.bad_request,
        stats.too_large,
        stats.timeouts,
    );
    Ok(())
}
