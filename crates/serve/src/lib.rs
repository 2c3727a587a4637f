//! # aon-serve — the live TCP serving subsystem
//!
//! The paper measures a *real* AON server under Netperf load; the rest of
//! this workspace replays modeled traces on a simulated machine. This
//! crate closes that gap: a real `std::net` HTTP/1.1 server that serves
//! the paper's three use cases (FR, CBR, SV — plus the §6 extensions)
//! natively through `aon-server`'s one fallible engine entry (the
//! tree-less event pass of `aon-xml`, untraced), and a netperf-style
//! closed-loop load generator that drives it over loopback and emits
//! `BENCH_live.json`.
//!
//! Architecture (mirroring the paper's server, §3.2.1):
//!
//! * one listening socket and a worker pool (default: one thread per
//!   logical CPU) whose threads block in `accept(2)` on it — the thread
//!   the kernel wakes for a connection serves its keep-alive request
//!   loop, and the kernel's listen backlog is the one bounded queue in
//!   front of the pool;
//! * per-connection read/write deadlines, hard head/body size limits
//!   ([`aon_net::wire`]), a keep-alive request cap, and 400/413/408
//!   error responses;
//! * graceful shutdown that stops accepting and finishes in-flight
//!   requests.
//!
//! The server also carries the observability planes ([`obs`], built on
//! [`aon_obs`]) behind one master switch, [`server::ServeConfig::observe`].
//! Each worker's per-request recorder reads the clock once at every
//! boundary of a request — frame complete, stage edges, write start, write
//! end — and that one timestamp feeds the per-stage latency histograms,
//! the tail-sampled request traces (the one ring of recent requests), the
//! worker-state profiler's slots and exact time-in-state ledger, and the
//! optional hardware-counter deltas; after the write the finished record
//! goes to the sinks in one call. The serving counters
//! ([`server::ServeStats`]) are the registry's own series, counted once.
//! Admin endpoints (`GET /metrics` Prometheus text, `GET /stats.json`,
//! `GET /trace.jsonl`, `GET /profile.folded` — the profiler's
//! flamegraph.pl-ready folded-stack dump) are served from the same worker
//! pool and counted separately, so scraping never perturbs the request
//! totals it reports. An `aon-profiler` sampler thread turns the worker
//! slots into state-sample counters, utilization and pool-saturation
//! gauges, and every kept trace is the OpenMetrics exemplar of its
//! latency bucket. With `observe` off none of this exists: no clock
//! reads, no tracer, no sampler, and only `/stats.json` answers.
//!
//! Overload is the kernel's to handle: the listen backlog is the one
//! admission control, beyond it SYNs are dropped and clients stall on
//! retransmits, and the server shows it as `saturation_permille` 1000 in
//! `/stats.json` and an `accept_wait` share going to zero in
//! `/profile.folded`. Nothing sheds on load (DESIGN.md §15 has the
//! measurement that retired the p99 feedback loop); an operator can pin
//! [`server::ServeConfig::fr_only`], a static filter that answers every
//! non-FR POST `503 + Retry-After`.
//!
//! Modules:
//!
//! * [`server`] — the serving half: [`server::Server`],
//!   [`server::ServeConfig`], [`server::ServeStats`];
//! * [`obs`] — the observability half: [`obs::ServerObs`], the planes
//!   and the sinks a finished request record goes to;
//! * [`loadgen`] — the measuring half: closed-loop request/response
//!   threads ([`loadgen::LoadgenConfig`], [`loadgen::run`]);
//! * [`metrics`] — latency summaries and the `BENCH_live.json` report
//!   ([`metrics::LiveBenchReport`]).

pub mod loadgen;
pub mod metrics;
pub mod obs;
pub mod server;

pub use loadgen::{run as run_loadgen, LoadgenConfig};
pub use metrics::LiveBenchReport;
pub use obs::ServerObs;
pub use server::{ServeConfig, Server};
