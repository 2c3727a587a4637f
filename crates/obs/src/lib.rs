//! # aon-obs — software performance-counter observability
//!
//! The paper's method *is* observability: it reads the Pentium M /
//! Pentium 4 on-chip performance counters (clockticks, instructions
//! retired, L2 misses, bus transactions, branches) under live Netperf
//! load and derives CPI, L2MPI, BTPI, and BrMPR per use case. The
//! simulator half of this workspace reproduces those counters; this
//! crate gives the **live serving half** the equivalent instrumentation
//! in software, so per-use-case cost structure is visible while the
//! server runs — not only in a post-hoc `BENCH_live.json`.
//!
//! Three layers, lock-light by construction:
//!
//! * [`metric`] — the primitive instruments: relaxed-atomic
//!   [`metric::Counter`]s, [`metric::Gauge`]s (with high-water-mark
//!   updates), and fixed-bucket log2 [`metric::Histogram`]s whose
//!   snapshots are plain data and mergeable;
//! * [`registry`] — named, labelled metric families with Prometheus
//!   text exposition ([`registry::Registry::render_prometheus`]); the
//!   data path never takes the registry lock, only registration and
//!   rendering do;
//! * [`stage`] — span-based pipeline phase timing: the engine is
//!   generic over [`stage::StageRecorder`], so the
//!   [`stage::NoopStages`] instantiation is the untimed pipeline and
//!   [`stage::WallStages`] accumulates per-stage nanoseconds.
//!
//! Three further planes close the loop with the paper's method:
//!
//! * [`hwcounters`] — hardware-counter stage attribution: a
//!   [`hwcounters::RichStages`] recorder snapshots a per-thread
//!   `aon-hw` perf group at stage boundaries, so every span carries
//!   cycle/instruction/cache-miss deltas when the PMU is available
//!   (and cleanly degrades to zeros when it is not);
//! * [`reqtrace`] — tail-sampled per-request span traces: slow, shed,
//!   and errored requests are always retained, the rest
//!   reservoir-sampled deterministically ([`reqtrace::Tracer`]) — the
//!   one bounded ring of recent requests, dumpable as JSONL;
//! * [`profiler`] — continuous worker-state profiling: workers publish
//!   their current state into per-worker atomic slots
//!   ([`profiler::WorkerSlots`]) and a sampler thread builds
//!   statistical wall-time profiles (state sample counters, pool
//!   saturation, a flamegraph-compatible folded-stack dump) plus a
//!   Little's-law consistency check ([`profiler::littles_law`]).
//!
//! Two support modules round it out: [`latency`] (the exact
//! percentile summarization shared with the load generator) and
//! [`scrape`] (a parser for the exposition format, used by
//! `obs-report` and the CI cross-check).
//!
//! All counter arithmetic goes through the audit-enforced lossless
//! [`aon_trace::num`] conversions.

pub mod hwcounters;
pub mod latency;
pub mod metric;
pub mod profiler;
pub mod registry;
pub mod reqtrace;
pub mod scrape;
pub mod stage;

pub use hwcounters::{HwStageSet, RichStages};
pub use latency::{percentile, percentile_per_mille, summarize_latencies, LatencySummary};
pub use metric::{Counter, Exemplar, Gauge, Histogram, HistogramSnapshot};
pub use profiler::{littles_law, LittlesLaw, Profiler, ProfilerConfig, WorkerSlots, WorkerState};
pub use registry::Registry;
pub use reqtrace::{
    sample_decision, ParsedSpan, ParsedTrace, TraceClass, TraceConfig, TraceEvent, TraceRecord,
    Tracer,
};
pub use stage::{NoopStages, Stage, StageRecorder, WallStages, STAGE_COUNT};
