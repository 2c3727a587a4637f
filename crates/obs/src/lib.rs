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
//! * [`stage`] — pipeline phase timing: the engine is generic over
//!   [`stage::StageRecorder`], so the [`stage::NoopStages`]
//!   instantiation is the untimed pipeline.
//!
//! One instrument joins them to the planes below. [`record::Recorder`]
//! is the per-request recorder: it reads the clock **once per boundary**
//! (frame complete, each stage edge, write start, write end) and feeds
//! that timestamp to the wall-stage table, the span list, the worker's
//! profiler slot and exact ledger, and — beside a counter-group read —
//! the hardware table, then hands one [`record::RequestRecord`] to the
//! sinks at write end:
//!
//! * hardware counters — with a live per-thread `aon-hw` perf group
//!   every stage carries cycle/instruction/cache-miss deltas in the
//!   record (and the plane cleanly degrades to absent when the PMU is
//!   not available);
//! * [`reqtrace`] — tail-sampled per-request span traces: slow, shed,
//!   and errored requests are always retained, the rest
//!   reservoir-sampled deterministically ([`reqtrace::Tracer`]) — the
//!   one bounded ring of recent requests, dumpable as JSONL;
//! * [`profiler`] — continuous worker-state profiling: per-worker atomic
//!   slots ([`profiler::WorkerSlots`]) hold each worker's current state
//!   and an exact time-in-state ledger, and a sampler thread builds
//!   statistical wall-time profiles (state sample counters, pool
//!   saturation, a flamegraph-compatible folded-stack dump); the
//!   Little's-law arithmetic ([`profiler::LittlesLaw`]) says how far the
//!   sampled estimate strays from the ledger.
//!
//! Two support modules round it out: [`latency`] (the exact
//! percentile summarization shared with the load generator) and
//! [`scrape`] (a parser for the exposition format, used by
//! `aon-report` and the CI cross-check).
//!
//! All counter arithmetic goes through the audit-enforced lossless
//! [`aon_trace::num`] conversions.

pub mod latency;
pub mod metric;
pub mod profiler;
pub mod record;
pub mod registry;
pub mod reqtrace;
pub mod scrape;
pub mod stage;

pub use latency::{percentile, percentile_per_mille, summarize_latencies, LatencySummary};
pub use metric::{Counter, Exemplar, Gauge, Histogram, HistogramSnapshot};
pub use profiler::{LittlesLaw, Profiler, ProfilerConfig, WorkerSlots, WorkerState};
pub use record::{BoundaryRecorder, Recorder, RequestRecord};
pub use registry::Registry;
pub use reqtrace::{
    sample_decision, ParsedSpan, ParsedTrace, TraceClass, TraceConfig, TraceEvent, TraceRecord,
    Tracer,
};
pub use stage::{NoopStages, Stage, StageRecorder, STAGE_COUNT};
