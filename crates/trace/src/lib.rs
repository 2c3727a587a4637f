//! # aon-trace — abstract ISA and instrumentation substrate
//!
//! The ICPP 2007 AON paper measures real Pentium M / Xeon hardware with
//! on-chip performance counters. This workspace replaces the hardware with a
//! cycle-approximate simulator (`aon-sim`), which needs an instruction,
//! memory and branch stream to execute. `aon-trace` is the substrate that
//! produces that stream from *real* workload code:
//!
//! * [`op`] defines the abstract, architecture-neutral operation set
//!   ([`Op`]): integer/logic work, loads, stores, conditional branches and
//!   unconditional jumps. Per-architecture *cracking* of abstract ops into
//!   retired instruction counts lives in the simulator, not here.
//! * [`vaddr`] defines [`VAddr`], the absolute address a replay resolves a
//!   traced access to: workloads own the base constants and bind them to
//!   region slots per replay, so addresses are realistic and reproducible.
//! * [`code`] maps instrumentation call sites (file/line/column) to stable
//!   synthetic program counters, which drive instruction fetch and branch
//!   prediction in the simulator.
//! * [`probe`] defines the [`Probe`] sink trait. Workload code (the XML
//!   parser, XPath engine, HTTP proxy, TCP cost model, …) is written against
//!   a generic `P: Probe`; with [`NullProbe`] the code runs natively with
//!   near-zero overhead, with [`Tracer`] it records a replayable trace.
//! * [`trace`] holds the recorded [`Trace`]: a compact op sequence with
//!   *relocatable* addresses (region slot + offset), so one recorded trace
//!   can be replayed against fresh buffer placements — exactly how a server
//!   re-runs the same code on every incoming message buffer.
//! * [`mix`] derives instruction-mix statistics used for sanity checks and
//!   for the paper's Table 5 style branch-frequency analysis.
//!
//! The central design point: traces are recorded by *executing the real
//! algorithms on real bytes*. Locality, branch bias, and instruction mix are
//! emergent properties of the workload implementation, not knobs.

pub mod code;
pub mod mix;
pub mod num;
pub mod op;
pub mod probe;
pub mod trace;
pub mod tracer;
pub mod vaddr;

pub use code::SiteId;
pub use op::{Addr, Op, RegionSlot};
pub use probe::{NullProbe, Probe, ProbeExt};
pub use trace::{Trace, TraceStats};
pub use tracer::Tracer;
pub use vaddr::VAddr;
