//! # aon-sim — cycle-approximate dual-processor simulator
//!
//! The paper measures five hardware configurations (Table 2) of two Intel
//! platforms (Table 1) with on-chip performance counters. This crate is the
//! substitute for that hardware: a timeline-reservation simulator detailed
//! enough that every effect the paper explains — shared-L2 contention, SMT
//! resource sharing and predictor aliasing, MESI ping-pong over the
//! front-side bus, streaming vs. cache-resident working sets, pipeline-depth
//! misprediction costs — arises from simulated structure rather than from
//! fudge factors.
//!
//! ## Model overview
//!
//! * **Logical CPUs** execute abstract-op traces ([`aon_trace::Trace`])
//!   recorded from real workload code. Per-architecture *cracking*
//!   ([`isa`]) converts abstract ops into retired-instruction counts, which
//!   is how Pentium M and Xeon report different instruction totals (and
//!   hence branch fractions, Table 5) for identical source code.
//! * **Shared resources are bandwidth timelines** ([`bus`]): issue slots of
//!   a physical core (shared by SMT siblings), the shared-L2 port, and the
//!   front-side bus. Contention is emergent — concurrent consumers book
//!   slots on the same timeline and are pushed later in time.
//! * **The cache hierarchy** ([`cache`], [`hier`]) implements per-core L1s,
//!   per-domain L2s (shared by the two Pentium M cores; private per Xeon
//!   package), MESI coherence with bus snooping and cache-to-cache
//!   transfers, dirty write-backs, and hardware prefetch ([`prefetch`]).
//! * **Branch prediction** ([`branch`]) is a gshare predictor per physical
//!   core; SMT siblings share the table (cross-thread aliasing is the
//!   paper's §5.5 observation 3) while keeping private history registers.
//! * **Workloads** ([`thread`]) are schedulable threads that alternate
//!   compute segments (trace replays with per-iteration buffer bindings)
//!   and blocking synchronization ([`sync`]) on byte channels — enough to
//!   express netperf's producer/consumer pairs and the XML server's
//!   accept/process/respond loop.
//! * **Performance counters** ([`counters`]) accumulate clockticks,
//!   instructions retired, L2 misses, bus transactions, branches and
//!   mispredictions per logical CPU — the exact event set the paper reads
//!   via VTune (§3.3).

pub mod branch;
pub mod bus;
pub mod cache;
pub mod config;
pub mod counters;
pub mod hier;
pub mod invariants;
pub mod isa;
pub mod machine;
pub mod prefetch;
pub mod stats;
pub mod sync;
pub mod thread;

pub use config::{CacheConfig, CoreArch, MachineConfig, Platform};
pub use counters::PerfCounters;
pub use machine::{Machine, RunOutcome};
pub use stats::MachineStats;
pub use sync::ChannelId;
pub use thread::{Step, ThreadId, Workload, WorkloadCtx};
