//! # aon-core — the characterization framework
//!
//! The paper's methodology (§3) as a library: the five platform
//! configurations, the five workloads (netperf loopback / end-to-end and
//! the FR / CBR / SV server use cases), an experiment runner that collects
//! simulated performance-counter measurements, metric derivation, the
//! published numbers for every table and figure, and report generation
//! that prints paper-vs-measured comparisons.
//!
//! * [`workload`] — workload enumeration and construction;
//! * [`experiment`] — run one (platform × workload) cell or sweep the full
//!   grid (optionally in parallel across a bounded worker pool);
//! * [`memo`] — process-wide memoization of corpora and recorded traces
//!   (a recording depends on the workload, never the platform, so sweeps
//!   share it);
//! * [`metrics`] — the derived quantities of §3.3 (CPI, L2MPI, BTPI,
//!   branch frequency, BrMPR, throughput, scaling);
//! * [`paper`] — the published values of Figure 2–5 and Table 3–6;
//! * [`report`] — ASCII rendering and shape checks.

pub mod experiment;
pub mod memo;
pub mod metrics;
pub mod paper;
pub mod report;
pub mod workload;

pub use experiment::{run_cell, run_grid, ExperimentConfig, Measurement};
pub use metrics::MetricKind;
pub use workload::WorkloadKind;
