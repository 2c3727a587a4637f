//! # aon — facade crate
//!
//! Reproduction of *"Dual Processor Performance Characterization for XML
//! Application-Oriented Networking"* (Ding & Waheed, ICPP 2007). This crate
//! re-exports the workspace's public API under one roof and hosts the
//! runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`).
//!
//! See the individual crates for the subsystems:
//!
//! * [`trace`] (`aon-trace`) — abstract ISA + instrumentation probes.
//! * [`xml`] (`aon-xml`) — XML parser, DOM, XPath subset, XSD validation.
//! * [`sim`] (`aon-sim`) — cycle-approximate dual-processor simulator.
//! * [`net`] (`aon-net`) — simulated network substrate + netperf.
//! * [`server`] (`aon-server`) — the XML AON server application.
//! * [`obs`] (`aon-obs`) — software performance counters: metric
//!   registry, stage spans, request traces, Prometheus exposition.
//! * [`serve`] (`aon-serve`) — live TCP serving subsystem + load generator.
//! * [`core`] (`aon-core`) — platforms, experiments, metrics, reporting.

pub use aon_core as core;
pub use aon_net as net;
pub use aon_obs as obs;
pub use aon_serve as serve;
pub use aon_server as server;
pub use aon_sim as sim;
pub use aon_trace as trace;
pub use aon_xml as xml;
