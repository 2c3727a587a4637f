//! # aon-net — simulated network substrate
//!
//! Everything between the wire and the application for the AON
//! reproduction:
//!
//! * [`link`] — Gigabit Ethernet rate constants and conversions into the
//!   simulator's cycle-denominated drain/fill rates.
//! * [`tcpcost`] — instrumented TCP/IP stack work: per-segment header
//!   processing, checksum+copy loops between user and kernel buffers.
//!   These are recorded as [`aon_trace::Trace`]s with realistic buffer
//!   addresses, so the network stack's streaming memory behaviour (no
//!   temporal reuse, §5.3 of the paper) is emergent.
//! * [`netperf`] — the paper's baseline workload (§3.2.2): the TCP_STREAM
//!   bulk transfer benchmark in **end-to-end** mode (sender → NIC DMA →
//!   gigabit link) and **loopback** mode (producer and consumer threads
//!   sharing a kernel socket buffer — the extreme CPU/memory-intensive
//!   case).
//!
//! Plus the substrate of the **live** serving path (`aon-serve`), which
//! moves real bytes instead of modeled ones:
//!
//! * [`wire`] — blocking HTTP/1.1 message framing over real sockets, with
//!   hard head/body limits and per-message deadlines;
//! * [`acceptq`] — a bounded hand-off queue the server no longer uses
//!   (its workers block in `accept(2)`); kept for the repo benchmark's
//!   `net.acceptq.*` kernels.

pub mod acceptq;
pub mod link;
pub mod netperf;
pub mod tcpcost;
pub mod wire;

pub use netperf::{build_netperf_e2e, build_netperf_loopback, record_netperf, NetperfRecording};
