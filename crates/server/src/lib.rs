//! # aon-server — the XML AON server application
//!
//! The paper's custom experimental server (§3.2.1): a multithreaded HTTP
//! proxy with two layers of functionality — base-level HTTP message
//! proxying, and XML functions (XPath evaluation, schema validation)
//! applied to message content arriving via HTTP POST. Three use cases:
//!
//! * **FR** (HTTP Forward Request) — proxy the message to the default
//!   endpoint; no content processing. Network-I/O-intensive extreme.
//! * **CBR** (Content Based Routing) — parse the SOAP message, evaluate
//!   `//quantity/text()`, route on the match. Mixed CPU/network.
//! * **SV** (Schema Validation) — validate against the pre-stored XSD,
//!   route valid messages to the destination, invalid ones to the error
//!   endpoint. CPU-intensive extreme.
//!
//! Modules:
//!
//! * [`http`] — instrumented HTTP/1.1 request parsing & response building;
//! * [`overhead`] — per-request kernel/connection work (TCP handshake,
//!   socket slab churn, fd table and endpoint lookups) whose scattered
//!   kernel-memory traffic gives the network-I/O-heavy use cases their
//!   measured cache profile;
//! * [`corpus`] — seeded generation of AONBench-style 5 KB SOAP
//!   purchase-order messages and the validation schema;
//! * [`usecase`] — records the per-message compute trace of each use case
//!   by running the real engines (HTTP parser, `aon-xml` parser/XPath/
//!   schema validator, TCP transmit path) under a tracer;
//! * [`engine`] — the same engines behind pre-compiled, fallible entry
//!   points usable **without a tracer** (the live `aon-serve` path);
//! * [`app`] — wires worker threads (one per logical CPU, as the paper's
//!   server sizes its POSIX thread pool), the ingress listen queue and the
//!   egress NIC queue onto a simulated machine;
//! * [`dpi`], [`crypto`] — the paper's §6 future work (deep packet
//!   inspection signatures and WS-Security-style HMAC-SHA1), implemented
//!   as two additional use cases beyond the paper's three.

pub mod app;
pub mod corpus;
pub mod crypto;
pub mod dpi;
pub mod engine;
pub mod http;
pub mod overhead;
pub mod rng;
pub mod usecase;

pub use app::{build_server, record_server, ServerRecording};
pub use corpus::Corpus;
pub use engine::{Engine, EngineError, ParseMode};
pub use usecase::UseCase;
