//! # aon-xml — instrumented XML substrate
//!
//! A real, self-contained XML processing stack — tokenizer, pull parser,
//! arena DOM, XPath 1.0 subset, and XSD schema-validation subset — built for
//! the AON reproduction. It serves double duty:
//!
//! 1. **As an ordinary library.** All entry points are generic over
//!    `P: Probe` ([`aon_trace::Probe`]); pass [`aon_trace::NullProbe`] and
//!    the instrumentation compiles away, leaving a usable (if deliberately
//!    2006-era-styled) XML engine. The Criterion benches measure it this
//!    way.
//! 2. **As a workload generator.** Pass an [`aon_trace::Tracer`] and every
//!    byte examined, DOM node built, schema rule checked and branch decided
//!    is recorded as an abstract-op trace with realistic addresses — the
//!    instruction stream the `aon-sim` processor models execute.
//!
//! The three paper use cases map onto this crate as:
//!
//! * **FR** — no XML work (HTTP proxying only; see `aon-server`).
//! * **CBR** — [`parser`] + [`dom`] + [`xpath`] evaluation of
//!   `//quantity/text()` (paper §3.2.1).
//! * **SV** — [`parser`] + [`dom`] + [`schema`] validation against a
//!   pre-stored XSD.
//!
//! Design constraints carried over from the paper's workload description
//! (§3.2): computation is character/string manipulation — copying,
//! concatenation, parsing, tokenization, matching — with no floating point;
//! it exercises logical ops, caches, and branch prediction.

// The DOM (`dom.rs`) is a u32-indexed arena (half the footprint of usize
// ids on the modelled 64-bit hosts), so offsets, node ids and spans narrow
// from `usize` throughout this crate. Inputs are network messages a few
// KiB long — nowhere near 2^32 — and `dom.rs`'s node and string vectors
// fail allocation before any id could wrap, so these narrowing casts are
// structural, not bugs.
#![expect(
    clippy::cast_possible_truncation,
    reason = "the DOM is a u32-indexed arena: offsets, node ids and spans narrow from usize"
)]

pub mod dom;
pub mod error;
pub mod events;
pub mod input;
pub mod lexer;
pub mod parser;
pub mod samples;
pub mod scan;
pub mod schema;
pub mod serialize;
pub mod soap;
pub mod utf8;
pub mod xpath;

/// The well-formedness check under the name the repo benchmark's
/// `xml.parse` kernel calls it by (`benchmark/` is frozen while a change
/// claims a gain); it is [`events::well_formed`] and builds nothing.
pub mod lazy {
    pub use crate::events::well_formed as parse_document_lazy;
}

pub use dom::{Document, NodeId, NodeKind};
pub use error::{XmlError, XmlErrorKind, XmlResult};
pub use input::TBuf;
pub use parser::parse_document;
pub use schema::{Schema, Validity};
pub use xpath::{XPath, XPathValue};
