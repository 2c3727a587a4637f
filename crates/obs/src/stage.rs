//! Span-based stage timing for the content-processing pipeline.
//!
//! The paper decomposes AON service time by *phase* — TCP termination,
//! XML parse, XPath evaluation, schema validation, and the §6 extensions
//! — to explain where each use case spends its cycles. This module is the
//! live-path equivalent: the engine wraps each pipeline phase in a
//! [`StageRecorder::time`] span, and the serving layer aggregates the
//! recorded wall time into per-(use case × stage) histograms.
//!
//! Two recorders exist. [`NoopStages`] makes the spans free when
//! observability is off: its `time` is a direct call with **no clock
//! reads**, so the monomorphized pipeline is byte-for-byte the untimed
//! one. [`crate::record::Recorder`] is the timed one: it reads the clock
//! once per stage edge and fills the request's wall-time table (among the
//! other views of the request it keeps).

#![deny(clippy::as_conversions)]

/// The pipeline phases a request can pass through, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// UTF-8 validation + XML parse. On the fast path (the one the server
    /// runs) this is the whole fused event pass: tokenising *and* the XPath
    /// or schema executor running inside it; no tree is built.
    Parse,
    /// XPath evaluation over the parsed document (CBR). On the fast path a
    /// placeholder: the matcher ran under [`Stage::Parse`], and this cell
    /// times only reading its verdict (a few dozen ns, no information).
    XPath,
    /// SOAP payload location + schema validation (SV). On the fast path a
    /// placeholder, as [`Stage::XPath`] is.
    Validate,
    /// Signature scan over the raw message (DPI).
    Dpi,
    /// HMAC-SHA1 authentication (CRYPTO).
    Crypto,
    /// Response serialization + socket write (serving layer).
    Write,
}

/// Number of stages (array dimension for per-stage tables).
pub const STAGE_COUNT: usize = 6;

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] =
        [Stage::Parse, Stage::XPath, Stage::Validate, Stage::Dpi, Stage::Crypto, Stage::Write];

    /// Stable label (Prometheus label value, JSON key).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::XPath => "xpath",
            Stage::Validate => "validate",
            Stage::Dpi => "dpi",
            Stage::Crypto => "crypto",
            Stage::Write => "write",
        }
    }

    /// Dense index in `0..STAGE_COUNT` (for array-backed tables).
    pub fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::XPath => 1,
            Stage::Validate => 2,
            Stage::Dpi => 3,
            Stage::Crypto => 4,
            Stage::Write => 5,
        }
    }
}

/// Something that can time a pipeline phase. The engine is generic over
/// this, so the no-op instantiation compiles to the bare pipeline.
pub trait StageRecorder {
    /// Run `f` as the body of `stage`, recording however this recorder
    /// records.
    fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T;
}

/// The free recorder: no clock reads, no stores; `time` is a direct call.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopStages;

impl StageRecorder for NoopStages {
    fn time<T>(&mut self, _stage: Stage, f: impl FnOnce() -> T) -> T {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_have_dense_unique_indices_and_labels() {
        let mut seen = [false; STAGE_COUNT];
        for s in Stage::ALL {
            assert!(!seen[s.index()], "index collision at {:?}", s);
            seen[s.index()] = true;
            assert!(!s.label().is_empty());
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn noop_recorder_passes_values_through() {
        let mut n = NoopStages;
        assert_eq!(n.time(Stage::Crypto, || "ok"), "ok");
    }
}
