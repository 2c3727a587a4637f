//! Span-based stage timing for the content-processing pipeline.
//!
//! The paper decomposes AON service time by *phase* — TCP termination,
//! XML parse, XPath evaluation, schema validation, and the §6 extensions
//! — to explain where each use case spends its cycles. This module is the
//! live-path equivalent: the engine wraps each pipeline phase in a
//! [`StageRecorder::time`] span, and the serving layer aggregates the
//! recorded wall time into per-(use case × stage) histograms.
//!
//! [`NoopStages`] makes the spans free when observability is off: its
//! `time` is a direct call with **no clock reads**, so the monomorphized
//! pipeline is byte-for-byte the untimed one.

use std::time::Instant;

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

/// Wall-clock recorder: accumulates nanoseconds per stage across the
/// request (a stage entered twice accumulates both spans).
#[derive(Debug, Default, Clone, Copy)]
pub struct WallStages {
    /// Accumulated nanoseconds per [`Stage::index`].
    pub ns: [u64; STAGE_COUNT],
}

impl WallStages {
    /// A zeroed recorder.
    pub fn new() -> WallStages {
        WallStages::default()
    }

    /// Nanoseconds accumulated for `stage`.
    pub fn get(&self, stage: Stage) -> u64 {
        self.ns[stage.index()]
    }

    /// Add `ns` to `stage` directly (for spans timed outside `time`,
    /// e.g. around a socket write that needs `&mut` state the closure
    /// cannot capture).
    pub fn add(&mut self, stage: Stage, ns: u64) {
        self.ns[stage.index()] = self.ns[stage.index()].saturating_add(ns);
    }

    /// Total nanoseconds across all stages.
    pub fn total(&self) -> u64 {
        self.ns.iter().fold(0u64, |acc, &v| acc.saturating_add(v))
    }
}

impl StageRecorder for WallStages {
    fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.add(stage, ns);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_labels_and_indices_are_dense_and_unique() {
        let mut seen = [false; STAGE_COUNT];
        for s in Stage::ALL {
            assert!(!seen[s.index()], "index collision at {:?}", s);
            seen[s.index()] = true;
            assert!(!s.label().is_empty());
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn wall_recorder_accumulates_spans() {
        let mut w = WallStages::new();
        let v = w.time(Stage::Parse, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        assert_eq!(v, 42);
        assert!(
            w.get(Stage::Parse) >= 1_000_000,
            "span must be >= 1ms, got {}",
            w.get(Stage::Parse)
        );
        assert_eq!(w.get(Stage::XPath), 0);
        let before = w.get(Stage::Parse);
        w.time(Stage::Parse, || {});
        assert!(w.get(Stage::Parse) >= before, "re-entered stage accumulates");
        assert_eq!(w.total(), w.ns.iter().sum::<u64>());
    }

    #[test]
    fn noop_recorder_passes_values_through() {
        let mut n = NoopStages;
        assert_eq!(n.time(Stage::Crypto, || "ok"), "ok");
    }
}
