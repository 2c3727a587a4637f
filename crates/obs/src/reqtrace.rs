//! Per-request tracing with tail-based sampling.
//!
//! The software counters (metric families, histograms) answer *how much*;
//! a trace answers *where inside one request the time went*. Each traced
//! request carries a 64-bit id and a span tree — every pipeline stage
//! and the response write — with nanosecond offsets
//! from the request's service origin. Traces land in a bounded ring
//! dumped by the `GET /trace.jsonl` admin endpoint and reconstructed by
//! `aon-report trace`. The spans themselves are collected by the
//! per-request [`crate::record::Recorder`], inline and without
//! allocating; they become a `Vec` only for a trace the sampler keeps.
//!
//! **Tail-based sampling.** The retention decision is made at the *end*
//! of the request, when its fate is known:
//!
//! * slow (service time over 250 ms) and errored requests are **always**
//!   kept;
//! * everything else is reservoir-sampled at a configurable rate with a
//!   **deterministic** per-id decision ([`sample_decision`]) under a
//!   fixed seed, so every run keeps the same subset of request ids.
//!
//! **Bounded, keep-class-preferring ring.** The ring never exceeds its
//! capacity; under pressure it evicts the oldest *sampled* trace first
//! and touches always-keep traces only when sampled ones are exhausted.
//! Evictions are counted per class, so "100% of slow/error traces
//! retained" is a checkable claim (`dropped_keep == 0`), not a hope. The
//! tracer registers and owns those counts — `aon_trace_kept_total{class}`
//! and `aon_trace_dropped_total{kind}` are the only copy.
//!
//! This file is on the `aon-audit` cast- and doc-enforced lists.

use crate::metric::Counter;
use crate::registry::Registry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One span within a trace. `start_ns` is the offset from the trace
/// origin (first byte of the request frame consumed — i.e. service
/// start); the root span has `parent == None`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span label: `"request"` (root) or a stage label.
    pub label: &'static str,
    /// Offset from the trace origin, nanoseconds.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the parent span within the record, `None` for the root.
    pub parent: Option<u32>,
}

/// Why a finished trace was retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClass {
    /// Service time exceeded the slow budget.
    Slow,
    /// The engine (or request parsing) reported an error.
    Error,
    /// Unremarkable request kept by the reservoir sampler.
    Sampled,
}

impl TraceClass {
    /// Every class, in index order.
    pub const ALL: [TraceClass; 3] = [TraceClass::Slow, TraceClass::Error, TraceClass::Sampled];

    /// Stable label (JSON value, Prometheus label).
    pub fn label(self) -> &'static str {
        match self {
            TraceClass::Slow => "slow",
            TraceClass::Error => "error",
            TraceClass::Sampled => "sampled",
        }
    }

    /// Dense index in `0..3`.
    pub fn index(self) -> usize {
        match self {
            TraceClass::Slow => 0,
            TraceClass::Error => 1,
            TraceClass::Sampled => 2,
        }
    }

    /// Inverse of [`TraceClass::label`].
    pub fn from_label(s: &str) -> Option<TraceClass> {
        TraceClass::ALL.into_iter().find(|c| c.label() == s)
    }

    /// True for the always-keep classes (everything but `Sampled`).
    pub fn always_keep(self) -> bool {
        !matches!(self, TraceClass::Sampled)
    }
}

/// A finished, classified request trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The request's trace id (unique per server lifetime).
    pub id: u64,
    /// Use-case label (`"FR"`, …) or `"-"` off the engine path.
    pub use_case: &'static str,
    /// HTTP status answered.
    pub status: u16,
    /// Why this trace was retained.
    pub class: TraceClass,
    /// End-to-end service nanoseconds (the root span's duration).
    pub total_ns: u64,
    /// The span tree; index 0 is the root `"request"` span.
    pub spans: Vec<TraceEvent>,
}

impl TraceRecord {
    /// Render as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160 + self.spans.len() * 64);
        s.push_str(&format!(
            "{{\"id\":{},\"use_case\":\"{}\",\"status\":{},\"class\":\"{}\",\"total_ns\":{},\"spans\":[",
            self.id,
            self.use_case,
            self.status,
            self.class.label(),
            self.total_ns
        ));
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or(-1i64, i64::from);
            s.push_str(&format!(
                "{{\"label\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"parent\":{}}}",
                sp.label, sp.start_ns, sp.dur_ns, parent
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Tracing configuration (a [`crate::reqtrace::Tracer`]'s knobs).
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Master switch; off means no ids, no ring, a 404 `/trace.jsonl`.
    pub enabled: bool,
    /// Ring capacity in retained traces (keep + sampled together).
    pub capacity: usize,
    /// Reservoir rate for unremarkable requests, in parts per million
    /// (10_000 = 1%). Slow and error traces ignore this.
    pub sample_per_million: u32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { enabled: true, capacity: 512, sample_per_million: 10_000 }
    }
}

/// Seed of the sampling decision. Fixed, like the corpus seed, so the
/// same request ids keep the same sampled subset on every run.
const SEED: u64 = 42;

/// Service time over which a trace is always kept. 250 ms is far outside
/// what this server spends serving a request — the worst window p99
/// DESIGN.md §15 measured is 67 ms, with 16 workers on 2 CPUs — so a
/// slow trace marks a host stall or a pathology, not load.
const SLOW_BUDGET_NS: u64 = 250_000_000;

/// SplitMix64 output function over `seed ⊕ φ·id` — the same generator
/// the corpus and the schedule-stress harness use. One evaluation per
/// request; no state, so the decision for (seed, id) never depends on
/// traffic interleaving.
pub fn sample_decision(seed: u64, id: u64, per_million: u32) -> bool {
    if per_million == 0 {
        return false;
    }
    if per_million >= 1_000_000 {
        return true;
    }
    let mut z = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % 1_000_000) < u64::from(per_million)
}

struct Ring {
    /// Always-keep traces (slow/error), oldest first.
    keep: VecDeque<TraceRecord>,
    /// Reservoir-sampled traces, oldest first — evicted first.
    sampled: VecDeque<TraceRecord>,
}

/// The tracing engine: id generation, tail classification, and the
/// bounded keep-preferring ring.
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    // audit:role(seqgen): unique trace ids; Relaxed fetch_add suffices —
    // only uniqueness matters, retention order comes from the ring
    ids: AtomicU64,
    // audit:role(queue): retained traces; the mutex orders all access
    ring: Mutex<Ring>,
    /// `aon_trace_kept_total{class}`, per [`TraceClass::index`].
    kept: [Arc<Counter>; 3],
    /// `aon_trace_dropped_total{kind="sampled"}`: expected under pressure.
    dropped_sampled: Arc<Counter>,
    /// `aon_trace_dropped_total{kind="keep"}`: nonzero means the
    /// 100%-retention guarantee was breached by sizing.
    dropped_keep: Arc<Counter>,
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("keep", &self.keep.len())
            .field("sampled", &self.sampled.len())
            .finish()
    }
}

impl Tracer {
    /// A tracer with `cfg`, its outcome families registered in
    /// `registry`.
    pub fn new(cfg: TraceConfig, registry: &Registry) -> Tracer {
        assert!(cfg.capacity > 0, "a zero-capacity trace ring retains nothing");
        let dropped = |kind| {
            registry.counter(
                "aon_trace_dropped_total",
                "Traces evicted from the trace ring, by kind",
                &[("kind", kind)],
            )
        };
        Tracer {
            cfg,
            ids: AtomicU64::new(0),
            ring: Mutex::new(Ring { keep: VecDeque::new(), sampled: VecDeque::new() }),
            kept: std::array::from_fn(|i| {
                registry.counter(
                    "aon_trace_kept_total",
                    "Traces retained by the tail sampler, by retention class",
                    &[("class", TraceClass::ALL[i].label())],
                )
            }),
            dropped_sampled: dropped("sampled"),
            dropped_keep: dropped("keep"),
        }
    }

    /// A fresh trace id (unique for the tracer's lifetime).
    pub fn next_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Tail classification: the retention decision once a request's
    /// fate is known. `None` means discard (not sampled).
    pub fn classify(&self, id: u64, errored: bool, total_ns: u64) -> Option<TraceClass> {
        if errored {
            Some(TraceClass::Error)
        } else if total_ns > SLOW_BUDGET_NS {
            Some(TraceClass::Slow)
        } else if sample_decision(SEED, id, self.cfg.sample_per_million) {
            Some(TraceClass::Sampled)
        } else {
            None
        }
    }

    /// Store a classified trace, evicting (sampled-first) if at
    /// capacity. The record's `class` decides which deque it enters.
    pub fn store(&self, record: TraceRecord) {
        self.kept[record.class.index()].inc();
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        while ring.keep.len() + ring.sampled.len() >= self.cfg.capacity {
            if ring.sampled.pop_front().is_some() {
                self.dropped_sampled.inc();
            } else if ring.keep.pop_front().is_some() {
                self.dropped_keep.inc();
            } else {
                break; // capacity >= 1 makes this unreachable; stay safe
            }
        }
        if record.class.always_keep() {
            ring.keep.push_back(record);
        } else {
            ring.sampled.push_back(record);
        }
    }

    /// A request finished: draw its id, classify it and, if it is kept,
    /// store it. `spans` builds the span tree and runs for a kept trace
    /// only — a discarded one (the common case) costs one branch, no
    /// lock and no allocation. Returns the id of a kept trace, which
    /// `/trace.jsonl` can resolve from now on.
    pub fn finish(
        &self,
        use_case: &'static str,
        status: u16,
        errored: bool,
        total_ns: u64,
        spans: impl FnOnce() -> Vec<TraceEvent>,
    ) -> Option<u64> {
        let id = self.next_id();
        let class = self.classify(id, errored, total_ns)?;
        self.store(TraceRecord { id, use_case, status, class, total_ns, spans: spans() });
        Some(id)
    }

    /// Retained traces right now (keep + sampled).
    pub fn len(&self) -> usize {
        let ring = self.ring.lock().expect("trace ring poisoned");
        ring.keep.len() + ring.sampled.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sampled traces evicted so far.
    pub fn dropped_sampled(&self) -> u64 {
        self.dropped_sampled.get()
    }

    /// Always-keep traces evicted so far (0 ⇔ the retention guarantee
    /// held for this capacity).
    pub fn dropped_keep(&self) -> u64 {
        self.dropped_keep.get()
    }

    /// Copy out every retained trace, ordered by id.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        let mut all: Vec<TraceRecord> =
            ring.keep.iter().chain(ring.sampled.iter()).cloned().collect();
        drop(ring);
        all.sort_by_key(|r| r.id);
        all
    }

    /// Dump the retained traces as JSONL, id order, one per line.
    pub fn dump_jsonl(&self) -> String {
        let records = self.snapshot();
        let mut out = String::with_capacity(records.len() * 256);
        for r in &records {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }
}

/// A span parsed back out of `/trace.jsonl` (owned label — the reader
/// side of [`TraceEvent`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedSpan {
    /// Span label.
    pub label: String,
    /// Offset from the trace origin, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Parent span index, `None` for the root.
    pub parent: Option<u32>,
}

/// A trace parsed back out of `/trace.jsonl`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedTrace {
    /// Trace id.
    pub id: u64,
    /// Use-case label.
    pub use_case: String,
    /// HTTP status.
    pub status: u16,
    /// Retention class.
    pub class: TraceClass,
    /// Root duration, nanoseconds.
    pub total_ns: u64,
    /// The span tree.
    pub spans: Vec<ParsedSpan>,
}

impl ParsedTrace {
    /// Parse one JSONL dump (the exact shape [`TraceRecord::to_json`]
    /// writes). Strict by design: an unrecognized shape is an error, not
    /// a silently skipped line.
    pub fn parse_jsonl(text: &str) -> Result<Vec<ParsedTrace>, String> {
        text.lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .map(|(i, l)| Self::parse_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
            .collect()
    }

    fn parse_line(line: &str) -> Result<ParsedTrace, String> {
        let mut p = Scan { s: line.as_bytes(), at: 0 };
        p.expect(b'{')?;
        let id = p.field_u64("id")?;
        p.expect(b',')?;
        let use_case = p.field_str("use_case")?;
        p.expect(b',')?;
        let status = u16::try_from(p.field_u64("status")?).map_err(|_| "status range")?;
        p.expect(b',')?;
        let class_label = p.field_str("class")?;
        let class =
            TraceClass::from_label(&class_label).ok_or_else(|| format!("class {class_label:?}"))?;
        p.expect(b',')?;
        let total_ns = p.field_u64("total_ns")?;
        p.expect(b',')?;
        p.key("spans")?;
        p.expect(b'[')?;
        let mut spans = Vec::new();
        if p.peek() == Some(b']') {
            p.expect(b']')?;
        } else {
            loop {
                p.expect(b'{')?;
                let label = p.field_str("label")?;
                p.expect(b',')?;
                let start_ns = p.field_u64("start_ns")?;
                p.expect(b',')?;
                let dur_ns = p.field_u64("dur_ns")?;
                p.expect(b',')?;
                let parent = p.field_i64("parent")?;
                p.expect(b'}')?;
                let parent = if parent < 0 {
                    None
                } else {
                    Some(u32::try_from(parent).map_err(|_| "parent range")?)
                };
                spans.push(ParsedSpan { label, start_ns, dur_ns, parent });
                match p.next_byte()? {
                    b',' => continue,
                    b']' => break,
                    other => return Err(format!("expected , or ] got {:?}", char::from(other))),
                }
            }
        }
        p.expect(b'}')?;
        if p.at != p.s.len() {
            return Err("trailing bytes".to_string());
        }
        Ok(ParsedTrace { id, use_case, status, class, total_ns, spans })
    }

    /// Structural check for the `trace_smoke` CI stage: exactly one root
    /// (index 0, labeled `request`, duration = `total_ns`), every parent
    /// reference resolves to an *earlier* span, and every span lies
    /// within the root window.
    pub fn tree_complete(&self) -> Result<(), String> {
        let Some(root) = self.spans.first() else {
            return Err("no spans".to_string());
        };
        if root.label != "request" || root.parent.is_some() {
            return Err(format!("span 0 is not the request root: {root:?}"));
        }
        if root.dur_ns != self.total_ns {
            return Err(format!("root dur {} != total_ns {}", root.dur_ns, self.total_ns));
        }
        for (i, sp) in self.spans.iter().enumerate().skip(1) {
            match sp.parent {
                None => return Err(format!("span {i} ({}) is a second root", sp.label)),
                Some(pidx) if usize::try_from(pidx).is_ok_and(|p| p < i) => {}
                Some(pidx) => return Err(format!("span {i} parent {pidx} not earlier")),
            }
            if sp.start_ns.saturating_add(sp.dur_ns) > self.total_ns {
                return Err(format!(
                    "span {i} ({}) [{}, +{}] exceeds root window {}",
                    sp.label, sp.start_ns, sp.dur_ns, self.total_ns
                ));
            }
        }
        Ok(())
    }

    /// Nanoseconds spent in the span(s) labeled `label` (summed).
    pub fn span_ns(&self, label: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.label == label)
            .fold(0u64, |acc, s| acc.saturating_add(s.dur_ns))
    }

    /// Root time not attributed to any child span: read/dispatch
    /// overhead between stages.
    pub fn unattributed_ns(&self) -> u64 {
        let children: u64 =
            self.spans.iter().skip(1).fold(0u64, |acc, s| acc.saturating_add(s.dur_ns));
        self.total_ns.saturating_sub(children)
    }
}

/// Byte scanner for the canonical JSONL the writer emits (ASCII keys,
/// no escapes, no insignificant whitespace).
struct Scan<'a> {
    s: &'a [u8],
    at: usize,
}

impl Scan<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.at).copied()
    }

    fn next_byte(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or("unexpected end")?;
        self.at += 1;
        Ok(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        let got = self.next_byte()?;
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "at {}: expected {:?} got {:?}",
                self.at - 1,
                char::from(want),
                char::from(got)
            ))
        }
    }

    fn key(&mut self, name: &str) -> Result<(), String> {
        let quoted = format!("\"{name}\":");
        let end = self.at + quoted.len();
        if self.s.get(self.at..end) == Some(quoted.as_bytes()) {
            self.at = end;
            Ok(())
        } else {
            Err(format!("at {}: expected key {name:?}", self.at))
        }
    }

    fn parse_u64(&mut self) -> Result<u64, String> {
        let start = self.at;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        if self.at == start {
            return Err(format!("at {start}: expected number"));
        }
        std::str::from_utf8(&self.s[start..self.at])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("at {start}: bad number"))
    }

    fn field_u64(&mut self, name: &str) -> Result<u64, String> {
        self.key(name)?;
        self.parse_u64()
    }

    fn field_i64(&mut self, name: &str) -> Result<i64, String> {
        self.key(name)?;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.at += 1;
        }
        let raw = self.parse_u64()?;
        let v = i64::try_from(raw).map_err(|_| "i64 range")?;
        Ok(if negative { -v } else { v })
    }

    fn field_str(&mut self, name: &str) -> Result<String, String> {
        self.key(name)?;
        self.expect(b'"')?;
        let start = self.at;
        while self.peek().is_some_and(|b| b != b'"') {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.at])
            .map_err(|_| "non-utf8 string")?
            .to_string();
        self.expect(b'"')?;
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(total_ns: u64) -> TraceEvent {
        TraceEvent { label: "request", start_ns: 0, dur_ns: total_ns, parent: None }
    }

    fn spans(total_ns: u64) -> Vec<TraceEvent> {
        let parse = TraceEvent { label: "parse", start_ns: 10, dur_ns: 100, parent: Some(0) };
        vec![root(total_ns), parse]
    }

    fn record(id: u64, class: TraceClass, total_ns: u64) -> TraceRecord {
        TraceRecord { id, use_case: "FR", status: 200, class, total_ns, spans: spans(total_ns) }
    }

    fn tracer(cfg: TraceConfig) -> Tracer {
        Tracer::new(cfg, &Registry::new())
    }

    #[test]
    fn roundtrip_json_parse_equals_writer() {
        let child =
            |label, start_ns, dur_ns| TraceEvent { label, start_ns, dur_ns, parent: Some(0) };
        let spans = vec![root(2000), child("parse", 55, 1200), child("write", 1500, 300)];
        let rec = TraceRecord {
            id: 9,
            use_case: "CBR",
            status: 200,
            class: TraceClass::Sampled,
            total_ns: 2000,
            spans,
        };
        let parsed = ParsedTrace::parse_jsonl(&format!("{}\n", rec.to_json())).expect("parses");
        assert_eq!(parsed.len(), 1);
        let p = &parsed[0];
        assert_eq!((p.id, p.status, p.class), (9, 200, TraceClass::Sampled));
        assert_eq!(p.use_case, "CBR");
        assert_eq!(p.spans.len(), 3);
        assert_eq!(p.spans[0].label, "request");
        assert_eq!(p.spans[0].parent, None);
        assert_eq!(p.spans[1].label, "parse");
        assert_eq!(p.spans[1].parent, Some(0));
        p.tree_complete().expect("complete tree");
        assert_eq!(p.span_ns("write"), 300);
        assert_eq!(p.unattributed_ns(), 2000 - 1200 - 300);
    }

    #[test]
    fn malformed_lines_are_errors_not_skips() {
        assert!(ParsedTrace::parse_jsonl("{\"id\":1}").is_err());
        assert!(ParsedTrace::parse_jsonl("not json").is_err());
        let good = record(1, TraceClass::Slow, 99).to_json();
        assert!(ParsedTrace::parse_jsonl(&format!("{good}\ngarbage")).is_err());
    }

    #[test]
    fn tree_completeness_rejects_orphans_and_overflow() {
        let mut p = ParsedTrace {
            id: 1,
            use_case: "FR".to_string(),
            status: 200,
            class: TraceClass::Sampled,
            total_ns: 1000,
            spans: vec![
                ParsedSpan {
                    label: "request".to_string(),
                    start_ns: 0,
                    dur_ns: 1000,
                    parent: None,
                },
                ParsedSpan {
                    label: "parse".to_string(),
                    start_ns: 0,
                    dur_ns: 500,
                    parent: Some(0),
                },
            ],
        };
        p.tree_complete().expect("valid");
        p.spans[1].parent = Some(5);
        assert!(p.tree_complete().is_err(), "dangling parent");
        p.spans[1].parent = Some(0);
        p.spans[1].dur_ns = 2000;
        assert!(p.tree_complete().is_err(), "span exceeds root window");
        p.spans[1].dur_ns = 500;
        p.spans[0].dur_ns = 900;
        assert!(p.tree_complete().is_err(), "root dur must equal total_ns");
    }

    #[test]
    fn classification_priority_error_slow_sampled() {
        let t = tracer(TraceConfig { sample_per_million: 0, ..TraceConfig::default() });
        assert_eq!(t.classify(1, true, 250_000_001), Some(TraceClass::Error), "error wins");
        assert_eq!(t.classify(1, true, 10), Some(TraceClass::Error));
        assert_eq!(t.classify(1, false, 250_000_001), Some(TraceClass::Slow));
        assert_eq!(t.classify(1, false, 250_000_000), None, "at budget is not over budget");
        let all = tracer(TraceConfig { sample_per_million: 1_000_000, ..TraceConfig::default() });
        assert_eq!(all.classify(1, false, 10), Some(TraceClass::Sampled));
    }

    #[test]
    fn ring_evicts_sampled_before_keep_and_counts_both() {
        let registry = Registry::new();
        let t = Tracer::new(TraceConfig { capacity: 4, ..TraceConfig::default() }, &registry);
        // 2 sampled + 2 keep fills the ring.
        t.store(record(0, TraceClass::Sampled, 10));
        t.store(record(1, TraceClass::Slow, 10));
        t.store(record(2, TraceClass::Sampled, 10));
        t.store(record(3, TraceClass::Error, 10));
        assert_eq!(t.len(), 4);
        // Two more keeps: both evictions must hit the sampled traces.
        t.store(record(4, TraceClass::Error, 10));
        assert_eq!((t.dropped_sampled(), t.dropped_keep()), (1, 0));
        t.store(record(5, TraceClass::Slow, 10));
        assert_eq!((t.dropped_sampled(), t.dropped_keep()), (2, 0));
        let ids: Vec<u64> = t.snapshot().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 3, 4, 5], "every keep-class trace retained, id order");
        // Only with sampled exhausted does a keep eviction happen.
        t.store(record(6, TraceClass::Error, 10));
        assert_eq!((t.dropped_sampled(), t.dropped_keep()), (2, 1));
        // The tracer's counts are the registered series: one copy.
        let text = registry.render_prometheus();
        assert!(text.contains("aon_trace_kept_total{class=\"error\"} 3"), "{text}");
        assert!(text.contains("aon_trace_kept_total{class=\"sampled\"} 2"), "{text}");
        assert!(text.contains("aon_trace_dropped_total{kind=\"sampled\"} 2"), "{text}");
        assert!(text.contains("aon_trace_dropped_total{kind=\"keep\"} 1"), "{text}");
    }

    #[test]
    fn finish_discards_unsampled_without_touching_the_ring() {
        let t = tracer(TraceConfig { sample_per_million: 0, ..TraceConfig::default() });
        let kept =
            t.finish("FR", 200, false, 10, || unreachable!("a discarded trace builds no spans"));
        assert_eq!(kept, None);
        assert!(t.is_empty());
        // …but an errored request at the same settings is always kept,
        // under the id the tracer drew for it.
        let kept = t.finish("SV", 422, true, 10, || spans(10));
        assert_eq!(kept, Some(1));
        let retained = t.snapshot();
        assert_eq!(retained.len(), 1);
        assert_eq!((retained[0].id, retained[0].class), (1, TraceClass::Error));
    }

    #[test]
    fn sample_decision_is_deterministic_and_rate_bounded() {
        for id in 0..64u64 {
            assert_eq!(sample_decision(7, id, 10_000), sample_decision(7, id, 10_000));
            assert!(!sample_decision(7, id, 0));
            assert!(sample_decision(7, id, 1_000_000));
        }
        // ~1% rate over 100k ids lands within loose bounds.
        let hits = (0..100_000u64).filter(|&id| sample_decision(42, id, 10_000)).count();
        assert!((500..2_000).contains(&hits), "1% of 100k ≈ 1000, got {hits}");
        // Different seeds decorrelate.
        let a: Vec<bool> = (0..256).map(|id| sample_decision(1, id, 500_000)).collect();
        let b: Vec<bool> = (0..256).map(|id| sample_decision(2, id, 500_000)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn dump_jsonl_is_parseable_and_id_ordered() {
        let t = tracer(TraceConfig::default());
        t.store(record(5, TraceClass::Sampled, 10));
        t.store(record(2, TraceClass::Slow, 10));
        t.store(record(9, TraceClass::Error, 10));
        let parsed = ParsedTrace::parse_jsonl(&t.dump_jsonl()).expect("parses");
        let ids: Vec<u64> = parsed.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }
}
