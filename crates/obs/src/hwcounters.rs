//! Hardware-counter stage attribution for the live pipeline.
//!
//! The paper's characterization is *per use case, per phase*: Table 4's
//! CPI and Figure 4's L2 misses are read from the PMU while a specific
//! workload runs. [`RichStages`] is the live-path equivalent of that
//! measurement discipline — a [`StageRecorder`] that, at every stage
//! boundary, snapshots a per-thread `aon-hw` counter group alongside the
//! wall clock, so each parse/xpath/validate/dpi/crypto/write span
//! carries cycle, instruction, and cache-miss deltas.
//!
//! Cost discipline: the perf group uses `PERF_FORMAT_GROUP`, so a
//! snapshot is one `read(2)`; and the recorder caches the end-of-stage
//! snapshot as the next stage's start ([`RichStages`] keeps a `pending`
//! boundary), so a request with N stages costs ~N+1 reads, not 2N. When
//! the group is absent (PMU unavailable, counters disabled) the recorder
//! skips the reads entirely and degrades to wall-clock-plus-trace.
//!
//! The same recorder carries the request's trace spans (see
//! [`crate::reqtrace`]): one allocation-light `Vec<TraceEvent>` whose
//! root is closed by [`RichStages::finish_trace`].

use crate::reqtrace::{self, TraceEvent};
use crate::stage::{Stage, StageRecorder, WallStages, STAGE_COUNT};
use aon_hw::{HwGroup, HwSnapshot};
use std::time::Instant;

/// Per-stage accumulated hardware-counter deltas (the PMU analogue of
/// [`WallStages`]). A stage entered twice accumulates both spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct HwStageSet {
    /// Accumulated event deltas per [`Stage::index`].
    pub stages: [HwSnapshot; STAGE_COUNT],
}

impl HwStageSet {
    /// A zeroed set.
    pub fn new() -> HwStageSet {
        HwStageSet::default()
    }

    /// Accumulate `delta` into `stage` (saturating, per event).
    pub fn add(&mut self, stage: Stage, delta: &HwSnapshot) {
        self.stages[stage.index()].accumulate(delta);
    }

    /// The accumulated deltas for `stage`.
    pub fn get(&self, stage: Stage) -> &HwSnapshot {
        &self.stages[stage.index()]
    }

    /// Sum across all stages (saturating, per event).
    pub fn total(&self) -> HwSnapshot {
        let mut out = HwSnapshot::default();
        for s in &self.stages {
            out.accumulate(s);
        }
        out
    }

    /// True when every stage's every event is zero (noop backend, or no
    /// stage ran).
    pub fn is_zero(&self) -> bool {
        self.stages.iter().all(HwSnapshot::is_zero)
    }
}

/// The composite per-request recorder: wall-clock spans (always),
/// hardware-counter deltas (when a live group is supplied), and trace
/// span events (when tracing is on) — one recorder, one `time()` call
/// per stage, so the engine stays generic over plain [`StageRecorder`].
#[derive(Debug)]
pub struct RichStages<'g> {
    /// Service-start origin every span offset is measured from.
    origin: Instant,
    wall: WallStages,
    group: Option<&'g HwGroup>,
    hw: HwStageSet,
    /// End-of-stage snapshot reused as the next stage's start, saving
    /// one group read per boundary.
    pending: Option<HwSnapshot>,
    /// Trace spans (root placeholder at index 0) when tracing is on.
    spans: Option<Vec<TraceEvent>>,
}

impl<'g> RichStages<'g> {
    /// A recorder whose origin is *now*. Pass `group` only when it is
    /// active (callers should map a noop group to `None` so the hot path
    /// skips the reads); `tracing` turns span collection on.
    pub fn new(group: Option<&'g HwGroup>, tracing: bool) -> RichStages<'g> {
        let group = group.filter(|g| g.active());
        RichStages {
            origin: Instant::now(),
            wall: WallStages::new(),
            group,
            hw: HwStageSet::new(),
            pending: None,
            spans: tracing.then(reqtrace::new_spans),
        }
    }

    /// Nanoseconds elapsed since the recorder's origin.
    pub fn offset_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The wall-clock stage table (same shape the software-only path
    /// produces).
    pub fn wall(&self) -> &WallStages {
        &self.wall
    }

    /// The hardware-counter stage table (all zeros without a group).
    pub fn hw(&self) -> &HwStageSet {
        &self.hw
    }

    /// True when this recorder is reading a live counter group.
    pub fn hw_active(&self) -> bool {
        self.group.is_some()
    }

    /// True when this recorder is collecting trace spans.
    pub fn tracing(&self) -> bool {
        self.spans.is_some()
    }

    fn hw_begin(&mut self) -> Option<HwSnapshot> {
        let group = self.group?;
        Some(self.pending.take().unwrap_or_else(|| group.read_now()))
    }

    fn hw_end(&mut self, stage: Stage, start: Option<HwSnapshot>) {
        let (Some(group), Some(start)) = (self.group, start) else {
            return;
        };
        let end = group.read_now();
        self.hw.add(stage, &end.delta_since(&start));
        self.pending = Some(end);
    }

    fn push_span(&mut self, label: &'static str, start_ns: u64, dur_ns: u64) {
        if let Some(spans) = self.spans.as_mut() {
            spans.push(TraceEvent { label, start_ns, dur_ns, parent: Some(0) });
        }
    }

    /// Record a zero-duration point event (`"governor_shed"`, the marker
    /// of an FR-only refusal) at the current offset.
    pub fn note_point(&mut self, label: &'static str) {
        let at = self.offset_ns();
        self.push_span(label, at, 0);
    }

    /// Close the root span with the request's total service time and
    /// hand the span tree to the tracer. Returns `None` when tracing is
    /// off. The recorder is spent afterwards (further spans are lost),
    /// matching its one-request lifetime.
    pub fn finish_trace(&mut self, total_ns: u64) -> Option<Vec<TraceEvent>> {
        let mut spans = self.spans.take()?;
        reqtrace::finish_spans(&mut spans, total_ns);
        Some(spans)
    }
}

impl StageRecorder for RichStages<'_> {
    fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let hw_start = self.hw_begin();
        // Two clock reads per stage, like the plain WallStages recorder:
        // both the wall duration and the span window derive from origin
        // offsets, so the span view never needs a third read.
        let span_start = self.offset_ns();
        let out = f();
        let ns = self.offset_ns().saturating_sub(span_start);
        self.hw_end(stage, hw_start);
        self.wall.add(stage, ns);
        self.push_span(stage.label(), span_start, ns);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reqtrace::{ParsedTrace, TraceClass, TraceRecord};

    #[test]
    fn stage_set_accumulates_and_totals_per_event() {
        let mut set = HwStageSet::new();
        assert!(set.is_zero());
        let mut d = HwSnapshot::default();
        d.values[0] = 100;
        d.values[2] = 7;
        set.add(Stage::Parse, &d);
        set.add(Stage::Parse, &d);
        set.add(Stage::Write, &d);
        assert_eq!(set.get(Stage::Parse).values[0], 200);
        assert_eq!(set.get(Stage::Write).values[2], 7);
        assert_eq!(set.total().values[0], 300);
        assert_eq!(set.total().values[2], 21);
        assert!(!set.is_zero());
    }

    #[test]
    fn recorder_without_group_still_times_and_traces() {
        let mut r = RichStages::new(None, true);
        assert!(!r.hw_active());
        assert!(r.tracing());
        let v = r.time(Stage::Parse, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            7
        });
        assert_eq!(v, 7);
        r.note_point("governor_shed");
        assert!(r.wall().get(Stage::Parse) >= 500_000);
        assert!(r.hw().is_zero(), "no group, no counters");
        let total = r.offset_ns();
        let spans = r.finish_trace(total).expect("tracing on");
        let labels: Vec<&str> = spans.iter().map(|s| s.label).collect();
        assert_eq!(labels, vec!["request", "parse", "governor_shed"]);
        assert_eq!(spans[0].dur_ns, total);
        assert!(spans[1].start_ns <= total && spans[1].dur_ns <= total);
        assert_eq!(spans[2].dur_ns, 0, "point events have zero duration");
        // The span list forms a complete tree when wrapped in a record.
        let rec = TraceRecord {
            id: 0,
            use_case: "FR",
            status: 200,
            class: TraceClass::Sampled,
            total_ns: total,
            spans,
        };
        let parsed = ParsedTrace::parse_jsonl(&rec.to_json()).expect("parses");
        parsed[0].tree_complete().expect("complete tree");
    }

    #[test]
    fn recorder_with_tracing_off_allocates_no_spans() {
        let mut r = RichStages::new(None, false);
        r.note_point("governor_shed");
        r.time(Stage::Crypto, || {});
        assert!(r.finish_trace(1).is_none());
    }

    #[test]
    fn noop_group_is_filtered_to_none() {
        let group = HwGroup::noop("test".to_string());
        let r = RichStages::new(Some(&group), false);
        assert!(!r.hw_active(), "inactive groups must not be polled");
    }

    #[test]
    fn live_group_attributes_counts_to_stages_when_available() {
        let group = HwGroup::open_for_thread();
        if !group.active() {
            eprintln!("skipping: {}", group.probe().reason);
            return;
        }
        let mut r = RichStages::new(Some(&group), false);
        let sum = r.time(Stage::Parse, || (0..50_000u64).fold(0u64, |a, b| a.wrapping_add(b * b)));
        assert!(sum > 0);
        assert!(
            !r.hw().get(Stage::Parse).is_zero(),
            "a live group must attribute nonzero counts to the stage"
        );
        assert!(r.hw().get(Stage::XPath).is_zero());
    }
}
