//! The per-request recorder: one clock read per boundary, one record.
//!
//! The paper reads every number it reports — clockticks, instructions,
//! L2 misses, branches, per use case — from *one* instrument at one
//! point. [`Recorder`] is that instrument for the live server. A request
//! crosses a handful of boundaries (frame complete, each engine stage
//! edge, write start, write end); at each the recorder reads the clock
//! **once** and feeds that one timestamp to every consumer:
//!
//! * the wall-time-per-stage table behind the stage histograms;
//! * the span list behind `/trace.jsonl` — an inline fixed array, copied
//!   to a `Vec` ([`RequestRecord::trace_events`]) only for a trace the
//!   tail sampler keeps;
//! * the profiler's worker row: its current state *and* the exact
//!   (use case × state) nanoseconds of the span it leaves
//!   ([`WorkerSlots::publish`] takes the timestamp), so the in-service
//!   ledger and the service-time histogram are sums of the same
//!   differences;
//! * the hardware-counter table — the live analogue of the paper's
//!   per-use-case, per-phase PMU reads (Table 4's CPI, Figure 4's L2
//!   misses) — read beside the clock when the worker holds a live
//!   `aon-hw` group. The group uses `PERF_FORMAT_GROUP`, so a snapshot
//!   is one `read(2)`, and the end-of-stage snapshot is the next stage's
//!   start: a request with N stages costs ~N+1 reads, not 2N.
//!
//! At write end [`BoundaryRecorder::end`] closes the [`RequestRecord`]
//! and hands it to the caller, which fans it to the sinks off the
//! service clock. One recorder lives per worker and is reset per
//! request, so a request costs no allocation and no zeroing beyond the
//! tables it fills.
//!
//! The serve path is generic over [`BoundaryRecorder`] and runs exactly
//! two instantiations: [`Recorder`] with the planes on, and
//! [`NoopStages`], whose every hook is empty — no clock read, no store.
//!
//! This file is on the `aon-audit` cast-enforced list.

use crate::profiler::{WorkerSlots, WorkerState};
use crate::reqtrace::TraceEvent;
use crate::stage::{NoopStages, Stage, StageRecorder, STAGE_COUNT};
use aon_hw::{HwGroup, HwSnapshot};
use std::time::Instant;

/// Child spans a record holds inline. A request enters at most three
/// engine stages and the response write; a span past the cap is
/// dropped, never reallocated for.
const MAX_SPANS: usize = 7;

/// Everything one request left behind, closed at write end.
#[derive(Debug, Clone, Default)]
pub struct RequestRecord {
    /// Service time: frame complete to response written.
    pub total_ns: u64,
    /// Wall nanoseconds per [`Stage::index`]; a stage entered twice
    /// accumulates both spans.
    pub wall_ns: [u64; STAGE_COUNT],
    /// Hardware-counter deltas per [`Stage::index`]; `None` without a
    /// live group.
    pub hw: Option<[HwSnapshot; STAGE_COUNT]>,
    /// Child spans (offsets from frame complete); the root is implied.
    spans: [TraceEvent; MAX_SPANS],
    span_len: usize,
}

impl RequestRecord {
    /// The span tree as `/trace.jsonl` stores it: the root `"request"`
    /// span over the whole service time, then the children in the order
    /// they opened. Allocates — call it for a kept trace only.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut spans = Vec::with_capacity(1 + self.span_len);
        spans.push(TraceEvent {
            label: "request",
            start_ns: 0,
            dur_ns: self.total_ns,
            parent: None,
        });
        spans.extend_from_slice(&self.spans[..self.span_len]);
        spans
    }
}

/// What the serve path asks of its recorder besides the engine's
/// [`StageRecorder::time`]: the boundaries of a worker's life around and
/// inside a request. Every hook defaults to nothing, which is the whole
/// of the [`NoopStages`] instantiation.
pub trait BoundaryRecorder: StageRecorder {
    /// The worker changes state off the service clock (accept wait, read
    /// wait, exit, the end of an admin reply).
    fn wait(&mut self, _state: WorkerState) {}

    /// Frame complete: the service clock starts, and head parsing,
    /// routing and admission run on it attributed to `Parse`.
    fn begin(&mut self) {}

    /// The request routed to profiler context `ctx` (0 = none).
    fn route(&mut self, _ctx: usize) {}

    /// Write end: close the record at the last boundary read and leave
    /// the in-service states. `None` when nothing was recorded.
    fn end(&mut self) -> Option<&RequestRecord> {
        None
    }
}

impl BoundaryRecorder for NoopStages {}

/// The planes-on recorder of one worker; see the module docs.
#[derive(Debug)]
pub struct Recorder<'w> {
    /// Origin of every timestamp this recorder takes or publishes.
    epoch: Instant,
    /// The worker's profiler slot, when the profiler is on.
    slot: Option<(&'w WorkerSlots, usize)>,
    /// The worker's counter group, when it is live.
    group: Option<&'w HwGroup>,
    /// Whether spans are collected.
    tracing: bool,
    /// Profiler context of the request in hand.
    ctx: usize,
    /// Timestamp of the frame-complete boundary.
    start_ns: u64,
    /// Timestamp of the latest boundary.
    last_ns: u64,
    /// End-of-stage snapshot reused as the next stage's start, saving
    /// one group read per boundary.
    pending: Option<HwSnapshot>,
    record: RequestRecord,
}

impl<'w> Recorder<'w> {
    /// A recorder that times stages from `epoch` and, with `tracing`,
    /// collects spans; attach the other planes with
    /// [`Recorder::on_worker`] and [`Recorder::with_hw`].
    pub fn new(epoch: Instant, tracing: bool) -> Recorder<'w> {
        Recorder {
            epoch,
            slot: None,
            group: None,
            tracing,
            ctx: 0,
            start_ns: 0,
            last_ns: 0,
            pending: None,
            record: RequestRecord::default(),
        }
    }

    /// Publish this worker's states into `slots[worker]`. Every
    /// recorder publishing into one [`WorkerSlots`] must share an epoch.
    pub fn on_worker(mut self, slots: &'w WorkerSlots, worker: usize) -> Recorder<'w> {
        self.slot = Some((slots, worker));
        self
    }

    /// Read `group` at stage edges. An inactive group is dropped here,
    /// so the hot path never polls a noop backend.
    pub fn with_hw(mut self, group: &'w HwGroup) -> Recorder<'w> {
        self.group = Some(group).filter(|g| g.active());
        self
    }

    /// The record being filled (closed by [`BoundaryRecorder::end`]).
    pub fn record(&self) -> &RequestRecord {
        &self.record
    }

    /// The one clock read of a boundary.
    fn now(&mut self) -> u64 {
        self.last_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.last_ns
    }

    fn publish(&self, state: WorkerState, now_ns: u64) {
        if let Some((slots, worker)) = self.slot {
            slots.publish(worker, self.ctx, state, now_ns);
        }
    }

    fn span(&mut self, label: &'static str, at_ns: u64, dur_ns: u64) {
        if self.tracing && self.record.span_len < MAX_SPANS {
            let start_ns = at_ns.saturating_sub(self.start_ns);
            self.record.spans[self.record.span_len] =
                TraceEvent { label, start_ns, dur_ns, parent: Some(0) };
            self.record.span_len += 1;
        }
    }
}

impl StageRecorder for Recorder<'_> {
    fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let hw_start = self.group.map(|g| self.pending.take().unwrap_or_else(|| g.read_now()));
        let opened = self.now();
        self.publish(WorkerState::from_stage(stage), opened);
        let out = f();
        let ns = self.now().saturating_sub(opened);
        if let (Some(group), Some(start), Some(hw)) = (self.group, hw_start, &mut self.record.hw) {
            let end = group.read_now();
            hw[stage.index()].accumulate(&end.delta_since(&start));
            self.pending = Some(end);
        }
        let wall = &mut self.record.wall_ns[stage.index()];
        *wall = wall.saturating_add(ns);
        self.span(stage.label(), opened, ns);
        out
    }
}

impl BoundaryRecorder for Recorder<'_> {
    fn wait(&mut self, state: WorkerState) {
        self.ctx = 0;
        let now = self.now();
        self.publish(state, now);
    }

    fn begin(&mut self) {
        self.start_ns = self.now();
        self.ctx = 0;
        self.pending = None;
        self.record.wall_ns = [0; STAGE_COUNT];
        self.record.hw = self.group.map(|_| Default::default());
        self.record.span_len = 0;
        self.publish(WorkerState::Parse, self.start_ns);
    }

    fn route(&mut self, ctx: usize) {
        self.ctx = ctx;
    }

    fn end(&mut self) -> Option<&RequestRecord> {
        self.ctx = 0;
        self.publish(WorkerState::ReadWait, self.last_ns);
        self.record.total_ns = self.last_ns.saturating_sub(self.start_ns);
        Some(&self.record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reqtrace::{ParsedTrace, TraceClass, TraceRecord};
    use std::time::Duration;

    #[test]
    fn recorder_without_group_times_stages_and_collects_spans() {
        let mut r = Recorder::new(Instant::now(), true);
        r.begin();
        let v = r.time(Stage::Parse, || {
            std::thread::sleep(Duration::from_millis(1));
            7
        });
        assert_eq!(v, 7);
        let wall = |rec: &RequestRecord, stage: Stage| rec.wall_ns[stage.index()];
        let before = wall(r.record(), Stage::Parse);
        assert!(before >= 1_000_000, "span must be >= 1ms, got {before}");
        r.time(Stage::Parse, || {});
        r.time(Stage::Write, || {});
        let rec = r.end().expect("a planes-on recorder always has a record").clone();
        assert!(wall(&rec, Stage::Parse) >= before, "re-entered stage accumulates");
        assert_eq!(wall(&rec, Stage::XPath), 0);
        assert!(rec.hw.is_none(), "no group, no counters");
        assert!(rec.total_ns >= rec.wall_ns.iter().sum(), "stages lie inside the service time");

        let spans = rec.trace_events();
        let labels: Vec<&str> = spans.iter().map(|s| s.label).collect();
        assert_eq!(labels, ["request", "parse", "parse", "write"]);
        assert_eq!((spans[0].dur_ns, spans[0].parent), (rec.total_ns, None));
        // The write span closes at the read that closes the record.
        assert_eq!(spans[3].start_ns + spans[3].dur_ns, rec.total_ns);
        // The span list forms a complete tree when wrapped in a record.
        let trace = TraceRecord {
            id: 0,
            use_case: "FR",
            status: 200,
            class: TraceClass::Sampled,
            total_ns: rec.total_ns,
            spans,
        };
        let parsed = ParsedTrace::parse_jsonl(&trace.to_json()).expect("parses");
        parsed[0].tree_complete().expect("complete tree");
    }

    #[test]
    fn a_new_request_starts_from_an_empty_record() {
        let mut r = Recorder::new(Instant::now(), true);
        r.begin();
        r.time(Stage::Crypto, || {});
        r.time(Stage::Write, || {});
        r.end();
        r.begin();
        r.time(Stage::Write, || {});
        let rec = r.end().expect("record");
        assert_eq!(rec.wall_ns[Stage::Crypto.index()], 0, "the previous request's stages are gone");
        assert_eq!(rec.trace_events().len(), 2, "root and this request's write");
    }

    #[test]
    fn tracing_off_collects_no_spans_and_the_span_array_is_bounded() {
        let mut off = Recorder::new(Instant::now(), false);
        off.begin();
        off.time(Stage::Write, || {});
        assert_eq!(off.end().expect("record").trace_events().len(), 1, "the root alone");

        let mut on = Recorder::new(Instant::now(), true);
        on.begin();
        for _ in 0..MAX_SPANS + 3 {
            on.time(Stage::Dpi, || {});
        }
        assert_eq!(on.end().expect("record").trace_events().len(), 1 + MAX_SPANS);
    }

    #[test]
    fn one_timestamp_feeds_the_ledger_and_the_service_time() {
        let slots = WorkerSlots::new(1);
        let mut r = Recorder::new(Instant::now(), false).on_worker(&slots, 0);
        r.wait(WorkerState::ReadWait);
        let mut service_ns = 0;
        for ctx in [1, 2, 0] {
            r.begin();
            r.route(ctx);
            assert_eq!(slots.read(0), (0, WorkerState::Parse), "routing publishes nothing");
            r.time(Stage::Validate, || {
                assert_eq!(slots.read(0), (ctx, WorkerState::Validate));
            });
            r.time(Stage::Write, || assert_eq!(slots.read(0), (ctx, WorkerState::Write)));
            service_ns += r.end().expect("record").total_ns;
            assert_eq!(slots.read(0), (0, WorkerState::ReadWait));
        }
        r.wait(WorkerState::AcceptWait);
        assert!(service_ns > 0);
        assert_eq!(slots.in_service_ns_total(), service_ns, "the same differences, summed");
        assert!(slots.busy_ns_total() >= service_ns, "read wait is busy on top");
    }

    #[test]
    fn noop_recorder_has_no_record() {
        let mut n = NoopStages;
        n.wait(WorkerState::AcceptWait);
        n.begin();
        n.route(1);
        assert_eq!(n.time(Stage::Write, || 5), 5);
        assert!(n.end().is_none());
    }

    #[test]
    fn noop_group_is_filtered_to_none() {
        let group = HwGroup::noop("test".to_string());
        let mut r = Recorder::new(Instant::now(), false).with_hw(&group);
        r.begin();
        r.time(Stage::Parse, || {});
        assert!(r.record().hw.is_none(), "inactive groups must not be polled");
    }

    #[test]
    fn live_group_attributes_counts_to_stages_when_available() {
        let group = HwGroup::open_for_thread();
        if !group.active() {
            eprintln!("skipping: {}", group.probe().reason);
            return;
        }
        let mut r = Recorder::new(Instant::now(), false).with_hw(&group);
        r.begin();
        let sum = r.time(Stage::Parse, || (0..50_000u64).fold(0u64, |a, b| a.wrapping_add(b * b)));
        assert!(sum > 0);
        let hw = r.record().hw.expect("a live group fills the table");
        assert!(
            !hw[Stage::Parse.index()].is_zero(),
            "a live group must attribute nonzero counts to the stage"
        );
        assert!(hw[Stage::XPath.index()].is_zero());
    }
}
