//! The live server's observability planes: every metric series the
//! server exposes, pre-registered at startup so the data path only
//! touches `Arc`'d atomic instruments — never the registry lock — plus
//! the tail sampler and the worker-state profiler, which register their
//! own families into the same registry. One [`ServerObs`] exists when
//! [`ServeConfig::observe`] is on and none when it is off; inside it
//! `trace.enabled`, `profiler` and `hw_counters` select planes.
//!
//! A request reaches the planes once: each worker's
//! [`aon_obs::record::Recorder`] (from [`ServerObs::recorder`]) reads the
//! clock at the request's boundaries, and at write end the connection
//! loop hands the finished record to [`ServerObs::record`], off the
//! service clock.
//!
//! Families (all prefixed `aon_`):
//!
//! * `aon_trace_kept_total{class}`, `aon_trace_dropped_total{kind}` —
//!   tail-sampler outcomes, registered and owned by
//!   [`aon_obs::reqtrace::Tracer`] when tracing is on: traces retained
//!   by class (`slow` / `error` / `sampled`) and ring evictions
//!   by kind (`sampled` is expected under pressure, `keep` must stay 0
//!   for the 100%-tail-retention claim);
//! * `aon_hw_events_total{use_case,stage,event}` and
//!   `aon_hw_backend_active` — hardware-counter deltas attributed to
//!   pipeline stages when the perf backend opened (the live analogue of
//!   the paper's PMU characterization), plus a gauge saying whether any
//!   worker thread actually has counters;
//! * `aon_requests_total{use_case,outcome}` — engine-processed requests
//!   by routing outcome (`ok` = 200, `rejected` = 422);
//! * `aon_payload_bytes_total{use_case}` — request payload bytes;
//! * `aon_request_duration_ns{use_case}` — end-to-end service-time
//!   histogram (frame complete → response written); when tracing is on
//!   its buckets carry OpenMetrics exemplars (`# {trace_id="..."} ns`),
//!   one per kept trace, linking a bucket to a trace in `/trace.jsonl`;
//! * `aon_stage_duration_ns{use_case,stage}` — per-pipeline-phase
//!   histograms (parse / xpath / validate / dpi / crypto / write);
//! * `aon_http_responses_total{status}`, `aon_connections_accepted_total`
//!   and `aon_admin_requests_total` — every non-admin response by status
//!   code, connections the workers took off the listener, and
//!   `/metrics`, `/stats.json`, `/trace.jsonl`, `/profile.folded` hits
//!   (counted **separately** so scraping never perturbs the request
//!   totals it reports). These *are* the [`ServeStats`] counters, handed
//!   to the registry: `/stats.json` and `/metrics` read one count;
//! * the worker-time ledger families (`aon_worker_state_ns{state}`,
//!   `aon_worker_utilization_permille{worker}`, `aon_pool_*`), registered
//!   by [`aon_obs::Profiler`] when the profiler is on and refreshed by
//!   every reader ([`ServerObs::profiler`]).
//!
//! This file is on the `aon-audit` cast-enforced list.

use crate::server::{ServeConfig, ServeStats};
use aon_hw::{HwEvent, HwGroup, EVENT_COUNT};
use aon_obs::metric::{Counter, Gauge, Histogram, HistogramSnapshot};
use aon_obs::profiler::{Profiler, CONTEXT_COUNT};
use aon_obs::record::{Recorder, RequestRecord};
use aon_obs::registry::Registry;
use aon_obs::reqtrace::Tracer;
use aon_obs::stage::{Stage, STAGE_COUNT};
use aon_server::usecase::UseCase;
use std::sync::Arc;
use std::time::Instant;

/// Response statuses the server can produce (one counter series each).
pub const STATUSES: [u16; 6] = [200, 400, 404, 408, 413, 422];

/// Per-use-case instrument handles.
#[derive(Debug)]
struct UseCaseObs {
    ok: Arc<Counter>,
    rejected: Arc<Counter>,
    payload_bytes: Arc<Counter>,
    service_ns: Arc<Histogram>,
    stage_ns: [Arc<Histogram>; STAGE_COUNT],
}

/// Hardware-counter series, registered only when the HW plane is
/// enabled (5 use cases × 6 stages × 5 events = 150 counter series —
/// too many to pay for when nobody asked for them).
#[derive(Debug)]
struct HwObs {
    backend_active: Arc<Gauge>,
    /// `events[use_case][stage][event]`.
    events: [[[Arc<Counter>; EVENT_COUNT]; STAGE_COUNT]; 5],
}

/// All observability state for one [`crate::server::Server`].
#[derive(Debug)]
pub struct ServerObs {
    /// The metric catalogue behind `GET /metrics`.
    pub registry: Registry,
    per_use: [UseCaseObs; 5],
    hw: Option<HwObs>,
    tracer: Option<Tracer>,
    profiler: Option<Profiler>,
    /// Origin of every recorder's timestamps.
    epoch: Instant,
}

pub(crate) fn use_case_index(uc: UseCase) -> usize {
    match uc {
        UseCase::Fr => 0,
        UseCase::Cbr => 1,
        UseCase::Sv => 2,
        UseCase::Dpi => 3,
        UseCase::Crypto => 4,
    }
}

impl ServerObs {
    /// Register every series the server will ever touch, for a pool of
    /// `workers` threads. The optional planes (`cfg.trace.enabled`,
    /// `cfg.hw_counters`, `cfg.profiler`) decide here whether
    /// their families exist at all — the data path then only ever checks
    /// an `Option`, never the registry. `stats`' counters are handed to
    /// the registry as the response, connection and admin series.
    pub fn new(cfg: &ServeConfig, workers: usize, stats: &ServeStats) -> ServerObs {
        let registry = Registry::new();
        let tracer = cfg.trace.enabled.then(|| Tracer::new(cfg.trace.clone(), &registry));
        let hw = cfg.hw_counters.then(|| HwObs {
            backend_active: registry.gauge(
                "aon_hw_backend_active",
                "1 when at least one worker thread opened a perf counter group",
                &[],
            ),
            events: std::array::from_fn(|u| {
                let label = UseCase::EXTENDED[u].label();
                std::array::from_fn(|s| {
                    std::array::from_fn(|e| {
                        registry.counter(
                            "aon_hw_events_total",
                            "Hardware counter deltas by use case, stage, and event",
                            &[
                                ("use_case", label),
                                ("stage", Stage::ALL[s].label()),
                                ("event", HwEvent::ALL[e].label()),
                            ],
                        )
                    })
                })
            }),
        });
        // With tracing on, service buckets carry exemplars so a p99
        // bucket links to a kept trace in /trace.jsonl.
        let service_histogram =
            if tracer.is_some() { Registry::histogram_with_exemplars } else { Registry::histogram };
        let per_use = std::array::from_fn(|i| {
            let label = UseCase::EXTENDED[i].label();
            let outcome = |outcome| {
                registry.counter(
                    "aon_requests_total",
                    "Engine-processed requests by routing outcome",
                    &[("use_case", label), ("outcome", outcome)],
                )
            };
            UseCaseObs {
                ok: outcome("ok"),
                rejected: outcome("rejected"),
                payload_bytes: registry.counter(
                    "aon_payload_bytes_total",
                    "Request payload bytes by use case",
                    &[("use_case", label)],
                ),
                service_ns: service_histogram(
                    &registry,
                    "aon_request_duration_ns",
                    "End-to-end service time (frame complete to response written)",
                    &[("use_case", label)],
                ),
                stage_ns: std::array::from_fn(|s| {
                    registry.histogram(
                        "aon_stage_duration_ns",
                        "Pipeline phase time by use case and stage",
                        &[("use_case", label), ("stage", Stage::ALL[s].label())],
                    )
                }),
            }
        });
        for status in STATUSES {
            registry.adopt_counter(
                "aon_http_responses_total",
                "Non-admin responses by HTTP status",
                &[("status", status.to_string().as_str())],
                stats.status(status),
            );
        }
        registry.adopt_counter(
            "aon_connections_accepted_total",
            "Connections accepted off the listener",
            &[],
            &stats.accepted,
        );
        registry.adopt_counter(
            "aon_admin_requests_total",
            "Admin endpoint hits (excluded from request totals)",
            &[],
            &stats.admin,
        );
        // Context 0 is "no use case", the rest map the engine's use
        // cases (`use_case_index + 1`).
        let profiler = cfg.profiler.then(|| {
            let ctx_labels: [&str; CONTEXT_COUNT] = std::array::from_fn(|i| {
                i.checked_sub(1).map_or("-", |u| UseCase::EXTENDED[u].label())
            });
            Profiler::new(workers, ctx_labels, &registry)
        });
        ServerObs { tracer, hw, per_use, profiler, registry, epoch: Instant::now() }
    }

    /// The tail-sampling tracer, when tracing is on.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// The worker-state profiler with its ledger refreshed to now, when
    /// it is on: every reader of its families goes through here.
    pub fn profiler(&self) -> Option<&Profiler> {
        let p = self.profiler.as_ref()?;
        p.refresh(u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX));
        Some(p)
    }

    /// The exposition behind `GET /metrics`, the ledger refreshed first.
    pub fn render_metrics(&self) -> String {
        self.profiler();
        self.registry.render_prometheus()
    }

    /// Worker `worker`'s recorder: spans when tracing is on, slot
    /// publishes when the profiler is, group reads when `hw` is live.
    pub fn recorder<'w>(&'w self, worker: usize, hw: Option<&'w HwGroup>) -> Recorder<'w> {
        let mut rec = Recorder::new(self.epoch, self.tracer.is_some());
        if let Some(p) = &self.profiler {
            rec = rec.on_worker(p.slots(), worker);
        }
        if let Some(group) = hw {
            rec = rec.with_hw(group);
        }
        rec
    }

    /// One finished (non-admin) request, handed over at write end: the
    /// per-use-case outcome, payload and service/stage histograms, the
    /// hardware-counter deltas, and the tail sampler's verdict on its
    /// trace. A kept trace's id becomes the exemplar of its latency
    /// bucket — only kept traces qualify, so every rendered exemplar
    /// resolves in `/trace.jsonl` by construction. `errored` is the
    /// sampler's `error` class: malformed HTTP or an engine error, not a
    /// negative routing verdict.
    pub fn record(
        &self,
        rec: &RequestRecord,
        use_case: Option<UseCase>,
        status: u16,
        errored: bool,
        payload_bytes: u64,
    ) {
        let per_use = use_case.map(|uc| &self.per_use[use_case_index(uc)]);
        if let Some(u) = per_use {
            match status {
                200 => u.ok.inc(),
                422 => u.rejected.inc(),
                _ => {}
            }
            u.payload_bytes.add(payload_bytes);
            u.service_ns.record(rec.total_ns);
            for stage in Stage::ALL {
                let ns = rec.wall_ns[stage.index()];
                if ns > 0 {
                    u.stage_ns[stage.index()].record(ns);
                }
            }
        }
        if let (Some(h), Some(uc), Some(set)) = (&self.hw, use_case, &rec.hw) {
            let per_stage = &h.events[use_case_index(uc)];
            for stage in Stage::ALL {
                for event in HwEvent::ALL {
                    let v = set[stage.index()].get(event);
                    if v > 0 {
                        per_stage[stage.index()][event.index()].add(v);
                    }
                }
            }
        }
        if let Some(tracer) = &self.tracer {
            let label = use_case.map_or("-", |uc| uc.label());
            let kept = tracer.finish(label, status, errored, rec.total_ns, || rec.trace_events());
            if let (Some(id), Some(u)) = (kept, per_use) {
                u.service_ns.attach_exemplar(rec.total_ns, id);
            }
        }
    }

    /// Publish whether this worker's perf group actually opened. Workers
    /// race to set the gauge; `record_max` keeps it 1 if *any* did.
    pub fn hw_backend(&self, active: bool) {
        if let Some(h) = &self.hw {
            h.backend_active.record_max(u64::from(active));
        }
    }

    /// One merged snapshot of `aon_request_duration_ns` across every use
    /// case — the service-time percentiles of `/stats.json`.
    pub fn service_histogram_merged(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for u in &self.per_use {
            merged.merge(&u.service_ns.snapshot());
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_obs::reqtrace::TraceConfig;

    /// Planes for a one-worker pool, every trace kept when tracing is on.
    fn obs(hw_counters: bool, trace: bool) -> ServerObs {
        let trace =
            TraceConfig { enabled: trace, sample_per_million: 1_000_000, ..TraceConfig::default() };
        let cfg = ServeConfig { hw_counters, trace, ..ServeConfig::default() };
        ServerObs::new(&cfg, 1, &ServeStats::default())
    }

    /// A closed record of `total_ns` with `stages` as its wall table.
    fn record(total_ns: u64, stages: &[(Stage, u64)]) -> RequestRecord {
        let mut rec = RequestRecord::default();
        rec.total_ns = total_ns;
        for &(stage, ns) in stages {
            rec.wall_ns[stage.index()] = ns;
        }
        rec
    }

    #[test]
    fn record_updates_outcome_payload_and_stages() {
        let obs = obs(false, false);
        let stages = [(Stage::Parse, 1000), (Stage::XPath, 500)];
        obs.record(&record(2000, &stages), Some(UseCase::Cbr), 200, false, 240);
        obs.record(&record(1500, &stages), Some(UseCase::Cbr), 422, false, 240);
        obs.record(&record(100, &[]), None, 400, true, 0);

        let text = obs.registry.render_prometheus();
        let cbr_parse = "{use_case=\"CBR\",stage=\"parse\"}";
        assert!(text.contains(&format!("aon_stage_duration_ns_count{cbr_parse} 2")), "{text}");
        assert!(text.contains(&format!("aon_stage_duration_ns_sum{cbr_parse} 2000")), "{text}");
        let fr_parse = "aon_stage_duration_ns_count{use_case=\"FR\",stage=\"parse\"} 0";
        assert!(text.contains(fr_parse), "FR never recorded: {text}");
        assert!(text.contains("aon_requests_total{use_case=\"CBR\",outcome=\"ok\"} 1"), "{text}");
        assert!(text.contains("aon_requests_total{use_case=\"CBR\",outcome=\"rejected\"} 1"));
        assert!(text.contains("aon_payload_bytes_total{use_case=\"CBR\"} 480"));
        assert!(text.contains("aon_request_duration_ns_sum{use_case=\"CBR\"} 3500"), "{text}");
    }

    #[test]
    fn merged_service_histogram_folds_every_use_case() {
        let obs = obs(false, false);
        obs.record(&record(1_000, &[]), Some(UseCase::Fr), 200, false, 10);
        obs.record(&record(4_000, &[]), Some(UseCase::Dpi), 200, false, 10);
        let merged = obs.service_histogram_merged();
        assert_eq!(merged.count, 2);
        assert_eq!(merged.sum, 5_000);
    }

    #[test]
    fn the_serve_stats_counters_are_the_registered_series() {
        let stats = ServeStats::default();
        let obs = ServerObs::new(&ServeConfig::default(), 1, &stats);
        stats.accepted.inc();
        stats.admin.add(2);
        stats.status(200).add(3);
        stats.status(400).inc();
        let text = obs.registry.render_prometheus();
        assert!(text.contains("aon_connections_accepted_total 1"), "{text}");
        assert!(text.contains("aon_admin_requests_total 2"));
        assert!(text.contains("aon_http_responses_total{status=\"200\"} 3"));
        assert!(text.contains("aon_http_responses_total{status=\"400\"} 1"));
        let snap = stats.snapshot();
        assert_eq!((snap.accepted, snap.admin_requests, snap.requests_ok), (1, 2, 3));
        assert_eq!(snap.bad_request, 1);
    }

    #[test]
    fn trace_families_and_exemplars_exist_only_when_tracing_enabled() {
        let off = obs(false, false);
        assert!(off.tracer().is_none());
        off.record(&record(1_000, &[]), Some(UseCase::Fr), 200, false, 10);
        let text = off.registry.render_prometheus();
        assert!(!text.contains("aon_trace_"), "{text}");
        assert!(!text.contains("# {trace_id="), "tracing off must not render exemplars");

        let on = obs(false, true);
        on.record(&record(1_000, &[]), Some(UseCase::Fr), 200, false, 10);
        on.record(&record(2_000, &[]), None, 400, true, 0);
        let text = on.registry.render_prometheus();
        assert!(text.contains("aon_trace_kept_total{class=\"sampled\"} 1"), "{text}");
        assert!(text.contains("aon_trace_kept_total{class=\"error\"} 1"));
        assert!(text.contains("aon_trace_dropped_total{kind=\"keep\"} 0"));
        // The kept FR trace drew id 0 and is its bucket's exemplar; the
        // 400 has no use case, so no histogram to decorate.
        assert!(text.contains("# {trace_id=\"0\"} 1000"), "{text}");
        assert!(!text.contains("# {trace_id=\"1\"}"), "{text}");
        assert_eq!(on.tracer().expect("tracing on").len(), 2);
    }

    /// A record whose hardware table holds `delta` under each of `stages`.
    fn hw_record(stages: &[Stage], delta: &aon_hw::HwSnapshot) -> RequestRecord {
        let mut rec = record(1_000, &[]);
        let mut set = [aon_hw::HwSnapshot::default(); STAGE_COUNT];
        for &stage in stages {
            set[stage.index()] = *delta;
        }
        rec.hw = Some(set);
        rec
    }

    #[test]
    fn hw_families_attribute_deltas_by_use_case_stage_and_event() {
        let mut delta = aon_hw::HwSnapshot::default();
        delta.values[HwEvent::Cycles.index()] = 1_000;
        delta.values[HwEvent::Instructions.index()] = 2_500;
        let rec = hw_record(&[Stage::Parse], &delta);

        let off = obs(false, false);
        off.hw_backend(true);
        off.record(&rec, Some(UseCase::Fr), 200, false, 0);
        assert!(!off.registry.render_prometheus().contains("aon_hw_"));

        let on = obs(true, false);
        on.hw_backend(false);
        on.hw_backend(true);
        on.hw_backend(false); // a later noop worker must not clear the gauge
        on.record(&rec, Some(UseCase::Cbr), 200, false, 0);
        on.record(&rec, Some(UseCase::Cbr), 200, false, 0);
        let text = on.registry.render_prometheus();
        assert!(text.contains("aon_hw_backend_active 1"), "{text}");
        assert!(
            text.contains(
                "aon_hw_events_total{use_case=\"CBR\",stage=\"parse\",event=\"cycles\"} 2000"
            ),
            "{text}"
        );
        assert!(text.contains(
            "aon_hw_events_total{use_case=\"CBR\",stage=\"parse\",event=\"instructions\"} 5000"
        ));
        assert!(text
            .contains("aon_hw_events_total{use_case=\"CBR\",stage=\"xpath\",event=\"cycles\"} 0"));
    }

    #[test]
    fn new_families_roundtrip_through_the_scrape_parser() {
        // Render → parse_prometheus → sum_samples must reproduce every
        // value the planes wrote — this is the exact path aon-report
        // consumes, so a label-escaping or formatting regression in any
        // family fails here, not in a live run.
        let obs = obs(true, true);
        obs.hw_backend(true);
        let mut delta = aon_hw::HwSnapshot::default();
        delta.values[HwEvent::LlcMiss.index()] = 77;
        let rec = hw_record(&[Stage::Validate], &delta);
        obs.record(&rec, Some(UseCase::Sv), 422, true, 10);
        obs.record(&record(1_000, &[]), Some(UseCase::Sv), 200, false, 10);
        obs.record(&record(1_000, &[]), Some(UseCase::Sv), 200, false, 10);

        let samples = aon_obs::scrape::parse_prometheus(&obs.registry.render_prometheus());
        let sum =
            |name, labels: &[(&str, &str)]| aon_obs::scrape::sum_samples(&samples, name, labels);
        let exemplar = samples
            .iter()
            .filter(|s| s.name == "aon_request_duration_ns_bucket")
            .find_map(|s| s.exemplar.as_ref())
            .expect("one service bucket carries the exemplar");
        assert_eq!(exemplar.label("trace_id"), Some("2"), "the last observation's trace");
        assert_eq!(exemplar.value, 1000.0);
        assert_eq!(
            sum("aon_request_duration_ns_count", &[("use_case", "SV")]),
            3.0,
            "exemplar decoration must not perturb bucket parsing"
        );
        assert_eq!(sum("aon_hw_backend_active", &[]), 1.0);
        assert_eq!(sum("aon_hw_events_total", &[("use_case", "SV"), ("event", "llc_miss")]), 77.0);
        assert_eq!(sum("aon_hw_events_total", &[("stage", "validate")]), 77.0);
        assert_eq!(sum("aon_trace_kept_total", &[("class", "error")]), 1.0);
        assert_eq!(sum("aon_trace_kept_total", &[("class", "sampled")]), 2.0);
        assert_eq!(sum("aon_trace_dropped_total", &[]), 0.0);
    }

    #[test]
    fn a_recorder_carries_the_planes_that_are_on() {
        let on = obs(false, true);
        let slots = on.profiler().expect("profiler on by default").slots();
        let mut rec = on.recorder(0, None);
        {
            use aon_obs::record::BoundaryRecorder;
            use aon_obs::stage::StageRecorder;
            rec.begin();
            rec.time(Stage::Write, || {});
            let closed = rec.end().expect("record").clone();
            assert_eq!(closed.trace_events().len(), 2, "tracing on: root and write");
            assert_eq!(slots.in_service_ns_total(), closed.total_ns, "profiler on: the ledger");
        }
    }
}
