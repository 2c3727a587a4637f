//! The live server's observability core: every metric series the server
//! exposes, pre-registered at startup so the data path only touches
//! `Arc`'d atomic instruments — never the registry lock.
//!
//! Families (all prefixed `aon_`):
//!
//! * `aon_requests_total{use_case,outcome}` — engine-processed requests
//!   by routing outcome (`ok` = 200, `rejected` = 422), and `shed` = 503
//!   for the ones [`crate::server::ServeConfig::fr_only`] refused before
//!   the engine;
//! * `aon_payload_bytes_total{use_case}` — request payload bytes;
//! * `aon_request_duration_ns{use_case}` — end-to-end service-time
//!   histogram (frame complete → response written); when tracing is on
//!   its buckets carry OpenMetrics exemplars (`# {trace_id="..."} ns`)
//!   linking a bucket to a kept trace in `/trace.jsonl`;
//! * `aon_stage_duration_ns{use_case,stage}` — per-pipeline-phase
//!   histograms (parse / xpath / validate / dpi / crypto / write);
//! * `aon_http_responses_total{status}` — every non-admin response by
//!   status code;
//! * `aon_connections_accepted_total` — connections the workers took
//!   off the listener (the kernel's listen backlog in front of them is
//!   not visible from here);
//! * `aon_admin_requests_total` — `/metrics`, `/stats.json`,
//!   `/trace.jsonl`, `/profile.folded` hits, counted **separately** so
//!   scraping never perturbs the request totals it reports;
//! * `aon_trace_kept_total{class}`, `aon_trace_dropped_total{kind}` —
//!   tail-sampler outcomes when tracing is on: traces retained by class
//!   (`slow` / `shed` / `error` / `sampled`) and ring evictions by kind
//!   (`sampled` is expected under pressure, `keep` must stay 0 for the
//!   100%-tail-retention claim);
//! * `aon_hw_events_total{use_case,stage,event}` and
//!   `aon_hw_backend_active` — hardware-counter deltas attributed to
//!   pipeline stages when the perf backend opened (the live analogue of
//!   the paper's PMU characterization), plus a gauge saying whether any
//!   worker thread actually has counters;
//! * the continuous-profiler families (`aon_worker_state_samples_total`,
//!   `aon_worker_utilization_permille`, `aon_pool_saturation_permille`,
//!   `aon_profiler_*`) are registered into this registry by
//!   [`aon_obs::Profiler`] when the server builds one — see
//!   `crate::server`.
//!
//! This file is on the `aon-audit` cast-enforced list.

use crate::metrics::{HwRow, StageCell};
use aon_hw::{HwEvent, EVENT_COUNT};
use aon_obs::hwcounters::HwStageSet;
use aon_obs::metric::{Counter, Gauge, Histogram, HistogramSnapshot};
use aon_obs::registry::Registry;
use aon_obs::reqtrace::{StoreOutcome, TraceClass};
use aon_obs::stage::{Stage, WallStages, STAGE_COUNT};
use aon_server::usecase::UseCase;
use std::sync::Arc;

/// Response statuses the server can produce (one counter series each).
pub const STATUSES: [u16; 7] = [200, 400, 404, 408, 413, 422, 503];

/// Per-use-case instrument handles.
#[derive(Debug)]
struct UseCaseObs {
    ok: Arc<Counter>,
    rejected: Arc<Counter>,
    shed: Arc<Counter>,
    payload_bytes: Arc<Counter>,
    service_ns: Arc<Histogram>,
    stage_ns: [Arc<Histogram>; STAGE_COUNT],
}

/// Tail-sampler outcome counters, registered only when tracing is on so
/// a tracing-off server exposes no dead series.
#[derive(Debug)]
struct TraceObs {
    kept: [Arc<Counter>; 4],
    dropped_sampled: Arc<Counter>,
    dropped_keep: Arc<Counter>,
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
    responses: [Arc<Counter>; 7],
    trace: Option<TraceObs>,
    hw: Option<HwObs>,
    conns_accepted: Arc<Counter>,
    admin_requests: Arc<Counter>,
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
    /// Register every series the server will ever touch. The optional
    /// planes (`hw_enabled`, `trace_enabled`) decide at construction
    /// whether their families exist at all — the data path then only
    /// ever checks an `Option`, never the registry.
    pub fn new(hw_enabled: bool, trace_enabled: bool) -> ServerObs {
        let registry = Registry::new();
        let trace = trace_enabled.then(|| TraceObs {
            kept: std::array::from_fn(|i| {
                registry.counter(
                    "aon_trace_kept_total",
                    "Traces retained by the tail sampler, by retention class",
                    &[("class", TraceClass::ALL[i].label())],
                )
            }),
            dropped_sampled: registry.counter(
                "aon_trace_dropped_total",
                "Traces evicted from the trace ring, by kind",
                &[("kind", "sampled")],
            ),
            dropped_keep: registry.counter(
                "aon_trace_dropped_total",
                "Traces evicted from the trace ring, by kind",
                &[("kind", "keep")],
            ),
        });
        let hw = hw_enabled.then(|| HwObs {
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
        let per_use = std::array::from_fn(|i| {
            let uc = UseCase::EXTENDED[i];
            let label = uc.label();
            UseCaseObs {
                ok: registry.counter(
                    "aon_requests_total",
                    "Engine-processed requests by routing outcome",
                    &[("use_case", label), ("outcome", "ok")],
                ),
                rejected: registry.counter(
                    "aon_requests_total",
                    "Engine-processed requests by routing outcome",
                    &[("use_case", label), ("outcome", "rejected")],
                ),
                shed: registry.counter(
                    "aon_requests_total",
                    "Engine-processed requests by routing outcome",
                    &[("use_case", label), ("outcome", "shed")],
                ),
                payload_bytes: registry.counter(
                    "aon_payload_bytes_total",
                    "Request payload bytes by use case",
                    &[("use_case", label)],
                ),
                // With tracing on, service buckets carry exemplars so a
                // p99 bucket links to a kept trace in /trace.jsonl.
                service_ns: if trace_enabled {
                    registry.histogram_with_exemplars(
                        "aon_request_duration_ns",
                        "End-to-end service time (frame complete to response written)",
                        &[("use_case", label)],
                    )
                } else {
                    registry.histogram(
                        "aon_request_duration_ns",
                        "End-to-end service time (frame complete to response written)",
                        &[("use_case", label)],
                    )
                },
                stage_ns: std::array::from_fn(|s| {
                    registry.histogram(
                        "aon_stage_duration_ns",
                        "Pipeline phase time by use case and stage",
                        &[("use_case", label), ("stage", Stage::ALL[s].label())],
                    )
                }),
            }
        });
        let responses = std::array::from_fn(|i| {
            let status = STATUSES[i].to_string();
            registry.counter(
                "aon_http_responses_total",
                "Non-admin responses by HTTP status",
                &[("status", status.as_str())],
            )
        });
        ServerObs {
            conns_accepted: registry.counter(
                "aon_connections_accepted_total",
                "Connections accepted off the listener",
                &[],
            ),
            admin_requests: registry.counter(
                "aon_admin_requests_total",
                "Admin endpoint hits (excluded from request totals)",
                &[],
            ),
            trace,
            hw,
            per_use,
            responses,
            registry,
        }
    }

    /// A connection was accepted.
    pub fn connection_accepted(&self) {
        self.conns_accepted.inc();
    }

    /// An admin endpoint was served.
    pub fn admin_request(&self) {
        self.admin_requests.inc();
    }

    /// Record one completed (non-admin) request: status counter, per-use
    /// case outcome + payload + service/stage histograms.
    pub fn record_request(
        &self,
        use_case: Option<UseCase>,
        status: u16,
        bytes: u64,
        total_ns: u64,
        stages: &WallStages,
    ) {
        if let Some(i) = STATUSES.iter().position(|&s| s == status) {
            self.responses[i].inc();
        }
        let Some(uc) = use_case else { return };
        let u = &self.per_use[use_case_index(uc)];
        match status {
            200 => u.ok.inc(),
            422 => u.rejected.inc(),
            503 => u.shed.inc(),
            _ => {}
        }
        u.payload_bytes.add(bytes);
        u.service_ns.record(total_ns);
        for stage in Stage::ALL {
            let ns = stages.get(stage);
            if ns > 0 {
                u.stage_ns[stage.index()].record(ns);
            }
        }
    }

    /// Attach an exemplar (a kept trace's id) to the service-time bucket
    /// `total_ns` falls in. A no-op when the histograms were registered
    /// without exemplar cells (tracing off).
    pub fn attach_service_exemplar(&self, use_case: UseCase, total_ns: u64, trace_id: u64) {
        self.per_use[use_case_index(use_case)].service_ns.attach_exemplar(total_ns, trace_id);
    }

    /// Publish one tail-sampler store outcome. A no-op when tracing
    /// families were not registered (tracing off).
    pub fn trace_outcome(&self, outcome: &StoreOutcome) {
        let Some(t) = &self.trace else { return };
        if let Some(class) = outcome.kept {
            t.kept[class.index()].inc();
        }
        if outcome.evicted_sampled > 0 {
            t.dropped_sampled.add(outcome.evicted_sampled);
        }
        if outcome.evicted_keep > 0 {
            t.dropped_keep.add(outcome.evicted_keep);
        }
    }

    /// Publish whether this worker's perf group actually opened. Workers
    /// race to set the gauge; `record_max` keeps it 1 if *any* did.
    pub fn hw_backend(&self, active: bool) {
        if let Some(h) = &self.hw {
            h.backend_active.record_max(u64::from(active));
        }
    }

    /// Accumulate one request's per-stage hardware-counter deltas. A
    /// no-op when the HW plane is off or the snapshot is empty (the
    /// noop backend reads all-zero).
    pub fn record_hw(&self, use_case: UseCase, hw: &HwStageSet) {
        let Some(h) = &self.hw else { return };
        let per_stage = &h.events[use_case_index(use_case)];
        for stage in Stage::ALL {
            let snap = hw.get(stage);
            if snap.is_zero() {
                continue;
            }
            for event in HwEvent::ALL {
                let v = snap.get(event);
                if v > 0 {
                    per_stage[stage.index()][event.index()].add(v);
                }
            }
        }
    }

    /// Per-use-case hardware-counter totals (events summed across
    /// stages) for the `hw-report` characterization table. Requests are
    /// everything the counters could have been attributed to (ok +
    /// rejected + shed). Use cases with zero counted events are omitted,
    /// so the noop backend yields an empty table rather than zero rows
    /// pretending to be measurements. Predictions are left for the
    /// caller to fill in ([`HwRow::predicted_cpi`] starts `None`).
    pub fn hw_rows(&self) -> Vec<HwRow> {
        let Some(h) = &self.hw else { return Vec::new() };
        let mut out = Vec::new();
        for (i, per_stage) in h.events.iter().enumerate() {
            let mut totals = [0u64; EVENT_COUNT];
            for stage in per_stage {
                for (slot, counter) in totals.iter_mut().zip(stage.iter()) {
                    *slot = slot.saturating_add(counter.get());
                }
            }
            if totals.iter().all(|&v| v == 0) {
                continue;
            }
            let u = &self.per_use[i];
            out.push(HwRow {
                use_case: UseCase::EXTENDED[i].label(),
                requests: u.ok.get() + u.rejected.get() + u.shed.get(),
                cycles: totals[HwEvent::Cycles.index()],
                instructions: totals[HwEvent::Instructions.index()],
                l1d_miss: totals[HwEvent::L1dMiss.index()],
                llc_miss: totals[HwEvent::LlcMiss.index()],
                branch_miss: totals[HwEvent::BranchMiss.index()],
                predicted_cpi: None,
            });
        }
        out
    }

    /// Per-(use case × stage) totals for the `BENCH_live.json` stage
    /// breakdown; cells that never recorded are omitted.
    pub fn stage_cells(&self) -> Vec<StageCell> {
        let mut out = Vec::new();
        for (i, u) in self.per_use.iter().enumerate() {
            let label = UseCase::EXTENDED[i].label();
            for stage in Stage::ALL {
                let h = &u.stage_ns[stage.index()];
                if h.count() > 0 {
                    out.push(StageCell {
                        use_case: label,
                        stage: stage.label(),
                        count: h.count(),
                        total_ns: h.sum(),
                    });
                }
            }
        }
        out
    }

    /// Total engine-processed requests (ok + rejected) across use cases
    /// — must equal the load generator's completed-request count.
    pub fn requests_processed(&self) -> u64 {
        self.per_use.iter().map(|u| u.ok.get() + u.rejected.get()).sum()
    }

    /// Requests refused by the FR-only filter (503s) across use cases.
    pub fn requests_shed(&self) -> u64 {
        self.per_use.iter().map(|u| u.shed.get()).sum()
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

    #[test]
    fn record_request_updates_outcome_payload_and_stages() {
        let obs = ServerObs::new(false, false);
        let mut stages = WallStages::new();
        stages.add(Stage::Parse, 1000);
        stages.add(Stage::XPath, 500);
        obs.record_request(Some(UseCase::Cbr), 200, 240, 2000, &stages);
        obs.record_request(Some(UseCase::Cbr), 422, 240, 1500, &stages);
        obs.record_request(None, 400, 0, 100, &WallStages::new());

        assert_eq!(obs.requests_processed(), 2);
        let cells = obs.stage_cells();
        let parse = cells
            .iter()
            .find(|c| c.use_case == "CBR" && c.stage == "parse")
            .expect("parse cell exists");
        assert_eq!(parse.count, 2);
        assert_eq!(parse.total_ns, 2000);
        assert!(cells.iter().all(|c| c.use_case != "FR"), "FR never recorded");

        let text = obs.registry.render_prometheus();
        assert!(text.contains("aon_requests_total{use_case=\"CBR\",outcome=\"ok\"} 1"), "{text}");
        assert!(text.contains("aon_requests_total{use_case=\"CBR\",outcome=\"rejected\"} 1"));
        assert!(text.contains("aon_http_responses_total{status=\"400\"} 1"));
        assert!(text.contains("aon_payload_bytes_total{use_case=\"CBR\"} 480"));
    }

    #[test]
    fn shed_outcome_is_a_distinct_series_excluded_from_processed() {
        let obs = ServerObs::new(false, false);
        let stages = WallStages::new();
        obs.record_request(Some(UseCase::Sv), 200, 100, 900, &stages);
        obs.record_request(Some(UseCase::Sv), 503, 0, 40, &stages);
        obs.record_request(Some(UseCase::Sv), 503, 0, 35, &stages);

        assert_eq!(obs.requests_processed(), 1, "shed requests never reached the engine");
        assert_eq!(obs.requests_shed(), 2);
        let text = obs.registry.render_prometheus();
        assert!(text.contains("aon_requests_total{use_case=\"SV\",outcome=\"shed\"} 2"), "{text}");
        assert!(text.contains("aon_http_responses_total{status=\"503\"} 2"));
    }

    #[test]
    fn merged_service_histogram_folds_every_use_case() {
        let obs = ServerObs::new(false, false);
        let stages = WallStages::new();
        obs.record_request(Some(UseCase::Fr), 200, 10, 1_000, &stages);
        obs.record_request(Some(UseCase::Dpi), 200, 10, 4_000, &stages);
        let merged = obs.service_histogram_merged();
        assert_eq!(merged.count, 2);
        assert_eq!(merged.sum, 5_000);
    }

    #[test]
    fn trace_families_exist_only_when_tracing_enabled() {
        let off = ServerObs::new(false, false);
        off.trace_outcome(&StoreOutcome {
            kept: Some(TraceClass::Slow),
            evicted_sampled: 1,
            evicted_keep: 0,
        });
        assert!(!off.registry.render_prometheus().contains("aon_trace_"));

        let on = ServerObs::new(false, true);
        on.trace_outcome(&StoreOutcome {
            kept: Some(TraceClass::Slow),
            evicted_sampled: 0,
            evicted_keep: 0,
        });
        on.trace_outcome(&StoreOutcome {
            kept: Some(TraceClass::Sampled),
            evicted_sampled: 1,
            evicted_keep: 0,
        });
        on.trace_outcome(&StoreOutcome { kept: None, evicted_sampled: 0, evicted_keep: 0 });
        let text = on.registry.render_prometheus();
        assert!(text.contains("aon_trace_kept_total{class=\"slow\"} 1"), "{text}");
        assert!(text.contains("aon_trace_kept_total{class=\"sampled\"} 1"));
        assert!(text.contains("aon_trace_kept_total{class=\"shed\"} 0"));
        assert!(text.contains("aon_trace_dropped_total{kind=\"sampled\"} 1"));
        assert!(text.contains("aon_trace_dropped_total{kind=\"keep\"} 0"));
    }

    #[test]
    fn hw_families_attribute_deltas_by_use_case_stage_and_event() {
        let off = ServerObs::new(false, false);
        off.hw_backend(true);
        off.record_hw(UseCase::Fr, &HwStageSet::new());
        assert!(!off.registry.render_prometheus().contains("aon_hw_"));

        let on = ServerObs::new(true, false);
        on.hw_backend(false);
        on.hw_backend(true);
        on.hw_backend(false); // a later noop worker must not clear the gauge
        let mut set = HwStageSet::new();
        let mut delta = aon_hw::HwSnapshot::default();
        delta.values[HwEvent::Cycles.index()] = 1_000;
        delta.values[HwEvent::Instructions.index()] = 2_500;
        set.add(Stage::Parse, &delta);
        set.add(Stage::Parse, &delta);
        on.record_hw(UseCase::Cbr, &set);
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
        // value the new plane wrote — this is the exact path obs-report
        // and hw-report consume, so a label-escaping or formatting
        // regression in any new family fails here, not in a live run.
        let obs = ServerObs::new(true, true);
        obs.hw_backend(true);
        let mut set = HwStageSet::new();
        let mut delta = aon_hw::HwSnapshot::default();
        delta.values[HwEvent::LlcMiss.index()] = 77;
        set.add(Stage::Validate, &delta);
        obs.record_hw(UseCase::Sv, &set);
        obs.trace_outcome(&StoreOutcome {
            kept: Some(TraceClass::Error),
            evicted_sampled: 2,
            evicted_keep: 1,
        });
        let stages = WallStages::new();
        for _ in 0..3 {
            obs.record_request(Some(UseCase::Sv), 200, 10, 1_000, &stages);
        }
        obs.attach_service_exemplar(UseCase::Sv, 1_000, 42);

        let samples = aon_obs::scrape::parse_prometheus(&obs.registry.render_prometheus());
        let sum =
            |name, labels: &[(&str, &str)]| aon_obs::scrape::sum_samples(&samples, name, labels);
        let exemplar = samples
            .iter()
            .filter(|s| s.name == "aon_request_duration_ns_bucket")
            .find_map(|s| s.exemplar.as_ref())
            .expect("one service bucket carries the exemplar");
        assert_eq!(exemplar.label("trace_id"), Some("42"));
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
        assert_eq!(sum("aon_trace_dropped_total", &[("kind", "sampled")]), 2.0);
        assert_eq!(sum("aon_trace_dropped_total", &[("kind", "keep")]), 1.0);
    }

    #[test]
    fn exemplars_exist_only_when_tracing_enabled() {
        let stages = WallStages::new();
        let off = ServerObs::new(false, false);
        off.record_request(Some(UseCase::Fr), 200, 10, 1_000, &stages);
        off.attach_service_exemplar(UseCase::Fr, 1_000, 7);
        assert!(
            !off.registry.render_prometheus().contains("# {trace_id="),
            "tracing off must not render exemplars"
        );

        let on = ServerObs::new(false, true);
        on.record_request(Some(UseCase::Fr), 200, 10, 1_000, &stages);
        on.attach_service_exemplar(UseCase::Fr, 1_000, 7);
        let text = on.registry.render_prometheus();
        assert!(text.contains("# {trace_id=\"7\"} 1000"), "{text}");
    }

    #[test]
    fn hw_rows_aggregate_events_across_stages_per_use_case() {
        let obs = ServerObs::new(true, false);
        assert!(obs.hw_rows().is_empty(), "no counted events, no rows");
        let mut set = HwStageSet::new();
        let mut delta = aon_hw::HwSnapshot::default();
        delta.values[HwEvent::Cycles.index()] = 300;
        delta.values[HwEvent::Instructions.index()] = 150;
        set.add(Stage::Parse, &delta);
        set.add(Stage::Write, &delta);
        obs.record_hw(UseCase::Dpi, &set);
        let stages = WallStages::new();
        obs.record_request(Some(UseCase::Dpi), 200, 10, 1_000, &stages);
        obs.record_request(Some(UseCase::Dpi), 422, 10, 1_000, &stages);
        let rows = obs.hw_rows();
        assert_eq!(rows.len(), 1, "only the use case with events gets a row");
        assert_eq!(rows[0].use_case, "DPI");
        assert_eq!(rows[0].requests, 2, "ok + rejected both attribute");
        assert_eq!(rows[0].cycles, 600, "parse + write stages sum");
        assert_eq!(rows[0].instructions, 300);
        assert!((rows[0].cpi() - 2.0).abs() < 1e-9);
        assert_eq!(rows[0].predicted_cpi, None, "prediction is the caller's to fill");
    }

    #[test]
    fn admin_and_connection_counters_are_separate() {
        let obs = ServerObs::new(false, false);
        obs.connection_accepted();
        obs.admin_request();
        let text = obs.registry.render_prometheus();
        assert!(text.contains("aon_connections_accepted_total 1"));
        assert!(text.contains("aon_admin_requests_total 1"));
    }
}
