//! Live-benchmark metrics: latency summaries and the `BENCH_live.json`
//! report.
//!
//! Latency summarization itself lives in [`aon_obs::latency`] (one
//! implementation shared between this load generator and the server's
//! histogram layer) and is re-exported here for compatibility.
//!
//! All counter arithmetic here goes through lossless conversions
//! ([`aon_trace::num`]) — this file is on the `aon-audit` cast-enforced
//! list, like every other file that feeds numbers into reports.

use crate::server::ServeStatsSnapshot;
use aon_obs::metric::HistogramSnapshot;
use aon_trace::num::exact_f64;

pub use aon_obs::latency::{percentile, summarize_latencies, LatencySummary};

/// Client-side failure breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadgenErrors {
    /// Responses whose status did not match the expected routing outcome.
    pub status_mismatch: u64,
    /// Wire-level failures (framing, timeouts, mid-message EOF).
    pub wire: u64,
    /// Socket-level failures (connect/write errors).
    pub io: u64,
    /// Reconnects after the server's keep-alive cap (not failures).
    pub reconnects: u64,
    /// `503` refusals from a server running FR-only. Tracked apart from
    /// `status_mismatch` because a shed is that server *working as
    /// configured* — and the smoke gate asserts it is zero against a
    /// default server, which a lumped mismatch count couldn't.
    pub shed: u64,
}

impl LoadgenErrors {
    /// Failures that count against the run (reconnects and sheds do
    /// not — a shed is an answered, well-formed refusal).
    pub fn failed(&self) -> u64 {
        self.status_mismatch + self.wire + self.io
    }
}

/// One (use case × pipeline stage) aggregate from the server's stage
/// histograms — the paper-style service-time decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCell {
    /// Use-case label (`"FR"`, `"CBR"`, …).
    pub use_case: &'static str,
    /// Stage label (`"parse"`, `"xpath"`, …).
    pub stage: &'static str,
    /// Requests that recorded time in this stage.
    pub count: u64,
    /// Total nanoseconds across those requests.
    pub total_ns: u64,
}

/// One per-use-case row of the live hardware-counter characterization —
/// the live analogue of the paper's Table 4 (CPI) and Figures 4/5
/// (misses per workload), measured by `aon-report hw` from the `aon_hw_*`
/// metric families.
#[derive(Debug, Clone, PartialEq)]
pub struct HwRow {
    /// Use-case label (`"FR"`, `"CBR"`, …).
    pub use_case: &'static str,
    /// Requests the counted events are attributed to.
    pub requests: u64,
    /// CPU cycles across all pipeline stages.
    pub cycles: u64,
    /// Instructions retired across all pipeline stages.
    pub instructions: u64,
    /// L1 data-cache read misses.
    pub l1d_miss: u64,
    /// Last-level cache misses (the paper's L2 miss axis).
    pub llc_miss: u64,
    /// Branch mispredictions.
    pub branch_miss: u64,
    /// The simulator/paper CPI prediction for this use case, when one
    /// exists (Table 4's single-processor Pentium M column).
    pub predicted_cpi: Option<f64>,
}

impl HwRow {
    /// Measured cycles per instruction (0.0 before any instruction
    /// retires — e.g. the noop backend).
    pub fn cpi(&self) -> f64 {
        aon_trace::num::ratio(self.cycles, self.instructions)
    }

    /// Measured LLC misses per request (0.0 with no requests).
    pub fn llc_miss_per_request(&self) -> f64 {
        aon_trace::num::ratio(self.llc_miss, self.requests)
    }

    /// Measured branch misses per request (0.0 with no requests).
    pub fn branch_miss_per_request(&self) -> f64 {
        aon_trace::num::ratio(self.branch_miss, self.requests)
    }
}

/// The `"hw"` section of `BENCH_live.json`: backend identification plus
/// the per-use-case counter table. Present even when the PMU is
/// unavailable — the `backend`/`reason` pair *is* the degrade report.
#[derive(Debug, Clone, PartialEq)]
pub struct HwSection {
    /// `"perf_event"` or `"noop"`.
    pub backend: String,
    /// Why the backend degraded (empty for a fully live PMU).
    pub reason: String,
    /// One row per use case driven (empty on the noop backend).
    pub rows: Vec<HwRow>,
}

impl HwSection {
    /// Render as a JSON value (an object), lines indented by `indent`.
    pub fn to_json_value(&self, indent: &str) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\n");
        s.push_str(&format!("{indent}  \"backend\": \"{}\",\n", self.backend));
        s.push_str(&format!("{indent}  \"reason\": \"{}\",\n", self.reason.replace('"', "'")));
        if self.rows.is_empty() {
            s.push_str(&format!("{indent}  \"rows\": []\n"));
        } else {
            s.push_str(&format!("{indent}  \"rows\": [\n"));
            let rows: Vec<String> = self
                .rows
                .iter()
                .map(|r| {
                    let predicted =
                        r.predicted_cpi.map_or("null".to_string(), |v| format!("{v:.3}"));
                    format!(
                        "{indent}    {{\"use_case\": \"{}\", \"requests\": {}, \
                         \"cycles\": {}, \"instructions\": {}, \"cpi\": {:.3}, \
                         \"l1d_miss\": {}, \"llc_miss\": {}, \"branch_miss\": {}, \
                         \"llc_miss_per_request\": {:.2}, \"branch_miss_per_request\": {:.2}, \
                         \"predicted_cpi\": {predicted}}}",
                        r.use_case,
                        r.requests,
                        r.cycles,
                        r.instructions,
                        r.cpi(),
                        r.l1d_miss,
                        r.llc_miss,
                        r.branch_miss,
                        r.llc_miss_per_request(),
                        r.branch_miss_per_request(),
                    )
                })
                .collect();
            s.push_str(&rows.join(",\n"));
            s.push_str(&format!("\n{indent}  ]\n"));
        }
        s.push_str(&format!("{indent}}}"));
        s
    }
}

/// The netperf-style closed-loop result — serialized as `BENCH_live.json`.
#[derive(Debug, Clone)]
pub struct LiveBenchReport {
    /// Wall-clock measurement window in seconds.
    pub duration_secs: f64,
    /// Concurrent closed-loop connections.
    pub connections: u64,
    /// Use-case labels driven (request mix).
    pub use_cases: Vec<String>,
    /// Requests completed with the expected status.
    pub requests_ok: u64,
    /// Requests that failed (see [`LoadgenErrors`]).
    pub requests_failed: u64,
    /// Client-side failure breakdown.
    pub errors: LoadgenErrors,
    /// Request payload bytes pushed through the server.
    pub payload_bytes: u64,
    /// End-to-end request latency percentiles.
    pub latency: LatencySummary,
    /// Per-stage service-time breakdown from the server's observability
    /// layer (empty against a remote server or with observability off).
    pub stages: Vec<StageCell>,
    /// Live hardware-counter characterization (present only when the
    /// run collected it, e.g. `aon-report hw`).
    pub hw: Option<HwSection>,
    /// Server counters at the end of the run (when the server was
    /// in-process; `None` against a remote server).
    pub server: Option<ServeStatsSnapshot>,
}

impl LiveBenchReport {
    /// Completed requests per wall second.
    pub fn requests_per_sec(&self) -> f64 {
        if self.duration_secs > 0.0 {
            exact_f64(self.requests_ok) / self.duration_secs
        } else {
            0.0
        }
    }

    /// Request payload megabits per wall second (the paper's Mbps axis).
    pub fn payload_mbps(&self) -> f64 {
        if self.duration_secs > 0.0 {
            exact_f64(self.payload_bytes) * 8.0 / self.duration_secs / 1_000_000.0
        } else {
            0.0
        }
    }

    /// Render as a JSON object (hand-rolled: the workspace is hermetic, no
    /// serde). All values are finite by construction.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        s.push_str(&format!("  \"duration_secs\": {:.3},\n", self.duration_secs));
        s.push_str(&format!("  \"connections\": {},\n", self.connections));
        let cases: Vec<String> = self.use_cases.iter().map(|u| format!("\"{u}\"")).collect();
        s.push_str(&format!("  \"use_cases\": [{}],\n", cases.join(", ")));
        s.push_str(&format!("  \"requests_ok\": {},\n", self.requests_ok));
        s.push_str(&format!("  \"requests_failed\": {},\n", self.requests_failed));
        s.push_str(&format!("  \"requests_per_sec\": {:.2},\n", self.requests_per_sec()));
        s.push_str(&format!("  \"payload_mbps\": {:.3},\n", self.payload_mbps()));
        s.push_str("  \"latency_us\": {\n");
        s.push_str(&format!("    \"count\": {},\n", self.latency.count));
        s.push_str(&format!("    \"p50\": {:.1},\n", self.latency.p50_us));
        s.push_str(&format!("    \"p99\": {:.1},\n", self.latency.p99_us));
        s.push_str(&format!("    \"p999\": {:.1},\n", self.latency.p999_us));
        s.push_str(&format!("    \"max\": {:.1},\n", self.latency.max_us));
        s.push_str(&format!("    \"mean\": {:.1}\n", self.latency.mean_us));
        s.push_str("  },\n");
        s.push_str("  \"errors\": {\n");
        s.push_str(&format!("    \"status_mismatch\": {},\n", self.errors.status_mismatch));
        s.push_str(&format!("    \"wire\": {},\n", self.errors.wire));
        s.push_str(&format!("    \"io\": {},\n", self.errors.io));
        s.push_str(&format!("    \"reconnects\": {},\n", self.errors.reconnects));
        s.push_str(&format!("    \"shed\": {}\n", self.errors.shed));
        s.push_str("  },\n");
        let cells: Vec<String> = self
            .stages
            .iter()
            .map(|c| {
                format!(
                    "    {{\"use_case\": \"{}\", \"stage\": \"{}\", \"count\": {}, \"total_ns\": {}}}",
                    c.use_case, c.stage, c.count, c.total_ns
                )
            })
            .collect();
        if cells.is_empty() {
            s.push_str("  \"stages\": []");
        } else {
            s.push_str(&format!("  \"stages\": [\n{}\n  ]", cells.join(",\n")));
        }
        if let Some(hw) = &self.hw {
            s.push_str(",\n  \"hw\": ");
            s.push_str(&hw.to_json_value("  "));
        }
        if let Some(srv) = &self.server {
            s.push_str(",\n  \"server\": ");
            s.push_str(&srv.to_json_object("  "));
            s.push('\n');
        } else {
            s.push('\n');
        }
        s.push_str("}\n");
        s
    }
}

impl ServeStatsSnapshot {
    /// Render as a JSON object with lines indented by `indent` (the
    /// same object serves as the `"server"` section of
    /// `BENCH_live.json` and as the body of `GET /stats.json`).
    pub fn to_json_object(&self, indent: &str) -> String {
        format!("{}\n{indent}}}", self.json_members(indent))
    }

    /// The body of `GET /stats.json`: the counters, then — with
    /// observability on — the bucket-derived service-time percentiles
    /// (`latency`, interpolated p99.9 included, so a scraper gets latency
    /// without parsing the Prometheus exposition), then the pool shape: a
    /// reporter must not have to infer the worker count from
    /// configuration, and with the profiler on `pool` adds its live
    /// saturation and per-worker busy fractions (both per mille).
    pub fn to_stats_json(
        &self,
        latency: Option<HistogramSnapshot>,
        workers: usize,
        pool: Option<(u64, Vec<u64>)>,
    ) -> String {
        let mut s = self.json_members("");
        if let Some(h) = latency {
            s.push_str(&format!(
                ",\n  \"service_latency_ns\": {{ \"count\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {} }}",
                h.count,
                h.percentile(50),
                h.percentile(99),
                h.percentile_per_mille(999)
            ));
        }
        s.push_str(&format!(",\n  \"worker_pool\": {{ \"workers\": {workers}"));
        if let Some((saturation, busy)) = pool {
            let busy = busy.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
            s.push_str(&format!(
                ", \"saturation_permille\": {saturation}, \"busy_permille\": [{busy}]"
            ));
        }
        s.push_str(" }\n}\n");
        s
    }

    /// `{` and the counter members, one per line, up to but excluding the
    /// newline and brace that close the object.
    fn json_members(&self, indent: &str) -> String {
        let members = [
            ("accepted", self.accepted),
            // The next three always read 0 (no user-space accept queue);
            // `benchmark/` pins the keys, see `ServeStatsSnapshot`.
            ("dropped_backlog", self.dropped_backlog),
            ("rejected_closed", self.rejected_closed),
            ("queue_depth_hwm", self.queue_depth_hwm),
            ("requests_ok", self.requests_ok),
            ("requests_rejected", self.requests_rejected),
            ("requests_shed", self.requests_shed),
            ("not_found", self.not_found),
            ("bad_request", self.bad_request),
            ("too_large", self.too_large),
            ("timeouts", self.timeouts),
            ("io_errors", self.io_errors),
            ("admin_requests", self.admin_requests),
            ("protocol_errors", self.protocol_errors()),
        ];
        let lines: Vec<String> =
            members.iter().map(|(name, value)| format!("{indent}  \"{name}\": {value}")).collect();
        format!("{{\n{}", lines.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_derive_from_duration() {
        let r = report_fixture();
        assert!((r.requests_per_sec() - 500.0).abs() < 0.01);
        // 1 MB over 2 s = 4 Mbps.
        assert!((r.payload_mbps() - 4.0).abs() < 0.01);
    }

    #[test]
    fn json_is_python_parseable_shape() {
        let mut r = report_fixture();
        r.errors.shed = 3;
        r.server =
            Some(ServeStatsSnapshot { requests_ok: 1000, accepted: 4, ..Default::default() });
        let j = r.to_json();
        assert!(j.contains("\"shed\": 3"), "{j}");
        assert!(j.contains("\"requests_per_sec\": 500.00"));
        assert!(j.contains("\"protocol_errors\": 0"));
        assert!(j.contains("\"use_cases\": [\"FR\", \"CBR\"]"));
        // The extended snapshot fields must be present in the report.
        assert!(j.contains("\"queue_depth_hwm\": 0"));
        assert!(j.contains("\"rejected_closed\": 0"));
        assert!(j.contains("\"admin_requests\": 0"));
        assert!(j.contains("\"stages\": []"));
        // Balanced braces, no trailing commas before closers.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.contains(",\n}"));
        assert!(!j.contains(",\n  }"));
    }

    #[test]
    fn json_carries_stage_cells_when_present() {
        let mut r = report_fixture();
        r.stages = vec![
            StageCell { use_case: "CBR", stage: "parse", count: 10, total_ns: 12345 },
            StageCell { use_case: "CBR", stage: "xpath", count: 10, total_ns: 2345 },
        ];
        let j = r.to_json();
        assert!(j.contains("\"use_case\": \"CBR\", \"stage\": \"parse\", \"count\": 10"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.contains(",\n}"));
    }

    fn report_fixture() -> LiveBenchReport {
        LiveBenchReport {
            duration_secs: 2.0,
            connections: 4,
            use_cases: vec!["FR".to_string(), "CBR".to_string()],
            requests_ok: 1000,
            requests_failed: 0,
            errors: LoadgenErrors::default(),
            payload_bytes: 1_000_000,
            latency: LatencySummary {
                count: 1000,
                p50_us: 100.0,
                p99_us: 900.0,
                p999_us: 980.0,
                max_us: 1000.0,
                mean_us: 150.0,
            },
            stages: Vec::new(),
            hw: None,
            server: None,
        }
    }

    #[test]
    fn stats_json_bytes_are_pinned_for_its_three_shapes() {
        let snap = ServeStatsSnapshot {
            accepted: 3,
            queue_depth_hwm: 2,
            requests_ok: 7,
            bad_request: 1,
            admin_requests: 4,
            ..Default::default()
        };
        let counters = "{\n  \"accepted\": 3,\n  \"dropped_backlog\": 0,\n  \
            \"rejected_closed\": 0,\n  \"queue_depth_hwm\": 2,\n  \"requests_ok\": 7,\n  \
            \"requests_rejected\": 0,\n  \"requests_shed\": 0,\n  \"not_found\": 0,\n  \
            \"bad_request\": 1,\n  \"too_large\": 0,\n  \"timeouts\": 0,\n  \"io_errors\": 0,\n  \
            \"admin_requests\": 4,\n  \"protocol_errors\": 1";
        assert_eq!(snap.to_json_object(""), format!("{counters}\n}}"));

        // Observability off.
        assert_eq!(
            snap.to_stats_json(None, 2, None),
            format!("{counters},\n  \"worker_pool\": {{ \"workers\": 2 }}\n}}\n")
        );
        // On: two 1000 ns requests sit in the [512, 1023] bucket.
        let h = aon_obs::metric::Histogram::new();
        h.record(1000);
        h.record(1000);
        let latency = "  \"service_latency_ns\": { \"count\": 2, \"p50\": 1023, \"p99\": 1023, \
            \"p999\": 895 }";
        assert_eq!(
            snap.to_stats_json(Some(h.snapshot()), 2, None),
            format!("{counters},\n{latency},\n  \"worker_pool\": {{ \"workers\": 2 }}\n}}\n")
        );
        // On with the profiler.
        assert_eq!(
            snap.to_stats_json(Some(h.snapshot()), 2, Some((500, vec![1000, 0]))),
            format!(
                "{counters},\n{latency},\n  \"worker_pool\": {{ \"workers\": 2, \
                 \"saturation_permille\": 500, \"busy_permille\": [1000, 0] }}\n}}\n"
            )
        );
    }

    #[test]
    fn json_carries_hw_section_and_p999() {
        let mut r = report_fixture();
        r.hw = Some(HwSection {
            backend: "perf_event".to_string(),
            reason: String::new(),
            rows: vec![HwRow {
                use_case: "SV",
                requests: 100,
                cycles: 2_000_000,
                instructions: 1_000_000,
                l1d_miss: 5_000,
                llc_miss: 1_000,
                branch_miss: 700,
                predicted_cpi: Some(1.23),
            }],
        });
        let j = r.to_json();
        assert!(j.contains("\"p999\": 980.0"), "{j}");
        assert!(j.contains("\"backend\": \"perf_event\""));
        assert!(j.contains("\"cpi\": 2.000"), "{j}");
        assert!(j.contains("\"llc_miss_per_request\": 10.00"), "{j}");
        assert!(j.contains("\"predicted_cpi\": 1.230"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.contains(",\n}"));
        // The noop degrade report serializes with empty rows and null
        // prediction handling intact.
        r.hw = Some(HwSection {
            backend: "noop".to_string(),
            reason: "cycles: ENOENT".to_string(),
            rows: Vec::new(),
        });
        let j = r.to_json();
        assert!(j.contains("\"backend\": \"noop\""));
        assert!(j.contains("\"rows\": []"));
    }
}
