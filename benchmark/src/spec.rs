//! The benchmark's vocabulary: workload and metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repo root states the
//! same tables for the driver; `tests` below hold the two together.

use aon_server::UseCase;
use Better::{Higher, Lower};

/// What one live workload sends.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    /// Use cases, cycled per request.
    pub use_cases: &'static [UseCase],
    /// `Corpus::generate_sized` body size in bytes.
    pub body_size: usize,
    /// `Connection: close` and a fresh TCP connection per request.
    pub one_shot: bool,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Closed loop against an in-process `aon_serve::Server` over loopback.
    Live(LiveSpec),
    /// `aon_bench::perf::run` over the paper's 5 x 5 grid.
    Sim,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// Variants per corpus: the paper's eight, cycled.
pub const CORPUS_VARIANTS: usize = 8;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fr_1k_keepalive",
        kind: Kind::Live(LiveSpec { use_cases: &[UseCase::Fr], body_size: 1024, one_shot: false }),
    },
    Workload {
        name: "sv_5k_keepalive",
        kind: Kind::Live(LiveSpec {
            use_cases: &[UseCase::Sv],
            body_size: 5 * 1024,
            one_shot: false,
        }),
    },
    Workload {
        name: "cbr_64k_keepalive",
        kind: Kind::Live(LiveSpec {
            use_cases: &[UseCase::Cbr],
            body_size: 64 * 1024,
            one_shot: false,
        }),
    },
    Workload {
        name: "mixed_5k_oneshot",
        kind: Kind::Live(LiveSpec {
            use_cases: &[UseCase::Fr, UseCase::Cbr, UseCase::Sv],
            body_size: 5 * 1024,
            one_shot: true,
        }),
    },
    Workload { name: "sim_grid_full", kind: Kind::Sim },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric; every workload reports every one.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "req_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "latency_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// Which workloads measure a per-layer metric; the others print it as 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    All,
    Live,
    Sim,
}

impl On {
    pub fn applies(self, kind: &Kind) -> bool {
        matches!((self, kind), (On::All, _) | (On::Live, Kind::Live(_)) | (On::Sim, Kind::Sim))
    }
}

/// A per-layer metric, measured only in the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub on: On,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, on: On) -> PerLayer {
    PerLayer { name, unit, better, on }
}

pub const PER_LAYER: [PerLayer; 60] = [
    // The harness's own spans around its calls: how much of the latency
    // is the generator.
    layer("client.connect_us_p50", "us", Lower, On::Live),
    layer("client.write_us_p50", "us", Lower, On::Live),
    layer("client.wait_us_p50", "us", Lower, On::Live),
    layer("client.latency_p99_us", "us", Lower, On::Live),
    layer("client.latency_max_us", "us", Lower, On::Live),
    layer("client.samples", "count", Higher, On::Live),
    layer("client.reconnects", "count", Lower, On::Live),
    layer("client.payload_mbps", "Mbit/s", Higher, On::Live),
    layer("client.cpu_us_per_req", "us", Lower, On::Live),
    // The pool seen from outside: /proc schedstat per named thread,
    // Server::stats(), and the counting allocator.
    layer("serve.worker_cpu_us_per_req", "us", Lower, On::Live),
    layer("serve.worker_busy_share", "share", Higher, On::Live),
    layer("serve.worker_runq_wait_share", "share", Lower, On::Live),
    layer("serve.accept_cpu_us_per_conn", "us", Lower, On::Live),
    layer("serve.background_cpu_share", "share", Lower, On::Live),
    layer("serve.accepted", "count", Higher, On::Live),
    layer("serve.queue_depth_hwm", "count", Lower, On::Live),
    layer("serve.dropped_backlog", "count", Lower, On::Live),
    layer("serve.requests_shed", "count", Lower, On::Live),
    layer("serve.count_mismatch", "count", Lower, On::Live),
    layer("serve.allocs_per_req", "count", Lower, On::Live),
    layer("serve.alloc_bytes_per_req", "B", Lower, On::Live),
    layer("serve.residual_us", "us", Lower, On::Live),
    layer("serve.residual_share", "share", Lower, On::Live),
    layer("obs.planes_cost_us_per_req", "us", Lower, On::Live),
    // Inline replay, one thread, in memory: median and minimum per message.
    layer("net.wire.read_frame_ns", "ns", Lower, On::Live),
    layer("net.wire.read_frame_min_ns", "ns", Lower, On::Live),
    layer("server.http.parse_request_ns", "ns", Lower, On::Live),
    layer("server.http.parse_request_min_ns", "ns", Lower, On::Live),
    layer("server.engine.process_ns", "ns", Lower, On::Live),
    layer("server.engine.process_min_ns", "ns", Lower, On::Live),
    layer("xml.parse_ns", "ns", Lower, On::Live),
    layer("xml.parse_min_ns", "ns", Lower, On::Live),
    layer("xml.xpath_ns", "ns", Lower, On::Live),
    layer("xml.xpath_min_ns", "ns", Lower, On::Live),
    layer("xml.validate_ns", "ns", Lower, On::Live),
    layer("xml.validate_min_ns", "ns", Lower, On::Live),
    layer("server.engine.self_ns", "ns", Lower, On::Live),
    layer("server.engine.self_min_ns", "ns", Lower, On::Live),
    layer("server.http.build_response_ns", "ns", Lower, On::Live),
    layer("server.http.build_response_min_ns", "ns", Lower, On::Live),
    layer("net.wire.write_all_ns", "ns", Lower, On::Live),
    layer("net.wire.write_all_min_ns", "ns", Lower, On::Live),
    // Kernels beside the layers.
    layer("xml.scan.bytes_per_ns", "B/ns", Higher, On::Live),
    layer("xml.parse_bytes_per_ns", "B/ns", Higher, On::Live),
    layer("net.acceptq.push_pop_ns", "ns", Lower, On::Live),
    layer("net.acceptq.handoff_us", "us", Lower, On::Live),
    // The floor no change to this repository can go below.
    layer("os.loopback_rtt_us", "us", Lower, On::Live),
    layer("os.connect_accept_close_us", "us", Lower, On::Live),
    // The simulator half.
    layer("core.record_s", "s", Lower, On::Sim),
    layer("sim.replay_s", "s", Lower, On::Sim),
    layer("core.report_s", "s", Lower, On::Sim),
    layer("sim.cells_per_s", "1/s", Higher, On::Sim),
    layer("sim.cycles_per_host_s", "1/s", Higher, On::Sim),
    layer("sim.cycles_total", "count", Higher, On::Sim),
    layer("sim.shape_passed", "count", Higher, On::Sim),
    layer("core.memo_hits", "count", Higher, On::Sim),
    layer("core.memo_misses", "count", Lower, On::Sim),
    // So a disturbed run is visible as such.
    layer("host.steal_share", "share", Lower, On::All),
    layer("host.nproc", "count", Higher, On::All),
    layer("trace.overhead_pct", "%", Lower, On::Live),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(list: &Value) -> Vec<&str> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap())
            .collect()
    }

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &all {
            assert!(is_name(n), "{n:?} is not [A-Za-z0-9][A-Za-z0-9_.-]*");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
    }

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let b = benchmark_json();
        assert_eq!(
            names(b.get("workloads").unwrap()),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        let e2e = b.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(j.get("better").and_then(Value::as_str), Some(m.better.label()));
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let layers = b.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(j.get("better").and_then(Value::as_str), Some(m.better.label()));
        }
        assert_eq!(b.get("paths").unwrap().as_arr().unwrap(), [Value::Str("benchmark".into())]);
    }
}
