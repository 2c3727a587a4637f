//! Determinism equivalence suite for the pipeline's fast paths.
//!
//! The memoized trace recording and the pooled grid are each checked
//! against a slow reference. The memo can only go wrong by returning the
//! wrong recording (one wiring function replays whatever it is handed), so
//! it is checked recording by recording against a fresh `record_*` for
//! every workload kind; the pool runs both sides on three platforms and two
//! workloads and demands **byte-identical** [`PerfCounters`] (full struct
//! equality on the aggregate and every per-CPU block). The replay
//! interpreter has no second implementation to compare with: its counters
//! are pinned by literals in `replay_pinned` and in `aon-sim`'s
//! `every_op_kind_and_count_is_pinned`.

use aon_core::experiment::{measure, run_cell, run_grid, ExperimentConfig, Measurement};
use aon_core::memo::{self, CorpusSpec};
use aon_core::workload::WorkloadKind;
use aon_net::netperf::{build_netperf_loopback, record_netperf};
use aon_server::app::{build_server, record_server};
use aon_server::corpus::Corpus;
use aon_sim::config::Platform;
use aon_sim::machine::Machine;
use aon_sim::stats::MachineStats;

/// Platforms spanning both microarchitectures and both multi-unit styles.
const PLATFORMS: [Platform; 3] =
    [Platform::OneCorePentiumM, Platform::TwoCorePentiumM, Platform::TwoLogicalXeon];

/// A CPU-bound server case and an I/O-bound baseline.
const WORKLOADS: [WorkloadKind; 2] = [WorkloadKind::Sv, WorkloadKind::NetperfLoopback];

/// Every workload kind, the two extensions included.
const EVERY_KIND: [WorkloadKind; 7] = [
    WorkloadKind::NetperfLoopback,
    WorkloadKind::NetperfE2E,
    WorkloadKind::Fr,
    WorkloadKind::Cbr,
    WorkloadKind::Sv,
    WorkloadKind::Dpi,
    WorkloadKind::Crypto,
];

fn assert_stats_identical(a: &MachineStats, b: &MachineStats, what: &str) {
    assert_eq!(a.total, b.total, "{what}: aggregate counters must be byte-identical");
    assert_eq!(a.per_cpu, b.per_cpu, "{what}: per-CPU counters must be byte-identical");
    assert_eq!(a.cycles, b.cycles, "{what}: measured windows must agree");
    assert_eq!(a.completed_units, b.completed_units, "{what}: completed units must agree");
    assert_eq!(a.completed_bytes, b.completed_bytes, "{what}: completed bytes must agree");
}

fn fresh_corpus(cfg: &ExperimentConfig) -> Corpus {
    Corpus::generate(cfg.corpus_seed, cfg.corpus_variants)
}

#[test]
fn memoized_traces_match_fresh_recordings() {
    let cfg = ExperimentConfig::quick();
    let corpus = fresh_corpus(&cfg);
    for w in EVERY_KIND {
        match w.use_case() {
            Some(uc) => {
                let memoized = memo::server_recording(uc, CorpusSpec::of(&cfg));
                let fresh = record_server(uc, &corpus);
                assert_eq!(memoized.fingerprint(), fresh.fingerprint(), "{w}: traces differ");
                assert_eq!(memoized.msg_len, fresh.msg_len, "{w}: message lengths differ");
            }
            None => {
                let memoized = memo::netperf_recording();
                assert_eq!(memoized.fingerprint(), record_netperf().fingerprint(), "{w}");
            }
        }
    }
}

#[test]
fn memoized_cells_match_freshly_recorded_cells() {
    let cfg = ExperimentConfig::quick();
    for p in PLATFORMS {
        for w in WORKLOADS {
            let mut machine = Machine::new(p.config());
            match w {
                WorkloadKind::Sv => {
                    let rec = record_server(aon_server::UseCase::Sv, &fresh_corpus(&cfg));
                    build_server(&mut machine, &rec, 100);
                }
                WorkloadKind::NetperfLoopback => {
                    build_netperf_loopback(&mut machine, &record_netperf())
                }
                other => unreachable!("{other} is not in WORKLOADS"),
            }
            let fresh = measure(&mut machine, &cfg);
            assert_stats_identical(
                &run_cell(p, w, &cfg).stats,
                &fresh,
                &format!("memoized vs fresh, {p:?} x {w:?}"),
            );
        }
    }
}

#[test]
fn pooled_grid_matches_serial_grid() {
    let cfg = ExperimentConfig::quick();
    let serial: Vec<Measurement> =
        WORKLOADS.iter().flat_map(|&w| PLATFORMS.map(|p| run_cell(p, w, &cfg))).collect();
    let pooled = run_grid(&PLATFORMS, &WORKLOADS, &cfg);
    assert_eq!(serial.len(), pooled.len());
    for (a, b) in serial.iter().zip(&pooled) {
        assert_eq!(a.platform, b.platform, "grid cell order must be deterministic");
        assert_eq!(a.workload, b.workload, "grid cell order must be deterministic");
        assert_stats_identical(
            &a.stats,
            &b.stats,
            &format!("pooled vs serial, {:?} x {:?}", a.platform, a.workload),
        );
    }
}

#[test]
fn repeated_cells_are_bit_stable() {
    // The memo caches are warm after the first call; the second call must
    // reproduce the first exactly (shared traces cannot drift).
    let cfg = ExperimentConfig::quick();
    for w in WORKLOADS {
        let first = run_cell(Platform::TwoLogicalXeon, w, &cfg);
        let second = run_cell(Platform::TwoLogicalXeon, w, &cfg);
        assert_stats_identical(&first.stats, &second.stats, &format!("repeat, {w:?}"));
    }
}
