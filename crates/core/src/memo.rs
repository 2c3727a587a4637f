//! Trace and corpus memoization across an experiment sweep.
//!
//! A recorded trace depends only on the *workload* side of a cell — the
//! use case and the corpus (seed, variant count, body size) — never on the
//! platform. The full grid replays the same five recordings on five
//! platform configurations, and a message-size sweep replays each corpus's
//! recording at several operating points; recording them once and sharing
//! the immutable [`Arc`]s is pure saving.
//!
//! One cache type, `Memo`, holds each recorded artifact:
//!
//! * generated corpora, keyed by [`CorpusSpec`];
//! * server recordings ([`record_server`]), keyed by `(UseCase, CorpusSpec)`;
//! * the netperf recording ([`record_netperf`]), which has no key.
//!
//! **Verifiability.** A cached recording is exactly what its crate's
//! `record_*` function returned, and every recording answers a combined
//! [`aon_trace::Trace::fingerprint`] on demand
//! ([`ServerRecording::fingerprint`], [`NetperfRecording::fingerprint`]).
//! The equivalence suite records afresh and compares, for every workload,
//! so "memoized" is a proven no-op rather than an article of faith.
//! [`stats`] exposes hit/miss counts so harnesses can report how much
//! recording was shared.
//!
//! **Concurrency.** Each key owns a once-cell. The map lock is held only
//! to find or add that cell, never while recording: callers of one key
//! wait for its single recording and count as hits, and different keys
//! record in parallel, as in the pooled record phase of `aon-bench`. So
//! every key records exactly once and the tally is exact.

use aon_net::netperf::{record_netperf, NetperfRecording};
use aon_server::app::{record_server, ServerRecording};
use aon_server::corpus::Corpus;
use aon_server::usecase::UseCase;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything corpus generation depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CorpusSpec {
    /// Corpus RNG seed.
    pub seed: u64,
    /// Number of message variants.
    pub variants: usize,
    /// Target body size in bytes; `None` is the paper's fixed operating
    /// point ([`Corpus::generate`]'s default).
    pub body_size: Option<usize>,
}

impl CorpusSpec {
    /// The spec an [`crate::experiment::ExperimentConfig`] implies.
    pub fn of(cfg: &crate::experiment::ExperimentConfig) -> CorpusSpec {
        CorpusSpec { seed: cfg.corpus_seed, variants: cfg.corpus_variants, body_size: None }
    }

    fn generate(&self) -> Corpus {
        match self.body_size {
            Some(size) => Corpus::generate_sized(self.seed, self.variants, size),
            None => Corpus::generate(self.seed, self.variants),
        }
    }
}

/// A process-wide cache: per key, one value made at most once, with
/// hit/miss counters.
struct Memo<K, V> {
    // audit:role(lock): guards only the key -> cell map, never a recording
    cells: Mutex<BTreeMap<K, Arc<OnceLock<V>>>>,
    // audit:role(counter): monotonic; read for reporting only
    hits: AtomicU64,
    // audit:role(counter): monotonic; read for reporting only
    misses: AtomicU64,
}

impl<K: Ord, V: Clone> Memo<K, V> {
    /// An empty cache (usable in a `static`).
    const fn new() -> Self {
        Memo {
            cells: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The value for `key`, made by `make` on the first call. Concurrent
    /// callers of the same key wait for that one call and count as hits.
    fn get(&self, key: K, make: impl FnOnce() -> V) -> V {
        let cell = Arc::clone(self.cells.lock().expect("memo map lock").entry(key).or_default());
        let mut made = false;
        let v = cell.get_or_init(|| {
            made = true;
            make()
        });
        if made {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        v.clone()
    }

    /// `(hits, misses)` so far.
    fn tally(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

/// Cache hit/miss counts, cumulative for the process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Corpus cache hits.
    pub corpus_hits: u64,
    /// Corpus cache misses (generations performed).
    pub corpus_misses: u64,
    /// Server trace cache hits.
    pub server_hits: u64,
    /// Server trace cache misses (recordings performed).
    pub server_misses: u64,
    /// Netperf trace cache hits.
    pub netperf_hits: u64,
    /// Netperf trace cache misses (recordings performed).
    pub netperf_misses: u64,
}

static CORPORA: Memo<CorpusSpec, Arc<Corpus>> = Memo::new();
static SERVER: Memo<(UseCase, CorpusSpec), ServerRecording> = Memo::new();
static NETPERF: Memo<(), NetperfRecording> = Memo::new();

/// The corpus for `spec`, generated at most once per process.
fn corpus(spec: CorpusSpec) -> Arc<Corpus> {
    CORPORA.get(spec, || Arc::new(spec.generate()))
}

/// The server recording for `(use_case, spec)`, recorded at most once per
/// process, over a corpus generated at most once per process.
pub fn server_recording(use_case: UseCase, spec: CorpusSpec) -> ServerRecording {
    SERVER.get((use_case, spec), || record_server(use_case, &corpus(spec)))
}

/// The netperf recording, recorded at most once per process.
pub fn netperf_recording() -> NetperfRecording {
    NETPERF.get((), record_netperf)
}

/// Cumulative cache statistics for this process.
pub fn stats() -> MemoStats {
    let (corpus_hits, corpus_misses) = CORPORA.tally();
    let (server_hits, server_misses) = SERVER.tally();
    let (netperf_hits, netperf_misses) = NETPERF.tally();
    MemoStats {
        corpus_hits,
        corpus_misses,
        server_hits,
        server_misses,
        netperf_hits,
        netperf_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: CorpusSpec = CorpusSpec { seed: 9_427, variants: 2, body_size: None };

    #[test]
    fn corpus_is_cached_and_shared() {
        let a = corpus(SPEC);
        let b = corpus(SPEC);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the first generation");
    }

    #[test]
    fn server_recording_hits_return_the_same_traces() {
        let a = server_recording(UseCase::Cbr, SPEC);
        let b = server_recording(UseCase::Cbr, SPEC);
        assert!(Arc::ptr_eq(&a.traces, &b.traces));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn cached_fingerprint_matches_a_fresh_recording() {
        let cached = server_recording(UseCase::Fr, SPEC);
        let fresh = record_server(UseCase::Fr, &SPEC.generate());
        assert_eq!(
            cached.fingerprint(),
            fresh.fingerprint(),
            "cache content must match what recording from scratch produces"
        );
    }

    #[test]
    fn netperf_recording_is_cached() {
        let a = netperf_recording();
        let b = netperf_recording();
        assert!(Arc::ptr_eq(&a.tx, &b.tx));
        assert!(Arc::ptr_eq(&a.rx, &b.rx));
        assert_eq!(a.fingerprint(), record_netperf().fingerprint());
    }

    #[test]
    fn distinct_specs_do_not_alias() {
        let small = CorpusSpec { body_size: Some(2048), ..SPEC };
        let a = server_recording(UseCase::Sv, SPEC);
        let b = server_recording(UseCase::Sv, small);
        assert_ne!(a.fingerprint(), b.fingerprint(), "different corpora record different work");
    }
}
