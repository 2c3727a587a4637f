//! Trace and corpus memoization across an experiment sweep.
//!
//! A recorded trace depends only on the *workload* side of a cell — the
//! use case, the corpus (seed, variant count, body size) or the netperf
//! send size — never on the platform. The full grid replays the same five
//! recordings on five platform configurations, and a message-size sweep
//! replays each corpus's recording at several operating points; recording
//! them once and sharing the immutable [`Arc`]s is pure saving.
//!
//! Three process-wide caches live here, one per recorded artifact:
//!
//! * generated corpora, keyed by [`CorpusSpec`];
//! * server use-case phase traces, keyed by `(UseCase, CorpusSpec)`;
//! * netperf tx/rx traces, keyed by send size.
//!
//! **Verifiability.** Every cached set answers a combined
//! [`Trace::fingerprint`] on demand ([`ServerRecording::fingerprint`],
//! [`NetperfRecording::fingerprint`]), computed from its shared `Arc`s.
//! The traces behind them are immutable, so the fingerprint *cannot*
//! drift, and recording pays no hashing pass that only tests read. The
//! equivalence suite re-records from scratch and checks the fingerprints
//! (and the resulting [`aon_sim::counters::PerfCounters`]) match, so
//! "memoized" is a proven no-op rather than an article of faith. [`stats`]
//! exposes hit/miss counts so harnesses can report how much recording was
//! shared.
//!
//! **Concurrency.** The caches are safe to fill from several threads at
//! once, as the pooled record phase of `aon-bench` does. A corpus and a
//! netperf recording are made under their cache lock, so concurrent
//! callers wait for them and then hit. A server recording is made outside
//! its lock, so a race costs at worst a wasted duplicate, and the first
//! insert wins for every caller.

use aon_net::netperf::{record_netperf_traces, NetperfConfig};
use aon_server::app::record_server_traces;
use aon_server::corpus::Corpus;
use aon_server::usecase::UseCase;
use aon_trace::trace::Trace;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything corpus generation depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// A memoized server recording: the shared traces and the message length
/// they were recorded at.
#[derive(Debug, Clone)]
pub struct ServerRecording {
    /// Per variant, the labelled phase traces of one message.
    pub traces: Arc<Vec<Vec<Arc<Trace>>>>,
    /// Largest HTTP message length in the corpus (ring arithmetic).
    pub msg_len: u32,
}

impl ServerRecording {
    /// Combined fingerprint of every phase trace, in order.
    pub fn fingerprint(&self) -> u64 {
        server_fingerprint(&self.traces)
    }
}

/// A memoized netperf recording.
#[derive(Debug, Clone)]
pub struct NetperfRecording {
    /// Transmit-side trace.
    pub tx: Arc<Trace>,
    /// Receive-side trace.
    pub rx: Arc<Trace>,
}

impl NetperfRecording {
    /// Combined fingerprint of both traces.
    pub fn fingerprint(&self) -> u64 {
        (self.tx.fingerprint() ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(self.rx.fingerprint() | 1)
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

// audit:role(counter): monotonic memo hits; read for reporting only
static CORPUS_HITS: AtomicU64 = AtomicU64::new(0);
// audit:role(counter): monotonic memo misses; read for reporting only
static CORPUS_MISSES: AtomicU64 = AtomicU64::new(0);
// audit:role(counter): monotonic memo hits; read for reporting only
static SERVER_HITS: AtomicU64 = AtomicU64::new(0);
// audit:role(counter): monotonic memo misses; read for reporting only
static SERVER_MISSES: AtomicU64 = AtomicU64::new(0);
// audit:role(counter): monotonic memo hits; read for reporting only
static NETPERF_HITS: AtomicU64 = AtomicU64::new(0);
// audit:role(counter): monotonic memo misses; read for reporting only
static NETPERF_MISSES: AtomicU64 = AtomicU64::new(0);

fn corpus_cache() -> &'static Mutex<HashMap<CorpusSpec, Arc<Corpus>>> {
    // audit:role(lock): init-once via OnceLock, then the mutex guards map access
    static CACHE: OnceLock<Mutex<HashMap<CorpusSpec, Arc<Corpus>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn server_cache() -> &'static Mutex<HashMap<(UseCase, CorpusSpec), ServerRecording>> {
    // audit:role(lock): init-once via OnceLock, then the mutex guards map access
    static CACHE: OnceLock<Mutex<HashMap<(UseCase, CorpusSpec), ServerRecording>>> =
        OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn netperf_cache() -> &'static Mutex<HashMap<u32, NetperfRecording>> {
    // audit:role(lock): init-once via OnceLock, then the mutex guards map access
    static CACHE: OnceLock<Mutex<HashMap<u32, NetperfRecording>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The corpus for `spec`, generated at most once per process.
pub fn corpus(spec: CorpusSpec) -> Arc<Corpus> {
    let mut cache = corpus_cache().lock().expect("corpus cache lock");
    if let Some(c) = cache.get(&spec) {
        CORPUS_HITS.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(c);
    }
    CORPUS_MISSES.fetch_add(1, Ordering::Relaxed);
    let c = Arc::new(spec.generate());
    cache.insert(spec, Arc::clone(&c));
    c
}

/// Fold the fingerprints of a server recording's phase traces, in order.
fn server_fingerprint(traces: &[Vec<Arc<Trace>>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for segs in traces {
        for t in segs {
            h = (h ^ t.fingerprint()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The server recording for `(use_case, spec)`, recorded at most once per
/// process. The corpus itself comes from [`corpus`].
pub fn server_recording(use_case: UseCase, spec: CorpusSpec) -> ServerRecording {
    {
        let cache = server_cache().lock().expect("server trace cache lock");
        if let Some(r) = cache.get(&(use_case, spec)) {
            SERVER_HITS.fetch_add(1, Ordering::Relaxed);
            return r.clone();
        }
    }
    // Record outside the lock: recordings are deterministic, so a racing
    // duplicate is wasted work, not divergence — the first insert wins.
    SERVER_MISSES.fetch_add(1, Ordering::Relaxed);
    let c = corpus(spec);
    let rec = ServerRecording {
        traces: record_server_traces(use_case, &c),
        msg_len: u32::try_from(c.max_http_len()).expect("HTTP messages are KiB-sized"),
    };
    let mut cache = server_cache().lock().expect("server trace cache lock");
    cache.entry((use_case, spec)).or_insert_with(|| rec.clone());
    cache[&(use_case, spec)].clone()
}

/// The netperf recording for a send size, recorded at most once per
/// process.
pub fn netperf_recording(cfg: &NetperfConfig) -> NetperfRecording {
    let mut cache = netperf_cache().lock().expect("netperf trace cache lock");
    if let Some(r) = cache.get(&cfg.send_size) {
        NETPERF_HITS.fetch_add(1, Ordering::Relaxed);
        return r.clone();
    }
    NETPERF_MISSES.fetch_add(1, Ordering::Relaxed);
    let (tx, rx) = record_netperf_traces(cfg);
    let rec = NetperfRecording { tx, rx };
    cache.insert(cfg.send_size, rec.clone());
    rec
}

/// Cumulative cache statistics for this process.
pub fn stats() -> MemoStats {
    MemoStats {
        corpus_hits: CORPUS_HITS.load(Ordering::Relaxed),
        corpus_misses: CORPUS_MISSES.load(Ordering::Relaxed),
        server_hits: SERVER_HITS.load(Ordering::Relaxed),
        server_misses: SERVER_MISSES.load(Ordering::Relaxed),
        netperf_hits: NETPERF_HITS.load(Ordering::Relaxed),
        netperf_misses: NETPERF_MISSES.load(Ordering::Relaxed),
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
        let fresh = record_server_traces(UseCase::Fr, &SPEC.generate());
        assert_eq!(
            cached.fingerprint(),
            server_fingerprint(&fresh),
            "cache content must match what recording from scratch produces"
        );
    }

    #[test]
    fn netperf_recording_is_cached() {
        let cfg = NetperfConfig::default();
        let a = netperf_recording(&cfg);
        let b = netperf_recording(&cfg);
        assert!(Arc::ptr_eq(&a.tx, &b.tx));
        assert!(Arc::ptr_eq(&a.rx, &b.rx));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let (tx, rx) = record_netperf_traces(&cfg);
        assert_eq!(tx.fingerprint(), a.tx.fingerprint());
        assert_eq!(rx.fingerprint(), a.rx.fingerprint());
    }

    #[test]
    fn distinct_specs_do_not_alias() {
        let small = CorpusSpec { body_size: Some(2048), ..SPEC };
        let a = server_recording(UseCase::Sv, SPEC);
        let b = server_recording(UseCase::Sv, small);
        assert_ne!(a.fingerprint(), b.fingerprint(), "different corpora record different work");
    }
}
