//! Continuous worker-state profiling: where the worker pool's *wall
//! time* goes.
//!
//! The paper decomposes where cycles go per use case; the stage
//! histograms ([`crate::stage`]) decompose where *service time* goes.
//! What neither shows is what the pool does when it is **not** serving:
//! idle keep-alive pinning, waiting in `accept(2)`, blocked reads — exactly
//! the evidence the C10k rearchitecture needs. This module closes that
//! gap with a statistical profiler built from the same dependency-free
//! parts as the rest of the crate:
//!
//! * each worker's per-request recorder ([`crate::record::Recorder`])
//!   publishes its current [`WorkerState`] into a per-worker atomic slot
//!   ([`WorkerSlots`]) at the boundaries it already reads the clock for;
//! * a sampler thread walks the slots at a configurable rate
//!   ([`ProfilerConfig::sample_hz`]) and accumulates
//!   `aon_worker_state_samples_total{state}` counters, per-worker
//!   utilization gauges, and a pool-saturation gauge;
//! * the per-(context × state) table renders as a folded-stack dump
//!   (`use_case;state count`, one line each) that `flamegraph.pl`
//!   consumes directly.
//!
//! Sampling bias caveats: the profiler sees the state each worker is in
//! *at the sampling instant*, so states shorter than the sampling period
//! are attributed probabilistically (correct in expectation, noisy for
//! small counts), and a worker that transitions between samples simply
//! was not observed in the intermediate state. The default rate is a
//! prime 97 Hz so the sampler cannot phase-lock with millisecond-aligned
//! periodic work (a client's think time, a scraper). A sleep-based sampler
//! has a deeper bias on an oversubscribed (or single-CPU, or stolen-time
//! virtualized) host: its wakeups are granted by the scheduler, which
//! hands out the CPU preferentially at points where workers just
//! *blocked* — so busy states are systematically under-sampled exactly
//! when the machine is busiest. The slots therefore also keep an
//! **exact** time-in-state ledger: each publish charges the wall time
//! since the previous publish to the *outgoing* state's class (busy /
//! in-service), owner-thread-only writes. A publish takes its timestamp
//! from the caller — the same clock read that opens or closes the
//! request's service-time span — so the in-service ledger and the
//! service-time histogram are sums of the same differences: `L` and
//! `λ·W` agree to the nanosecond by construction. The sampled table
//! remains the folded/flamegraph source, and the Little's-law check is
//! what says how far the *sampled* estimate strays from the ledger.
//!
//! The sampler follows the probe-and-degrade discipline of the hardware
//! plane: if sampling passes persistently overrun the sampling period
//! (`aon_profiler_overruns_total`), the loop marks itself inactive
//! (`aon_profiler_active 0`) and stops rather than distort the workload
//! it is measuring.
//!
//! This file is on the `aon-audit` cast-enforced list.

use crate::metric::{Counter, Gauge};
use crate::registry::Registry;
use crate::stage::Stage;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of worker states (array dimension for per-state tables).
pub const STATE_COUNT: usize = 11;

/// What a worker thread is doing right now: the six pipeline stages
/// (reusing [`Stage`] semantics) plus the pool-level states around them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Not running (worker exited, or slot never written).
    Idle,
    /// Blocked in `accept(2)` — no connection to serve. Its share is the
    /// pool's spare capacity.
    AcceptWait,
    /// Blocked reading a request frame (idle keep-alive pinning lives
    /// here: the connection holds the worker but sends nothing).
    ReadWait,
    /// UTF-8 validation + XML parse ([`Stage::Parse`]).
    Parse,
    /// XPath evaluation ([`Stage::XPath`]).
    Xpath,
    /// Schema validation ([`Stage::Validate`]).
    Validate,
    /// Signature scan ([`Stage::Dpi`]).
    Dpi,
    /// HMAC authentication ([`Stage::Crypto`]).
    Crypto,
    /// Response serialization + socket write ([`Stage::Write`]).
    Write,
    /// Writing the FR-only filter's 503 refusal.
    Shed,
    /// Serving an admin endpoint (`/metrics`, `/profile.folded`, …).
    Admin,
}

impl WorkerState {
    /// Every state, in slot-index order.
    pub const ALL: [WorkerState; STATE_COUNT] = [
        WorkerState::Idle,
        WorkerState::AcceptWait,
        WorkerState::ReadWait,
        WorkerState::Parse,
        WorkerState::Xpath,
        WorkerState::Validate,
        WorkerState::Dpi,
        WorkerState::Crypto,
        WorkerState::Write,
        WorkerState::Shed,
        WorkerState::Admin,
    ];

    /// Stable label (Prometheus label value, folded-stack frame).
    pub fn label(self) -> &'static str {
        match self {
            WorkerState::Idle => "idle",
            WorkerState::AcceptWait => "accept_wait",
            WorkerState::ReadWait => "read_wait",
            WorkerState::Parse => "parse",
            WorkerState::Xpath => "xpath",
            WorkerState::Validate => "validate",
            WorkerState::Dpi => "dpi",
            WorkerState::Crypto => "crypto",
            WorkerState::Write => "write",
            WorkerState::Shed => "shed",
            WorkerState::Admin => "admin",
        }
    }

    /// Dense index in `0..STATE_COUNT`.
    pub fn index(self) -> usize {
        match self {
            WorkerState::Idle => 0,
            WorkerState::AcceptWait => 1,
            WorkerState::ReadWait => 2,
            WorkerState::Parse => 3,
            WorkerState::Xpath => 4,
            WorkerState::Validate => 5,
            WorkerState::Dpi => 6,
            WorkerState::Crypto => 7,
            WorkerState::Write => 8,
            WorkerState::Shed => 9,
            WorkerState::Admin => 10,
        }
    }

    /// The state a pipeline stage corresponds to.
    pub fn from_stage(stage: Stage) -> WorkerState {
        match stage {
            Stage::Parse => WorkerState::Parse,
            Stage::XPath => WorkerState::Xpath,
            Stage::Validate => WorkerState::Validate,
            Stage::Dpi => WorkerState::Dpi,
            Stage::Crypto => WorkerState::Crypto,
            Stage::Write => WorkerState::Write,
        }
    }

    fn from_index(i: u64) -> WorkerState {
        usize::try_from(i)
            .ok()
            .and_then(|i| WorkerState::ALL.get(i).copied())
            .unwrap_or(WorkerState::Idle)
    }

    /// True when the worker is *occupied*: anything but blocked in
    /// `accept(2)` or exited. `ReadWait` counts as busy — a worker
    /// pinned by an idle keep-alive connection cannot serve anyone else,
    /// which is precisely the C10k saturation signal.
    pub fn is_busy(self) -> bool {
        !matches!(self, WorkerState::Idle | WorkerState::AcceptWait)
    }

    /// True when a (non-admin) request is actually in service — the `L`
    /// of the Little's-law check. Excludes `ReadWait` (no request exists
    /// yet) and `Admin` (admin hits are excluded from λ and W too).
    pub fn in_service(self) -> bool {
        matches!(
            self,
            WorkerState::Parse
                | WorkerState::Xpath
                | WorkerState::Validate
                | WorkerState::Dpi
                | WorkerState::Crypto
                | WorkerState::Write
                | WorkerState::Shed
        )
    }
}

/// One atomic slot per worker, each packing `(context, state)` where
/// `context` is an embedder-defined small index (the server uses
/// use-case index + 1, with 0 meaning "no use case"). Publishing is a
/// single relaxed store; the sampler reads with single relaxed loads, so
/// a read is always *some* recently-published state, never torn.
#[derive(Debug)]
pub struct WorkerSlots {
    // audit:role(gauge): last-write-wins packed (context << 8 | state)
    // per worker; Relaxed by design — the sampler reads a statistically
    // representative point-in-time state, not a synchronized one
    slots: Vec<AtomicU64>,
    // audit:role(gauge): per-worker timestamp of the last publish;
    // written only by the owning worker, Relaxed by design — readers
    // only ever see it through the cumulative ledgers below
    last_ns: Vec<AtomicU64>,
    // audit:role(counter): exact cumulative busy wall-nanoseconds per
    // worker (outgoing-state attribution); owner-thread writes, Relaxed
    // reads are a statistical scrape
    busy_ns: Vec<AtomicU64>,
    // audit:role(counter): exact cumulative in-service wall-nanoseconds
    // per worker (the Little's-law `L` ledger); owner-thread writes,
    // Relaxed reads are a statistical scrape
    in_service_ns: Vec<AtomicU64>,
}

impl WorkerSlots {
    /// Slots for `workers` threads, all starting [`WorkerState::Idle`].
    pub fn new(workers: usize) -> WorkerSlots {
        WorkerSlots {
            slots: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            last_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            in_service_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Publish worker `worker`'s state as of `now_ns`, the caller's clock
    /// read for the boundary (nanoseconds on one monotonic clock of the
    /// caller's choosing; only differences are used). Contexts above 255
    /// clamp (the packing reserves one byte for the state). Out-of-range
    /// workers are ignored (defensive; the server sizes slots to the
    /// pool).
    ///
    /// Besides the point-in-time slot store, each publish settles the
    /// exact ledger: the time since this worker's previous publish is
    /// charged to the state it is *leaving* (busy and/or in-service).
    /// Only the owning worker publishes, so the read-modify-write on its
    /// ledger cells is single-writer.
    pub fn publish(&self, worker: usize, ctx: usize, state: WorkerState, now_ns: u64) {
        if worker >= self.slots.len() {
            return;
        }
        let last = self.last_ns[worker].swap(now_ns, Ordering::Relaxed);
        let prev = WorkerState::from_index(self.slots[worker].load(Ordering::Relaxed) & 0xff);
        let delta = now_ns.saturating_sub(last);
        if prev.is_busy() {
            self.busy_ns[worker].fetch_add(delta, Ordering::Relaxed);
        }
        if prev.in_service() {
            self.in_service_ns[worker].fetch_add(delta, Ordering::Relaxed);
        }
        let ctx = u64::try_from(ctx.min(255)).expect("clamped ctx fits u64");
        let state = u64::try_from(state.index()).expect("state index fits u64");
        self.slots[worker].store((ctx << 8) | state, Ordering::Relaxed);
    }

    /// Read worker `worker`'s last-published `(context, state)`.
    pub fn read(&self, worker: usize) -> (usize, WorkerState) {
        if worker >= self.slots.len() {
            return (0, WorkerState::Idle);
        }
        let v = self.slots[worker].load(Ordering::Relaxed);
        let ctx = usize::try_from(v >> 8).unwrap_or(0);
        (ctx, WorkerState::from_index(v & 0xff))
    }

    /// Exact cumulative busy wall-nanoseconds across the pool (settled
    /// state spans only — a span is charged when the worker leaves it).
    pub fn busy_ns_total(&self) -> u64 {
        (0..self.busy_ns.len()).map(|w| self.busy_ns[w].load(Ordering::Relaxed)).sum()
    }

    /// Exact cumulative in-service wall-nanoseconds across the pool —
    /// the Little's-law `L` ledger (`L = Δin_service_ns / Δwall_ns`).
    pub fn in_service_ns_total(&self) -> u64 {
        (0..self.in_service_ns.len()).map(|w| self.in_service_ns[w].load(Ordering::Relaxed)).sum()
    }

    /// Number of worker slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Sampler deployment parameters.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Master switch. Off = no sampler thread, no slot stores on the
    /// request path, no profiler metric families — zero cost.
    pub enabled: bool,
    /// Sampling rate in Hz. The default 97 is prime, so the sampler
    /// cannot phase-lock with millisecond-aligned periodic work.
    pub sample_hz: u32,
}

/// Consecutive sampling-pass overruns (pass duration exceeding the
/// sampling period) after which the sampler degrades to inactive.
pub const MAX_CONSECUTIVE_OVERRUNS: u32 = 64;

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig { enabled: true, sample_hz: 97 }
    }
}

impl ProfilerConfig {
    /// The sampling period (`1 / sample_hz`; a zero rate clamps to 1 Hz).
    pub fn interval(&self) -> Duration {
        Duration::from_nanos(1_000_000_000 / u64::from(self.sample_hz.max(1)))
    }
}

/// The statistical profile accumulator: owns the worker slots, the
/// per-(context × state) sample table behind `GET /profile.folded`, and
/// the registered metric families. [`Profiler::sample_once`] is the
/// entire sampling pass — the thread loop around it lives in the server
/// so tests can drive passes deterministically.
#[derive(Debug)]
pub struct Profiler {
    cfg: ProfilerConfig,
    slots: WorkerSlots,
    ctx_labels: Vec<&'static str>,
    /// `counts[ctx][state]` — the folded-stack source (unregistered;
    /// the registered view aggregates over contexts).
    counts: Vec<[Counter; STATE_COUNT]>,
    state_samples: [Arc<Counter>; STATE_COUNT],
    worker_busy: Vec<Counter>,
    worker_utilization: Vec<Arc<Gauge>>,
    saturation: Arc<Gauge>,
    pool_busy_ns: Arc<Gauge>,
    pool_in_service_ns: Arc<Gauge>,
    passes: Arc<Counter>,
    overruns: Arc<Counter>,
    active: Arc<Gauge>,
}

impl Profiler {
    /// Build the profiler for a pool of `workers` threads and register
    /// its metric families. `ctx_labels[0]` names the "no context" slot
    /// value; the embedder maps its own small indices onto the rest.
    pub fn new(
        cfg: ProfilerConfig,
        workers: usize,
        ctx_labels: Vec<&'static str>,
        registry: &Registry,
    ) -> Profiler {
        assert!(!ctx_labels.is_empty(), "at least the no-context label is required");
        let state_samples = std::array::from_fn(|i| {
            registry.counter(
                "aon_worker_state_samples_total",
                "Sampled worker states (one sample per worker per pass)",
                &[("state", WorkerState::ALL[i].label())],
            )
        });
        let worker_utilization = (0..workers)
            .map(|w| {
                let label = w.to_string();
                registry.gauge(
                    "aon_worker_utilization_permille",
                    "Per-worker busy fraction over all samples, in permille",
                    &[("worker", label.as_str())],
                )
            })
            .collect();
        Profiler {
            slots: WorkerSlots::new(workers),
            counts: ctx_labels.iter().map(|_| std::array::from_fn(|_| Counter::new())).collect(),
            ctx_labels,
            state_samples,
            worker_busy: (0..workers).map(|_| Counter::new()).collect(),
            worker_utilization,
            saturation: registry.gauge(
                "aon_pool_saturation_permille",
                "Busy workers over pool size at the last sampling pass, in permille",
                &[],
            ),
            pool_busy_ns: registry.gauge(
                "aon_pool_busy_ns",
                "Exact cumulative busy wall-nanoseconds across the pool \
                 (refreshed each sampling pass)",
                &[],
            ),
            pool_in_service_ns: registry.gauge(
                "aon_pool_in_service_ns",
                "Exact cumulative in-service wall-nanoseconds across the pool \
                 (refreshed each sampling pass; the Little's-law L ledger)",
                &[],
            ),
            passes: registry.counter(
                "aon_profiler_passes_total",
                "Completed sampling passes over the worker slots",
                &[],
            ),
            overruns: registry.counter(
                "aon_profiler_overruns_total",
                "Sampling passes that overran the sampling period",
                &[],
            ),
            active: registry.gauge(
                "aon_profiler_active",
                "1 while the sampler runs, 0 after probe-and-degrade stopped it",
                &[],
            ),
            cfg,
        }
    }

    /// The sampler's configuration.
    pub fn config(&self) -> &ProfilerConfig {
        &self.cfg
    }

    /// The worker slots to publish states into.
    pub fn slots(&self) -> &WorkerSlots {
        &self.slots
    }

    /// One sampling pass: read every worker slot once, accumulate the
    /// state and context tables, and refresh the utilization and
    /// saturation gauges. No locks, no allocation.
    pub fn sample_once(&self) {
        let mut busy_now = 0u64;
        for w in 0..self.slots.len() {
            let (ctx, state) = self.slots.read(w);
            let ctx = ctx.min(self.counts.len() - 1);
            self.counts[ctx][state.index()].inc();
            self.state_samples[state.index()].inc();
            if state.is_busy() {
                busy_now += 1;
                self.worker_busy[w].inc();
            }
        }
        self.passes.inc();
        let passes = self.passes.get();
        for (busy, gauge) in self.worker_busy.iter().zip(self.worker_utilization.iter()) {
            gauge.set(busy.get().saturating_mul(1000) / passes.max(1));
        }
        let workers = u64::try_from(self.slots.len()).unwrap_or(u64::MAX);
        self.saturation.set(busy_now.saturating_mul(1000) / workers.max(1));
        self.pool_busy_ns.set(self.slots.busy_ns_total());
        self.pool_in_service_ns.set(self.slots.in_service_ns_total());
    }

    /// Completed sampling passes.
    pub fn passes(&self) -> u64 {
        self.passes.get()
    }

    /// Pool saturation at the last pass, in permille.
    pub fn saturation_permille(&self) -> u64 {
        self.saturation.get()
    }

    /// Per-worker busy fraction over all passes, in permille.
    pub fn worker_utilization_permille(&self) -> Vec<u64> {
        self.worker_utilization.iter().map(|g| g.get()).collect()
    }

    /// Count one sampling-pass overrun.
    pub fn note_overrun(&self) {
        self.overruns.inc();
    }

    /// Publish whether the sampler is running (probe-and-degrade edge).
    pub fn set_active(&self, on: bool) {
        self.active.set(u64::from(on));
    }

    /// The folded-stack dump: one `context;state count` line per
    /// non-zero cell, contexts in registration order, states in
    /// [`WorkerState::ALL`] order — deterministic for a given sample
    /// table, and directly consumable by `flamegraph.pl`.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (ci, label) in self.ctx_labels.iter().enumerate() {
            for state in WorkerState::ALL {
                let c = self.counts[ci][state.index()].get();
                if c > 0 {
                    let _ = writeln!(out, "{label};{} {c}", state.label());
                }
            }
        }
        out
    }
}

/// The Little's-law consistency check: in a stable system, the mean
/// number of requests in service `L` equals arrival rate `λ` times mean
/// time in service `W`. The profiler measures `L` one way (state
/// samples) and the existing request counters and service histograms
/// measure `λ·W` another — agreement is evidence both planes are honest.
#[derive(Debug, Clone, Copy)]
pub struct LittlesLaw {
    /// Completed requests per second over the window (`λ`).
    pub lambda_per_sec: f64,
    /// Mean time in service over the window, in seconds (`W`).
    pub w_secs: f64,
    /// Mean requests in service observed by the sampler (`L`).
    pub l_observed: f64,
}

impl LittlesLaw {
    /// The law's prediction for `L` from the measured `λ` and `W`.
    pub fn l_predicted(&self) -> f64 {
        self.lambda_per_sec * self.w_secs
    }

    /// Relative disagreement `|λW − L| / max(λW, L)` in `0..=1`
    /// (0 when both sides are ~zero: an idle system trivially agrees).
    pub fn gap_fraction(&self) -> f64 {
        let predicted = self.l_predicted();
        let denom = predicted.max(self.l_observed);
        if denom < 1e-9 {
            return 0.0;
        }
        (predicted - self.l_observed).abs() / denom
    }

    /// True when the two sides agree within `tolerance` (e.g. `0.15`).
    pub fn within(&self, tolerance: f64) -> bool {
        self.gap_fraction() <= tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_labels_and_indices_are_dense_and_unique() {
        let mut seen = [false; STATE_COUNT];
        for s in WorkerState::ALL {
            assert!(!seen[s.index()], "index collision at {s:?}");
            seen[s.index()] = true;
            assert!(!s.label().is_empty());
        }
        assert!(seen.iter().all(|&b| b));
        // Stage states round-trip through the Stage mapping.
        for stage in Stage::ALL {
            let st = WorkerState::from_stage(stage);
            assert_eq!(st.label(), stage.label());
            assert!(st.is_busy() && st.in_service());
        }
        assert!(!WorkerState::Idle.is_busy());
        assert!(!WorkerState::AcceptWait.is_busy());
        assert!(WorkerState::ReadWait.is_busy(), "keep-alive pinning is occupancy");
        assert!(!WorkerState::ReadWait.in_service(), "no request exists while reading");
        assert!(!WorkerState::Admin.in_service(), "admin is excluded from the law's L");
        assert!(WorkerState::Shed.in_service());
    }

    #[test]
    fn slots_roundtrip_context_and_state() {
        let slots = WorkerSlots::new(3);
        assert_eq!(slots.len(), 3);
        slots.publish(0, 4, WorkerState::Crypto, 0);
        slots.publish(2, 0, WorkerState::ReadWait, 0);
        assert_eq!(slots.read(0), (4, WorkerState::Crypto));
        assert_eq!(slots.read(1), (0, WorkerState::Idle), "unpublished slot reads Idle");
        assert_eq!(slots.read(2), (0, WorkerState::ReadWait));
        // Out-of-range workers and oversized contexts are defensive no-ops.
        slots.publish(99, 1, WorkerState::Parse, 0);
        slots.publish(1, 9999, WorkerState::Parse, 0);
        assert_eq!(slots.read(1).0, 255, "context clamps to one byte");
        assert_eq!(slots.read(99), (0, WorkerState::Idle));
    }

    #[test]
    fn exact_ledger_charges_time_to_the_outgoing_state() {
        let slots = WorkerSlots::new(2);
        // Worker 0: Idle (not busy) → nothing charged on entering Parse.
        slots.publish(0, 1, WorkerState::Parse, 1_000);
        assert_eq!(slots.busy_ns_total(), 0, "idle time is never busy");
        assert_eq!(slots.in_service_ns_total(), 0);
        // Leaving Parse charges the span between the two timestamps as
        // busy + in-service: the caller's clock reads, to the nanosecond.
        slots.publish(0, 0, WorkerState::ReadWait, 6_000);
        assert_eq!(slots.busy_ns_total(), 5_000);
        assert_eq!(slots.in_service_ns_total(), 5_000, "parse is both busy and in-service");
        // Leaving ReadWait charges busy (keep-alive pinning) but not
        // in-service (no request existed).
        slots.publish(0, 0, WorkerState::Idle, 9_000);
        assert_eq!(slots.busy_ns_total(), 8_000);
        assert_eq!(slots.in_service_ns_total(), 5_000, "read_wait is not in-service");
        // Worker 1 never published: no ledger movement.
        assert_eq!(slots.read(1), (0, WorkerState::Idle));
    }

    #[test]
    fn sample_pass_publishes_the_exact_ledger_gauges() {
        let registry = Registry::new();
        let p = Profiler::new(ProfilerConfig::default(), 1, vec!["-"], &registry);
        p.slots().publish(0, 0, WorkerState::Write, 500);
        p.slots().publish(0, 0, WorkerState::Idle, 2_000_500);
        p.sample_once();
        let text = registry.render_prometheus();
        let value = |name: &str| {
            text.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split(' ').nth(1))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        assert_eq!(value("aon_pool_busy_ns"), 2_000_000, "{text}");
        assert_eq!(value("aon_pool_busy_ns"), value("aon_pool_in_service_ns"), "{text}");
    }

    #[test]
    fn sample_pass_accumulates_states_utilization_and_saturation() {
        let registry = Registry::new();
        let p = Profiler::new(ProfilerConfig::default(), 4, vec!["-", "FR", "CBR"], &registry);
        // Two busy workers, one accept-waiting, one idle.
        p.slots().publish(0, 1, WorkerState::Parse, 0);
        p.slots().publish(1, 2, WorkerState::Write, 0);
        p.slots().publish(2, 0, WorkerState::AcceptWait, 0);
        p.sample_once();
        p.sample_once();
        assert_eq!(p.passes(), 2);
        assert_eq!(p.saturation_permille(), 500, "2 of 4 workers busy");
        assert_eq!(p.worker_utilization_permille(), vec![1000, 1000, 0, 0]);

        let text = registry.render_prometheus();
        assert!(text.contains("aon_worker_state_samples_total{state=\"parse\"} 2"), "{text}");
        assert!(text.contains("aon_worker_state_samples_total{state=\"write\"} 2"), "{text}");
        assert!(text.contains("aon_worker_state_samples_total{state=\"idle\"} 2"), "{text}");
        assert!(text.contains("aon_pool_saturation_permille 500"), "{text}");
        assert!(text.contains("aon_worker_utilization_permille{worker=\"0\"} 1000"), "{text}");
        assert!(text.contains("aon_profiler_passes_total 2"), "{text}");
    }

    #[test]
    fn folded_dump_keys_context_then_state_and_skips_zero_cells() {
        let registry = Registry::new();
        let p = Profiler::new(ProfilerConfig::default(), 2, vec!["-", "SV"], &registry);
        p.slots().publish(0, 1, WorkerState::Validate, 0);
        p.slots().publish(1, 0, WorkerState::ReadWait, 0);
        p.sample_once();
        p.slots().publish(0, 1, WorkerState::Write, 0);
        p.sample_once();
        let folded = p.folded();
        assert_eq!(folded, "-;read_wait 2\nSV;validate 1\nSV;write 1\n");
        // Every line matches the flamegraph.pl input grammar.
        for line in folded.lines() {
            let (frames, count) = line.rsplit_once(' ').expect("space-separated count");
            assert!(count.parse::<u64>().is_ok(), "{line}");
            assert_eq!(frames.split(';').count(), 2, "{line}");
        }
    }

    /// A deterministic schedule from a seeded generator (SplitMix64, the
    /// same mixer the tail sampler uses) drives worker transitions under
    /// a fake clock: tick `t` publishes the scheduled states, then the
    /// sampler takes one pass. The folded output must be byte-identical
    /// across runs — no wall-clock dependence anywhere in the sample or
    /// render path.
    #[test]
    fn folded_output_is_deterministic_under_a_seeded_fake_clock() {
        fn splitmix(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let run = |seed: u64| {
            let registry = Registry::new();
            let p = Profiler::new(ProfilerConfig::default(), 3, vec!["-", "FR", "DPI"], &registry);
            let mut rng = seed;
            for tick in 0..200 {
                for w in 0..3 {
                    let r = splitmix(&mut rng);
                    let state = WorkerState::ALL[usize::try_from(r % 11).expect("fits")];
                    let ctx = usize::try_from((r >> 8) % 3).expect("fits");
                    p.slots().publish(w, ctx, state, tick);
                }
                p.sample_once();
            }
            p.folded()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same folded profile");
        assert_ne!(a, run(43), "different schedules differ");
        assert!(!a.is_empty());
    }

    #[test]
    fn littles_law_agrees_on_a_scripted_workload() {
        // Scripted: 1000 requests over 10 s, each 20 ms in service →
        // λ = 100/s, W = 0.02 s, λW = 2, and 2 workers seen in service
        // on average. Exact agreement.
        let law = LittlesLaw { lambda_per_sec: 100.0, w_secs: 0.02, l_observed: 2.0 };
        assert!((law.l_predicted() - 2.0).abs() < 1e-9);
        assert_eq!(law.gap_fraction(), 0.0);
        assert!(law.within(0.15));

        // 20% disagreement is outside a 15% tolerance but inside 25%.
        let law = LittlesLaw { l_observed: 1.6, ..law };
        assert!(law.gap_fraction() > 0.15 && law.gap_fraction() < 0.25, "{law:?}");
        assert!(!law.within(0.15));
        assert!(law.within(0.25));

        // An idle window trivially agrees (no division blowups).
        let idle = LittlesLaw { lambda_per_sec: 0.0, w_secs: 0.0, l_observed: 0.0 };
        assert_eq!(idle.gap_fraction(), 0.0);
        assert!(idle.within(0.15));
    }

    #[test]
    fn overrun_and_active_markers_render() {
        let registry = Registry::new();
        let p = Profiler::new(ProfilerConfig::default(), 1, vec!["-"], &registry);
        p.set_active(true);
        p.note_overrun();
        let text = registry.render_prometheus();
        assert!(text.contains("aon_profiler_active 1"), "{text}");
        assert!(text.contains("aon_profiler_overruns_total 1"), "{text}");
        p.set_active(false);
        assert!(registry.render_prometheus().contains("aon_profiler_active 0"));
    }

    #[test]
    fn config_interval_follows_hz() {
        assert_eq!(ProfilerConfig::default().interval().as_nanos(), 1_000_000_000 / 97);
        let cfg = ProfilerConfig { sample_hz: 0, ..ProfilerConfig::default() };
        assert_eq!(cfg.interval(), Duration::from_secs(1), "zero rate clamps to 1 Hz");
    }
}
