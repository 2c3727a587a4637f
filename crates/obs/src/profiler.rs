//! Continuous worker-state profiling: where the worker pool's *wall
//! time* goes.
//!
//! The paper decomposes where cycles go per use case; the stage
//! histograms ([`crate::stage`]) decompose where *service time* goes.
//! What neither shows is what the pool does when it is **not** serving:
//! idle keep-alive pinning, waiting in `accept(2)`, blocked reads — exactly
//! the evidence the C10k rearchitecture needs. This module closes that
//! gap with an exact time-in-state ledger:
//!
//! * each worker's per-request recorder ([`crate::record::Recorder`])
//!   publishes its current [`WorkerState`] into its row of
//!   [`WorkerSlots`] at the boundaries it already reads the clock for,
//!   and each publish charges the span since the worker's previous
//!   boundary to the `(context, state)` cell it is *leaving*;
//! * [`Profiler::refresh`], run by every reader at scrape time, adds each
//!   worker's open span (now − its last boundary) to the state it is in
//!   and folds the totals into `aon_worker_state_ns{state}`, the pool
//!   ledgers, per-worker utilization and pool saturation;
//! * the per-(context × state) table renders as a folded-stack dump
//!   (`use_case;state ns`, one line each) that `flamegraph.pl`
//!   consumes directly.
//!
//! Nothing samples, so nothing is biased: a state shorter than any
//! period is still charged to the nanosecond, and a busy host cannot
//! starve the measurement of its wakeups. A publish takes its timestamp
//! from the caller — the same clock read that opens or closes the
//! request's service-time span — so the in-service ledger and the
//! service-time histogram are sums of the same differences: `L` and
//! `λ·W` agree to the nanosecond by construction.
//!
//! This file is on the `aon-audit` cast-enforced list.

#![deny(clippy::as_conversions)]

use crate::metric::Gauge;
use crate::registry::Registry;
use crate::stage::Stage;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
/// Number of worker states (array dimension for per-state tables).
pub const STATE_COUNT: usize = 10;

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
            WorkerState::Admin => 9,
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
        )
    }
}

/// Number of profiler contexts, `-` (no use case) included: the server
/// uses use-case index + 1, so six covers its five use cases.
pub const CONTEXT_COUNT: usize = 6;

/// One worker's nanoseconds per `(context, state)`.
pub type Cells = [[u64; STATE_COUNT]; CONTEXT_COUNT];

/// One worker's row, written only by that worker and aligned so two
/// workers never write the same cache line.
#[derive(Debug)]
#[repr(align(64))]
struct Row {
    // audit:role(gauge): packed (context << 8 | state) of the worker's
    // current state; owner-thread stores, Relaxed reads at scrape time
    slot: AtomicU64,
    // audit:role(gauge): timestamp of the worker's last boundary (MAX
    // before the first); owner-thread stores, Relaxed reads at scrape time
    last_ns: AtomicU64,
    // audit:role(counter): exact cumulative wall-nanoseconds per
    // (context, state) at `context * STATE_COUNT + state`, charged to the
    // outgoing state; single writer, so a plain load + store; a Relaxed
    // scrape racing a boundary can misplace at most the span since it,
    // and readers fold with record_max
    cells: [AtomicU64; CONTEXT_COUNT * STATE_COUNT],
}

fn unpack(v: u64) -> (usize, WorkerState) {
    (usize::try_from(v >> 8).unwrap_or(0), WorkerState::from_index(v & 0xff))
}

/// The pool's exact time-in-state ledger: one [`Row`] per worker holding
/// its current `(context, state)` and its cumulative nanoseconds per
/// `(context, state)`. `context` is an embedder-defined index below
/// [`CONTEXT_COUNT`]; anything beyond lands in context 0 (`-`).
#[derive(Debug)]
pub struct WorkerSlots {
    rows: Vec<Row>,
}

impl WorkerSlots {
    /// Slots for `workers` threads, all starting [`WorkerState::Idle`].
    pub fn new(workers: usize) -> WorkerSlots {
        let rows = (0..workers).map(|_| Row {
            slot: AtomicU64::new(0),
            last_ns: AtomicU64::new(u64::MAX),
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
        });
        WorkerSlots { rows: rows.collect() }
    }

    /// Worker `worker` enters `(ctx, state)` at `now_ns`, the caller's
    /// clock read for the boundary (nanoseconds on one monotonic clock of
    /// the caller's choosing). The span since the worker's previous
    /// boundary is charged to the cell it leaves; the first publish
    /// charges nothing. Out-of-range workers are ignored (defensive; the
    /// server sizes slots to the pool).
    pub fn publish(&self, worker: usize, ctx: usize, state: WorkerState, now_ns: u64) {
        let Some(row) = self.rows.get(worker) else { return };
        let (prev_ctx, prev) = unpack(row.slot.load(Ordering::Relaxed));
        let span = now_ns.saturating_sub(row.last_ns.load(Ordering::Relaxed));
        row.last_ns.store(now_ns, Ordering::Relaxed);
        let i = prev_ctx * STATE_COUNT + prev.index();
        let charged = row.cells[i].load(Ordering::Relaxed).saturating_add(span);
        row.cells[i].store(charged, Ordering::Relaxed);
        let ctx = u64::try_from(if ctx < CONTEXT_COUNT { ctx } else { 0 }).unwrap_or(0);
        let state = u64::try_from(state.index()).expect("state index fits u64");
        row.slot.store((ctx << 8) | state, Ordering::Relaxed);
    }

    /// Worker `worker`'s current `(context, state)`.
    pub fn read(&self, worker: usize) -> (usize, WorkerState) {
        self.rows
            .get(worker)
            .map_or((0, WorkerState::Idle), |r| unpack(r.slot.load(Ordering::Relaxed)))
    }

    /// Worker `worker`'s cells as of `now_ns`: the settled spans plus the
    /// open one (now − its last boundary) in the cell it is in. At
    /// `now_ns` 0 the open span is empty: the settled cells alone.
    pub fn cells(&self, worker: usize, now_ns: u64) -> Cells {
        let mut out = [[0; STATE_COUNT]; CONTEXT_COUNT];
        let Some(row) = self.rows.get(worker) else { return out };
        let (ctx, state) = unpack(row.slot.load(Ordering::Relaxed));
        for (i, out) in out.as_flattened_mut().iter_mut().enumerate() {
            *out = row.cells[i].load(Ordering::Relaxed);
        }
        let open = now_ns.saturating_sub(row.last_ns.load(Ordering::Relaxed));
        out[ctx][state.index()] = out[ctx][state.index()].saturating_add(open);
        out
    }

    /// Settled nanoseconds across the pool in the states `class` selects.
    fn settled(&self, class: fn(WorkerState) -> bool) -> u64 {
        let cells = (0..self.len()).flat_map(|w| self.cells(w, 0));
        cells
            .flat_map(|row| WorkerState::ALL.into_iter().zip(row))
            .filter(|(s, _)| class(*s))
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Exact cumulative busy wall-nanoseconds across the pool (settled
    /// spans only — a span is charged when the worker leaves it).
    pub fn busy_ns_total(&self) -> u64 {
        self.settled(WorkerState::is_busy)
    }

    /// Exact cumulative in-service wall-nanoseconds across the pool —
    /// the Little's-law `L` ledger (`L = Δin_service_ns / Δwall_ns`).
    pub fn in_service_ns_total(&self) -> u64 {
        self.settled(WorkerState::in_service)
    }

    /// Number of worker slots.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// The ledger's readers: owns the worker slots, the per-(context ×
/// state) table behind `GET /profile.folded`, and the registered metric
/// families, all brought up to date by [`Profiler::refresh`].
#[derive(Debug)]
pub struct Profiler {
    slots: WorkerSlots,
    ctx_labels: [&'static str; CONTEXT_COUNT],
    /// `folded[ctx][state]` — the folded-stack source (unregistered;
    /// the registered view aggregates over contexts).
    folded: [[Gauge; STATE_COUNT]; CONTEXT_COUNT],
    state_ns: [Arc<Gauge>; STATE_COUNT],
    worker_utilization: Vec<Arc<Gauge>>,
    saturation: Arc<Gauge>,
    pool_busy_ns: Arc<Gauge>,
    pool_in_service_ns: Arc<Gauge>,
}

impl Profiler {
    /// Build the profiler for a pool of `workers` threads and register
    /// its metric families. `ctx_labels[0]` names the "no context" slot
    /// value; the embedder maps its own small indices onto the rest.
    pub fn new(
        workers: usize,
        ctx_labels: [&'static str; CONTEXT_COUNT],
        registry: &Registry,
    ) -> Profiler {
        let gauge = |name, help| registry.gauge(name, help, &[]);
        Profiler {
            slots: WorkerSlots::new(workers),
            ctx_labels,
            folded: std::array::from_fn(|_| std::array::from_fn(|_| Gauge::new())),
            state_ns: std::array::from_fn(|i| {
                registry.gauge(
                    "aon_worker_state_ns",
                    "Exact cumulative wall-nanoseconds the pool spent per worker state",
                    &[("state", WorkerState::ALL[i].label())],
                )
            }),
            worker_utilization: (0..workers)
                .map(|w| {
                    registry.gauge(
                        "aon_worker_utilization_permille",
                        "Per-worker busy wall time since start, in permille",
                        &[("worker", w.to_string().as_str())],
                    )
                })
                .collect(),
            saturation: gauge(
                "aon_pool_saturation_permille",
                "Busy workers over pool size at scrape time, in permille",
            ),
            pool_busy_ns: gauge(
                "aon_pool_busy_ns",
                "Exact cumulative busy wall-nanoseconds across the pool",
            ),
            pool_in_service_ns: gauge(
                "aon_pool_in_service_ns",
                "Exact cumulative in-service wall-nanoseconds across the pool \
                 (the Little's-law L ledger)",
            ),
        }
    }

    /// The worker slots to publish states into.
    pub fn slots(&self) -> &WorkerSlots {
        &self.slots
    }

    /// Bring every family up to `now_ns` (the publishers' clock): each
    /// worker's cells with its open span, summed over the pool. The
    /// cumulative series move by `record_max`, so none goes backwards
    /// when a refresh races a boundary. No locks, no allocation.
    pub fn refresh(&self, now_ns: u64) {
        let mut table: Cells = [[0; STATE_COUNT]; CONTEXT_COUNT];
        let mut busy_workers = 0u64;
        for (w, utilization) in self.worker_utilization.iter().enumerate() {
            let mut busy = 0u64;
            for (total, cells) in table.iter_mut().zip(self.slots.cells(w, now_ns)) {
                for ((total, ns), state) in total.iter_mut().zip(cells).zip(WorkerState::ALL) {
                    *total += ns;
                    busy += if state.is_busy() { ns } else { 0 };
                }
            }
            utilization.set(busy.saturating_mul(1000) / now_ns.max(1));
            busy_workers += u64::from(self.slots.read(w).1.is_busy());
        }
        let (mut busy, mut in_service) = (0, 0);
        for state in WorkerState::ALL {
            let ns: u64 = table.iter().map(|row| row[state.index()]).sum();
            self.state_ns[state.index()].record_max(ns);
            busy += if state.is_busy() { ns } else { 0 };
            in_service += if state.in_service() { ns } else { 0 };
        }
        self.pool_busy_ns.record_max(busy);
        self.pool_in_service_ns.record_max(in_service);
        for (gauges, row) in self.folded.iter().zip(&table) {
            for (gauge, ns) in gauges.iter().zip(row) {
                gauge.record_max(*ns);
            }
        }
        let workers = u64::try_from(self.slots.len()).unwrap_or(u64::MAX);
        self.saturation.set(busy_workers.saturating_mul(1000) / workers.max(1));
    }

    /// Pool saturation at the last refresh, in permille.
    pub fn saturation_permille(&self) -> u64 {
        self.saturation.get()
    }

    /// Per-worker busy fraction at the last refresh, in permille.
    pub fn worker_utilization_permille(&self) -> Vec<u64> {
        self.worker_utilization.iter().map(|g| g.get()).collect()
    }

    /// The folded-stack dump as of the last refresh: one `context;state
    /// ns` line per non-zero cell, contexts in label order, states in
    /// [`WorkerState::ALL`] order — deterministic for a given ledger, and
    /// directly consumable by `flamegraph.pl`.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (label, row) in self.ctx_labels.iter().zip(&self.folded) {
            for (state, ns) in WorkerState::ALL.iter().zip(row.iter().map(Gauge::get)) {
                if ns > 0 {
                    let _ = writeln!(out, "{label};{} {ns}", state.label());
                }
            }
        }
        out
    }
}

/// The Little's-law consistency check: in a stable system, the mean
/// number of requests in service `L` equals arrival rate `λ` times mean
/// time in service `W`. The profiler's ledger measures `L`, the request
/// counters and service histograms measure `λ·W` — agreement is
/// evidence both planes are honest.
#[derive(Debug, Clone, Copy)]
pub struct LittlesLaw {
    /// Completed requests per second over the window (`λ`).
    pub lambda_per_sec: f64,
    /// Mean time in service over the window, in seconds (`W`).
    pub w_secs: f64,
    /// Mean requests in service observed by the ledger (`L`).
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
        // Out-of-range workers are defensive no-ops.
        slots.publish(99, 1, WorkerState::Parse, 0);
        assert_eq!(slots.read(99), (0, WorkerState::Idle));
        assert_eq!(slots.cells(99, 7), [[0; STATE_COUNT]; CONTEXT_COUNT]);
    }

    #[test]
    fn exact_ledger_charges_time_to_the_outgoing_state() {
        let slots = WorkerSlots::new(2);
        // The first boundary charges nothing: there is no span before it.
        slots.publish(0, 1, WorkerState::Parse, 1_000);
        assert_eq!(slots.busy_ns_total(), 0, "idle time is never busy");
        assert_eq!(slots.in_service_ns_total(), 0);
        // Leaving Parse charges the span between the two timestamps as
        // busy + in-service: the caller's clock reads, to the nanosecond.
        slots.publish(0, 0, WorkerState::ReadWait, 6_000);
        assert_eq!(slots.busy_ns_total(), 5_000);
        assert_eq!(slots.in_service_ns_total(), 5_000, "parse is both busy and in-service");
        assert_eq!(slots.cells(0, 0)[1][WorkerState::Parse.index()], 5_000, "in its context");
        // Leaving ReadWait charges busy (keep-alive pinning) but not
        // in-service (no request existed).
        slots.publish(0, 0, WorkerState::Idle, 9_000);
        assert_eq!(slots.busy_ns_total(), 8_000);
        assert_eq!(slots.in_service_ns_total(), 5_000, "read_wait is not in-service");
        // Worker 1 never published: no ledger movement.
        assert_eq!(slots.read(1), (0, WorkerState::Idle));
        assert_eq!(slots.cells(1, 9_000), [[0; STATE_COUNT]; CONTEXT_COUNT]);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seeded schedule (SplitMix64, the tail sampler's mixer) drives
    /// three workers through random states, contexts — out-of-range ones
    /// included — and clock steps under a fake clock. Every nanosecond
    /// between a worker's first and latest boundary lands in exactly one
    /// of its cells.
    #[test]
    fn the_ledger_conserves_time_under_a_seeded_fake_clock() {
        for seed in [1, 42, 43] {
            let slots = WorkerSlots::new(3);
            let mut rng = seed;
            let mut clock = [0u64; 3];
            let mut first = [None; 3];
            for _ in 0..600 {
                let r = splitmix(&mut rng);
                let w = usize::try_from(r % 3).expect("fits");
                clock[w] += (r >> 16) % 10_000;
                first[w].get_or_insert(clock[w]);
                let state = WorkerState::ALL[usize::try_from((r >> 8) % 10).expect("fits")];
                let ctx = usize::try_from((r >> 40) % 8).expect("fits");
                slots.publish(w, ctx, state, clock[w]);
            }
            for w in 0..3 {
                let charged: u64 = slots.cells(w, 0).iter().flatten().sum();
                assert_eq!(charged, clock[w] - first[w].expect("published"), "seed {seed} w{w}");
            }
        }
    }

    const LABELS: [&str; CONTEXT_COUNT] = ["-", "FR", "CBR", "SV", "DPI", "CRYPTO"];

    #[test]
    fn a_scripted_schedule_renders_exact_folded_bytes_and_families() {
        let registry = Registry::new();
        let p = Profiler::new(4, LABELS, &registry);
        let s = p.slots();
        s.publish(0, 0, WorkerState::AcceptWait, 0);
        s.publish(0, 0, WorkerState::ReadWait, 1_000);
        s.publish(0, 3, WorkerState::Validate, 1_500);
        s.publish(0, 3, WorkerState::Write, 4_000);
        s.publish(0, 0, WorkerState::ReadWait, 4_500);
        s.publish(1, 0, WorkerState::AcceptWait, 0);
        s.publish(2, 1, WorkerState::Parse, 9_000);
        p.refresh(10_000);
        assert_eq!(
            p.folded(),
            "-;accept_wait 11000\n-;read_wait 6000\nFR;parse 1000\n\
             SV;validate 2500\nSV;write 500\n"
        );
        assert_eq!(p.saturation_permille(), 500, "2 of 4 workers busy");
        assert_eq!(p.worker_utilization_permille(), vec![900, 0, 100, 0]);
        let text = registry.render_prometheus();
        for line in [
            "aon_worker_state_ns{state=\"accept_wait\"} 11000",
            "aon_worker_state_ns{state=\"validate\"} 2500",
            "aon_worker_state_ns{state=\"idle\"} 0",
            "aon_pool_busy_ns 10000",
            "aon_pool_in_service_ns 4000",
            "aon_pool_saturation_permille 500",
            "aon_worker_utilization_permille{worker=\"0\"} 900",
        ] {
            assert!(text.lines().any(|l| l == line), "{line} in {text}");
        }
    }

    #[test]
    fn an_out_of_range_context_is_charged_to_the_no_context_row() {
        let registry = Registry::new();
        let p = Profiler::new(1, LABELS, &registry);
        p.slots().publish(0, CONTEXT_COUNT, WorkerState::Dpi, 0);
        assert_eq!(p.slots().read(0), (0, WorkerState::Dpi));
        p.slots().publish(0, usize::MAX, WorkerState::Idle, 700);
        p.refresh(700);
        assert_eq!(p.folded(), "-;dpi 700\n");
    }

    /// The refresh sees the open span, and a refresh racing a publisher
    /// never moves a rendered series backwards.
    #[test]
    fn a_refresh_includes_the_open_span_and_no_series_decreases() {
        let registry = Registry::new();
        let p = Profiler::new(1, LABELS, &registry);
        p.slots().publish(0, 2, WorkerState::Xpath, 1_000);
        p.refresh(4_000);
        assert_eq!(p.folded(), "CBR;xpath 3000\n", "open span only, nothing settled");
        assert_eq!(p.slots().in_service_ns_total(), 0, "the refresh stored nothing");

        let epoch = std::time::Instant::now();
        let now = || u64::try_from(epoch.elapsed().as_nanos()).expect("fits");
        let series = |text: &str| -> Vec<u64> {
            text.lines()
                .filter(|l| l.starts_with("aon_worker_state_ns") || l.starts_with("aon_pool_"))
                .filter(|l| !l.starts_with("aon_pool_saturation"))
                .chain(p.folded().lines())
                .map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse().ok()).expect("value"))
                .collect()
        };
        std::thread::scope(|scope| {
            let publisher = scope.spawn(|| {
                for i in 0..10_000 {
                    let state = WorkerState::ALL[i % STATE_COUNT];
                    p.slots().publish(0, i % CONTEXT_COUNT, state, 4_000 + now());
                }
            });
            let mut last: Vec<u64> = Vec::new();
            while !publisher.is_finished() {
                p.refresh(4_000 + now());
                let current = series(&registry.render_prometheus());
                if current.len() == last.len() {
                    for (i, (a, b)) in last.iter().zip(&current).enumerate() {
                        assert!(b >= a, "series {i} went from {a} to {b}");
                    }
                }
                last = current;
            }
        });
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
}
