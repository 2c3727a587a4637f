//! The machine: composition and execution engine.
//!
//! A [`Machine`] owns the logical CPUs, the shared-resource timelines, the
//! memory system, the channels and the workload threads, and advances
//! simulated time with a *min-time-first* stepping loop: the runnable
//! logical CPU with the smallest local clock executes a small batch of
//! abstract ops (or one synchronization action), booking shared resources
//! as it goes. Because bookings are made in (approximately) nondecreasing
//! time order, FIFO timelines model contention faithfully.
//!
//! Scheduling mimics a 2.6-era Linux SMP kernel at the fidelity the paper
//! needs: sticky affinity (a thread prefers its previous CPU), idle CPUs
//! take any ready thread, blocking costs a syscall-ish overhead, and
//! wakeups carry a latency.

use crate::branch::Gshare;
use crate::bus::SlotTimeline;
use crate::config::MachineConfig;
use crate::counters::PerfCounters;
use crate::hier::MemorySystem;
use crate::invariants::{self, Violation};
use crate::sync::{ChannelConfig, ChannelId, Msg, SimChannel};
use crate::thread::{Step, ThreadId, Workload, WorkloadCtx};
use aon_trace::code::site_pc;
use aon_trace::op::Op;
use aon_trace::op::OpClass;
use aon_trace::trace::{Binding, Trace};
use std::sync::Arc;

/// Maximum op records executed per scheduling quantum of the stepping loop.
const BATCH: usize = 128;

/// Maximum cycles a CPU's local clock may advance within one quantum.
/// Shared-resource timelines assume bookings arrive in roughly
/// nondecreasing time order across CPUs; bounding per-quantum skew keeps
/// that true (otherwise a CPU that races ahead pushes the resource's
/// `next_free` into the future and the lagging CPU pays the divergence as
/// phantom queueing — a positive feedback loop).
const SKEW_LIMIT: u64 = 120;

/// Cycles charged for a channel operation (syscall + queue manipulation).
const SYNC_COST: u64 = 300;
/// Cycles between a wake event and the woken thread being runnable.
const WAKE_LATENCY: u64 = 800;
/// Cycles charged when a CPU switches to a different thread.
const CTX_SWITCH: u64 = 1_500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Runnable, from the given time.
    Ready(u64),
    /// Executing on a CPU.
    Running(u32),
    /// Blocked sending into a full channel.
    BlockedSend(ChannelId),
    /// Blocked receiving from an empty channel.
    BlockedRecv(ChannelId),
    /// Sleeping until an absolute time.
    Waiting(u64),
    /// Finished.
    Done,
}

/// A retried-on-wake channel operation.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Send(ChannelId, Msg),
    Recv(ChannelId),
}

struct ExecState {
    trace: Arc<Trace>,
    binding: Binding,
    pos: usize,
    /// Cycles spent executing this trace so far (profiling).
    accum: u64,
}

struct ThreadState {
    workload: Box<dyn Workload>,
    status: Status,
    mailbox: Option<Msg>,
    pending: Option<Pending>,
    exec: Option<ExecState>,
    affinity: u32,
}

#[derive(Debug, Clone, Copy)]
struct CpuState {
    time: u64,
    thread: Option<u32>,
    last_thread: Option<u32>,
    idle_since: u64,
}

/// The order a scheduler selection loop visits `0..n` in.
///
/// The hot path (no scan permutation requested) iterates the natural range
/// without allocating; the permuted variant exists only so stress tests can
/// prove scan-order independence. Selection loops run on every scheduling
/// quantum — millions of times per experiment cell — so this being
/// allocation-free is a measured, load-bearing property.
enum ScanOrder {
    /// Natural `0..n` order (allocation-free).
    Natural(std::ops::Range<usize>),
    /// A Fisher–Yates shuffle of `0..n` (tests only).
    Permuted(std::vec::IntoIter<usize>),
}

impl Iterator for ScanOrder {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            ScanOrder::Natural(r) => r.next(),
            ScanOrder::Permuted(it) => it.next(),
        }
    }
}

/// Result of a [`Machine::run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Simulated end time in cycles.
    pub end_time: u64,
    /// Work units completed (as reported by workloads).
    pub completed_units: u64,
    /// Payload bytes completed.
    pub completed_bytes: u64,
    /// True if the run ended with threads blocked and nothing runnable.
    pub deadlocked: bool,
}

/// A complete simulated machine.
pub struct Machine {
    cfg: MachineConfig,
    mem: MemorySystem,
    issue: Vec<SlotTimeline>,
    predictors: Vec<Gshare>,
    counters: Vec<PerfCounters>,
    cpus: Vec<CpuState>,
    threads: Vec<ThreadState>,
    channels: Vec<SimChannel>,
    completed_units: u64,
    completed_bytes: u64,
    measure_start: u64,
    end_time: u64,
    /// A lower bound on the earliest `Waiting` wake time (`u64::MAX` when
    /// nothing waits): [`Machine::run`] skips the promotion scan while the
    /// execution frontier is below it.
    wake_floor: u64,
    /// Per-CPU clock value at the last counter reset: the origin of each
    /// CPU's counter-accrual window (a lagging CPU's window starts behind
    /// `measure_start`, and its events accrue from there).
    window_start: Vec<u64>,
    /// When set, scheduler selection loops scan threads/CPUs in an order
    /// permuted by this seed (see [`Machine::set_scan_permutation`]). The
    /// selections themselves are (key, index)-lexicographic minima, so the
    /// outcome must not depend on this — it exists so tests can prove that.
    scan_seed: Option<u64>,
    /// When set, trace replay uses the straight-line scalar interpreter
    /// instead of the batched fast path (see
    /// [`Machine::set_reference_replay`]). Both must produce byte-identical
    /// counters; the knob exists so tests can prove it.
    reference_replay: bool,
    /// VTune-style sampling picture: cycles attributed per trace label
    /// (§3.3 — "sampling based VTune profiling to get a global picture of
    /// processor utilization for both system and application level
    /// activities").
    profile: std::collections::HashMap<String, u64>,
}

impl Machine {
    /// Build an empty machine for a configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        let cores = cfg.physical_cores();
        let cpus = cfg.logical_cpus();
        Machine {
            mem: MemorySystem::new(&cfg),
            issue: (0..cores).map(|_| SlotTimeline::new(cfg.arch.issue_width_x100)).collect(),
            predictors: (0..cores)
                .map(|_| {
                    Gshare::with_sharing(
                        cfg.arch.predictor,
                        cfg.smt_shared_predictor && cfg.threads_per_core > 1,
                    )
                })
                .collect(),
            counters: vec![PerfCounters::default(); cpus as usize],
            cpus: (0..cpus)
                .map(|_| CpuState { time: 0, thread: None, last_thread: None, idle_since: 0 })
                .collect(),
            threads: Vec::new(),
            channels: Vec::new(),
            completed_units: 0,
            completed_bytes: 0,
            measure_start: 0,
            end_time: 0,
            wake_floor: u64::MAX,
            window_start: vec![0; cpus as usize],
            scan_seed: None,
            reference_replay: false,
            profile: std::collections::HashMap::new(),
            cfg,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Permute the order in which scheduler selection loops scan threads
    /// and CPUs, seeded deterministically.
    ///
    /// Every scheduling decision (which thread to place, which CPU to give
    /// it, which blocked thread a channel wakes) is defined as a
    /// (key, index)-lexicographic minimum, so it is independent of the
    /// order candidates are examined in. This knob shuffles that
    /// examination order so a stress test can assert the independence
    /// actually holds: any seed must produce byte-identical counters.
    pub fn set_scan_permutation(&mut self, seed: u64) {
        self.scan_seed = Some(seed);
    }

    /// Replay traces with the straight-line scalar interpreter instead of
    /// the batched fast path.
    ///
    /// The batched path hoists per-core resources out of the op loop and
    /// accrues counter deltas locally, merging once per quantum; the scalar
    /// path indexes everything through `self` per op. They are defined to
    /// be observationally identical — byte-identical [`PerfCounters`],
    /// timing, and profile — and the equivalence suite flips this knob to
    /// prove it. Production runs leave it off.
    pub fn set_reference_replay(&mut self, on: bool) {
        self.reference_replay = on;
    }

    /// The order in which a selection loop visits `0..n`: natural order
    /// (allocation-free), or a Fisher–Yates shuffle of it driven by the
    /// scan seed. The permutation is a pure function of `(seed, n)` —
    /// determinism of the simulation itself is never at stake, only the
    /// scan order.
    fn scan_order(&self, n: usize) -> ScanOrder {
        let Some(seed) = self.scan_seed else {
            return ScanOrder::Natural(0..n);
        };
        let mut idx: Vec<usize> = (0..n).collect();
        let mut s = seed ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            // SplitMix64 step.
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..n).rev() {
            let j =
                usize::try_from(next() % (i as u64 + 1)).expect("shuffle index bounded by i < n");
            idx.swap(i, j);
        }
        ScanOrder::Permuted(idx.into_iter())
    }

    /// Create a channel.
    pub fn add_channel(&mut self, cfg: ChannelConfig) -> ChannelId {
        let id = ChannelId(u32::try_from(self.channels.len()).expect("channel count fits u32"));
        self.channels.push(SimChannel::new(cfg));
        id
    }

    /// Spawn a workload thread (runnable at time 0, affine to a CPU chosen
    /// round-robin).
    pub fn spawn(&mut self, workload: Box<dyn Workload>) -> ThreadId {
        let id = ThreadId(u32::try_from(self.threads.len()).expect("thread count fits u32"));
        let affinity = id.0 % self.cfg.logical_cpus();
        self.threads.push(ThreadState {
            workload,
            status: Status::Ready(0),
            mailbox: None,
            pending: None,
            exec: None,
            affinity,
        });
        id
    }

    /// Per-CPU counters.
    pub fn counters(&self) -> &[PerfCounters] {
        &self.counters
    }

    /// Aggregate counters across all logical CPUs, including DMA bus
    /// transactions (system-level traffic shows up in whole-system VTune
    /// sampling too).
    pub fn counters_total(&self) -> PerfCounters {
        let mut total = PerfCounters::default();
        for c in &self.counters {
            total.merge(c);
        }
        total.bus_txns += self.mem.dma_bus_txns;
        total
    }

    /// Check every counter block against the structural invariants in
    /// [`crate::invariants`]: each per-CPU block with its core's issue
    /// bandwidth and true accrual window, plus the cross-CPU aggregate.
    /// Returns every violation found (empty means consistent); the report
    /// pipeline calls this before emitting tables, and debug builds assert
    /// it after every run.
    pub fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let width = self.cfg.arch.issue_width_x100;
        for (i, c) in self.counters.iter().enumerate() {
            // The window runs from this CPU's clock at the counter reset to
            // wherever its clock stopped — or to the run's end time if it
            // sat idle while the rest of the machine advanced.
            let end = self.end_time.max(self.cpus[i].time);
            let window = end.saturating_sub(self.window_start[i].min(self.measure_start));
            for v in invariants::check_counters(c, Some(width), Some(window)) {
                out.push(Violation {
                    invariant: v.invariant,
                    detail: format!("cpu{i}: {}", v.detail),
                });
            }
        }
        for v in invariants::check_counters(&self.counters_total(), None, None) {
            out.push(Violation {
                invariant: v.invariant,
                detail: format!("aggregate: {}", v.detail),
            });
        }
        out
    }

    /// Direct access to the memory system (the network substrate uses it
    /// for DMA).
    pub fn mem(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Cycles attributed per trace label — the sampling-profiler view of
    /// where processor time went (kernel TCP paths vs. XML processing vs.
    /// connection overhead), keyed by the labels workload code gave its
    /// traces.
    pub fn profile(&self) -> &std::collections::HashMap<String, u64> {
        &self.profile
    }

    /// Zero the counters and restart measurement from the current time
    /// (call after a warm-up run).
    pub fn reset_counters(&mut self) {
        let now = self.cpus.iter().map(|c| c.time).max().unwrap_or(0);
        self.measure_start = now;
        for (i, c) in self.counters.iter_mut().enumerate() {
            *c = PerfCounters::default();
            self.window_start[i] = self.cpus[i].time;
        }
        self.completed_units = 0;
        self.completed_bytes = 0;
        self.mem.dma_bus_txns = 0;
        self.profile.clear();
    }

    /// Run until every CPU's clock passes `deadline` (or nothing is left to
    /// run).
    pub fn run(&mut self, deadline: u64) -> RunOutcome {
        #[cfg(debug_assertions)]
        let snapshots: Vec<invariants::CounterSnapshot> =
            self.counters.iter().map(invariants::CounterSnapshot::capture).collect();
        let mut deadlocked = false;
        loop {
            // Promote timed waiters whose wake time the execution frontier
            // (the earliest busy CPU) has reached — they must be able to
            // run on idle CPUs even while other CPUs stay busy.
            let frontier = self.cpus.iter().filter(|c| c.thread.is_some()).map(|c| c.time).min();
            if let Some(f) = frontier {
                if f >= self.wake_floor {
                    self.promote_waiters(f);
                }
                debug_assert!(
                    self.threads
                        .iter()
                        .all(|t| !matches!(t.status, Status::Waiting(at) if at <= f)),
                    "a waiter below the frontier was left unpromoted"
                );
            }
            // With no CPU idle there is nowhere to place a ready thread.
            if self.cpus.iter().any(|c| c.thread.is_none()) {
                self.assign_ready_threads();
            }
            // Busy CPU with the least (time, index) — scan-order-free.
            let mut pick: Option<(u64, usize)> = None;
            for i in self.scan_order(self.cpus.len()) {
                let c = &self.cpus[i];
                if c.thread.is_some() && pick.is_none_or(|p| (c.time, i) < p) {
                    pick = Some((c.time, i));
                }
            }
            let active = pick.map(|(_, i)| i);

            match active {
                Some(cpu) => {
                    if self.cpus[cpu].time >= deadline {
                        break;
                    }
                    self.step_cpu(u32::try_from(cpu).expect("cpu index fits u32"));
                }
                None => {
                    // Nothing on a CPU. Timed waiters can advance the clock.
                    let next_wake = self
                        .threads
                        .iter()
                        .filter_map(|t| match t.status {
                            Status::Waiting(at) => Some(at),
                            Status::Ready(at) => Some(at),
                            _ => None,
                        })
                        .min();
                    match next_wake {
                        Some(at) if at < deadline => {
                            for t in &mut self.threads {
                                if t.status == Status::Waiting(at) {
                                    t.status = Status::Ready(at);
                                }
                            }
                            // Ready threads are assigned on the next pass.
                            let any_ready =
                                self.threads.iter().any(|t| matches!(t.status, Status::Ready(_)));
                            if !any_ready {
                                deadlocked = true;
                                break;
                            }
                        }
                        Some(_) => break,
                        None => {
                            deadlocked =
                                self.threads.iter().any(|t| !matches!(t.status, Status::Done));
                            break;
                        }
                    }
                }
            }
        }
        self.finalize(deadline);
        #[cfg(debug_assertions)]
        {
            for (i, snap) in snapshots.iter().enumerate() {
                let v = snap.check_monotonic(&self.counters[i]);
                debug_assert!(v.is_empty(), "cpu{i} counters moved backward across run: {v:?}");
            }
            let violations = self.validate();
            debug_assert!(violations.is_empty(), "counter invariants violated: {violations:?}");
        }
        RunOutcome {
            end_time: self.end_time,
            completed_units: self.completed_units,
            completed_bytes: self.completed_bytes,
            deadlocked,
        }
    }

    /// Make every thread whose wake time `f` has reached ready, and tighten
    /// the wake floor to the earliest wake time left.
    fn promote_waiters(&mut self, f: u64) {
        let mut floor = u64::MAX;
        for t in &mut self.threads {
            if let Status::Waiting(at) = t.status {
                if at <= f {
                    t.status = Status::Ready(at);
                } else {
                    floor = floor.min(at);
                }
            }
        }
        self.wake_floor = floor;
    }

    /// Park a thread until `at`, keeping the wake floor a lower bound.
    fn wait_until(&mut self, tid: usize, at: u64) {
        self.threads[tid].status = Status::Waiting(at);
        self.wake_floor = self.wake_floor.min(at);
    }

    fn finalize(&mut self, deadline: u64) {
        let max_time = self.cpus.iter().map(|c| c.time).max().unwrap_or(0).max(self.measure_start);
        let end = max_time.min(deadline.max(self.measure_start));
        self.end_time = end.max(self.measure_start);
        let elapsed = self.end_time - self.measure_start;
        for (i, cpu) in self.cpus.iter_mut().enumerate() {
            self.counters[i].clockticks = elapsed;
            if cpu.thread.is_none() && self.end_time > cpu.idle_since.max(self.measure_start) {
                self.counters[i].idle_cycles +=
                    self.end_time - cpu.idle_since.max(self.measure_start);
            }
        }
    }

    /// Give every idle CPU a ready thread (affinity first, then earliest
    /// ready time).
    fn assign_ready_threads(&mut self) {
        loop {
            // Ready thread with the least (ready time, id) — scan-order-free.
            let mut best: Option<(u64, usize)> = None;
            for i in self.scan_order(self.threads.len()) {
                if let Status::Ready(at) = self.threads[i].status {
                    if best.is_none_or(|b| (at, i) < b) {
                        best = Some((at, i));
                    }
                }
            }
            let Some((ready_at, tid)) = best else { return };

            // Prefer the thread's previous CPU if idle, else the idle CPU
            // with the least (idle-since time, index).
            let affinity = self.threads[tid].affinity as usize;
            let cpu = if self.cpus[affinity].thread.is_none() {
                Some(affinity)
            } else {
                let mut pick: Option<(u64, usize)> = None;
                for i in self.scan_order(self.cpus.len()) {
                    let c = &self.cpus[i];
                    if c.thread.is_none() && pick.is_none_or(|p| (c.time, i) < p) {
                        pick = Some((c.time, i));
                    }
                }
                pick.map(|(_, i)| i)
            };
            let Some(cpu) = cpu else { return };
            let tid32 = u32::try_from(tid).expect("thread index fits u32");
            let cpu32 = u32::try_from(cpu).expect("cpu index fits u32");

            let c = &mut self.cpus[cpu];
            let start = c.time.max(ready_at);
            if c.thread.is_none() && start > c.idle_since {
                self.counters[cpu].idle_cycles += start - c.idle_since;
            }
            let switch_cost = if c.last_thread == Some(tid32) { 0 } else { CTX_SWITCH };
            c.time = start + switch_cost;
            c.thread = Some(tid32);
            c.last_thread = Some(tid32);
            self.threads[tid].status = Status::Running(cpu32);
            self.threads[tid].affinity = cpu32;
        }
    }

    /// Remove the thread from its CPU.
    fn deschedule(&mut self, cpu: u32) {
        let c = &mut self.cpus[cpu as usize];
        c.thread = None;
        c.idle_since = c.time;
    }

    /// Wake the lowest-id thread blocked receiving on `chan`.
    fn wake_recv_waiter(&mut self, chan: ChannelId, now: u64) {
        self.wake_waiter(Status::BlockedRecv(chan), now);
    }

    /// Wake the lowest-id thread blocked sending on `chan`.
    fn wake_send_waiter(&mut self, chan: ChannelId, now: u64) {
        self.wake_waiter(Status::BlockedSend(chan), now);
    }

    /// Wake the lowest-id thread whose status matches — the minimum over
    /// ids, not the first hit, so the choice survives scan permutation.
    fn wake_waiter(&mut self, blocked: Status, now: u64) {
        let mut pick: Option<usize> = None;
        for i in self.scan_order(self.threads.len()) {
            if self.threads[i].status == blocked && pick.is_none_or(|p| i < p) {
                pick = Some(i);
            }
        }
        if let Some(i) = pick {
            self.threads[i].status = Status::Ready(now + WAKE_LATENCY);
        }
    }

    fn step_cpu(&mut self, cpu: u32) {
        let tid = self.cpus[cpu as usize].thread.expect("step_cpu on busy cpu") as usize;

        // 1. Continue an in-flight trace replay.
        if self.threads[tid].exec.is_some() {
            let finished = if self.reference_replay {
                let mut exec = self.threads[tid].exec.take().expect("a trace in flight");
                let finished = self.exec_ops_scalar(cpu, &mut exec);
                self.threads[tid].exec = Some(exec);
                finished
            } else {
                self.exec_ops_batched(cpu, tid)
            };
            if finished {
                let exec = self.threads[tid].exec.take().expect("a trace in flight");
                // Traces complete thousands of times per cell; only a label
                // the profile has never seen pays for a String clone.
                if let Some(v) = self.profile.get_mut(&exec.trace.label) {
                    *v += exec.accum;
                } else {
                    self.profile.insert(exec.trace.label.clone(), exec.accum);
                }
            }
            return;
        }

        // 2. Retry a pending channel op.
        if let Some(pending) = self.threads[tid].pending.take() {
            match pending {
                Pending::Send(chan, msg) => self.do_send(cpu, tid, chan, msg),
                Pending::Recv(chan) => self.do_recv(cpu, tid, chan),
            }
            return;
        }

        // 3. Ask the workload for its next step.
        let mut ctx = WorkloadCtx {
            now: self.cpus[cpu as usize].time,
            last_recv: self.threads[tid].mailbox.take(),
            thread: ThreadId(u32::try_from(tid).expect("thread index fits u32")),
            complete_units: 0,
            complete_bytes: 0,
        };
        let step = self.threads[tid].workload.next(&mut ctx);
        self.completed_units += ctx.complete_units as u64;
        self.completed_bytes += ctx.complete_bytes;

        match step {
            Step::Run { trace, binding } => {
                if !trace.is_empty() {
                    self.threads[tid].exec = Some(ExecState { trace, binding, pos: 0, accum: 0 });
                }
            }
            Step::Send { chan, msg } => self.do_send(cpu, tid, chan, msg),
            Step::Recv { chan } => self.do_recv(cpu, tid, chan),
            Step::WaitUntil(at) => {
                let now = self.cpus[cpu as usize].time;
                if at > now {
                    self.wait_until(tid, at);
                    self.deschedule(cpu);
                }
            }
            Step::Dma { write, addr, len } => {
                let now = self.cpus[cpu as usize].time;
                if write {
                    self.mem.dma_write(addr.0, len, now);
                } else {
                    self.mem.dma_read(addr.0, len, now);
                }
                // Descriptor setup / doorbell; the transfer is asynchronous.
                self.cpus[cpu as usize].time += 200;
            }
            Step::Done => {
                self.threads[tid].status = Status::Done;
                self.deschedule(cpu);
            }
        }
    }

    fn do_send(&mut self, cpu: u32, tid: usize, chan: ChannelId, msg: Msg) {
        self.cpus[cpu as usize].time += SYNC_COST;
        let now = self.cpus[cpu as usize].time;
        if self.channels[chan.0 as usize].try_send(msg, now) {
            self.wake_recv_waiter(chan, now);
        } else {
            // Full: block. Draining channels give a timed retry.
            let eta = self.channels[chan.0 as usize].drain_eta(msg.bytes, now);
            self.threads[tid].pending = Some(Pending::Send(chan, msg));
            match eta {
                Some(at) => self.wait_until(tid, at.max(now + 1)),
                None => self.threads[tid].status = Status::BlockedSend(chan),
            }
            self.deschedule(cpu);
        }
    }

    fn do_recv(&mut self, cpu: u32, tid: usize, chan: ChannelId) {
        self.cpus[cpu as usize].time += SYNC_COST;
        let now = self.cpus[cpu as usize].time;
        match self.channels[chan.0 as usize].try_recv(now) {
            Some(m) => {
                self.threads[tid].mailbox = Some(m);
                self.wake_send_waiter(chan, now);
            }
            None => {
                // Channels with an external source give a timed retry.
                let eta = self.channels[chan.0 as usize].fill_eta(now);
                self.threads[tid].pending = Some(Pending::Recv(chan));
                match eta {
                    Some(at) => self.wait_until(tid, at.max(now + 1)),
                    None => self.threads[tid].status = Status::BlockedRecv(chan),
                }
                self.deschedule(cpu);
            }
        }
    }

    /// Execute up to [`BATCH`] op records, straight-line reference
    /// interpreter: every resource is re-indexed through `self` per op.
    /// Returns true when the trace is done. Kept verbatim as the semantic
    /// definition the batched path is checked against.
    fn exec_ops_scalar(&mut self, cpu: u32, exec: &mut ExecState) -> bool {
        let at = self.mem.placement(cpu);
        let core = self.cfg.core_of(cpu) as usize;
        let sibling = (cpu % self.cfg.threads_per_core) as usize;
        let crack = self.cfg.arch.crack;
        let penalty = self.cfg.arch.mispredict_penalty as u64;
        let store_cost = self.cfg.arch.store_cost as u64;
        let l1d_lat = self.cfg.arch.l1d.latency as u64;

        let mut t = self.cpus[cpu as usize].time;
        let batch_start = t;
        let end_pos = (exec.pos + BATCH).min(exec.trace.len());
        let ops = exec.trace.ops();
        let mut executed = 0usize;

        for op in &ops[exec.pos..end_pos] {
            if t.saturating_sub(batch_start) > SKEW_LIMIT {
                break;
            }
            executed += 1;
            let ctr = &mut self.counters[cpu as usize];
            match *op {
                Op::Alu(n) => {
                    t = self.issue[core].book(t, n);
                    ctr.inst_retired_milli += crack.retired_milli(OpClass::Alu, n as u64);
                    ctr.abstract_ops += n as u64;
                }
                Op::Load { addr, size } => {
                    t = self.issue[core].book(t, 1);
                    let a = exec.binding.resolve(addr);
                    let ev = self.mem.access_data(at, a.0, size as u32, false, t);
                    let ctr = &mut self.counters[cpu as usize];
                    if ev.l1_miss {
                        let stall = ev.latency.saturating_sub(l1d_lat);
                        t += ev.latency;
                        ctr.mem_stall_cycles += stall;
                        ctr.l1d_misses += 1;
                    }
                    if ev.l2_miss {
                        ctr.l2_misses += 1;
                    }
                    ctr.bus_txns += ev.bus_txns as u64;
                    ctr.loads += 1;
                    ctr.inst_retired_milli += crack.retired_milli(OpClass::Load, 1);
                    ctr.abstract_ops += 1;
                }
                Op::Store { addr, size } => {
                    t = self.issue[core].book(t, 1);
                    let a = exec.binding.resolve(addr);
                    let ev = self.mem.access_data(at, a.0, size as u32, true, t);
                    let ctr = &mut self.counters[cpu as usize];
                    // Stores retire through the store buffer: the core pays
                    // a small fixed cost, plus backpressure when the buffer
                    // drains slowly (a quarter of the miss latency models
                    // the queue filling under streaming writes).
                    t += store_cost;
                    if ev.l1_miss {
                        ctr.l1d_misses += 1;
                        let bp = ev.latency / 4;
                        t += bp;
                        ctr.mem_stall_cycles += bp;
                    }
                    if ev.l2_miss {
                        ctr.l2_misses += 1;
                    }
                    ctr.bus_txns += ev.bus_txns as u64;
                    ctr.stores += 1;
                    ctr.inst_retired_milli += crack.retired_milli(OpClass::Store, 1);
                    ctr.abstract_ops += 1;
                }
                Op::Branch { site, taken } => {
                    t = self.issue[core].book(t, 1);
                    let pc = site_pc(site);
                    let iev = self.mem.access_inst(at, pc.0, t);
                    let correct = self.predictors[core].update(pc.0, sibling, taken);
                    let ctr = &mut self.counters[cpu as usize];
                    if iev.l1_miss {
                        t += iev.latency;
                        ctr.l1i_misses += 1;
                    }
                    if iev.l2_miss {
                        ctr.l2_misses += 1;
                    }
                    ctr.bus_txns += iev.bus_txns as u64;
                    ctr.branches_retired += 1;
                    if !correct {
                        ctr.branch_mispredicts += 1;
                        ctr.flush_cycles += penalty;
                        t += penalty;
                    }
                    ctr.inst_retired_milli += crack.retired_milli(OpClass::Branch, 1);
                    ctr.abstract_ops += 1;
                }
                Op::Jump { site } => {
                    t = self.issue[core].book(t, 1);
                    let pc = site_pc(site);
                    let iev = self.mem.access_inst(at, pc.0, t);
                    let ctr = &mut self.counters[cpu as usize];
                    if iev.l1_miss {
                        t += iev.latency;
                        ctr.l1i_misses += 1;
                    }
                    if iev.l2_miss {
                        ctr.l2_misses += 1;
                    }
                    ctr.bus_txns += iev.bus_txns as u64;
                    ctr.branches_retired += 1;
                    ctr.inst_retired_milli += crack.retired_milli(OpClass::Jump, 1);
                    ctr.abstract_ops += 1;
                }
            }
        }
        exec.accum += t - self.cpus[cpu as usize].time;
        self.cpus[cpu as usize].time = t;
        exec.pos += executed;
        exec.pos == exec.trace.len()
    }

    /// Execute up to [`BATCH`] op records — the production fast path.
    ///
    /// Observationally identical to [`Machine::exec_ops_scalar`] (the
    /// equivalence suite proves byte-identical counters), but structured
    /// for throughput:
    /// - The core's predictor and config constants are hoisted out of the op
    ///   loop, and its issue timeline is booked on a local copy written
    ///   back once per quantum. No other logical CPU runs during a quantum,
    ///   so the SMT sibling never sees the copy.
    /// - Counting happens in one local per count, not in a counter block:
    ///   records per op class (ALU ops by their run length) and each event
    ///   count. `inst_retired_milli`, `abstract_ops`, `branches_retired`
    ///   and `flush_cycles` are linear in those counts, so the merge derives
    ///   them exactly, and no record reads, adds and stores a shared block.
    /// - It replays thread `tid`'s [`ExecState`] where it sits, so a quantum
    ///   moves no replay state out of the thread and back.
    fn exec_ops_batched(&mut self, cpu: u32, tid: usize) -> bool {
        let Machine { cfg, mem, issue, predictors, counters, cpus, threads, .. } = self;
        let exec = threads[tid].exec.as_mut().expect("a trace in flight");
        // Resolved once per quantum, from tables: no divide by thread count.
        let at = mem.placement(cpu);
        let (core, sibling) = (at.core as usize, at.sibling as usize);
        let crack = cfg.arch.crack;
        let penalty = cfg.arch.mispredict_penalty as u64;
        let store_cost = cfg.arch.store_cost as u64;
        let l1d_lat = cfg.arch.l1d.latency as u64;
        let mut timeline = issue[core];
        let pred = &mut predictors[core];

        let mut t = cpus[cpu as usize].time;
        let t_limit = t + SKEW_LIMIT;
        let end_pos = (exec.pos + BATCH).min(exec.trace.len());
        let ops = exec.trace.ops();
        let mut executed = 0usize;
        let (mut alu, mut loads, mut stores, mut branches, mut jumps) = (0u64, 0u64, 0u64, 0, 0);
        let (mut mispredicts, mut l1d_misses, mut l1i_misses) = (0u64, 0u64, 0u64);
        let (mut l2_misses, mut bus_txns, mut mem_stall) = (0u64, 0u64, 0u64);

        for op in &ops[exec.pos..end_pos] {
            if t > t_limit {
                break;
            }
            executed += 1;
            match *op {
                Op::Alu(n) => {
                    // A run-length-compressed ALU run retires in one
                    // timeline booking and one count, however long the run.
                    t = timeline.book(t, n);
                    alu += u64::from(n);
                }
                Op::Load { addr, size } => {
                    t = timeline.book(t, 1);
                    let a = exec.binding.resolve(addr);
                    let ev = mem.access_data(at, a.0, size as u32, false, t);
                    // Branchless accounting: the hit/miss flags become 0/1
                    // multipliers so the mixed hit/miss pattern of a real
                    // trace costs no data-dependent host branches. On a hit
                    // every multiplied term is exactly zero, matching the
                    // scalar path's skipped additions.
                    let miss = ev.l1_miss as u64;
                    t += ev.latency * miss;
                    mem_stall += ev.latency.saturating_sub(l1d_lat) * miss;
                    l1d_misses += miss;
                    l2_misses += ev.l2_miss as u64;
                    bus_txns += ev.bus_txns as u64;
                    loads += 1;
                }
                Op::Store { addr, size } => {
                    t = timeline.book(t, 1);
                    let a = exec.binding.resolve(addr);
                    let ev = mem.access_data(at, a.0, size as u32, true, t);
                    // Stores retire through the store buffer: the core pays
                    // a small fixed cost, plus backpressure when the buffer
                    // drains slowly (a quarter of the miss latency models
                    // the queue filling under streaming writes).
                    t += store_cost;
                    let miss = ev.l1_miss as u64;
                    let bp = (ev.latency / 4) * miss;
                    t += bp;
                    mem_stall += bp;
                    l1d_misses += miss;
                    l2_misses += ev.l2_miss as u64;
                    bus_txns += ev.bus_txns as u64;
                    stores += 1;
                }
                Op::Branch { site, taken } => {
                    t = timeline.book(t, 1);
                    let pc = site_pc(site);
                    let iev = mem.access_inst(at, pc.0, t);
                    let correct = pred.update(pc.0, sibling, taken);
                    if iev.l1_miss {
                        t += iev.latency;
                        l1i_misses += 1;
                        l2_misses += iev.l2_miss as u64;
                        bus_txns += iev.bus_txns as u64;
                    }
                    let wrong = !correct as u64;
                    mispredicts += wrong;
                    t += penalty * wrong;
                    branches += 1;
                }
                Op::Jump { site } => {
                    t = timeline.book(t, 1);
                    let pc = site_pc(site);
                    let iev = mem.access_inst(at, pc.0, t);
                    if iev.l1_miss {
                        t += iev.latency;
                        l1i_misses += 1;
                        l2_misses += iev.l2_miss as u64;
                        bus_txns += iev.bus_txns as u64;
                    }
                    jumps += 1;
                }
            }
        }
        issue[core] = timeline;
        let c = &mut counters[cpu as usize];
        c.inst_retired_milli += crack.retired_milli(OpClass::Alu, alu)
            + crack.retired_milli(OpClass::Load, loads)
            + crack.retired_milli(OpClass::Store, stores)
            + crack.retired_milli(OpClass::Branch, branches)
            + crack.retired_milli(OpClass::Jump, jumps);
        c.abstract_ops += alu + loads + stores + branches + jumps;
        c.branches_retired += branches + jumps;
        c.branch_mispredicts += mispredicts;
        c.flush_cycles += penalty * mispredicts;
        c.l1d_misses += l1d_misses;
        c.l1i_misses += l1i_misses;
        c.l2_misses += l2_misses;
        c.bus_txns += bus_txns;
        c.loads += loads;
        c.stores += stores;
        c.mem_stall_cycles += mem_stall;
        exec.accum += t - cpus[cpu as usize].time;
        cpus[cpu as usize].time = t;
        exec.pos += executed;
        exec.pos == exec.trace.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Platform;
    use crate::thread::LoopWorkload;
    use aon_trace::op::{Addr, RegionSlot};
    use aon_trace::VAddr;

    /// A compute-bound trace: tight ALU/branch loop over a small footprint.
    fn cpu_trace(iters: u32) -> Trace {
        let mut t = Trace::with_label("cpu");
        for i in 0..iters {
            t.push(Op::Alu(3));
            t.push(Op::Load { addr: Addr::new(RegionSlot::STATIC, (i % 64) * 8), size: 8 });
            t.push(Op::Branch { site: 77, taken: i + 1 < iters });
        }
        t
    }

    /// A streaming trace: touches fresh memory continuously.
    fn stream_trace(lines: u32) -> Trace {
        let mut t = Trace::with_label("stream");
        for i in 0..lines {
            t.push(Op::Load { addr: Addr::new(RegionSlot::MSG, i * 64), size: 8 });
            t.push(Op::Alu(1));
            t.push(Op::Branch { site: 99, taken: i + 1 < lines });
        }
        t
    }

    #[test]
    fn single_cpu_executes_and_counts() {
        let mut m = Machine::new(Platform::OneCorePentiumM.config());
        m.spawn(Box::new(LoopWorkload::new(cpu_trace(1000), Binding::new(), 1)));
        let out = m.run(10_000_000);
        assert!(!out.deadlocked);
        assert_eq!(out.completed_units, 1);
        let c = &m.counters()[0];
        assert_eq!(c.branches_retired, 1000);
        assert_eq!(c.loads, 1000);
        assert!(c.inst_retired() > 4900.0);
        assert!(c.clockticks > 0);
    }

    #[test]
    fn cpi_is_sane_for_cpu_bound_work() {
        let mut m = Machine::new(Platform::OneCorePentiumM.config());
        m.spawn(Box::new(LoopWorkload::new(cpu_trace(20_000), Binding::new(), 1)));
        m.run(100_000_000);
        let c = m.counters_total();
        let cpi = c.cpi();
        assert!(cpi > 0.4 && cpi < 3.0, "PM CPU-bound CPI should be near 1: {cpi}");
    }

    #[test]
    fn xeon_retires_more_instructions_for_same_trace() {
        let run = |p: Platform| -> f64 {
            let mut m = Machine::new(p.config());
            m.spawn(Box::new(LoopWorkload::new(cpu_trace(5_000), Binding::new(), 1)));
            m.run(100_000_000);
            m.counters_total().inst_retired()
        };
        let pm = run(Platform::OneCorePentiumM);
        let xe = run(Platform::OneLogicalXeon);
        assert!(xe / pm > 1.3, "Netburst cracking inflates retired count: {xe} vs {pm}");
    }

    #[test]
    fn branch_frequency_gap_matches_table5_shape() {
        let run = |p: Platform| -> f64 {
            let mut m = Machine::new(p.config());
            m.spawn(Box::new(LoopWorkload::new(cpu_trace(5_000), Binding::new(), 1)));
            m.run(100_000_000);
            m.counters_total().branch_freq_pct()
        };
        let pm = run(Platform::OneCorePentiumM);
        let xe = run(Platform::OneLogicalXeon);
        assert!(pm / xe > 1.5 && pm / xe < 2.6, "PM branch freq ~2x Xeon: {pm} vs {xe}");
    }

    #[test]
    fn streaming_work_produces_l2_misses_and_bus_traffic() {
        let mut m = Machine::new(Platform::OneLogicalXeon.config());
        // Rebind MSG each iteration to fresh addresses via a custom loop.
        struct Streamer {
            trace: Arc<Trace>,
            iter: u64,
        }
        impl Workload for Streamer {
            fn next(&mut self, ctx: &mut WorkloadCtx) -> Step {
                if self.iter >= 50 {
                    return Step::Done;
                }
                let mut b = Binding::new();
                b.bind(RegionSlot::MSG, VAddr(0x4000_0000 + self.iter * 0x10_0000));
                self.iter += 1;
                ctx.complete_units = 1;
                Step::Run { trace: Arc::clone(&self.trace), binding: b }
            }
        }
        m.spawn(Box::new(Streamer { trace: Arc::new(stream_trace(100)), iter: 0 }));
        m.run(100_000_000);
        let c = m.counters_total();
        assert!(c.l2_misses >= 5000 - 100, "every fresh line misses: {}", c.l2_misses);
        assert!(c.bus_txns >= c.l2_misses);
        assert!(c.l2mpi_pct() > 5.0);
    }

    #[test]
    fn two_cpus_split_work_and_both_count() {
        let mut m = Machine::new(Platform::TwoCorePentiumM.config());
        m.spawn(Box::new(LoopWorkload::new(cpu_trace(5_000), Binding::new(), 2)));
        m.spawn(Box::new(LoopWorkload::new(cpu_trace(5_000), Binding::new(), 2)));
        let out = m.run(100_000_000);
        assert_eq!(out.completed_units, 4);
        assert!(m.counters()[0].abstract_ops > 0);
        assert!(m.counters()[1].abstract_ops > 0);
        // Clockticks accumulate on both CPUs for the same wall time.
        assert_eq!(m.counters()[0].clockticks, m.counters()[1].clockticks);
    }

    #[test]
    fn dual_core_speeds_up_cpu_bound_work() {
        let elapsed = |p: Platform, threads: u32| -> u64 {
            let mut m = Machine::new(p.config());
            for _ in 0..threads {
                m.spawn(Box::new(LoopWorkload::new(cpu_trace(20_000), Binding::new(), 1)));
            }
            m.run(1_000_000_000).end_time
        };
        let one = elapsed(Platform::OneCorePentiumM, 2);
        let two = elapsed(Platform::TwoCorePentiumM, 2);
        let scaling = aon_trace::num::ratio(one, two);
        assert!(scaling > 1.6, "two cores should nearly halve wall time: {scaling}");
    }

    #[test]
    fn smt_scales_worse_than_physical_for_cpu_bound() {
        let elapsed = |p: Platform| -> u64 {
            let mut m = Machine::new(p.config());
            for _ in 0..2 {
                m.spawn(Box::new(LoopWorkload::new(cpu_trace(20_000), Binding::new(), 1)));
            }
            m.run(1_000_000_000).end_time
        };
        let one = {
            let mut m = Machine::new(Platform::OneLogicalXeon.config());
            for _ in 0..2 {
                m.spawn(Box::new(LoopWorkload::new(cpu_trace(20_000), Binding::new(), 1)));
            }
            m.run(1_000_000_000).end_time
        };
        let ht = elapsed(Platform::TwoLogicalXeon);
        let pp = elapsed(Platform::TwoPhysicalXeon);
        let ht_scaling = aon_trace::num::ratio(one, ht);
        let pp_scaling = aon_trace::num::ratio(one, pp);
        assert!(
            pp_scaling > ht_scaling + 0.3,
            "physical CPUs must beat HT for CPU-bound: HT {ht_scaling:.2} vs PP {pp_scaling:.2}"
        );
        assert!(pp_scaling > 1.6, "two packages scale well: {pp_scaling:.2}");
    }

    #[test]
    fn producer_consumer_channel_roundtrip() {
        struct Producer {
            chan: ChannelId,
            sent: u32,
        }
        impl Workload for Producer {
            fn next(&mut self, _ctx: &mut WorkloadCtx) -> Step {
                if self.sent >= 10 {
                    return Step::Done;
                }
                self.sent += 1;
                Step::Send { chan: self.chan, msg: Msg { bytes: 100, tag: self.sent as u64 } }
            }
        }
        struct Consumer {
            chan: ChannelId,
            got: u32,
            expect_next: u64,
        }
        impl Workload for Consumer {
            fn next(&mut self, ctx: &mut WorkloadCtx) -> Step {
                if let Some(m) = ctx.last_recv {
                    self.expect_next += 1;
                    assert_eq!(m.tag, self.expect_next, "FIFO order");
                    self.got += 1;
                    ctx.complete_units = 1;
                    ctx.complete_bytes = m.bytes as u64;
                }
                if self.got >= 10 {
                    return Step::Done;
                }
                Step::Recv { chan: self.chan }
            }
        }
        let mut m = Machine::new(Platform::TwoPhysicalXeon.config());
        let chan = m.add_channel(ChannelConfig::bounded(250));
        m.spawn(Box::new(Producer { chan, sent: 0 }));
        m.spawn(Box::new(Consumer { chan, got: 0, expect_next: 0 }));
        let out = m.run(100_000_000);
        assert!(!out.deadlocked, "producer/consumer must complete");
        assert_eq!(out.completed_units, 10);
        assert_eq!(out.completed_bytes, 1000);
    }

    #[test]
    fn draining_channel_unblocks_by_time() {
        struct Sender {
            chan: ChannelId,
            sent: u32,
        }
        impl Workload for Sender {
            fn next(&mut self, ctx: &mut WorkloadCtx) -> Step {
                if self.sent >= 5 {
                    return Step::Done;
                }
                self.sent += 1;
                ctx.complete_bytes = 1000;
                ctx.complete_units = 1;
                Step::Send { chan: self.chan, msg: Msg { bytes: 1000, tag: 0 } }
            }
        }
        let mut m = Machine::new(Platform::OneCorePentiumM.config());
        // Capacity one message; drains 1 byte/cycle.
        let chan =
            m.add_channel(ChannelConfig { capacity: 1000, drain_per_kcycle: 1024, fill: None });
        let out = {
            m.spawn(Box::new(Sender { chan, sent: 0 }));
            m.run(100_000_000)
        };
        assert!(!out.deadlocked);
        assert_eq!(out.completed_units, 5);
        // 5000 bytes at 1 byte/cycle: at least ~4000 cycles of pacing.
        assert!(out.end_time > 3_000, "rate limiting must pace the sender: {}", out.end_time);
    }

    #[test]
    fn wait_until_advances_clock() {
        struct Sleeper {
            woke: bool,
        }
        impl Workload for Sleeper {
            fn next(&mut self, ctx: &mut WorkloadCtx) -> Step {
                if self.woke {
                    assert!(ctx.now >= 50_000);
                    return Step::Done;
                }
                self.woke = true;
                Step::WaitUntil(50_000)
            }
        }
        let mut m = Machine::new(Platform::OneCorePentiumM.config());
        m.spawn(Box::new(Sleeper { woke: false }));
        let out = m.run(10_000_000);
        assert!(!out.deadlocked);
        assert!(out.end_time >= 50_000);
    }

    #[test]
    fn deadlock_detected() {
        struct Stuck {
            chan: ChannelId,
        }
        impl Workload for Stuck {
            fn next(&mut self, _ctx: &mut WorkloadCtx) -> Step {
                Step::Recv { chan: self.chan }
            }
        }
        let mut m = Machine::new(Platform::OneCorePentiumM.config());
        let chan = m.add_channel(ChannelConfig::bounded(100));
        m.spawn(Box::new(Stuck { chan }));
        let out = m.run(1_000_000);
        assert!(out.deadlocked);
    }

    #[test]
    fn reset_counters_isolates_measurement() {
        let mut m = Machine::new(Platform::OneCorePentiumM.config());
        m.spawn(Box::new(LoopWorkload::new(cpu_trace(1000), Binding::new(), 1)));
        m.run(10_000_000);
        let warm = m.counters_total().abstract_ops;
        assert!(warm > 0);
        m.reset_counters();
        assert_eq!(m.counters_total().abstract_ops, 0);
        m.spawn(Box::new(LoopWorkload::new(cpu_trace(500), Binding::new(), 1)));
        m.run(20_000_000);
        let measured = m.counters_total().abstract_ops;
        assert!(measured >= 2500 && measured < warm, "only post-reset work counts: {measured}");
    }

    #[test]
    fn batched_replay_matches_scalar_reference() {
        // Mixed compute + streaming load on an SMT config exercises every
        // op kind, both replay paths on both siblings, misses, mispredicts
        // and store backpressure. The two interpreters must agree to the
        // byte — counters, end time, and profile.
        let run = |reference: bool| {
            let mut m = Machine::new(Platform::TwoLogicalXeon.config());
            m.set_reference_replay(reference);
            m.spawn(Box::new(LoopWorkload::new(cpu_trace(3_000), Binding::new(), 1)));
            m.spawn(Box::new(LoopWorkload::new(stream_trace(3_000), Binding::new(), 1)));
            let out = m.run(100_000_000);
            let mut profile: Vec<(String, u64)> =
                m.profile().iter().map(|(k, v)| (k.clone(), *v)).collect();
            profile.sort();
            (out, m.counters().to_vec(), profile)
        };
        let batched = run(false);
        let scalar = run(true);
        assert_eq!(batched.0, scalar.0, "run outcome must be identical");
        assert_eq!(batched.1, scalar.1, "per-CPU counters must be byte-identical");
        assert_eq!(batched.2, scalar.2, "profile attribution must be identical");
    }

    /// A thread that sleeps until `wake`, replays `trace` once and exits.
    struct SleepThenRun {
        wake: u64,
        trace: Arc<Trace>,
        steps: u8,
    }

    impl Workload for SleepThenRun {
        fn next(&mut self, ctx: &mut WorkloadCtx) -> Step {
            self.steps += 1;
            match self.steps {
                1 => Step::WaitUntil(self.wake),
                2 => Step::Run { trace: Arc::clone(&self.trace), binding: Binding::new() },
                _ => {
                    ctx.complete_units = 1;
                    Step::Done
                }
            }
        }
    }

    /// The end time and, per CPU, the counters the scheduling order moves.
    fn pinned(m: &Machine, out: &RunOutcome) -> (u64, Vec<[u64; 8]>) {
        let per_cpu = m
            .counters()
            .iter()
            .map(|c| {
                [
                    c.inst_retired_milli,
                    c.abstract_ops,
                    c.branch_mispredicts,
                    c.l1d_misses,
                    c.l2_misses,
                    c.bus_txns,
                    c.idle_cycles,
                    c.mem_stall_cycles,
                ]
            })
            .collect();
        (out.end_time, per_cpu)
    }

    #[test]
    fn a_sleepers_wake_time_interrupts_a_long_trace() {
        // The sleeper's wake time falls inside the other CPU's long trace,
        // and the SMT siblings share one issue timeline: a replay that ran
        // on past the wake time would book the shared slots out of order.
        let mut m = Machine::new(Platform::TwoLogicalXeon.config());
        m.spawn(Box::new(LoopWorkload::new(cpu_trace(50_000), Binding::new(), 1)));
        m.spawn(Box::new(SleepThenRun {
            wake: 30_000,
            trace: Arc::new(stream_trace(500)),
            steps: 0,
        }));
        let out = m.run(100_000_000);
        assert!(!out.deadlocked);
        let want = vec![
            [390_000_000, 250_000, 1, 8, 9, 9, 0, 2_120],
            [2_300_000, 1_500, 1, 500, 501, 501, 321_900, 132_500],
        ];
        assert_eq!(pinned(&m, &out), (506_932, want));
    }

    #[test]
    fn the_deadline_stops_a_trace_mid_replay() {
        // The other CPU finishes early, so the deadline alone ends the
        // long trace's replay mid-trace.
        let mut m = Machine::new(Platform::TwoCorePentiumM.config());
        m.spawn(Box::new(LoopWorkload::new(cpu_trace(50_000), Binding::new(), 1)));
        m.spawn(Box::new(LoopWorkload::new(cpu_trace(100), Binding::new(), 1)));
        let out = m.run(40_000);
        let want = vec![
            [60_928_000, 60_928, 0, 8, 2, 514, 0, 410],
            [500_000, 500, 1, 8, 2, 8, 37_642, 344],
        ];
        assert_eq!(pinned(&m, &out), (40_000, want));
    }

    #[test]
    fn a_cpu_yields_once_it_overtakes_the_other() {
        // Both siblings replay long traces over one issue timeline: the
        // scheduler must hand over as soon as one clock passes the other's.
        let mut m = Machine::new(Platform::TwoLogicalXeon.config());
        m.spawn(Box::new(LoopWorkload::new(cpu_trace(20_000), Binding::new(), 1)));
        m.spawn(Box::new(LoopWorkload::new(stream_trace(2_000), Binding::new(), 1)));
        let out = m.run(100_000_000);
        assert!(!out.deadlocked);
        let want = vec![
            [156_000_000, 100_000, 1, 8, 9, 9, 392_615, 2_120],
            [9_200_000, 6_000, 1, 2_000, 2_001, 2_001, 0, 530_280],
        ];
        assert_eq!(pinned(&m, &out), (599_871, want));
    }

    #[test]
    fn more_threads_than_cpus_timeshare() {
        let mut m = Machine::new(Platform::OneCorePentiumM.config());
        for _ in 0..4 {
            m.spawn(Box::new(LoopWorkload::new(cpu_trace(1000), Binding::new(), 1)));
        }
        let out = m.run(1_000_000_000);
        assert!(!out.deadlocked);
        assert_eq!(out.completed_units, 4);
    }
}
