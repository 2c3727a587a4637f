//! The memory system: L1s, L2 domains, MESI coherence, FSB, DRAM, DMA.
//!
//! Topology follows [`MachineConfig`]:
//!
//! * one L1I + L1D per **physical core** (SMT siblings share them);
//! * one L2 per **domain** — a single shared L2 for the dual-core
//!   Pentium M ([`L2Topology::SharedAll`]), a private L2 per Xeon package
//!   ([`L2Topology::PerPackage`]);
//! * one front-side bus connecting all L2 domains, the DMA agent (NIC) and
//!   DRAM.
//!
//! Coherence is MESI at L2 granularity with bus snooping between domains;
//! within a domain the (inclusive) L2 keeps presence bits of which L1s
//! hold each line, so cross-core writes inside a shared-L2 package
//! invalidate the sibling's L1 without a bus transaction — while the same
//! producer/consumer pattern *between* packages turns into bus-crossing
//! cache-to-cache transfers. That asymmetry is exactly why the paper's
//! netperf-loopback throughput collapses on 2PPx but not on 2CPm (§4).

use crate::bus::BusyTimeline;
use crate::cache::{CacheArray, Mesi, Slot, Victim};
use crate::config::{L2Topology, MachineConfig};
use crate::prefetch::StridePrefetcher;

const LINE_SHIFT: u32 = 6;

/// Per-access outcome, consumed by the execution engine and the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemEvent {
    /// Cycles until the data is available to the requesting core.
    pub latency: u64,
    /// The access missed L1.
    pub l1_miss: bool,
    /// The access missed L2.
    pub l2_miss: bool,
    /// Front-side-bus transactions this access caused (miss fetches,
    /// write-backs, upgrades, cache-to-cache transfers, prefetches,
    /// disambiguation reloads).
    pub bus_txns: u32,
}

/// The complete memory system of one simulated machine.
#[derive(Debug)]
pub struct MemorySystem {
    cores: u32,
    l2_topology: L2Topology,
    cores_per_package: u32,

    /// Physical core of each logical CPU, precomputed: [`core_of`] and
    /// [`domain_of`] run on every memory access, and the straightforward
    /// `cpu / threads_per_core` costs an integer divide on that hot path.
    ///
    /// [`core_of`]: MemorySystem::core_of
    /// [`domain_of`]: MemorySystem::domain_of
    core_lut: Vec<u32>,
    /// L2 domain of each logical CPU, precomputed (see `core_lut`).
    domain_lut: Vec<u32>,

    l1d: Vec<CacheArray>,
    l1i: Vec<CacheArray>,
    l2: Vec<CacheArray>,
    l2_port: Vec<BusyTimeline>,
    fsb: BusyTimeline,

    l1d_latency: u64,
    l1i_latency: u64,
    l2_latency: u64,
    dram_latency: u64,
    line_bus_cycles: u64,

    prefetchers: Vec<StridePrefetcher>,
    prefetch_depth: u32,
    disamb_period: u32,
    disamb_count: Vec<u32>,

    /// Bus transactions issued by the DMA agent (NIC).
    pub dma_bus_txns: u64,
}

impl MemorySystem {
    /// Build the memory system for a machine description.
    pub fn new(cfg: &MachineConfig) -> Self {
        let cores = cfg.physical_cores();
        let domains = cfg.l2_domains();
        MemorySystem {
            cores,
            l2_topology: cfg.l2_topology,
            cores_per_package: cfg.cores_per_package,
            core_lut: (0..cfg.logical_cpus()).map(|c| cfg.core_of(c)).collect(),
            domain_lut: (0..cfg.logical_cpus()).map(|c| cfg.l2_domain_of(c)).collect(),
            l1d: (0..cores).map(|_| CacheArray::from_config(&cfg.arch.l1d)).collect(),
            l1i: (0..cores).map(|_| CacheArray::from_config(&cfg.arch.l1i)).collect(),
            l2: (0..domains).map(|_| CacheArray::from_config(&cfg.l2)).collect(),
            l2_port: (0..domains).map(|_| BusyTimeline::new()).collect(),
            fsb: BusyTimeline::new(),
            l1d_latency: cfg.arch.l1d.latency as u64,
            l1i_latency: cfg.arch.l1i.latency as u64,
            l2_latency: cfg.l2.latency as u64,
            dram_latency: cfg.dram_cycles(),
            line_bus_cycles: cfg.bus_line_cycles(),
            prefetchers: (0..cfg.logical_cpus())
                .map(|_| StridePrefetcher::new(cfg.arch.prefetch.stride))
                .collect(),
            prefetch_depth: cfg.arch.prefetch.depth,
            disamb_period: cfg.arch.prefetch.disambiguation_reload_per,
            disamb_count: vec![0; cfg.logical_cpus() as usize],
            dma_bus_txns: 0,
        }
    }

    #[inline]
    fn core_of(&self, cpu: u32) -> u32 {
        self.core_lut[cpu as usize]
    }

    #[inline]
    fn domain_of(&self, cpu: u32) -> u32 {
        self.domain_lut[cpu as usize]
    }

    /// Which presence bit a core occupies within its L2 domain.
    #[inline]
    fn presence_bit(&self, core: usize) -> u8 {
        match self.l2_topology {
            L2Topology::SharedAll => 1u8 << core,
            L2Topology::PerPackage => 1u8 << (core % self.cores_per_package as usize),
        }
    }

    /// A data access by logical CPU `cpu` at byte address `addr`, width
    /// `size`, at local time `now`.
    ///
    /// Inlined into the replay loop down to the L1 lookup: a single-line
    /// access that hits L1 needing no coherence work (any read, or a write
    /// to a line already Modified) resolves there. A miss or a coherence
    /// write takes one outlined walk that reuses the lookup's slot or miss.
    #[inline(always)]
    pub fn access_data(
        &mut self,
        cpu: u32,
        addr: u64,
        size: u32,
        write: bool,
        now: u64,
    ) -> MemEvent {
        let first = addr >> LINE_SHIFT;
        let last = (addr + size.max(1) as u64 - 1) >> LINE_SHIFT;
        let mut ev = if first == last {
            self.access_line(cpu, first, write, now)
        } else {
            self.access_lines(cpu, first, last, write, now)
        };
        if !write {
            self.disamb_tick(cpu, now, &mut ev);
        }
        ev
    }

    /// A multi-line access: each line in turn, merged.
    #[inline(never)]
    fn access_lines(&mut self, cpu: u32, first: u64, last: u64, write: bool, now: u64) -> MemEvent {
        let mut ev = MemEvent { latency: self.l1d_latency, ..Default::default() };
        for line in first..=last {
            let sub = self.access_line(cpu, line, write, now);
            ev.latency = ev.latency.max(sub.latency);
            ev.l1_miss |= sub.l1_miss;
            ev.l2_miss |= sub.l2_miss;
            ev.bus_txns += sub.bus_txns;
        }
        ev
    }

    /// Memory-disambiguation speculative reloads (Pentium M Smart Memory
    /// Access): periodic extra bus transactions on the load stream.
    #[inline]
    fn disamb_tick(&mut self, cpu: u32, now: u64, ev: &mut MemEvent) {
        if self.disamb_period > 0 {
            let c = &mut self.disamb_count[cpu as usize];
            *c += 1;
            if *c >= self.disamb_period {
                *c = 0;
                self.fsb.book(now, self.line_bus_cycles / 2);
                ev.bus_txns += 1;
            }
        }
    }

    /// One line of a data access, from the L1D lookup.
    #[inline(always)]
    fn access_line(&mut self, cpu: u32, line: u64, write: bool, now: u64) -> MemEvent {
        let core = self.core_of(cpu) as usize;
        match self.l1d[core].lookup_slot(line) {
            Some(s) => {
                if write && self.l1d[core].state_at(s) != Mesi::Modified {
                    return self.l1d_write_upgrade(cpu, core, s, line, now);
                }
                MemEvent { latency: self.l1d_latency, ..Default::default() }
            }
            None => self.l1d_miss(cpu, core, line, write, now),
        }
    }

    /// A write hit on an Exclusive or Shared L1D line: make it Modified in
    /// L1 and L2. Shared also invalidates the other copies — cross-package
    /// via the bus, and any sibling L1 copy inside this package via the
    /// snoop machinery.
    ///
    /// `s` stays valid throughout: the upgrade and the sibling
    /// invalidations only remove lines from other cores' L1s.
    #[inline(never)]
    fn l1d_write_upgrade(
        &mut self,
        cpu: u32,
        core: usize,
        s: Slot,
        line: u64,
        now: u64,
    ) -> MemEvent {
        let dom = self.domain_of(cpu) as usize;
        let mut ev = MemEvent { latency: self.l1d_latency, ..Default::default() };
        let shared = self.l1d[core].state_at(s) == Mesi::Shared;
        if shared {
            ev.latency += self.upgrade(dom, line, now, &mut ev);
        }
        self.l1d[core].set_state_at(s, Mesi::Modified);
        let Some(l2s) = self.l2[dom].slot_of(line) else { return ev };
        if shared {
            let pres = self.l2[dom].presence_at(l2s);
            let my_bit = self.presence_bit(core);
            if pres & !my_bit != 0 {
                self.invalidate_l1s(dom, line, pres & !my_bit);
                self.l2[dom].set_presence_at(l2s, my_bit);
                let (_, end) = self.l2_port[dom].book(now, 120);
                ev.latency += end - now;
            }
        }
        self.l2[dom].set_state_at(l2s, Mesi::Modified);
        ev
    }

    /// The L1D miss walk: L2 and below, then the L1 fill, its victim, the
    /// line's presence bit and the prefetcher.
    #[inline(never)]
    fn l1d_miss(&mut self, cpu: u32, core: usize, line: u64, write: bool, now: u64) -> MemEvent {
        let dom = self.domain_of(cpu) as usize;
        let mut ev = MemEvent { latency: self.l1d_latency, l1_miss: true, ..Default::default() };
        let (lat, l2s) = self.l2_and_below(core, dom, line, write, now, &mut ev);
        ev.latency += lat;
        // Fill L1 and record presence in the (inclusive) L2. The line is
        // still absent from this L1 — the walk below only removes lines —
        // and `l2s` survives the victim, which only edits its own entry.
        let l1_state = if write { Mesi::Modified } else { Mesi::Shared };
        if let (_, Some(v)) = self.l1d[core].fill_absent(line, l1_state) {
            self.l1_victim(core, dom, v);
        }
        let bit = self.presence_bit(core);
        let l2 = &mut self.l2[dom];
        l2.set_presence_at(l2s, l2.presence_at(l2s) | bit);
        // Train the stride prefetcher on L1 misses.
        if !write && self.prefetch_depth > 0 {
            if let Some(stride) = self.prefetchers[cpu as usize].observe(line) {
                self.prefetch(dom, line, stride, now, &mut ev);
            }
        }
        ev
    }

    /// Handle an L1 victim: dirty data goes back to L2; presence bit clears.
    fn l1_victim(&mut self, core: usize, dom: usize, v: Victim) {
        let bit = self.presence_bit(core);
        let l2 = &mut self.l2[dom];
        if let Some(s) = l2.slot_of(v.line_addr) {
            l2.set_presence_at(s, l2.presence_at(s) & !bit);
            if v.state == Mesi::Modified {
                // Write-back into L2 (same-package, no bus traffic).
                l2.set_state_at(s, Mesi::Modified);
            }
        }
    }

    /// L2 lookup and, on a miss, the bus/snoop/DRAM path. Returns latency
    /// beyond the L1 latency already charged, and where the line now sits
    /// in this domain's L2 (its one probe there: the upgrade and the snoops
    /// only touch other domains, and the L2 victim only the L1s).
    fn l2_and_below(
        &mut self,
        core: usize,
        dom: usize,
        line: u64,
        write: bool,
        now: u64,
        ev: &mut MemEvent,
    ) -> (u64, Slot) {
        // The L2 port is a shared resource inside the package: queueing
        // delay under contention is real (2CPm, 2LPx).
        let (start, _end) = self.l2_port[dom].book(now, 2);
        let queue = start - now;

        if let Some(s) = self.l2[dom].lookup_slot(line) {
            let state = self.l2[dom].state_at(s);
            let mut lat = queue + self.l2_latency;
            if write {
                // A write to a Shared line needs a bus upgrade.
                if state == Mesi::Shared {
                    lat += self.upgrade(dom, line, now + lat, ev);
                }
                self.l2[dom].set_state_at(s, Mesi::Modified);
            }
            // Cross-core steal within the domain: another L1 in this
            // package holds the line. Writes invalidate it; reads of a
            // Modified line need an intervention (the dirty data sits in
            // the sibling's L1, not in the L2 array). Either way the
            // in-package snoop round-trip is tens of cycles — the cost
            // behind the paper's 1CPm -> 2CPm loopback degradation.
            let pres = self.l2[dom].presence_at(s);
            let my_bit = self.presence_bit(core);
            if pres & !my_bit != 0 {
                let transfer = if write {
                    self.invalidate_l1s(dom, line, pres & !my_bit);
                    self.l2[dom].set_presence_at(s, 0);
                    true
                } else if state == Mesi::Modified {
                    self.downgrade_l1s_in_domain(dom, line);
                    true
                } else {
                    false
                };
                if transfer {
                    // The snoop round-trip occupies the shared L2/snoop
                    // machinery for the whole transfer — under
                    // producer/consumer ping-pong both cores serialize on
                    // it (the paper's "resource related stalls ... L2 (for
                    // 2CPm)", §4).
                    let (_, end) = self.l2_port[dom].book(now + lat, 120);
                    lat = end - now;
                }
            }
            return (lat, s);
        }

        ev.l2_miss = true;
        // One bus transaction for the line fetch.
        let (_, bus_end) = self.fsb.book(now + queue + self.l2_latency, self.line_bus_cycles);
        ev.bus_txns += 1;

        // Snoop the other L2 domains.
        let mut supplied_by_cache = false;
        let mut shared_elsewhere = false;
        for other in 0..self.l2.len() {
            if other == dom {
                continue;
            }
            let Some(s) = self.l2[other].slot_of(line) else { continue };
            let state = self.l2[other].state_at(s);
            if state == Mesi::Modified {
                // Cache-to-cache transfer + implicit write-back.
                supplied_by_cache = true;
                ev.bus_txns += 1;
                self.fsb.book(bus_end, self.line_bus_cycles);
            }
            if write {
                let (_, pres) = self.l2[other].invalidate_at(s);
                self.invalidate_l1s(other, line, pres);
            } else {
                self.l2[other].set_state_at(s, Mesi::Shared);
                if state == Mesi::Modified {
                    // Downgrade the owning L1s too.
                    self.downgrade_l1s_in_domain(other, line);
                }
                shared_elsewhere = true;
            }
        }

        let transfer = if supplied_by_cache {
            // Dirty-hit intervention: the owning cache writes back through
            // the bus and the requester re-reads — slower than a straight
            // DRAM fetch on an FSB system, which is why producer/consumer
            // loopback collapses across packages (paper Figure 2, 2PPx).
            (bus_end - now) + self.dram_latency + 4 * self.line_bus_cycles
        } else {
            (bus_end - now) + self.dram_latency
        };

        // Fill L2: the lookup above missed and the snoops touched only the
        // other domains.
        let state = if write {
            Mesi::Modified
        } else if shared_elsewhere {
            Mesi::Shared
        } else {
            Mesi::Exclusive
        };
        let (s, victim) = self.l2[dom].fill_absent(line, state);
        if let Some(v) = victim {
            self.l2_victim(dom, v, bus_end, ev);
        }
        (queue + self.l2_latency + transfer, s)
    }

    /// A bus upgrade (invalidate other domains' copies). Returns extra
    /// latency.
    fn upgrade(&mut self, dom: usize, line: u64, now: u64, ev: &mut MemEvent) -> u64 {
        let mut other_had = false;
        for other in 0..self.l2.len() {
            if other == dom {
                continue;
            }
            if let Some((_, pres)) = self.l2[other].invalidate(line) {
                self.invalidate_l1s(other, line, pres);
                other_had = true;
            }
        }
        if other_had || self.l2.len() > 1 {
            // Invalidation broadcast occupies the address bus briefly.
            let (_, end) = self.fsb.book(now, self.line_bus_cycles / 4);
            ev.bus_txns += 1;
            end - now // queueing included
        } else {
            0
        }
    }

    /// Invalidate a line from the L1s of a domain per presence mask. The
    /// caller owns the L2 entry's presence bits.
    fn invalidate_l1s(&mut self, dom: usize, line: u64, pres: u8) {
        for c in self.domain_cores(dom) {
            let bit = self.presence_bit(c);
            if pres & bit != 0 {
                self.l1d[c].invalidate(line);
            }
        }
    }

    /// Downgrade Modified L1 copies to Shared.
    fn downgrade_l1s_in_domain(&mut self, dom: usize, line: u64) {
        for c in self.domain_cores(dom) {
            self.l1d[c].set_state(line, Mesi::Shared);
        }
    }

    fn domain_cores(&self, dom: usize) -> std::ops::Range<usize> {
        match self.l2_topology {
            L2Topology::SharedAll => 0..self.cores as usize,
            L2Topology::PerPackage => {
                let per = self.cores_per_package as usize;
                dom * per..(dom + 1) * per
            }
        }
    }

    /// Handle an L2 victim: back-invalidate L1s (inclusion), write back if
    /// dirty.
    fn l2_victim(&mut self, dom: usize, v: Victim, now: u64, ev: &mut MemEvent) {
        if v.presence != 0 {
            self.invalidate_l1s(dom, v.line_addr, v.presence);
        }
        if v.state == Mesi::Modified {
            self.fsb.book(now, self.line_bus_cycles);
            ev.bus_txns += 1;
        }
    }

    /// Issue stride prefetches into L2 (latency hidden from the core; bus
    /// occupancy and transaction counts are real).
    fn prefetch(&mut self, dom: usize, line: u64, stride: i64, now: u64, ev: &mut MemEvent) {
        for k in 1..=self.prefetch_depth as i64 {
            let target = line as i64 + stride * k;
            if target < 0 {
                break;
            }
            let target = target as u64;
            if self.l2[dom].slot_of(target).is_none() {
                self.fsb.book(now, self.line_bus_cycles);
                ev.bus_txns += 1;
                if let (_, Some(v)) = self.l2[dom].fill_absent(target, Mesi::Exclusive) {
                    self.l2_victim(dom, v, now, ev);
                }
            }
        }
    }

    /// An instruction fetch by `cpu` at synthetic PC `pc`. Inlined into the
    /// replay loop down to the L1I lookup (every branch/jump record pays
    /// this); the miss walk is outlined.
    #[inline(always)]
    pub fn access_inst(&mut self, cpu: u32, pc: u64, now: u64) -> MemEvent {
        let core = self.core_of(cpu) as usize;
        let line = pc >> LINE_SHIFT;
        if self.l1i[core].lookup_slot(line).is_some() {
            return MemEvent { latency: self.l1i_latency, ..Default::default() };
        }
        self.l1i_miss(cpu, core, line, now)
    }

    #[inline(never)]
    fn l1i_miss(&mut self, cpu: u32, core: usize, line: u64, now: u64) -> MemEvent {
        let dom = self.domain_of(cpu) as usize;
        let mut ev = MemEvent { latency: self.l1i_latency, l1_miss: true, ..Default::default() };
        let (lat, _) = self.l2_and_below(core, dom, line, false, now, &mut ev);
        ev.latency += lat;
        // Still absent: nothing below the L1I removes or adds its lines.
        self.l1i[core].fill_absent(line, Mesi::Shared);
        ev
    }

    /// DMA write of `len` bytes at `addr` (NIC receive into memory):
    /// invalidates cached copies everywhere and occupies the bus. Returns
    /// the completion time.
    ///
    /// DMA bursts interleave with demand traffic on a real FSB (the memory
    /// controller arbitrates per transaction), so the timeline booking per
    /// line is a quarter of a demand fetch — the transaction *count* stays
    /// exact, only head-of-line blocking behind multi-kilobyte bursts is
    /// avoided.
    pub fn dma_write(&mut self, addr: u64, len: u32, now: u64) -> u64 {
        let first = addr >> LINE_SHIFT;
        let last = (addr + len.max(1) as u64 - 1) >> LINE_SHIFT;
        let mut t = now;
        for line in first..=last {
            for dom in 0..self.l2.len() {
                if let Some((_, pres)) = self.l2[dom].invalidate(line) {
                    self.invalidate_l1s(dom, line, pres);
                }
            }
            let (_, end) = self.fsb.book(t, (self.line_bus_cycles / 4).max(1));
            self.dma_bus_txns += 1;
            t = end;
        }
        t
    }

    /// DMA read of `len` bytes at `addr` (NIC transmit from memory): dirty
    /// cached lines are snooped out first. Returns the completion time.
    pub fn dma_read(&mut self, addr: u64, len: u32, now: u64) -> u64 {
        let first = addr >> LINE_SHIFT;
        let last = (addr + len.max(1) as u64 - 1) >> LINE_SHIFT;
        let mut t = now;
        for line in first..=last {
            for dom in 0..self.l2.len() {
                let Some(s) = self.l2[dom].slot_of(line) else { continue };
                if self.l2[dom].state_at(s) == Mesi::Modified {
                    // Implicit write-back before the DMA read.
                    self.l2[dom].set_state_at(s, Mesi::Shared);
                    self.downgrade_l1s_in_domain(dom, line);
                    let (_, end) = self.fsb.book(t, (self.line_bus_cycles / 4).max(1));
                    self.dma_bus_txns += 1;
                    t = end;
                }
            }
            let (_, end) = self.fsb.book(t, (self.line_bus_cycles / 4).max(1));
            self.dma_bus_txns += 1;
            t = end;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Platform;

    fn mem(p: Platform) -> MemorySystem {
        MemorySystem::new(&p.config())
    }

    #[test]
    fn l1_hit_is_fast() {
        let mut m = mem(Platform::OneCorePentiumM);
        let first = m.access_data(0, 0x1000, 8, false, 0);
        assert!(first.l1_miss && first.l2_miss);
        assert!(first.bus_txns >= 1);
        let second = m.access_data(0, 0x1008, 8, false, 100);
        assert!(!second.l1_miss);
        assert_eq!(second.latency, 3); // PM L1 latency
        assert_eq!(second.bus_txns, 0);
    }

    #[test]
    fn l2_hit_cheaper_than_dram() {
        let mut m = mem(Platform::OneCorePentiumM);
        m.access_data(0, 0x2000, 8, false, 0);
        // Evict from L1 by touching many conflicting lines (L1 32KB/8w/64B:
        // 64 sets; lines 0x2000>>6=0x80 + k*64 alias into set 0).
        for k in 1..=9u64 {
            m.access_data(0, 0x2000 + k * 64 * 64, 8, false, 1000 + k * 200);
        }
        let again = m.access_data(0, 0x2000, 8, false, 100_000);
        assert!(again.l1_miss, "must have been evicted from tiny set");
        assert!(!again.l2_miss, "L2 (2MB) still holds it");
        assert!(again.latency < 40, "L2 hit latency, got {}", again.latency);
    }

    #[test]
    fn streaming_misses_in_both_levels() {
        let mut m = mem(Platform::OneLogicalXeon);
        let mut misses = 0;
        for i in 0..1000u64 {
            let ev = m.access_data(0, 0x10_0000 + i * 64, 8, false, i * 300);
            if ev.l2_miss {
                misses += 1;
            }
        }
        assert_eq!(misses, 1000, "streaming never reuses lines");
    }

    #[test]
    fn cross_package_write_sharing_ping_pongs() {
        // 2PPx: cpu0 and cpu1 in different packages; alternating writes to
        // the same line must generate continuous bus traffic.
        let mut m = mem(Platform::TwoPhysicalXeon);
        let mut txns = 0;
        let mut t = 0;
        for i in 0..100 {
            let cpu = i % 2;
            let ev = m.access_data(cpu, 0x5000, 8, true, t);
            txns += ev.bus_txns;
            t += 500;
        }
        assert!(txns > 90, "cross-package ping-pong must stay on the bus: {txns}");
    }

    #[test]
    fn same_package_write_sharing_stays_off_bus() {
        // 2CPm: both cores share the L2; after the first fetch the line
        // ping-pongs through L2, not the bus.
        let mut m = mem(Platform::TwoCorePentiumM);
        let mut txns = 0;
        let mut t = 0;
        for i in 0..100 {
            let cpu = i % 2;
            let ev = m.access_data(cpu, 0x5000, 8, true, t);
            txns += ev.bus_txns;
            t += 500;
        }
        assert!(txns <= 4, "shared-L2 ping-pong must stay in-package: {txns}");
    }

    #[test]
    fn read_sharing_is_cheap_everywhere() {
        let mut m = mem(Platform::TwoPhysicalXeon);
        m.access_data(0, 0x9000, 8, false, 0);
        m.access_data(1, 0x9000, 8, false, 1000);
        // Steady-state reads hit local caches.
        let a = m.access_data(0, 0x9000, 8, false, 2000);
        let b = m.access_data(1, 0x9000, 8, false, 2000);
        assert!(!a.l1_miss && !b.l1_miss);
        assert_eq!(a.bus_txns + b.bus_txns, 0);
    }

    #[test]
    fn prefetcher_generates_bus_traffic_and_hides_latency() {
        let mut m = mem(Platform::OneCorePentiumM); // prefetch on
        let mut total_txns = 0;
        let mut t = 0;
        // Sequential stream: after training, L2 misses turn into L2 hits.
        let mut l2_misses = 0;
        for i in 0..200u64 {
            let ev = m.access_data(0, 0x40_0000 + i * 64, 8, false, t);
            total_txns += ev.bus_txns;
            if ev.l2_miss {
                l2_misses += 1;
            }
            t += 400;
        }
        assert!(l2_misses < 150, "prefetcher should convert some L2 misses: {l2_misses}");
        assert!(total_txns >= 200, "prefetches still ride the bus: {total_txns}");
    }

    #[test]
    fn xeon_has_no_prefetch_traffic() {
        let mut m = mem(Platform::OneLogicalXeon);
        let mut t = 0;
        let mut txns = 0;
        for i in 0..100u64 {
            let ev = m.access_data(0, 0x40_0000 + i * 64, 8, false, t);
            txns += ev.bus_txns;
            t += 400;
        }
        // Exactly one transaction per streaming miss, nothing extra.
        assert_eq!(txns, 100);
    }

    #[test]
    fn dma_write_invalidates_caches() {
        let mut m = mem(Platform::OneCorePentiumM);
        m.access_data(0, 0x7000, 8, false, 0);
        let before = m.dma_bus_txns;
        m.dma_write(0x7000, 64, 1000);
        assert!(m.dma_bus_txns > before);
        let ev = m.access_data(0, 0x7000, 8, false, 5000);
        assert!(ev.l1_miss && ev.l2_miss, "DMA write must invalidate cached copies");
    }

    #[test]
    fn icache_hits_after_first_fetch() {
        let mut m = mem(Platform::OneLogicalXeon);
        let a = m.access_inst(0, 0x40_0000, 0);
        assert!(a.l1_miss);
        let b = m.access_inst(0, 0x40_0004, 100);
        assert!(!b.l1_miss);
        assert_eq!(b.latency, 1);
    }

    #[test]
    fn smt_siblings_share_l1() {
        let mut m = mem(Platform::TwoLogicalXeon);
        m.access_data(0, 0x8000, 8, false, 0);
        let ev = m.access_data(1, 0x8000, 8, false, 1000);
        assert!(!ev.l1_miss, "HT siblings share the L1D");
    }

    #[test]
    fn dirty_l2_eviction_writes_back() {
        let mut m = mem(Platform::OneLogicalXeon); // 1MB L2, 8 ways, 2048 sets
                                                   // Write a line, then stream enough conflicting lines through the
                                                   // same L2 set to evict it; the eviction must cost a write-back txn.
        m.access_data(0, 0, 8, true, 0);
        let set_stride = 2048u64 * 64; // lines that alias into set 0
        let mut txns = 0;
        for k in 1..=9u64 {
            let ev = m.access_data(0, k * set_stride, 8, false, k * 2000);
            txns += ev.bus_txns;
        }
        assert!(txns > 9, "one fetch each plus at least one write-back: {txns}");
    }
}
