//! Machine descriptions — the paper's Table 1 and Table 2.
//!
//! [`CoreArch`] captures the per-microarchitecture parameters (fetch/issue
//! width, misprediction penalty, predictor geometry, cache latencies,
//! instruction cracking, prefetcher behaviour); [`MachineConfig`] composes
//! cores, sockets, SMT, the L2 sharing topology, front-side bus and DRAM.
//! [`Platform`] enumerates the five configurations under test and builds
//! the corresponding `MachineConfig`s.

use crate::isa::CrackModel;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size: u32,
    /// Associativity (ways).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line: u32,
    /// Access latency in CPU cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size / (self.ways * self.line)
    }
}

/// Branch predictor geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// log2 of the pattern-history-table entries.
    pub table_bits: u32,
    /// Global history length in bits.
    pub history_bits: u32,
}

/// Hardware prefetcher knobs (the Pentium M "Smart Memory Access" model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Stride prefetcher enabled (fills L2 ahead of detected streams).
    pub stride: bool,
    /// Lines fetched ahead on a detected stream.
    pub depth: u32,
    /// Memory-disambiguation speculative reloads: one extra bus transaction
    /// per this many committed loads (0 = off). Models the paper's §5.4
    /// observation that Smart Memory Access *raises* Pentium M bus traffic.
    pub disambiguation_reload_per: u32,
}

impl PrefetchConfig {
    /// No prefetching (Netburst model — it had prefetchers, but the paper
    /// attributes the extra bus traffic specifically to Pentium M's).
    pub const OFF: PrefetchConfig =
        PrefetchConfig { stride: false, depth: 0, disambiguation_reload_per: 0 };
}

/// Per-microarchitecture parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreArch {
    /// Human-readable name.
    pub name: &'static str,
    /// Issue bandwidth in *hundredths of abstract ops per cycle* (e.g. 140 =
    /// 1.4 ops/cycle). Shared by SMT siblings on the same physical core.
    pub issue_width_x100: u32,
    /// Branch misprediction penalty in cycles (pipeline depth proxy:
    /// Pentium M ~12, Netburst ~30).
    pub mispredict_penalty: u32,
    /// Branch predictor geometry.
    pub predictor: PredictorConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// L1 instruction cache (the Netburst trace cache is approximated as a
    /// small L1I; see DESIGN.md).
    pub l1i: CacheConfig,
    /// Abstract-op → retired-instruction cracking.
    pub crack: CrackModel,
    /// Prefetcher behaviour.
    pub prefetch: PrefetchConfig,
    /// Store-buffer drain cost charged to the core per store (stores do not
    /// block on misses; the bus/cache state still updates).
    pub store_cost: u32,
}

/// How L2 caches map onto cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Topology {
    /// One L2 shared by every core in the machine (dual-core Pentium M).
    SharedAll,
    /// One private L2 per physical package (dual-socket Xeon).
    PerPackage,
}

/// A complete platform description.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Configuration label (`1CPm`, `2LPx`, …).
    pub name: &'static str,
    /// Core microarchitecture.
    pub arch: CoreArch,
    /// Physical packages (sockets or dies).
    pub packages: u32,
    /// Physical cores per package.
    pub cores_per_package: u32,
    /// Logical CPUs (SMT threads) per core.
    pub threads_per_core: u32,
    /// CPU clock in MHz.
    pub cpu_mhz: u32,
    /// L2 cache geometry.
    pub l2: CacheConfig,
    /// L2 sharing topology.
    pub l2_topology: L2Topology,
    /// Front-side bus clock in MHz (effective transfer rate).
    pub bus_mhz: u32,
    /// Bus width in bytes per bus cycle.
    pub bus_bytes_per_cycle: u32,
    /// DRAM access latency in nanoseconds.
    pub dram_ns: u32,
    /// SMT threads share the branch predictor table (Netburst HT).
    pub smt_shared_predictor: bool,
}

impl MachineConfig {
    /// Total logical CPUs.
    pub fn logical_cpus(&self) -> u32 {
        self.packages * self.cores_per_package * self.threads_per_core
    }

    /// Total physical cores.
    pub fn physical_cores(&self) -> u32 {
        self.packages * self.cores_per_package
    }

    /// The physical core index of a logical CPU.
    pub fn core_of(&self, cpu: u32) -> u32 {
        cpu / self.threads_per_core
    }

    /// The package index of a logical CPU.
    pub fn package_of(&self, cpu: u32) -> u32 {
        self.core_of(cpu) / self.cores_per_package
    }

    /// The L2 domain index of a logical CPU.
    pub fn l2_domain_of(&self, cpu: u32) -> u32 {
        match self.l2_topology {
            L2Topology::SharedAll => 0,
            L2Topology::PerPackage => self.package_of(cpu),
        }
    }

    /// Number of L2 domains.
    pub fn l2_domains(&self) -> u32 {
        match self.l2_topology {
            L2Topology::SharedAll => 1,
            L2Topology::PerPackage => self.packages,
        }
    }

    /// One bus cycle expressed in CPU cycles (rounded).
    pub fn bus_cycle_in_cpu_cycles(&self) -> u64 {
        ((self.cpu_mhz + self.bus_mhz / 2) / self.bus_mhz).max(1) as u64
    }

    /// DRAM latency in CPU cycles.
    pub fn dram_cycles(&self) -> u64 {
        (self.dram_ns as u64 * self.cpu_mhz as u64) / 1000
    }

    /// CPU cycles to move one cache line over the bus.
    pub fn bus_line_cycles(&self) -> u64 {
        let bus_cycles = (self.l2.line / self.bus_bytes_per_cycle).max(1) as u64;
        bus_cycles * self.bus_cycle_in_cpu_cycles()
    }
}

/// The Pentium M (dual-core, "wide dynamic execution") core model.
pub fn pentium_m_arch() -> CoreArch {
    CoreArch {
        name: "PentiumM",
        issue_width_x100: 160,
        mispredict_penalty: 12,
        predictor: PredictorConfig { table_bits: 14, history_bits: 8 },
        l1d: CacheConfig { size: 32 << 10, ways: 8, line: 64, latency: 3 },
        l1i: CacheConfig { size: 32 << 10, ways: 8, line: 64, latency: 1 },
        crack: CrackModel::pentium_m(),
        prefetch: PrefetchConfig { stride: true, depth: 2, disambiguation_reload_per: 24 },
        store_cost: 1,
    }
}

/// The Xeon (Netburst, Hyperthreading) core model.
pub fn xeon_arch() -> CoreArch {
    CoreArch {
        name: "Xeon",
        issue_width_x100: 50,
        mispredict_penalty: 30,
        predictor: PredictorConfig { table_bits: 10, history_bits: 8 },
        l1d: CacheConfig { size: 16 << 10, ways: 8, line: 64, latency: 2 },
        // The 12k-uop trace cache approximated as a 16 KB L1I.
        l1i: CacheConfig { size: 16 << 10, ways: 8, line: 64, latency: 1 },
        crack: CrackModel::netburst(),
        prefetch: PrefetchConfig::OFF,
        store_cost: 1,
    }
}

/// The five configurations of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Pentium M, one of two cores enabled (`maxcpus=1`).
    OneCorePentiumM,
    /// Pentium M, both cores (shared 2 MB L2).
    TwoCorePentiumM,
    /// Xeon, one physical CPU, Hyperthreading disabled.
    OneLogicalXeon,
    /// Xeon, one physical CPU, Hyperthreading enabled (2 logical CPUs).
    TwoLogicalXeon,
    /// Xeon, two physical CPUs, Hyperthreading disabled.
    TwoPhysicalXeon,
}

impl Platform {
    /// All five, in the paper's reporting order.
    pub const ALL: [Platform; 5] = [
        Platform::OneCorePentiumM,
        Platform::TwoCorePentiumM,
        Platform::OneLogicalXeon,
        Platform::TwoLogicalXeon,
        Platform::TwoPhysicalXeon,
    ];

    /// The paper's notation for this configuration.
    pub fn notation(&self) -> &'static str {
        match self {
            Platform::OneCorePentiumM => "1CPm",
            Platform::TwoCorePentiumM => "2CPm",
            Platform::OneLogicalXeon => "1LPx",
            Platform::TwoLogicalXeon => "2LPx",
            Platform::TwoPhysicalXeon => "2PPx",
        }
    }

    /// Build the machine description.
    pub fn config(&self) -> MachineConfig {
        match self {
            Platform::OneCorePentiumM | Platform::TwoCorePentiumM => {
                let cores = if *self == Platform::OneCorePentiumM { 1 } else { 2 };
                MachineConfig {
                    name: self.notation(),
                    arch: pentium_m_arch(),
                    packages: 1,
                    cores_per_package: cores,
                    threads_per_core: 1,
                    cpu_mhz: 1830,
                    l2: CacheConfig { size: 2 << 20, ways: 8, line: 64, latency: 14 },
                    l2_topology: L2Topology::SharedAll,
                    bus_mhz: 667,
                    bus_bytes_per_cycle: 8,
                    dram_ns: 60,
                    smt_shared_predictor: false,
                }
            }
            Platform::OneLogicalXeon | Platform::TwoLogicalXeon | Platform::TwoPhysicalXeon => {
                let (packages, threads) = match self {
                    Platform::OneLogicalXeon => (1, 1),
                    Platform::TwoLogicalXeon => (1, 2),
                    Platform::TwoPhysicalXeon => (2, 1),
                    _ => unreachable!(),
                };
                MachineConfig {
                    name: self.notation(),
                    arch: xeon_arch(),
                    packages,
                    cores_per_package: 1,
                    threads_per_core: threads,
                    cpu_mhz: 3160,
                    l2: CacheConfig { size: 1 << 20, ways: 8, line: 64, latency: 18 },
                    l2_topology: L2Topology::PerPackage,
                    bus_mhz: 667,
                    bus_bytes_per_cycle: 8,
                    dram_ns: 60,
                    smt_shared_predictor: true,
                }
            }
        }
    }

    /// Number of logical CPUs in this configuration.
    pub fn logical_cpus(&self) -> u32 {
        self.config().logical_cpus()
    }
}

impl core::fmt::Display for Platform {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.notation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_topologies() {
        assert_eq!(Platform::OneCorePentiumM.logical_cpus(), 1);
        assert_eq!(Platform::TwoCorePentiumM.logical_cpus(), 2);
        assert_eq!(Platform::OneLogicalXeon.logical_cpus(), 1);
        assert_eq!(Platform::TwoLogicalXeon.logical_cpus(), 2);
        assert_eq!(Platform::TwoPhysicalXeon.logical_cpus(), 2);
    }

    #[test]
    fn l2_domains_match_paper() {
        // 2CPm: both cores share one L2; 2PPx: private L2 each; 2LPx: both
        // logical CPUs share the single package's L2.
        let c = Platform::TwoCorePentiumM.config();
        assert_eq!(c.l2_domains(), 1);
        assert_eq!(c.l2_domain_of(0), c.l2_domain_of(1));

        let c = Platform::TwoPhysicalXeon.config();
        assert_eq!(c.l2_domains(), 2);
        assert_ne!(c.l2_domain_of(0), c.l2_domain_of(1));

        let c = Platform::TwoLogicalXeon.config();
        assert_eq!(c.l2_domains(), 1);
        assert_eq!(c.core_of(0), c.core_of(1));
    }

    #[test]
    fn table1_cache_sizes() {
        let pm = Platform::TwoCorePentiumM.config();
        assert_eq!(pm.l2.size, 2 << 20);
        assert_eq!(pm.arch.l1d.size, 32 << 10);
        let xe = Platform::TwoPhysicalXeon.config();
        assert_eq!(xe.l2.size, 1 << 20);
        assert_eq!(xe.arch.l1d.size, 16 << 10);
    }

    #[test]
    fn bus_and_dram_timing() {
        let pm = Platform::OneCorePentiumM.config();
        // 1830/667 ≈ 3 CPU cycles per bus cycle; 64B line = 8 bus cycles.
        assert_eq!(pm.bus_cycle_in_cpu_cycles(), 3);
        assert_eq!(pm.bus_line_cycles(), 24);
        // 60 ns at 1.83 GHz ≈ 109 cycles.
        assert_eq!(pm.dram_cycles(), 109);

        let xe = Platform::OneLogicalXeon.config();
        assert_eq!(xe.bus_cycle_in_cpu_cycles(), 5);
        // Same wall-clock DRAM is more CPU cycles at 3.16 GHz.
        assert!(xe.dram_cycles() > pm.dram_cycles());
    }

    #[test]
    fn cache_sets() {
        let c = CacheConfig { size: 32 << 10, ways: 8, line: 64, latency: 3 };
        assert_eq!(c.sets(), 64);
    }

    #[test]
    fn notation_roundtrip() {
        for p in Platform::ALL {
            assert_eq!(p.config().name, p.notation());
        }
    }
}
