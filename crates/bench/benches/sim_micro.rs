//! Microbenchmarks of the simulator's hot components.

use aon_core::memo::{self, CorpusSpec};
use aon_server::usecase::UseCase;
use aon_sim::branch::Gshare;
use aon_sim::bus::{BusyTimeline, SlotTimeline};
use aon_sim::cache::{CacheArray, Mesi};
use aon_sim::config::{Platform, PredictorConfig};
use aon_sim::hier::MemorySystem;
use aon_sim::replay::{replay, Quantum};
use aon_trace::op::{Addr, Op, RegionSlot};
use aon_trace::trace::Binding;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

/// One op-loop kernel: `ops` replayed over and over by `replay` on a
/// hand-built 1CPm quantum, with no `Machine` and no scheduler. Each
/// iteration is one whole replay of `ops` (the harness's warm-up replays
/// leave the caches and predictor warm), so the element rate is records per
/// second: the op loop, its inlined hit paths and whatever miss walks the
/// records make.
fn replay_kernel(c: &mut Criterion, name: &str, ops: &[Op]) {
    let cfg = Platform::OneCorePentiumM.config();
    let mut mem = MemorySystem::new(&cfg);
    let mut pred = Gshare::new(cfg.arch.predictor);
    let at = mem.placement(0);
    let timeline = SlotTimeline::new(cfg.arch.issue_width_x100);
    let mut q = Quantum::new(&mut mem, &mut pred, timeline, at, &cfg.arch);
    let binding = Binding::new();
    let mut t = 0u64;
    let mut g = c.benchmark_group("sim_micro");
    g.throughput(Throughput::Elements(u64::try_from(ops.len()).expect("record count fits u64")));
    g.bench_function(name, |b| {
        b.iter(|| {
            let (end, executed, counts) = replay(&mut q, ops, &binding, t, u64::MAX);
            assert_eq!(executed, ops.len(), "no limit stops a kernel's replay");
            t = end;
            std::hint::black_box(counts)
        })
    });
    g.finish();
}

/// The replay layer on its own: the longest phase trace of one recorded SV
/// message, which mixes every record kind and makes the miss walks a real
/// segment makes.
fn replay_quantum(c: &mut Criterion) {
    let spec = CorpusSpec { seed: 42, variants: 2, body_size: None };
    let rec = memo::server_recording(UseCase::Sv, spec);
    let segment = rec.traces[0].iter().max_by_key(|t| t.len()).expect("an SV message has phases");
    replay_kernel(c, "replay_quantum", segment.ops());
}

/// The hit path of one record kind at a time, 4096 records each, through
/// the op loop. ALU runs are four ops each (built as records, since a
/// trace would merge them into one run). Loads and stores cycle over 16
/// warm lines, one per L1D set, so each access misses the memo and hits
/// its set's MRU way. Branches cycle over 64 sites, whose PCs hash to warm
/// L1I lines, and update the predictor.
fn record_kinds(c: &mut Criterion) {
    fn line(i: u32) -> Addr {
        Addr::new(RegionSlot::STATIC, (i % 16) * 64)
    }
    fn records(record: fn(u32) -> Op) -> Vec<Op> {
        (0..4096).map(record).collect()
    }
    replay_kernel(c, "record_alu_run", &records(|_| Op::Alu(4)));
    replay_kernel(c, "record_load_hit", &records(|i| Op::Load { addr: line(i), size: 8 }));
    replay_kernel(c, "record_store_hit", &records(|i| Op::Store { addr: line(i), size: 8 }));
    let branch = |i| Op::Branch { site: i % 64, taken: i % 3 != 0 };
    replay_kernel(c, "record_branch_l1i_hit", &records(branch));
}

fn benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_micro");
    g.throughput(Throughput::Elements(1));

    g.bench_function("cache_lookup_hit", |b| {
        let mut cache = CacheArray::new(512, 8);
        for line in 0..512u64 {
            cache.fill(line, Mesi::Exclusive);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) & 511;
            std::hint::black_box(cache.lookup(i))
        })
    });

    g.bench_function("cache_lookup_repeat_line", |b| {
        // The same line again, as most instruction fetches are.
        let mut cache = CacheArray::new(512, 8);
        for line in 0..512u64 {
            cache.fill(line, Mesi::Exclusive);
        }
        b.iter(|| std::hint::black_box(cache.lookup(std::hint::black_box(77))))
    });

    g.bench_function("cache_fill_evict", |b| {
        let mut cache = CacheArray::new(64, 8);
        let mut line = 0u64;
        b.iter(|| {
            line += 64;
            std::hint::black_box(cache.fill(line, Mesi::Modified))
        })
    });

    g.bench_function("l1_victim_choice", |b| {
        // The 1CPm L1D geometry (64 sets × 8 ways), full: 1024 lines visited
        // in order, 16 per set, so every fill misses and evicts the set's
        // least recent way.
        let mut cache = CacheArray::new(64, 8);
        let mut line = 0u64;
        for _ in 0..1024 {
            line = (line + 1) & 1023;
            cache.fill_absent(line, Mesi::Shared);
        }
        b.iter(|| {
            line = (line + 1) & 1023;
            std::hint::black_box(cache.fill_absent(line, Mesi::Shared).1)
        })
    });

    g.bench_function("gshare_update", |b| {
        let mut p = Gshare::new(PredictorConfig { table_bits: 12, history_bits: 8 });
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            std::hint::black_box(p.update(0x40_0000 + (i % 97) * 4, 0, !i.is_multiple_of(3)))
        })
    });

    g.bench_function("slot_timeline_book", |b| {
        let mut t = SlotTimeline::new(135);
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            std::hint::black_box(t.book(now, 1))
        })
    });

    g.bench_function("slot_timeline_book_xeon_alu_run", |b| {
        // Multi-slot ALU runs on Xeon's 0.5-wide issue: every booking
        // carries several cycles, the case a divide would serve.
        let mut t = SlotTimeline::new(50);
        let mut now = 0u64;
        let mut n = 0u16;
        b.iter(|| {
            now += 1;
            n = n % 7 + 2;
            std::hint::black_box(t.book(now, n))
        })
    });

    g.bench_function("busy_timeline_book", |b| {
        let mut t = BusyTimeline::new();
        let mut now = 0u64;
        b.iter(|| {
            now += 30;
            std::hint::black_box(t.book(now, 24))
        })
    });

    g.bench_function("memory_access_l1_hit", |b| {
        let mut mem = MemorySystem::new(&Platform::OneCorePentiumM.config());
        mem.access_data(mem.placement(0), 0x1000, 8, false, 0);
        let mut now = 0u64;
        b.iter(|| {
            now += 4;
            std::hint::black_box(mem.access_data(mem.placement(0), 0x1000, 8, false, now).latency)
        })
    });

    g.bench_function("memory_access_l1_miss_l2_hit", |b| {
        // Sixteen lines aliasing one 8-way L1D set (1LPx: 32 sets) but
        // spread over the L2: every access misses L1, evicts an L1 victim
        // and hits L2. The Xeon has no prefetcher to muddy the walk.
        let mut mem = MemorySystem::new(&Platform::OneLogicalXeon.config());
        let mut k = 0u64;
        let mut now = 0u64;
        b.iter(|| {
            k = (k + 1) & 15;
            now += 40;
            std::hint::black_box(
                mem.access_data(mem.placement(0), 0x10_0000 + k * 32 * 64, 8, false, now).latency,
            )
        })
    });

    g.bench_function("memory_access_inst_hit", |b| {
        // Four fetches per line over sixteen warm lines. Only the latency
        // escapes, as in the replay loop: a whole `MemEvent` through
        // `black_box` would time a store-forwarding stall instead.
        let mut mem = MemorySystem::new(&Platform::OneCorePentiumM.config());
        for line in 0..16u64 {
            mem.access_inst(mem.placement(0), 0x40_0000 + line * 64, 0);
        }
        let mut i = 0u64;
        let mut now = 0u64;
        b.iter(|| {
            i = (i + 1) & 63;
            now += 1;
            std::hint::black_box(mem.access_inst(mem.placement(0), 0x40_0000 + i * 16, now).latency)
        })
    });

    g.bench_function("l2_miss_walk", |b| {
        // The L1D miss walk that hits L2 on the 2 MiB / 8-way geometry
        // (1CPm: 4096 sets). 16384 lines, four per L2 set, are visited in
        // one fixed shuffled order, so every access misses the 512-line L1D,
        // hits L2 and evicts an L1 victim, and the walk's host working set
        // is the whole simulated L2 array, far beyond the host L1D. The
        // shuffle keeps the stride prefetcher from training.
        const LINES: usize = 16_384;
        let mut mem = MemorySystem::new(&Platform::OneCorePentiumM.config());
        let mut order: Vec<u64> = (0..LINES as u64).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..LINES).rev() {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            order.swap(i, usize::try_from(x >> 33).expect("31 bits fit usize") % (i + 1));
        }
        let base = 0x100_0000u64;
        let mut now = 0u64;
        for &k in &order {
            now += 400;
            mem.access_data(mem.placement(0), base + k * 64, 8, false, now);
        }
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % LINES;
            now += 400;
            std::hint::black_box(
                mem.access_data(mem.placement(0), base + order[i] * 64, 8, false, now).latency,
            )
        })
    });

    g.bench_function("memory_access_streaming_miss", |b| {
        let mut mem = MemorySystem::new(&Platform::OneLogicalXeon.config());
        let mut addr = 0x10_0000u64;
        let mut now = 0u64;
        b.iter(|| {
            addr += 64;
            now += 300;
            std::hint::black_box(mem.access_data(mem.placement(0), addr, 8, false, now).latency)
        })
    });

    g.finish();
}

criterion_group!(micro, benches, replay_quantum, record_kinds);
criterion_main!(micro);
