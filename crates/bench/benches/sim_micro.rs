//! Microbenchmarks of the simulator's hot components.

use aon_sim::branch::Gshare;
use aon_sim::bus::{BusyTimeline, SlotTimeline};
use aon_sim::cache::{CacheArray, Mesi};
use aon_sim::config::{Platform, PredictorConfig};
use aon_sim::hier::MemorySystem;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

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
        mem.access_data(0, 0x1000, 8, false, 0);
        let mut now = 0u64;
        b.iter(|| {
            now += 4;
            std::hint::black_box(mem.access_data(0, 0x1000, 8, false, now))
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
            std::hint::black_box(mem.access_data(0, 0x10_0000 + k * 32 * 64, 8, false, now).latency)
        })
    });

    g.bench_function("memory_access_inst_hit", |b| {
        // Four fetches per line over sixteen warm lines. Only the latency
        // escapes, as in the replay loop: a whole `MemEvent` through
        // `black_box` would time a store-forwarding stall instead.
        let mut mem = MemorySystem::new(&Platform::OneCorePentiumM.config());
        for line in 0..16u64 {
            mem.access_inst(0, 0x40_0000 + line * 64, 0);
        }
        let mut i = 0u64;
        let mut now = 0u64;
        b.iter(|| {
            i = (i + 1) & 63;
            now += 1;
            std::hint::black_box(mem.access_inst(0, 0x40_0000 + i * 16, now).latency)
        })
    });

    g.bench_function("memory_access_streaming_miss", |b| {
        let mut mem = MemorySystem::new(&Platform::OneLogicalXeon.config());
        let mut addr = 0x10_0000u64;
        let mut now = 0u64;
        b.iter(|| {
            addr += 64;
            now += 300;
            std::hint::black_box(mem.access_data(0, addr, 8, false, now))
        })
    });

    g.finish();
}

criterion_group!(micro, benches);
criterion_main!(micro);
