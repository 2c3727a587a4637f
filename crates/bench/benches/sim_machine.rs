//! Whole-machine simulation throughput: how many simulated cycles per
//! wall-second each platform model sustains under the FR workload. The FR
//! traces are recorded once, before the group; each iteration builds a
//! machine over the memoized recording and replays it.

use aon_core::memo::CorpusSpec;
use aon_core::workload::WorkloadKind;
use aon_sim::config::Platform;
use aon_sim::machine::Machine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const WINDOW: u64 = 3_000_000;

const SPEC: CorpusSpec = CorpusSpec { seed: 42, variants: 2, body_size: None };

fn benches(c: &mut Criterion) {
    WorkloadKind::Fr.build(&mut Machine::new(Platform::OneCorePentiumM.config()), SPEC);
    let mut g = c.benchmark_group("sim_machine");
    g.sample_size(10);
    g.throughput(Throughput::Elements(WINDOW));
    for p in [Platform::OneCorePentiumM, Platform::TwoCorePentiumM, Platform::TwoLogicalXeon] {
        g.bench_with_input(BenchmarkId::new("fr_cycles", p.notation()), &p, |b, &p| {
            b.iter(|| {
                let mut m = Machine::new(p.config());
                WorkloadKind::Fr.build(&mut m, SPEC);
                std::hint::black_box(m.run(WINDOW))
            })
        });
    }
    g.finish();
}

criterion_group!(machine, benches);
criterion_main!(machine);
