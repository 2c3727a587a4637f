//! Trace-recording throughput: running the real engines under a tracer.
//!
//! Times what the memo records and the simulator replays: one message's
//! phase traces per use case ([`record_message_segments`]).

use aon_server::corpus::Corpus;
use aon_server::usecase::{record_message_segments, UseCase};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn benches(c: &mut Criterion) {
    let corpus = Corpus::generate(42, 1);
    let mut g = c.benchmark_group("trace_record");
    g.sample_size(20);
    for u in UseCase::ALL {
        g.bench_with_input(BenchmarkId::new("segments", u.label()), &u, |b, &u| {
            b.iter(|| {
                std::hint::black_box(record_message_segments(u, &corpus, &corpus.variants[0], 0))
            })
        });
    }
    g.finish();
}

criterion_group!(record, benches);
criterion_main!(record);
