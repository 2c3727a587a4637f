//! CI smoke gate for the fast parsing layer: on the canonical 5 KB SOAP
//! corpus message, the fast path (one SWAR-scanned event pass with the
//! compiled automata as its handlers) must beat the scalar byte-at-a-time
//! engines on both live-pipeline use cases, or the optimization has
//! silently regressed into dead weight.
//!
//! Timing in CI is noisy, so each side takes the best of several
//! multi-iteration rounds (minimum is robust against scheduling spikes;
//! a genuine slowdown shifts the whole distribution, including the min).
//! The gate only asserts an ordering, never an absolute time.

use aon_obs::stage::NoopStages;
use aon_server::corpus::Corpus;
use aon_server::engine::Engine;
use aon_server::usecase::UseCase;
use std::time::{Duration, Instant};

const ROUNDS: usize = 7;
const ITERS: u32 = 400;

/// Best-of-`ROUNDS` wall time for `ITERS` runs of `f`.
fn best_of<F: FnMut()>(mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for _ in 0..ITERS {
            f();
        }
        best = best.min(start.elapsed());
    }
    best
}

fn main() {
    let corpus = Corpus::generate(42, 1);
    let v = &corpus.variants[0];
    let body = &v.http[v.body_start..];
    let engine = Engine::new();
    assert!(engine.cbr_compiled(), "CBR expression must compile to a pattern");
    assert!(engine.schema_dfa_count() > 0, "corpus schema must compile to DFAs");

    let mut failed = false;
    for uc in [UseCase::Cbr, UseCase::Sv] {
        // Warm both paths (page in code, fill allocator pools).
        for _ in 0..50 {
            let s = engine.process_native(uc, body).expect("corpus body processes");
            let f = engine.process_fast_staged(uc, body, &mut NoopStages).expect("corpus body");
            assert_eq!(s, f, "{uc:?} verdict divergence");
        }
        let scalar = best_of(|| {
            engine.process_native(uc, std::hint::black_box(body)).expect("processes");
        });
        let fast = best_of(|| {
            engine
                .process_fast_staged(uc, std::hint::black_box(body), &mut NoopStages)
                .expect("processes");
        });
        let speedup = scalar.as_secs_f64() / fast.as_secs_f64().max(f64::MIN_POSITIVE);
        println!(
            "fastscan smoke {uc:?}: scalar {:.1}us/msg, fast {:.1}us/msg ({speedup:.2}x)",
            scalar.as_secs_f64() * 1e6 / f64::from(ITERS),
            fast.as_secs_f64() * 1e6 / f64::from(ITERS),
        );
        if fast >= scalar {
            eprintln!("fastscan smoke: FAIL — {uc:?} fast path is not faster than scalar");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
