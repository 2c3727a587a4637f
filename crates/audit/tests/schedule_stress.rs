//! Seeded schedule-stress harness: the dynamic complement to the static
//! concurrency passes in `aon-audit`.
//!
//! Each test releases a set of threads through a [`Barrier`] so their
//! critical sections collide as hard as the scheduler allows, permutes
//! the work with a seeded RNG, and checks an exact invariant afterwards
//! (conservation of items through the accept queue, exact counter totals
//! through the registry). The seed is printed on entry, so any failure is
//! replayable:
//!
//! ```text
//! AON_STRESS_SEED=12345 cargo test -p aon-audit --test schedule_stress
//! ```
//!
//! `AON_STRESS_ROUNDS` scales the number of permutations per test (CI's
//! `CI_CONCURRENCY=1` stage raises it well above the default).

use aon_net::acceptq::{AcceptQueue, Pop, PushError};
use aon_obs::registry::Registry;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

/// SplitMix64: tiny, seedable, and good enough to decorrelate schedules.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[lo, hi]`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// Uniform value in `[lo, hi]` as a count (always small here).
    fn count(&mut self, lo: u64, hi: u64) -> usize {
        usize::try_from(self.range(lo, hi)).expect("stress parameters are small")
    }
}

/// The run's seed: `AON_STRESS_SEED` if set, otherwise wall-clock derived.
/// Printed so a failing schedule can be replayed exactly.
fn seed(test: &str) -> u64 {
    let s =
        std::env::var("AON_STRESS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0x5eed))
                .unwrap_or(0x5eed)
        });
    println!("schedule_stress[{test}]: seed={s} (replay with AON_STRESS_SEED={s})");
    s
}

/// Permutations per test: `AON_STRESS_ROUNDS`, default 16.
fn rounds() -> u64 {
    std::env::var("AON_STRESS_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
}

/// Barrier-released producers, consumers, and a closer racing over one
/// bounded queue. Conservation invariant: every item is accounted for
/// exactly once — popped, refused `Full`, or refused `Closed` — and the
/// push-reported depth never exceeds capacity.
#[test]
fn acceptq_push_pop_close_permutations() {
    let mut rng = SplitMix64(seed("acceptq_push_pop_close"));
    for round in 0..rounds() {
        let capacity = rng.count(1, 8);
        let producers = rng.range(1, 4);
        let consumers = rng.range(1, 4);
        let per_producer = rng.range(1, 64);
        let close_after = rng.range(0, per_producer);

        let q: Arc<AcceptQueue<u64>> = Arc::new(AcceptQueue::new(capacity));
        let parties = usize::try_from(producers + consumers + 1).expect("few threads");
        let barrier = Arc::new(Barrier::new(parties));
        let pushed_ok: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let popped: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

        std::thread::scope(|scope| {
            for p in 0..producers {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                let pushed_ok = Arc::clone(&pushed_ok);
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..per_producer {
                        let item = p * 1_000_000 + i;
                        match q.push(item) {
                            Ok(depth) => {
                                assert!(
                                    depth <= capacity,
                                    "depth {depth} over capacity {capacity} (round {round})"
                                );
                                pushed_ok.lock().expect("pushed_ok lock").push(item);
                            }
                            Err(PushError::Full(back)) | Err(PushError::Closed(back)) => {
                                assert_eq!(back, item, "refused push must hand the item back");
                            }
                        }
                    }
                });
            }
            for _ in 0..consumers {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                let popped = Arc::clone(&popped);
                scope.spawn(move || {
                    barrier.wait();
                    loop {
                        match q.pop(Duration::from_millis(10)) {
                            Pop::Item(i) => popped.lock().expect("popped lock").push(i),
                            Pop::Empty => continue,
                            Pop::Closed => break,
                        }
                    }
                });
            }
            let q = Arc::clone(&q);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                // Close somewhere inside the producers' working window so
                // every round exercises a different open/closed cut.
                for _ in 0..close_after {
                    std::thread::yield_now();
                }
                q.close();
            });
        });

        let mut ok = pushed_ok.lock().expect("pushed_ok lock").clone();
        let mut got = popped.lock().expect("popped lock").clone();
        ok.sort_unstable();
        got.sort_unstable();
        assert_eq!(
            got, ok,
            "popped items must be exactly the successfully pushed ones (round {round})"
        );
        assert!(q.is_empty(), "drained queue must be empty (round {round})");
    }
}

/// Close-while-full: producers hammer an already-full queue while it
/// closes, with consumers draining afterwards. Once any producer observes
/// `Closed`, every later push by that producer must also be `Closed`
/// (closedness is monotonic), and the drain still conserves items.
#[test]
fn acceptq_close_while_full_sheds_monotonically() {
    let mut rng = SplitMix64(seed("acceptq_close_while_full"));
    for round in 0..rounds() {
        let capacity = rng.count(1, 4);
        let producers = rng.range(2, 4);
        let per_producer = rng.range(8, 32);

        let q: Arc<AcceptQueue<u64>> = Arc::new(AcceptQueue::new(capacity));
        // Pre-fill to capacity so the close races against a full queue.
        for i in 0..u64::try_from(capacity).expect("small capacity") {
            q.push(u64::MAX - i).expect("pre-fill fits");
        }
        let parties = usize::try_from(producers + 1).expect("few threads");
        let barrier = Arc::new(Barrier::new(parties));
        let pushed_ok: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

        std::thread::scope(|scope| {
            for p in 0..producers {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                let pushed_ok = Arc::clone(&pushed_ok);
                scope.spawn(move || {
                    barrier.wait();
                    let mut saw_closed = false;
                    for i in 0..per_producer {
                        match q.push(p * 1_000_000 + i) {
                            Ok(_) => {
                                assert!(!saw_closed, "push succeeded after Closed (round {round})");
                                pushed_ok.lock().expect("pushed_ok lock").push(p * 1_000_000 + i);
                            }
                            Err(PushError::Closed(_)) => saw_closed = true,
                            Err(PushError::Full(_)) => {
                                assert!(!saw_closed, "Full reported after Closed (round {round})");
                            }
                        }
                    }
                });
            }
            let q = Arc::clone(&q);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                q.close();
            });
        });

        // Drain single-threaded: everything that entered must come out,
        // then Closed — and never more than pre-fill + successful pushes.
        let expected = capacity + pushed_ok.lock().expect("pushed_ok lock").len();
        let mut drained = 0usize;
        loop {
            match q.pop(Duration::from_millis(10)) {
                Pop::Item(_) => drained += 1,
                Pop::Empty => continue,
                Pop::Closed => break,
            }
        }
        assert_eq!(drained, expected, "drain must conserve items (round {round})");
    }
}

/// Barrier-released threads bump registry counters and histograms through
/// racing idempotent registrations. Totals must be exact after join — the
/// Relaxed counter discipline promises exactness once writers quiesce.
#[test]
fn registry_concurrent_records_are_exact() {
    let mut rng = SplitMix64(seed("registry_concurrent_records"));
    for round in 0..rounds() {
        let threads = rng.range(2, 8);
        let bumps = rng.range(1, 256);

        let reg = Arc::new(Registry::new());
        let barrier = Arc::new(Barrier::new(usize::try_from(threads).expect("few threads")));
        std::thread::scope(|scope| {
            for t in 0..threads {
                let reg = Arc::clone(&reg);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    // All threads race to register the same series; the
                    // registry must hand every one the same instrument.
                    let shared = reg.counter("stress_shared_total", "shared", &[]);
                    let mine = reg.counter(
                        "stress_per_thread_total",
                        "per thread",
                        &[("t", &t.to_string())],
                    );
                    let hist = reg.histogram("stress_hist", "values", &[]);
                    for i in 0..bumps {
                        shared.inc();
                        mine.inc();
                        hist.record(i);
                    }
                });
            }
        });

        // Read the totals the way every consumer does: render, then parse.
        let samples = aon_obs::scrape::parse_prometheus(&reg.render_prometheus());
        let total = |name: &str| -> u64 {
            format!("{:.0}", aon_obs::scrape::sum_samples(&samples, name, &[]))
                .parse()
                .expect("a whole count")
        };
        assert_eq!(
            total("stress_shared_total"),
            threads * bumps,
            "shared counter must be exact (round {round})"
        );
        assert_eq!(
            total("stress_per_thread_total"),
            threads * bumps,
            "per-thread series must merge to the global total (round {round})"
        );
        assert_eq!(
            total("stress_hist_count"),
            threads * bumps,
            "histogram count must be exact (round {round})"
        );
    }
}
