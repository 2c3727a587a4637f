//! Property tests for the observability core: histogram bucketing,
//! snapshot merge algebra, percentile monotonicity, tail-sampler
//! decision determinism, and a multi-thread registry stress test
//! (atomic counters lose no increments).

use aon_obs::metric::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, BUCKETS};
use aon_obs::registry::Registry;
use aon_obs::reqtrace::sample_decision;
use aon_trace::num::exact_f64;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #[test]
    fn recorded_value_lands_within_its_bucket_bounds(values in prop::collection::vec(any::<u64>(), 1..200)) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            prop_assert!(lo <= v && v <= hi, "{} outside bucket {} = [{}, {}]", v, i, lo, hi);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, u64::try_from(values.len()).unwrap());
        let mut expected_sum = 0u64;
        for &v in &values {
            expected_sum = expected_sum.wrapping_add(v);
        }
        prop_assert_eq!(snap.sum, expected_sum, "sum cell is a wrapping atomic add");
        prop_assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
    }

    #[test]
    fn merge_is_commutative_and_counts_add(
        a in prop::collection::vec(any::<u64>(), 0..100),
        b in prop::collection::vec(any::<u64>(), 0..100),
    ) {
        let ha = Histogram::new();
        let hb = Histogram::new();
        for &v in &a { ha.record(v); }
        for &v in &b { hb.record(v); }
        let (sa, sb) = (ha.snapshot(), hb.snapshot());
        let mut ab = sa;
        ab.merge(&sb);
        let mut ba = sb;
        ba.merge(&sa);
        prop_assert_eq!(ab, ba, "merge must be commutative");
        prop_assert_eq!(ab.count, u64::try_from(a.len() + b.len()).unwrap());
        // Merging an empty snapshot is the identity.
        let mut with_empty = sa;
        with_empty.merge(&HistogramSnapshot::default());
        prop_assert_eq!(with_empty, sa);
    }

    #[test]
    fn percentile_is_monotonic_in_rank(
        values in prop::collection::vec(0u64..1_000_000_000, 1..300),
        pcts in prop::collection::vec(0u8..=100, 2..20),
    ) {
        let h = Histogram::new();
        for &v in &values { h.record(v); }
        let snap = h.snapshot();
        let mut sorted_pcts = pcts;
        sorted_pcts.sort_unstable();
        let mut last = 0u64;
        for &p in &sorted_pcts {
            let q = snap.percentile(p);
            prop_assert!(q >= last, "p{} = {} < previous {}", p, q, last);
            last = q;
        }
        // The top percentile's bucket bound covers the true maximum.
        let max = values.iter().copied().max().unwrap_or(0);
        prop_assert!(snap.percentile(100) >= max);
    }

    #[test]
    fn percentile_is_the_true_quantiles_bucket_bound(
        values in prop::collection::vec(0u64..1_000_000_000, 1..200),
        pct in 1u8..=100,
    ) {
        let h = Histogram::new();
        for &v in &values { h.record(v); }
        let snap = h.snapshot();
        // Nearest-rank on the exact data: because bucketing is monotonic
        // in the value, the histogram's estimate must be exactly the
        // upper bound of the bucket holding the true quantile.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let total = u64::try_from(sorted.len()).unwrap();
        let rank = (total * u64::from(pct)).div_ceil(100).max(1);
        let true_q = sorted[usize::try_from(rank - 1).unwrap()];
        let est = snap.percentile(pct);
        prop_assert_eq!(est, bucket_bounds(bucket_index(true_q)).1,
            "estimate for p{} must be the bucket bound of true quantile {}", pct, true_q);
    }

    #[test]
    fn sample_decision_is_deterministic_and_monotone_in_rate(
        seed in any::<u64>(),
        id in any::<u64>(),
        ppm in 0u32..=1_000_000,
    ) {
        // Stateless and pure: the decision for (seed, id, ppm) is a
        // function of its inputs alone — this is what makes two runs
        // keep the same sampled subset.
        let d = sample_decision(seed, id, ppm);
        prop_assert_eq!(d, sample_decision(seed, id, ppm));
        // Boundary rates are exact, not probabilistic.
        prop_assert!(!sample_decision(seed, id, 0), "0 ppm keeps nothing");
        prop_assert!(sample_decision(seed, id, 1_000_000), "1M ppm keeps all");
        // Raising the rate can only turn discards into keeps: a request
        // sampled at rate p stays sampled at every rate above p.
        if d {
            prop_assert!(sample_decision(seed, id, 1_000_000.min(ppm.saturating_add(1))));
        } else if ppm > 0 {
            prop_assert!(!sample_decision(seed, id, ppm - 1));
        }
    }

    #[test]
    fn sample_decision_rate_is_bounded_over_sequential_ids(
        seed in any::<u64>(),
        ppm in prop::sample::select(vec![1_000u32, 10_000, 100_000, 500_000]),
    ) {
        // Sequential ids are exactly what the tracer's id generator
        // hands out; the kept fraction over a window must track the
        // configured rate (loose 3x window — the hash is uniform, not
        // perfect, and this must never flake).
        const N: u64 = 4_000;
        let kept = (0..N).filter(|&id| sample_decision(seed, id, ppm)).count();
        let expected = exact_f64(N) * f64::from(ppm) / 1e6;
        let kept = exact_f64(u64::try_from(kept).unwrap());
        prop_assert!(kept < expected * 3.0 + 30.0, "kept {} vs expected {}", kept, expected);
        prop_assert!(kept > expected / 3.0 - 30.0, "kept {} vs expected {}", kept, expected);
    }

    #[test]
    fn bucket_index_is_monotonic_and_total(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(i < BUCKETS);
        if v < u64::MAX {
            prop_assert!(bucket_index(v + 1) >= i, "bucket_index must be monotonic");
        }
    }
}

/// N threads hammer the same counter family and histogram through the
/// registry; every increment must survive (relaxed atomics are still
/// atomic read-modify-writes — no lost updates).
#[test]
fn registry_stress_loses_no_increments() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;

    let registry = Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                // Half the threads hammer a shared label set (idempotent
                // registration must hand back the same instrument), half
                // use their own.
                let label = if t % 2 == 0 { "shared" } else { "solo" };
                let c = registry.counter("stress_total", "stress counter", &[("kind", label)]);
                let h = registry.histogram("stress_ns", "stress histogram", &[("kind", label)]);
                let g = registry.gauge("stress_hwm", "stress gauge", &[]);
                for i in 0..PER_THREAD {
                    c.inc();
                    h.record(i);
                    g.record_max(i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread");
    }

    let samples = aon_obs::scrape::parse_prometheus(&registry.render_prometheus());
    let total = aon_obs::scrape::sum_samples(&samples, "stress_total", &[]);
    assert_eq!(total, exact_f64(THREADS * PER_THREAD), "lost counter increments");
    let hist_count = aon_obs::scrape::sum_samples(&samples, "stress_ns_count", &[]);
    assert_eq!(hist_count, exact_f64(THREADS * PER_THREAD), "lost histogram records");
    let hwm = aon_obs::scrape::sum_samples(&samples, "stress_hwm", &[]);
    assert_eq!(hwm, exact_f64(PER_THREAD - 1), "gauge high-water mark wrong");
}
