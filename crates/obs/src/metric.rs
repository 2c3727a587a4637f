//! The three primitive metric instruments: monotonic counters, gauges,
//! and fixed-bucket log2 latency histograms.
//!
//! The paper reads *hardware* performance counters (clockticks, L2
//! misses, bus transactions) out of the Pentium M / Pentium 4 PMUs; this
//! module is the software analogue for the live server — plain
//! `AtomicU64` cells updated with relaxed ordering on the data path, read
//! by scrapers with no locks and no coordination. All derived arithmetic
//! goes through the lossless [`aon_trace::num`] conversions; this file is
//! on the `aon-audit` cast-enforced list.
//!
//! Snapshots are plain-old-data and **mergeable**: worker-local or
//! shard-local histograms can be folded together with
//! [`HistogramSnapshot::merge`], and merging is commutative and
//! associative (it is element-wise saturating addition).

#![deny(clippy::as_conversions)]

use aon_trace::num::exact_f64;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 histogram buckets. Bucket `k` (for `k >= 1`) holds
/// values in `[2^(k-1), 2^k - 1]`; bucket 0 holds exactly 0; the last
/// bucket absorbs everything at or above `2^(BUCKETS-2)`.
pub const BUCKETS: usize = 64;

/// A monotonic counter (wraps only after 2^64 events — never in
/// practice).
// audit:role(counter): monotonic event count; Relaxed adds and loads,
// exact once writers quiesce (which is when scrapes are compared)
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways, plus a high-water-mark
/// update for depth-style measurements.
// audit:role(gauge): last-write-wins level (plus fetch_max for HWM use);
// Relaxed by design — a gauge read is approximate while writers run
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value to `v` if `v` is higher (high-water mark).
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket index for a recorded value: 0 for 0, else
/// `64 - leading_zeros(v)` clamped into the table — so bucket `k` spans
/// `[2^(k-1), 2^k - 1]`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        return 0;
    }
    let k = usize::try_from(64 - v.leading_zeros()).expect("bit index fits usize");
    k.min(BUCKETS - 1)
}

/// Inclusive `[lower, upper]` value bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
    let upper = if i == 0 {
        0
    } else if i == BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    };
    (lower, upper)
}

/// One exemplar: a concrete observation a histogram bucket can point at
/// (OpenMetrics exemplar semantics), linking the bucket to the trace id
/// of a real request that landed in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The observed value (same unit as the histogram's recordings).
    pub value: u64,
    /// The trace id of the request that produced the value.
    pub trace_id: u64,
}

/// Per-bucket exemplar cells, attached to a histogram only on request
/// ([`Histogram::with_exemplars`]) — two extra `AtomicU64`s per bucket
/// are too much to pay on every histogram nobody will link traces from.
///
/// The id and value cells are written independently with relaxed stores
/// (last writer wins), so a concurrent render can pair an id with a
/// value from a different attachment. Both are then still *recent real
/// observations* of the same bucket (a bucket spans a 2x value range),
/// which is all an exemplar promises; exactness is not worth a seqlock
/// on the request path.
#[derive(Debug)]
struct ExemplarCells {
    // audit:role(gauge): last-write-wins exemplar trace id plus one per
    // bucket (0 = no exemplar yet); Relaxed by design, see above
    ids: [AtomicU64; BUCKETS],
    // audit:role(gauge): last-write-wins exemplar observed value per
    // bucket; Relaxed by design, see above
    values: [AtomicU64; BUCKETS],
}

/// A fixed-bucket log2 histogram. Recording is three relaxed atomic adds
/// (bucket, sum, count) — no locks, no allocation, safe from any thread.
///
/// The three cells are updated independently, so a concurrent
/// [`Histogram::snapshot`] can observe a count that is ahead of or behind
/// the bucket total by the number of in-flight recordings; totals are
/// exact once writers quiesce (which is when scrapes are compared).
#[derive(Debug)]
pub struct Histogram {
    // audit:role(counter): per-bucket monotonic counts; Relaxed adds
    buckets: [AtomicU64; BUCKETS],
    // audit:role(counter): monotonic sum of recorded values; Relaxed adds
    sum: AtomicU64,
    // audit:role(counter): monotonic record count; Relaxed adds
    count: AtomicU64,
    /// Exemplar cells, present only for histograms built with
    /// [`Histogram::with_exemplars`].
    exemplars: Option<Box<ExemplarCells>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            exemplars: None,
        }
    }

    /// An empty histogram whose buckets can carry exemplars.
    pub fn with_exemplars() -> Histogram {
        Histogram {
            exemplars: Some(Box::new(ExemplarCells {
                ids: std::array::from_fn(|_| AtomicU64::new(0)),
                values: std::array::from_fn(|_| AtomicU64::new(0)),
            })),
            ..Histogram::new()
        }
    }

    /// True when this histogram carries exemplar cells.
    pub fn has_exemplars(&self) -> bool {
        self.exemplars.is_some()
    }

    /// Attach an exemplar to the bucket `v` falls in: the bucket now
    /// points at `trace_id` as a concrete request that landed there.
    /// Does **not** record `v` (callers record first, then attach for
    /// the observations they chose to link). A no-op on histograms
    /// without exemplar cells. Trace ids are stored offset by one so a
    /// zero cell unambiguously means "no exemplar yet" even though
    /// trace ids themselves start at 0.
    pub fn attach_exemplar(&self, v: u64, trace_id: u64) {
        let Some(cells) = &self.exemplars else { return };
        let i = bucket_index(v);
        cells.ids[i].store(trace_id.saturating_add(1), Ordering::Relaxed);
        cells.values[i].store(v, Ordering::Relaxed);
    }

    /// The exemplar attached to bucket `i`, if any.
    pub fn exemplar(&self, i: usize) -> Option<Exemplar> {
        let cells = self.exemplars.as_ref()?;
        assert!(i < BUCKETS, "bucket index {i} out of range");
        let id_plus_one = cells.ids[i].load(Ordering::Relaxed);
        if id_plus_one == 0 {
            return None;
        }
        Some(Exemplar { value: cells.values[i].load(Ordering::Relaxed), trace_id: id_plus_one - 1 })
    }

    /// Every attached exemplar as `(bucket index, exemplar)`, ascending.
    pub fn exemplars(&self) -> Vec<(usize, Exemplar)> {
        (0..BUCKETS).filter_map(|i| self.exemplar(i).map(|e| (i, e))).collect()
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// Plain-old-data copy of a [`Histogram`]; mergeable across workers,
/// shards, or scrape intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (log2 buckets, see [`bucket_bounds`]).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS], sum: 0, count: 0 }
    }
}

impl HistogramSnapshot {
    /// Element-wise fold of `other` into `self` (saturating, so merging
    /// can never wrap). Commutative and associative.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count = self.count.saturating_add(other.count);
    }

    /// Nearest-rank percentile estimate (`pct` in 0..=100): the upper
    /// bound of the bucket containing the rank. Monotonically
    /// non-decreasing in `pct`; returns 0 for an empty histogram.
    ///
    /// Ranks are computed from the bucket totals (not the `count` cell),
    /// so an estimate is well-defined even on a torn concurrent snapshot.
    pub fn percentile(&self, pct: u8) -> u64 {
        let pct = u64::from(pct.min(100));
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        // Nearest-rank: the smallest bucket whose cumulative count
        // reaches ceil(pct/100 * total), with rank at least 1. Widening
        // to u128 keeps the product exact for any u64 total.
        let rank_wide = (u128::from(total) * u128::from(pct)).div_ceil(100);
        let rank = u64::try_from(rank_wide).expect("rank <= total").max(1);
        let mut cumulative = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cumulative += b;
            if cumulative >= rank {
                return bucket_bounds(i).1;
            }
        }
        bucket_bounds(BUCKETS - 1).1
    }

    /// Interpolated per-mille percentile (`per_mille` in 0..=1000, so
    /// 999 is p99.9). Unlike the bucket-upper-bound [`Self::percentile`],
    /// this interpolates linearly *within* the rank's bucket — midpoint
    /// convention, so rank r of b occupants sits at fraction
    /// `(2r - 1) / 2b` of the bucket span — which matters for tail
    /// estimates where one log2 bucket can span a 2x latency range.
    /// Integer math throughout (the bucket spans near `u64::MAX` exceed
    /// f64's exact range); the open-ended last bucket clamps to its
    /// lower bound. Returns 0 for an empty histogram.
    pub fn percentile_per_mille(&self, per_mille: u16) -> u64 {
        let pm = u64::from(per_mille.min(1000));
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank_wide = (u128::from(total) * u128::from(pm)).div_ceil(1000);
        let rank = u64::try_from(rank_wide).expect("rank <= total").max(1);
        let mut cumulative = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let before = cumulative;
            cumulative += b;
            if cumulative >= rank {
                let (lo, hi) = bucket_bounds(i);
                if i == BUCKETS - 1 {
                    return lo;
                }
                let span = u128::from(hi - lo);
                let within = u128::from(rank - before);
                let offset = span * (2 * within - 1) / (2 * u128::from(b));
                return lo + u64::try_from(offset).expect("offset <= span");
            }
        }
        bucket_bounds(BUCKETS - 1).0
    }

    /// Interpolated p99.9 estimate (see [`Self::percentile_per_mille`]).
    pub fn p999(&self) -> u64 {
        self.percentile_per_mille(999)
    }

    /// Arithmetic mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            exact_f64(self.sum) / exact_f64(self.count)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds_at_powers_of_two() {
        for (v, want) in [(0u64, 0usize), (1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4)] {
            assert_eq!(bucket_index(v), want, "v={v}");
        }
        for v in [0u64, 1, 2, 3, 5, 100, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn histogram_counts_sum_and_percentiles() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        // p50 of 1..=1000 is 500 → bucket [512, 1023] or [256, 511]; the
        // estimate is that bucket's upper bound, which must bracket 500.
        let p50 = s.percentile(50);
        assert!((255..=1023).contains(&p50), "p50 estimate {p50}");
        assert!(s.percentile(100) >= 1000);
        assert!((s.mean() - 500.5).abs() < 0.001);
    }

    #[test]
    fn merge_is_commutative() {
        let a = {
            let h = Histogram::new();
            for v in [1u64, 5, 9, 1_000_000] {
                h.record(v);
            }
            h.snapshot()
        };
        let b = {
            let h = Histogram::new();
            for v in [0u64, 2, 2, 7] {
                h.record(v);
            }
            h.snapshot()
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 8);
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        assert_eq!(HistogramSnapshot::default().percentile(99), 0);
        assert_eq!(HistogramSnapshot::default().percentile_per_mille(999), 0);
        assert_eq!(HistogramSnapshot::default().mean(), 0.0);
    }

    #[test]
    fn interpolated_per_mille_refines_the_bucket_bound() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // The interpolated estimate stays inside the rank's bucket and
        // beats the bucket-upper-bound estimate toward the true value.
        let p999 = s.p999();
        assert!(
            (512..1024).contains(&p999),
            "p99.9 of 1..=1000 interpolates in [512,1024): {p999}"
        );
        assert!(p999 >= s.percentile_per_mille(990), "monotone in per-mille");
        // p50.0 per-mille agrees with the coarse p50 to within one bucket.
        let fine = s.percentile_per_mille(500);
        let coarse = s.percentile(50);
        assert!(fine <= coarse, "interpolation never exceeds the bucket upper bound");
        // Uniform occupancy inside [512,1023]: rank midpoints spread
        // monotonically across the bucket.
        let mut last = 0;
        for pm in [900u16, 950, 990, 999, 1000] {
            let v = s.percentile_per_mille(pm);
            assert!(v >= last, "per-mille {pm}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn interpolated_last_bucket_clamps_to_lower_bound() {
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.snapshot().percentile_per_mille(999), bucket_bounds(BUCKETS - 1).0);
    }

    #[test]
    fn gauge_high_water_mark_only_rises() {
        let g = Gauge::new();
        g.record_max(5);
        g.record_max(3);
        assert_eq!(g.get(), 5);
        g.record_max(9);
        assert_eq!(g.get(), 9);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn counter_adds() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn exemplars_attach_per_bucket_and_last_writer_wins() {
        let h = Histogram::with_exemplars();
        assert!(h.has_exemplars());
        assert_eq!(h.exemplar(bucket_index(100)), None, "no exemplar before any attach");
        h.record(100);
        h.attach_exemplar(100, 7);
        h.record(5_000);
        h.attach_exemplar(5_000, 9);
        assert_eq!(h.exemplar(bucket_index(100)), Some(Exemplar { value: 100, trace_id: 7 }));
        // Trace id 0 is a valid id (ids start at 0), distinct from "none".
        h.attach_exemplar(120, 0);
        assert_eq!(
            h.exemplar(bucket_index(120)),
            Some(Exemplar { value: 120, trace_id: 0 }),
            "later attach to the same bucket wins"
        );
        let all = h.exemplars();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].1.trace_id, 9);
        assert!(all[0].0 < all[1].0, "ascending bucket order");
    }

    #[test]
    fn plain_histograms_ignore_exemplar_attaches() {
        let h = Histogram::new();
        assert!(!h.has_exemplars());
        h.record(42);
        h.attach_exemplar(42, 1);
        assert_eq!(h.exemplar(bucket_index(42)), None);
        assert!(h.exemplars().is_empty());
        assert_eq!(h.count(), 1, "attach never records");
    }
}
