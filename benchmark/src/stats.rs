//! Estimators: percentiles, medians, the best of windows, quartile spread,
//! span self-time.
//!
//! Every end-to-end value the benchmark prints is the best of its windows
//! (`best` says why not their median); the spread it is
//! judged by is the interquartile range as Python's
//! `statistics.quantiles(values, n=4)` computes it, so a number checked
//! here reads the same when the driver checks it.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100): the
/// smallest element with at least `p` percent of the sample at or below
/// it. Empty input reads 0.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let n = sorted.len() as f64;
    let rank = (p / 100.0 * n).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median (mean of the two middle elements for an even count). Empty
/// input reads 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, exclusive method (`statistics.quantiles`
/// with `n=4`): position `(len + 1) * k / 4`, linearly interpolated and
/// clamped to the sample. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let m = v.len() + 1;
        let j = (k * m / 4).clamp(1, v.len() - 1);
        let delta = (k * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median; `None` when it cannot
/// be taken (fewer than two values or a zero median).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The best of `values`: the largest when higher is better, else the
/// smallest. Empty input reads 0.
///
/// The authoring host (a 2-vCPU Firecracker guest) moves, for seconds or
/// for minutes at a time, between an undisturbed state and slower ones up
/// to ~45 % apart, whatever the process does: the same plateaus show
/// pinned and unpinned, while a register-only spin loop beside them keeps
/// its speed, so it is the memory system shared with neighbours and
/// nothing a calibration loop could divide out. A median of windows then
/// reports the mix of states a run happened to see; a decile still needs
/// a tenth of the run undisturbed. The best short window needs a quarter
/// of a second, and on ten disturbed runs spread 2.3 % (latency) where the
/// decile spread 17.9 % and the median 18.0 %. A window's value is itself
/// a median or a count over hundreds of requests, so the best of them is
/// not a lucky request, and it moves with the program like any quantile.
pub fn best(values: &[f64], higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// Durations grouped into equal windows of wall time, so a layer timed
/// for a second or two is summarised like the live windows are.
pub struct Windowed {
    window_ns: u64,
    windows: Vec<Vec<u64>>,
}

impl Windowed {
    pub fn new(window: std::time::Duration) -> Windowed {
        Windowed { window_ns: window.as_nanos().max(1) as u64, windows: Vec::new() }
    }

    fn window(&mut self, w: usize) -> &mut Vec<u64> {
        if self.windows.len() <= w {
            self.windows.resize_with(w + 1, Vec::new);
        }
        &mut self.windows[w]
    }

    /// Record `value`, taken `at` after the measurement began.
    pub fn add(&mut self, at: std::time::Duration, value: u64) {
        let w = (at.as_nanos() as u64 / self.window_ns) as usize;
        self.window(w).push(value);
    }

    pub fn merge(&mut self, other: Windowed) {
        for (w, values) in other.windows.into_iter().enumerate() {
            self.window(w).extend(values);
        }
    }

    /// The lowest per-window median; 0 when empty.
    pub fn best_median(&self) -> f64 {
        let medians: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                let mut s = w.clone();
                s.sort_unstable();
                percentile(&s, 50.0) as f64
            })
            .collect();
        best(&medians, false)
    }

    /// Smallest value recorded; 0 when empty.
    pub fn min(&self) -> f64 {
        self.windows.iter().flatten().min().copied().unwrap_or(0) as f64
    }
}

/// A span's self time: its duration minus the part of its interval that
/// child spans cover (children may overlap each other and overhang the
/// parent; both are clipped).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(ps), e.min(pe))).filter(|&(s, e)| e > s).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = ps;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    pe.saturating_sub(ps) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile::<u64>(&[], 50.0), 0);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
    }

    #[test]
    fn median_of_windows_resists_one_bad_window() {
        assert_eq!(median(&[40.0, 41.0, 39.0, 5.0, 40.5]), 40.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn best_reads_the_better_end() {
        assert_eq!(best(&[5.0, 3.0, 4.0], false), 3.0);
        assert_eq!(best(&[5.0, 3.0, 4.0], true), 5.0);
        assert_eq!(best(&[], true), 0.0);
        // Two plateaus, nearly every window on the slow one: the fast one
        // is read.
        let mut latency = vec![15.3; 79];
        latency.push(10.3);
        assert_eq!(best(&latency, false), 10.3);
    }

    #[test]
    fn windowed_takes_the_best_window_median() {
        use std::time::Duration;
        let mut w = Windowed::new(Duration::from_millis(100));
        for i in 0..10u64 {
            // Window i holds i+10, i+11, i+12: median i+11.
            for k in 0..3 {
                w.add(Duration::from_millis(100 * i + 10 * k), 10 + i + k);
            }
        }
        let mut other = Windowed::new(Duration::from_millis(100));
        other.add(Duration::from_millis(950), 7);
        w.merge(other);
        assert_eq!(w.best_median(), 11.0);
        assert_eq!(w.min(), 7.0);
        assert_eq!(Windowed::new(Duration::from_secs(1)).best_median(), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        assert_eq!(self_time((100, 200), &[(110, 130), (150, 160)]), 70);
        // Overlapping children are counted once; overhang is clipped.
        assert_eq!(self_time((100, 200), &[(110, 150), (140, 160), (190, 250)]), 40);
        assert_eq!(self_time((100, 200), &[]), 100);
        assert_eq!(self_time((100, 200), &[(0, 300)]), 0);
    }
}
