//! `--compare A.json B.json`: every end-to-end metric of every workload
//! in two result files, B's median against A's and against the bound.

use crate::json::{self, Value};
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::spread;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Within,
    /// The samples spread wider than the bound and the two sets overlap:
    /// neither "unchanged" nor "worse" can be said.
    Unresolved,
    /// B is worse than A by more than the bound.
    Outside,
}

/// By what share of A's value B is worse (negative: better).
pub fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

pub fn judge(m: &EndToEnd, a: (f64, &[f64]), b: (f64, &[f64])) -> Verdict {
    let worse = worse_by(m, a.0, b.0);
    let wide = |s: &[f64]| spread(s).is_some_and(|x| x > m.bound);
    if !(wide(a.1) || wide(b.1)) {
        return if worse > m.bound { Verdict::Outside } else { Verdict::Within };
    }
    // Too noisy for medians alone: only a clean separation of every
    // sample of one file from every sample of the other decides.
    let all =
        |pred: fn(f64) -> bool| b.1.iter().all(|&y| a.1.iter().all(|&x| pred(worse_by(m, x, y))));
    if all(|w| w <= 0.0) {
        Verdict::Within
    } else if worse > m.bound && all(|w| w > 0.0) {
        Verdict::Outside
    } else {
        Verdict::Unresolved
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// (median, samples) of one end-to-end metric in a result file.
fn metric(file: &Value, workload: &str, name: &str) -> Option<(f64, Vec<f64>)> {
    let m = file.get("workloads")?.get(workload)?.get("end_to_end")?.get(name)?;
    Some((m.get("value")?.as_f64()?, m.get("samples")?.numbers()))
}

pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if a.get("host") != b.get("host") {
        println!("note: the two files come from different hosts");
    }
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "spread A", "spread B"
    );
    let mut outside = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(ma), Some(mb)) = (metric(&a, w.name, m.name), metric(&b, w.name, m.name))
            else {
                eprintln!("{} {}: missing from a file", w.name, m.name);
                return ExitCode::from(2);
            };
            let verdict = judge(m, (ma.0, &ma.1), (mb.0, &mb.1));
            outside += u32::from(verdict == Verdict::Outside);
            let spread_pct = |s: &[f64]| spread(s).map_or(f64::NAN, |x| x * 100.0);
            println!(
                "{:<20} {:<16} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}% {:>8.1}% {:>8.1}%  {}",
                w.name,
                m.name,
                ma.0,
                mb.0,
                worse_by(m, ma.0, mb.0) * 100.0,
                m.bound * 100.0,
                spread_pct(&ma.1),
                spread_pct(&mb.1),
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Outside => "OUTSIDE",
                }
            );
        }
    }
    if outside == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{outside} metric(s) outside their bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: EndToEnd = END_TO_END[0];
    const LATENCY: EndToEnd = END_TO_END[1];

    #[test]
    fn direction_decides_what_worse_means() {
        assert!(worse_by(&RATE, 100.0, 80.0) > 0.19);
        assert!(worse_by(&RATE, 100.0, 120.0) < 0.0);
        assert!(worse_by(&LATENCY, 10.0, 12.0) > 0.19);
        assert!(worse_by(&LATENCY, 10.0, 8.0) < 0.0);
    }

    #[test]
    fn steady_samples_are_judged_by_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.5];
        let same = [99.0, 100.0, 101.0, 100.0];
        let slow = [70.0, 71.0, 69.0, 70.0];
        assert_eq!(judge(&RATE, (100.0, &a), (100.0, &same)), Verdict::Within);
        assert_eq!(judge(&RATE, (100.0, &a), (70.0, &slow)), Verdict::Outside);
        assert_eq!(judge(&RATE, (100.0, &a), (130.0, &[130.0, 131.0])), Verdict::Within);
    }

    #[test]
    fn noisy_samples_are_unresolved_unless_cleanly_apart() {
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(&RATE, (100.0, &noisy), (85.0, &[85.0, 86.0])), Verdict::Unresolved);
        assert_eq!(judge(&RATE, (100.0, &noisy), (150.0, &[150.0, 151.0])), Verdict::Within);
        assert_eq!(judge(&RATE, (100.0, &noisy), (40.0, &[40.0, 41.0])), Verdict::Outside);
    }
}
