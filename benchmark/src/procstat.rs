//! The process seen from outside: per-thread on-CPU and run-queue time
//! from `/proc/self/task/*/schedstat`, keyed by thread name, and the
//! host's steal time from `/proc/stat`. Nothing in `crates/` is asked.

use std::collections::BTreeMap;
use std::fs;

/// One thread's scheduler accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sched {
    /// Nanoseconds on a CPU.
    pub run_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU.
    pub wait_ns: u64,
}

/// Parse one `schedstat` line: `<run ns> <wait ns> <timeslices>`.
pub fn parse_schedstat(line: &str) -> Option<Sched> {
    let mut fields = line.split_ascii_whitespace();
    let run_ns = fields.next()?.parse().ok()?;
    let wait_ns = fields.next()?.parse().ok()?;
    fields.next()?.parse::<u64>().ok()?;
    Some(Sched { run_ns, wait_ns })
}

/// Accounting per thread name.
pub type Threads = BTreeMap<String, Sched>;

/// Accounting summed per thread name, for every live thread of this
/// process. A thread that exits between the directory read and the file
/// read is skipped.
pub fn threads() -> Threads {
    let mut out = Threads::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return out };
    for entry in dir.flatten() {
        let path = entry.path();
        let Ok(name) = fs::read_to_string(path.join("comm")) else { continue };
        let Some(s) =
            fs::read_to_string(path.join("schedstat")).ok().and_then(|l| parse_schedstat(&l))
        else {
            continue;
        };
        let sum = out.entry(name.trim_end().to_string()).or_default();
        sum.run_ns += s.run_ns;
        sum.wait_ns += s.wait_ns;
    }
    out
}

/// `after - before`, summed over the thread names `keep` accepts.
pub fn delta(before: &Threads, after: &Threads, keep: impl Fn(&str) -> bool) -> Sched {
    let mut d = Sched::default();
    for (name, a) in after.iter().filter(|(n, _)| keep(n)) {
        let b = before.get(name).copied().unwrap_or_default();
        d.run_ns += a.run_ns.saturating_sub(b.run_ns);
        d.wait_ns += a.wait_ns.saturating_sub(b.wait_ns);
    }
    d
}

/// (steal, total) jiffies from the aggregate `cpu` line of `/proc/stat`.
pub fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_ascii_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let v: Vec<u64> = fields.map_while(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    (v.len() >= 8).then(|| (v[7], v[..8].iter().sum()))
}

/// (steal, total) jiffies of the host so far; zeros when unreadable.
pub fn host_jiffies() -> (u64, u64) {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().and_then(parse_cpu_line))
        .unwrap_or((0, 0))
}

/// Share of the host's CPU time stolen from this guest since `before`.
pub fn steal_share_since(before: (u64, u64)) -> f64 {
    let (steal, total) = host_jiffies();
    steal.saturating_sub(before.0) as f64 / total.saturating_sub(before.1).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_line_parses() {
        assert_eq!(
            parse_schedstat("123456789 4242 17\n"),
            Some(Sched { run_ns: 123_456_789, wait_ns: 4242 })
        );
        assert_eq!(parse_schedstat("1 2"), None);
        assert_eq!(parse_schedstat("x 2 3"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn cpu_line_parses_steal_and_total() {
        let line = "cpu  100 0 50 800 10 0 5 35 0 0";
        assert_eq!(parse_cpu_line(line), Some((35, 1000)));
        assert_eq!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(parse_cpu_line("cpu 1 2 3"), None);
    }

    #[test]
    fn delta_sums_selected_threads() {
        let mk = |pairs: &[(&str, u64, u64)]| {
            pairs
                .iter()
                .map(|&(n, run_ns, wait_ns)| (n.to_string(), Sched { run_ns, wait_ns }))
                .collect::<BTreeMap<_, _>>()
        };
        let before = mk(&[("aon-worker-0", 100, 10), ("aon-accept", 5, 0)]);
        let after = mk(&[("aon-worker-0", 400, 30), ("aon-worker-1", 50, 5), ("aon-accept", 9, 1)]);
        let d = delta(&before, &after, |n| n.starts_with("aon-worker"));
        assert_eq!(d, Sched { run_ns: 350, wait_ns: 25 });
    }

    #[test]
    fn own_threads_are_visible() {
        // The test thread itself has a task entry on Linux.
        assert!(!threads().is_empty());
    }
}
