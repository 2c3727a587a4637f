//! Spans recorded by the harness around its own calls: kept in memory
//! while a run measures, written as JSONL when it ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one request share `req`; `parent` is the
/// id of the span that caused this one (0 for a root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
}

/// A bounded in-memory span list. Past `cap` spans are counted, not
/// kept: a keep-alive window sends ~10^5 requests a second and the file
/// is for reading, while percentiles come from the full duration vectors.
pub struct SpanLog {
    pub spans: Vec<Span>,
    pub dropped: u64,
    epoch: Instant,
    next_id: u64,
    cap: usize,
}

impl SpanLog {
    /// `first_id` keeps ids of several logs (one per thread) apart.
    pub fn new(epoch: Instant, first_id: u64, cap: usize) -> SpanLog {
        SpanLog { spans: Vec::with_capacity(cap), dropped: 0, epoch, next_id: first_id, cap }
    }

    /// A fresh span id (never 0).
    pub fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), id, parent, req });
    }
}

/// Write `spans` one JSON object a line, flushing before success.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.req
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::time::Duration;

    #[test]
    fn log_is_bounded_and_lines_parse() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch, 1000, 2);
        let root = log.id();
        let child = log.id();
        assert!(root > 1000 && child != root);
        log.push("request", root, 0, 7, epoch, epoch + Duration::from_nanos(900));
        log.push("client.write", child, root, 7, epoch, epoch + Duration::from_nanos(100));
        log.push("client.wait", 3, root, 7, epoch, epoch);
        assert_eq!((log.spans.len(), log.dropped), (2, 1));

        let path = crate::out_dir().join(format!("test-spans-{}.jsonl", std::process::id()));
        write_jsonl(&path, &log.spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<_> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("parent").and_then(json::Value::as_f64), Some(root as f64));
        assert_eq!(lines[0].get("end_ns").and_then(json::Value::as_f64), Some(900.0));
    }
}
