//! The metric registry: named, labelled families of counters, gauges,
//! and histograms, rendered in the Prometheus text exposition format.
//!
//! Registration happens once at startup (the server constructs every
//! series it will ever touch before serving traffic), so the registry
//! holds its catalogue behind a single `Mutex` that the **data path
//! never takes** — hot-path code holds `Arc` handles to the primitive
//! instruments and updates them with relaxed atomics. Only registration
//! and rendering lock.
//!
//! This file is on the `aon-audit` cast-enforced list: counter-to-float
//! arithmetic goes through [`aon_trace::num`].

#![deny(clippy::as_conversions)]

use crate::metric::{bucket_bounds, Counter, Gauge, Histogram, BUCKETS};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// What kind of instrument a family holds (one kind per family name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic counter; rendered with a `_total`-style single line.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Log2 histogram; rendered as cumulative `_bucket`/`_sum`/`_count`.
    Histogram,
}

impl Kind {
    fn prometheus_type(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One instrument handle.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One labelled series inside a family.
#[derive(Debug, Clone)]
struct Series {
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// A named family: one metric name, one help string, many label sets.
#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

/// The registry. Cheap to share (`Arc<Registry>`); see the module docs
/// for the locking discipline.
#[derive(Debug, Default)]
pub struct Registry {
    // audit:role(lock): guards registration and render only; the data
    // path holds Arc handles to metrics and never takes this lock
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register (or look up) a counter series. Re-registering the same
    /// `name` + `labels` returns the existing handle, so construction is
    /// idempotent.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, Kind::Counter, labels, || {
            Instrument::Counter(Arc::new(Counter::new()))
        }) {
            Instrument::Counter(c) => c,
            _ => unreachable!("registry returned wrong instrument kind for {name}"),
        }
    }

    /// Register `counter` — a handle the caller already holds and keeps
    /// incrementing — as a series, so the count the caller reads and the
    /// one `/metrics` renders are one cell. Panics if the series exists
    /// under another handle: that would be two counts again.
    pub fn adopt_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        counter: &Arc<Counter>,
    ) {
        let registered = self
            .register(name, help, Kind::Counter, labels, || Instrument::Counter(counter.clone()));
        assert!(
            matches!(&registered, Instrument::Counter(c) if Arc::ptr_eq(c, counter)),
            "series {name}{labels:?} is already registered under another handle"
        );
    }

    /// Register (or look up) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self
            .register(name, help, Kind::Gauge, labels, || Instrument::Gauge(Arc::new(Gauge::new())))
        {
            Instrument::Gauge(g) => g,
            _ => unreachable!("registry returned wrong instrument kind for {name}"),
        }
    }

    /// Register (or look up) a histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.register(name, help, Kind::Histogram, labels, || {
            Instrument::Histogram(Arc::new(Histogram::new()))
        }) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("registry returned wrong instrument kind for {name}"),
        }
    }

    /// Register (or look up) a histogram series whose buckets carry
    /// exemplars ([`Histogram::with_exemplars`]); rendering appends the
    /// OpenMetrics exemplar suffix to buckets that have one. Looking up
    /// an existing series returns it as-is (the first registration
    /// decides whether the cells exist).
    pub fn histogram_with_exemplars(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.register(name, help, Kind::Histogram, labels, || {
            Instrument::Histogram(Arc::new(Histogram::with_exemplars()))
        }) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("registry returned wrong instrument kind for {name}"),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?} on {name}");
        }
        let labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| ((*k).to_string(), (*v).to_string())).collect();
        let mut families = self.families.lock().expect("registry poisoned");
        let idx = match families.iter().position(|f| f.name == name) {
            Some(i) => {
                assert!(
                    families[i].kind == kind,
                    "metric {name} re-registered as a different kind"
                );
                i
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.len() - 1
            }
        };
        let family = &mut families[idx];
        if let Some(existing) = family.series.iter().find(|s| s.labels == labels) {
            return existing.instrument.clone();
        }
        let instrument = make();
        family.series.push(Series { labels, instrument: instrument.clone() });
        instrument
    }

    /// Render the whole registry in the Prometheus text exposition
    /// format (version 0.0.4): `# HELP` / `# TYPE` headers, one line per
    /// series, histograms as cumulative `le` buckets plus `_sum` and
    /// `_count`.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().expect("registry poisoned");
        let mut out = String::with_capacity(4096);
        for f in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.prometheus_type());
            for s in &f.series {
                match &s.instrument {
                    Instrument::Counter(c) => {
                        let _ =
                            writeln!(out, "{}{} {}", f.name, label_set(&s.labels, &[]), c.get());
                    }
                    Instrument::Gauge(g) => {
                        let _ =
                            writeln!(out, "{}{} {}", f.name, label_set(&s.labels, &[]), g.get());
                    }
                    Instrument::Histogram(h) => render_histogram(&mut out, &f.name, s, h),
                }
            }
        }
        out
    }
}

/// Render one histogram series: cumulative buckets up to the highest
/// non-empty one, then `+Inf`, `_sum`, `_count`. Buckets carrying an
/// exemplar get the OpenMetrics exemplar suffix
/// (`# {trace_id="..."} value`) appended after the sample value; the
/// last bucket's exemplar, when the table overflowed into it, rides on
/// the `+Inf` line.
fn render_histogram(out: &mut String, name: &str, s: &Series, h: &Histogram) {
    let snap = h.snapshot();
    let highest = snap.buckets.iter().rposition(|&b| b > 0);
    let mut cumulative = 0u64;
    if let Some(hi) = highest {
        for i in 0..=hi.min(BUCKETS - 2) {
            cumulative += snap.buckets[i];
            let le = bucket_bounds(i).1.to_string();
            let _ =
                write!(out, "{name}_bucket{} {cumulative}", label_set(&s.labels, &[("le", &le)]));
            write_exemplar(out, h.exemplar(i));
            out.push('\n');
        }
    }
    let total: u64 = snap.buckets.iter().sum();
    let _ = write!(out, "{name}_bucket{} {total}", label_set(&s.labels, &[("le", "+Inf")]));
    write_exemplar(out, h.exemplar(BUCKETS - 1));
    out.push('\n');
    let _ = writeln!(out, "{name}_sum{} {}", label_set(&s.labels, &[]), snap.sum);
    let _ = writeln!(out, "{name}_count{} {}", label_set(&s.labels, &[]), snap.count);
}

/// Append the OpenMetrics exemplar suffix for `exemplar`, if any.
fn write_exemplar(out: &mut String, exemplar: Option<crate::metric::Exemplar>) {
    if let Some(e) = exemplar {
        let _ = write!(out, " # {{trace_id=\"{}\"}} {}", e.trace_id, e.value);
    }
}

/// Format `{k="v",...}` from the series labels plus any extras (the
/// histogram `le`); empty label sets render as nothing.
fn label_set(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    parts.extend(extra.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))));
    format!("{{{}}}", parts.join(","))
}

/// Escape a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Metric names: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Label names: `[a-zA-Z_][a-zA-Z0-9_]*`.
fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.counter("aon_test_total", "help", &[("k", "v")]);
        let b = r.counter("aon_test_total", "help", &[("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "both handles must hit the same cell");
        let other = r.counter("aon_test_total", "help", &[("k", "w")]);
        assert_eq!(other.get(), 0, "different labels are a different series");
    }

    #[test]
    fn prometheus_text_has_help_type_and_series_lines() {
        let r = Registry::new();
        r.counter("aon_requests_total", "Requests processed", &[("use_case", "FR")]).add(7);
        r.gauge("aon_queue_depth", "Accept queue depth", &[]).set(3);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP aon_requests_total Requests processed"));
        assert!(text.contains("# TYPE aon_requests_total counter"));
        assert!(text.contains("aon_requests_total{use_case=\"FR\"} 7"));
        assert!(text.contains("# TYPE aon_queue_depth gauge"));
        assert!(text.contains("aon_queue_depth 3"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets_and_moments() {
        let r = Registry::new();
        let h = r.histogram("aon_latency_ns", "Latency", &[("use_case", "SV")]);
        h.record(1);
        h.record(2);
        h.record(1000);
        let text = r.render_prometheus();
        // Bucket 1 ([1,1]) has 1 observation; bucket 2 ([2,3]) makes it
        // cumulative 2; the +Inf bucket carries all 3.
        assert!(text.contains("aon_latency_ns_bucket{use_case=\"SV\",le=\"1\"} 1"), "{text}");
        assert!(text.contains("aon_latency_ns_bucket{use_case=\"SV\",le=\"3\"} 2"), "{text}");
        assert!(text.contains("aon_latency_ns_bucket{use_case=\"SV\",le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("aon_latency_ns_sum{use_case=\"SV\"} 1003"));
        assert!(text.contains("aon_latency_ns_count{use_case=\"SV\"} 3"));
    }

    #[test]
    fn exemplar_histograms_render_openmetrics_suffixes() {
        let r = Registry::new();
        let h = r.histogram_with_exemplars("aon_lat_ns", "Latency", &[("use_case", "FR")]);
        h.record(100);
        h.attach_exemplar(100, 42);
        h.record(u64::MAX);
        h.attach_exemplar(u64::MAX, 43);
        let text = r.render_prometheus();
        // Bucket [64,127] carries the linked trace id and observed value.
        assert!(
            text.contains(
                "aon_lat_ns_bucket{use_case=\"FR\",le=\"127\"} 1 # {trace_id=\"42\"} 100"
            ),
            "{text}"
        );
        // The overflow bucket's exemplar rides on the +Inf line.
        assert!(
            text.contains(&format!(
                "aon_lat_ns_bucket{{use_case=\"FR\",le=\"+Inf\"}} 2 # {{trace_id=\"43\"}} {}",
                u64::MAX
            )),
            "{text}"
        );
        // Buckets without an exemplar render exactly as before.
        let r2 = Registry::new();
        let plain = r2.histogram("aon_lat_ns", "Latency", &[]);
        plain.record(100);
        assert!(r2.render_prometheus().contains("aon_lat_ns_bucket{le=\"127\"} 1\n"));
    }

    #[test]
    fn an_adopted_counter_is_the_rendered_series() {
        let r = Registry::new();
        let mine = Arc::new(Counter::new());
        mine.add(2);
        r.adopt_counter("aon_mine_total", "mine", &[("k", "v")], &mine);
        r.adopt_counter("aon_mine_total", "mine", &[("k", "v")], &mine); // idempotent
        mine.inc();
        assert!(r.render_prometheus().contains("aon_mine_total{k=\"v\"} 3\n"));
    }

    #[test]
    #[should_panic(expected = "another handle")]
    fn adopting_over_an_existing_series_panics() {
        let r = Registry::new();
        r.counter("aon_mine_total", "mine", &[]);
        r.adopt_counter("aon_mine_total", "mine", &[], &Arc::new(Counter::new()));
    }

    #[test]
    fn name_validation_rejects_bad_names() {
        assert!(valid_metric_name("aon_requests_total"));
        assert!(!valid_metric_name("9bad"));
        assert!(!valid_metric_name("has space"));
        assert!(valid_label_name("use_case"));
        assert!(!valid_label_name("le-gal"));
    }
}
