//! A small parser for the Prometheus text exposition format — enough to
//! read back what [`crate::registry::Registry::render_prometheus`]
//! writes, so `aon-report` and the CI cross-check can consume a live
//! `/metrics` scrape without external dependencies.
//!
//! Handles `# HELP`/`# TYPE` comments (skipped), series lines with and
//! without label sets, escaped label values, integer or float sample
//! values, and OpenMetrics exemplar suffixes on histogram bucket lines
//! (`... 17 # {trace_id="42"} 123456` — parsed into
//! [`ScrapedSample::exemplar`]; a malformed suffix degrades to no
//! exemplar, never to a lost sample). Lines that do not parse are
//! skipped rather than fatal: a scraper must tolerate families it does
//! not know.
//!
//! This file is on the `aon-audit` cast-enforced list.

#![deny(clippy::as_conversions)]

/// One parsed exemplar suffix (`# {trace_id="..."} value`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapedExemplar {
    /// Exemplar label pairs in written order (unescaped values).
    pub labels: Vec<(String, String)>,
    /// The exemplar's observed value.
    pub value: f64,
}

impl ScrapedExemplar {
    /// The value of the exemplar label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapedSample {
    /// Metric name as written (`aon_requests_total`,
    /// `aon_stage_duration_ns_sum`, …).
    pub name: String,
    /// Label pairs in written order (unescaped values).
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
    /// The OpenMetrics exemplar attached to the line, if any.
    pub exemplar: Option<ScrapedExemplar>,
}

impl ScrapedSample {
    /// The value of the label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Parse an exposition-format document into samples, skipping comments,
/// blank lines, and malformed lines.
pub fn parse_prometheus(text: &str) -> Vec<ScrapedSample> {
    text.lines().filter_map(parse_line).collect()
}

/// Sum the values of every sample named `name` that carries all of the
/// `required` label pairs (an empty filter sums the whole family).
pub fn sum_samples(samples: &[ScrapedSample], name: &str, required: &[(&str, &str)]) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| required.iter().all(|(k, v)| s.label(k) == Some(*v)))
        .map(|s| s.value)
        .sum()
}

fn parse_line(line: &str) -> Option<ScrapedSample> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    // The label-set close brace must be found with quote awareness: an
    // exemplar suffix contributes a *second* `{...}` later in the line
    // (so `rfind` would be wrong), and a quoted label value may contain
    // braces of its own. An open brace only denotes a label set when it
    // precedes the first space — on an unlabelled line the first `{` is
    // the exemplar's.
    let open_brace = line.find('{').filter(|&o| line.find(' ').is_none_or(|s| o < s));
    let (name, labels, after) = match open_brace {
        Some(open) => {
            let close = find_close_brace(line, open)?;
            (line[..open].to_string(), parse_labels(&line[open + 1..close])?, &line[close + 1..])
        }
        None => {
            let space = line.find(' ')?;
            (line[..space].to_string(), Vec::new(), &line[space + 1..])
        }
    };
    // `after` is `value [timestamp] [# {labels} value [timestamp]]`.
    // Neither values nor timestamps can contain `#`, so the first `#`
    // (if any) starts the exemplar suffix.
    let (value_text, exemplar_text) = match after.find('#') {
        Some(hash) => (&after[..hash], Some(&after[hash + 1..])),
        None => (after, None),
    };
    let value_token = value_text.split_whitespace().next()?;
    let value = parse_value(value_token)?;
    // A malformed exemplar suffix degrades to "no exemplar": the sample
    // itself parsed, and a scraper must not lose it over decoration.
    let exemplar = exemplar_text.and_then(parse_exemplar);
    Some(ScrapedSample { name, labels, value, exemplar })
}

/// The index of the `}` closing the brace at `open`, skipping braces
/// inside quoted label values (with escape handling).
fn find_close_brace(line: &str, open: usize) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in line[open + 1..].char_indices() {
        if escaped {
            escaped = false;
        } else if in_quotes {
            match c {
                '\\' => escaped = true,
                '"' => in_quotes = false,
                _ => {}
            }
        } else if c == '"' {
            in_quotes = true;
        } else if c == '}' {
            return Some(open + 1 + i);
        }
    }
    None
}

/// Parse the exemplar body after its `#`: `{k="v",...} value [ts]`.
fn parse_exemplar(text: &str) -> Option<ScrapedExemplar> {
    let text = text.trim_start();
    if !text.starts_with('{') {
        return None;
    }
    let close = find_close_brace(text, 0)?;
    let labels = parse_labels(&text[1..close])?;
    let value_token = text[close + 1..].split_whitespace().next()?;
    let value = parse_value(value_token)?;
    Some(ScrapedExemplar { labels, value })
}

fn parse_value(token: &str) -> Option<f64> {
    match token {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        t => t.parse().ok(),
    }
}

/// Parse `k="v",k2="v2"` (possibly empty), unescaping values.
fn parse_labels(inner: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let eq = rest.find('=')?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].trim_start();
        let mut chars = after.char_indices();
        if chars.next()?.1 != '"' {
            return None;
        }
        let mut value = String::new();
        let mut consumed = None;
        let mut escaped = false;
        for (i, c) in chars {
            if escaped {
                value.push(match c {
                    'n' => '\n',
                    other => other,
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                consumed = Some(i + c.len_utf8());
                break;
            } else {
                value.push(c);
            }
        }
        let end = consumed?;
        labels.push((key, value));
        let tail = after[end..].trim_start();
        rest = match tail.strip_prefix(',') {
            Some(t) => t.trim_start(),
            None if tail.is_empty() => "",
            None => return None,
        };
    }
    Some(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn parses_plain_and_labelled_lines() {
        let text = "# HELP aon_x help text\n# TYPE aon_x counter\naon_x 5\naon_y{use_case=\"FR\",stage=\"parse\"} 12.5\n";
        let samples = parse_prometheus(text);
        assert_eq!(samples.len(), 2);
        assert_eq!(
            samples[0],
            ScrapedSample { name: "aon_x".into(), labels: vec![], value: 5.0, exemplar: None }
        );
        assert_eq!(samples[1].name, "aon_y");
        assert_eq!(samples[1].label("use_case"), Some("FR"));
        assert_eq!(samples[1].label("stage"), Some("parse"));
        assert_eq!(samples[1].value, 12.5);
    }

    #[test]
    fn parses_inf_and_escaped_labels() {
        let samples = parse_prometheus("h_bucket{le=\"+Inf\"} 3\nm{k=\"a\\\"b\\\\c\"} 1\n");
        assert_eq!(samples[0].label("le"), Some("+Inf"));
        assert_eq!(samples[0].value, 3.0);
        assert_eq!(samples[1].label("k"), Some("a\"b\\c"));
    }

    #[test]
    fn skips_garbage_lines() {
        let samples = parse_prometheus("not a metric line at all {\nname_only\n");
        assert!(samples.is_empty(), "{samples:?}");
    }

    #[test]
    fn sum_filters_by_labels() {
        let text = "t{u=\"FR\",o=\"ok\"} 3\nt{u=\"FR\",o=\"rej\"} 2\nt{u=\"SV\",o=\"ok\"} 7\n";
        let samples = parse_prometheus(text);
        assert_eq!(sum_samples(&samples, "t", &[]), 12.0);
        assert_eq!(sum_samples(&samples, "t", &[("u", "FR")]), 5.0);
        assert_eq!(sum_samples(&samples, "t", &[("u", "FR"), ("o", "ok")]), 3.0);
        assert_eq!(sum_samples(&samples, "missing", &[]), 0.0);
    }

    #[test]
    fn truncated_exposition_keeps_complete_lines() {
        // A scrape cut mid-line (connection dropped) must still yield
        // every complete line before the cut and never panic.
        let full = "a_total 1\nb_total{k=\"v\"} 2\nc_total 3\n";
        for cut in 0..full.len() {
            let samples = parse_prometheus(&full[..cut]);
            assert!(samples.len() <= 3, "cut at {cut} invented samples: {samples:?}");
            for s in &samples {
                assert!(["a_total", "b_total", "c_total"].contains(&s.name.as_str()));
            }
        }
        // Cut exactly after the second newline: both whole lines survive.
        let two = parse_prometheus(&full[..full.find("c_total").expect("present")]);
        assert_eq!(two.len(), 2);
    }

    #[test]
    fn bad_label_escapes_are_skipped_not_fatal() {
        // Trailing backslash: the escape never completes, so the closing
        // quote is consumed and the line cannot terminate — skipped.
        let samples = parse_prometheus("m{k=\"a\\\\\\\"} 1\nok_total 2\n");
        assert_eq!(samples.len(), 1, "{samples:?}");
        assert_eq!(samples[0].name, "ok_total");
        // Unterminated value quote and missing `=`: same treatment.
        assert!(parse_prometheus("m{k=\"open} 1\n").is_empty());
        assert!(parse_prometheus("m{kv} 1\n").is_empty());
        // Unknown escapes pass the character through (Prometheus allows
        // only \\, \", \n but a reader must not lose the line).
        let lenient = parse_prometheus("m{k=\"a\\tb\"} 1\n");
        assert_eq!(lenient[0].label("k"), Some("atb"));
    }

    #[test]
    fn nan_and_inf_values_parse() {
        let samples = parse_prometheus("a +Inf\nb -Inf\nc NaN\nd 1e3\ne not_a_number\n");
        assert_eq!(samples.len(), 4, "{samples:?}");
        assert_eq!(samples[0].value, f64::INFINITY);
        assert_eq!(samples[1].value, f64::NEG_INFINITY);
        assert!(samples[2].value.is_nan());
        assert_eq!(samples[3].value, 1000.0);
        // NaN samples must not poison family sums that exclude them.
        assert_eq!(sum_samples(&samples, "a", &[]), f64::INFINITY);
        assert!(sum_samples(&samples, "c", &[]).is_nan());
    }

    #[test]
    fn round_trips_registry_output() {
        let r = Registry::new();
        r.counter("aon_requests_total", "reqs", &[("use_case", "FR"), ("outcome", "ok")]).add(9);
        r.counter("aon_requests_total", "reqs", &[("use_case", "SV"), ("outcome", "ok")]).add(4);
        let h = r.histogram("aon_lat_ns", "lat", &[("use_case", "FR")]);
        h.record(100);
        h.record(900);
        let samples = parse_prometheus(&r.render_prometheus());
        assert_eq!(sum_samples(&samples, "aon_requests_total", &[]), 13.0);
        assert_eq!(sum_samples(&samples, "aon_lat_ns_count", &[("use_case", "FR")]), 2.0);
        assert_eq!(sum_samples(&samples, "aon_lat_ns_sum", &[]), 1000.0);
    }

    #[test]
    fn parses_exemplar_suffixes() {
        let text = "h_bucket{le=\"127\"} 1 # {trace_id=\"42\"} 100\nh_bucket{le=\"+Inf\"} 2 # {trace_id=\"7\",span=\"parse\"} 9.5\n";
        let samples = parse_prometheus(text);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].label("le"), Some("127"));
        assert_eq!(samples[0].value, 1.0);
        let ex = samples[0].exemplar.as_ref().expect("exemplar parsed");
        assert_eq!(ex.label("trace_id"), Some("42"));
        assert_eq!(ex.value, 100.0);
        let ex2 = samples[1].exemplar.as_ref().expect("exemplar parsed");
        assert_eq!(ex2.label("trace_id"), Some("7"));
        assert_eq!(ex2.label("span"), Some("parse"));
        assert_eq!(ex2.value, 9.5);
    }

    #[test]
    fn round_trips_rendered_exemplars() {
        let r = Registry::new();
        let h = r.histogram_with_exemplars("aon_lat_ns", "lat", &[("use_case", "FR")]);
        h.record(100);
        h.attach_exemplar(100, 42);
        let samples = parse_prometheus(&r.render_prometheus());
        let with = samples
            .iter()
            .find(|s| s.name == "aon_lat_ns_bucket" && s.exemplar.is_some())
            .expect("one bucket carries the exemplar");
        let ex = with.exemplar.as_ref().expect("present");
        assert_eq!(ex.label("trace_id"), Some("42"));
        assert_eq!(ex.value, 100.0);
        // The sample's own value and labels are unperturbed by the suffix.
        assert_eq!(with.value, 1.0);
        assert_eq!(with.label("use_case"), Some("FR"));
        assert_eq!(sum_samples(&samples, "aon_lat_ns_count", &[]), 1.0);
    }

    #[test]
    fn truncated_exemplar_suffix_keeps_the_sample() {
        // A scrape cut anywhere inside the exemplar decoration must
        // still yield the sample itself (its value already parsed) —
        // never a lost sample, never a panic. An exemplar survives only
        // if the cut left a self-consistent prefix (e.g. a truncated
        // value token), mirroring how truncated plain lines behave.
        let full = "h_bucket{le=\"127\"} 1 # {trace_id=\"42\"} 100\n";
        let suffix_start = full.find('#').expect("present");
        for cut in suffix_start..full.len() - 1 {
            let samples = parse_prometheus(&full[..cut]);
            assert_eq!(samples.len(), 1, "cut at {cut}: {samples:?}");
            assert_eq!(samples[0].value, 1.0);
            if let Some(ex) = &samples[0].exemplar {
                assert_eq!(ex.label("trace_id"), Some("42"), "cut at {cut}");
                assert!(ex.value == 1.0 || ex.value == 10.0 || ex.value == 100.0, "cut at {cut}");
            }
        }
        // A cut strictly inside the exemplar's label set drops only the
        // exemplar, keeping the sample.
        let mid_labels = &full[..suffix_start + 10];
        let samples = parse_prometheus(mid_labels);
        assert_eq!(samples.len(), 1);
        assert!(samples[0].exemplar.is_none());
    }

    #[test]
    fn bad_exemplar_escapes_degrade_to_no_exemplar() {
        // Trailing-backslash escape inside the exemplar label value: the
        // exemplar body never terminates, but the sample survives.
        let samples = parse_prometheus("h_bucket{le=\"1\"} 3 # {trace_id=\"a\\\\\\\"} 5\n");
        assert_eq!(samples.len(), 1, "{samples:?}");
        assert_eq!(samples[0].value, 3.0);
        assert!(samples[0].exemplar.is_none());
        // Missing value token, missing braces, empty suffix: same.
        for bad in ["h 1 # {trace_id=\"9\"}\n", "h 1 # trace_id=9 5\n", "h 1 #\n"] {
            let got = parse_prometheus(bad);
            assert_eq!(got.len(), 1, "{bad:?} lost its sample");
            assert!(got[0].exemplar.is_none(), "{bad:?} invented an exemplar");
        }
    }
}
