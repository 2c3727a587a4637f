//! What one run of one workload reports, and the result line it prints.

use crate::json::{num, nums, quote};
use crate::spec::{Kind, END_TO_END, PER_LAYER};

/// One run's verdict and numbers. `samples` holds the per-window values
/// behind each end-to-end value, for the spread check of `--compare`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures other than failed requests, in words.
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The driver's result line: every end-to-end metric of an untraced
    /// run, every per-layer metric of a traced one. A per-layer metric
    /// that `kind` does not measure reads 0.
    pub fn result_line(&self, kind: &Kind, traced: bool) -> String {
        let metric = |name: &str, unit: &str, applies: bool| {
            let value = match self.get(name) {
                Some(v) => v,
                None if !applies => 0.0,
                None => panic!("{name} was not measured"),
            };
            format!("{}: {{\"value\": {}, \"unit\": {}}}", quote(name), num(value), quote(unit))
        };
        let metrics: Vec<String> = if traced {
            PER_LAYER.iter().map(|m| metric(m.name, m.unit, m.on.applies(kind))).collect()
        } else {
            END_TO_END.iter().map(|m| metric(m.name, m.unit, true)).collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The line before the result line: per-window samples, for a parent
    /// process that aggregates several runs.
    pub fn samples_line(&self) -> String {
        let members: Vec<String> = self
            .samples
            .iter()
            .map(|(name, values)| format!("{}: {}", quote(name), nums(values)))
            .collect();
        format!("samples {{{}}}", members.join(", "))
    }
}
