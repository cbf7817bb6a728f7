//! What one workload run hands back: operation counts, metric values and
//! the raw samples behind them. The child process writes it as JSON; the
//! parent reads it back, adds what it measured itself and prints.

use std::collections::BTreeMap;
use std::time::Instant;

use hpc_telemetry::json::{self, JsonValue};

use crate::stats;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Failure descriptions kept verbatim; the rest are only counted.
const MAX_ERRORS: usize = 8;

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output differed from its reference.
    pub failed: u64,
    /// The first few failures, for the operator.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Raw samples of every timed series, by series name.
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Counts `n` failed operations and keeps the reason.
    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(why());
        }
    }

    /// Records a latency series (milliseconds) as the two latency metrics
    /// and keeps its samples. The tail is the workload's declared
    /// percentile, or the highest one the series supports if that is lower.
    pub fn set_latency(&mut self, series_ms: Vec<f64>, declared_permille: u32) {
        let s = stats::summarize(&series_ms, declared_permille);
        self.set("latency_p50_ms", s.median);
        self.set("latency_tail_ms", s.tail);
        self.set("latency_tail_permille", s.tail_permille as f64);
        self.samples.insert("latency_ms".to_string(), series_ms);
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "attempted".to_string(),
                JsonValue::Number(self.attempted as f64),
            ),
            ("failed".to_string(), JsonValue::Number(self.failed as f64)),
            (
                "errors".to_string(),
                JsonValue::Array(self.errors.iter().cloned().map(JsonValue::String).collect()),
            ),
            (
                "metrics".to_string(),
                JsonValue::Object(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Number(*v)))
                        .collect(),
                ),
            ),
            (
                "samples".to_string(),
                JsonValue::Object(
                    self.samples
                        .iter()
                        .map(|(k, v)| {
                            (
                                k.clone(),
                                JsonValue::Array(v.iter().map(|x| JsonValue::Number(*x)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(text: &str) -> Result<Outcome, String> {
        let v = json::parse(text)?;
        let number = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_number)
                .ok_or_else(|| format!("outcome: missing {k}"))
        };
        let mut out = Outcome {
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            ..Outcome::default()
        };
        for e in v.get("errors").and_then(JsonValue::as_array).unwrap_or(&[]) {
            out.errors.extend(e.as_str().map(str::to_string));
        }
        for (k, m) in v
            .get("metrics")
            .and_then(JsonValue::as_object)
            .unwrap_or(&[])
        {
            out.metrics.insert(
                k.clone(),
                m.as_number().ok_or("outcome: non-numeric metric")?,
            );
        }
        for (k, s) in v
            .get("samples")
            .and_then(JsonValue::as_object)
            .unwrap_or(&[])
        {
            let series = s.as_array().ok_or("outcome: samples not an array")?;
            out.samples.insert(
                k.clone(),
                series.iter().filter_map(JsonValue::as_number).collect(),
            );
        }
        Ok(out)
    }
}

/// Runs `setup` [`SETUP_REPS`] times; returns the last result and the
/// median seconds one set-up took.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        secs.push(start.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), stats::median(&secs))
}

/// Times one call in milliseconds.
pub fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e3)
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_round_trips_and_caps_error_text() {
        let mut o = Outcome {
            attempted: 12,
            ..Outcome::default()
        };
        o.set_latency((1..=30).map(|i| i as f64 * 0.37).collect(), 990);
        o.set("throughput_per_s", 1234.5678);
        for i in 0..20 {
            o.fail(1, || format!("failure {i}"));
        }
        assert_eq!((o.failed, o.errors.len()), (20, MAX_ERRORS));
        let back = Outcome::from_json(&o.to_json().to_string()).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn peak_rss_reads_a_positive_figure() {
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn repeated_setup_keeps_the_last_result() {
        let mut calls = 0;
        let (last, secs) = repeated_setup(|| {
            calls += 1;
            calls
        });
        assert_eq!((last, calls), (SETUP_REPS, SETUP_REPS));
        assert!(secs >= 0.0);
    }
}
