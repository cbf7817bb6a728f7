//! The global metric registry and its serialisable [`Snapshot`].
//!
//! Metrics are interned by name: the first `counter("x")` creates the
//! counter, later calls return the same `Arc`. Instrumented code should
//! hold the `Arc` (or update at stage granularity) rather than re-looking
//! up names in per-item loops — lookups take a mutex.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::{self, JsonValue};
use crate::metrics::{Bucket, Counter, Gauge, Histogram, HistogramSnapshot};
use crate::span::{self, SpanNode};

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Most users go through the global
/// registry via the crate-level [`counter`]/[`gauge`]/[`histogram`]
/// functions; separate registries exist for tests.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

/// Global counter by name, created on first use.
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Global gauge by name, created on first use.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Global histogram by name, created on first use.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Point-in-time copy of every global metric, including the retained
/// span tree ([`Snapshot::spans`]).
pub fn snapshot() -> Snapshot {
    let mut snap = global().snapshot();
    snap.spans = span::tree_snapshot();
    snap
}

/// Drops all global metrics and the retained span tree (benches and tests
/// isolate runs with this). `Arc` handles held by callers keep updating
/// their detached metric, which simply no longer appears in snapshots.
pub fn reset() {
    global().reset();
    span::reset_tree();
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Counter by name, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("telemetry metric {name:?} already registered with a different kind"),
        }
    }

    /// Gauge by name, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("telemetry metric {name:?} already registered with a different kind"),
        }
    }

    /// Histogram by name, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("telemetry metric {name:?} already registered with a different kind"),
        }
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock().unwrap();
        let mut snap = Snapshot::default();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }

    /// Drops all metrics.
    fn reset(&self) {
        self.metrics.lock().unwrap().clear();
    }
}

/// Immutable, serialisable view of a registry at one instant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Retained span tree in pre-order (parents before children); global
    /// snapshots only — per-test registries leave it empty.
    pub spans: Vec<SpanNode>,
}

impl Snapshot {
    /// Counter value, or `None` if absent.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value, or `None` if absent.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram snapshot, or `None` if absent.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Serialises the snapshot as deterministic, pretty-printed JSON.
    ///
    /// Layout (version 2 added `spans`; absent in version-1 files, which
    /// still parse):
    ///
    /// ```json
    /// {
    ///   "version": 2,
    ///   "counters": { "ingest.lines": 12345 },
    ///   "gauges": { "core.ingest.threads": 4.0 },
    ///   "histograms": {
    ///     "core.detect.time_us": {
    ///       "count": 1, "sum": 1800, "min": 1800, "max": 1800,
    ///       "buckets": [ { "lo": 1024, "hi": 2047, "count": 1 } ]
    ///     }
    ///   },
    ///   "spans": [
    ///     { "name": "core.from_dir", "parent": null, "wall_us": 80100, "calls": 1 },
    ///     { "name": "core.ingest.parse", "parent": 0, "wall_us": 55000, "calls": 4 }
    ///   ]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut counters: Vec<(String, JsonValue)> = Vec::new();
        for (k, v) in &self.counters {
            counters.push((k.clone(), JsonValue::Number(*v as f64)));
        }
        let mut gauges: Vec<(String, JsonValue)> = Vec::new();
        for (k, v) in &self.gauges {
            gauges.push((k.clone(), JsonValue::Number(*v)));
        }
        let mut histograms: Vec<(String, JsonValue)> = Vec::new();
        for (k, h) in &self.histograms {
            let buckets: Vec<JsonValue> = h
                .buckets
                .iter()
                .map(|b| {
                    JsonValue::Object(vec![
                        ("lo".into(), JsonValue::Number(b.lo as f64)),
                        ("hi".into(), JsonValue::Number(b.hi as f64)),
                        ("count".into(), JsonValue::Number(b.count as f64)),
                    ])
                })
                .collect();
            histograms.push((
                k.clone(),
                JsonValue::Object(vec![
                    ("count".into(), JsonValue::Number(h.count as f64)),
                    ("sum".into(), JsonValue::Number(h.sum as f64)),
                    ("min".into(), JsonValue::Number(h.min as f64)),
                    ("max".into(), JsonValue::Number(h.max as f64)),
                    ("buckets".into(), JsonValue::Array(buckets)),
                ]),
            ));
        }
        let spans: Vec<JsonValue> = self
            .spans
            .iter()
            .map(|n| {
                JsonValue::Object(vec![
                    ("name".into(), JsonValue::String(n.name.clone())),
                    (
                        "parent".into(),
                        match n.parent {
                            Some(p) => JsonValue::Number(p as f64),
                            None => JsonValue::Null,
                        },
                    ),
                    ("wall_us".into(), JsonValue::Number(n.wall_us as f64)),
                    ("calls".into(), JsonValue::Number(n.calls as f64)),
                ])
            })
            .collect();
        let root = JsonValue::Object(vec![
            ("version".into(), JsonValue::Number(2.0)),
            ("counters".into(), JsonValue::Object(counters)),
            ("gauges".into(), JsonValue::Object(gauges)),
            ("histograms".into(), JsonValue::Object(histograms)),
            ("spans".into(), JsonValue::Array(spans)),
        ]);
        root.pretty()
    }

    /// Parses a snapshot back from its [`Snapshot::to_json`] form.
    ///
    /// Values beyond 2^53 (unrepresentable in JSON numbers without loss)
    /// round-trip approximately; all realistic telemetry stays far below.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let root = json::parse(text)?;
        let obj = root.as_object().ok_or("top level is not an object")?;
        let mut snap = Snapshot::default();
        for (key, value) in obj {
            match key.as_str() {
                "counters" => {
                    for (name, v) in value.as_object().ok_or("counters is not an object")? {
                        let n = v.as_number().ok_or("counter value is not a number")?;
                        snap.counters.insert(name.clone(), n as u64);
                    }
                }
                "gauges" => {
                    for (name, v) in value.as_object().ok_or("gauges is not an object")? {
                        let n = v.as_number().ok_or("gauge value is not a number")?;
                        snap.gauges.insert(name.clone(), n);
                    }
                }
                "histograms" => {
                    for (name, v) in value.as_object().ok_or("histograms is not an object")? {
                        snap.histograms.insert(name.clone(), parse_histogram(v)?);
                    }
                }
                "spans" => {
                    for v in value.as_array().ok_or("spans is not an array")? {
                        snap.spans.push(parse_span(v, snap.spans.len())?);
                    }
                }
                _ => {} // version and future fields
            }
        }
        Ok(snap)
    }
}

fn parse_span(v: &JsonValue, index: usize) -> Result<SpanNode, String> {
    let obj = v.as_object().ok_or("span is not an object")?;
    let mut node = SpanNode::default();
    for (key, value) in obj {
        match key.as_str() {
            "name" => node.name = value.as_str().ok_or("span name")?.to_string(),
            "parent" => {
                node.parent = match value {
                    JsonValue::Null => None,
                    v => {
                        let p = v.as_number().ok_or("span parent")? as usize;
                        if p >= index {
                            return Err(format!("span {index} parent {p} not before it"));
                        }
                        Some(p)
                    }
                }
            }
            "wall_us" => node.wall_us = value.as_number().ok_or("span wall_us")? as u64,
            "calls" => node.calls = value.as_number().ok_or("span calls")? as u64,
            _ => {}
        }
    }
    if node.name.is_empty() {
        return Err(format!("span {index} missing name"));
    }
    Ok(node)
}

fn parse_histogram(v: &JsonValue) -> Result<HistogramSnapshot, String> {
    let obj = v.as_object().ok_or("histogram is not an object")?;
    let mut h = HistogramSnapshot::default();
    for (key, value) in obj {
        match key.as_str() {
            "count" => h.count = value.as_number().ok_or("count")? as u64,
            "sum" => h.sum = value.as_number().ok_or("sum")? as u64,
            "min" => h.min = value.as_number().ok_or("min")? as u64,
            "max" => h.max = value.as_number().ok_or("max")? as u64,
            "buckets" => {
                for b in value.as_array().ok_or("buckets is not an array")? {
                    let bo = b.as_object().ok_or("bucket is not an object")?;
                    let field = |n: &str| -> Result<u64, String> {
                        bo.iter()
                            .find(|(k, _)| k == n)
                            .and_then(|(_, v)| v.as_number())
                            .map(|x| x as u64)
                            .ok_or_else(|| format!("bucket missing {n}"))
                    };
                    h.buckets.push(Bucket {
                        lo: field("lo")?,
                        hi: field("hi")?,
                        count: field("count")?,
                    });
                }
            }
            _ => {}
        }
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_by_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        assert_eq!(b.get(), 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _c = r.counter("x");
        let _g = r.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("b.count").add(3);
        r.counter("a.count").inc();
        r.gauge("g").set(1.5);
        r.histogram("h.time_us").record(100);
        let s = r.snapshot();
        let names: Vec<&String> = s.counters.keys().collect();
        assert_eq!(names, ["a.count", "b.count"]);
        assert_eq!(s.counter("b.count"), Some(3));
        assert_eq!(s.gauge("g"), Some(1.5));
        assert_eq!(s.histogram("h.time_us").unwrap().count, 1);
    }

    #[test]
    fn reset_clears() {
        let r = Registry::new();
        r.counter("x").inc();
        r.reset();
        assert!(r.snapshot().counters.is_empty());
    }
}
