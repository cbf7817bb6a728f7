//! The global metric registry and its serialisable [`Snapshot`].
//!
//! Metrics are interned by name: the first `counter("x")` creates the
//! counter, later calls return the same `Arc`. Instrumented code should
//! hold the `Arc` (or update at stage granularity) rather than re-looking
//! up names in per-item loops — lookups take a mutex.

use std::collections::BTreeMap;
use std::fmt;
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
        let make = || Metric::Counter(Arc::new(Counter::new()));
        self.intern(name, make, |m| match m {
            Metric::Counter(c) => Some(Arc::clone(c)),
            _ => None,
        })
    }

    /// Gauge by name, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let make = || Metric::Gauge(Arc::new(Gauge::new()));
        self.intern(name, make, |m| match m {
            Metric::Gauge(g) => Some(Arc::clone(g)),
            _ => None,
        })
    }

    /// Histogram by name, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let make = || Metric::Histogram(Arc::new(Histogram::new()));
        self.intern(name, make, |m| match m {
            Metric::Histogram(h) => Some(Arc::clone(h)),
            _ => None,
        })
    }

    /// The metric named `name` as `pick` takes it, registered from `make`
    /// on a miss. A hit looks the name up by `&str` and allocates nothing.
    fn intern<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> Metric,
        pick: impl Fn(&Metric) -> Option<T>,
    ) -> T {
        let mut m = self.metrics.lock().unwrap();
        let picked = match m.get(name) {
            Some(metric) => pick(metric),
            None => pick(m.entry(name.to_string()).or_insert_with(make)),
        };
        picked.unwrap_or_else(|| {
            panic!("telemetry metric {name:?} already registered with a different kind")
        })
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
    ///
    /// The bytes are those of the tree `JsonValue::pretty` would print for
    /// this layout, written straight into one pre-sized `String`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.json_len_hint());
        let _ = self.write_json(&mut out);
        out
    }

    /// About how long [`Snapshot::to_json`] is: the layout's bytes per
    /// entry, names unescaped and every number as wide as `u64::MAX`.
    fn json_len_hint(&self) -> usize {
        const NUMBER: usize = 20;
        fn members<V>(map: &BTreeMap<String, V>) -> usize {
            map.keys().map(|k| k.len() + 10 + NUMBER).sum()
        }
        let buckets: usize = self.histograms.values().map(|h| h.buckets.len()).sum();
        let spans: usize = self
            .spans
            .iter()
            .map(|n| n.name.len() + 84 + 3 * NUMBER)
            .sum();
        96 + members(&self.counters)
            + members(&self.gauges)
            + members(&self.histograms)
            + self.histograms.len() * (95 + 4 * NUMBER)
            + buckets * (77 + 3 * NUMBER)
            + spans
    }

    fn write_json(&self, out: &mut String) -> fmt::Result {
        out.push_str("{\n  \"version\": 2,\n  \"counters\": ");
        write_map(out, &self.counters, |out, v| number(out, "", *v))?;
        out.push_str(",\n  \"gauges\": ");
        write_map(out, &self.gauges, |out, v| json::write_number(out, *v))?;
        out.push_str(",\n  \"histograms\": ");
        write_map(out, &self.histograms, |out, h| {
            number(out, "{\n      \"count\": ", h.count)?;
            number(out, ",\n      \"sum\": ", h.sum)?;
            number(out, ",\n      \"min\": ", h.min)?;
            number(out, ",\n      \"max\": ", h.max)?;
            out.push_str(",\n      \"buckets\": ");
            write_list(out, 3, &h.buckets, |out, b| {
                number(out, "\n          \"lo\": ", b.lo)?;
                number(out, ",\n          \"hi\": ", b.hi)?;
                number(out, ",\n          \"count\": ", b.count)
            })?;
            out.push_str("\n    }");
            Ok(())
        })?;
        out.push_str(",\n  \"spans\": ");
        write_list(out, 1, &self.spans, |out, n| {
            out.push_str("\n      \"name\": ");
            json::write_string(out, &n.name)?;
            match n.parent {
                Some(p) => number(out, ",\n      \"parent\": ", p as u64)?,
                None => out.push_str(",\n      \"parent\": null"),
            }
            number(out, ",\n      \"wall_us\": ", n.wall_us)?;
            number(out, ",\n      \"calls\": ", n.calls)
        })?;
        out.push_str("\n}\n");
        Ok(())
    }

    /// Parses a snapshot back from its [`Snapshot::to_json`] form.
    ///
    /// Values beyond 2^53 (unrepresentable in JSON numbers without loss)
    /// round-trip approximately; all realistic telemetry stays far below.
    /// A gauge that is not finite (NaN or ±infinity, which JSON cannot
    /// hold) is written as `null` and reads back as NaN.
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
                        let n = match v {
                            JsonValue::Null => f64::NAN,
                            v => v.as_number().ok_or("gauge value is not a number")?,
                        };
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

/// Two spaces per level, as deep as the layout goes.
const INDENT: &str = "        ";

/// `head` (separator, indent and key) then `v` as a JSON number.
fn number(out: &mut String, head: &str, v: u64) -> fmt::Result {
    out.push_str(head);
    json::write_number(out, v as f64)
}

/// A top-level member's object: `{}` when empty, else one `"name": value`
/// line per entry at depth 2, in name order.
fn write_map<V>(
    out: &mut String,
    map: &BTreeMap<String, V>,
    value: impl Fn(&mut String, &V) -> fmt::Result,
) -> fmt::Result {
    if map.is_empty() {
        out.push_str("{}");
        return Ok(());
    }
    out.push('{');
    for (i, (name, v)) in map.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        json::write_string(out, name)?;
        out.push_str(": ");
        value(out, v)?;
    }
    out.push_str("\n  }");
    Ok(())
}

/// An array at `depth` of objects one level in: `[]` when empty, else each
/// item's braces on their own lines around the members `members` writes.
fn write_list<T>(
    out: &mut String,
    depth: usize,
    items: &[T],
    members: impl Fn(&mut String, &T) -> fmt::Result,
) -> fmt::Result {
    if items.is_empty() {
        out.push_str("[]");
        return Ok(());
    }
    let (outer, inner) = (&INDENT[..2 * depth], &INDENT[..2 * depth + 2]);
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i > 0 { ",\n" } else { "\n" });
        out.push_str(inner);
        out.push('{');
        members(out, item)?;
        out.push('\n');
        out.push_str(inner);
        out.push('}');
    }
    out.push('\n');
    out.push_str(outer);
    out.push(']');
    Ok(())
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
    use proptest::prelude::*;

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

    /// `Snapshot::to_json` as it stood before it wrote straight to bytes:
    /// a `JsonValue` tree, pretty-printed. Frozen as the byte-for-byte
    /// reference for the direct writer; do not edit.
    mod frozen {
        use super::super::Snapshot;
        use crate::json::JsonValue;

        pub fn to_json(snapshot: &Snapshot) -> String {
            let mut counters: Vec<(String, JsonValue)> = Vec::new();
            for (k, v) in &snapshot.counters {
                counters.push((k.clone(), JsonValue::Number(*v as f64)));
            }
            let mut gauges: Vec<(String, JsonValue)> = Vec::new();
            for (k, v) in &snapshot.gauges {
                gauges.push((k.clone(), JsonValue::Number(*v)));
            }
            let mut histograms: Vec<(String, JsonValue)> = Vec::new();
            for (k, h) in &snapshot.histograms {
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
            let spans: Vec<JsonValue> = snapshot
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
    }

    /// Random snapshots that hit every writer branch: names with quotes,
    /// backslashes, control characters and 2-, 3- and 4-byte characters;
    /// counters on both sides of 2^53 up to `u64::MAX`; NaN, ±inf, -0.0,
    /// fractional and negative gauges; empty, recorded and full 65-bucket
    /// histograms; root and child spans. Half are narrow: no integer that
    /// `from_json` cannot give back.
    struct Snapshots;

    impl Snapshots {
        const PIECES: [&'static str; 12] = [
            "a",
            "core.ingest",
            ".",
            "\"",
            "\\",
            "\n",
            "\t",
            "\u{1}",
            "\u{7f}",
            "é",
            "€",
            "😀",
        ];
        const COUNTERS: [u64; 6] = [0, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX];
        const GAUGES: [f64; 11] = [
            0.0,
            -0.0,
            4.0,
            -42.0,
            0.5,
            -2.25,
            1e-7,
            9.0e15,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];

        fn name(rng: &mut TestRng, min: u64) -> String {
            (0..min + rng.below(6))
                .map(|_| Snapshots::PIECES[rng.below(12) as usize])
                .collect()
        }

        fn count(rng: &mut TestRng, wide: bool) -> u64 {
            match rng.below(3) {
                0 if wide => Snapshots::COUNTERS[rng.below(6) as usize],
                1 if wide => rng.next_u64(),
                _ => rng.below(1 << 20),
            }
        }

        fn gauge(rng: &mut TestRng, wide: bool) -> f64 {
            match rng.below(2) {
                0 if wide => Snapshots::GAUGES[rng.below(11) as usize],
                _ => (rng.unit_f64() - 0.5) * 10f64.powi(rng.below(24) as i32 - 12),
            }
        }

        fn histogram(rng: &mut TestRng, wide: bool) -> HistogramSnapshot {
            let h = Histogram::new();
            match rng.below(3) {
                0 => {}
                1 if wide => {
                    h.record(0);
                    (0..64).for_each(|i| h.record(1 << i));
                }
                _ => (0..rng.below(20)).for_each(|_| h.record(rng.below(1 << 20))),
            }
            h.snapshot()
        }
    }

    impl Strategy for Snapshots {
        type Value = Snapshot;
        fn sample(&self, rng: &mut TestRng) -> Snapshot {
            // A narrow snapshot's values all survive `from_json`.
            let wide = rng.below(2) == 0;
            let mut s = Snapshot::default();
            for _ in 0..rng.below(6) {
                s.counters
                    .insert(Snapshots::name(rng, 0), Snapshots::count(rng, wide));
            }
            for _ in 0..rng.below(6) {
                s.gauges
                    .insert(Snapshots::name(rng, 0), Snapshots::gauge(rng, wide));
            }
            for _ in 0..rng.below(4) {
                s.histograms
                    .insert(Snapshots::name(rng, 0), Snapshots::histogram(rng, wide));
            }
            for i in 0..rng.below(6) as usize {
                s.spans.push(SpanNode {
                    name: Snapshots::name(rng, 1),
                    parent: (i > 0 && rng.below(3) > 0).then(|| rng.below(i as u64) as usize),
                    wall_us: Snapshots::count(rng, wide),
                    calls: Snapshots::count(rng, wide),
                });
            }
            s
        }
    }

    /// Whether `from_json` can give `s` back: every integer survives the
    /// trip through `f64`. A gauge that is not finite comes back NaN.
    fn exact(s: &Snapshot) -> bool {
        let fits = |v: u64| v as f64 as u64 == v;
        let spans = s.spans.iter().flat_map(|n| [n.wall_us, n.calls]);
        let histograms = s.histograms.values().flat_map(|h| {
            let buckets = h.buckets.iter().flat_map(|b| [b.lo, b.hi, b.count]);
            [h.count, h.sum, h.min, h.max].into_iter().chain(buckets)
        });
        s.counters
            .values()
            .copied()
            .chain(spans)
            .chain(histograms)
            .all(fits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn direct_writer_matches_the_frozen_tree_writer(s in Snapshots) {
            let text = s.to_json();
            prop_assert_eq!(&text, &frozen::to_json(&s));
            if exact(&s) {
                let mut back = Snapshot::from_json(&text).expect("a written snapshot reads back");
                prop_assert_eq!(back.to_json(), text);
                // NaN equals nothing, so gauges are compared one by one.
                let gauges = std::mem::take(&mut back.gauges);
                prop_assert!(gauges.keys().eq(s.gauges.keys()));
                for (back, sent) in gauges.values().zip(s.gauges.values()) {
                    let nan = back.is_nan() && !sent.is_finite();
                    prop_assert!(back == sent || nan, "{} read back as {}", sent, back);
                }
                prop_assert_eq!(back, Snapshot { gauges: BTreeMap::new(), ..s });
            }
        }
    }

    #[test]
    fn the_writer_is_pre_sized_for_plain_names() {
        let r = Registry::new();
        r.counter("fleetd.http.requests").add(u64::MAX);
        r.gauge("core.ingest.threads").set(4.0);
        let h = r.histogram("core.detect.time_us");
        h.record(0);
        (0..64).for_each(|i| h.record(1 << i));
        r.histogram("core.empty_us");
        let mut s = r.snapshot();
        let span = |name: &str, parent| SpanNode {
            name: name.into(),
            parent,
            wall_us: u64::MAX,
            calls: u64::MAX,
        };
        s.spans = vec![span("core.from_dir", None), span("core.ingest", Some(0))];
        let text = s.to_json();
        assert_eq!(text, frozen::to_json(&s));
        assert!(
            text.len() <= s.json_len_hint(),
            "{} > {}",
            text.len(),
            s.json_len_hint()
        );
    }
}
