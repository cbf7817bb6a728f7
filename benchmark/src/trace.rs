//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around each call into a
//! layer's public function; nothing inside the program is instrumented.
//! A span holds its name, start, end, the span that caused it and the id
//! of the operation it belongs to. Spans stay in memory and are written as
//! `trace.json` when the run ends. A layer's number is its *self time*:
//! the span's duration minus the part its child spans cover.
//!
//! A disabled tracer runs the closure and records nothing, so the same
//! code path serves the untraced and the traced pass and their difference
//! is the tracing overhead.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded span recorder (the load generator's helper threads do
/// not trace; every layer call is made from the thread that owns this).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Starts the next operation; spans opened from now carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the span open on this
    /// tracer (if any). `f` receives the tracer to open nested spans.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        let result = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times grouped by span name, in recording order.
    pub fn self_times_by_name(&self) -> BTreeMap<String, Vec<u64>> {
        let mut by_name: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            by_name.entry(span.name.clone()).or_default().push(self_ns);
        }
        by_name
    }

    /// Sum of the self times of leaf spans (spans with no child) under
    /// each operation id.
    pub fn leaf_self_ns_by_op(&self) -> BTreeMap<u64, u64> {
        let mut has_child = vec![false; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                has_child[p] = true;
            }
        }
        let mut by_op = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if !has_child[i] {
                *by_op.entry(span.op).or_insert(0) += span.duration_ns();
            }
        }
        by_op
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, mut out: impl Write) -> io::Result<()> {
        writeln!(out, "{{\"unit\":\"ns\",\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Self time per span: its duration minus the durations of its direct
/// children (saturating, so clock granularity cannot go negative).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90)
        let spans = [
            span("root", 0, 100, None, 1),
            span("a", 10, 40, Some(0), 1),
            span("a1", 15, 25, Some(1), 1),
            span("b", 50, 90, Some(0), 1),
        ];
        // root: 100 − (30 + 40); a: 30 − 10; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), [30, 20, 10, 40]);
        // Self times partition the root's wall time exactly.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_saturates_when_children_overrun() {
        let spans = [span("p", 0, 10, None, 1), span("c", 0, 12, Some(0), 1)];
        assert_eq!(self_times_ns(&spans), [0, 12]);
    }

    #[test]
    fn tracer_records_nesting_ops_and_leaves() {
        let mut t = Tracer::new(true);
        for _ in 0..2 {
            t.next_op();
            t.span("op", |t| {
                t.span("read", |_| std::hint::black_box(1));
                t.span("parse", |t| t.span("inner", |_| std::hint::black_box(2)));
            });
        }
        let names: Vec<&str> = t.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["op", "read", "parse", "inner", "op", "read", "parse", "inner"]
        );
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(
            parents,
            [
                None,
                Some(0),
                Some(0),
                Some(2),
                None,
                Some(4),
                Some(4),
                Some(6)
            ]
        );
        assert!(t.spans()[..4].iter().all(|s| s.op == 1));
        assert!(t.spans()[4..].iter().all(|s| s.op == 2));
        // Leaves are read + inner; their time is within the op's wall.
        let leaves = t.leaf_self_ns_by_op();
        assert_eq!(leaves.len(), 2);
        assert!(leaves[&1] <= t.spans()[0].duration_ns());
        assert_eq!(t.self_times_by_name()["read"].len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_still_runs_the_closure() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |t| t.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn json_lists_every_span_with_parent_and_op() {
        let mut t = Tracer::new(true);
        t.next_op();
        t.span("a", |t| t.span("b", |_| ()));
        let mut buf = Vec::new();
        t.write_json(&mut buf).unwrap();
        let doc = hpc_telemetry::json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let spans = doc.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[1].get("parent").and_then(|p| p.as_number()),
            Some(0.0)
        );
        assert_eq!(spans[1].get("op").and_then(|p| p.as_number()), Some(1.0));
        assert_eq!(spans[0].get("name").and_then(|p| p.as_str()), Some("a"));
    }
}
