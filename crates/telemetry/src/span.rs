//! RAII stage timers with nested tracing.
//!
//! A [`Span`] measures the wall time of one pipeline stage. On drop it
//! records the elapsed microseconds into the global histogram
//! `<stage>.time_us` and bumps the counter `<stage>.calls`, so every
//! instrumented stage automatically shows up in snapshots with call
//! count, total/mean time and a latency distribution.
//!
//! With tracing enabled (`HPC_TRACE=1` in the environment, `--verbose`
//! on the CLIs, or [`set_trace`]), spans additionally emit an
//! enter/exit trace, indented by nesting depth (tracked per thread):
//!
//! ```text
//! [trace] > core.from_archive
//! [trace]   > core.ingest.parse
//! [trace]     > core.ingest.parse.console
//! [trace]     < core.ingest.parse.console 41.2ms
//! [trace]   < core.ingest.parse 55.0ms
//! [trace] < core.from_archive 80.1ms
//! ```
//!
//! Independently of tracing, every span also feeds the *retained span
//! tree*: an aggregated profile keyed by the path of span names, with
//! per-node wall time and invocation counts ([`SpanNode`],
//! [`tree_snapshot`]). Nesting is tracked per thread — a span opened on a
//! worker thread roots its own subtree rather than attaching to whatever
//! the spawning thread had open. The tree is exported in snapshots
//! (`Snapshot::spans`) and rendered by
//! [`profile_table`](crate::recorder::profile_table).

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::registry;

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    /// Open span-tree nodes on this thread, innermost last. Entries carry
    /// the tree generation they were created under so frames that survive
    /// a [`reset_tree`] are ignored instead of resolving to wrong nodes.
    static STACK: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
}

/// One aggregated node of the retained span tree: a unique *path* of span
/// names (`core.from_dir` → `core.ingest.parse` → …), accumulated over
/// every invocation that ran under that path.
///
/// Nodes are addressed by index into the snapshot vector, which is in
/// pre-order (every parent index is smaller than its children's), so an
/// indented tree renders in one forward pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanNode {
    /// Span name (the string passed to [`Span::enter`]).
    pub name: String,
    /// Index of the parent node, or `None` for a root span.
    pub parent: Option<usize>,
    /// Total wall time of completed invocations, microseconds.
    pub wall_us: u64,
    /// Completed invocations.
    pub calls: u64,
}

struct TreeNode {
    name: String,
    parent: Option<usize>,
    children: Vec<usize>,
    wall_us: u64,
    calls: u64,
}

struct Tree {
    generation: u64,
    roots: Vec<usize>,
    nodes: Vec<TreeNode>,
}

static TREE: Mutex<Tree> = Mutex::new(Tree {
    generation: 0,
    roots: Vec::new(),
    nodes: Vec::new(),
});

impl Tree {
    /// Child of `parent` (or root) named `name`, created on first use.
    fn intern(&mut self, parent: Option<usize>, name: &str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&id) = siblings.iter().find(|&&c| self.nodes[c].name == name) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(TreeNode {
            name: name.to_string(),
            parent,
            children: Vec::new(),
            wall_us: 0,
            calls: 0,
        });
        match parent {
            Some(p) => self.nodes[p].children.push(id),
            None => self.roots.push(id),
        }
        id
    }
}

/// Pre-order copy of the retained span tree. Only *completed* invocations
/// are accumulated: a snapshot taken while a span is open reports the
/// wall time recorded so far (its finished children included), so renderers
/// must treat `wall - children` as saturating.
pub fn tree_snapshot() -> Vec<SpanNode> {
    let tree = TREE.lock().unwrap();
    let mut out = Vec::with_capacity(tree.nodes.len());
    let mut remap = vec![usize::MAX; tree.nodes.len()];
    // Iterative pre-order DFS; children were pushed in creation order and
    // a stack reverses, so queue them reversed to preserve it.
    let mut stack: Vec<usize> = tree.roots.iter().rev().copied().collect();
    while let Some(id) = stack.pop() {
        let node = &tree.nodes[id];
        remap[id] = out.len();
        out.push(SpanNode {
            name: node.name.clone(),
            parent: node.parent.map(|p| remap[p]),
            wall_us: node.wall_us,
            calls: node.calls,
        });
        stack.extend(node.children.iter().rev().copied());
    }
    out
}

/// Clears the retained span tree (paired with the registry reset; benches
/// and tests isolate runs with it). Spans still open keep timing but no
/// longer record into the cleared tree when they close.
pub fn reset_tree() {
    let mut tree = TREE.lock().unwrap();
    tree.generation += 1;
    tree.roots.clear();
    tree.nodes.clear();
}

/// Wall time attributed to the node itself: total minus completed
/// children, saturating (a snapshot can catch the parent still open).
pub fn self_us(nodes: &[SpanNode], index: usize) -> u64 {
    let children: u64 = nodes
        .iter()
        .filter(|n| n.parent == Some(index))
        .map(|n| n.wall_us)
        .sum();
    nodes[index].wall_us.saturating_sub(children)
}

// 0 = follow HPC_TRACE env (resolved lazily), 1 = forced off, 2 = forced on.
static TRACE_MODE: AtomicU8 = AtomicU8::new(0);

static TRACE_SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

/// Whether span tracing is currently enabled.
fn trace_enabled() -> bool {
    match TRACE_MODE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => std::env::var("HPC_TRACE").is_ok_and(|v| !v.is_empty() && v != "0"),
    }
}

/// Forces tracing on or off, overriding `HPC_TRACE`.
pub fn set_trace(enabled: bool) {
    TRACE_MODE.store(if enabled { 2 } else { 1 }, Ordering::Relaxed);
}

/// Redirects trace output (default: stderr). Pass `None` to restore
/// stderr. Used by tests to capture the trace.
pub fn set_trace_writer(writer: Option<Box<dyn Write + Send>>) {
    *TRACE_SINK.lock().unwrap() = writer;
}

fn trace_line(depth: usize, line: &str) {
    let mut sink = TRACE_SINK.lock().unwrap();
    let text = format!("[trace] {:indent$}{line}\n", "", indent = depth * 2);
    match sink.as_mut() {
        Some(w) => {
            let _ = w.write_all(text.as_bytes());
        }
        None => eprint!("{text}"),
    }
}

/// Renders microseconds human-readably (`412us`, `41.2ms`, `3.1s`).
pub fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.1}s", us as f64 / 1_000_000.0)
    }
}

/// An in-flight stage timer; see the module docs.
///
/// Created via [`Span::enter`] or the [`span!`](crate::span!) macro and
/// finished by `Drop` (or explicitly by [`Span::finish`] to get the
/// elapsed time).
#[derive(Debug)]
pub struct Span {
    name: String,
    start: Instant,
    depth: usize,
    /// `(generation, node id)` in the retained span tree.
    node: (u64, usize),
}

impl Span {
    /// Starts timing `name`, nesting under any span already open on this
    /// thread.
    pub fn enter(name: impl Into<String>) -> Span {
        let name = name.into();
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        if trace_enabled() {
            trace_line(depth, &format!("> {name}"));
        }
        let node = {
            let mut tree = TREE.lock().unwrap();
            let generation = tree.generation;
            let parent = STACK
                .with(|s| s.borrow().last().copied())
                .filter(|(g, _)| *g == generation)
                .map(|(_, id)| id);
            let id = tree.intern(parent, &name);
            (generation, id)
        };
        STACK.with(|s| s.borrow_mut().push(node));
        Span {
            name,
            start: Instant::now(),
            depth,
            node,
        }
    }

    /// Nesting depth of this span on its thread (0 = outermost).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Ends the span now and returns the elapsed microseconds.
    pub fn finish(self) -> u64 {
        let us = self.start.elapsed().as_micros() as u64;
        drop(self);
        us
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let us = self.start.elapsed().as_micros() as u64;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Spans drop LIFO per thread; tolerate an out-of-order drop by
            // removing our frame wherever it is.
            if stack.last() == Some(&self.node) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|f| *f == self.node) {
                stack.remove(pos);
            }
        });
        {
            let mut tree = TREE.lock().unwrap();
            let (generation, id) = self.node;
            if tree.generation == generation {
                tree.nodes[id].wall_us += us;
                tree.nodes[id].calls += 1;
            }
        }
        registry::histogram(&format!("{}.time_us", self.name)).record(us);
        registry::counter(&format!("{}.calls", self.name)).inc();
        if trace_enabled() {
            trace_line(self.depth, &format!("< {} {}", self.name, fmt_us(us)));
        }
    }
}

/// Opens a [`Span`] for the named stage; the span ends when the returned
/// guard goes out of scope.
///
/// ```
/// # fn merge() {}
/// let _span = hpc_telemetry::span!("core.ingest.merge");
/// merge();
/// // dropping records core.ingest.merge.time_us / .calls
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::Span::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_us_scales() {
        assert_eq!(fmt_us(7), "7us");
        assert_eq!(fmt_us(1_500), "1.5ms");
        assert_eq!(fmt_us(2_500_000), "2.5s");
    }

    #[test]
    fn span_records_histogram_and_calls() {
        {
            let _s = Span::enter("test.span.records");
        }
        let snap = registry::snapshot();
        assert_eq!(snap.counter("test.span.records.calls"), Some(1));
        assert_eq!(
            snap.histogram("test.span.records.time_us").unwrap().count,
            1
        );
    }

    /// Serialises the tree tests: they reset the shared global tree, which
    /// must not interleave (other tests only append uniquely-named nodes,
    /// which the prefix filters below ignore).
    fn tree_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn tree_retains_nested_paths_with_calls_and_wall() {
        let _guard = tree_test_lock();
        reset_tree();
        {
            let _a = Span::enter("test.tree.outer");
            {
                let _b = Span::enter("test.tree.inner");
            }
            {
                let _b = Span::enter("test.tree.inner");
            }
        }
        // The same name at root level is a *different* node than nested.
        {
            let _c = Span::enter("test.tree.inner");
        }
        let nodes = tree_snapshot();
        let outer = nodes
            .iter()
            .position(|n| n.name == "test.tree.outer")
            .unwrap();
        assert_eq!(nodes[outer].parent, None);
        assert_eq!(nodes[outer].calls, 1);
        let inner: Vec<(usize, &SpanNode)> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.name == "test.tree.inner")
            .collect();
        assert_eq!(inner.len(), 2, "{nodes:?}");
        let (_, nested) = inner.iter().find(|(_, n)| n.parent == Some(outer)).unwrap();
        assert_eq!(nested.calls, 2);
        let (_, root) = inner.iter().find(|(_, n)| n.parent.is_none()).unwrap();
        assert_eq!(root.calls, 1);
        // Parent wall covers its children; self time never underflows.
        assert!(nodes[outer].wall_us >= nested.wall_us);
        assert_eq!(
            self_us(&nodes, outer),
            nodes[outer].wall_us - nested.wall_us
        );
    }

    #[test]
    fn snapshot_is_preorder_parents_before_children() {
        let _guard = tree_test_lock();
        reset_tree();
        {
            let _a = Span::enter("test.preorder.a");
            let _b = Span::enter("test.preorder.b");
            let _c = Span::enter("test.preorder.c");
        }
        let nodes = tree_snapshot();
        for (i, n) in nodes.iter().enumerate() {
            if let Some(p) = n.parent {
                assert!(p < i, "parent {p} not before child {i}: {nodes:?}");
            }
        }
    }

    #[test]
    fn stale_frames_after_reset_are_ignored() {
        let _guard = tree_test_lock();
        reset_tree();
        let a = Span::enter("test.stale.a");
        reset_tree();
        // The open span's frame belongs to the old generation: closing it
        // must not index into (or repopulate) the cleared tree.
        let b = Span::enter("test.stale.b");
        drop(b);
        drop(a);
        let nodes = tree_snapshot();
        assert!(nodes.iter().all(|n| n.name != "test.stale.a"), "{nodes:?}");
        let b = nodes.iter().find(|n| n.name == "test.stale.b").unwrap();
        assert_eq!(b.parent, None, "stale parent frame must not adopt");
    }

    #[test]
    fn depth_nests_per_thread() {
        let a = Span::enter("test.depth.a");
        assert_eq!(a.depth(), 0);
        let b = Span::enter("test.depth.b");
        assert_eq!(b.depth(), 1);
        drop(b);
        let c = Span::enter("test.depth.c");
        assert_eq!(c.depth(), 1);
        drop(c);
        drop(a);
        let d = Span::enter("test.depth.d");
        assert_eq!(d.depth(), 0);
    }
}
