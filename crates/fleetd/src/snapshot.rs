//! Immutable per-system state snapshots and the lock-light hand-off slot.
//!
//! The serving contract of fleetd is that **readers never block ingest**:
//! a shard thread owns its `StreamEngine` exclusively and, whenever the
//! observable state changes, builds one immutable [`SystemSnapshot`] and
//! swaps it into its [`SnapshotSlot`]. HTTP workers clone the `Arc` out
//! of the slot — a mutex held for the duration of one pointer copy — and
//! then read entirely lock-free. A slow reader therefore costs the engine
//! nothing: it holds an old snapshot, not a lock.
//!
//! Snapshots carry a monotonically increasing `generation`, bumped only
//! when the observable state actually changed. The generation drives the
//! `/report` cache: the report text is rendered lazily, at most once per
//! snapshot (guarded by a `OnceLock` inside the immutable snapshot), and
//! the generation is the `ETag` a client echoes back in `If-None-Match`
//! to get a body-less `304 Not Modified`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use hpc_diagnosis::detection::{DetectedFailure, TerminalKind};
use hpc_diagnosis::prediction::Alert;
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::NodeId;
use hpc_stream::{FollowHealth, StreamEngine, StreamStats};
use hpc_telemetry::json::JsonValue;

/// Most recent alerts/failures retained per snapshot. The totals in
/// [`StreamStats`] are exact; the record lists are a bounded tail so a
/// months-long shard cannot grow a snapshot without bound.
pub const MAX_RECORDS: usize = 1024;

/// One captured alert, mirroring the `hpc-watch --alerts-jsonl` record.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRecord {
    /// Node the alert concerns.
    pub node: NodeId,
    /// When it was raised.
    pub time: SimTime,
    /// Whether an external correlate backed it.
    pub backed_by_external: bool,
}

/// One finalized failure, mirroring the `hpc-watch --alerts-jsonl` record.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// Node that failed.
    pub node: NodeId,
    /// When it failed.
    pub time: SimTime,
    /// Terminal event classification.
    pub terminal: TerminalKind,
    /// Achieved lead time when an outstanding alert predicted it.
    pub lead: Option<SimDuration>,
}

/// Sliding-window hotness summary — everything `/window` serves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowSummary {
    /// Events currently retained.
    pub retained: usize,
    /// High-water mark of retained events.
    pub peak: usize,
    /// Events evicted so far.
    pub evicted: u64,
    /// Distinct nodes with at least one symptom in the window.
    pub symptomatic_nodes: usize,
    /// Blade with the most windowed events, as (cname, count).
    pub hottest_blade: Option<(String, usize)>,
    /// Cabinet with the most windowed events, as (cname, count).
    pub hottest_cabinet: Option<(String, usize)>,
}

/// Immutable state of one system shard at one generation.
#[derive(Debug)]
pub struct SystemSnapshot {
    /// System name as configured (`S1`, …).
    pub system: String,
    /// Monotonic change counter; also the `/report` ETag.
    pub generation: u64,
    /// Whether the shard's feed has drained (replay complete / EOF).
    pub finished: bool,
    /// Engine counters at snapshot time.
    pub stats: StreamStats,
    /// Alerts raised but not yet resolved into failures.
    pub outstanding_alerts: usize,
    /// Most recent alerts (bounded tail; totals live in `stats`).
    pub alerts: Vec<AlertRecord>,
    /// Most recent finalized failures (bounded tail).
    pub failures: Vec<FailureRecord>,
    /// Sliding-window hotness.
    pub window: WindowSummary,
    /// Tailer health incl. the quarantined source set (follow mode only).
    pub follow: Option<FollowHealth>,
    /// Report text, rendered at most once per snapshot.
    report: OnceLock<String>,
}

impl SystemSnapshot {
    /// An empty generation-0 snapshot, published before the shard's first
    /// poll so the system is listable immediately.
    fn empty(system: &str) -> SystemSnapshot {
        SystemSnapshot {
            system: system.to_string(),
            generation: 0,
            finished: false,
            stats: StreamStats::default(),
            outstanding_alerts: 0,
            alerts: Vec::new(),
            failures: Vec::new(),
            window: WindowSummary::default(),
            follow: None,
            report: OnceLock::new(),
        }
    }

    /// Captures the observable state of `engine` as generation `generation`,
    /// annotating failures with their `(node, time, lead)` entry in `leads`.
    pub fn capture(
        system: &str,
        generation: u64,
        finished: bool,
        engine: &StreamEngine,
        follow: Option<FollowHealth>,
        leads: &[(NodeId, SimTime, SimDuration)],
    ) -> SystemSnapshot {
        let w = engine.window();
        let lead_of: HashMap<(NodeId, SimTime), SimDuration> =
            leads.iter().map(|&(n, t, l)| ((n, t), l)).collect();
        let alerts = engine
            .alerts()
            .iter()
            .rev()
            .take(MAX_RECORDS)
            .rev()
            .map(|a: &Alert| AlertRecord {
                node: a.node,
                time: a.time,
                backed_by_external: a.backed_by_external,
            })
            .collect();
        let failures = engine
            .failures()
            .iter()
            .rev()
            .take(MAX_RECORDS)
            .rev()
            .map(|f: &DetectedFailure| FailureRecord {
                node: f.node,
                time: f.time,
                terminal: f.terminal,
                lead: lead_of.get(&(f.node, f.time)).copied(),
            })
            .collect();
        SystemSnapshot {
            system: system.to_string(),
            generation,
            finished,
            stats: engine.stats(),
            outstanding_alerts: engine.outstanding_alerts(),
            alerts,
            failures,
            window: WindowSummary {
                retained: w.retained_events(),
                peak: w.peak_retained(),
                evicted: w.evicted(),
                symptomatic_nodes: w.symptomatic_nodes(),
                hottest_blade: w.hottest_blade().map(|(b, n)| (b.cname().to_string(), n)),
                hottest_cabinet: w.hottest_cabinet().map(|(c, n)| (c.cname().to_string(), n)),
            },
            follow,
            report: OnceLock::new(),
        }
    }

    /// The strong ETag of this snapshot's cached report.
    pub fn etag(&self) -> String {
        format!("\"{}-g{}\"", self.system, self.generation)
    }

    /// The plain-text report, rendered once per snapshot and cached.
    /// Concurrent readers race benignly: `OnceLock` keeps the first
    /// rendering, so the per-generation cost is one render no matter how
    /// many clients ask.
    pub fn report(&self) -> &str {
        self.report.get_or_init(|| {
            hpc_telemetry::counter("fleetd.report.renders").inc();
            render_report(self)
        })
    }

    /// Headline JSON for the `/v1/systems` listing.
    pub fn summary_json(&self) -> JsonValue {
        let n = |v: u64| JsonValue::Number(v as f64);
        JsonValue::Object(vec![
            ("system".to_string(), JsonValue::String(self.system.clone())),
            ("generation".to_string(), n(self.generation)),
            ("finished".to_string(), JsonValue::Bool(self.finished)),
            ("lines".to_string(), n(self.stats.lines)),
            ("events".to_string(), n(self.stats.events)),
            ("alerts".to_string(), n(self.stats.alerts)),
            (
                "alerts_outstanding".to_string(),
                n(self.outstanding_alerts as u64),
            ),
            ("failures".to_string(), n(self.stats.failures)),
            (
                "predicted_failures".to_string(),
                n(self.stats.predicted_failures),
            ),
        ])
    }

    /// Full window/merge state for `/v1/systems/{id}/window`.
    pub fn window_json(&self) -> JsonValue {
        let n = |v: u64| JsonValue::Number(v as f64);
        let hot = |h: &Option<(String, usize)>| match h {
            Some((name, count)) => JsonValue::Object(vec![
                ("cname".to_string(), JsonValue::String(name.clone())),
                ("events".to_string(), n(*count as u64)),
            ]),
            None => JsonValue::Null,
        };
        JsonValue::Object(vec![
            ("system".to_string(), JsonValue::String(self.system.clone())),
            ("generation".to_string(), n(self.generation)),
            ("window_events".to_string(), n(self.window.retained as u64)),
            ("window_peak".to_string(), n(self.window.peak as u64)),
            ("window_evicted".to_string(), n(self.window.evicted)),
            (
                "symptomatic_nodes".to_string(),
                n(self.window.symptomatic_nodes as u64),
            ),
            ("hottest_blade".to_string(), hot(&self.window.hottest_blade)),
            (
                "hottest_cabinet".to_string(),
                hot(&self.window.hottest_cabinet),
            ),
            (
                "watermark_lag_ms".to_string(),
                n(self.stats.watermark_lag.as_millis()),
            ),
            (
                "merger_buffered".to_string(),
                n(self.stats.merger_buffered as u64),
            ),
        ])
    }

    /// Alert list for `/v1/systems/{id}/alerts`, field-compatible with
    /// the `hpc-watch --alerts-jsonl` records.
    pub fn alerts_json(&self) -> JsonValue {
        let n = |v: u64| JsonValue::Number(v as f64);
        let records = self
            .alerts
            .iter()
            .map(|a| {
                JsonValue::Object(vec![
                    ("type".to_string(), JsonValue::String("alert".to_string())),
                    ("time".to_string(), JsonValue::String(a.time.to_string())),
                    ("time_ms".to_string(), n(a.time.as_millis())),
                    ("node".to_string(), n(a.node.0 as u64)),
                    (
                        "cname".to_string(),
                        JsonValue::String(a.node.cname().to_string()),
                    ),
                    (
                        "backed_by_external".to_string(),
                        JsonValue::Bool(a.backed_by_external),
                    ),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("system".to_string(), JsonValue::String(self.system.clone())),
            ("generation".to_string(), n(self.generation)),
            ("total".to_string(), n(self.stats.alerts)),
            ("outstanding".to_string(), n(self.outstanding_alerts as u64)),
            ("returned".to_string(), n(self.alerts.len() as u64)),
            ("alerts".to_string(), JsonValue::Array(records)),
        ])
    }

    /// Failure list for `/v1/systems/{id}/failures`, field-compatible
    /// with the `hpc-watch --alerts-jsonl` records.
    pub fn failures_json(&self) -> JsonValue {
        let n = |v: u64| JsonValue::Number(v as f64);
        let records = self
            .failures
            .iter()
            .map(|f| {
                JsonValue::Object(vec![
                    ("type".to_string(), JsonValue::String("failure".to_string())),
                    ("time".to_string(), JsonValue::String(f.time.to_string())),
                    ("time_ms".to_string(), n(f.time.as_millis())),
                    ("node".to_string(), n(f.node.0 as u64)),
                    (
                        "cname".to_string(),
                        JsonValue::String(f.node.cname().to_string()),
                    ),
                    (
                        "terminal".to_string(),
                        JsonValue::String(format!("{:?}", f.terminal)),
                    ),
                    ("predicted".to_string(), JsonValue::Bool(f.lead.is_some())),
                    (
                        "lead_mins".to_string(),
                        match f.lead {
                            Some(l) => JsonValue::Number(l.as_mins_f64()),
                            None => JsonValue::Null,
                        },
                    ),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("system".to_string(), JsonValue::String(self.system.clone())),
            ("generation".to_string(), n(self.generation)),
            ("total".to_string(), n(self.stats.failures)),
            ("returned".to_string(), n(self.failures.len() as u64)),
            ("failures".to_string(), JsonValue::Array(records)),
        ])
    }
}

/// Renders the cached `/report` body: live shard state in the style of
/// the batch report, closed by the paper's findings/recommendations table
/// (reused verbatim from the core report renderer).
fn render_report(s: &SystemSnapshot) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(4096);
    let _ = writeln!(
        out,
        "=== {} · live diagnosis (generation {}) ===",
        s.system, s.generation
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "-- stream --");
    let _ = writeln!(
        out,
        "lines {}  events {}  late {}  skipped {}",
        s.stats.lines, s.stats.events, s.stats.late_events, s.stats.skipped_lines
    );
    let _ = writeln!(
        out,
        "alerts {} ({} outstanding, {} expired)  failures {} ({} predicted, {} missed)",
        s.stats.alerts,
        s.outstanding_alerts,
        s.stats.expired_alerts,
        s.stats.failures,
        s.stats.predicted_failures,
        s.stats.missed_failures
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "-- window --");
    let _ = writeln!(
        out,
        "retained {} (peak {}, evicted {})  symptomatic nodes {}",
        s.window.retained, s.window.peak, s.window.evicted, s.window.symptomatic_nodes
    );
    if let Some((b, n)) = &s.window.hottest_blade {
        let _ = writeln!(out, "hottest blade   {b} ({n} events)");
    }
    if let Some((c, n)) = &s.window.hottest_cabinet {
        let _ = writeln!(out, "hottest cabinet {c} ({n} events)");
    }
    if let Some(f) = &s.follow {
        let _ = writeln!(out);
        let _ = writeln!(out, "-- follow --");
        let quarantined: Vec<&str> = f.quarantined_sources.iter().map(|q| q.key()).collect();
        let _ = writeln!(
            out,
            "io errors {}  rotations {}  quarantined {} [{}]  recoveries {}",
            f.stats.io_errors,
            f.stats.rotations,
            f.quarantined(),
            quarantined.join(", "),
            f.stats.recoveries
        );
    }
    if !s.failures.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "-- recent failures --");
        for f in s.failures.iter().rev().take(10) {
            let predicted = match f.lead {
                Some(l) => format!("predicted, lead {l}"),
                None => "unpredicted".to_string(),
            };
            let _ = writeln!(
                out,
                "{} {} {:?} ({predicted})",
                f.time,
                f.node.cname(),
                f.terminal
            );
        }
    }
    let _ = writeln!(out);
    out.push_str(&hpc_diagnosis::report::render_findings());
    out
}

/// The swap-on-publish hand-off cell between one shard and all readers.
///
/// Writers replace the `Arc`; readers clone it. The mutex guards only the
/// pointer swap/copy — never a render, never an allocation proportional
/// to state — so contention is bounded by pointer-copy time.
#[derive(Debug)]
pub struct SnapshotSlot {
    inner: Mutex<Arc<SystemSnapshot>>,
}

impl SnapshotSlot {
    /// A slot holding the empty generation-0 snapshot for `system`.
    pub fn new(system: &str) -> SnapshotSlot {
        SnapshotSlot {
            inner: Mutex::new(Arc::new(SystemSnapshot::empty(system))),
        }
    }

    /// Publishes `snapshot`, making it the one all future reads observe.
    pub fn publish(&self, snapshot: SystemSnapshot) {
        let arc = Arc::new(snapshot);
        *self.inner.lock().unwrap() = arc;
        hpc_telemetry::counter("fleetd.snapshot.published").inc();
    }

    /// The current snapshot. Cheap: one lock-guarded `Arc` clone.
    pub fn read(&self) -> Arc<SystemSnapshot> {
        self.inner.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_swaps_and_readers_keep_old_arcs() {
        let slot = SnapshotSlot::new("S1");
        let before = slot.read();
        assert_eq!(before.generation, 0);

        let mut next = SystemSnapshot::empty("S1");
        next.generation = 1;
        slot.publish(next);

        let after = slot.read();
        assert_eq!(after.generation, 1);
        // The old reader's view is unaffected by the publish.
        assert_eq!(before.generation, 0);
    }

    #[test]
    fn report_renders_once_per_snapshot_and_etag_tracks_generation() {
        let mut s = SystemSnapshot::empty("S2");
        s.generation = 7;
        assert_eq!(s.etag(), "\"S2-g7\"");
        let a = s.report().as_ptr();
        let b = s.report().as_ptr();
        assert_eq!(a, b, "second call must hit the cache");
        assert!(s.report().contains("generation 7"));
        assert!(s.report().contains("Findings"), "core findings reused");
    }
}
