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
//! when the observable state actually changed. Every body a snapshot
//! serves — the summary, `/window`, `/alerts`, `/failures` and `/report` —
//! is a pure function of it, so each is rendered lazily, at most once per
//! snapshot (one `OnceLock` per `Body` inside the immutable snapshot),
//! and handed out as shared bytes: a repeat read costs a refcount. The
//! generation is the `ETag` of every one of those bodies, which a client
//! echoes back in `If-None-Match` to get a body-less `304 Not Modified`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use hpc_diagnosis::detection::DetectedFailure;
use hpc_diagnosis::prediction::Alert;
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::NodeId;
use hpc_stream::sink::{alert_json, failure_json, failure_text};
use hpc_stream::{FollowHealth, StreamEngine, StreamStats};
use hpc_telemetry::json::JsonValue;

use crate::http::{JSON, TEXT};

/// Most recent alerts/failures retained per snapshot. The totals in
/// [`StreamStats`] are exact; the record lists are a bounded tail so a
/// months-long shard cannot grow a snapshot without bound.
pub const MAX_RECORDS: usize = 1024;

/// Sliding-window hotness. The window's counters (retained, peak,
/// evicted) are already in [`StreamStats`], which `/window` reads too.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowSummary {
    /// Distinct nodes with at least one symptom in the window.
    pub symptomatic_nodes: usize,
    /// Blade with the most windowed events, as (cname, count).
    pub hottest_blade: Option<(String, usize)>,
    /// Cabinet with the most windowed events, as (cname, count).
    pub hottest_cabinet: Option<(String, usize)>,
}

/// The bodies a snapshot serves, each rendered at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Body {
    /// `/v1/systems/{id}`, and its entry in the `/v1/systems` listing.
    Summary,
    /// `/v1/systems/{id}/window`.
    Window,
    /// `/v1/systems/{id}/alerts`.
    Alerts,
    /// `/v1/systems/{id}/failures`.
    Failures,
    /// `/v1/systems/{id}/report`, plain text.
    Report,
}

impl Body {
    /// Every body, in cache-slot order.
    const ALL: [Body; 5] = [
        Body::Summary,
        Body::Window,
        Body::Alerts,
        Body::Failures,
        Body::Report,
    ];

    /// `Content-Type` of the rendered body.
    pub(crate) fn content_type(self) -> &'static str {
        match self {
            Body::Report => TEXT,
            _ => JSON,
        }
    }
}

/// Immutable state of one system shard at one generation.
#[derive(Debug)]
pub struct SystemSnapshot {
    /// System name as configured (`S1`, …).
    pub system: String,
    /// Monotonic change counter; also the ETag of every body.
    pub generation: u64,
    /// Whether the shard's feed has drained (replay complete / EOF).
    pub finished: bool,
    /// Engine counters at snapshot time.
    pub stats: StreamStats,
    /// Alerts raised but not yet resolved into failures.
    pub outstanding_alerts: usize,
    /// Most recent alerts (bounded tail; totals live in `stats`).
    pub alerts: Vec<Alert>,
    /// Most recent finalized failures with their lead when an alert
    /// predicted them (bounded tail).
    pub failures: Vec<(DetectedFailure, Option<SimDuration>)>,
    /// Sliding-window hotness.
    pub window: WindowSummary,
    /// Tailer health incl. the quarantined source set (follow mode only).
    pub follow: Option<FollowHealth>,
    /// Each [`Body`], rendered at most once per snapshot.
    bodies: [OnceLock<Arc<str>>; Body::ALL.len()],
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
            bodies: Default::default(),
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
        let failures = tail(engine.failures())
            .iter()
            .map(|f| (*f, lead_of.get(&(f.node, f.time)).copied()))
            .collect();
        SystemSnapshot {
            system: system.to_string(),
            generation,
            finished,
            stats: engine.stats(),
            outstanding_alerts: engine.outstanding_alerts(),
            alerts: tail(engine.alerts()).to_vec(),
            failures,
            window: WindowSummary {
                symptomatic_nodes: w.symptomatic_nodes(),
                hottest_blade: w.hottest_blade().map(|(b, n)| (b.cname().to_string(), n)),
                hottest_cabinet: w.hottest_cabinet().map(|(c, n)| (c.cname().to_string(), n)),
            },
            follow,
            bodies: Default::default(),
        }
    }

    /// The strong ETag of every body of this snapshot.
    pub fn etag(&self) -> String {
        format!("\"{}-g{}\"", self.system, self.generation)
    }

    /// The plain-text report, rendered once per snapshot and cached.
    pub fn report(&self) -> &str {
        self.rendered(Body::Report)
    }

    /// `body`'s bytes, shared: rendered on the first call, a refcount on
    /// every later one.
    pub(crate) fn body(&self, body: Body) -> Arc<[u8]> {
        Arc::clone(self.rendered(body)).into()
    }

    /// `OnceLock` runs the renderer once while concurrent first readers
    /// wait for it, so the per-generation cost is one render per body no
    /// matter how many clients ask.
    fn rendered(&self, body: Body) -> &Arc<str> {
        self.bodies[body as usize].get_or_init(|| {
            hpc_telemetry::counter("fleetd.snapshot.renders").inc();
            let text = match body {
                Body::Summary => self.summary_json().to_string(),
                Body::Window => self.window_json().to_string(),
                Body::Alerts => self.alerts_json().to_string(),
                Body::Failures => self.failures_json().to_string(),
                Body::Report => render_report(self),
            };
            text.into()
        })
    }

    /// Headline JSON for the `/v1/systems` listing.
    fn summary_json(&self) -> JsonValue {
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
    fn window_json(&self) -> JsonValue {
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
            (
                "window_events".to_string(),
                n(self.stats.window_events as u64),
            ),
            ("window_peak".to_string(), n(self.stats.window_peak as u64)),
            ("window_evicted".to_string(), n(self.stats.window_evicted)),
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

    /// Alert list for `/v1/systems/{id}/alerts`: each record is
    /// [`alert_json`], the same bytes as its `hpc-watch --alerts-jsonl`
    /// line.
    fn alerts_json(&self) -> JsonValue {
        let n = |v: u64| JsonValue::Number(v as f64);
        let records = self.alerts.iter().map(alert_json).collect();
        JsonValue::Object(vec![
            ("system".to_string(), JsonValue::String(self.system.clone())),
            ("generation".to_string(), n(self.generation)),
            ("total".to_string(), n(self.stats.alerts)),
            ("outstanding".to_string(), n(self.outstanding_alerts as u64)),
            ("returned".to_string(), n(self.alerts.len() as u64)),
            ("alerts".to_string(), JsonValue::Array(records)),
        ])
    }

    /// Failure list for `/v1/systems/{id}/failures`: each record is
    /// [`failure_json`], the same bytes as its `hpc-watch --alerts-jsonl`
    /// line.
    fn failures_json(&self) -> JsonValue {
        let n = |v: u64| JsonValue::Number(v as f64);
        let records = self
            .failures
            .iter()
            .map(|(f, lead)| failure_json(f, *lead))
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
        s.stats.window_events,
        s.stats.window_peak,
        s.stats.window_evicted,
        s.window.symptomatic_nodes
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
        for (f, lead) in s.failures.iter().rev().take(10) {
            let _ = writeln!(out, "{} {}", f.time, failure_text(f, *lead));
        }
    }
    let _ = writeln!(out);
    out.push_str(&hpc_diagnosis::report::render_findings());
    out
}

/// The last [`MAX_RECORDS`] of `all`.
fn tail<T>(all: &[T]) -> &[T] {
    &all[all.len().saturating_sub(MAX_RECORDS)..]
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
    use hpc_diagnosis::detection::TerminalKind;

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

    /// A snapshot with every optional section present: alerts both
    /// backed and not, failures with and without a lead, both hottest
    /// locations and a follow section.
    fn populated() -> SystemSnapshot {
        let mut s = SystemSnapshot::empty("S3");
        s.generation = 12;
        s.finished = true;
        s.stats.lines = 40_000;
        s.stats.events = 31_250;
        s.stats.alerts = 3;
        s.stats.failures = 2;
        s.stats.predicted_failures = 1;
        s.stats.watermark_lag = SimDuration::from_millis(61_500);
        s.outstanding_alerts = 1;
        s.stats.window_events = 420;
        s.stats.window_peak = 900;
        s.stats.window_evicted = 7;
        s.alerts = vec![
            Alert {
                node: NodeId(5),
                time: SimTime::from_millis(3_600_123),
                backed_by_external: true,
            },
            Alert {
                node: NodeId(130),
                time: SimTime::from_millis(7_200_000),
                backed_by_external: false,
            },
        ];
        s.failures = vec![
            (
                DetectedFailure {
                    node: NodeId(5),
                    time: SimTime::from_millis(4_000_500),
                    terminal: TerminalKind::AdminDown,
                },
                Some(SimDuration::from_millis(400_377)),
            ),
            (
                DetectedFailure {
                    node: NodeId(77),
                    time: SimTime::from_millis(9_000_000),
                    terminal: TerminalKind::UnexpectedShutdown,
                },
                None,
            ),
        ];
        s.window = WindowSummary {
            symptomatic_nodes: 3,
            hottest_blade: Some(("c0-0c0s1".to_string(), 12)),
            hottest_cabinet: Some(("c0-0".to_string(), 30)),
        };
        s.follow = Some(FollowHealth {
            stats: Default::default(),
            quarantined_sources: vec![hpc_logs::event::LogSource::Erd],
        });
        s
    }

    #[test]
    fn every_body_renders_once_and_equals_its_renderer() {
        for s in [SystemSnapshot::empty("S2"), populated()] {
            for body in Body::ALL {
                let expected = match body {
                    Body::Summary => s.summary_json().to_string(),
                    Body::Window => s.window_json().to_string(),
                    Body::Alerts => s.alerts_json().to_string(),
                    Body::Failures => s.failures_json().to_string(),
                    Body::Report => render_report(&s),
                };
                let first = s.body(body);
                assert!(
                    Arc::ptr_eq(&first, &s.body(body)),
                    "{body:?}: second call must hit the cache"
                );
                assert_eq!(
                    std::str::from_utf8(&first).unwrap(),
                    expected,
                    "{} {body:?}",
                    s.system
                );
            }
            assert_eq!(s.report().as_ptr(), s.body(Body::Report).as_ptr());
        }
    }

    #[test]
    fn etag_tracks_generation_and_report_reuses_core_findings() {
        let s = populated();
        assert_eq!(s.etag(), "\"S3-g12\"");
        assert!(s.report().contains("generation 12"));
        assert!(s.report().contains("Findings"), "core findings reused");
    }
}
