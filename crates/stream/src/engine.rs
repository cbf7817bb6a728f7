//! The online diagnosis engine: merger → window → detect → predict → sinks.
//!
//! [`StreamEngine`] composes the watermarked [`crate::merger::StreamMerger`]
//! with the bounded [`crate::window::SlidingWindow`], the incremental
//! failure detector, the causal [`AlertRaiser`] and the batch evaluator's
//! own [`Scorer`], and drives pluggable [`AlertSink`]s. Feeding it a
//! finished archive and calling [`StreamEngine::finish`] reproduces the
//! batch pipeline's detected failures, alert set and score exactly
//! (`tests/equivalence.rs`).
//!
//! Events are processed in *equal-time cohorts*: all events of one
//! timestamp enter the sliding window before any of them is offered to the
//! predictor. That mirrors the batch external-backing query, whose upper
//! bound `t + 1ms` includes same-timestamp external correlates regardless
//! of merge order within the tick.

use std::sync::Arc;

use hpc_diagnosis::detection::{DetectedFailure, IncrementalDetector};
use hpc_diagnosis::prediction::{Alert, AlertRaiser, Scorer};
use hpc_diagnosis::windows::EXTERNAL_WINDOW;
use hpc_logs::event::{LogEvent, LogSource};
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::NodeId;
use hpc_telemetry::{Counter, Gauge, Histogram};

use crate::merger::{MergerStats, StreamMerger};
use crate::sink::AlertSink;
use crate::window::SlidingWindow;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Out-of-order admission bound of the merger: a source may lag the
    /// newest observed line by up to this much before its stragglers are
    /// dropped as late.
    pub watermark: SimDuration,
    /// Sliding-window retention. Clamped up to [`EXTERNAL_WINDOW`] at
    /// engine construction — a shorter window would silently turn backed
    /// alerts into unbacked ones.
    pub window: SimDuration,
    /// Gate alerts on a correlated external indicator
    /// ([`AlertRaiser::new`]).
    pub require_external: bool,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            watermark: SimDuration::from_mins(10),
            window: SimDuration::from_hours(6),
            require_external: false,
        }
    }
}

/// Point-in-time summary of the engine, for status lines and run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Raw lines fed in.
    pub lines: u64,
    /// Lines no parser recognised.
    pub skipped_lines: u64,
    /// Events released and processed in order.
    pub events: u64,
    /// Events dropped for arriving behind the release point.
    pub late_events: u64,
    /// Alerts raised.
    pub alerts: u64,
    /// Failures finalized.
    pub failures: u64,
    /// Failures with a live alert in the preceding horizon.
    pub predicted_failures: u64,
    /// Failures without one.
    pub missed_failures: u64,
    /// Alerts whose horizon passed with no failure of their node (live
    /// false positives, equal to the batch evaluator's).
    pub expired_alerts: u64,
    /// Events currently buffered in the merger awaiting release.
    pub merger_buffered: usize,
    /// Events currently retained in the sliding window.
    pub window_events: usize,
    /// High-water mark of retained window events.
    pub window_peak: usize,
    /// Cumulative window evictions.
    pub window_evicted: u64,
    /// How far the newest observed line runs ahead of the release point.
    pub watermark_lag: SimDuration,
}

/// The streaming diagnosis engine.
pub struct StreamEngine {
    config: StreamConfig,
    merger: StreamMerger,
    window: SlidingWindow,
    detector: IncrementalDetector,
    raiser: AlertRaiser,
    scorer: Scorer,
    sinks: Vec<Box<dyn AlertSink + Send>>,
    alerts: Vec<Alert>,
    failures: Vec<DetectedFailure>,
    leads: Vec<(NodeId, SimTime, SimDuration)>,
    released: Vec<LogEvent>,
    scratch_failures: Vec<DetectedFailure>,
    synced: MergerStats,
    stats: StreamStats,
    c_lines: Arc<Counter>,
    c_events: Arc<Counter>,
    c_late: Arc<Counter>,
    c_skipped: Arc<Counter>,
    c_alerts: Arc<Counter>,
    c_failures: Arc<Counter>,
    c_predicted: Arc<Counter>,
    c_missed: Arc<Counter>,
    c_expired: Arc<Counter>,
    g_watermark_lag: Arc<Gauge>,
    g_window_events: Arc<Gauge>,
    g_buffered: Arc<Gauge>,
    g_pending: Arc<Gauge>,
    g_open: Arc<Gauge>,
    h_lead_mins: Arc<Histogram>,
}

impl StreamEngine {
    /// New engine. The sliding window is clamped to at least
    /// [`EXTERNAL_WINDOW`].
    pub fn new(config: StreamConfig) -> StreamEngine {
        let mut config = config;
        config.window = config.window.max(EXTERNAL_WINDOW);
        StreamEngine {
            merger: StreamMerger::new(config.watermark),
            window: SlidingWindow::new(config.window),
            detector: IncrementalDetector::new(),
            raiser: AlertRaiser::new(config.require_external),
            scorer: Scorer::default(),
            sinks: Vec::new(),
            alerts: Vec::new(),
            failures: Vec::new(),
            leads: Vec::new(),
            released: Vec::new(),
            scratch_failures: Vec::new(),
            synced: MergerStats::default(),
            stats: StreamStats::default(),
            c_lines: hpc_telemetry::counter("stream.lines"),
            c_events: hpc_telemetry::counter("stream.events"),
            c_late: hpc_telemetry::counter("stream.late_events"),
            c_skipped: hpc_telemetry::counter("stream.skipped_lines"),
            c_alerts: hpc_telemetry::counter("stream.alerts"),
            c_failures: hpc_telemetry::counter("stream.failures"),
            c_predicted: hpc_telemetry::counter("stream.failures.predicted"),
            c_missed: hpc_telemetry::counter("stream.failures.missed"),
            c_expired: hpc_telemetry::counter("stream.alerts.expired"),
            g_watermark_lag: hpc_telemetry::gauge("stream.watermark_lag"),
            g_window_events: hpc_telemetry::gauge("stream.window.events"),
            g_buffered: hpc_telemetry::gauge("stream.merger.buffered"),
            g_pending: hpc_telemetry::gauge("stream.merger.pending"),
            g_open: hpc_telemetry::gauge("stream.detector.open"),
            h_lead_mins: hpc_telemetry::histogram("stream.lead_mins"),
            config,
        }
    }

    /// The configuration in force (after clamping).
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Attaches an alert sink.
    pub fn add_sink(&mut self, sink: Box<dyn AlertSink + Send>) {
        self.sinks.push(sink);
    }

    /// Feeds one raw log line from `source` and processes everything it
    /// settles. Returns `true` if the line was recognised.
    pub fn push_line(&mut self, source: LogSource, line: &str) -> bool {
        let ok = self.enqueue_line(source, line);
        self.release();
        ok
    }

    /// [`StreamEngine::push_line`] without the processing: a batch pushed
    /// this way costs one [`StreamEngine::release`], not one per line.
    pub fn enqueue_line(&mut self, source: LogSource, line: &str) -> bool {
        self.merger.push_line(source, line)
    }

    /// Ends the stream: drains the merger, finalizes open incidents and
    /// settles outstanding alerts. The failure list is then sorted by
    /// `(time, node)` — the batch order.
    pub fn finish(&mut self) {
        self.merger.finish();
        self.release();
        self.scratch_failures.clear();
        let mut done = std::mem::take(&mut self.scratch_failures);
        self.detector.finish(&mut done);
        for f in done.drain(..) {
            self.finalize_failure(f);
        }
        self.scratch_failures = done;
        // Every failure is in: each outstanding alert is a hit or a false
        // positive.
        let mut expired = 0;
        self.scorer.finish(|hit| expired += u64::from(!hit));
        self.stats.expired_alerts += expired;
        self.c_expired.add(expired);
        self.failures.sort_by_key(|f| (f.time, f.node));
        for sink in &mut self.sinks {
            sink.flush();
        }
        self.update_gauges();
    }

    /// Processes everything the merger can release, in equal-time cohorts.
    pub fn release(&mut self) {
        self.released.clear();
        let mut events = std::mem::take(&mut self.released);
        self.merger.poll(&mut events);
        let mut i = 0;
        while i < events.len() {
            let t = events[i].time;
            let mut j = i;
            while j < events.len() && events[j].time == t {
                j += 1;
            }
            // The whole cohort enters the window first: same-timestamp
            // external correlates must be visible to the predictor
            // (batch upper bound is `t + 1ms`).
            for e in &events[i..j] {
                self.window.insert(e);
            }
            for e in &events[i..j] {
                if let Some(f) = self.detector.push(e) {
                    self.finalize_failure(f);
                }
                let window = &self.window;
                let alert = self
                    .raiser
                    .offer(e, |node| window.backed_by_external(node, e.time));
                if let Some(a) = alert {
                    self.emit_alert(a);
                }
            }
            self.scratch_failures.clear();
            let mut done = std::mem::take(&mut self.scratch_failures);
            self.detector.advance(t, &mut done);
            for f in done.drain(..) {
                self.finalize_failure(f);
            }
            self.scratch_failures = done;
            self.window.advance(t);
            let mut expired = 0;
            self.scorer.expire(t, |hit| expired += u64::from(!hit));
            self.stats.expired_alerts += expired;
            self.c_expired.add(expired);
            i = j;
        }
        self.released = events;
        self.sync_merger_counters();
        self.update_gauges();
    }

    fn sync_merger_counters(&mut self) {
        let now = self.merger.stats();
        self.c_lines.add(now.lines - self.synced.lines);
        self.c_events.add(now.released - self.synced.released);
        self.c_late.add(now.late_events - self.synced.late_events);
        self.c_skipped
            .add(now.skipped_lines - self.synced.skipped_lines);
        self.synced = now;
        self.stats.lines = now.lines;
        self.stats.events = now.released;
        self.stats.late_events = now.late_events;
        self.stats.skipped_lines = now.skipped_lines;
    }

    fn update_gauges(&mut self) {
        self.stats.merger_buffered = self.merger.buffered();
        self.stats.window_events = self.window.retained_events();
        self.stats.window_peak = self.window.peak_retained();
        self.stats.window_evicted = self.window.evicted();
        self.stats.watermark_lag = self.merger.watermark_lag();
        self.g_watermark_lag
            .set(self.stats.watermark_lag.as_millis() as f64);
        self.g_window_events.set(self.stats.window_events as f64);
        self.g_buffered.set(self.stats.merger_buffered as f64);
        self.g_pending.set(self.merger.pending_reports() as f64);
        self.g_open.set(self.detector.open_incidents() as f64);
    }

    fn emit_alert(&mut self, alert: Alert) {
        self.stats.alerts += 1;
        self.c_alerts.inc();
        for sink in &mut self.sinks {
            sink.alert(&alert);
        }
        self.scorer.alert(&alert);
        self.alerts.push(alert);
    }

    fn finalize_failure(&mut self, failure: DetectedFailure) {
        let lead = self.scorer.failure(&failure);
        self.stats.failures += 1;
        self.c_failures.inc();
        match lead {
            Some(l) => {
                self.stats.predicted_failures += 1;
                self.c_predicted.inc();
                self.h_lead_mins.record(l.as_mins_f64() as u64);
                self.leads.push((failure.node, failure.time, l));
            }
            None => {
                self.stats.missed_failures += 1;
                self.c_missed.inc();
            }
        }
        for sink in &mut self.sinks {
            sink.failure(&failure, lead);
        }
        self.failures.push(failure);
    }

    /// Alerts raised so far, in raise order (chronological).
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Failures finalized so far. In finalization order until
    /// [`StreamEngine::finish`], which sorts them into the batch
    /// `(time, node)` order.
    pub fn failures(&self) -> &[DetectedFailure] {
        &self.failures
    }

    /// `(node, time, lead)` of every predicted failure, in finalization
    /// order.
    pub fn leads(&self) -> &[(NodeId, SimTime, SimDuration)] {
        &self.leads
    }

    /// Alerts not yet settled as a hit or a false positive.
    pub fn outstanding_alerts(&self) -> usize {
        self.scorer.outstanding()
    }

    /// Current counters and gauges.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// The live sliding window (hotness views).
    pub fn window(&self) -> &SlidingWindow {
        &self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_diagnosis::prediction::evaluate;
    use hpc_diagnosis::windows::FAILURE_HORIZON;
    use hpc_diagnosis::{Diagnosis, DiagnosisConfig};
    use hpc_logs::event::{ConsoleDetail, ControllerDetail, ControllerScope, PanicReason, Payload};
    use hpc_logs::render::render;
    use hpc_platform::system::SchedulerKind;

    fn feed(engine: &mut StreamEngine, e: &LogEvent) {
        for line in render(e, SchedulerKind::Slurm) {
            engine.push_line(e.source(), &line);
        }
    }

    fn stall(ms: u64, node: u32) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(node),
                detail: ConsoleDetail::CpuStall { cpu: 0 },
            },
        }
    }

    fn panic(ms: u64, node: u32) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(node),
                detail: ConsoleDetail::KernelPanic {
                    reason: PanicReason::FatalMce,
                },
            },
        }
    }

    fn nvf(ms: u64, node: u32) -> LogEvent {
        let node = NodeId(node);
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Controller {
                scope: ControllerScope::Blade(node.blade()),
                detail: ControllerDetail::NodeVoltageFault { node },
            },
        }
    }

    #[test]
    fn window_clamps_to_external_window() {
        let config = StreamConfig {
            window: SimDuration::from_mins(5),
            ..StreamConfig::default()
        };
        let engine = StreamEngine::new(config);
        assert_eq!(engine.config().window, EXTERNAL_WINDOW);
    }

    #[test]
    fn internal_only_engine_alerts_on_indicative_symptom() {
        let mut engine = StreamEngine::new(StreamConfig::default());
        feed(&mut engine, &stall(60_000, 3));
        engine.finish();
        assert_eq!(engine.alerts().len(), 1);
        assert_eq!(engine.alerts()[0].node, NodeId(3));
        assert!(!engine.alerts()[0].backed_by_external);
        let stats = engine.stats();
        assert_eq!(stats.alerts, 1);
        // No failure followed: the alert expires as a false positive.
        assert_eq!(stats.expired_alerts, 1);
        assert_eq!(stats.failures, 0);
    }

    #[test]
    fn external_gating_drops_unbacked_and_keeps_backed_alerts() {
        let config = StreamConfig {
            require_external: true,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::new(config);
        // Unbacked symptom on node 3's blade: gated out.
        feed(&mut engine, &stall(60_000, 3));
        // Strong external (NVF) on node 8: alerts by itself...
        feed(&mut engine, &nvf(120_000, 8));
        // ...and backs a subsequent symptom on the same node, but within
        // the debounce, so exactly one alert results.
        feed(&mut engine, &stall(180_000, 8));
        engine.finish();
        assert_eq!(engine.alerts().len(), 1);
        assert_eq!(engine.alerts()[0].node, NodeId(8));
        assert!(engine.alerts()[0].backed_by_external);
    }

    #[test]
    fn cohort_external_backing_is_inclusive_of_same_timestamp() {
        // The batch query upper bound `t + 1ms` admits an external
        // correlate carrying the same timestamp as the symptom, whatever
        // the merge order. The cohort-first window insert preserves that.
        let config = StreamConfig {
            require_external: true,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::new(config);
        // Same-millisecond symptom (console, source 0) and correlate
        // (controller, source 1): the symptom is offered first by merge
        // order, and must still see the correlate.
        let node = 5;
        feed(&mut engine, &stall(90_000, node));
        // NHF is a valid backer but not a strong-external trigger, so the
        // only possible alert is the backed internal one.
        let blade = NodeId(node).blade();
        feed(
            &mut engine,
            &LogEvent {
                time: SimTime::from_millis(90_000),
                payload: Payload::Controller {
                    scope: ControllerScope::Blade(blade),
                    detail: ControllerDetail::NodeHeartbeatFault { node: NodeId(node) },
                },
            },
        );
        engine.finish();
        assert_eq!(engine.alerts().len(), 1);
        assert!(engine.alerts()[0].backed_by_external);
    }

    #[test]
    fn stats_track_lines_events_and_window_state() {
        let mut engine = StreamEngine::new(StreamConfig::default());
        feed(&mut engine, &stall(1_000, 0));
        feed(&mut engine, &nvf(2_000, 0));
        engine.finish();
        let stats = engine.stats();
        assert_eq!(stats.events, 2);
        assert!(stats.lines >= 2);
        assert_eq!(stats.late_events, 0);
        assert_eq!(stats.window_peak, 2);
    }

    #[test]
    fn every_alert_the_failure_follows_within_the_horizon_is_a_hit() {
        // Two alerts on one node 2 h apart, then a panic 3 h after the
        // first: both alerts predicted it, and the lead runs from the first.
        let hour = SimDuration::from_hours(1).as_millis();
        let mut engine = StreamEngine::new(StreamConfig::default());
        for e in [stall(0, 3), stall(2 * hour, 3), panic(3 * hour, 3)] {
            feed(&mut engine, &e);
        }
        engine.finish();
        let stats = engine.stats();
        assert_eq!(stats.alerts, 2);
        assert_eq!(stats.expired_alerts, 0);
        assert_eq!(stats.predicted_failures, 1);
        assert_eq!(
            engine.leads(),
            &[(
                NodeId(3),
                SimTime::from_millis(3 * hour),
                SimDuration::from_hours(3)
            )]
        );
        assert_eq!(engine.outstanding_alerts(), 0);
    }

    #[test]
    fn horizon_end_is_inclusive_in_batch_and_live() {
        // A failure exactly FAILURE_HORIZON after the alert is a hit; one
        // millisecond later it is not — in the batch evaluator and live.
        let horizon = FAILURE_HORIZON.as_millis();
        for (gap, hit) in [(horizon, true), (horizon + 1, false)] {
            let events = vec![stall(60_000, 3), panic(60_000 + gap, 3)];
            let mut engine = StreamEngine::new(StreamConfig::default());
            for e in &events {
                feed(&mut engine, e);
            }
            engine.finish();
            let batch = evaluate(
                &Diagnosis::from_events(events, 0, DiagnosisConfig::default()),
                false,
            );
            assert_eq!(batch.hit, [hit], "gap {gap} ms");
            assert_eq!(batch.predicted_failures, usize::from(hit));
            let stats = engine.stats();
            assert_eq!(stats.failures, 1);
            assert_eq!(stats.predicted_failures, u64::from(hit), "gap {gap} ms");
            assert_eq!(stats.expired_alerts, u64::from(!hit), "gap {gap} ms");
        }
    }
}
