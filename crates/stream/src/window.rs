//! Sliding-window state: the O(window) replacement for the batch
//! pipeline's full-history event indexes.
//!
//! The batch [`hpc_diagnosis::Diagnosis`] owns an
//! [`hpc_diagnosis::EventStore`] that keeps every event in memory and
//! builds per-class / per-entity posting lists over all of them. A monitor
//! that runs for months cannot: the [`SlidingWindow`] retains only what the
//! online predictor and the hotness views actually consult —
//!
//! * per-node timestamps of *fault-indicative internal* symptoms,
//! * per-blade external (controller/ERD) events, cloned whole so
//!   [`is_external_indicator`] can be applied against a probe,
//! * per-cabinet external timestamps (hotness only),
//!
//! and evicts everything older than the configured window on
//! [`SlidingWindow::advance`]. The state is backed by the *same*
//! [`EntityIndex`]/[`Postings`] types as the batch store — their
//! [`VecDeque`](std::collections::VecDeque) columns binary-search time
//! ranges for the batch side and pop the front in O(1) for this side —
//! so a lookback query here and a `*_between` query there run the same
//! code. Memory is proportional to event density × window length,
//! independent of stream lifetime.

use hpc_diagnosis::detection::{DetectedFailure, TerminalKind};
use hpc_diagnosis::lead_time::{is_external_indicator, is_indicative_internal};
use hpc_diagnosis::windows::EXTERNAL_WINDOW;
use hpc_diagnosis::{EntityIndex, Postings};
use hpc_logs::event::{ControllerScope, LogEvent, Payload};
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::{BladeId, CabinetId, NodeId};

/// Bounded retained state over the trailing `window` of the stream.
#[derive(Debug)]
pub struct SlidingWindow {
    window: SimDuration,
    node_indicators: EntityIndex<NodeId, ()>,
    blade_external: EntityIndex<BladeId, LogEvent>,
    cabinet_external: EntityIndex<CabinetId, ()>,
    retained: usize,
    peak_retained: usize,
    evicted: u64,
}

impl SlidingWindow {
    /// New window retaining the trailing `window` of relevant events.
    pub fn new(window: SimDuration) -> SlidingWindow {
        SlidingWindow {
            window,
            node_indicators: EntityIndex::new(),
            blade_external: EntityIndex::new(),
            cabinet_external: EntityIndex::new(),
            retained: 0,
            peak_retained: 0,
            evicted: 0,
        }
    }

    /// Inserts one event, retaining it only if some online consumer can
    /// later ask about it. Events must arrive in release order.
    pub fn insert(&mut self, event: &LogEvent) {
        match &event.payload {
            Payload::Console { node, .. } => {
                if is_indicative_internal(event) {
                    self.node_indicators.push(*node, event.time, ());
                    self.retained += 1;
                }
            }
            Payload::Controller { scope, .. } | Payload::Erd { scope, .. } => match scope {
                // Same attribution as the batch indexes: blade-scoped
                // events under their blade, cabinet-scoped under their
                // cabinet.
                ControllerScope::Blade(_) => {
                    if let Some(blade) = event.subject_blade() {
                        self.blade_external.push(blade, event.time, event.clone());
                        self.retained += 1;
                    }
                }
                ControllerScope::Cabinet(c) => {
                    self.cabinet_external.push(*c, event.time, ());
                    self.retained += 1;
                }
            },
            Payload::Scheduler { .. } => {}
        }
        self.peak_retained = self.peak_retained.max(self.retained);
    }

    /// Whether `node`'s blade logged an external indicator within
    /// `[at − EXTERNAL_WINDOW, at]` — the sliding-window equivalent of the
    /// batch `blade_external_between(blade, at − window, at + 1ms)` +
    /// [`is_external_indicator`] query, down to sharing the posting-list
    /// range search. Requires [`EXTERNAL_WINDOW`] ≤ the window length
    /// (enforced by the engine's config clamp), else evicted events would
    /// silently widen the answer to "no".
    pub fn backed_by_external(&self, node: NodeId, at: SimTime) -> bool {
        debug_assert!(
            EXTERNAL_WINDOW <= self.window,
            "external window exceeds retention {:?}",
            self.window
        );
        let probe = DetectedFailure {
            node,
            time: at,
            terminal: TerminalKind::SchedulerDown,
        };
        let from = at.saturating_sub(EXTERNAL_WINDOW);
        self.blade_external
            .range(&node.blade(), from, at + SimDuration::from_millis(1))
            .any(|e| is_external_indicator(e, &probe))
    }

    /// Evicts everything older than `now − window`.
    pub fn advance(&mut self, now: SimTime) {
        let cutoff = now.saturating_sub(self.window);
        let dropped = self.node_indicators.evict_before(cutoff)
            + self.blade_external.evict_before(cutoff)
            + self.cabinet_external.evict_before(cutoff);
        self.retained -= dropped;
        self.evicted += dropped as u64;
    }

    /// Events currently retained — the `stream.window.events` gauge.
    pub fn retained_events(&self) -> usize {
        self.retained
    }

    /// High-water mark of retained events.
    pub fn peak_retained(&self) -> usize {
        self.peak_retained
    }

    /// Cumulative evicted events.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Nodes with at least one retained indicative symptom.
    pub fn symptomatic_nodes(&self) -> usize {
        self.node_indicators.len()
    }

    /// The blade with the most retained external events right now, if any —
    /// the live analogue of the batch faulty-blade ranking.
    pub fn hottest_blade(&self) -> Option<(BladeId, usize)> {
        Self::hottest(&self.blade_external)
    }

    /// The cabinet with the most retained external events right now.
    pub fn hottest_cabinet(&self) -> Option<(CabinetId, usize)> {
        Self::hottest(&self.cabinet_external)
    }

    fn hottest<K: Ord + Copy + std::hash::Hash, V>(
        index: &EntityIndex<K, V>,
    ) -> Option<(K, usize)> {
        index
            .iter()
            .map(|(k, p): (&K, &Postings<V>)| (*k, p.len()))
            .max_by_key(|&(k, n)| (n, std::cmp::Reverse(k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_logs::event::{ConsoleDetail, ControllerDetail};

    fn stall(ms: u64, node: u32) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(node),
                detail: ConsoleDetail::CpuStall { cpu: 0 },
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
    fn backed_by_external_matches_lookback_bounds() {
        let mut w = SlidingWindow::new(SimDuration::from_hours(6));
        let lb = EXTERNAL_WINDOW;
        w.insert(&nvf(1_000, 4));
        let node = NodeId(4);
        // In range (inclusive of `at` and of `at - lookback`).
        assert!(w.backed_by_external(node, SimTime::from_millis(1_000)));
        assert!(w.backed_by_external(node, SimTime::from_millis(1_000) + lb));
        // Out of range: before the correlate, or past the lookback.
        assert!(!w.backed_by_external(node, SimTime::from_millis(999)));
        assert!(!w.backed_by_external(node, SimTime::from_millis(1_001) + lb));
        // A different blade sees nothing. Nodes 0..=3 share blade 0 with
        // nobody relevant — pick a node on another blade.
        let other = NodeId(64);
        assert_ne!(other.blade(), node.blade());
        assert!(!w.backed_by_external(other, SimTime::from_millis(1_000)));
    }

    #[test]
    fn advance_evicts_only_past_the_window() {
        let mut w = SlidingWindow::new(SimDuration::from_hours(1));
        w.insert(&stall(0, 1));
        w.insert(&nvf(0, 1));
        w.insert(&stall(10_000, 2));
        assert_eq!(w.retained_events(), 3);
        // Exactly window-old events survive (cutoff is exclusive).
        w.advance(SimTime::from_millis(0) + SimDuration::from_hours(1));
        assert_eq!(w.retained_events(), 3);
        assert_eq!(w.evicted(), 0);
        w.advance(SimTime::from_millis(1) + SimDuration::from_hours(1));
        assert_eq!(w.retained_events(), 1);
        assert_eq!(w.evicted(), 2);
        assert_eq!(w.peak_retained(), 3);
        assert_eq!(w.symptomatic_nodes(), 1);
    }

    #[test]
    fn hotness_tracks_retained_density() {
        let mut w = SlidingWindow::new(SimDuration::from_hours(6));
        w.insert(&nvf(1_000, 0));
        w.insert(&nvf(2_000, 0));
        w.insert(&nvf(3_000, 64));
        let (blade, n) = w.hottest_blade().unwrap();
        assert_eq!(blade, NodeId(0).blade());
        assert_eq!(n, 2);
        w.advance(SimTime::from_millis(2_001) + SimDuration::from_hours(6));
        let (blade, n) = w.hottest_blade().unwrap();
        assert_eq!(blade, NodeId(64).blade());
        assert_eq!(n, 1);
    }
}
