//! Failure detection: finding manifested node failures in parsed logs.
//!
//! Step 1 of the paper's methodology (§II-A): "We track confirmed failure
//! indications in the node-specific logs." The confirmed terminal
//! signatures are:
//!
//! * a kernel panic in the console log,
//! * an abrupt `unexpectedly shut down` console message,
//! * the scheduler marking a node `admindown` (NHC) or `down`.
//!
//! Intended shutdowns (`reboot: System halted`) are recognised and excluded
//! (§III: "We recognize and exclude intended shutdowns"), and multiple
//! terminal signatures of one incident (a panic followed by the scheduler's
//! `down` notice) are deduplicated into a single failure.

use hpc_logs::event::{ConsoleDetail, LogEvent, NodeState, PanicReason, Payload, SchedulerDetail};
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::NodeId;

use crate::store::EventClass;

/// How a failure manifested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalKind {
    /// Kernel panic with its reason string.
    Panic(PanicReason),
    /// Abrupt shutdown with no panic.
    UnexpectedShutdown,
    /// NHC took the node to admindown.
    AdminDown,
    /// Scheduler marked the node down (crash noticed via heartbeats) with
    /// no earlier console terminal — rare, usually deduplicated away.
    SchedulerDown,
}

/// One detected node failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectedFailure {
    /// The failed node.
    pub node: NodeId,
    /// Manifestation time (earliest terminal signature of the incident).
    pub time: SimTime,
    /// How it manifested.
    pub terminal: TerminalKind,
}

/// The classes a terminal signature can come from: every event
/// `terminal_of` answers for is of one of these, so detection over
/// [`EventStore::classes_events`](crate::store::EventStore::classes_events)
/// of them sees exactly what detection over all events sees.
pub const TERMINAL_CLASSES: &[EventClass] = &[
    EventClass::KernelPanic,
    EventClass::UnexpectedShutdown,
    EventClass::NodeStateChange,
];

/// Terminal signatures of one event, if any.
fn terminal_of(event: &LogEvent) -> Option<(NodeId, TerminalKind)> {
    match &event.payload {
        Payload::Console { node, detail } => match detail {
            ConsoleDetail::KernelPanic { reason } => Some((*node, TerminalKind::Panic(*reason))),
            ConsoleDetail::UnexpectedShutdown => Some((*node, TerminalKind::UnexpectedShutdown)),
            // GracefulShutdown is intended — excluded by design.
            _ => None,
        },
        Payload::Scheduler {
            detail: SchedulerDetail::NodeStateChange { node, state },
        } => match state {
            NodeState::AdminDown => Some((*node, TerminalKind::AdminDown)),
            NodeState::Down => Some((*node, TerminalKind::SchedulerDown)),
            _ => None,
        },
        Payload::Scheduler { .. } => None,
        _ => None,
    }
}

/// Two terminal signatures on the same node within this window describe the
/// same incident (a panic is followed by the scheduler's down notice about
/// a minute later).
pub const DEDUP_WINDOW: SimDuration = SimDuration::from_mins(10);

/// Incremental failure detector: the streaming core of
/// [`detect_failures`], usable one event at a time.
///
/// Dedup state is one *open incident* per node. A terminal signature within
/// [`DEDUP_WINDOW`] of the node's open incident folds into it (with the
/// `SchedulerDown` upgrade rule); a later signature finalises the open
/// incident and starts a new one. An open incident becomes immutable — and
/// safe to emit — once the stream clock passes its time by more than
/// [`DEDUP_WINDOW`]; [`IncrementalDetector::advance`] performs that
/// finalisation so a live monitor can report failures with bounded delay
/// and bounded memory (at most one open incident per node).
#[derive(Debug, Default)]
pub struct IncrementalDetector {
    open: std::collections::HashMap<NodeId, DetectedFailure>,
}

impl IncrementalDetector {
    /// Fresh detector with no open incidents.
    pub fn new() -> IncrementalDetector {
        IncrementalDetector::default()
    }

    /// Feeds the next chronological event. If it starts a new incident on a
    /// node that already had an open one, the superseded (now final)
    /// incident is returned.
    pub fn push(&mut self, event: &LogEvent) -> Option<DetectedFailure> {
        let (node, terminal) = terminal_of(event)?;
        if let Some(open) = self.open.get_mut(&node) {
            if event.time.since(open.time) <= DEDUP_WINDOW {
                // Same incident: upgrade a bare scheduler-down to the more
                // specific signature if it arrives late (defensive; the
                // usual order is panic first).
                if open.terminal == TerminalKind::SchedulerDown
                    && terminal != TerminalKind::SchedulerDown
                {
                    open.terminal = terminal;
                }
                return None;
            }
        }
        self.open.insert(
            node,
            DetectedFailure {
                node,
                time: event.time,
                terminal,
            },
        )
    }

    /// Finalises every open incident the stream clock has moved past
    /// (`now - incident.time > DEDUP_WINDOW`), appending them to `out` in
    /// (time, node) order.
    pub fn advance(&mut self, now: SimTime, out: &mut Vec<DetectedFailure>) {
        if self.open.is_empty() {
            return;
        }
        let start = out.len();
        self.open.retain(|_, f| {
            if now.since(f.time) > DEDUP_WINDOW {
                out.push(*f);
                false
            } else {
                true
            }
        });
        out[start..].sort_by_key(|f| (f.time, f.node));
    }

    /// Finalises all remaining open incidents (end of stream), appending
    /// them to `out` in (time, node) order.
    pub fn finish(&mut self, out: &mut Vec<DetectedFailure>) {
        let start = out.len();
        out.extend(self.open.drain().map(|(_, f)| f));
        out[start..].sort_by_key(|f| (f.time, f.node));
    }

    /// Open (not yet finalised) incidents.
    pub fn open_incidents(&self) -> usize {
        self.open.len()
    }
}

/// Detects failures in a chronological event stream — all events, or any
/// chronological subset that keeps every [`TERMINAL_CLASSES`] event.
///
/// Console terminals are preferred over the scheduler's `down` echo: within
/// [`DEDUP_WINDOW`] of an incident's first signature, later signatures are
/// folded into it, except that a `SchedulerDown`-first incident upgrades to
/// a more specific terminal if one arrives inside the window (out-of-order
/// manifestation does not occur in practice since crash detection lags the
/// crash).
pub fn detect_failures<'a>(events: impl IntoIterator<Item = &'a LogEvent>) -> Vec<DetectedFailure> {
    let mut detector = IncrementalDetector::new();
    let mut all = Vec::new();
    let mut clock = SimTime::EPOCH;
    for event in events {
        debug_assert!(
            clock <= event.time,
            "detect_failures expects chronological input"
        );
        clock = event.time;
        all.extend(detector.push(event));
    }
    detector.finish(&mut all);
    all.sort_by_key(|f| (f.time, f.node));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_logs::event::Payload;

    fn panic_ev(ms: u64, node: u32, reason: PanicReason) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(node),
                detail: ConsoleDetail::KernelPanic { reason },
            },
        }
    }

    fn state_ev(ms: u64, node: u32, state: NodeState) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Scheduler {
                detail: SchedulerDetail::NodeStateChange {
                    node: NodeId(node),
                    state,
                },
            },
        }
    }

    fn graceful_ev(ms: u64, node: u32) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(node),
                detail: ConsoleDetail::GracefulShutdown,
            },
        }
    }

    /// The pipeline detects over `TERMINAL_CLASSES` only, so the list must
    /// cover every event `terminal_of` answers for — checked for an event of
    /// every class and every scheduler node state — and name no class that
    /// never yields one.
    #[test]
    fn terminal_classes_cover_every_terminal_signature() {
        let mut events = crate::segment::codec::one_of_every_class();
        events.extend(NodeState::ALL.map(|state| state_ev(0, 1, state)));
        let mut terminal = Vec::new();
        for e in &events {
            let class = EventClass::of(&e.payload);
            if terminal_of(e).is_some() {
                assert!(TERMINAL_CLASSES.contains(&class), "{class:?} missing");
                terminal.push(class);
            }
        }
        for class in TERMINAL_CLASSES {
            assert!(terminal.contains(class), "{class:?} is never terminal");
        }
    }

    #[test]
    fn panic_plus_down_is_one_failure() {
        let events = vec![
            panic_ev(1_000, 7, PanicReason::FatalMce),
            state_ev(61_000, 7, NodeState::Down),
        ];
        let failures = detect_failures(&events);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].node, NodeId(7));
        assert_eq!(failures[0].time, SimTime::from_millis(1_000));
        assert_eq!(
            failures[0].terminal,
            TerminalKind::Panic(PanicReason::FatalMce)
        );
    }

    #[test]
    fn distinct_incidents_beyond_window_are_separate() {
        let gap = DEDUP_WINDOW.as_millis() + 1;
        let events = vec![
            panic_ev(0, 3, PanicReason::KernelBug),
            panic_ev(gap, 3, PanicReason::KernelBug),
        ];
        assert_eq!(detect_failures(&events).len(), 2);
    }

    #[test]
    fn graceful_shutdown_is_excluded() {
        let events = vec![graceful_ev(0, 1)];
        assert!(detect_failures(&events).is_empty());
    }

    #[test]
    fn admindown_detected_but_not_suspect_or_poweroff() {
        let events = vec![
            state_ev(0, 2, NodeState::Suspect),
            state_ev(1_000, 2, NodeState::AdminDown),
            state_ev(2_000, 9, NodeState::PoweredOff),
            state_ev(3_000, 9, NodeState::Up),
        ];
        let failures = detect_failures(&events);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].terminal, TerminalKind::AdminDown);
        assert_eq!(failures[0].node, NodeId(2));
    }

    #[test]
    fn bare_scheduler_down_upgrades_if_specific_signature_follows() {
        let events = vec![
            state_ev(0, 4, NodeState::Down),
            panic_ev(30_000, 4, PanicReason::LustreBug),
        ];
        let failures = detect_failures(&events);
        assert_eq!(failures.len(), 1);
        assert_eq!(
            failures[0].terminal,
            TerminalKind::Panic(PanicReason::LustreBug)
        );
        // Time stays at the first signature.
        assert_eq!(failures[0].time, SimTime::EPOCH);
    }

    #[test]
    fn failures_on_different_nodes_never_merge() {
        let events = vec![
            panic_ev(0, 1, PanicReason::FatalMce),
            panic_ev(1, 2, PanicReason::FatalMce),
        ];
        assert_eq!(detect_failures(&events).len(), 2);
    }

    #[test]
    fn incremental_push_finalizes_superseded_incident() {
        let gap = DEDUP_WINDOW.as_millis() + 1;
        let mut det = IncrementalDetector::new();
        assert!(det
            .push(&panic_ev(1_000, 7, PanicReason::FatalMce))
            .is_none());
        assert_eq!(det.open_incidents(), 1);
        // Within the window: folds into the open incident.
        assert!(det.push(&state_ev(61_000, 7, NodeState::Down)).is_none());
        // Beyond the window: the open incident is final and returned.
        let done = det
            .push(&panic_ev(1_000 + gap, 7, PanicReason::KernelBug))
            .expect("superseded incident finalised");
        assert_eq!(done.time, SimTime::from_millis(1_000));
        assert_eq!(done.terminal, TerminalKind::Panic(PanicReason::FatalMce));
        assert_eq!(det.open_incidents(), 1);
    }

    #[test]
    fn incremental_advance_finalizes_only_past_window() {
        let mut det = IncrementalDetector::new();
        det.push(&panic_ev(0, 1, PanicReason::FatalMce));
        det.push(&panic_ev(5_000, 2, PanicReason::KernelBug));
        let mut out = Vec::new();
        // Clock just past node 1's window but not node 2's.
        det.advance(SimTime::from_millis(DEDUP_WINDOW.as_millis() + 1), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].node, NodeId(1));
        assert_eq!(det.open_incidents(), 1);
        det.finish(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].node, NodeId(2));
    }

    #[test]
    fn incremental_matches_batch_on_interleaved_stream() {
        // A busy stream: two incidents per node, scheduler echoes, graceful
        // shutdowns. Incremental push/advance/finish must equal the batch
        // function output exactly.
        let gap = DEDUP_WINDOW.as_millis();
        let mut events = vec![
            panic_ev(0, 1, PanicReason::FatalMce),
            state_ev(100, 1, NodeState::Down),
            graceful_ev(200, 3),
            state_ev(1_000, 2, NodeState::Down),
            panic_ev(2_000, 2, PanicReason::LustreBug),
            panic_ev(gap + 5_000, 1, PanicReason::KernelBug),
            state_ev(2 * gap + 10_000, 2, NodeState::AdminDown),
        ];
        events.sort_by_key(|e| e.time);
        let batch = detect_failures(&events);
        let mut streamed = Vec::new();
        let mut det = IncrementalDetector::new();
        for e in &events {
            streamed.extend(det.push(e));
            det.advance(e.time, &mut streamed);
        }
        det.finish(&mut streamed);
        streamed.sort_by_key(|f| (f.time, f.node));
        assert_eq!(streamed, batch);
    }

    #[test]
    fn output_is_time_sorted() {
        let events = vec![
            panic_ev(5_000, 9, PanicReason::KernelBug),
            panic_ev(5_000, 1, PanicReason::KernelBug),
            state_ev(700_000 + 5_000, 9, NodeState::AdminDown),
        ];
        let failures = detect_failures(&events);
        assert_eq!(failures.len(), 3);
        assert!(failures.windows(2).all(|w| w[0].time <= w[1].time));
        // Tie broken by node id.
        assert_eq!(failures[0].node, NodeId(1));
    }
}
