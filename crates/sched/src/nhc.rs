//! Node Health Checker (NHC) behaviour as event-sequence builders.
//!
//! §III-B of the paper: "job-caused malfunctioning launches the node health
//! checker (NHC), which, when in suspect mode, may turn the node to
//! admindown based on failed tests". The fault simulator composes these
//! sequences into incident chains; the diagnosis pipeline later detects the
//! `admindown`/`down` transitions as manifested failures.

use hpc_logs::event::{ConsoleDetail, LogEvent, NhcTest, NodeState, Payload, SchedulerDetail};
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::NodeId;

/// Gap between the first failed test and entering suspect mode.
pub const SUSPECT_DELAY: SimDuration = SimDuration::from_secs(10);
/// Gap between suspect mode and the confirming re-test.
pub const RETEST_DELAY: SimDuration = SimDuration::from_secs(30);
/// Gap between the failed re-test and admindown.
pub const ADMINDOWN_DELAY: SimDuration = SimDuration::from_secs(40);

/// NHC takes a node to admindown after a failed test: failed test →
/// suspect → failed re-test → admindown, with a console-side NHC warning.
/// The final `NodeStateChange(AdminDown)` is the manifested failure.
pub fn admindown_sequence(node: NodeId, t0: SimTime, test: NhcTest) -> Vec<LogEvent> {
    vec![
        LogEvent {
            time: t0,
            payload: Payload::Scheduler {
                detail: SchedulerDetail::NhcResult {
                    node,
                    test,
                    passed: false,
                },
            },
        },
        LogEvent {
            time: t0,
            payload: Payload::Console {
                node,
                detail: ConsoleDetail::NhcWarning { test },
            },
        },
        LogEvent {
            time: t0 + SUSPECT_DELAY,
            payload: Payload::Scheduler {
                detail: SchedulerDetail::NodeStateChange {
                    node,
                    state: NodeState::Suspect,
                },
            },
        },
        LogEvent {
            time: t0 + SUSPECT_DELAY + RETEST_DELAY,
            payload: Payload::Scheduler {
                detail: SchedulerDetail::NhcResult {
                    node,
                    test,
                    passed: false,
                },
            },
        },
        LogEvent {
            time: t0 + SUSPECT_DELAY + RETEST_DELAY + ADMINDOWN_DELAY,
            payload: Payload::Scheduler {
                detail: SchedulerDetail::NodeStateChange {
                    node,
                    state: NodeState::AdminDown,
                },
            },
        },
    ]
}

/// The scheduler marks a crashed node down (after a kernel panic or
/// unexpected shutdown is noticed via missing heartbeats).
pub fn crash_down_event(node: NodeId, t: SimTime) -> LogEvent {
    LogEvent {
        time: t,
        payload: Payload::Scheduler {
            detail: SchedulerDetail::NodeStateChange {
                node,
                state: NodeState::Down,
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admindown_sequence_shape() {
        let seq = admindown_sequence(NodeId(9), SimTime::from_millis(1000), NhcTest::AppExit);
        assert_eq!(seq.len(), 5);
        assert!(seq.windows(2).all(|w| w[0].time <= w[1].time));
        // Ends in admindown.
        match &seq.last().unwrap().payload {
            Payload::Scheduler {
                detail: SchedulerDetail::NodeStateChange { node, state },
            } => {
                assert_eq!(*node, NodeId(9));
                assert_eq!(*state, NodeState::AdminDown);
                assert!(state.is_failure());
            }
            other => panic!("unexpected terminal payload {other:?}"),
        }
        // Contains a console-side NHC warning for the same test.
        assert!(seq.iter().any(|e| matches!(
            &e.payload,
            Payload::Console {
                detail: ConsoleDetail::NhcWarning {
                    test: NhcTest::AppExit
                },
                ..
            }
        )));
    }

    #[test]
    fn crash_down_event_is_critical() {
        let down = crash_down_event(NodeId(1), SimTime::from_millis(5));
        assert_eq!(down.severity(), hpc_logs::Severity::Critical);
    }
}
