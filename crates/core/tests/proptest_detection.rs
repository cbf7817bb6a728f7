//! Property tests over detection, SWO recognition and the pipeline's
//! windowed queries.

use proptest::prelude::*;

use hpc_diagnosis::detection::{detect_failures, DEDUP_WINDOW, TERMINAL_CLASSES};
use hpc_diagnosis::swo::{detect_swos, partition_failures};
use hpc_diagnosis::{Diagnosis, DiagnosisConfig};
use hpc_logs::event::{
    ConsoleDetail, ControllerDetail, ControllerScope, ErdDetail, LogEvent, NodeState, PanicReason,
    Payload, SchedulerDetail,
};
use hpc_logs::time::SimTime;
use hpc_platform::NodeId;

/// Generates a sorted stream of terminal-ish events on a small machine.
fn terminal_events() -> impl Strategy<Value = Vec<LogEvent>> {
    prop::collection::vec(
        (
            0u64..50_000_000u64,
            0u32..64,
            prop::sample::select(vec![0u8, 1, 2, 3, 4, 5, 6, 7]),
        ),
        0..80,
    )
    .prop_map(|mut raw| {
        raw.sort();
        raw.into_iter()
            .map(|(ms, node, kind)| {
                let node = NodeId(node);
                let payload = match kind {
                    0 => Payload::Console {
                        node,
                        detail: ConsoleDetail::KernelPanic {
                            reason: PanicReason::KernelBug,
                        },
                    },
                    1 => Payload::Console {
                        node,
                        detail: ConsoleDetail::UnexpectedShutdown,
                    },
                    2 => Payload::Scheduler {
                        detail: SchedulerDetail::NodeStateChange {
                            node,
                            state: NodeState::Down,
                        },
                    },
                    3 => Payload::Scheduler {
                        detail: SchedulerDetail::NodeStateChange {
                            node,
                            state: NodeState::AdminDown,
                        },
                    },
                    // Non-terminal chaff: a terminal class in a state that
                    // is not terminal, other sources' view of a dead node,
                    // an intended shutdown.
                    4 => Payload::Scheduler {
                        detail: SchedulerDetail::NodeStateChange {
                            node,
                            state: NodeState::PoweredOff,
                        },
                    },
                    5 => Payload::Controller {
                        scope: ControllerScope::Blade(node.blade()),
                        detail: ControllerDetail::NodeHeartbeatFault { node },
                    },
                    6 => Payload::Erd {
                        scope: ControllerScope::Blade(node.blade()),
                        detail: ErdDetail::NodeFailed { node },
                    },
                    _ => Payload::Console {
                        node,
                        detail: ConsoleDetail::GracefulShutdown,
                    },
                };
                LogEvent {
                    time: SimTime::from_millis(ms),
                    payload,
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn detection_invariants(events in terminal_events()) {
        let failures = detect_failures(&events);
        // Never more failures than terminal events.
        let terminals = events
            .iter()
            .filter(|e| !detect_failures([*e]).is_empty())
            .count();
        prop_assert!(failures.len() <= terminals);
        // Chronological output.
        prop_assert!(failures.windows(2).all(|w| w[0].time <= w[1].time));
        // Per node: consecutive failures are separated by more than the
        // dedup window.
        let mut per_node: std::collections::BTreeMap<NodeId, Vec<SimTime>> = Default::default();
        for f in &failures {
            per_node.entry(f.node).or_default().push(f.time);
        }
        for times in per_node.values() {
            for w in times.windows(2) {
                prop_assert!(w[1].since(w[0]) > DEDUP_WINDOW);
            }
        }
        // Every failure coincides with a terminal event of that node.
        for f in &failures {
            prop_assert!(events.iter().any(|e| e.time == f.time
                && e.subject_node() == Some(f.node)));
        }
    }

    #[test]
    fn detection_is_idempotent_under_duplication(events in terminal_events()) {
        let doubled: Vec<LogEvent> = events
            .iter()
            .flat_map(|e| [e.clone(), e.clone()])
            .collect();
        prop_assert_eq!(detect_failures(&events), detect_failures(&doubled));
    }

    #[test]
    fn swo_partition_is_a_partition(events in terminal_events(), node_count in 40u32..640) {
        // At the fixed 10 % the threshold sweeps 4..64 co-failing nodes.
        let failures = detect_failures(&events);
        let swos = detect_swos(&failures, node_count);
        let (regular, swallowed) = partition_failures(&failures, &swos);
        prop_assert_eq!(regular.len() + swallowed.len(), failures.len());
        // Everything swallowed is inside some window; nothing regular is.
        for f in &swallowed {
            prop_assert!(swos.iter().any(|w| w.contains(f.time)));
        }
        for f in &regular {
            prop_assert!(!swos.iter().any(|w| w.contains(f.time)));
        }
    }

    /// What `Diagnosis::from_events` relies on: detection over the
    /// terminal classes' postings sees what detection over every event sees.
    #[test]
    fn detection_through_the_class_index_equals_detection_over_all_events(
        events in terminal_events(),
    ) {
        let want = detect_failures(&events);
        let d = Diagnosis::from_events(events, 0, DiagnosisConfig {
            exclude_swos: false,
            ..DiagnosisConfig::default()
        });
        let indexed = detect_failures(d.store().classes_events(TERMINAL_CLASSES));
        prop_assert_eq!(&indexed, &want);
        prop_assert_eq!(&d.failures, &want);
    }

    #[test]
    fn pipeline_from_events_never_panics(events in terminal_events()) {
        let d = Diagnosis::from_events(events, 0, DiagnosisConfig::default());
        // Windowed queries behave on arbitrary bounds.
        let (a, b) = d.window();
        let _ = d.node_events_between(NodeId(0), a, b);
        let _ = d.faulty_blades_between(a, b);
        let _ = hpc_diagnosis::root_cause::classify_all(&d);
        let _ = hpc_diagnosis::lead_time::lead_times(&d);
    }
}
