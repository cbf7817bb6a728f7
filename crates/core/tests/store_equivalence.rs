//! Store-vs-scan equivalence: every analysis that was rehosted onto the
//! [`EventStore`](hpc_diagnosis::EventStore) posting lists must compute
//! exactly what a naive full scan of the chronological event sequence
//! computes. The references here are deliberately index-free — they scan
//! `d.events()` and `d.failures` the way the pre-store code did — so any
//! divergence in range bounds, class partitioning or entity attribution
//! shows up as a counterexample.

use std::collections::BTreeMap;

use proptest::prelude::*;

use hpc_diagnosis::detection::{DetectedFailure, TerminalKind};
use hpc_diagnosis::external::{nhf_correspondence, nvf_correspondence, FaultCorrespondence};
use hpc_diagnosis::jobs::{
    overallocation_analysis, shared_job_groups, JobLog, OverallocationJob, SharedJobGroup,
};
use hpc_diagnosis::lead_time::{
    false_positive_analysis, is_external_indicator, is_indicative_internal, lead_times,
    FalsePositiveComparison, LeadTimeRecord,
};
use hpc_diagnosis::root_cause::PatternCensus;
use hpc_diagnosis::windows::{FAILURE_HORIZON, LOOKBACK};
use hpc_diagnosis::{Diagnosis, DiagnosisConfig};
use hpc_logs::event::{
    Apid, AppKind, ConsoleDetail, ControllerDetail, ControllerScope, JobEndReason, JobId, LogEvent,
    PanicReason, Payload, SchedulerDetail,
};
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::NodeId;

/// A sorted event soup covering every index the store builds: failure
/// terminals, external faults (blade-scoped controller), indicative
/// internal symptoms, job lifecycle records and chaff.
///
/// Half the soups spread over 64 nodes, half crowd onto 6 so that several
/// failures, overlapping jobs and faults meet on one node.
fn event_soup() -> impl Strategy<Value = Vec<LogEvent>> {
    prop_oneof![event_soup_on(64), event_soup_on(6)]
}

fn event_soup_on(nodes: u32) -> impl Strategy<Value = Vec<LogEvent>> {
    prop::collection::vec(
        (
            0u64..200_000_000u64,
            0..nodes,
            prop::sample::select(vec![0u8, 1, 2, 3, 4, 5, 6, 7]),
        ),
        0..120,
    )
    .prop_map(move |mut raw| {
        raw.sort();
        raw.into_iter()
            .map(|(ms, node_raw, kind)| {
                let node = NodeId(node_raw);
                let job = JobId(u64::from(node_raw % 8));
                let payload = match kind {
                    0 => Payload::Console {
                        node,
                        detail: ConsoleDetail::KernelPanic {
                            reason: PanicReason::KernelBug,
                        },
                    },
                    1 => Payload::Controller {
                        scope: ControllerScope::Blade(node.blade()),
                        detail: ControllerDetail::NodeVoltageFault { node },
                    },
                    2 => Payload::Controller {
                        scope: ControllerScope::Blade(node.blade()),
                        detail: ControllerDetail::NodeHeartbeatFault { node },
                    },
                    3 => Payload::Console {
                        node,
                        detail: ConsoleDetail::CpuStall { cpu: 0 },
                    },
                    4 => Payload::Console {
                        node,
                        detail: ConsoleDetail::OomKill {
                            victim: AppKind::Python,
                            pid: 4242,
                        },
                    },
                    5 => Payload::Scheduler {
                        detail: SchedulerDetail::JobStart {
                            job,
                            apid: Apid(job.0 + 1),
                            user: 1000 + job.0 as u32,
                            app: AppKind::MpiSimulation,
                            nodes: vec![node, NodeId((node_raw + 1) % nodes)],
                            mem_per_node_mib: 65536,
                        },
                    },
                    6 => Payload::Scheduler {
                        detail: SchedulerDetail::JobEnd {
                            job,
                            exit_code: 0,
                            reason: JobEndReason::Completed,
                        },
                    },
                    7 => Payload::Scheduler {
                        detail: SchedulerDetail::MemOverallocation {
                            job,
                            node,
                            requested_mib: 131072,
                            available_mib: 65536,
                        },
                    },
                    _ => unreachable!(),
                };
                LogEvent {
                    time: SimTime::from_millis(ms),
                    payload,
                }
            })
            .collect()
    })
}

/// The fault→failure correspondence window, by failure scan.
fn naive_fails_within(d: &Diagnosis, node: NodeId, t: SimTime) -> bool {
    let from = t.saturating_sub(SimDuration::from_mins(2));
    let to = t + FAILURE_HORIZON;
    d.failures
        .iter()
        .any(|f| f.node == node && f.time >= from && f.time <= to)
}

fn naive_correspondence(
    d: &Diagnosis,
    mut subject: impl FnMut(&LogEvent) -> Option<NodeId>,
) -> FaultCorrespondence {
    let mut out = FaultCorrespondence::default();
    for e in d.events() {
        if let Some(node) = subject(e) {
            out.total += 1;
            if naive_fails_within(d, node, e.time) {
                out.followed_by_failure += 1;
            }
        }
    }
    out
}

fn naive_pattern_census(d: &Diagnosis) -> PatternCensus {
    #[derive(Default)]
    struct Flags {
        hung: bool,
        oom: bool,
        lustre: bool,
        sw: bool,
        hw: bool,
    }
    let mut per_node: std::collections::BTreeMap<NodeId, Flags> = Default::default();
    for e in d.events() {
        let Payload::Console { node, detail } = &e.payload else {
            continue;
        };
        let f = per_node.entry(*node).or_default();
        match detail {
            ConsoleDetail::HungTaskTimeout { .. } => f.hung = true,
            ConsoleDetail::OomKill { .. } | ConsoleDetail::PageAllocFailure { .. } => f.oom = true,
            ConsoleDetail::LustreError { .. } => f.lustre = true,
            ConsoleDetail::SegFault { .. } => f.sw = true,
            ConsoleDetail::GpuError { .. } | ConsoleDetail::DiskError => f.hw = true,
            _ => {}
        }
    }
    let mut c = PatternCensus {
        nodes_seen: per_node.len(),
        ..PatternCensus::default()
    };
    for f in per_node.values() {
        c.hung_task += f.hung as usize;
        c.oom += f.oom as usize;
        c.lustre += f.lustre as usize;
        c.software += f.sw as usize;
        c.hardware += f.hw as usize;
    }
    c
}

/// Blade-scoped external events of `blade` in `[from, to)`, by full scan
/// with the same attribution rule the store's build pass applies.
fn naive_blade_external(
    d: &Diagnosis,
    blade: hpc_platform::BladeId,
    from: SimTime,
    to: SimTime,
) -> impl Iterator<Item = &LogEvent> {
    d.events().iter().filter(move |e| {
        e.time >= from
            && e.time < to
            && matches!(
                &e.payload,
                Payload::Controller {
                    scope: ControllerScope::Blade(_),
                    ..
                } | Payload::Erd {
                    scope: ControllerScope::Blade(_),
                    ..
                }
            )
            && e.subject_blade() == Some(blade)
    })
}

fn naive_lead_times(d: &Diagnosis) -> Vec<LeadTimeRecord> {
    d.failures
        .iter()
        .map(|f| {
            let int_from = f.time.saturating_sub(LOOKBACK);
            let internal = d
                .events()
                .iter()
                .find(|e| {
                    e.subject_node() == Some(f.node)
                        && e.time >= int_from
                        && e.time < f.time
                        && is_indicative_internal(e)
                })
                .map(|e| f.time.since(e.time));
            let ext_from = f.time.saturating_sub(d.config.external_window);
            let external = naive_blade_external(d, f.node.blade(), ext_from, f.time)
                .find(|e| is_external_indicator(e, f))
                .map(|e| f.time.since(e.time));
            LeadTimeRecord {
                failure: *f,
                internal,
                external,
            }
        })
        .collect()
}

fn naive_false_positive_analysis(d: &Diagnosis) -> FalsePositiveComparison {
    let mut out = FalsePositiveComparison::default();
    let mut last_flag: std::collections::HashMap<NodeId, SimTime> = Default::default();
    for e in d.events() {
        if !is_indicative_internal(e) {
            continue;
        }
        let node = e.subject_node().expect("console events have a node");
        if let Some(prev) = last_flag.get(&node) {
            if e.time.since(*prev) < SimDuration::from_hours(1) {
                continue;
            }
        }
        last_flag.insert(node, e.time);
        let fails = d
            .failures
            .iter()
            .any(|f| f.node == node && f.time >= e.time && f.time <= e.time + FAILURE_HORIZON);
        out.internal_flags += 1;
        if fails {
            out.internal_tp += 1;
        }
        let pseudo_failure = DetectedFailure {
            node,
            time: e.time,
            terminal: TerminalKind::SchedulerDown,
        };
        let ext_from = e.time.saturating_sub(d.config.external_window);
        let has_external = naive_blade_external(
            d,
            node.blade(),
            ext_from,
            e.time + SimDuration::from_millis(1),
        )
        .any(|x| is_external_indicator(x, &pseudo_failure));
        if has_external {
            out.combined_flags += 1;
            if fails {
                out.combined_tp += 1;
            }
        }
    }
    out
}

fn naive_overallocation(d: &Diagnosis, jobs: &JobLog) -> Vec<OverallocationJob> {
    let slack = SimDuration::from_mins(10);
    jobs.jobs()
        .filter(|j| !j.overallocated_nodes.is_empty())
        .map(|j| {
            let end = j.end.unwrap_or(SimTime::from_millis(u64::MAX / 2));
            let failed = j
                .overallocated_nodes
                .iter()
                .filter(|n| {
                    d.failures
                        .iter()
                        .any(|f| f.node == **n && f.time >= j.start && f.time <= end + slack)
                })
                .count();
            OverallocationJob {
                job: j.id,
                allocated: j.nodes.len(),
                overallocated: j.overallocated_nodes.len(),
                failed_overallocated: failed,
            }
        })
        .collect()
}

/// Shared-job attribution the way it was first written: for every failure,
/// the first job in id order that is active on the node just before it.
fn naive_shared_job_groups(d: &Diagnosis, jobs: &JobLog, min_nodes: usize) -> Vec<SharedJobGroup> {
    let mut by_job: BTreeMap<JobId, (Vec<NodeId>, Vec<SimTime>)> = BTreeMap::new();
    for f in &d.failures {
        let probe = f.time.saturating_sub(SimDuration::from_mins(3));
        if let Some(j) = jobs.jobs().find(|j| j.active_on(f.node, probe)) {
            let entry = by_job.entry(j.id).or_default();
            entry.0.push(f.node);
            entry.1.push(f.time);
        }
    }
    by_job
        .into_iter()
        .filter(|(_, (nodes, _))| nodes.len() >= min_nodes)
        .map(|(job, (nodes, times))| SharedJobGroup { job, nodes, times })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_backed_analyses_match_naive_scans(events in event_soup()) {
        let d = Diagnosis::from_events(events, 0, DiagnosisConfig::default());

        // Fault→failure correspondences (Fig. 5).
        prop_assert_eq!(
            nvf_correspondence(&d),
            naive_correspondence(&d, |e| match &e.payload {
                Payload::Controller {
                    detail: ControllerDetail::NodeVoltageFault { node },
                    ..
                } => Some(*node),
                _ => None,
            })
        );
        prop_assert_eq!(
            nhf_correspondence(&d),
            naive_correspondence(&d, |e| match &e.payload {
                Payload::Controller {
                    detail: ControllerDetail::NodeHeartbeatFault { node },
                    ..
                } => Some(*node),
                _ => None,
            })
        );

        // Root-cause node-pattern tally (Fig. 15).
        prop_assert_eq!(PatternCensus::compute(&d), naive_pattern_census(&d));

        // Lead times, internal and external (Fig. 13).
        prop_assert_eq!(lead_times(&d), naive_lead_times(&d));

        // False-positive comparison (Fig. 14). It reads the predictor, whose
        // backing window is the diagnosis' external_window: pin it at the
        // ends of the ablation sweep too.
        prop_assert_eq!(false_positive_analysis(&d), naive_false_positive_analysis(&d));
        for hours in [1, 24] {
            let swept = Diagnosis::from_events(d.events().to_vec(), 0, DiagnosisConfig {
                external_window: SimDuration::from_hours(hours),
                ..DiagnosisConfig::default()
            });
            prop_assert_eq!(
                false_positive_analysis(&swept),
                naive_false_positive_analysis(&swept),
                "external_window {} h", hours
            );
        }

        // Job statistics: class-merged reconstruction and the
        // overallocation→failure join (Fig. 17).
        let jobs = JobLog::from_diagnosis(&d);
        prop_assert_eq!(&jobs, &JobLog::from_events(d.events()));
        prop_assert_eq!(overallocation_analysis(&d, &jobs), naive_overallocation(&d, &jobs));

        // Shared-job attribution (Obs. 8): the one-sweep grouping names the
        // same jobs, nodes and times, in the same order, as a scan of every
        // job per failure — over overlapping, re-used-id and never-ended jobs.
        for min_nodes in 1..=3 {
            prop_assert_eq!(
                shared_job_groups(&d, &jobs, min_nodes),
                naive_shared_job_groups(&d, &jobs, min_nodes)
            );
        }

        // The windowed entity queries behind the blade/cabinet analyses.
        let (a, b) = d.window();
        let mid = SimTime::from_millis((a.as_millis() + b.as_millis()) / 2);
        for (from, to) in [(a, b + SimDuration::from_millis(1)), (a, mid), (mid, b)] {
            let naive_blades: Vec<_> = {
                let mut blades: Vec<_> = d
                    .events()
                    .iter()
                    .filter(|e| {
                        e.time >= from
                            && e.time < to
                            && matches!(
                                &e.payload,
                                Payload::Controller { scope: ControllerScope::Blade(_), .. }
                                    | Payload::Erd { scope: ControllerScope::Blade(_), .. }
                            )
                    })
                    .filter_map(|e| e.subject_blade())
                    .collect();
                blades.sort_unstable();
                blades.dedup();
                blades
            };
            prop_assert_eq!(d.faulty_blades_between(from, to), naive_blades);
        }
    }
}
