//! Job attribution: reconstructing the scheduler's history from its log and
//! correlating it with failures.
//!
//! The paper's step 3 (§II-A): "we analyze the jobs allocated on the failed
//! nodes from the scheduler logs to understand their effect on the compute
//! nodes". This module rebuilds a [`JobLog`] purely from parsed scheduler
//! events (never from simulator state) and answers:
//!
//! * **Fig. 12** — the daily job exit-status census (>90% success; most
//!   erroneous jobs are configuration errors);
//! * **Fig. 17** — the per-job overallocated-vs-failed-node analysis;
//! * **Obs. 8** — groups of near-simultaneous failures sharing one job.

use std::collections::BTreeMap;

use hpc_logs::event::{AppKind, JobEndReason, JobId, LogEvent, Payload, SchedulerDetail};
use hpc_logs::time::{SimDuration, SimTime, MILLIS_PER_DAY};
use hpc_platform::NodeId;

use crate::pipeline::Diagnosis;

/// One job's lifecycle as recovered from the scheduler log.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id.
    pub id: JobId,
    /// Application executable family.
    pub app: AppKind,
    /// Submitting user.
    pub user: u32,
    /// Allocated nodes.
    pub nodes: Vec<NodeId>,
    /// Requested memory per node (MiB).
    pub mem_per_node_mib: u32,
    /// Start time.
    pub start: SimTime,
    /// End time, if a JobEnd was seen.
    pub end: Option<SimTime>,
    /// Exit code, if ended.
    pub exit_code: Option<i32>,
    /// End reason, if ended.
    pub reason: Option<JobEndReason>,
    /// Nodes flagged by `memory overallocation` scheduler warnings.
    pub overallocated_nodes: Vec<NodeId>,
}

impl JobRecord {
    /// Whether the job occupied `node` at `t` (unended jobs count as
    /// occupying until the end of the window).
    pub fn active_on(&self, node: NodeId, t: SimTime) -> bool {
        self.active_at(t) && self.nodes.contains(&node)
    }

    /// Whether the job was running anywhere at `t`.
    fn active_at(&self, t: SimTime) -> bool {
        self.start <= t && self.end.is_none_or(|e| t < e)
    }
}

/// The reconstructed job history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobLog {
    jobs: BTreeMap<JobId, JobRecord>,
}

/// The job-lifecycle classes: the only events [`JobLog`] reads.
const JOB_CLASSES: &[crate::store::EventClass] = &[
    crate::store::EventClass::JobStart,
    crate::store::EventClass::JobEnd,
    crate::store::EventClass::MemOverallocation,
];

impl JobLog {
    /// Rebuilds the job log from parsed events (scheduler payloads only).
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a LogEvent>) -> JobLog {
        let mut jobs: BTreeMap<JobId, JobRecord> = BTreeMap::new();
        for e in events {
            Self::apply(&mut jobs, e);
        }
        JobLog { jobs }
    }

    /// Rebuilds from a diagnosis, walking only the job-lifecycle posting
    /// lists of the store (chronologically) rather than all events.
    pub fn from_diagnosis(d: &Diagnosis) -> JobLog {
        JobLog::from_events(d.store().classes_events(JOB_CLASSES))
    }

    fn apply(jobs: &mut BTreeMap<JobId, JobRecord>, e: &LogEvent) {
        let Payload::Scheduler { detail } = &e.payload else {
            return;
        };
        match detail {
            SchedulerDetail::JobStart {
                job,
                user,
                app,
                nodes,
                mem_per_node_mib,
                ..
            } => {
                jobs.insert(
                    *job,
                    JobRecord {
                        id: *job,
                        app: *app,
                        user: *user,
                        nodes: nodes.clone(),
                        mem_per_node_mib: *mem_per_node_mib,
                        start: e.time,
                        end: None,
                        exit_code: None,
                        reason: None,
                        overallocated_nodes: Vec::new(),
                    },
                );
            }
            SchedulerDetail::JobEnd {
                job,
                exit_code,
                reason,
            } => {
                if let Some(j) = jobs.get_mut(job) {
                    j.end = Some(e.time);
                    j.exit_code = Some(*exit_code);
                    j.reason = Some(*reason);
                }
            }
            SchedulerDetail::MemOverallocation { job, node, .. } => {
                if let Some(j) = jobs.get_mut(job) {
                    if !j.overallocated_nodes.contains(node) {
                        j.overallocated_nodes.push(*node);
                    }
                }
            }
            _ => {}
        }
    }

    /// Number of jobs seen.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no jobs were seen.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Lookup by id.
    pub fn get(&self, id: JobId) -> Option<&JobRecord> {
        self.jobs.get(&id)
    }

    /// All jobs, in id order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.values()
    }
}

/// One day of the exit-status census (Fig. 12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExitCensusDay {
    /// Day index of the job's end.
    pub day: u64,
    /// Jobs that ended this day.
    pub total: usize,
    /// Completed successfully (exit 0).
    pub success: usize,
    /// Nonzero exits that are user/configuration errors.
    pub config_error: usize,
    /// Ended because an allocated node failed.
    pub node_fail: usize,
    /// Application bugs (other nonzero exits).
    pub app_error: usize,
}

impl ExitCensusDay {
    /// Percentage of successful jobs.
    pub fn success_percent(&self) -> f64 {
        pct(self.success, self.total)
    }

    /// Percentage of jobs with nonzero exit codes.
    pub fn nonzero_percent(&self) -> f64 {
        pct(self.total - self.success, self.total)
    }
}

fn pct(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        100.0 * n as f64 / d as f64
    }
}

/// Computes the daily exit census over ended jobs.
pub fn exit_census_daily(jobs: &JobLog) -> Vec<ExitCensusDay> {
    let mut days: BTreeMap<u64, ExitCensusDay> = BTreeMap::new();
    for j in jobs.jobs() {
        let (Some(end), Some(reason)) = (j.end, j.reason) else {
            continue;
        };
        let day = end.as_millis() / MILLIS_PER_DAY;
        let e = days.entry(day).or_insert(ExitCensusDay {
            day,
            ..ExitCensusDay::default()
        });
        e.total += 1;
        match reason {
            JobEndReason::Completed => e.success += 1,
            JobEndReason::NodeFail => e.node_fail += 1,
            JobEndReason::AppError => e.app_error += 1,
            r if r.is_config_error() => e.config_error += 1,
            _ => {}
        }
    }
    days.into_values().collect()
}

/// Per-job overallocation outcome (Fig. 17).
#[derive(Debug, Clone, PartialEq)]
pub struct OverallocationJob {
    /// The job.
    pub job: JobId,
    /// Total allocated nodes.
    pub allocated: usize,
    /// Nodes with overallocation warnings.
    pub overallocated: usize,
    /// Overallocated nodes that subsequently failed during the job.
    pub failed_overallocated: usize,
}

/// Computes the Fig. 17 analysis: for each job with overallocation
/// warnings, how many of the overallocated nodes failed while it ran.
pub fn overallocation_analysis(d: &Diagnosis, jobs: &JobLog) -> Vec<OverallocationJob> {
    let slack = SimDuration::from_mins(10);
    jobs.jobs()
        .filter(|j| !j.overallocated_nodes.is_empty())
        .map(|j| {
            let end = j.end.unwrap_or(SimTime::from_millis(u64::MAX / 2));
            let failed = j
                .overallocated_nodes
                .iter()
                .filter(|n| {
                    d.store()
                        .first_failure_in(**n, j.start, end + slack)
                        .is_some()
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

/// A group of failures sharing one job within a time window (Obs. 8's
/// temporal locality via common jobs).
#[derive(Debug, Clone, PartialEq)]
pub struct SharedJobGroup {
    /// The common job.
    pub job: JobId,
    /// Failed nodes in the group.
    pub nodes: Vec<NodeId>,
    /// Failure times aligned with `nodes`.
    pub times: Vec<SimTime>,
}

/// How long before the manifestation a failure's job is looked up: the
/// scheduler may have truncated the job *at* the failure.
const PROBE_BACKOFF: SimDuration = SimDuration::from_mins(3);

/// Width of the failed-node filter in bits. Exact for any machine below
/// 65,536 nodes; on larger (or corrupted) node ids two nodes may share a
/// bit and the search behind the filter tells them apart.
const FILTER_BITS: usize = 1 << 16;

/// Groups detected failures by the job running on the failed node at
/// failure time; returns groups of at least `min_nodes`.
///
/// A failure belongs to the first job in id order that is active on its
/// node `PROBE_BACKOFF` before it. The job log is swept once for all
/// failures: each allocated node is tested against a bitset of failed nodes.
pub fn shared_job_groups(d: &Diagnosis, jobs: &JobLog, min_nodes: usize) -> Vec<SharedJobGroup> {
    // Failure indices by node, each node's failures in detection order.
    let mut by_node: Vec<(NodeId, usize)> = (d.failures.iter().map(|f| f.node).zip(0..)).collect();
    by_node.sort_unstable();
    let bit = |n: NodeId| (n.0 as usize % FILTER_BITS / 64, 1u64 << (n.0 % 64));
    let mut marked = vec![0u64; FILTER_BITS / 64];
    for &(n, _) in &by_node {
        let (word, mask) = bit(n);
        marked[word] |= mask;
    }

    let mut owner: Vec<Option<JobId>> = vec![None; d.failures.len()];
    for j in jobs.jobs() {
        for &n in &j.nodes {
            let (word, mask) = bit(n);
            if marked[word] & mask == 0 {
                continue;
            }
            let first = by_node.partition_point(|&(m, _)| m < n);
            for &(_, i) in by_node[first..].iter().take_while(|&&(m, _)| m == n) {
                let probe = d.failures[i].time.saturating_sub(PROBE_BACKOFF);
                if owner[i].is_none() && j.active_at(probe) {
                    owner[i] = Some(j.id);
                }
            }
        }
    }

    let mut by_job: BTreeMap<JobId, (Vec<NodeId>, Vec<SimTime>)> = BTreeMap::new();
    for (f, job) in d.failures.iter().zip(owner) {
        if let Some(job) = job {
            let entry = by_job.entry(job).or_default();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DiagnosisConfig;
    use hpc_faultsim::Scenario;
    use hpc_platform::SystemId;

    fn run(seed: u64, days: u64) -> (Diagnosis, JobLog, hpc_faultsim::SimOutput) {
        let out = Scenario::new(SystemId::S1, 2, days, seed).run();
        let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
        let jobs = JobLog::from_diagnosis(&d);
        (d, jobs, out)
    }

    #[test]
    fn job_log_matches_simulated_timeline() {
        let (_, jobs, out) = run(1, 5);
        assert_eq!(jobs.len(), out.timeline.len(), "all jobs recovered");
        for sim_job in out.timeline.jobs() {
            let rec = jobs.get(sim_job.id).expect("job in log");
            assert_eq!(rec.nodes, sim_job.nodes);
            assert_eq!(rec.app, sim_job.app);
            assert_eq!(rec.start, sim_job.start);
            assert_eq!(rec.end, Some(sim_job.end));
            assert_eq!(rec.reason, Some(sim_job.end_reason));
            let mut want_over = sim_job.overallocated_nodes.clone();
            let mut got_over = rec.overallocated_nodes.clone();
            want_over.sort_unstable();
            got_over.sort_unstable();
            assert_eq!(got_over, want_over);
        }
    }

    #[test]
    fn exit_census_matches_fig12_band() {
        let (_, jobs, _) = run(2, 7);
        let days = exit_census_daily(&jobs);
        assert!(days.len() >= 6);
        let total: usize = days.iter().map(|d| d.total).sum();
        let success: usize = days.iter().map(|d| d.success).sum();
        let rate = 100.0 * success as f64 / total as f64;
        assert!((85.0..=98.0).contains(&rate), "success rate {rate}%");
        // Most erroneous jobs are configuration errors, not node problems
        // (Fig. 12 discussion).
        let config: usize = days.iter().map(|d| d.config_error).sum();
        let node_fail: usize = days.iter().map(|d| d.node_fail).sum();
        assert!(
            config > node_fail,
            "config {config} vs node_fail {node_fail}"
        );
    }

    #[test]
    fn overallocation_analysis_counts_failed_subsets() {
        let mut sc = Scenario::new(SystemId::S1, 2, 3, 11);
        sc.workload.overalloc_job_prob = 0.3;
        sc.workload.large_job_prob = 0.25;
        sc.config.inject_overalloc_ooms = true;
        let out = sc.run();
        let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
        let jobs = JobLog::from_diagnosis(&d);
        let rows = overallocation_analysis(&d, &jobs);
        assert!(!rows.is_empty());
        let with_failures: Vec<_> = rows.iter().filter(|r| r.failed_overallocated > 0).collect();
        assert!(!with_failures.is_empty(), "no overallocation failures seen");
        for r in &rows {
            assert!(r.overallocated <= r.allocated);
            assert!(r.failed_overallocated <= r.overallocated);
        }
    }

    #[test]
    fn shared_job_groups_exist_for_app_bursts() {
        let (d, jobs, out) = run(3, 21);
        let groups = shared_job_groups(&d, &jobs, 2);
        assert!(!groups.is_empty(), "no shared-job failure groups");
        // Cross-check one group against ground truth: those failures
        // really were injected with that job.
        let mut confirmed = 0;
        for g in &groups {
            for (node, time) in g.nodes.iter().zip(&g.times) {
                if out.truth.failures.iter().any(|f| {
                    f.node == *node
                        && f.job == Some(g.job)
                        && f.time.abs_diff(*time) <= SimDuration::from_mins(10)
                }) {
                    confirmed += 1;
                }
            }
        }
        assert!(confirmed >= 2, "group membership not confirmed by truth");
    }

    #[test]
    fn shared_job_sweep_keeps_the_first_job_in_id_order() {
        use hpc_logs::event::{Apid, ConsoleDetail, PanicReason};
        let at = |secs: u64, payload| LogEvent {
            time: SimTime::EPOCH + SimDuration::from_secs(secs),
            payload,
        };
        let start = |secs, job: u64, node: u32| {
            let detail = SchedulerDetail::JobStart {
                job: JobId(job),
                apid: Apid(job),
                user: 1000,
                app: AppKind::MpiSimulation,
                nodes: vec![NodeId(node)],
                mem_per_node_mib: 1024,
            };
            at(secs, Payload::Scheduler { detail })
        };
        let end = |secs, job: u64| {
            let detail = SchedulerDetail::JobEnd {
                job: JobId(job),
                exit_code: 0,
                reason: JobEndReason::Completed,
            };
            at(secs, Payload::Scheduler { detail })
        };
        let panic = |secs, node: u32| {
            let reason = PanicReason::KernelBug;
            let detail = ConsoleDetail::KernelPanic { reason };
            let node = NodeId(node);
            at(secs, Payload::Console { node, detail })
        };
        let events = vec![
            // Node 5: jobs 9 and 4 both run (and never end) when it fails;
            // job 1 sits on the node that shares node 5's filter bit.
            start(0, 9, 5),
            start(0, 1, 5 + FILTER_BITS as u32),
            // Node 7 fails at 2 min, so its probe saturates to the epoch:
            // job 2 ran then, job 3 (running at the failure) had not begun.
            start(0, 2, 7),
            start(30, 3, 7),
            end(60, 2),
            start(60, 4, 5),
            panic(120, 7),
            panic(600, 5),
        ];
        // Two failures on a machine this small would read as an outage.
        let config = DiagnosisConfig {
            exclude_swos: false,
            ..DiagnosisConfig::default()
        };
        let d = Diagnosis::from_events(events, 0, config);
        let jobs = JobLog::from_diagnosis(&d);
        let groups = shared_job_groups(&d, &jobs, 1);
        let got: Vec<_> = groups.iter().map(|g| (g.job, &g.nodes[..])).collect();
        assert_eq!(
            got,
            [(JobId(2), &[NodeId(7)][..]), (JobId(4), &[NodeId(5)][..])]
        );
        for (g, f) in groups.iter().zip(&d.failures) {
            assert_eq!(g.times, [f.time]);
            // What the sweep replaced: every job probed per failure.
            let probe = f.time.saturating_sub(PROBE_BACKOFF);
            let scanned = jobs.jobs().find(|j| j.active_on(f.node, probe));
            assert_eq!(scanned.map(|j| j.id), Some(g.job));
        }
    }

    #[test]
    fn empty_event_stream_yields_empty_log() {
        let jobs = JobLog::from_events(&[]);
        assert!(jobs.is_empty());
        assert!(exit_census_daily(&jobs).is_empty());
    }
}
