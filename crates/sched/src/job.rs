//! Jobs and the job timeline.
//!
//! The paper's job analysis (Figs. 12, 15–17; Obs. 6, 8) needs exactly
//! these queries over the scheduler's history: which jobs ran on a node at
//! a time, which nodes shared a job, how jobs ended, and which allocations
//! were memory-overallocated. [`JobTimeline`] answers them; the text logs
//! the diagnosis pipeline consumes are rendered from the same data.

use std::collections::HashMap;

use hpc_logs::event::{Apid, AppKind, JobEndReason, JobId};
use hpc_logs::time::SimTime;
use hpc_platform::NodeId;

/// One scheduled job with its full lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Scheduler job id.
    pub id: JobId,
    /// ALPS application id.
    pub apid: Apid,
    /// Numeric submitting user.
    pub user: u32,
    /// Application family.
    pub app: AppKind,
    /// Allocated nodes.
    pub nodes: Vec<NodeId>,
    /// Requested memory per node, MiB.
    pub mem_per_node_mib: u32,
    /// Start time.
    pub start: SimTime,
    /// End time (amended if a node failure truncates the job).
    pub end: SimTime,
    /// Final end reason.
    pub end_reason: JobEndReason,
    /// Process exit code consistent with the reason.
    pub exit_code: i32,
    /// Nodes where the scheduler overallocated memory (requested more than
    /// physically available) — the Fig. 17 bug. Subset of `nodes`.
    pub overallocated_nodes: Vec<NodeId>,
}

impl Job {
    /// Whether the job occupied `node` at instant `t` (start inclusive, end
    /// exclusive).
    pub fn active_on(&self, node: NodeId, t: SimTime) -> bool {
        self.start <= t && t < self.end && self.nodes.contains(&node)
    }

    /// Whether the job was running anywhere at instant `t`.
    fn active_at(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Truncates the job at `t` with a node-failure end. No-op if the job
    /// already ended by `t`.
    fn fail_at(&mut self, t: SimTime) {
        if t < self.end {
            self.end = t;
            self.end_reason = JobEndReason::NodeFail;
            self.exit_code = -11;
        }
    }

    /// The exit code conventionally paired with an end reason.
    pub fn exit_code_for(reason: JobEndReason) -> i32 {
        match reason {
            JobEndReason::Completed => 0,
            JobEndReason::WallTimeExceeded => 140,
            JobEndReason::MemoryLimitExceeded => 137,
            JobEndReason::UserCancelled => 130,
            JobEndReason::NodeFail => -11,
            JobEndReason::AppError => 1,
        }
    }
}

/// The complete job history of one simulated window.
///
/// Jobs are held in `(start, id)` order. Two lookups ride along so that
/// the per-node and per-id questions do not walk every job's node list:
/// each node's jobs as positions in that order, and each id's position.
/// Nothing hands out `&mut Job`, and the only in-place amendment
/// (`Job::fail_at`) moves `end`, which neither lookup reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobTimeline {
    jobs: Vec<Job>,
    /// Indexed by node id: ascending positions in `jobs` of the jobs
    /// allocated on that node.
    by_node: Vec<Vec<u32>>,
    /// Position in `jobs` of the first job carrying each id.
    by_id: HashMap<JobId, u32>,
}

impl JobTimeline {
    /// Empty timeline.
    pub fn new() -> JobTimeline {
        JobTimeline::default()
    }

    /// Builds from a job list (sorted by start time internally).
    pub fn from_jobs(mut jobs: Vec<Job>) -> JobTimeline {
        jobs.sort_by_key(|j| (j.start, j.id));
        let mut timeline = JobTimeline {
            jobs,
            ..JobTimeline::default()
        };
        timeline.index();
        timeline
    }

    fn index(&mut self) {
        self.by_node.clear();
        self.by_id.clear();
        for (pos, job) in (0u32..).zip(&self.jobs) {
            self.by_id.entry(job.id).or_insert(pos);
            for node in &job.nodes {
                let node = node.0 as usize;
                if node >= self.by_node.len() {
                    self.by_node.resize_with(node + 1, Vec::new);
                }
                // A node listed twice in one allocation is still one job.
                if self.by_node[node].last() != Some(&pos) {
                    self.by_node[node].push(pos);
                }
            }
        }
    }

    /// All jobs in start order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Looks up a job by id.
    pub fn get(&self, id: JobId) -> Option<&Job> {
        self.by_id.get(&id).map(|&pos| &self.jobs[pos as usize])
    }

    /// The job running on `node` at `t`, if any (nodes run one job at a
    /// time in this model, matching dedicated-node HPC scheduling); the
    /// first in `(start, id)` order should several overlap.
    pub fn job_on(&self, node: NodeId, t: SimTime) -> Option<&Job> {
        self.jobs_touching(node)
            .take_while(|j| j.start <= t)
            .find(|j| j.active_at(t))
    }

    /// Jobs active anywhere at instant `t`.
    pub fn active_at(&self, t: SimTime) -> impl Iterator<Item = &Job> {
        self.jobs.iter().filter(move |j| j.active_at(t))
    }

    /// Jobs whose node set includes `node`, in `(start, id)` order.
    fn jobs_touching(&self, node: NodeId) -> impl Iterator<Item = &Job> {
        let positions = self.by_node.get(node.0 as usize);
        (positions.into_iter().flatten()).map(|&pos| &self.jobs[pos as usize])
    }

    /// Truncates every job running on `node` at `t` with a node-fail end.
    /// Returns the ids of the jobs affected, in `(start, id)` order.
    pub fn fail_node_at(&mut self, node: NodeId, t: SimTime) -> Vec<JobId> {
        let mut hit = Vec::new();
        for &pos in self.by_node.get(node.0 as usize).into_iter().flatten() {
            let j = &mut self.jobs[pos as usize];
            if j.active_at(t) {
                j.fail_at(t);
                hit.push(j.id);
            }
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, nodes: &[u32], start_ms: u64, end_ms: u64) -> Job {
        Job {
            id: JobId(id),
            apid: Apid(id * 10),
            user: 1000,
            app: AppKind::MpiSimulation,
            nodes: nodes.iter().copied().map(NodeId).collect(),
            mem_per_node_mib: 32_768,
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(end_ms),
            end_reason: JobEndReason::Completed,
            exit_code: 0,
            overallocated_nodes: Vec::new(),
        }
    }

    #[test]
    fn active_on_is_half_open() {
        let j = job(1, &[5], 100, 200);
        assert!(!j.active_on(NodeId(5), SimTime::from_millis(99)));
        assert!(j.active_on(NodeId(5), SimTime::from_millis(100)));
        assert!(j.active_on(NodeId(5), SimTime::from_millis(199)));
        assert!(!j.active_on(NodeId(5), SimTime::from_millis(200)));
        assert!(!j.active_on(NodeId(6), SimTime::from_millis(150)));
    }

    #[test]
    fn fail_at_truncates_once() {
        let mut j = job(1, &[5], 100, 200);
        j.fail_at(SimTime::from_millis(150));
        assert_eq!(j.end, SimTime::from_millis(150));
        assert_eq!(j.end_reason, JobEndReason::NodeFail);
        // A later failure does not extend it back.
        j.fail_at(SimTime::from_millis(180));
        assert_eq!(j.end, SimTime::from_millis(150));
    }

    #[test]
    fn timeline_lookup() {
        let t = JobTimeline::from_jobs(vec![job(2, &[1, 2], 50, 150), job(1, &[3], 0, 100)]);
        assert_eq!(t.len(), 2);
        // Sorted by start.
        assert_eq!(t.jobs()[0].id, JobId(1));
        assert_eq!(
            t.job_on(NodeId(2), SimTime::from_millis(60)).unwrap().id,
            JobId(2)
        );
        assert!(t.job_on(NodeId(2), SimTime::from_millis(10)).is_none());
        assert_eq!(t.active_at(SimTime::from_millis(60)).count(), 2);
        assert_eq!(t.jobs_touching(NodeId(3)).count(), 1);
        assert!(t.get(JobId(2)).is_some());
        assert!(t.get(JobId(99)).is_none());
    }

    #[test]
    fn fail_node_truncates_hosted_jobs() {
        let mut t = JobTimeline::from_jobs(vec![
            job(1, &[1, 2], 0, 100),
            job(2, &[2], 150, 300),
            job(3, &[9], 0, 100),
        ]);
        let hit = t.fail_node_at(NodeId(2), SimTime::from_millis(50));
        assert_eq!(hit, vec![JobId(1)]);
        assert_eq!(t.get(JobId(1)).unwrap().end_reason, JobEndReason::NodeFail);
        assert_eq!(t.get(JobId(2)).unwrap().end_reason, JobEndReason::Completed);
        assert_eq!(t.get(JobId(3)).unwrap().end_reason, JobEndReason::Completed);
    }

    /// The pre-index answers: every job, every node list, in order.
    fn linear_job_on(t: &JobTimeline, node: NodeId, at: SimTime) -> Option<JobId> {
        let first = t.jobs().iter().find(|j| j.active_on(node, at));
        first.map(|j| j.id)
    }

    fn linear_fail_node_at(jobs: &mut [Job], node: NodeId, at: SimTime) -> Vec<JobId> {
        let mut hit = Vec::new();
        for j in jobs.iter_mut().filter(|j| j.active_on(node, at)) {
            j.fail_at(at);
            hit.push(j.id);
        }
        hit
    }

    #[test]
    fn indexed_lookups_match_the_linear_scans() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Twelve nodes and 200 ms of starts: overlaps, equal starts and
            // a node listed twice are all common.
            let mut random_job = |id: u64| {
                let width = rng.gen_range(1..=4);
                let nodes: Vec<u32> = (0..width).map(|_| rng.gen_range(0..12)).collect();
                let start = rng.gen_range(0..200);
                job(id, &nodes, start, start + rng.gen_range(1..80))
            };
            let mut t = JobTimeline::from_jobs((1..=70).map(&mut random_job).collect());
            let mut reference = t.jobs().to_vec();
            assert!(reference
                .windows(2)
                .all(|w| (w[0].start, w[0].id) < (w[1].start, w[1].id)));

            for round in 0..40 {
                let node = NodeId(rng.gen_range(0..14));
                let at = SimTime::from_millis(rng.gen_range(0..300));
                assert_eq!(
                    t.job_on(node, at).map(|j| j.id),
                    linear_job_on(&t, node, at),
                    "seed {seed} round {round}: job_on({node}, {at})"
                );
                let touching: Vec<JobId> = t.jobs_touching(node).map(|j| j.id).collect();
                let linear: Vec<JobId> = (t.jobs().iter())
                    .filter(|j| j.nodes.contains(&node))
                    .map(|j| j.id)
                    .collect();
                assert_eq!(touching, linear);
                // Truncation moves ends; later rounds query the amended jobs.
                assert_eq!(
                    t.fail_node_at(node, at),
                    linear_fail_node_at(&mut reference, node, at),
                    "seed {seed} round {round}: fail_node_at({node}, {at})"
                );
                assert_eq!(t.jobs(), &reference[..]);
            }
            for id in 0..=71 {
                let linear = t.jobs().iter().find(|j| j.id == JobId(id));
                assert_eq!(t.get(JobId(id)), linear);
            }
        }
    }

    #[test]
    fn exit_codes_match_reasons() {
        assert_eq!(Job::exit_code_for(JobEndReason::Completed), 0);
        assert_ne!(Job::exit_code_for(JobEndReason::AppError), 0);
        assert_eq!(Job::exit_code_for(JobEndReason::NodeFail), -11);
    }
}
