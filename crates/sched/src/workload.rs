//! Workload generation: Poisson job arrivals over a simulated window.
//!
//! The generator produces the job population behind Fig. 12 (exit-status
//! census: >90% success, a small configuration-error tail), Fig. 15/16
//! (app-triggered failure material) and Fig. 17 (memory-overallocating
//! jobs). Node failures are *not* decided here — `hpc-faultsim` injects
//! incidents against the running jobs and truncates them afterwards.

use rand::Rng;

use hpc_logs::event::{Apid, AppKind, JobEndReason, JobId};
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::rng::{chance, exp_sample, sample_subset, weighted_index};
use hpc_platform::Topology;

use crate::allocator::Allocator;
use crate::job::{Job, JobTimeline};

/// Weights of non-failure job outcomes (node-fail ends are applied later by
/// the fault simulator). Tuned to Fig. 12: "90.43% to 95.71% of the jobs
/// complete successfully … 0.06% to 6.02% finish with non-zero exit
/// codes", with most of the erroneous ones being configuration errors
/// (wall-time, memory limit, user cancel); the rest are application bugs.
const END_MIX: [(JobEndReason, f64); 5] = [
    (JobEndReason::Completed, 93.0),
    (JobEndReason::WallTimeExceeded, 2.4),
    (JobEndReason::MemoryLimitExceeded, 1.6),
    (JobEndReason::UserCancelled, 1.8),
    (JobEndReason::AppError, 1.2),
];

/// Most jobs are small: size is 1 + geometric-ish up to this cap.
const MAX_SMALL_NODES: u32 = 8;
/// Jobs run at least this many minutes.
const MIN_DURATION_MINS: f64 = 4.0;
/// Physical node memory in MiB: an overallocating job requests twice it.
pub const NODE_MEM_MIB: u32 = 65_536;
/// Fraction range of an overallocating job's nodes that actually get an
/// overcommitted allocation ("a subset of them suffer resource
/// overallocation errors").
const OVERALLOC_NODE_FRAC: (f64, f64) = (0.15, 1.0);
/// Distinct submitting users.
const USERS: u32 = 120;
/// Relative weights of [`AppKind::ALL`].
const APP_WEIGHTS: [f64; AppKind::ALL.len()] = [4.0, 1.0, 1.5, 2.0, 2.0, 1.0];

/// Workload generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Mean job arrivals per hour.
    pub arrivals_per_hour: f64,
    /// Probability a job is "large".
    pub large_job_prob: f64,
    /// Large job size range (inclusive).
    pub large_nodes: (u32, u32),
    /// Mean job duration in minutes (exponential, floored at
    /// `MIN_DURATION_MINS`).
    pub mean_duration_mins: f64,
    /// Probability a job requests more memory than a node has — the
    /// Fig. 17 Slurm overallocation bug. Zero in baseline scenarios.
    pub overalloc_job_prob: f64,
}

impl Default for WorkloadConfig {
    fn default() -> WorkloadConfig {
        WorkloadConfig {
            arrivals_per_hour: 40.0,
            large_job_prob: 0.06,
            large_nodes: (16, 96),
            mean_duration_mins: 75.0,
            overalloc_job_prob: 0.0,
        }
    }
}

/// Generates a job timeline over `[0, horizon)` against a topology.
///
/// Jobs that cannot be placed (machine full) are dropped, as a backlogged
/// queue would be; the paper's analyses do not depend on queueing delay.
pub fn generate_workload<R: Rng + ?Sized>(
    topology: &Topology,
    config: &WorkloadConfig,
    horizon: SimDuration,
    rng: &mut R,
) -> JobTimeline {
    let _span = hpc_telemetry::span!("sched.workload.generate");
    let mut alloc = Allocator::new(topology);
    let mut jobs = Vec::new();
    let mut next_id: u64 = 1;
    let mean_gap_ms = 3_600_000.0 / config.arrivals_per_hour;
    let mut t_ms = exp_sample(rng, mean_gap_ms);

    while (t_ms as u64) < horizon.as_millis() {
        let start = SimTime::from_millis(t_ms as u64);
        let size = sample_size(config, topology, rng);
        let dur_mins = exp_sample(rng, config.mean_duration_mins).max(MIN_DURATION_MINS);
        let end = start + SimDuration::from_millis((dur_mins * 60_000.0) as u64);

        if let Some(nodes) = alloc.allocate(size as usize, start, end) {
            let overallocating = chance(rng, config.overalloc_job_prob);
            let (mem, over_nodes) = if overallocating {
                let mem = NODE_MEM_MIB * 2;
                let frac = rng.gen_range(OVERALLOC_NODE_FRAC.0..=OVERALLOC_NODE_FRAC.1);
                let k = ((nodes.len() as f64 * frac).round() as usize).max(1);
                (mem, sample_subset(rng, &nodes, k))
            } else {
                // 25–90% of node memory.
                let frac = rng.gen_range(0.25..0.9);
                ((NODE_MEM_MIB as f64 * frac) as u32, Vec::new())
            };
            let weights = END_MIX.map(|(_, weight)| weight);
            let reason = END_MIX[weighted_index(rng, &weights)].0;
            jobs.push(Job {
                id: JobId(next_id),
                apid: Apid(100_000 + next_id),
                user: 1_000 + rng.gen_range(0..USERS),
                app: AppKind::ALL[weighted_index(rng, &APP_WEIGHTS)],
                nodes,
                mem_per_node_mib: mem,
                start,
                end,
                end_reason: reason,
                exit_code: Job::exit_code_for(reason),
                overallocated_nodes: over_nodes,
            });
            next_id += 1;
        }
        t_ms += exp_sample(rng, mean_gap_ms);
    }
    hpc_telemetry::counter("sched.jobs_generated").add(jobs.len() as u64);
    JobTimeline::from_jobs(jobs)
}

fn sample_size<R: Rng + ?Sized>(config: &WorkloadConfig, topology: &Topology, rng: &mut R) -> u32 {
    let cap = topology.node_count();
    let size = if chance(rng, config.large_job_prob) {
        rng.gen_range(config.large_nodes.0..=config.large_nodes.1)
    } else {
        // Geometric-ish small sizes: mostly 1–2 nodes.
        let mut s = 1;
        while s < MAX_SMALL_NODES && chance(rng, 0.45) {
            s *= 2;
        }
        rng.gen_range(1..=s)
    };
    size.min(cap.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_platform::SystemId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(seed: u64, cfg: &WorkloadConfig) -> JobTimeline {
        let topo = Topology::miniature(SystemId::S1, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        generate_workload(&topo, cfg, SimDuration::from_days(2), &mut rng)
    }

    #[test]
    fn generates_a_plausible_population() {
        let tl = run(7, &WorkloadConfig::default());
        // ~40 arrivals/hour * 48h, minus placement failures.
        assert!(tl.len() > 800, "got {} jobs", tl.len());
        for j in tl.jobs() {
            assert!(j.start < j.end);
            assert!(!j.nodes.is_empty());
            assert!(j.exit_code == Job::exit_code_for(j.end_reason));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run(42, &WorkloadConfig::default());
        let b = run(42, &WorkloadConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn success_rate_matches_fig12_band() {
        let tl = run(11, &WorkloadConfig::default());
        let ok = tl
            .jobs()
            .iter()
            .filter(|j| j.end_reason == JobEndReason::Completed)
            .count() as f64;
        let pct = 100.0 * ok / tl.len() as f64;
        assert!(
            (88.0..=97.0).contains(&pct),
            "success rate {pct}% outside Fig. 12 band"
        );
    }

    #[test]
    fn no_node_runs_two_jobs_at_once() {
        let tl = run(3, &WorkloadConfig::default());
        // Sample a handful of instants and check exclusivity.
        for ms in (0..48 * 3_600_000).step_by(7_200_000) {
            let t = SimTime::from_millis(ms);
            let mut seen = std::collections::BTreeSet::new();
            for j in tl.active_at(t) {
                for n in &j.nodes {
                    assert!(seen.insert(*n), "node {n} double-booked at {t}");
                }
            }
        }
    }

    #[test]
    fn overallocation_flags_subset_of_nodes() {
        let cfg = WorkloadConfig {
            overalloc_job_prob: 1.0,
            ..WorkloadConfig::default()
        };
        let tl = run(5, &cfg);
        assert!(!tl.is_empty());
        for j in tl.jobs() {
            assert!(
                j.mem_per_node_mib > NODE_MEM_MIB,
                "overallocating job requests more than node memory"
            );
            assert!(!j.overallocated_nodes.is_empty());
            for n in &j.overallocated_nodes {
                assert!(j.nodes.contains(n));
            }
        }
    }

    #[test]
    fn baseline_has_no_overallocation() {
        let tl = run(9, &WorkloadConfig::default());
        assert!(tl.jobs().iter().all(|j| j.overallocated_nodes.is_empty()));
    }
}
