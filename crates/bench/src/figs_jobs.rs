//! Figures 12, 15, 16, 17 — job-centred experiments.

use std::fmt::Write;

use hpc_diagnosis::jobs::{exit_census_daily, overallocation_analysis, JobLog};
use hpc_diagnosis::root_cause::{CauseBreakdown, Fig16Bucket, PatternCensus};
use hpc_platform::SystemId;

use crate::common::{header, run_and_diagnose, s5_scenario, scenario};

/// Fig. 12 — job exit-status census over 3 days, S1.
pub fn fig12() -> String {
    let mut s = header(
        "fig12",
        "Job exit status per day (S1, 3 days)",
        "90.43%–95.71% of jobs succeed; 0.06%–6.02% non-zero exits, mostly configuration errors",
    );
    let (_, d) = run_and_diagnose(&scenario(SystemId::S1, 3, 12));
    let jobs = JobLog::from_diagnosis(&d);
    s.push_str("  day | jobs | success | nonzero | config-err | node-fail | app-bug\n");
    for day in exit_census_daily(&jobs) {
        let _ = writeln!(
            s,
            "  {:>3} | {:>4} | {:>6.2}% | {:>6.2}% | {:>10} | {:>9} | {:>7}",
            day.day,
            day.total,
            day.success_percent(),
            day.nonzero_percent(),
            day.config_error,
            day.node_fail,
            day.app_error
        );
    }
    s
}

/// Fig. 15 — S5 call-trace pattern census over one month.
pub fn fig15() -> String {
    let mut s = header(
        "fig15",
        "Node pattern census (S5 institutional cluster, 1 month, 520 nodes)",
        "hung-task 80.57%, OOM 10.59%, Lustre 5.04%, software 2.16%, hardware 1.43% of nodes",
    );
    let (out, d) = run_and_diagnose(&s5_scenario(30, 15));
    let census = PatternCensus::compute(&d);
    let population = out.topology.node_count() as usize;
    for (label, count, paper) in [
        ("hung-task timeout", census.hung_task, 80.57),
        ("out-of-memory", census.oom, 10.59),
        ("Lustre errors", census.lustre, 5.04),
        ("software errors", census.software, 2.16),
        ("hardware (GPU/disk)", census.hardware, 1.43),
    ] {
        let _ = writeln!(
            s,
            "  {:<22} {:>5.2}% of nodes (paper {paper}%)",
            label,
            census.percent_of(count, population)
        );
    }
    let _ = writeln!(
        s,
        "  nodes with any console activity: {}",
        census.nodes_seen
    );
    s
}

/// Fig. 16 — failure root-cause breakdown, S2.
pub fn fig16() -> String {
    let mut s = header(
        "fig16",
        "Failure breakdown (S2, 8 weeks)",
        "APP-EXIT 37.5%, FSBUG 26.78%, MEM 16.07%, KBUG 7.14%, Others 12.5%",
    );
    let (_, d) = run_and_diagnose(&scenario(SystemId::S2, 56, 77));
    let b = CauseBreakdown::compute(&d);
    for bucket in Fig16Bucket::ALL {
        let paper = match bucket {
            Fig16Bucket::AppExit => 37.5,
            Fig16Bucket::KernelBug => 7.14,
            Fig16Bucket::FsBug => 26.78,
            Fig16Bucket::Memory => 16.07,
            Fig16Bucket::Others => 12.5,
        };
        let _ = writeln!(
            s,
            "  {:<9} {:>5.1}%   (paper {paper}%)",
            bucket.name(),
            b.bucket_percent(bucket)
        );
    }
    let _ = writeln!(s, "  failures classified: {}", b.total);
    s
}

/// Fig. 17 — memory overallocation: per-job overallocated vs failed nodes.
pub fn fig17() -> String {
    let mut s = header(
        "fig17",
        "Memory overallocation forensics (Slurm bug)",
        "53 failures over 16 jobs; J5/J8 lose all overallocated nodes, J1 loses 1 of 600, J16 6 of 683",
    );
    // One day, few but wide jobs, most of them overallocating — the shape
    // of the paper's incident day (16 jobs, 53 failures).
    let mut sc = scenario(SystemId::S1, 1, 1717);
    sc.topology = hpc_platform::Topology::miniature(SystemId::S1, 3);
    sc.workload.arrivals_per_hour = 1.3;
    sc.workload.large_job_prob = 0.8;
    sc.workload.large_nodes = (48, 280);
    sc.workload.mean_duration_mins = 260.0;
    sc.workload.overalloc_job_prob = 0.7;
    sc.config.overalloc_node_fail_prob = (0.01, 0.3);
    let (_, d) = run_and_diagnose(&sc);
    let jobs = JobLog::from_diagnosis(&d);
    let mut rows = overallocation_analysis(&d, &jobs);
    rows.sort_by_key(|r| r.job);
    s.push_str("  job    | allocated | overallocated | failed (overallocated)\n");
    let mut total = 0;
    for r in &rows {
        let _ = writeln!(
            s,
            "  J{:<5} | {:>9} | {:>13} | {:>6}",
            r.job, r.allocated, r.overallocated, r.failed_overallocated
        );
        total += r.failed_overallocated;
    }
    let _ = writeln!(
        s,
        "  {} overallocating jobs; {} overallocation-driven failures",
        rows.len(),
        total
    );
    s
}
