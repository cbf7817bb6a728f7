//! Memory-overallocation forensics (Fig. 17): a day where Slurm granted
//! more memory than nodes physically have, and the per-job count of
//! overallocated vs failed nodes.
//!
//! ```text
//! cargo run --release --example overallocation_forensics
//! ```

use hpc_node_failures::diagnosis::jobs::{overallocation_analysis, JobLog};
use hpc_node_failures::diagnosis::{Diagnosis, DiagnosisConfig};
use hpc_node_failures::faultsim::Scenario;
use hpc_node_failures::platform::SystemId;

fn main() {
    // A scenario with the Slurm overallocation bug switched on and wide
    // jobs, mirroring the paper's day with 53 failures over 16 jobs.
    let mut sc = Scenario::new(SystemId::S1, 3, 2, 1717);
    sc.workload.overalloc_job_prob = 0.28;
    sc.workload.large_job_prob = 0.35;
    sc.workload.large_nodes = (32, 220);
    sc.workload.arrivals_per_hour = 12.0;
    let out = sc.run();

    let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
    let jobs = JobLog::from_diagnosis(&d);
    let mut rows = overallocation_analysis(&d, &jobs);
    rows.sort_by_key(|r| r.job);

    println!("job   | allocated | overallocated | failed (overallocated)");
    println!("------+-----------+---------------+-----------------------");
    let mut total_failed = 0;
    for r in &rows {
        println!(
            "J{:<4} | {:>9} | {:>13} | {:>6}",
            r.job, r.allocated, r.overallocated, r.failed_overallocated
        );
        total_failed += r.failed_overallocated;
    }
    println!(
        "\n{} overallocating jobs, {} overallocation-driven node failures",
        rows.len(),
        total_failed
    );
    println!(
        "(paper, Fig. 17: 53 failures over 16 jobs; J5/J8 lost every \
         overallocated node, J1 lost 1 of 600)"
    );
}
