//! Shared scenario builders and formatting helpers for the experiment
//! harness.
//!
//! Every experiment runs a *seeded* scenario (reproducible output) on a
//! miniature topology, diagnoses the rendered text archive, and prints the
//! measured series next to the paper's reported values. EXPERIMENTS.md
//! records one captured run.

use hpc_diagnosis::{Diagnosis, DiagnosisConfig};
use hpc_faultsim::{Scenario, SimOutput};
use hpc_platform::{SystemId, Topology};

/// Standard miniature size used by most experiments (2 cabinets = 384
/// nodes).
pub const CABINETS: u32 = 2;

/// Runs a scenario and diagnoses its archive.
pub fn run_and_diagnose(scenario: &Scenario) -> (SimOutput, Diagnosis) {
    let out = scenario.run();
    let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
    (out, d)
}

/// Standard per-system scenario.
pub fn scenario(system: SystemId, days: u64, seed: u64) -> Scenario {
    Scenario::new(system, CABINETS, days, seed)
}

/// S5 runs on its full (small) 520-node topology, as in the paper.
pub fn s5_scenario(days: u64, seed: u64) -> Scenario {
    let mut sc = Scenario::new(SystemId::S5, 1, days, seed);
    sc.topology = Topology::of(SystemId::S5);
    sc
}

/// Mega-burst variant used by the inter-arrival figures (3, 19).
///
/// The paper's weekly MTBFs of 1.5–12 minutes imply that essentially *all*
/// of a week's failures arrive in one or two large same-cause bursts (40
/// failures at MTBF 1.5 min span barely an hour). This preset suppresses
/// background singleton incidents and injects rare, wide application bursts
/// against large jobs.
pub fn mega_burst_scenario(system: SystemId, days: u64, seed: u64) -> Scenario {
    let mut sc = scenario(system, days, seed);
    let c = &mut sc.config;
    c.rate_fatal_mce = 0.04;
    c.rate_cpu_corruption = 0.02;
    c.rate_mem_fail_slow = 0.02;
    c.rate_nvf = 0.02;
    c.rate_lustre_bug = 0.04;
    c.rate_kernel_bug = 0.02;
    c.rate_driver_firmware = 0.02;
    c.rate_unknown_bios = 0.01;
    c.rate_unknown_l0 = 0.01;
    c.rate_operator = 0.01;
    c.rate_blade_failure = 0.03;
    c.rate_app_oom = 0.06;
    c.rate_app_exit = 0.08;
    c.rate_app_fs = 0.05;
    c.app_burst_nodes = (12, 30);
    c.app_burst_window_mins = 10.0;
    sc.workload.large_job_prob = 0.25;
    sc.workload.large_nodes = (32, 160);
    sc.workload.mean_duration_mins = 150.0;
    sc
}

/// Clustered variant for Fig. 4: one or two same-cause incident clusters
/// dominate each day's failures (65–82% dominant share in the paper).
pub fn clustered_scenario(system: SystemId, days: u64, seed: u64) -> Scenario {
    let mut sc = scenario(system, days, seed);
    let c = &mut sc.config;
    c.rate_fatal_mce = 0.20;
    c.rate_cpu_corruption = 0.06;
    c.rate_mem_fail_slow = 0.06;
    c.rate_nvf = 0.03;
    c.rate_lustre_bug = 0.20;
    c.rate_kernel_bug = 0.10;
    c.rate_driver_firmware = 0.10;
    c.rate_unknown_bios = 0.01;
    c.rate_unknown_l0 = 0.01;
    c.rate_operator = 0.01;
    c.rate_blade_failure = 0.04;
    c.rate_app_oom = 0.12;
    c.rate_app_exit = 0.14;
    c.rate_app_fs = 0.10;
    c.hw_cluster_nodes = (3, 8);
    c.hw_cluster_window_mins = 90.0;
    c.app_burst_nodes = (4, 10);
    sc.workload.large_job_prob = 0.18;
    sc.workload.large_nodes = (16, 96);
    sc
}

/// Section header for experiment output.
pub fn header(id: &str, title: &str, paper: &str) -> String {
    format!(
        "================================================================\n\
         {id} — {title}\n\
         paper: {paper}\n\
         ----------------------------------------------------------------\n"
    )
}
