//! Diagnosis accuracy against injected ground truth, scored through
//! `hpc_bench::truth`: detection recall, root-cause agreement, measured lead
//! times and job attribution on seeded scenarios. Each floor holds for its
//! named system, size and seed.

use hpc_bench::common::run_and_diagnose;
use hpc_bench::truth::{pair, Accuracy};
use hpc_diagnosis::jobs::{shared_job_groups, JobLog};
use hpc_diagnosis::lead_time::lead_times;
use hpc_faultsim::Scenario;
use hpc_platform::SystemId;

#[test]
fn every_cray_system_diagnoses_cleanly() {
    for (system, seed) in [
        (SystemId::S1, 101u64),
        (SystemId::S2, 102),
        (SystemId::S3, 103),
        (SystemId::S4, 104),
    ] {
        let (out, d) = run_and_diagnose(&Scenario::new(system, 2, 10, seed));
        assert_eq!(d.skipped_lines, 0, "{system}: unparseable lines");
        assert!(
            !out.truth.failures.is_empty(),
            "{system}: no injected failures"
        );
        let recall = Accuracy::of(&out.truth.failures, &d).recall();
        assert!(recall > 0.95, "{system}: recall {recall}");
    }
}

#[test]
fn detected_failures_match_ground_truth() {
    let (out, d) = run_and_diagnose(&Scenario::new(SystemId::S1, 2, 7, 8));
    let acc = Accuracy::of(&out.truth.failures, &d);
    assert!(acc.recall() > 0.97, "recall {}", acc.recall());
    // And no more than a handful of spurious detections.
    assert!(acc.detected <= acc.injected + 3, "{acc:?}");
}

#[test]
fn classification_matches_ground_truth() {
    let (out, d) = run_and_diagnose(&Scenario::new(SystemId::S1, 2, 14, 21));
    let acc = Accuracy::of(&out.truth.failures, &d);
    let (exact, class) = (acc.exact_rate(), acc.class_rate());
    assert!(acc.paired > 30, "only {} failures matched", acc.paired);
    assert!(exact > 0.85, "exact agreement {exact}");
    assert!(class > 0.90, "class agreement {class}");
}

#[test]
fn class_inference_agrees_with_ground_truth_across_systems() {
    let (out, d) = run_and_diagnose(&Scenario::new(SystemId::S4, 2, 21, 4242));
    let acc = Accuracy::of(&out.truth.failures, &d);
    let class = acc.class_rate();
    assert!(acc.paired > 30, "only {} matched failures", acc.paired);
    assert!(class > 0.9, "class agreement {class}");
}

#[test]
fn measured_lead_times_track_injected_leads() {
    let (out, d) = run_and_diagnose(&Scenario::new(SystemId::S1, 2, 28, 777));
    let records = lead_times(&d);
    let mut compared = 0;
    for (record, failure) in pair(&out.truth.failures, &d.failures) {
        // Only failures whose chains carried a genuine external indicator.
        let Some(true_ext) = out.truth.failures[record].external_lead() else {
            continue;
        };
        let Some(measured) = records[failure].external else {
            continue;
        };
        // The measured lead may only exceed the injected one if a benign
        // external event coincidentally predates the chain's indicator;
        // it must never undershoot by more than the detection slop.
        compared += 1;
        assert!(
            measured.as_mins_f64() >= true_ext.as_mins_f64() - 11.0,
            "measured {measured} vs injected {true_ext}"
        );
    }
    assert!(compared > 10, "only {compared} failures compared");
}

#[test]
fn shared_job_groups_exist_for_app_bursts() {
    let (out, d) = run_and_diagnose(&Scenario::new(SystemId::S1, 2, 21, 3));
    let jobs = JobLog::from_diagnosis(&d);
    let groups = shared_job_groups(&d, &jobs, 2);
    assert!(!groups.is_empty(), "no shared-job failure groups");
    // Cross-check group members against ground truth: those failures
    // really were injected with that job.
    let pairs = pair(&out.truth.failures, &d.failures);
    let mut confirmed = 0;
    for g in &groups {
        for (node, time) in g.nodes.iter().zip(&g.times) {
            confirmed += (pairs.iter())
                .filter(|&&(record, failure)| {
                    let f = &d.failures[failure];
                    f.node == *node
                        && f.time == *time
                        && out.truth.failures[record].job == Some(g.job)
                })
                .count();
        }
    }
    assert!(confirmed >= 2, "group membership not confirmed by truth");
}
