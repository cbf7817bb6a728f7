//! End-to-end integration: scenario → text archive → diagnosis, checked
//! for determinism and the paper's shape. Scoring against the injected
//! ground truth lives in `crates/bench/tests/accuracy.rs`.

use hpc_node_failures::diagnosis::root_cause::{classify_all, CauseClass};
use hpc_node_failures::diagnosis::{Diagnosis, DiagnosisConfig};
use hpc_node_failures::faultsim::Scenario;
use hpc_node_failures::platform::SystemId;

#[test]
fn diagnosis_is_deterministic_end_to_end() {
    let run = |seed| {
        let out = Scenario::new(SystemId::S1, 2, 5, seed).run();
        let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
        (
            out.archive.total_lines(),
            d.failures.clone(),
            d.events().len(),
        )
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7).1, run(8).1);
}

#[test]
fn app_triggered_share_is_substantial() {
    // The paper's headline: "the underlying root cause often lies in the
    // application malfunctioning".
    let out = Scenario::new(SystemId::S1, 2, 21, 9).run();
    let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
    let classified = classify_all(&d);
    let app = classified
        .iter()
        .filter(|(_, c)| c.class() == CauseClass::Application)
        .count();
    let share = app as f64 / classified.len() as f64;
    assert!(
        (0.15..=0.65).contains(&share),
        "application share {share} out of band"
    );
}

#[test]
fn s5_pipeline_works_without_environmental_streams() {
    let mut sc = Scenario::new(SystemId::S5, 1, 7, 55);
    sc.topology = hpc_node_failures::platform::Topology::of(SystemId::S5);
    let out = sc.run();
    let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
    assert_eq!(d.skipped_lines, 0);
    // Lead-time enhancement is (almost) impossible without external logs.
    let leads = hpc_node_failures::diagnosis::lead_time::lead_times(&d);
    let enhanceable = leads.iter().filter(|r| r.enhanceable()).count();
    assert!(
        enhanceable as f64 <= 0.25 * leads.len().max(1) as f64,
        "{enhanceable}/{} enhanceable without environmental logs",
        leads.len()
    );
}
