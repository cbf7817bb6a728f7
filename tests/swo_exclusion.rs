//! SWO handling end-to-end: injected system-wide outages are recognised
//! from the logs and excluded from the node-failure population, mirroring
//! §III of the paper.

use hpc_node_failures::diagnosis::swo::intended_shutdown_count;
use hpc_node_failures::diagnosis::{Diagnosis, DiagnosisConfig};
use hpc_node_failures::faultsim::{Family, Scenario};
use hpc_node_failures::platform::SystemId;

fn swo_scenario(seed: u64) -> Scenario {
    let mut sc = Scenario::new(SystemId::S1, 2, 14, seed);
    sc.config.rates[Family::Swo] = 0.15; // ~2 SWOs over two weeks
    sc
}

#[test]
fn anomalous_swos_are_recognised_and_excluded() {
    let out = swo_scenario(1).run();
    let anomalous_swos = out.truth.swos.iter().filter(|s| !s.intended).count();
    let intended_swos = out.truth.swos.iter().filter(|s| s.intended).count();
    assert!(
        anomalous_swos + intended_swos > 0,
        "no SWOs injected at rate 0.15/day over 14 days"
    );

    let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
    // Every anomalous injected SWO shows up as a recognised window.
    assert!(
        d.swos.len() >= anomalous_swos,
        "recognised {} SWOs, injected {anomalous_swos} anomalous",
        d.swos.len()
    );
    if anomalous_swos > 0 {
        assert!(!d.swo_failures.is_empty());
        // SWO-swallowed failures dwarf any single regular burst.
        let biggest = d.swos.iter().map(|w| w.failures).max().unwrap();
        assert!(biggest >= 20, "largest SWO swallowed only {biggest}");
    }

    // Regular failure population matches the injected (non-SWO) one.
    let diff = (d.failures.len() as i64 - out.truth.failures.len() as i64).abs();
    assert!(
        diff <= (out.truth.failures.len() / 5 + 5) as i64,
        "regular failures {} vs injected {}",
        d.failures.len(),
        out.truth.failures.len()
    );
}

#[test]
fn intended_shutdowns_never_become_failures() {
    let out = swo_scenario(2).run();
    let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
    let intended = intended_shutdown_count(d.events());
    if out.truth.swos.iter().any(|s| s.intended) {
        // An intended SWO gracefully shuts down ~40–70% of 384 nodes.
        assert!(intended > 100, "only {intended} intended shutdowns seen");
    }
    // None of them are in the failure list (graceful shutdown is excluded
    // at detection).
    // Regular failures still present and bounded.
    assert!(!d.failures.is_empty());
}

#[test]
fn swo_exclusion_can_be_disabled() {
    let out = swo_scenario(3).run();
    let with = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
    let without = Diagnosis::from_archive(
        &out.archive,
        DiagnosisConfig {
            exclude_swos: false,
            ..DiagnosisConfig::default()
        },
    );
    assert!(without.swos.is_empty());
    assert_eq!(
        without.failures.len(),
        with.failures.len() + with.swo_failures.len()
    );
}

#[test]
fn baseline_scenarios_have_no_swos() {
    let out = Scenario::new(SystemId::S1, 2, 7, 4).run();
    assert!(out.truth.swos.is_empty());
    let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
    assert!(d.swos.is_empty(), "false SWO on baseline: {:?}", d.swos);
    assert!(d.swo_failures.is_empty());
}
