//! End-to-end integration: scenario → text archive → diagnosis, checked
//! for determinism and the paper's shape. Scoring against the injected
//! ground truth lives in `crates/bench/tests/accuracy.rs`.

use hpc_node_failures::diagnosis::root_cause::{classify_all, CauseClass};
use hpc_node_failures::diagnosis::swo::SwoWindow;
use hpc_node_failures::diagnosis::{DetectedFailure, Diagnosis, DiagnosisConfig};
use hpc_node_failures::faultsim::Scenario;
use hpc_node_failures::logs::{LogArchive, LogEvent, SimDuration};
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
fn shifting_every_timestamp_shifts_the_diagnosis_by_the_same_amount() {
    // A metamorphic relation: the diagnosis depends on time only through
    // differences, so moving the whole archive moves every failure and
    // SWO by exactly the shift and changes nothing else. Both sides are
    // re-rendered from the parsed events, so a render round-trip
    // difference cannot enter the comparison.
    let out = Scenario::new(SystemId::S1, 2, 5, 42).run();
    let events = out.archive.parse_merged().events;
    // 3 h 17 min 23.456 s: not a whole number of seconds, minutes or days.
    let shift = SimDuration::from_millis(((3 * 60 + 17) * 60 + 23) * 1000 + 456);
    let diagnose = |shift: SimDuration| {
        let mut archive = LogArchive::new(out.archive.scheduler());
        for e in &events {
            archive.append_event(&LogEvent {
                time: e.time + shift,
                ..e.clone()
            });
        }
        Diagnosis::from_archive(&archive, DiagnosisConfig::default())
    };
    let (base, moved) = (diagnose(SimDuration::ZERO), diagnose(shift));
    assert!(!base.failures.is_empty());
    let shifted = |fs: &[DetectedFailure]| {
        fs.iter()
            .map(|f| DetectedFailure {
                time: f.time + shift,
                ..*f
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(moved.failures, shifted(&base.failures));
    assert_eq!(moved.swo_failures, shifted(&base.swo_failures));
    let swos = base.swos.iter().map(|w| SwoWindow {
        start: w.start + shift,
        end: w.end + shift,
        ..*w
    });
    assert_eq!(moved.swos, swos.collect::<Vec<_>>());
    let causes = |d: &Diagnosis| {
        classify_all(d)
            .into_iter()
            .map(|(_, c)| c)
            .collect::<Vec<_>>()
    };
    assert_eq!(causes(&moved), causes(&base));
    assert_eq!(moved.skipped_lines, base.skipped_lines);
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
