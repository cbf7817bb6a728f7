//! Edge-case and invariant tests for scenario orchestration.

use hpc_faultsim::scenario::RECOVERY_HOURS;
use hpc_faultsim::{Family, Rates, Scenario, ScenarioConfig, TrueRootCause};
use hpc_logs::event::{LogSource, Payload, SchedulerDetail};
use hpc_platform::{SystemId, Topology};

/// A config with every fault/noise family disabled.
fn silent_config() -> ScenarioConfig {
    ScenarioConfig {
        rates: Rates::SILENT,
        chatty_blades: 0,
        ..ScenarioConfig::default()
    }
}

#[test]
fn silent_config_yields_scheduler_only_logs() {
    let mut sc = Scenario::new(SystemId::S1, 1, 3, 1);
    sc.config = silent_config();
    let out = sc.run();
    assert!(out.truth.failures.is_empty());
    assert!(out.truth.swos.is_empty());
    assert!(out.truth.benign_nhfs.is_empty());
    assert_eq!(out.archive.stats(LogSource::Console).lines, 0);
    assert_eq!(out.archive.stats(LogSource::Controller).lines, 0);
    assert_eq!(out.archive.stats(LogSource::Erd).lines, 0);
    // Jobs still run.
    assert!(out.archive.stats(LogSource::Scheduler).lines > 100);
    // No job ends in node_fail without failures.
    let (events, _) = out.archive.parse_source(LogSource::Scheduler);
    for e in &events {
        if let Payload::Scheduler {
            detail: SchedulerDetail::JobEnd { reason, .. },
        } = &e.payload
        {
            assert_ne!(
                *reason,
                hpc_logs::event::JobEndReason::NodeFail,
                "node_fail end without any failure"
            );
        }
    }
}

#[test]
fn single_blade_machine_works() {
    let mut sc = Scenario::new(SystemId::S1, 1, 2, 2);
    sc.topology = {
        let mut profile = SystemId::S1.profile();
        profile.nodes = 4; // one blade
        Topology::new(profile)
    };
    sc.workload.arrivals_per_hour = 4.0;
    let out = sc.run();
    // Everything stays within the 4-node machine.
    for f in &out.truth.failures {
        assert!(f.node.0 < 4);
    }
    assert!(out.archive.total_lines() > 0);
    let parsed = out.archive.parse_merged();
    assert_eq!(parsed.skipped_lines, 0);
}

#[test]
fn zero_day_horizon_is_empty_but_valid() {
    let sc = Scenario::new(SystemId::S1, 1, 0, 3);
    let out = sc.run();
    assert!(out.truth.failures.is_empty());
    assert_eq!(out.timeline.len(), 0);
    assert_eq!(out.archive.total_lines(), 0);
}

#[test]
fn failure_margin_prevents_clamped_leads() {
    // Failures never start before 3 h in, so precursor timestamps are never
    // clamped to the epoch.
    let out = Scenario::new(SystemId::S1, 2, 7, 4).run();
    for f in &out.truth.failures {
        assert!(
            f.time.as_millis() >= 3 * 3_600_000,
            "failure at {} inside the margin",
            f.time
        );
        if let Some(ext) = f.external_indicator {
            assert!(ext.as_millis() > 0, "clamped external indicator");
        }
    }
}

#[test]
fn per_family_rates_drive_cause_mix() {
    // Only app-exit bursts enabled → every failure is AppAbnormalExit.
    let mut sc = Scenario::new(SystemId::S1, 2, 14, 5);
    sc.config = ScenarioConfig {
        rates: Rates::SILENT.with(&[(Family::AppExit, 0.5)]),
        ..silent_config()
    };
    let out = sc.run();
    assert!(
        !out.truth.failures.is_empty(),
        "no app-exit failures injected"
    );
    for f in &out.truth.failures {
        assert_eq!(f.cause, TrueRootCause::AppAbnormalExit);
        assert!(f.job.is_some());
    }
}

#[test]
fn recovery_window_blocks_immediate_refailure() {
    let mut sc = Scenario::new(SystemId::S1, 1, 28, 6);
    // Aggressive single-family hammering on a small machine.
    sc.config = ScenarioConfig {
        rates: Rates::SILENT.with(&[(Family::FatalMce, 6.0)]),
        hw_cluster_nodes: (1, 1),
        ..silent_config()
    };
    let out = sc.run();
    let mut per_node: std::collections::BTreeMap<_, Vec<_>> = Default::default();
    for f in &out.truth.failures {
        per_node.entry(f.node).or_default().push(f.time);
    }
    let (lo, _) = RECOVERY_HOURS;
    for times in per_node.values() {
        for w in times.windows(2) {
            assert!(
                w[1].since(w[0]).as_hours_f64() >= lo - 1e-9,
                "node refailed within the recovery window"
            );
        }
    }
}

#[test]
fn truth_and_archive_are_internally_consistent() {
    let out = Scenario::new(SystemId::S3, 2, 10, 7).run();
    // Every app-triggered failure's job exists and covers the node.
    for f in &out.truth.failures {
        if let Some(job_id) = f.job {
            let job = out.timeline.get(job_id).expect("job in timeline");
            assert!(job.nodes.contains(&f.node));
        }
    }
    // Archive parses cleanly and chronologically.
    let parsed = out.archive.parse_merged();
    assert_eq!(parsed.skipped_lines, 0);
    assert!(parsed.events.windows(2).all(|w| w[0].time <= w[1].time));
}
