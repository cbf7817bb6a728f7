//! External (environmental) correlation analyses.
//!
//! The controller and ERD streams are the paper's "external" evidence. This
//! module computes:
//!
//! * **Fig. 5** — the fraction of NVFs (67–97%) and NHFs (21–64%) that
//!   correspond to actual node failures within the failure horizon;
//! * **Fig. 6** — the weekly NHF outcome breakdown (failure / powered off /
//!   skipped heartbeat);
//! * **Fig. 8** — weekly counts of unique blades with SEDC warnings vs
//!   blades+cabinets with health faults;
//! * **Fig. 9** — hourly warning frequency per blade (chatty blades);
//! * **Fig. 10** — daily counts of nodes with hardware errors / MCEs /
//!   Lustre I/O errors vs failed nodes;
//! * **Fig. 11** — mean CPU temperature per node from SEDC telemetry.

use std::collections::{BTreeMap, BTreeSet};

use hpc_logs::event::{ConsoleDetail, ControllerDetail, ErdDetail, LogEvent, Payload};
use hpc_logs::time::{SimDuration, SimTime, MILLIS_PER_DAY, MILLIS_PER_WEEK};
use hpc_platform::sensors::SensorKind;
use hpc_platform::{BladeId, NodeId};
use hpc_stats::descriptive::Summary;

use crate::pipeline::Diagnosis;
use crate::store::EventClass;
use crate::windows::FAILURE_HORIZON;

/// Correspondence between a fault type and subsequent failures (Fig. 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCorrespondence {
    /// Fault occurrences observed.
    pub total: usize,
    /// Occurrences followed by a failure of the same node within the
    /// failure horizon.
    pub followed_by_failure: usize,
}

impl FaultCorrespondence {
    /// Percentage of faults corresponding to failures.
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.followed_by_failure as f64 / self.total as f64
        }
    }
}

/// The one indexed correspondence driver: walks only the posting lists of
/// `classes` (chronologically) instead of the whole event sequence, and
/// matches each fault to a subsequent failure through the store's binary-
/// searched per-node failure-time index ([`crate::store::EventStore::fails_within`]).
fn fault_correspondence(
    d: &Diagnosis,
    classes: &[EventClass],
    mut subject: impl FnMut(&LogEvent) -> Option<NodeId>,
) -> FaultCorrespondence {
    let _span = hpc_telemetry::span!("core.external.correspondence");
    let mut out = FaultCorrespondence::default();
    for e in d.store().classes_events(classes) {
        if let Some(node) = subject(e) {
            out.total += 1;
            if d.store().fails_within(node, e.time, FAILURE_HORIZON) {
                out.followed_by_failure += 1;
            }
        }
    }
    out
}

/// Fig. 5 (NVF side): node-voltage faults vs failures.
pub fn nvf_correspondence(d: &Diagnosis) -> FaultCorrespondence {
    fault_correspondence(d, &[EventClass::NodeVoltageFault], |e| match &e.payload {
        Payload::Controller {
            detail: ControllerDetail::NodeVoltageFault { node },
            ..
        } => Some(*node),
        _ => None,
    })
}

/// Fig. 5 (NHF side): node-heartbeat faults vs failures.
pub fn nhf_correspondence(d: &Diagnosis) -> FaultCorrespondence {
    fault_correspondence(d, &[EventClass::NodeHeartbeatFault], |e| match &e.payload {
        Payload::Controller {
            detail: ControllerDetail::NodeHeartbeatFault { node },
            ..
        } => Some(*node),
        _ => None,
    })
}

/// Outcome of one NHF (Fig. 6 categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NhfOutcome {
    /// The node failed within the horizon.
    Failure,
    /// The node was deliberately powered off shortly after.
    PoweredOff,
    /// Neither: a skipped heartbeat.
    SkippedHeartbeat,
}

/// Weekly NHF breakdown (Fig. 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NhfWeek {
    /// Week index.
    pub week: u64,
    /// NHFs that manifested as failures.
    pub failures: usize,
    /// NHFs explained by node power-off.
    pub powered_off: usize,
    /// Skipped heartbeats.
    pub skipped: usize,
}

impl NhfWeek {
    /// Total NHFs in the week.
    pub fn total(&self) -> usize {
        self.failures + self.powered_off + self.skipped
    }

    /// Percentage of NHFs that became failures.
    pub fn failure_percent(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.failures as f64 / self.total() as f64
        }
    }
}

/// Classifies every NHF and groups by week (Fig. 6).
pub fn nhf_breakdown_weekly(d: &Diagnosis) -> Vec<NhfWeek> {
    let mut weeks: BTreeMap<u64, NhfWeek> = BTreeMap::new();
    for e in d.store().class_events(EventClass::NodeHeartbeatFault) {
        let Payload::Controller {
            detail: ControllerDetail::NodeHeartbeatFault { node },
            ..
        } = &e.payload
        else {
            continue;
        };
        let outcome = if d.store().fails_within(*node, e.time, FAILURE_HORIZON) {
            NhfOutcome::Failure
        } else if power_off_follows(d, *node, e.time) {
            NhfOutcome::PoweredOff
        } else {
            NhfOutcome::SkippedHeartbeat
        };
        let week = e.time.as_millis() / MILLIS_PER_WEEK;
        let entry = weeks.entry(week).or_insert(NhfWeek {
            week,
            ..NhfWeek::default()
        });
        match outcome {
            NhfOutcome::Failure => entry.failures += 1,
            NhfOutcome::PoweredOff => entry.powered_off += 1,
            NhfOutcome::SkippedHeartbeat => entry.skipped += 1,
        }
    }
    weeks.into_values().collect()
}

fn power_off_follows(d: &Diagnosis, node: NodeId, t: SimTime) -> bool {
    d.node_events_between(node, t, t + SimDuration::from_hours(1))
        .any(|e| {
            matches!(
                e.payload,
                Payload::Controller {
                    detail: ControllerDetail::NodePowerOff { .. },
                    ..
                }
            )
        })
}

/// Weekly SEDC census (Fig. 8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SedcWeek {
    /// Week index.
    pub week: u64,
    /// Unique blades that logged `ec_sedc_warning`s.
    pub blades_with_warnings: usize,
    /// Unique blades + cabinets that logged health faults (controller
    /// stream).
    pub units_with_faults: usize,
}

/// Computes the Fig. 8 weekly census.
pub fn sedc_census_weekly(d: &Diagnosis) -> Vec<SedcWeek> {
    let mut warn_blades: BTreeMap<u64, BTreeSet<BladeId>> = BTreeMap::new();
    let mut fault_units: BTreeMap<u64, BTreeSet<(u8, u32)>> = BTreeMap::new();
    for e in d.store().class_events(EventClass::SedcWarning) {
        if let Payload::Erd { scope, .. } = &e.payload {
            if let Some(b) = scope.blade() {
                warn_blades
                    .entry(e.time.as_millis() / MILLIS_PER_WEEK)
                    .or_default()
                    .insert(b);
            }
        }
    }
    for e in d.store().classes_events(EventClass::CONTROLLER) {
        if let Payload::Controller { scope, .. } = &e.payload {
            let unit = match scope.blade() {
                Some(b) => (0u8, b.0),
                None => (1u8, scope.cabinet().0),
            };
            fault_units
                .entry(e.time.as_millis() / MILLIS_PER_WEEK)
                .or_default()
                .insert(unit);
        }
    }
    let weeks: BTreeSet<u64> = warn_blades
        .keys()
        .chain(fault_units.keys())
        .copied()
        .collect();
    weeks
        .into_iter()
        .map(|week| SedcWeek {
            week,
            blades_with_warnings: warn_blades.get(&week).map_or(0, BTreeSet::len),
            units_with_faults: fault_units.get(&week).map_or(0, BTreeSet::len),
        })
        .collect()
}

/// Hourly warning counts per blade for one day (Fig. 9). Returns, for each
/// blade with any warning that day, a 24-slot histogram.
pub fn hourly_blade_warnings(d: &Diagnosis, day: u64) -> BTreeMap<BladeId, [u64; 24]> {
    let from = SimTime::from_millis(day * MILLIS_PER_DAY);
    let to = SimTime::from_millis((day + 1) * MILLIS_PER_DAY);
    let mut out: BTreeMap<BladeId, [u64; 24]> = BTreeMap::new();
    // A genuine indexed range: only the day's warnings are visited, not
    // the whole window's events.
    for e in d
        .store()
        .class_events_between(EventClass::SedcWarning, from, to)
    {
        let Payload::Erd { scope, .. } = &e.payload else {
            continue;
        };
        if let Some(blade) = scope.blade() {
            out.entry(blade).or_insert([0; 24])[e.time.hour_of_day() as usize] += 1;
        }
    }
    out
}

/// One day of the error-vs-failure comparison (Fig. 10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorVsFailureDay {
    /// Day index.
    pub day: u64,
    /// Nodes with any hardware error (EDAC/memory) in console logs.
    pub hw_error_nodes: usize,
    /// Nodes with MCE log triggers.
    pub mce_nodes: usize,
    /// Nodes with Lustre I/O errors (page-fault locks etc.).
    pub lustre_nodes: usize,
    /// Nodes that failed.
    pub failed_nodes: usize,
}

/// Computes the Fig. 10 daily series.
pub fn error_vs_failure_daily(d: &Diagnosis) -> Vec<ErrorVsFailureDay> {
    #[derive(Default)]
    struct Sets {
        hw: BTreeSet<NodeId>,
        mce: BTreeSet<NodeId>,
        lustre: BTreeSet<NodeId>,
        failed: BTreeSet<NodeId>,
    }
    let mut days: BTreeMap<u64, Sets> = BTreeMap::new();
    // All console classes, not just the three counted kinds: any console
    // activity opens a day entry, so quiet-but-chattering days still show
    // up as zero rows (the Fig. 10 x-axis).
    for e in d.store().classes_events(EventClass::CONSOLE) {
        let Payload::Console { node, detail } = &e.payload else {
            continue;
        };
        let day = e.time.as_millis() / MILLIS_PER_DAY;
        let s = days.entry(day).or_default();
        match detail {
            ConsoleDetail::MemoryError { .. } => {
                s.hw.insert(*node);
            }
            ConsoleDetail::Mce { .. } => {
                s.mce.insert(*node);
            }
            ConsoleDetail::LustreError { .. } => {
                s.lustre.insert(*node);
            }
            _ => {}
        }
    }
    for f in &d.failures {
        days.entry(f.time.as_millis() / MILLIS_PER_DAY)
            .or_default()
            .failed
            .insert(f.node);
    }
    days.into_iter()
        .map(|(day, s)| ErrorVsFailureDay {
            day,
            hw_error_nodes: s.hw.len(),
            mce_nodes: s.mce.len(),
            lustre_nodes: s.lustre.len(),
            failed_nodes: s.failed.len(),
        })
        .collect()
}

/// Mean CPU temperature per (blade, node-channel) from SEDC telemetry
/// (Fig. 11).
pub fn temperature_map(d: &Diagnosis) -> BTreeMap<(BladeId, u16), Summary> {
    let mut samples: BTreeMap<(BladeId, u16), Vec<f64>> = BTreeMap::new();
    for e in d.store().class_events(EventClass::SedcReading) {
        let Payload::Erd {
            scope,
            detail:
                ErdDetail::SedcReading {
                    sensor: SensorKind::Temperature,
                    channel,
                    reading,
                },
        } = &e.payload
        else {
            continue;
        };
        if let Some(blade) = scope.blade() {
            samples.entry((blade, *channel)).or_default().push(*reading);
        }
    }
    samples
        .into_iter()
        .map(|(k, v)| (k, Summary::of(&v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DiagnosisConfig;
    use hpc_faultsim::Scenario;
    use hpc_platform::SystemId;

    fn diag(seed: u64, days: u64) -> Diagnosis {
        let out = Scenario::new(SystemId::S1, 2, days, seed).run();
        Diagnosis::from_archive(&out.archive, DiagnosisConfig::default())
    }

    #[test]
    fn nvf_correspondence_is_high() {
        let d = diag(1, 84);
        let c = nvf_correspondence(&d);
        if c.total >= 3 {
            // Fig. 5: 67–97% of NVFs correspond to failures. All our NVFs
            // come from failing chains (benign NVFs arrive in a later
            // scenario knob), so expect the high end.
            assert!(c.percent() >= 60.0, "NVF correspondence {}%", c.percent());
        }
    }

    #[test]
    fn nhf_correspondence_is_partial() {
        let d = diag(2, 28);
        let c = nhf_correspondence(&d);
        assert!(c.total > 20, "only {} NHFs", c.total);
        let p = c.percent();
        // Fig. 5: 21–64% of NHFs manifest as failures.
        assert!(p > 10.0 && p < 85.0, "NHF correspondence {p}%");
    }

    #[test]
    fn nhf_breakdown_has_all_three_outcomes() {
        let d = diag(3, 28);
        let weeks = nhf_breakdown_weekly(&d);
        assert!(!weeks.is_empty());
        let total: usize = weeks.iter().map(NhfWeek::total).sum();
        let failures: usize = weeks.iter().map(|w| w.failures).sum();
        let off: usize = weeks.iter().map(|w| w.powered_off).sum();
        let skipped: usize = weeks.iter().map(|w| w.skipped).sum();
        assert_eq!(total, failures + off + skipped);
        assert!(failures > 0, "no failing NHFs");
        assert!(off > 0, "no powered-off NHFs");
        assert!(skipped > 0, "no skipped-heartbeat NHFs");
    }

    #[test]
    fn sedc_census_warnings_vs_faults() {
        let d = diag(4, 14);
        let weeks = sedc_census_weekly(&d);
        assert!(!weeks.is_empty());
        for w in &weeks {
            // Both populations exist on a noisy Cray scenario.
            assert!(w.blades_with_warnings > 0);
            assert!(w.units_with_faults > 0);
        }
    }

    #[test]
    fn error_nodes_far_exceed_failed_nodes() {
        let d = diag(5, 16);
        let days = error_vs_failure_daily(&d);
        assert!(days.len() >= 14);
        let err_total: usize = days.iter().map(|x| x.hw_error_nodes + x.lustre_nodes).sum();
        let fail_total: usize = days.iter().map(|x| x.failed_nodes).sum();
        // Fig. 10 / Obs. 4: erroneous nodes outnumber failed nodes.
        assert!(
            err_total > 3 * fail_total,
            "errors {err_total} vs failures {fail_total}"
        );
        // "More nodes experience page fault locks … than hardware errors".
        let lustre: usize = days.iter().map(|x| x.lustre_nodes).sum();
        let hw: usize = days.iter().map(|x| x.hw_error_nodes).sum();
        assert!(lustre > hw, "lustre {lustre} vs hw {hw}");
    }

    #[test]
    fn temperature_map_reads_steady_forty() {
        let out = {
            let mut sc = hpc_faultsim::Scenario::new(SystemId::S1, 1, 1, 6);
            sc.config.telemetry_blades = 8;
            sc.config.telemetry_off_nodes = vec![NodeId(4)];
            sc.run()
        };
        let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
        let map = temperature_map(&d);
        assert!(map.len() >= 8 * 4);
        // Node 4 = blade 1 channel 0: powered off, 0 °C.
        let off = map.get(&(BladeId(1), 0)).unwrap();
        assert_eq!(off.mean, 0.0);
        // Others steady around 40 °C.
        let (_, any_on) = map
            .iter()
            .find(|((b, ch), _)| !(b.0 == 1 && *ch == 0))
            .unwrap();
        assert!((any_on.mean - 40.0).abs() < 3.0, "mean {}", any_on.mean);
    }

    #[test]
    fn hourly_warnings_empty_without_chatty_blades_day() {
        let d = diag(7, 7);
        // Some day in range has warnings (noise bursts land anywhere).
        let mut any = false;
        for day in 0..7 {
            if !hourly_blade_warnings(&d, day).is_empty() {
                any = true;
                break;
            }
        }
        assert!(any, "no SEDC warnings found in a noisy scenario");
    }
}
