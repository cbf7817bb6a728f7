//! Spatial correlation: failures vs blade/cabinet health, and blade-level
//! failure analysis.
//!
//! * **Fig. 7** — the share of failures residing on blades (23–59%) and in
//!   cabinets (19–58%) that logged health faults or warnings during the
//!   period. The paper's Obs. 2 calls this *weak* correlation.
//! * **Fig. 18** — among blades whose nodes all failed together, the
//!   fraction sharing a single failure reason (high, with errors < ±7.2).
//! * **Obs. 8** — spatially distant co-failures share jobs: quantified by
//!   [`distant_cofailure_share`].

use std::collections::BTreeMap;

use hpc_logs::time::{SimDuration, SimTime, MILLIS_PER_WEEK};
use hpc_platform::{BladeId, Topology};

use crate::pipeline::Diagnosis;
use crate::root_cause::{classify_all, InferredCause};

/// Fig. 7 numerator/denominators for one period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialCorrelation {
    /// Failures in the period.
    pub failures: usize,
    /// Failures whose blade logged any external fault/warning in the
    /// period.
    pub on_faulty_blades: usize,
    /// Failures whose cabinet logged any external fault/warning.
    pub on_faulty_cabinets: usize,
}

impl SpatialCorrelation {
    /// Percentage of failures on faulty blades.
    pub fn blade_percent(&self) -> f64 {
        pct(self.on_faulty_blades, self.failures)
    }

    /// Percentage of failures in faulty cabinets.
    pub fn cabinet_percent(&self) -> f64 {
        pct(self.on_faulty_cabinets, self.failures)
    }
}

fn pct(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        100.0 * n as f64 / d as f64
    }
}

/// The "unhealthy time frame" around a failure within which blade/cabinet
/// health faults count as correlated (§II-A step 2 inspects "the logs
/// around the failure time").
pub const UNHEALTHY_FRAME: SimDuration = SimDuration::from_mins(45);

/// Computes Fig. 7 for the period `[from, to)`: a failure sits on a faulty
/// blade/cabinet if that unit logged any external fault or warning within
/// [`UNHEALTHY_FRAME`] of the failure.
pub fn spatial_correlation(d: &Diagnosis, from: SimTime, to: SimTime) -> SpatialCorrelation {
    let mut out = SpatialCorrelation {
        failures: 0,
        on_faulty_blades: 0,
        on_faulty_cabinets: 0,
    };
    for f in &d.failures {
        if f.time < from || f.time >= to {
            continue;
        }
        out.failures += 1;
        let lo = f.time.saturating_sub(UNHEALTHY_FRAME);
        let hi = f.time + UNHEALTHY_FRAME;
        if d.blade_external_between(f.node.blade(), lo, hi)
            .next()
            .is_some()
        {
            out.on_faulty_blades += 1;
        }
        if d.cabinet_external_between(f.node.cabinet(), lo, hi)
            .next()
            .is_some()
        {
            out.on_faulty_cabinets += 1;
        }
    }
    out
}

/// A blade where several nodes failed within a short window — the Fig. 18
/// population.
#[derive(Debug, Clone, PartialEq)]
pub struct BladeFailureGroup {
    /// The blade.
    pub blade: BladeId,
    /// Failure times of its nodes, ascending.
    pub times: Vec<SimTime>,
    /// Inferred cause of each failure, aligned with `times`.
    pub causes: Vec<InferredCause>,
}

impl BladeFailureGroup {
    /// Whether all failures in the group share one inferred cause.
    pub fn same_reason(&self) -> bool {
        self.causes.windows(2).all(|w| w[0] == w[1])
    }
}

/// Finds blades with at least `min_nodes` node failures within `window` of
/// each other.
pub fn blade_failure_groups(
    d: &Diagnosis,
    min_nodes: usize,
    window: SimDuration,
) -> Vec<BladeFailureGroup> {
    let classified = classify_all(d);
    let mut per_blade: BTreeMap<BladeId, Vec<(SimTime, InferredCause)>> = BTreeMap::new();
    for (f, cause) in classified {
        per_blade
            .entry(f.node.blade())
            .or_default()
            .push((f.time, cause));
    }
    let mut groups = Vec::new();
    for (blade, mut items) in per_blade {
        items.sort_by_key(|(t, _)| *t);
        // Slide over failure clusters within `window`.
        let mut start = 0;
        for end in 0..items.len() {
            while items[end].0.since(items[start].0) > window {
                start += 1;
            }
            let size = end - start + 1;
            if size >= min_nodes {
                // Take the maximal cluster ending here; avoid duplicates by
                // only emitting when the next item (if any) falls outside.
                let is_maximal =
                    end + 1 == items.len() || items[end + 1].0.since(items[start].0) > window;
                if is_maximal {
                    groups.push(BladeFailureGroup {
                        blade,
                        times: items[start..=end].iter().map(|(t, _)| *t).collect(),
                        causes: items[start..=end].iter().map(|(_, c)| *c).collect(),
                    });
                }
            }
        }
    }
    groups
}

/// Fig. 18 series: per week, the percentage of blade failure groups whose
/// members share one failure reason.
pub fn same_reason_share_weekly(
    d: &Diagnosis,
    min_nodes: usize,
    window: SimDuration,
) -> Vec<(u64, f64, usize)> {
    let groups = blade_failure_groups(d, min_nodes, window);
    let mut per_week: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    for g in groups {
        let week = g.times[0].as_millis() / MILLIS_PER_WEEK;
        let entry = per_week.entry(week).or_default();
        entry.1 += 1;
        if g.same_reason() {
            entry.0 += 1;
        }
    }
    per_week
        .into_iter()
        .map(|(w, (same, total))| (w, pct(same, total), total))
        .collect()
}

/// Obs. 8: among failure pairs within `window` of each other, the share of
/// *spatially distant* pairs (different chassis or farther). High values
/// mean temporal locality does not imply spatial locality.
pub fn distant_cofailure_share(d: &Diagnosis, topology: &Topology, window: SimDuration) -> f64 {
    let mut distant = 0usize;
    let mut total = 0usize;
    for (i, a) in d.failures.iter().enumerate() {
        for b in &d.failures[i + 1..] {
            if b.time.since(a.time) > window {
                break;
            }
            if a.node == b.node {
                continue;
            }
            total += 1;
            if topology.spatially_distant(a.node, b.node) {
                distant += 1;
            }
        }
    }
    pct(distant, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DiagnosisConfig;
    use hpc_faultsim::Scenario;
    use hpc_platform::SystemId;

    fn diag(seed: u64, days: u64) -> (Diagnosis, Topology) {
        let out = Scenario::new(SystemId::S1, 2, days, seed).run();
        (
            Diagnosis::from_archive(&out.archive, DiagnosisConfig::default()),
            out.topology,
        )
    }

    #[test]
    fn fig7_shares_are_partial() {
        let (d, _) = diag(1, 14);
        let (from, to) = d.window();
        let sc = spatial_correlation(&d, from, to + SimDuration::from_millis(1));
        assert!(sc.failures > 10);
        // Weak correlation: some but not all failures sit on faulty
        // blades/cabinets (Obs. 2; paper bands 23–59% and 19–58%).
        let bp = sc.blade_percent();
        let cp = sc.cabinet_percent();
        assert!(bp > 5.0 && bp < 95.0, "blade share {bp}");
        assert!(cp > 2.0 && cp < 95.0, "cabinet share {cp}");
    }

    #[test]
    fn blade_groups_exist_and_mostly_share_reason() {
        let (d, _) = diag(2, 28);
        let groups = blade_failure_groups(&d, 3, SimDuration::from_mins(10));
        assert!(!groups.is_empty(), "no blade failure groups found");
        let same = groups.iter().filter(|g| g.same_reason()).count();
        let share = 100.0 * same as f64 / groups.len() as f64;
        // Fig. 18: blades failing together overwhelmingly share a cause.
        assert!(share > 60.0, "same-reason share {share}%");
        for g in &groups {
            assert!(g.times.len() >= 3);
            let spread = g.times.last().unwrap().since(g.times[0]);
            assert!(spread <= SimDuration::from_mins(10));
        }
    }

    #[test]
    fn weekly_same_reason_series_covers_weeks() {
        let (d, _) = diag(3, 28);
        let series = same_reason_share_weekly(&d, 3, SimDuration::from_mins(10));
        for (_, share, total) in &series {
            assert!(*share >= 0.0 && *share <= 100.0);
            assert!(*total > 0);
        }
    }

    #[test]
    fn distant_cofailures_are_common_for_app_bursts() {
        let (d, topo) = diag(4, 21);
        let share = distant_cofailure_share(&d, &topo, SimDuration::from_mins(5));
        // Obs. 8 / §III-E: >42% of near-simultaneous failures were on
        // blades distant from each other. App bursts pick nodes of one job
        // scattered by the allocator, so a substantial share is distant.
        assert!(share > 25.0, "distant share {share}%");
    }

    #[test]
    fn empty_period_yields_zeroes() {
        let (d, _) = diag(5, 7);
        let sc = spatial_correlation(&d, SimTime::EPOCH, SimTime::EPOCH);
        assert_eq!(sc.failures, 0);
        assert_eq!(sc.blade_percent(), 0.0);
    }
}
