//! Inter-node failure times, MTBF and dominant-cause analysis.
//!
//! Covers Observation 1 and three figures:
//!
//! * **Fig. 3** — weekly CDFs of inter-node failure times ("92.3% and 76.2%
//!   of the node failures happen within 1 to 16 minutes of each other in
//!   S1, over W1 and W7; MTBF 1.5 (±0.56) and 12.1 (±4.2) minutes").
//! * **Fig. 4** — the fraction of each day's failures sharing that day's
//!   dominant failure reason (65–82% over 30 days).
//! * **Fig. 19** — MTBF of *job-triggered* failures on S3 (≤32 min; W1 has
//!   91.6% of failures within 5 minutes).

use std::collections::BTreeMap;

use hpc_logs::time::{MILLIS_PER_DAY, MILLIS_PER_WEEK};
use hpc_stats::histogram::CategoricalHistogram;
use hpc_stats::mtbf::MtbfAnalysis;

use crate::pipeline::Diagnosis;
use crate::root_cause::{classify_all, CauseClass, InferredCause};

/// Sorted failure timestamps (ms).
fn failure_times_ms(d: &Diagnosis) -> Vec<u64> {
    d.failures.iter().map(|f| f.time.as_millis()).collect()
}

/// Per-week MTBF analyses over all failures (weeks with <2 failures yield
/// empty analyses).
pub fn weekly_mtbf(d: &Diagnosis) -> Vec<(u64, MtbfAnalysis)> {
    group_mtbf(failure_times_ms(d), MILLIS_PER_WEEK)
}

/// Per-week MTBF analyses over *job-triggered* (application-class)
/// failures — the Fig. 19 series.
pub fn weekly_job_triggered_mtbf(d: &Diagnosis) -> Vec<(u64, MtbfAnalysis)> {
    let times: Vec<u64> = classify_all(d)
        .into_iter()
        .filter(|(_, cause)| cause.class() == CauseClass::Application)
        .map(|(f, _)| f.time.as_millis())
        .collect();
    group_mtbf(times, MILLIS_PER_WEEK)
}

fn group_mtbf(times: Vec<u64>, width: u64) -> Vec<(u64, MtbfAnalysis)> {
    let mut buckets: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for t in times {
        buckets.entry(t / width).or_default().push(t);
    }
    buckets
        .into_iter()
        .map(|(w, mut ts)| {
            ts.sort_unstable();
            (w, MtbfAnalysis::from_times_ms(&ts))
        })
        .collect()
}

/// One day's dominant-cause summary (Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct DominantCauseDay {
    /// Day index since the window start.
    pub day: u64,
    /// Failures that day.
    pub failures: usize,
    /// The day's most common inferred cause.
    pub dominant: InferredCause,
    /// Percentage of that day's failures sharing the dominant cause.
    pub share_percent: f64,
}

/// Dominant failure reason per day, for days with at least `min_failures`
/// failures.
pub fn dominant_cause_per_day(d: &Diagnosis, min_failures: usize) -> Vec<DominantCauseDay> {
    let mut per_day: BTreeMap<u64, CategoricalHistogram<InferredCause>> = BTreeMap::new();
    for (f, cause) in classify_all(d) {
        per_day
            .entry(f.time.as_millis() / MILLIS_PER_DAY)
            .or_default()
            .add(cause);
    }
    per_day
        .into_iter()
        .filter(|(_, h)| h.total() as usize >= min_failures)
        .map(|(day, h)| {
            let (dominant, _) = h.mode().expect("non-empty histogram");
            DominantCauseDay {
                day,
                failures: h.total() as usize,
                dominant: *dominant,
                share_percent: h.dominant_share_percent(),
            }
        })
        .collect()
}

/// The recovery estimate of Obs. 1: "if the dominant fault gets fixed,
/// over 50% of the node failures can be recovered per day" — the mean
/// dominant share across qualifying days.
pub fn mean_dominant_share(days: &[DominantCauseDay]) -> f64 {
    if days.is_empty() {
        return 0.0;
    }
    days.iter().map(|d| d.share_percent).sum::<f64>() / days.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DiagnosisConfig;
    use hpc_faultsim::Scenario;
    use hpc_platform::SystemId;

    fn diag(system: SystemId, days: u64, seed: u64) -> Diagnosis {
        let out = Scenario::new(system, 2, days, seed).run();
        Diagnosis::from_archive(&out.archive, DiagnosisConfig::default())
    }

    #[test]
    fn weekly_mtbf_produces_short_gaps() {
        let d = diag(SystemId::S1, 14, 1);
        let weeks = weekly_mtbf(&d);
        assert!(!weeks.is_empty());
        for (_, a) in &weeks {
            if a.gap_count() >= 5 {
                // Bursty failures: a large share lands within 16 minutes
                // (Obs. 1's minutes-not-hours finding).
                let within16 = a.percent_within_minutes(16.0);
                assert!(within16 > 20.0, "within 16 min only {within16}%");
            }
        }
    }

    #[test]
    fn job_triggered_failures_show_temporal_locality() {
        // Fig. 19's point is burstiness: most gaps between job-triggered
        // failures are minutes, because co-failing nodes share a job.
        let d = diag(SystemId::S3, 21, 2);
        let weeks = weekly_job_triggered_mtbf(&d);
        let busy: Vec<_> = weeks.iter().filter(|(_, a)| a.gap_count() >= 5).collect();
        assert!(!busy.is_empty(), "no busy weeks");
        let mut ok_weeks = 0;
        for (_, a) in &busy {
            if a.percent_within_minutes(32.0) > 50.0 {
                ok_weeks += 1;
            }
        }
        assert!(
            ok_weeks * 2 >= busy.len(),
            "bursty weeks {ok_weeks}/{}",
            busy.len()
        );
    }

    #[test]
    fn dominant_cause_share_is_majority_most_days() {
        let d = diag(SystemId::S1, 30, 3);
        let days = dominant_cause_per_day(&d, 3);
        assert!(days.len() >= 5, "only {} qualifying days", days.len());
        let mean = mean_dominant_share(&days);
        // Obs. 1: "more than 65% of the failures per day are caused by the
        // same malfunctioning" — allow a wide band for the miniature scale.
        assert!(mean > 45.0, "mean dominant share {mean}%");
        for day in &days {
            assert!(day.share_percent >= 100.0 / day.failures as f64);
            assert!(day.share_percent <= 100.0);
        }
    }

    #[test]
    fn empty_diagnosis_behaves() {
        let d = Diagnosis::from_events(Vec::new(), 0, DiagnosisConfig::default());
        assert!(failure_times_ms(&d).is_empty());
        assert!(weekly_mtbf(&d).is_empty());
        assert!(dominant_cause_per_day(&d, 1).is_empty());
        assert_eq!(mean_dominant_share(&[]), 0.0);
    }
}
