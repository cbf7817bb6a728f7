//! Lead-time computation and enhancement (Fig. 13) and the external-
//! correlation false-positive analysis (Fig. 14).
//!
//! For each detected failure the module computes:
//!
//! * the **internal lead** — time from the earliest fault-indicative
//!   console message of that node (within the lookback window) to the
//!   terminal event; this is the baseline prediction horizon prior work
//!   uses;
//! * the **external lead** — time from the earliest *correlated external
//!   indicator* (node-scoped `ec_hw_error`, NVF, NHF, `L0_sysd_mce`, or a
//!   blade-scoped health fault on the failed node's blade) within the
//!   external window.
//!
//! Obs. 5: "lead times can be enhanced by about a factor of 5 … for 10% to
//! 28% of node failures"; application-triggered failures have no external
//! indicators, so the remaining 72–90% cannot be enhanced.

use hpc_logs::event::{ConsoleDetail, ControllerDetail, ErdDetail, LogEvent, Payload};
use hpc_logs::time::{SimDuration, MILLIS_PER_WEEK};
use hpc_platform::NodeId;

use crate::detection::DetectedFailure;
use crate::pipeline::Diagnosis;
use crate::prediction::evaluate;
use crate::windows::LOOKBACK;

/// Whether a console event is fault-indicative (a precursor worth flagging,
/// not a terminal signature and not benign chatter).
pub fn is_indicative_internal(event: &LogEvent) -> bool {
    let Payload::Console { detail, .. } = &event.payload else {
        return false;
    };
    match detail {
        ConsoleDetail::Mce { corrected, .. } => !corrected,
        ConsoleDetail::MemoryError { correctable, .. } => !correctable,
        ConsoleDetail::KernelOops { .. }
        | ConsoleDetail::OomKill { .. }
        | ConsoleDetail::CpuStall { .. }
        | ConsoleDetail::SegFault { .. }
        | ConsoleDetail::PageAllocFailure { .. }
        | ConsoleDetail::NhcWarning { .. } => true,
        // Lustre errors are indicative only in bursts; a single one is
        // routine I/O noise. Kept simple: indicative.
        ConsoleDetail::LustreError { .. } => true,
        _ => false,
    }
}

/// Whether an event is an *external indicator* for `node`: a node-scoped
/// controller/ERD fault against it, or a blade-scoped health fault on its
/// blade.
pub fn is_external_indicator(event: &LogEvent, node: NodeId) -> bool {
    match &event.payload {
        Payload::Controller { scope, detail } => match detail {
            ControllerDetail::NodeHeartbeatFault { node: n }
            | ControllerDetail::NodeVoltageFault { node: n }
            | ControllerDetail::L0SysdMce { node: n } => *n == node,
            ControllerDetail::BcHeartbeatFault
            | ControllerDetail::ModuleHealthFault
            | ControllerDetail::EcbFault { .. } => scope.blade() == Some(node.blade()),
            _ => false,
        },
        Payload::Erd { detail, .. } => match detail {
            ErdDetail::HwError { node: n, .. } => *n == node,
            ErdDetail::L0Failed => event.subject_blade() == Some(node.blade()),
            _ => false,
        },
        _ => false,
    }
}

/// Lead times of one failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeadTimeRecord {
    /// The failure.
    pub failure: DetectedFailure,
    /// Internal lead, if any indicative console precursor existed.
    pub internal: Option<SimDuration>,
    /// External lead, if any correlated external indicator existed.
    pub external: Option<SimDuration>,
}

impl LeadTimeRecord {
    /// Whether external correlation enhances the lead time (an external
    /// indicator strictly leads the internal one, or exists where no
    /// internal precursor does).
    pub fn enhanceable(&self) -> bool {
        match (self.external, self.internal) {
            (Some(e), Some(i)) => e > i,
            (Some(_), None) => true,
            _ => false,
        }
    }
}

/// Computes lead times for every detected failure.
pub fn lead_times(d: &Diagnosis) -> Vec<LeadTimeRecord> {
    let _span = hpc_telemetry::span!("core.lead_time.compute");
    d.failures
        .iter()
        .map(|f| {
            let int_from = f.time.saturating_sub(LOOKBACK);
            let internal = d
                .node_events_between(f.node, int_from, f.time)
                .find(|e| is_indicative_internal(e))
                .map(|e| f.time.since(e.time));
            let ext_from = f.time.saturating_sub(d.config.external_window);
            let external = d
                .blade_external_between(f.node.blade(), ext_from, f.time)
                .find(|e| is_external_indicator(e, f.node))
                .map(|e| f.time.since(e.time));
            LeadTimeRecord {
                failure: *f,
                internal,
                external,
            }
        })
        .collect()
}

/// Aggregate lead-time summary (the Fig. 13 headline numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LeadTimeSummary {
    /// Failures considered.
    pub failures: usize,
    /// Failures with an internal precursor.
    pub with_internal: usize,
    /// Failures with an external indicator (enhanceable candidates).
    pub enhanceable: usize,
    /// Mean internal lead (minutes) over failures that have one.
    pub mean_internal_mins: f64,
    /// Mean external lead (minutes) over enhanceable failures.
    pub mean_external_mins: f64,
}

impl LeadTimeSummary {
    /// The Fig. 13 enhancement factor: mean external / mean internal lead.
    pub fn enhancement_factor(&self) -> f64 {
        if self.mean_internal_mins == 0.0 {
            0.0
        } else {
            self.mean_external_mins / self.mean_internal_mins
        }
    }

    /// Percentage of failures whose lead time is enhanceable.
    pub fn enhanceable_percent(&self) -> f64 {
        if self.failures == 0 {
            0.0
        } else {
            100.0 * self.enhanceable as f64 / self.failures as f64
        }
    }
}

/// Summarises lead-time records.
pub fn summarize(records: &[LeadTimeRecord]) -> LeadTimeSummary {
    let mut s = LeadTimeSummary {
        failures: records.len(),
        ..LeadTimeSummary::default()
    };
    let mut int_sum = 0.0;
    let mut ext_sum = 0.0;
    for r in records {
        if let Some(i) = r.internal {
            s.with_internal += 1;
            int_sum += i.as_mins_f64();
        }
        if r.enhanceable() {
            s.enhanceable += 1;
            ext_sum += r
                .external
                .expect("enhanceable implies external")
                .as_mins_f64();
        }
    }
    if s.with_internal > 0 {
        s.mean_internal_mins = int_sum / s.with_internal as f64;
    }
    if s.enhanceable > 0 {
        s.mean_external_mins = ext_sum / s.enhanceable as f64;
    }
    s
}

/// Per-week enhanceable percentage (the Fig. 13 weekly series).
pub fn enhanceable_percent_weekly(d: &Diagnosis) -> Vec<(u64, f64, usize)> {
    let records = lead_times(d);
    let mut weeks: std::collections::BTreeMap<u64, (usize, usize)> = Default::default();
    for r in &records {
        let w = r.failure.time.as_millis() / MILLIS_PER_WEEK;
        let e = weeks.entry(w).or_default();
        e.1 += 1;
        if r.enhanceable() {
            e.0 += 1;
        }
    }
    weeks
        .into_iter()
        .map(|(w, (enh, total))| (w, 100.0 * enh as f64 / total as f64, total))
        .collect()
}

/// Per-cause-class lead-time summaries: Obs. 5's asymmetry made explicit —
/// hardware/software failures are enhanceable, application-triggered ones
/// are not.
pub fn per_class_summary(
    d: &Diagnosis,
) -> std::collections::BTreeMap<crate::root_cause::CauseClass, LeadTimeSummary> {
    use crate::root_cause::classify;
    let records = lead_times(d);
    let mut grouped: std::collections::BTreeMap<_, Vec<LeadTimeRecord>> = Default::default();
    for r in records {
        let class = classify(d, &r.failure).class();
        grouped.entry(class).or_default().push(r);
    }
    grouped
        .into_iter()
        .map(|(class, records)| (class, summarize(&records)))
        .collect()
}

/// Fig. 14: false-positive comparison between an internal-only failure
/// predictor and one that additionally requires an external correlate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FalsePositiveComparison {
    /// Flags raised by the internal-only predictor.
    pub internal_flags: usize,
    /// Of those, flags followed by a failure (true positives).
    pub internal_tp: usize,
    /// Flags raised when external correlation is also required.
    pub combined_flags: usize,
    /// True positives of the combined predictor.
    pub combined_tp: usize,
}

impl FalsePositiveComparison {
    /// FP share of the internal-only predictor (the paper's FPR notion:
    /// fraction of flags that did not lead to failure).
    pub fn internal_fp_percent(&self) -> f64 {
        fp_pct(self.internal_flags, self.internal_tp)
    }

    /// FP share with external correlation.
    pub fn combined_fp_percent(&self) -> f64 {
        fp_pct(self.combined_flags, self.combined_tp)
    }
}

fn fp_pct(flags: usize, tp: usize) -> f64 {
    if flags == 0 {
        0.0
    } else {
        100.0 * (flags - tp) as f64 / flags as f64
    }
}

/// Evaluates both predictors over the whole window, as two readings of
/// the internal-only online predictor scored by [`evaluate`].
///
/// Every alert it raises is an internal *flag*: an indicative internal
/// event, at most one per node per [`crate::windows::DEBOUNCE`]. A flag
/// the predictor found backed by an external correlate is also a combined
/// flag. A flag is a true positive if the scorer settled it as a hit: its
/// node fails within [`crate::windows::FAILURE_HORIZON`] at or after it
/// (no −2 min slack, unlike the fault→failure correspondence).
pub fn false_positive_analysis(d: &Diagnosis) -> FalsePositiveComparison {
    let ev = evaluate(d, false);
    let mut out = FalsePositiveComparison::default();
    for (alert, &hit) in ev.alerts.iter().zip(&ev.hit) {
        out.internal_flags += 1;
        out.internal_tp += usize::from(hit);
        if alert.backed_by_external {
            out.combined_flags += 1;
            out.combined_tp += usize::from(hit);
        }
    }
    out
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
    fn enhancement_factor_is_large() {
        let d = diag(1, 28);
        let records = lead_times(&d);
        let s = summarize(&records);
        assert!(s.failures > 30);
        assert!(s.with_internal as f64 > 0.6 * s.failures as f64);
        assert!(s.enhanceable > 0);
        // Fig. 13: external indicators stretch the lead time by roughly 5×
        // (band kept wide for sampling noise).
        let factor = s.enhancement_factor();
        assert!(
            (2.5..=12.0).contains(&factor),
            "enhancement factor {factor}"
        );
    }

    #[test]
    fn enhanceable_fraction_in_paper_band() {
        let d = diag(2, 28);
        let records = lead_times(&d);
        let s = summarize(&records);
        let pct = s.enhanceable_percent();
        // Fig. 13: 10–28% of failures enhanceable (wide band).
        assert!((5.0..=45.0).contains(&pct), "enhanceable {pct}%");
    }

    #[test]
    fn app_failures_are_not_enhanceable() {
        use crate::root_cause::{classify, CauseClass};
        let d = diag(3, 28);
        let records = lead_times(&d);
        let mut app_total = 0;
        let mut app_enhanceable = 0;
        for r in &records {
            if classify(&d, &r.failure).class() == CauseClass::Application {
                app_total += 1;
                if r.enhanceable() {
                    app_enhanceable += 1;
                }
            }
        }
        assert!(app_total > 5);
        // Obs. 5: application-triggered failures lack external indicators.
        // A stray NHF precursor on a co-located hardware chain can leak in,
        // so allow a small tail.
        let share = app_enhanceable as f64 / app_total as f64;
        assert!(share < 0.25, "app enhanceable share {share}");
    }

    #[test]
    fn external_correlation_reduces_false_positive_share() {
        let d = diag(4, 28);
        let cmp = false_positive_analysis(&d);
        assert!(cmp.internal_flags > 50, "flags {}", cmp.internal_flags);
        assert!(cmp.combined_flags > 0);
        assert!(cmp.combined_flags < cmp.internal_flags);
        // Fig. 14: FPR drops when external correlations are required.
        assert!(
            cmp.combined_fp_percent() < cmp.internal_fp_percent(),
            "combined {}% vs internal {}%",
            cmp.combined_fp_percent(),
            cmp.internal_fp_percent()
        );
    }

    #[test]
    fn weekly_series_is_well_formed() {
        let d = diag(5, 28);
        let weeks = enhanceable_percent_weekly(&d);
        assert!(!weeks.is_empty());
        for (_, pct, total) in weeks {
            assert!((0.0..=100.0).contains(&pct));
            assert!(total > 0);
        }
    }

    #[test]
    fn per_class_asymmetry() {
        use crate::root_cause::CauseClass;
        let d = diag(6, 28);
        let by_class = per_class_summary(&d);
        let app = by_class
            .get(&CauseClass::Application)
            .copied()
            .unwrap_or_default();
        let hw = by_class
            .get(&CauseClass::Hardware)
            .copied()
            .unwrap_or_default();
        assert!(hw.failures > 5 && app.failures > 5);
        // Obs. 5: hardware failures are far more enhanceable than
        // application-triggered ones.
        assert!(
            hw.enhanceable_percent() > app.enhanceable_percent() + 10.0,
            "hw {}% vs app {}%",
            hw.enhanceable_percent(),
            app.enhanceable_percent()
        );
        // Totals across classes match the overall record count.
        let total: usize = by_class.values().map(|s| s.failures).sum();
        assert_eq!(total, d.failures.len());
    }

    #[test]
    fn empty_records_summarize_to_zero() {
        let s = summarize(&[]);
        assert_eq!(s.failures, 0);
        assert_eq!(s.enhancement_factor(), 0.0);
        assert_eq!(s.enhanceable_percent(), 0.0);
    }
}
