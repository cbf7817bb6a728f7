//! Reporting: case studies (Table V) and findings/recommendations
//! (Table VI).
//!
//! [`case_studies`] searches a diagnosis for concrete instances of the five
//! failure archetypes of the paper's Table V and renders them with their
//! internal/external indicators and inference — the same narrative shape
//! the paper uses. [`FINDINGS`] reproduces Table VI's findings ↔
//! recommendations pairs, and [`render_findings`] prints them.

use std::collections::BTreeMap;

use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::NodeId;

use crate::advisor::{advise_from, render_advisories};
use crate::detection::DetectedFailure;
use crate::jobs::{shared_job_groups, JobLog, SharedJobGroup};
use crate::lead_time::{lead_times, summarize, LeadTimeRecord, LeadTimeSummary};
use crate::pipeline::Diagnosis;
use crate::root_cause::{classify_all, CauseBreakdown, CauseClass, Fig16Bucket, InferredCause};

/// One rendered case study.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudy {
    /// Archetype title (mirrors a Table V row).
    pub title: &'static str,
    /// The failures instantiating it.
    pub failures: Vec<DetectedFailure>,
    /// Internal-indicator description.
    pub internal: String,
    /// External-indicator description.
    pub external: String,
    /// Root-cause inference.
    pub inference: &'static str,
}

/// Two CPU-corruption failures further apart than this make Table V case 2
/// "temporally dispersed".
const DISPERSION_GAP: SimDuration = SimDuration::from_hours(2);

/// Searches the diagnosis for instances of the five Table V archetypes.
/// Archetypes with no instance in this window are omitted.
pub fn case_studies(d: &Diagnosis, jobs: &JobLog) -> Vec<CaseStudy> {
    let groups = shared_job_groups(d, jobs, 2);
    case_studies_from(&classify_all(d), &lead_times(d), &groups)
}

/// [`case_studies`] over a classification, lead times and the ≥2-node
/// shared-job groups the caller already holds.
fn case_studies_from(
    classified: &[(DetectedFailure, InferredCause)],
    leads: &[LeadTimeRecord],
    groups: &[SharedJobGroup],
) -> Vec<CaseStudy> {
    let mut out = Vec::new();

    // Case 1: L0_sysd_mce with no deducible cause.
    if let Some((f, _)) = classified
        .iter()
        .find(|(_, c)| *c == InferredCause::UnknownL0)
    {
        out.push(CaseStudy {
            title: "L0_sysd_mce followed by anomalous shutdown",
            failures: vec![*f],
            internal: "no internal precursor; node shut down unexpectedly".into(),
            external: format!(
                "L0_sysd_mce in the blade-controller log before failure at {}",
                f.time
            ),
            inference: "potential root cause could not be deduced",
        });
    }

    // Case 2: CPU corruptions, temporally dispersed but same pattern.
    let cpu: Vec<DetectedFailure> = classified
        .iter()
        .filter(|(_, c)| *c == InferredCause::CpuCorruption)
        .map(|(f, _)| *f)
        .collect();
    if cpu.len() >= 2 {
        let dispersed = cpu
            .windows(2)
            .any(|w| w[1].time.since(w[0].time) > DISPERSION_GAP);
        if dispersed {
            out.push(CaseStudy {
                title: "dispersed failures with H/W error → MCE → kernel oops pattern",
                failures: cpu,
                internal: "uncorrected MCEs and CPU stalls escalating to kernel oops".into(),
                external: "link errors / threshold violations distant from the failure time".into(),
                inference: "CPU corruptions and MCEs affecting the file system causing failure",
            });
        }
    }

    // Case 3: multi-node same-job memory exhaustion. A group is its own
    // (node, time) pairs, not every failure its nodes ever had.
    let by_incident: BTreeMap<(NodeId, SimTime), _> = (classified.iter())
        .map(|(f, c)| ((f.node, f.time), (f, c)))
        .collect();
    for group in groups {
        let all_oom: Option<Vec<DetectedFailure>> = (group.nodes.iter().zip(&group.times))
            .map(|(n, t)| match by_incident.get(&(*n, *t)) {
                Some((f, InferredCause::MemoryExhaustion)) => Some(**f),
                _ => None,
            })
            .collect();
        if let Some(failures) = all_oom {
            out.push(CaseStudy {
                title: "same-job multi-node failures via oom-killer",
                failures,
                internal: "oom-killer invoked → kernel oops with app-based call trace, similar \
                           times and patterns on all nodes"
                    .into(),
                external: format!(
                    "no external indications; same application (job {}) running on all nodes",
                    group.job
                ),
                inference: "application-caused memory exhaustion; nodes fail NHC tests",
            });
            break;
        }
    }

    // Case 4: single app-triggered file-system bug.
    if let Some((f, _)) = classified
        .iter()
        .find(|(_, c)| *c == InferredCause::AppFsBug)
    {
        out.push(CaseStudy {
            title: "LustreError → unable to handle kernel paging request",
            failures: vec![*f],
            internal: "Lustre page-fault locks, then a paging-request oops with dvs_ipc_msg / \
                       sleep_on_page frames"
                .into(),
            external: "no leading environmental indicators; scheduled job aborted".into(),
            inference: "application-triggered file system bug causing failure",
        });
    }

    // Case 5: fail-slow memory with early ec_hw_errors.
    let fail_slow: Option<&LeadTimeRecord> = leads.iter().find(|r| {
        r.enhanceable()
            && classified
                .iter()
                .any(|(f, c)| f == &r.failure && *c == InferredCause::MemoryFailSlow)
    });
    if let Some(r) = fail_slow {
        out.push(CaseStudy {
            title: "fail-slow memory with early external indicators",
            failures: vec![r.failure],
            internal: format!(
                "EDAC degradation then fatal MCE; internal lead {}",
                r.internal
                    .map(|x| x.to_string())
                    .unwrap_or_else(|| "-".into())
            ),
            external: format!(
                "ec_hw_errors sustained before the failure; external lead {}",
                r.external
                    .map(|x| x.to_string())
                    .unwrap_or_else(|| "-".into())
            ),
            inference: "fail-slow symptoms of memory failing the node (degraded h/w)",
        });
    }

    out
}

/// Renders case studies as a text table.
pub fn render_case_studies(cases: &[CaseStudy]) -> String {
    let mut s = String::new();
    s.push_str("Table V — Sample Failure Cases\n");
    for (i, c) in cases.iter().enumerate() {
        s.push_str(&format!(
            "\nCase {} — {} ({} failure{})\n  internal:  {}\n  external:  {}\n  inference: {}\n",
            i + 1,
            c.title,
            c.failures.len(),
            if c.failures.len() == 1 { "" } else { "s" },
            c.internal,
            c.external,
            c.inference
        ));
    }
    s
}

/// Table VI: major findings and suggested recommendations.
pub const FINDINGS: [(&str, &str); 7] = [
    (
        "Higher error counts need not fail nodes, but certain faults (e.g. NVF) and short-term \
         multiple blade failures indicate unhealthy state; several daily failures share a root \
         cause",
        "Consider non-critical health faults and temporal locality before launching \
         checkpoint/restarts, making reactive approaches root-cause aware",
    ),
    (
        "Major blade- and cabinet-level health indicators are not strongly correlated with the \
         primary root cause",
        "Frequent SEDC warnings and threshold violations can be ignored unless major indicators \
         appear in the node internal logs",
    ),
    (
        "Fail-slow hardware symptoms exist for certain software-triggered hardware failures, \
         aiding lead-time improvements",
        "Failure prediction schemes can incorporate external correlations for lead-time \
         enhancements in proactive fault tolerance",
    ),
    (
        "Node failure prediction can be ineffective when the root cause is application \
         misbehaviour",
        "Instead of sequestering nodes, inform users about malfunctioning jobs or block buggy \
         jobs at the NHC",
    ),
    (
        "Many node failures involve kernel oopses with long stack traces, triggered by \
         hardware, software or application along the fault propagation chain",
        "An ML-guided study of call traces can segregate job-triggered versus job-caused \
         failures and narrow down the buggy code",
    ),
    (
        "Spatio-temporal correlations of node failures exist w.r.t. application-caused \
         failures; jobs can trigger filesystem/interconnect errors without failing nodes",
        "Add NHC health tests tracking buggy APIDs for nodes failing incessantly due to \
         abnormal application exits, beyond rebooting or admindown",
    ),
    (
        "A significant number of failures are primarily triggered by applications, which in \
         turn may affect the file system or hardware",
        "Use application resilience schemes (performance diagnosis) together with system \
         failure prediction tools to infer future system health",
    ),
];

/// Renders Table VI.
pub fn render_findings() -> String {
    let mut s = String::new();
    s.push_str("Table VI — Findings and Recommendations\n");
    for (i, (finding, rec)) in FINDINGS.iter().enumerate() {
        s.push_str(&format!(
            "\n{}. finding:        {}\n   recommendation: {}\n",
            i + 1,
            finding,
            rec
        ));
    }
    s
}

/// A one-screen textual summary of a whole diagnosis (used by examples).
pub fn render_summary(d: &Diagnosis, jobs: &JobLog) -> String {
    let leads = summarize(&lead_times(d));
    summary(d, jobs, &CauseBreakdown::compute(d), &leads)
}

fn summary(d: &Diagnosis, jobs: &JobLog, b: &CauseBreakdown, leads: &LeadTimeSummary) -> String {
    let (from, to) = d.window();
    let mut s = String::new();
    s.push_str(&format!(
        "window: {from} .. {to}\nevents: {}   skipped lines: {}\nfailures: {}\n",
        d.events().len(),
        d.skipped_lines,
        d.failures.len()
    ));
    for class in [
        CauseClass::Hardware,
        CauseClass::Software,
        CauseClass::Application,
        CauseClass::Unknown,
    ] {
        s.push_str(&format!(
            "  {:<12} {:5.1}%\n",
            class.name(),
            b.class_percent(class)
        ));
    }
    s.push_str(&format!(
        "jobs: {}   lead-time enhanceable: {:.1}% (factor {:.1})\n",
        jobs.len(),
        leads.enhanceable_percent(),
        leads.enhancement_factor()
    ));
    s
}

/// The complete five-section report `hpc-diagnose` prints on stdout:
/// summary, root-cause breakdown, lead-time analysis, case studies and
/// operator advisories. One string so batch tooling, benches and the
/// golden-report CI check all render through the same code path. The
/// classification, the lead times and the shared-job groups are each
/// derived once and handed to the sections that read them.
pub fn full_report(d: &Diagnosis, jobs: &JobLog) -> String {
    let classified = classify_all(d);
    let leads = lead_times(d);
    let groups = shared_job_groups(d, jobs, 2);
    let b = CauseBreakdown::of(&classified);
    let l = summarize(&leads);

    let mut s = String::new();
    s.push_str("=== summary ===\n");
    s.push_str(&summary(d, jobs, &b, &l));

    s.push_str("\n=== root-cause breakdown ===\n");
    for bucket in Fig16Bucket::ALL {
        s.push_str(&format!(
            "  {:<9} {:5.1}%\n",
            bucket.name(),
            b.bucket_percent(bucket)
        ));
    }

    s.push_str("\n=== lead-time analysis ===\n");
    s.push_str(&format!(
        "  internal lead {:.1} min | external lead {:.1} min | factor {:.1}x | enhanceable {:.1}%\n",
        l.mean_internal_mins,
        l.mean_external_mins,
        l.enhancement_factor(),
        l.enhanceable_percent()
    ));

    s.push_str("\n=== case studies ===\n");
    let cases = case_studies_from(&classified, &leads, &groups);
    s.push_str(&render_case_studies(&cases));

    s.push_str("\n=== advisories ===\n");
    let advisories = advise_from(d, jobs, &classified, groups);
    s.push_str(&render_advisories(&advisories));
    s
}

/// Returns the SimTime bounds padded by one millisecond for inclusive
/// whole-window queries.
pub fn padded_window(d: &Diagnosis) -> (SimTime, SimTime) {
    let (a, b) = d.window();
    (a, b + SimDuration::from_millis(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DiagnosisConfig;
    use hpc_faultsim::Scenario;
    use hpc_platform::SystemId;
    use std::sync::OnceLock;

    #[test]
    fn case_studies_find_archetypes_on_long_window() {
        let (d, jobs) = repeat_offender_window();
        let cases = case_studies(d, jobs);
        assert!(cases.len() >= 3, "only {} case studies found", cases.len());
        let rendered = render_case_studies(&cases);
        assert!(rendered.contains("Table V"));
        for c in &cases {
            assert!(!c.failures.is_empty());
            assert!(rendered.contains(c.title));
        }
    }

    /// A window in which both nodes of the reported same-job OOM group fail
    /// again on other days; simulated and diagnosed once for every test.
    fn repeat_offender_window() -> &'static (Diagnosis, JobLog) {
        static WINDOW: OnceLock<(Diagnosis, JobLog)> = OnceLock::new();
        WINDOW.get_or_init(|| {
            let out = Scenario::new(SystemId::S1, 2, 28, 17).run();
            let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
            let jobs = JobLog::from_diagnosis(&d);
            (d, jobs)
        })
    }

    #[test]
    fn same_job_case_lists_exactly_the_group() {
        let (d, jobs) = repeat_offender_window();
        let cases = case_studies(d, jobs);
        let oom = (cases.iter())
            .find(|c| c.title.contains("same-job"))
            .expect("this window has a same-job OOM group");
        let groups = shared_job_groups(d, jobs, 2);
        let group = (groups.iter())
            .find(|g| oom.external.contains(&format!("(job {})", g.job)))
            .expect("the case names its job");
        let repeats = (d.failures.iter())
            .filter(|f| group.nodes.contains(&f.node))
            .count();
        assert!(repeats > group.nodes.len(), "no node of the group repeats");

        assert_eq!(oom.failures.len(), group.nodes.len());
        for f in &oom.failures {
            let mut members = group.nodes.iter().zip(&group.times);
            assert!(members.any(|(n, t)| (*n, *t) == (f.node, f.time)));
            let cause = crate::root_cause::classify(d, f);
            assert_eq!(cause, InferredCause::MemoryExhaustion);
        }
    }

    #[test]
    fn full_report_repeats_the_per_section_entry_points() {
        // Classification, lead times and groups derived once must print
        // what each section's own entry point prints.
        let (d, jobs) = repeat_offender_window();
        let report = full_report(d, jobs);
        assert!(report.contains(&render_summary(d, jobs)));
        let cases = render_case_studies(&case_studies(d, jobs));
        assert!(cases.contains("same-job"), "{cases}");
        assert!(report.contains(&cases));
        let advisories = render_advisories(&crate::advisor::advise(d, jobs));
        assert!(advisories.contains("BLOCK-JOB"), "{advisories}");
        assert!(report.ends_with(&advisories));
    }

    #[test]
    fn findings_render_complete() {
        let s = render_findings();
        assert!(s.contains("Table VI"));
        for (f, r) in FINDINGS {
            assert!(s.contains(f));
            assert!(s.contains(r));
        }
        assert_eq!(FINDINGS.len(), 7);
    }

    #[test]
    fn empty_advisory_and_case_rendering() {
        assert_eq!(render_case_studies(&[]), "Table V — Sample Failure Cases\n");
        let d = Diagnosis::from_events(Vec::new(), 0, DiagnosisConfig::default());
        let (a, b) = padded_window(&d);
        assert!(a <= b);
    }

    #[test]
    fn summary_contains_class_lines() {
        let out = Scenario::new(SystemId::S1, 2, 7, 4).run();
        let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
        let jobs = JobLog::from_diagnosis(&d);
        let s = render_summary(&d, &jobs);
        for label in [
            "Hardware",
            "Software",
            "Application",
            "Unknown",
            "failures:",
        ] {
            assert!(s.contains(label), "summary missing {label}: {s}");
        }
    }
}
