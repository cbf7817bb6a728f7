//! The recommendations engine: Table VI operationalised.
//!
//! Given a diagnosis and the reconstructed job log, [`advise`] emits the
//! concrete operator actions the paper recommends:
//!
//! * **block/notify buggy jobs** — "buggy jobs can be blocked (by NHC)",
//!   "users can be intimated about their malfunctioning job";
//! * **do not quarantine app-victims** — "failed nodes need not be
//!   quarantined as these nodes recover once new jobs run on them";
//! * **quarantine fail-slow hardware** — degraded components with early
//!   indicators keep failing until replaced;
//! * **ignore chatty warnings** — "frequent appearance of SEDC warning and
//!   threshold violations can be ignored unless major indicators are
//!   observed in the node internal logs".

use std::collections::BTreeMap;

use hpc_logs::event::{JobId, Payload};
use hpc_platform::{BladeId, NodeId};

use crate::detection::DetectedFailure;
use crate::jobs::{shared_job_groups, JobLog, SharedJobGroup};
use crate::pipeline::Diagnosis;
use crate::root_cause::{classify_all, CauseClass, InferredCause};

/// A recommended operator action.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Block the job's APID at the NHC and notify the submitting user: it
    /// has taken down multiple nodes.
    BlockJob {
        /// The offending job.
        job: JobId,
        /// Submitting user (if recoverable from the job log).
        user: Option<u32>,
        /// Nodes it failed.
        failed_nodes: Vec<NodeId>,
    },
    /// Return the node to service without quarantine: the failure was
    /// application-caused and the node is healthy.
    ReturnToService {
        /// The node.
        node: NodeId,
        /// The application-class cause that felled it.
        cause: InferredCause,
    },
    /// Quarantine the node pending hardware service: degraded hardware with
    /// early indicators will fail again.
    Quarantine {
        /// The node.
        node: NodeId,
        /// The hardware-class cause.
        cause: InferredCause,
    },
    /// Suppress alerting on this blade's recurring SEDC warnings: it is
    /// chatty but has hosted no failures.
    SuppressWarnings {
        /// The blade.
        blade: BladeId,
        /// Warning volume observed.
        warnings: u64,
    },
}

/// An action plus its one-line rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct Advisory {
    /// What to do.
    pub action: Action,
    /// Why.
    pub rationale: String,
}

/// Derives advisories from a diagnosis.
pub fn advise(d: &Diagnosis, jobs: &JobLog) -> Vec<Advisory> {
    advise_from(d, jobs, &classify_all(d), shared_job_groups(d, jobs, 2))
}

/// [`advise`] over a classification and the ≥2-node shared-job groups the
/// caller already holds.
pub(crate) fn advise_from(
    d: &Diagnosis,
    jobs: &JobLog,
    classified: &[(DetectedFailure, InferredCause)],
    groups: Vec<SharedJobGroup>,
) -> Vec<Advisory> {
    let mut out = Vec::new();

    // 1. Buggy jobs: any job sharing ≥2 failures.
    for group in groups {
        let user = jobs.get(group.job).map(|j| j.user);
        out.push(Advisory {
            rationale: format!(
                "job {} failed {} nodes within its allocation — block the APID and notify the user instead of quarantining nodes",
                group.job,
                group.nodes.len()
            ),
            action: Action::BlockJob {
                job: group.job,
                user,
                failed_nodes: group.nodes,
            },
        });
    }

    // 2/3. Per-failure node disposition.
    for (failure, cause) in classified {
        match cause.class() {
            CauseClass::Application => out.push(Advisory {
                rationale: format!(
                    "node {} failed via {} — application-caused; it will recover once new jobs run",
                    failure.node.cname(),
                    cause.name()
                ),
                action: Action::ReturnToService {
                    node: failure.node,
                    cause: *cause,
                },
            }),
            CauseClass::Hardware => {
                // Fail-slow and voltage causes imply degraded hardware.
                if matches!(
                    cause,
                    InferredCause::MemoryFailSlow | InferredCause::VoltageFault
                ) {
                    out.push(Advisory {
                        rationale: format!(
                            "node {} failed via {} — degraded hardware with early indicators; quarantine pending service",
                            failure.node.cname(),
                            cause.name()
                        ),
                        action: Action::Quarantine {
                            node: failure.node,
                            cause: *cause,
                        },
                    });
                }
            }
            _ => {}
        }
    }

    // 4. Chatty blades without failures.
    let mut warnings_per_blade: BTreeMap<BladeId, u64> = BTreeMap::new();
    for e in d
        .store()
        .class_events(crate::store::EventClass::SedcWarning)
    {
        if let Payload::Erd { scope, .. } = &e.payload {
            if let Some(b) = scope.blade() {
                *warnings_per_blade.entry(b).or_insert(0) += 1;
            }
        }
    }
    let failed_blades: std::collections::BTreeSet<BladeId> =
        d.failures.iter().map(|f| f.node.blade()).collect();
    for (blade, warnings) in warnings_per_blade {
        if warnings >= 50 && !failed_blades.contains(&blade) {
            out.push(Advisory {
                rationale: format!(
                    "blade {} logged {warnings} SEDC warnings but hosted no failures — recurring threshold violations are benign (Obs. 3)",
                    blade.cname()
                ),
                action: Action::SuppressWarnings { blade, warnings },
            });
        }
    }

    out
}

/// Renders advisories as an operator-facing report.
pub fn render_advisories(advisories: &[Advisory]) -> String {
    let mut s = String::from("Operator advisories\n");
    for (i, a) in advisories.iter().enumerate() {
        let kind = match &a.action {
            Action::BlockJob { .. } => "BLOCK-JOB",
            Action::ReturnToService { .. } => "RETURN",
            Action::Quarantine { .. } => "QUARANTINE",
            Action::SuppressWarnings { .. } => "SUPPRESS",
        };
        s.push_str(&format!("{:>3}. [{kind:<10}] {}\n", i + 1, a.rationale));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DiagnosisConfig;
    use hpc_faultsim::Scenario;
    use hpc_platform::SystemId;

    fn setup(seed: u64) -> (Diagnosis, JobLog) {
        // 14 days keeps the failed-blade set small enough that some of the
        // 12 chatty blades are statistically certain to stay failure-free
        // (SuppressWarnings needs a clean chatty blade).
        let mut sc = Scenario::new(SystemId::S1, 2, 14, seed);
        sc.config.chatty_blades = 12;
        let out = sc.run();
        let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
        let jobs = JobLog::from_diagnosis(&d);
        (d, jobs)
    }

    #[test]
    fn produces_every_advisory_kind() {
        let (d, jobs) = setup(1);
        let advisories = advise(&d, &jobs);
        assert!(!advisories.is_empty());
        let has = |pred: &dyn Fn(&Action) -> bool| advisories.iter().any(|a| pred(&a.action));
        assert!(
            has(&|a| matches!(a, Action::BlockJob { .. })),
            "no BlockJob"
        );
        assert!(
            has(&|a| matches!(a, Action::ReturnToService { .. })),
            "no ReturnToService"
        );
        assert!(
            has(&|a| matches!(a, Action::Quarantine { .. })),
            "no Quarantine"
        );
        assert!(
            has(&|a| matches!(a, Action::SuppressWarnings { .. })),
            "no SuppressWarnings"
        );
    }

    #[test]
    fn blocked_jobs_really_failed_multiple_nodes() {
        let (d, jobs) = setup(2);
        for a in advise(&d, &jobs) {
            if let Action::BlockJob {
                failed_nodes, job, ..
            } = a.action
            {
                assert!(
                    failed_nodes.len() >= 2,
                    "job {job} blocked with <2 failures"
                );
                for n in &failed_nodes {
                    assert!(
                        d.failures.iter().any(|f| f.node == *n),
                        "blocked job lists a non-failed node"
                    );
                }
            }
        }
    }

    #[test]
    fn suppressed_blades_hosted_no_failures() {
        let (d, jobs) = setup(3);
        let failed_blades: std::collections::BTreeSet<_> =
            d.failures.iter().map(|f| f.node.blade()).collect();
        for a in advise(&d, &jobs) {
            if let Action::SuppressWarnings { blade, warnings } = a.action {
                assert!(!failed_blades.contains(&blade));
                assert!(warnings >= 50);
            }
        }
    }

    #[test]
    fn rendering_mentions_kinds() {
        let (d, jobs) = setup(4);
        let text = render_advisories(&advise(&d, &jobs));
        assert!(text.contains("Operator advisories"));
        assert!(text.contains("RETURN") || text.contains("BLOCK-JOB"));
    }
}
