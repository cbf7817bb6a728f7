//! Online failure prediction over the log stream.
//!
//! The paper frames its contribution as *boosting failure-prediction
//! schemes* (Obs. 5: external correlations enhance lead times and reduce
//! false positives). This module operationalises that: a sliding, debounced
//! predictor that raises an alert on fault-indicative internal events —
//! optionally gated on a correlated external indicator — and an offline
//! evaluator producing the precision / recall / lead-time numbers a site
//! would use to tune it.
//!
//! The evaluation is strictly *causal*: an alert at time *t* may only use
//! events at or before *t*.

use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::NodeId;

use crate::detection::{DetectedFailure, TerminalKind};
use crate::lead_time::{is_external_indicator, is_indicative_internal};
use crate::pipeline::Diagnosis;
use crate::windows::{DEBOUNCE, FAILURE_HORIZON};

/// One raised alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    /// Node the alert concerns.
    pub node: NodeId,
    /// When it was raised.
    pub time: SimTime,
    /// Whether an external correlate backed it.
    pub backed_by_external: bool,
}

/// Offline evaluation of a predictor run.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// All alerts raised, chronological.
    pub alerts: Vec<Alert>,
    /// Alerts followed by a failure of that node within the horizon.
    pub true_positives: usize,
    /// Alerts with no such failure.
    pub false_positives: usize,
    /// Failures with at least one alert in the preceding horizon.
    pub predicted_failures: usize,
    /// Failures with none.
    pub missed_failures: usize,
    /// Mean achieved lead time over predicted failures, minutes (alert →
    /// manifestation).
    pub mean_lead_mins: f64,
}

impl Evaluation {
    /// Alert precision: TP / (TP + FP).
    pub fn precision(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_positives,
        )
    }

    /// Failure recall: predicted / (predicted + missed).
    pub fn recall(&self) -> f64 {
        ratio(
            self.predicted_failures,
            self.predicted_failures + self.missed_failures,
        )
    }
}

fn ratio(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Runs the predictor (externally gated when `require_external`) over a
/// diagnosis and evaluates it against the detected failures: an alert
/// predicts a failure of its node within [`FAILURE_HORIZON`].
pub fn evaluate(d: &Diagnosis, require_external: bool) -> Evaluation {
    let alerts = raise_alerts(d, require_external);

    let mut tp = 0;
    let mut fp = 0;
    for a in &alerts {
        // Binary search on the store's per-node failure-time index; alerts
        // have no −2 min slack (strictly causal, unlike fails_within).
        let hit = d
            .store()
            .first_failure_in(a.node, a.time, a.time + FAILURE_HORIZON)
            .is_some();
        if hit {
            tp += 1;
        } else {
            fp += 1;
        }
    }

    let mut predicted = 0;
    let mut missed = 0;
    let mut lead_sum_mins = 0.0;
    for f in &d.failures {
        let earliest_alert = alerts
            .iter()
            .filter(|a| {
                a.node == f.node && a.time <= f.time && f.time.since(a.time) <= FAILURE_HORIZON
            })
            .map(|a| a.time)
            .min();
        match earliest_alert {
            Some(t) => {
                predicted += 1;
                lead_sum_mins += f.time.since(t).as_mins_f64();
            }
            None => missed += 1,
        }
    }
    Evaluation {
        alerts,
        true_positives: tp,
        false_positives: fp,
        predicted_failures: predicted,
        missed_failures: missed,
        mean_lead_mins: if predicted > 0 {
            lead_sum_mins / predicted as f64
        } else {
            0.0
        },
    }
}

/// Whether an event is a *strong* external indicator worth alerting on by
/// itself: `ec_hw_error`, NVF or `L0_sysd_mce` against a specific node.
/// (NHFs are excluded — Fig. 6 shows roughly half of them are benign.)
fn is_strong_external(event: &hpc_logs::LogEvent) -> Option<NodeId> {
    use hpc_logs::event::{ControllerDetail, ErdDetail, Payload};
    match &event.payload {
        Payload::Controller {
            detail:
                ControllerDetail::NodeVoltageFault { node } | ControllerDetail::L0SysdMce { node },
            ..
        } => Some(*node),
        Payload::Erd {
            detail: ErdDetail::HwError { node, .. },
            ..
        } => Some(*node),
        _ => None,
    }
}

/// How a single event can trigger the predictor, before debouncing and
/// external gating are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AlertTrigger {
    /// A strong external indicator against this node (`ec_hw_error`, NVF,
    /// `L0_sysd_mce`) — fires by itself in externally-correlated mode.
    StrongExternal(NodeId),
    /// A fault-indicative internal (console) symptom on this node — needs
    /// external backing when `require_external` is set.
    Internal(NodeId),
}

/// Classifies an event as a potential alert trigger.
fn alert_trigger(event: &hpc_logs::LogEvent) -> Option<AlertTrigger> {
    if let Some(node) = is_strong_external(event) {
        Some(AlertTrigger::StrongExternal(node))
    } else if is_indicative_internal(event) {
        let node = event
            .subject_node()
            .expect("indicative events are console events");
        Some(AlertTrigger::Internal(node))
    } else {
        None
    }
}

/// The causal, debounced alerting core shared by the batch evaluator
/// ([`raise_alerts`]) and the streaming engine (`hpc-stream`).
///
/// The raiser owns only the per-node debounce clocks; how external backing
/// is looked up is the caller's business (a batch index or a sliding
/// window), supplied as a closure that is consulted *only* for internal
/// triggers.
#[derive(Debug, Clone)]
pub struct AlertRaiser {
    require_external: bool,
    last_alert: std::collections::HashMap<NodeId, SimTime>,
}

impl AlertRaiser {
    /// New raiser with no alert history. With `require_external` an
    /// internal symptom alerts only with external backing, and a strong
    /// external indicator alerts by itself (the paper's enhancement: fewer
    /// but earlier and better alerts); without it external streams only
    /// label alerts as backed.
    pub fn new(require_external: bool) -> AlertRaiser {
        AlertRaiser {
            require_external,
            last_alert: Default::default(),
        }
    }

    /// Offers the next chronological event. `backed` answers whether the
    /// node's blade has an external correlate within the external window
    /// up to and including the event's time; it is called only for
    /// internal triggers.
    pub fn offer(
        &mut self,
        event: &hpc_logs::LogEvent,
        backed: impl FnOnce(NodeId) -> bool,
    ) -> Option<Alert> {
        let (node, backed_by_external) = match alert_trigger(event)? {
            AlertTrigger::StrongExternal(node) => {
                if !self.require_external {
                    // The internal-only baseline ignores external streams.
                    return None;
                }
                (node, true)
            }
            AlertTrigger::Internal(node) => {
                let backed = backed(node);
                if self.require_external && !backed {
                    return None;
                }
                (node, backed)
            }
        };
        if let Some(prev) = self.last_alert.get(&node) {
            // Inclusive boundary: exactly `DEBOUNCE` later fires again.
            if event.time.since(*prev) < DEBOUNCE {
                return None;
            }
        }
        self.last_alert.insert(node, event.time);
        Some(Alert {
            node,
            time: event.time,
            backed_by_external,
        })
    }
}

/// Raises debounced alerts over the chronological event stream.
///
/// In externally-correlated mode the predictor fires on two triggers:
/// a *strong external indicator* by itself (this is where the ≈5× lead-time
/// enhancement of Obs. 5 comes from — the alert predates any internal
/// symptom), or an internal symptom that has external backing in the
/// window. The window is the diagnosis' `external_window`, so the
/// predictor moves with the lead-time and false-positive analyses.
pub fn raise_alerts(d: &Diagnosis, require_external: bool) -> Vec<Alert> {
    let mut raiser = AlertRaiser::new(require_external);
    let mut alerts = Vec::new();
    // Only the trigger classes can alert ([`alert_trigger`] returns `None`
    // for everything else, and `offer` has no side effects on non-trigger
    // events), so the chronological merge of those posting lists replaces
    // the full-event scan.
    for e in d
        .store()
        .classes_events(crate::store::EventClass::ALERT_TRIGGERS)
    {
        let alert = raiser.offer(e, |node| {
            let probe = DetectedFailure {
                node,
                time: e.time,
                terminal: TerminalKind::SchedulerDown,
            };
            let ext_from = e.time.saturating_sub(d.config.external_window);
            d.blade_external_between(node.blade(), ext_from, e.time + SimDuration::from_millis(1))
                .any(|x| is_external_indicator(x, &probe))
        });
        alerts.extend(alert);
    }
    alerts
}

/// Side-by-side comparison of the internal-only and externally-correlated
/// predictors (the deployable form of Fig. 13 + Fig. 14).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorComparison {
    /// Internal-only evaluation.
    pub internal_only: Evaluation,
    /// Externally-gated evaluation.
    pub with_external: Evaluation,
}

/// Runs both predictor variants.
pub fn compare(d: &Diagnosis) -> PredictorComparison {
    PredictorComparison {
        internal_only: evaluate(d, false),
        with_external: evaluate(d, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DiagnosisConfig;
    use hpc_faultsim::Scenario;
    use hpc_platform::SystemId;

    fn diag(seed: u64) -> Diagnosis {
        let out = Scenario::new(SystemId::S1, 2, 21, seed).run();
        Diagnosis::from_archive(&out.archive, DiagnosisConfig::default())
    }

    #[test]
    fn alerts_are_causal_and_debounced() {
        let d = diag(1);
        let alerts = raise_alerts(&d, false);
        assert!(!alerts.is_empty());
        assert!(alerts.windows(2).all(|w| w[0].time <= w[1].time));
        // Debounce per node.
        let mut per_node: std::collections::HashMap<NodeId, SimTime> = Default::default();
        for a in &alerts {
            if let Some(prev) = per_node.get(&a.node) {
                assert!(a.time.since(*prev) >= DEBOUNCE);
            }
            per_node.insert(a.node, a.time);
        }
    }

    #[test]
    fn external_gating_trades_recall_for_precision() {
        let d = diag(2);
        let cmp = compare(&d);
        let int = &cmp.internal_only;
        let ext = &cmp.with_external;
        assert!(int.alerts.len() > ext.alerts.len());
        assert!(
            ext.precision() > int.precision(),
            "external precision {} vs internal {}",
            ext.precision(),
            int.precision()
        );
        assert!(
            ext.recall() <= int.recall(),
            "external gating cannot increase recall"
        );
        // The externally-gated predictor still predicts something.
        assert!(ext.predicted_failures > 0);
    }

    #[test]
    fn lead_times_are_positive_and_bounded_by_horizon() {
        let d = diag(3);
        let ev = evaluate(&d, false);
        assert!(ev.predicted_failures > 0);
        assert!(ev.mean_lead_mins > 0.0);
        assert!(ev.mean_lead_mins <= FAILURE_HORIZON.as_mins_f64());
    }

    #[test]
    fn counts_are_consistent() {
        let d = diag(4);
        let ev = evaluate(&d, false);
        assert_eq!(ev.true_positives + ev.false_positives, ev.alerts.len());
        assert_eq!(ev.predicted_failures + ev.missed_failures, d.failures.len());
    }

    #[test]
    fn empty_diagnosis_evaluates_to_zeroes() {
        let d = Diagnosis::from_events(Vec::new(), 0, DiagnosisConfig::default());
        let ev = evaluate(&d, false);
        assert!(ev.alerts.is_empty());
        assert_eq!(ev.precision(), 0.0);
        assert_eq!(ev.recall(), 0.0);
    }

    fn stall_ev(ms: u64, node: u32) -> hpc_logs::LogEvent {
        use hpc_logs::event::{ConsoleDetail, Payload};
        hpc_logs::LogEvent {
            time: hpc_logs::SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(node),
                detail: ConsoleDetail::CpuStall { cpu: 0 },
            },
        }
    }

    #[test]
    fn debounce_boundary_is_inclusive() {
        // Regression pin: a symptom landing *exactly* `DEBOUNCE` after the
        // previous alert must be allowed to fire (>= semantics).
        let deb = DEBOUNCE.as_millis();
        let at = |gap_ms: u64| {
            let d = Diagnosis::from_events(
                vec![stall_ev(0, 5), stall_ev(gap_ms, 5)],
                0,
                DiagnosisConfig::default(),
            );
            raise_alerts(&d, false).len()
        };
        assert_eq!(at(deb), 2, "exactly-debounce symptom must alert");
        assert_eq!(at(deb - 1), 1, "one ms inside the debounce is suppressed");
        assert_eq!(at(deb + 1), 2);
    }

    #[test]
    fn zero_denominator_corners_yield_zero_not_nan() {
        // Alerts but zero failures: precision is 0/alerts, recall is 0/0.
        let d = Diagnosis::from_events(vec![stall_ev(0, 1)], 0, DiagnosisConfig::default());
        let ev = evaluate(&d, false);
        assert_eq!(ev.alerts.len(), 1);
        assert!(d.failures.is_empty());
        assert_eq!(ev.precision(), 0.0);
        assert_eq!(ev.recall(), 0.0);
        assert!(!ev.precision().is_nan() && !ev.recall().is_nan());
        assert_eq!(ev.mean_lead_mins, 0.0);

        // Failures but zero alerts: precision is 0/0, recall is 0/failures.
        use hpc_logs::event::{ConsoleDetail, Payload};
        let panic = hpc_logs::LogEvent {
            time: hpc_logs::SimTime::from_millis(1_000),
            payload: Payload::Console {
                node: NodeId(2),
                detail: ConsoleDetail::KernelPanic {
                    reason: hpc_logs::event::PanicReason::FatalMce,
                },
            },
        };
        let d = Diagnosis::from_events(vec![panic], 0, DiagnosisConfig::default());
        let ev = evaluate(&d, false);
        assert!(ev.alerts.is_empty());
        assert_eq!(d.failures.len(), 1);
        assert_eq!(ev.precision(), 0.0);
        assert_eq!(ev.recall(), 0.0);
        assert!(!ev.precision().is_nan() && !ev.recall().is_nan());
        assert_eq!(ev.mean_lead_mins, 0.0);
    }

    #[test]
    fn alert_raiser_matches_batch_raise_alerts() {
        for require_external in [false, true] {
            let d = diag(7);
            let batch = raise_alerts(&d, require_external);
            let mut raiser = AlertRaiser::new(require_external);
            let mut streamed = Vec::new();
            for e in d.events() {
                streamed.extend(raiser.offer(e, |node| {
                    let probe = DetectedFailure {
                        node,
                        time: e.time,
                        terminal: TerminalKind::SchedulerDown,
                    };
                    let ext_from = e.time.saturating_sub(d.config.external_window);
                    d.blade_external_between(
                        node.blade(),
                        ext_from,
                        e.time + SimDuration::from_millis(1),
                    )
                    .any(|x| is_external_indicator(x, &probe))
                }));
            }
            assert_eq!(streamed, batch, "require_external={require_external}");
        }
    }
}
