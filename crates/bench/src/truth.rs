//! Scoring the diagnosis against the simulator's ground truth: the cause a
//! correct diagnosis infers ([`expected_cause`]), which detection reports
//! which injected failure ([`pair`]) and the accuracy built on both
//! ([`Accuracy`]). `experiments validation` and every accuracy test score
//! through here. It lives in this crate, the one library that sees both the
//! simulator and the pipeline, so the pipeline stays simulator-free.

use hpc_diagnosis::detection::DEDUP_WINDOW;
use hpc_diagnosis::root_cause::classify_all;
use hpc_diagnosis::{DetectedFailure, Diagnosis, InferredCause};
use hpc_faultsim::{FailureRecord, TrueRootCause};

/// The cause a correct diagnosis infers for an injected one. An operator
/// shutdown leaves nothing diagnostic behind, so it is rightly `Unknown`.
pub fn expected_cause(cause: TrueRootCause) -> InferredCause {
    match cause {
        TrueRootCause::HardwareMce => InferredCause::HardwareMce,
        TrueRootCause::CpuCorruption => InferredCause::CpuCorruption,
        TrueRootCause::MemoryFailSlow => InferredCause::MemoryFailSlow,
        TrueRootCause::NodeVoltage => InferredCause::VoltageFault,
        TrueRootCause::InterconnectFailure => InferredCause::InterconnectFailure,
        TrueRootCause::LustreBug => InferredCause::LustreBug,
        TrueRootCause::KernelBug => InferredCause::KernelBug,
        TrueRootCause::DriverFirmwareBug => InferredCause::DriverFirmware,
        TrueRootCause::AppMemoryExhaustion => InferredCause::MemoryExhaustion,
        TrueRootCause::AppAbnormalExit => InferredCause::AppAbnormalExit,
        TrueRootCause::AppFsBug => InferredCause::AppFsBug,
        TrueRootCause::UnknownBios => InferredCause::UnknownBios,
        TrueRootCause::UnknownL0Mce => InferredCause::UnknownL0,
        TrueRootCause::OperatorShutdown => InferredCause::Unknown,
    }
}

/// Matches injected failures to detections, as `(record, failure)` index
/// pairs in record time order. A record pairs with a detection on the same
/// node at most [`DEDUP_WINDOW`] away, the window inside which detection
/// itself folds signatures into one incident. Each detection reports at
/// most one record: records claim detections in time order (the earlier
/// record wins), each taking the first unclaimed candidate in slice order.
pub fn pair(records: &[FailureRecord], failures: &[DetectedFailure]) -> Vec<(usize, usize)> {
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&r| records[r].time);
    let mut claimed = vec![false; failures.len()];
    let mut pairs = Vec::new();
    for record in order {
        let truth = &records[record];
        let hit = (0..failures.len()).find(|&i| {
            let f = &failures[i];
            !claimed[i] && f.node == truth.node && f.time.abs_diff(truth.time) <= DEDUP_WINDOW
        });
        if let Some(failure) = hit {
            claimed[failure] = true;
            pairs.push((record, failure));
        }
    }
    pairs
}

/// Detection and root-cause accuracy of one diagnosed archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accuracy {
    /// Injected failures.
    pub injected: usize,
    /// Failures the pipeline detected.
    pub detected: usize,
    /// Injected failures paired with a detection.
    pub paired: usize,
    /// Pairs whose inferred cause is the expected one.
    pub exact: usize,
    /// Pairs whose inferred cause is of the expected coarse class.
    pub class: usize,
}

impl Accuracy {
    /// Pairs the diagnosis's failures with the records and classifies them.
    pub fn of(records: &[FailureRecord], d: &Diagnosis) -> Accuracy {
        let classified = classify_all(d);
        let mut acc = Accuracy {
            injected: records.len(),
            detected: d.failures.len(),
            paired: 0,
            exact: 0,
            class: 0,
        };
        for (record, failure) in pair(records, &d.failures) {
            let inferred = classified[failure].1;
            let expected = expected_cause(records[record].cause);
            acc.paired += 1;
            acc.exact += usize::from(inferred == expected);
            acc.class += usize::from(inferred.class() == expected.class());
        }
        acc
    }

    /// Share of injected failures that were detected.
    pub fn recall(&self) -> f64 {
        ratio(self.paired, self.injected)
    }

    /// Share of detections that report an injected failure.
    pub fn precision(&self) -> f64 {
        ratio(self.paired, self.detected)
    }

    /// Share of pairs with exactly the expected cause.
    pub fn exact_rate(&self) -> f64 {
        ratio(self.exact, self.paired)
    }

    /// Share of pairs with the expected coarse class.
    pub fn class_rate(&self) -> f64 {
        ratio(self.class, self.paired)
    }
}

fn ratio(n: usize, total: usize) -> f64 {
    n as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_diagnosis::TerminalKind;
    use hpc_logs::time::{SimDuration, SimTime};
    use hpc_platform::NodeId;

    const MS: SimDuration = SimDuration::from_millis(1);

    fn record(node: u32, mins: u64) -> FailureRecord {
        FailureRecord {
            node: NodeId(node),
            time: SimTime::EPOCH + SimDuration::from_mins(mins),
            cause: TrueRootCause::KernelBug,
            job: None,
            external_indicator: None,
            first_internal: None,
        }
    }

    /// [`pair`] against detections at `(node, time)`.
    fn pairs(records: &[FailureRecord], at: &[(u32, SimTime)]) -> Vec<(usize, usize)> {
        let terminal = TerminalKind::AdminDown;
        let failures: Vec<_> = (at.iter())
            .map(|&(n, time)| DetectedFailure {
                node: NodeId(n),
                time,
                terminal,
            })
            .collect();
        pair(records, &failures)
    }

    #[test]
    fn pairs_on_the_same_node_within_dedup_window_inclusive() {
        let r = [record(1, 60)];
        let t = r[0].time;
        assert_eq!(pairs(&r, &[(1, t + DEDUP_WINDOW)]), [(0, 0)]);
        assert_eq!(pairs(&r, &[(1, t.saturating_sub(DEDUP_WINDOW))]), [(0, 0)]);
        assert!(pairs(&r, &[(1, t + DEDUP_WINDOW + MS)]).is_empty());
        assert!(pairs(&r, &[(1, t.saturating_sub(DEDUP_WINDOW + MS))]).is_empty());
        assert!(pairs(&r, &[(2, t)]).is_empty(), "another node");
    }

    #[test]
    fn no_detection_is_paired_twice_and_the_earlier_record_wins() {
        // Handed over out of time order: the 62 min record claims the one
        // detection first, and the 65 min record finds it taken.
        let r = [record(1, 65), record(1, 62)];
        assert_eq!(pairs(&r, &[(1, r[1].time)]), [(1, 0)]);
        let both = [(1, r[1].time), (1, r[0].time)];
        assert_eq!(pairs(&r, &both), [(1, 0), (0, 1)]);
    }

    #[test]
    fn expected_class_is_the_injected_class() {
        // The simulator and the pipeline each name their coarse classes;
        // comparing `CauseClass` values must agree with comparing the names.
        use TrueRootCause::*;
        for cause in [
            HardwareMce,
            CpuCorruption,
            MemoryFailSlow,
            NodeVoltage,
            InterconnectFailure,
            LustreBug,
            KernelBug,
            DriverFirmwareBug,
            AppMemoryExhaustion,
            AppAbnormalExit,
            AppFsBug,
            UnknownBios,
            UnknownL0Mce,
            OperatorShutdown,
        ] {
            let (want, got) = (cause.class().name(), expected_cause(cause).class().name());
            assert_eq!(got, want, "{cause:?}");
        }
    }
}
