//! System-wide outage (SWO) recognition and exclusion.
//!
//! §III of the paper: "System-wide outages (SWOs) making the entire system
//! unavailable are present in our logs and tend to be mostly either service
//! related, intended node shutdowns, or file system caused failures. They
//! contribute to less than 3% of the overall anomalous failures. We
//! recognize and exclude intended shutdowns. Our study addresses single and
//! multiple node failures, unlike SWOs."
//!
//! Intended shutdowns are already excluded at detection time (the
//! `reboot: System halted` signature is never a terminal). This module
//! recognises the *other* SWO flavour — a large fraction of the machine
//! failing within one short window (e.g. a filesystem collapse) — so that
//! per-figure node-failure statistics can exclude it.

use hpc_logs::event::{ConsoleDetail, LogEvent, Payload};
use hpc_logs::time::{SimDuration, SimTime};

use crate::detection::DetectedFailure;

/// Fraction of the machine's nodes that must fail within one chain of
/// [`SWO_CHAIN_GAP`]-spaced failures for the chain to be an SWO.
const SWO_NODE_FRACTION: f64 = 0.10;

/// Largest gap between consecutive failures of one SWO chain.
const SWO_CHAIN_GAP: SimDuration = SimDuration::from_mins(15);

/// One recognised system-wide outage.
#[derive(Debug, Clone, PartialEq)]
pub struct SwoWindow {
    /// First failure of the outage.
    pub start: SimTime,
    /// Last failure inside the window chain.
    pub end: SimTime,
    /// Number of node failures swallowed by the outage.
    pub failures: usize,
}

impl SwoWindow {
    /// Whether a failure time falls inside this outage (inclusive).
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t <= self.end
    }
}

/// Recognises anomalous SWO windows among detected failures: maximal runs
/// of failures, each within 15 min of the previous, covering at least 10 %
/// of the `node_count`-node machine (`SWO_CHAIN_GAP`, `SWO_NODE_FRACTION`).
pub fn detect_swos(failures: &[DetectedFailure], node_count: u32) -> Vec<SwoWindow> {
    let threshold = ((node_count as f64 * SWO_NODE_FRACTION).ceil() as usize).max(2);
    let mut out = Vec::new();
    let mut run_start = 0;
    for i in 0..failures.len() {
        // Extend or cut the chain: consecutive failures ≤ window apart.
        if i > 0 && failures[i].time.since(failures[i - 1].time) > SWO_CHAIN_GAP {
            emit_if_swo(&failures[run_start..i], threshold, &mut out);
            run_start = i;
        }
    }
    emit_if_swo(&failures[run_start..], threshold, &mut out);
    out
}

fn emit_if_swo(run: &[DetectedFailure], threshold: usize, out: &mut Vec<SwoWindow>) {
    if run.len() < threshold {
        return;
    }
    let nodes: std::collections::BTreeSet<_> = run.iter().map(|f| f.node).collect();
    if nodes.len() >= threshold {
        out.push(SwoWindow {
            start: run[0].time,
            end: run[run.len() - 1].time,
            failures: run.len(),
        });
    }
}

/// Splits failures into (regular node failures, SWO-swallowed failures).
pub fn partition_failures(
    failures: &[DetectedFailure],
    swos: &[SwoWindow],
) -> (Vec<DetectedFailure>, Vec<DetectedFailure>) {
    failures
        .iter()
        .partition(|f| !swos.iter().any(|w| w.contains(f.time)))
}

/// Counts intended shutdowns in an event stream (for the "<3%" style
/// report; these never became detected failures).
pub fn intended_shutdown_count(events: &[LogEvent]) -> usize {
    events
        .iter()
        .filter(|e| {
            matches!(
                e.payload,
                Payload::Console {
                    detail: ConsoleDetail::GracefulShutdown,
                    ..
                }
            )
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::TerminalKind;
    use hpc_logs::event::PanicReason;
    use hpc_platform::NodeId;

    fn failure(ms: u64, node: u32) -> DetectedFailure {
        DetectedFailure {
            node: NodeId(node),
            time: SimTime::from_millis(ms),
            terminal: TerminalKind::Panic(PanicReason::LustreBug),
        }
    }

    #[test]
    fn sparse_failures_are_not_swos() {
        // 5 failures over hours on a 100-node machine.
        let failures: Vec<_> = (0..5).map(|i| failure(i * 3_600_000, i as u32)).collect();
        let swos = detect_swos(&failures, 100);
        assert!(swos.is_empty());
    }

    #[test]
    fn mass_failure_burst_is_an_swo() {
        // 30 of 100 nodes failing seconds apart.
        let failures: Vec<_> = (0..30)
            .map(|i| failure(1_000_000 + i * 5_000, i as u32))
            .collect();
        let swos = detect_swos(&failures, 100);
        assert_eq!(swos.len(), 1);
        assert_eq!(swos[0].failures, 30);
        let (regular, swallowed) = partition_failures(&failures, &swos);
        assert!(regular.is_empty());
        assert_eq!(swallowed.len(), 30);
    }

    #[test]
    fn swo_does_not_swallow_distant_failures() {
        let mut failures: Vec<_> = (0..30)
            .map(|i| failure(10_000_000 + i * 5_000, i as u32))
            .collect();
        // A lone failure hours before and after.
        failures.insert(0, failure(0, 99));
        failures.push(failure(100_000_000, 98));
        let swos = detect_swos(&failures, 100);
        assert_eq!(swos.len(), 1);
        let (regular, swallowed) = partition_failures(&failures, &swos);
        assert_eq!(regular.len(), 2);
        assert_eq!(swallowed.len(), 30);
    }

    #[test]
    fn threshold_scales_with_machine_size() {
        // 12 co-failing nodes: SWO on a 100-node machine (12%), not on a
        // 5600-node one.
        let failures: Vec<_> = (0..12).map(|i| failure(i * 1_000, i as u32)).collect();
        assert_eq!(detect_swos(&failures, 100).len(), 1);
        assert!(detect_swos(&failures, 5600).is_empty());
    }

    #[test]
    fn repeated_nodes_do_not_inflate_the_node_set() {
        // 30 failures but only 5 distinct nodes: not an SWO on 100 nodes.
        let failures: Vec<_> = (0..30)
            .map(|i| failure(i * 1_000, (i % 5) as u32))
            .collect();
        assert!(detect_swos(&failures, 100).is_empty());
    }
}
