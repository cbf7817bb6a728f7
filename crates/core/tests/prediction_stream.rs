//! Property tests for the offline predictor evaluator: its precision /
//! recall / lead-time statistics must be invariant under *event-order-
//! preserving stream interleavings* — any k-way merge of the four
//! per-source streams that keeps each source's order and global time order
//! is an equally valid "holistic view", and the evaluation must not depend
//! on which one the merge produced. This is the property that makes the
//! streaming engine's replay equivalence possible at all.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hpc_diagnosis::prediction::evaluate;
use hpc_diagnosis::{Diagnosis, DiagnosisConfig};
use hpc_faultsim::Scenario;
use hpc_logs::event::{LogEvent, LogSource};
use hpc_platform::SystemId;

fn base() -> &'static Diagnosis {
    static BASE: OnceLock<Diagnosis> = OnceLock::new();
    BASE.get_or_init(|| {
        let out = Scenario::new(SystemId::S1, 2, 10, 42).run();
        Diagnosis::from_archive(&out.archive, DiagnosisConfig::default())
    })
}

/// Re-merges the diagnosis's events: split back into the four source
/// streams (preserving order), then merge them again, breaking every
/// equal-timestamp tie by a random choice among the sources whose head
/// event carries the minimum time. Each seed yields one valid
/// order-preserving interleaving.
fn random_interleaving(seed: u64) -> Vec<LogEvent> {
    let mut streams: [std::collections::VecDeque<LogEvent>; 4] = Default::default();
    for e in base().events() {
        let idx = LogSource::ALL
            .iter()
            .position(|&s| s == e.source())
            .expect("source in ALL");
        streams[idx].push_back(e.clone());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(base().events().len());
    while let Some(min_time) = streams
        .iter()
        .filter_map(|s| s.front())
        .map(|e| e.time)
        .min()
    {
        let heads: Vec<usize> = streams
            .iter()
            .enumerate()
            .filter(|(_, s)| s.front().is_some_and(|e| e.time == min_time))
            .map(|(i, _)| i)
            .collect();
        let pick = heads[rng.gen_range(0..heads.len())];
        out.push(streams[pick].pop_front().expect("head exists"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn evaluation_invariant_under_stream_interleavings(seed in 0u64..1_000) {
        let d0 = base();
        let events = random_interleaving(seed);
        prop_assert_eq!(events.len(), d0.events().len());
        prop_assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        let d = Diagnosis::from_events(events, d0.skipped_lines, d0.config);
        prop_assert_eq!(&d.failures, &d0.failures);
        for require_external in [false, true] {
            let ev0 = evaluate(d0, require_external);
            let ev = evaluate(&d, require_external);
            // The alert *set* is interleaving-invariant, not just the
            // stats: debouncing and external gating key off event times,
            // never off tie order.
            let mut a0 = ev0.alerts.clone();
            let mut a = ev.alerts.clone();
            a0.sort_by_key(|x| (x.time, x.node));
            a.sort_by_key(|x| (x.time, x.node));
            prop_assert_eq!(a0, a, "require_external={}", require_external);
            prop_assert_eq!(ev0.true_positives, ev.true_positives);
            prop_assert_eq!(ev0.false_positives, ev.false_positives);
            prop_assert_eq!(ev0.predicted_failures, ev.predicted_failures);
            prop_assert_eq!(ev0.missed_failures, ev.missed_failures);
            prop_assert!((ev0.precision() - ev.precision()).abs() < 1e-12);
            prop_assert!((ev0.recall() - ev.recall()).abs() < 1e-12);
            prop_assert!((ev0.mean_lead_mins - ev.mean_lead_mins).abs() < 1e-9);
        }
    }
}
