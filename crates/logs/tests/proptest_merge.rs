//! Property tests: the galloping run merge is a stable sort, and its
//! bounded form is a prefix of it.
//!
//! Ingest hands `merge_by_time` every source's time-sorted runs in
//! `(source, file order)` order and relies on the result being exactly what
//! concatenating them in that order and stable-sorting by time gives — the
//! `(time, source, seq)` order the stream merger and the segment store's
//! position column share. The stream merger releases through
//! `merge_before`, stopped at a bound and resumed later, and relies on that
//! giving the same sequence piece by piece. Runs here overlap, are empty,
//! hold one event, or sit on one timestamp for long stretches across runs
//! and sources; every event is individually recognisable, so a swapped tie
//! shows.

use std::collections::VecDeque;

use proptest::prelude::*;

use hpc_logs::archive::{merge_before, merge_by_time};
use hpc_logs::event::{ConsoleDetail, LogEvent, Payload};
use hpc_logs::time::SimTime;
use hpc_platform::NodeId;

/// One run's timestamps, sorted: either spread out or piled on a few
/// values, so equal-time stretches span runs.
fn run_times() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        prop::collection::vec(0u64..2_000, 0..40),
        prop::collection::vec(0u64..4, 0..40),
        prop::collection::vec(990u64..1_010, 1..2),
    ]
    .prop_map(|mut times| {
        times.sort_unstable();
        times
    })
}

/// Sources × runs of events; the node id numbers each event in `(source,
/// run, position)` order, which is the order ties must come out in.
fn sources() -> impl Strategy<Value = Vec<Vec<Vec<LogEvent>>>> {
    prop::collection::vec(prop::collection::vec(run_times(), 0..6), 0..5).prop_map(|sources| {
        let mut seq = 0;
        let mut event = |ms| {
            seq += 1;
            LogEvent {
                time: SimTime::from_millis(ms),
                payload: Payload::Console {
                    node: NodeId(seq),
                    detail: ConsoleDetail::DiskError,
                },
            }
        };
        let runs = |runs: Vec<Vec<u64>>| {
            (runs.into_iter())
                .map(|times| times.into_iter().map(&mut event).collect())
                .collect()
        };
        sources.into_iter().map(runs).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn run_merge_equals_concatenate_then_stable_sort(sources in sources()) {
        let flat: Vec<Vec<LogEvent>> = sources.iter().flatten().cloned().collect();
        let mut want: Vec<LogEvent> = flat.iter().flatten().cloned().collect();
        want.sort_by_key(|e| e.time);
        prop_assert_eq!(&merge_by_time(flat), &want);
        // What ingest did before runs reached the merge: one sorted stream
        // per source first, then the merge across sources.
        let per_source: Vec<Vec<LogEvent>> = sources.into_iter().map(merge_by_time).collect();
        prop_assert_eq!(&merge_by_time(per_source), &want);
    }

    #[test]
    fn bounded_merge_is_the_prefix_before_the_bound(
        sources in sources(),
        bound in prop_oneof![0u64..2_100, 0u64..5, 990u64..1_011],
    ) {
        let flat: Vec<Vec<LogEvent>> = sources.into_iter().flatten().collect();
        let want = merge_by_time(flat.clone());
        let bound = SimTime::from_millis(bound);
        let mut runs: Vec<VecDeque<LogEvent>> = flat.into_iter().map(VecDeque::from).collect();
        let mut got = Vec::new();
        merge_before(&mut runs, bound, &mut got);
        let before = want.partition_point(|e| e.time < bound);
        prop_assert_eq!(&got[..], &want[..before]);
        // What stays behind is still every run's sorted remainder, and the
        // unbounded continuation yields exactly the rest.
        prop_assert!(runs.iter().flatten().all(|e| e.time >= bound));
        merge_before(&mut runs, SimTime::from_millis(u64::MAX), &mut got);
        prop_assert_eq!(&got, &want);
        prop_assert!(runs.iter().all(VecDeque::is_empty));
    }
}
