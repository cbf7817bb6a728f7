//! Segment-store round-trip: persisting a diagnosis with
//! [`hpc_diagnosis::segment::write_store`] and reopening it must reproduce
//! the in-memory state *exactly* — every event in order, every derived
//! failure and SWO window, and every rehosted query — for arbitrary event
//! soups including the empty archive and a single event. A second property
//! attacks the open path: flipping or truncating arbitrary bytes anywhere
//! in the store must yield a clean `OpenError`, never a panic and never a
//! silently different diagnosis.

use std::path::PathBuf;

use proptest::prelude::*;

use hpc_diagnosis::query::{self, HistKey, QueryFilter};
use hpc_diagnosis::segment::{self, StoreContents};
use hpc_diagnosis::{Diagnosis, DiagnosisConfig, EventStore};
use hpc_logs::event::{
    Apid, AppKind, ConsoleDetail, ControllerDetail, ControllerScope, JobEndReason, JobId, LogEvent,
    PanicReason, Payload, SchedulerDetail,
};
use hpc_logs::time::SimTime;
use hpc_platform::system::SchedulerKind;
use hpc_platform::NodeId;

/// A sorted event soup spanning failure terminals, blade-scoped external
/// faults, internal symptoms and job lifecycle records — enough variety
/// to populate several segment classes and the derived failure/SWO state.
fn event_soup() -> impl Strategy<Value = Vec<LogEvent>> {
    prop::collection::vec(
        (
            0u64..200_000_000u64,
            0u32..64,
            prop::sample::select(vec![0u8, 1, 2, 3, 4, 5, 6, 7]),
        ),
        0..120,
    )
    .prop_map(|mut raw| {
        raw.sort();
        raw.into_iter()
            .map(|(ms, node_raw, kind)| {
                let node = NodeId(node_raw);
                let job = JobId(u64::from(node_raw % 8));
                let payload = match kind {
                    0 => Payload::Console {
                        node,
                        detail: ConsoleDetail::KernelPanic {
                            reason: PanicReason::KernelBug,
                        },
                    },
                    1 => Payload::Controller {
                        scope: ControllerScope::Blade(node.blade()),
                        detail: ControllerDetail::NodeVoltageFault { node },
                    },
                    2 => Payload::Controller {
                        scope: ControllerScope::Blade(node.blade()),
                        detail: ControllerDetail::NodeHeartbeatFault { node },
                    },
                    3 => Payload::Console {
                        node,
                        detail: ConsoleDetail::CpuStall { cpu: 0 },
                    },
                    4 => Payload::Console {
                        node,
                        detail: ConsoleDetail::OomKill {
                            victim: AppKind::Python,
                            pid: 4242,
                        },
                    },
                    5 => Payload::Scheduler {
                        detail: SchedulerDetail::JobStart {
                            job,
                            apid: Apid(job.0 + 1),
                            user: 1000 + job.0 as u32,
                            app: AppKind::MpiSimulation,
                            nodes: vec![node, NodeId((node_raw + 1) % 64)],
                            mem_per_node_mib: 65536,
                        },
                    },
                    6 => Payload::Scheduler {
                        detail: SchedulerDetail::JobEnd {
                            job,
                            exit_code: 0,
                            reason: JobEndReason::Completed,
                        },
                    },
                    7 => Payload::Scheduler {
                        detail: SchedulerDetail::MemOverallocation {
                            job,
                            node,
                            requested_mib: 131072,
                            available_mib: 65536,
                        },
                    },
                    _ => unreachable!(),
                };
                LogEvent {
                    time: SimTime::from_millis(ms),
                    payload,
                }
            })
            .collect()
    })
}

/// Arbitrary `QueryFilter`s spanning every predicate the planner can
/// prune on: class subsets (including `Mce`, which the soup never
/// emits, so class pruning hits empty segment sets), entity predicates
/// that force full residual streaming, and time windows that straddle,
/// miss, or invert segment boundaries. One draw in eight is a node alone
/// and one a node with a window, the shapes `tail --node` asks.
fn filter_soup() -> impl Strategy<Value = QueryFilter> {
    use hpc_diagnosis::EventClass;
    // The vendored mini-proptest has no `option::of`/`subsequence`;
    // a class bitmask and out-of-range sentinels model the same space.
    const CLASSES: [EventClass; 9] = [
        EventClass::KernelPanic,
        EventClass::NodeVoltageFault,
        EventClass::NodeHeartbeatFault,
        EventClass::CpuStall,
        EventClass::OomKill,
        EventClass::JobStart,
        EventClass::JobEnd,
        EventClass::MemOverallocation,
        EventClass::Mce, // the soup never emits Mce: empty class pruning
    ];
    (
        (
            0u32..512, // class subset bitmask
            0u32..8,   // shape: 0 node only, 1 node and window, else as drawn
        ),
        0u32..128,            // node; >= 64 means None
        0u32..128,            // blade seed; >= 64 means None
        0u32..128,            // cabinet seed; >= 64 means None
        0u64..440_000_000u64, // from; >= 220M means None
        0u64..440_000_000u64, // to; >= 220M means None
    )
        .prop_map(|((mask, shape), node, blade, cabinet, from, to)| {
            let from = (from < 220_000_000).then(|| SimTime::from_millis(from));
            let to = (to < 220_000_000).then(|| SimTime::from_millis(to));
            let node_only = QueryFilter {
                node: Some(NodeId(node % 64)),
                ..QueryFilter::default()
            };
            match shape {
                0 => node_only,
                1 => QueryFilter {
                    from,
                    to,
                    ..node_only
                },
                _ => QueryFilter {
                    classes: CLASSES
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask >> i & 1 == 1)
                        .map(|(_, c)| *c)
                        .collect(),
                    node: (node < 64).then_some(NodeId(node)),
                    blade: (blade < 64).then(|| NodeId(blade).blade()),
                    cabinet: (cabinet < 64).then(|| NodeId(cabinet).cabinet()),
                    from,
                    to,
                },
            }
        })
}

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("hpc-segrt-{tag}-{}-{n}", std::process::id()))
}

fn save(d: &Diagnosis, dir: &std::path::Path) {
    segment::write_store(
        dir,
        &StoreContents {
            events: d.events(),
            failures: &d.failures,
            swos: &d.swos,
            swo_failures: &d.swo_failures,
            skipped_lines: d.skipped_lines,
            total_lines: d.events().len() as u64,
            scheduler: SchedulerKind::Slurm,
            source: "proptest",
        },
    )
    .expect("write_store");
}

/// Every query verb, over a grid of filters derived from the actual data,
/// must agree between the original in-memory store and the reopened one.
fn assert_queries_agree(mem: &EventStore, re: &EventStore, events: &[LogEvent]) {
    let mut filters = vec![QueryFilter::default()];
    if let Some(first) = events.first() {
        filters.push(QueryFilter {
            classes: vec![hpc_diagnosis::EventClass::of(&first.payload)],
            ..QueryFilter::default()
        });
        let lo = events[0].time;
        let hi = events[events.len() - 1].time;
        let mid = SimTime::from_millis((lo.as_millis() + hi.as_millis()) / 2);
        filters.push(QueryFilter {
            from: Some(lo),
            to: Some(mid),
            ..QueryFilter::default()
        });
        if let Some(node) = events.iter().find_map(|e| e.subject_node()) {
            filters.push(QueryFilter {
                node: Some(node),
                from: Some(mid),
                ..QueryFilter::default()
            });
            filters.push(QueryFilter {
                blade: Some(node.blade()),
                ..QueryFilter::default()
            });
            filters.push(QueryFilter {
                cabinet: Some(node.cabinet()),
                to: Some(hi),
                ..QueryFilter::default()
            });
        }
    }
    for f in &filters {
        assert_eq!(query::count(mem, f), query::count(re, f));
        assert_eq!(f.select(mem), f.select(re), "select mismatch for {f:?}");
        for key in [
            HistKey::Class,
            HistKey::Node,
            HistKey::Blade,
            HistKey::Cabinet,
            HistKey::Day,
            HistKey::Hour,
        ] {
            assert_eq!(query::histogram(mem, f, key), query::histogram(re, f, key));
        }
        assert_eq!(
            query::tail(mem, f, 7, SchedulerKind::Slurm),
            query::tail(re, f, 7, SchedulerKind::Slurm)
        );
    }
}

/// Rows a node scan reads from the node index: events of the filter's
/// classes in its window whose subject is its node. `None` without a node.
fn node_rows(events: &[LogEvent], filter: &QueryFilter) -> Option<u64> {
    let by_node = QueryFilter {
        classes: filter.classes.clone(),
        node: Some(filter.node?),
        from: filter.from,
        to: filter.to,
        ..QueryFilter::default()
    };
    Some(events.iter().filter(|e| by_node.matches(e)).count() as u64)
}

/// Under a node predicate, the scan after the one that built every index
/// it needs decodes exactly the node's in-window rows of the filter's
/// classes; `blade` and `cabinet` are tested after the decode.
fn assert_warm_node_scan_decodes_only_its_rows(
    plan: &query::StorePlan<'_>,
    node_rows: Option<u64>,
) {
    let Some(node_rows) = node_rows else {
        return;
    };
    let drain = || {
        let mut scan = plan.events().expect("events");
        scan.by_ref().for_each(drop);
        assert!(scan.take_error().is_none());
        scan.stats()
    };
    drain(); // builds whatever index is not built yet
    assert_eq!(drain().rows_decoded, node_rows);
}

const KEYS: [HistKey; 6] = [
    HistKey::Class,
    HistKey::Node,
    HistKey::Blade,
    HistKey::Cabinet,
    HistKey::Day,
    HistKey::Hour,
];

/// Every verb's answer to one plan: the event stream, `count`, the
/// histogram of each of `KEYS`, `tail` 7 and 300, and `failures`.
type Answers = (
    Vec<LogEvent>,
    u64,
    Vec<Vec<query::HistBucket>>,
    Vec<Vec<(SimTime, hpc_diagnosis::EventClass, String)>>,
    Vec<hpc_diagnosis::DetectedFailure>,
);

fn answers(plan: &query::StorePlan<'_>) -> Answers {
    let mut events = plan.events().expect("events");
    let streamed = events.by_ref().collect();
    assert!(events.take_error().is_none(), "mid-stream error");
    (
        streamed,
        plan.count().expect("count"),
        KEYS.map(|key| plan.histogram(key).expect("histogram"))
            .to_vec(),
        [7, 300]
            .map(|n| plan.tail(n, SchedulerKind::Slurm).expect("tail"))
            .to_vec(),
        plan.failures().expect("failures"),
    )
}

/// For every filter, `plan(...).events()` must yield exactly
/// `Store::load` followed by `filter.matches`, in order, and every planner
/// verb must agree with the in-memory `EventStore` verb over the same
/// data — `tail` both shorter and longer than a block. Every verb runs
/// twice on one store kept open across the filters — the second run reads
/// what the first kept — and both answers equal those of a store opened
/// afresh for the filter, which has kept nothing.
fn assert_plans_match_full_load(dir: &std::path::Path, filters: &[QueryFilter]) {
    let store = segment::Store::open(dir).expect("open");
    let full = segment::Store::open(dir)
        .and_then(segment::Store::load)
        .expect("load");
    let mem = EventStore::build(full.events.clone(), &full.failures);
    for filter in filters {
        let plan = query::plan(&store, filter);
        let mut planned = plan.events().expect("events");
        planned.by_ref().for_each(drop);
        assert!(planned.take_error().is_none(), "mid-stream error");
        let stats = planned.stats();

        // Pruning must never decode more rows than the store holds (plus,
        // under a node predicate, the node's rows again after a segment's
        // index build), and pruned + decoded must account for every
        // selected segment.
        let node_rows = node_rows(&full.events, filter);
        assert!(stats.rows_decoded <= full.manifest.events + node_rows.unwrap_or(0));
        assert!(
            (stats.segments_decoded + stats.segments_pruned) as usize
                <= full.manifest.segments.len()
        );
        assert_warm_node_scan_decodes_only_its_rows(&plan, node_rows);

        let first = answers(&plan);
        assert_eq!(answers(&plan), first, "second run {filter:?}");
        let fresh = segment::Store::open(dir).expect("reopen");
        assert_eq!(
            answers(&query::plan(&fresh, filter)),
            first,
            "fresh open {filter:?}"
        );

        // Brute force: full decode, then the residual predicate alone.
        let (streamed, count, histograms, tails, failures) = first;
        let brute: Vec<LogEvent> = full
            .events
            .iter()
            .filter(|e| filter.matches(e))
            .cloned()
            .collect();
        assert_eq!(streamed, brute, "{filter:?}");
        assert_eq!(count, brute.len() as u64, "{filter:?}");
        for (key, buckets) in KEYS.into_iter().zip(histograms) {
            assert_eq!(
                buckets,
                query::histogram(&mem, filter, key),
                "{key:?} {filter:?}"
            );
        }
        for (n, tail) in [7, 300].into_iter().zip(tails) {
            assert_eq!(
                tail,
                query::tail(&mem, filter, n, SchedulerKind::Slurm),
                "tail {n} {filter:?}"
            );
        }
        assert_eq!(failures, query::failures(&full.failures, filter));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn save_then_reopen_reproduces_the_diagnosis_exactly(events in event_soup()) {
        let config = DiagnosisConfig::default();
        let d = Diagnosis::from_events(events, 3, config);
        let dir = tmpdir("rt");
        save(&d, &dir);

        let opened = segment::open_store(&dir).expect("open_store");
        prop_assert_eq!(&opened.events, d.events());
        prop_assert_eq!(&opened.failures, &d.failures);
        prop_assert_eq!(&opened.swos, &d.swos);
        prop_assert_eq!(&opened.swo_failures, &d.swo_failures);
        prop_assert_eq!(opened.manifest.skipped_lines, d.skipped_lines);
        prop_assert_eq!(opened.manifest.events, d.events().len() as u64);

        // The rehosted batch path: a Diagnosis reopened from the store
        // renders the byte-identical full report.
        let re = Diagnosis::from_store(&dir, config).expect("from_store");
        let jobs = hpc_diagnosis::jobs::JobLog::from_diagnosis(&d);
        let re_jobs = hpc_diagnosis::jobs::JobLog::from_diagnosis(&re);
        prop_assert_eq!(
            hpc_diagnosis::report::full_report(&d, &jobs),
            hpc_diagnosis::report::full_report(&re, &re_jobs)
        );

        // Every hpc-query verb agrees between the two stores.
        let failures = opened.failures.clone();
        let rebuilt = EventStore::build(opened.events, &failures);
        assert_queries_agree(d.store(), &rebuilt, d.events());
        prop_assert_eq!(
            query::failures(&d.failures, &QueryFilter::default()),
            query::failures(&failures, &QueryFilter::default())
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    /// `Store::load_range(t0, t1)` must agree exactly with the brute
    /// force — full `load` followed by an inclusive time filter — for
    /// arbitrary soups and arbitrary ranges, including empty, disjoint
    /// and inverted ones. This is the contract that lets fleetd's
    /// cold-start backfill trust the pruned path.
    #[test]
    fn load_range_equals_full_load_then_filter(
        events in event_soup(),
        a in 0u64..220_000_000u64,
        b in 0u64..220_000_000u64,
    ) {
        let d = Diagnosis::from_events(events, 0, DiagnosisConfig::default());
        let dir = tmpdir("lr");
        save(&d, &dir);

        let (from, to) = (SimTime::from_millis(a), SimTime::from_millis(b));
        let store = segment::Store::open(&dir).expect("open");
        let ranged = store.load_range(from, to).expect("load_range");
        // Second query on the same handle: the borrow-based API allows it.
        let ranged_again = store.load_range(from, to).expect("load_range again");
        prop_assert_eq!(&ranged, &ranged_again);

        let full = store.load().expect("load");
        let filtered: Vec<_> = full
            .events
            .into_iter()
            .filter(|e| e.time >= from && e.time <= to)
            .collect();
        prop_assert_eq!(ranged, filtered);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// The pruned streaming scan is definitionally a filter: for any
    /// soup and any filter combination, `plan(...).events()` must yield
    /// exactly `Store::load` followed by `filter.matches` in order, and
    /// every planner verb must agree with the in-memory `EventStore`
    /// verb over the same data. Single-segment stores, empty results and
    /// windows straddling segment time boundaries all fall out of the
    /// generators.
    #[test]
    fn pruned_scan_equals_full_load_then_filter(
        events in event_soup(),
        filter in filter_soup(),
    ) {
        let d = Diagnosis::from_events(events, 0, DiagnosisConfig::default());
        let dir = tmpdir("scan");
        save(&d, &dir);
        let store = segment::Store::open(&dir).expect("open");

        // Planner outputs first: `plan` borrows the store, `load` eats it.
        let plan = query::plan(&store, &filter);
        let mut planned = plan.events().expect("events");
        let streamed: Vec<LogEvent> = planned.by_ref().collect();
        prop_assert!(planned.take_error().is_none(), "mid-stream error");
        let stats = planned.stats();
        drop(planned);
        let count = plan.count().expect("count");
        let hists: Vec<_> = KEYS
            .iter()
            .map(|k| plan.histogram(*k).expect("histogram"))
            .collect();
        let tail = plan.tail(7, SchedulerKind::Slurm).expect("tail");
        let fails = plan.failures().expect("failures");
        drop(plan);

        // Brute force: full decode, then the residual predicate alone.
        let full = store.load().expect("load");
        let brute: Vec<LogEvent> = full
            .events
            .iter()
            .filter(|e| filter.matches(e))
            .cloned()
            .collect();
        prop_assert_eq!(&streamed, &brute);
        prop_assert_eq!(count, brute.len() as u64);

        // Pruning must never decode more rows than the store holds (plus,
        // under a node predicate, the node's rows again after a segment's
        // index build), and pruned + decoded must account for every
        // selected segment.
        let node_rows = node_rows(&full.events, &filter);
        prop_assert!(stats.rows_decoded <= full.manifest.events + node_rows.unwrap_or(0));
        prop_assert!(
            (stats.segments_decoded + stats.segments_pruned) as usize
                <= full.manifest.segments.len()
        );

        let warm = segment::Store::open(&dir).expect("reopen");
        assert_warm_node_scan_decodes_only_its_rows(&query::plan(&warm, &filter), node_rows);

        let mem = EventStore::build(full.events, &full.failures);
        for (key, hist) in KEYS.iter().zip(&hists) {
            prop_assert_eq!(hist, &query::histogram(&mem, &filter, *key));
        }
        prop_assert_eq!(tail, query::tail(&mem, &filter, 7, SchedulerKind::Slurm));
        prop_assert_eq!(fails, query::failures(&full.failures, &filter));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// The same equivalence where the block directory matters: one class
    /// holds 600–900 rows (three or four blocks) in runs of equal times —
    /// the telemetry archive stamps a whole sweep of sensors with one
    /// millisecond — so runs straddle block boundaries, and the windows
    /// start and end on, one tick before and one tick after the time of
    /// every block's first row. `partition_point(< from)` / `(<= to)` must
    /// mean the same through the block search as over a whole column.
    #[test]
    fn pruned_scan_survives_block_boundaries(
        soup in event_soup(),
        rows in 600u64..900,
        run in 1u64..40,
        step in 1u64..5_000,
    ) {
        let mut events = soup;
        events.extend((0..rows).map(|i| LogEvent {
            time: SimTime::from_millis(i / run * step),
            payload: Payload::Console {
                node: NodeId((i % 64) as u32),
                detail: ConsoleDetail::CpuStall { cpu: 1 },
            },
        }));
        events.sort_by_key(|e| e.time);
        let d = Diagnosis::from_events(events, 0, DiagnosisConfig::default());
        let dir = tmpdir("blocks");
        save(&d, &dir);

        let stall = hpc_diagnosis::EventClass::CpuStall;
        let stalls: Vec<&LogEvent> = d
            .events()
            .iter()
            .filter(|e| hpc_diagnosis::EventClass::of(&e.payload) == stall)
            .collect();
        prop_assert!(stalls.len() >= 600);
        let mut filters = Vec::new();
        for first_row in stalls.iter().step_by(256).skip(1) {
            let t = first_row.time.as_millis();
            let at = |ms: u64| Some(SimTime::from_millis(ms));
            for edge in [t.saturating_sub(1), t, t + 1] {
                filters.push(QueryFilter { from: at(edge), ..QueryFilter::default() });
                filters.push(QueryFilter { to: at(edge), ..QueryFilter::default() });
                filters.push(QueryFilter {
                    classes: vec![stall],
                    from: at(edge),
                    to: at(edge + step),
                    ..QueryFilter::default()
                });
                filters.push(QueryFilter {
                    node: first_row.subject_node(),
                    to: at(edge),
                    ..QueryFilter::default()
                });
            }
            filters.push(QueryFilter { from: at(t), to: at(t + 1), ..QueryFilter::default() });
        }
        assert_plans_match_full_load(&dir, &filters);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Any single-byte flip or truncation anywhere in the store either
    /// fails with a clean [`segment::OpenError`] or (for the few bytes the
    /// fingerprint does not cover, e.g. the free-text source label) still
    /// opens to the identical event sequence. It must never panic.
    #[test]
    fn corrupted_or_truncated_stores_error_cleanly(
        events in event_soup(),
        pick in 0usize..4096,
        mutation in 0usize..4096,
        truncate_pick in 0usize..2,
    ) {
        let truncate = truncate_pick == 1;
        let d = Diagnosis::from_events(events, 0, DiagnosisConfig::default());
        let dir = tmpdir("fz");
        save(&d, &dir);

        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let victim = &files[pick % files.len()];
        let mut bytes = std::fs::read(victim).unwrap();
        let unchanged = if truncate {
            let cut = mutation % (bytes.len() + 1);
            let noop = cut == bytes.len();
            bytes.truncate(cut);
            noop
        } else if bytes.is_empty() {
            true
        } else {
            let at = mutation % bytes.len();
            bytes[at] ^= 0x20;
            false
        };
        std::fs::write(victim, &bytes).unwrap();

        // The property under test is "no panic, no silent divergence":
        // open_store returns a Result, and on Ok the events round-trip.
        match segment::open_store(&dir) {
            Ok(opened) => prop_assert_eq!(&opened.events, d.events()),
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(!msg.is_empty());
                prop_assert!(!msg.contains('\n'), "one-line error: {}", msg);
                prop_assert!(!unchanged, "untouched store failed to open: {}", msg);
            }
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Regression for the `hpc-query tail` rewrite: the stream a tail rides
/// must stay O(matching segments). With one class selected out of two,
/// exactly one segment decodes, the other is pruned on the catalogue,
/// and `rows_decoded` is that segment's row count — never the store's.
#[test]
fn tail_stream_decodes_only_matching_segments() {
    let mut events = Vec::new();
    for i in 0..40u64 {
        events.push(LogEvent {
            time: SimTime::from_millis(i * 1_000),
            payload: Payload::Console {
                node: NodeId((i % 8) as u32),
                detail: ConsoleDetail::CpuStall { cpu: 0 },
            },
        });
        events.push(LogEvent {
            time: SimTime::from_millis(i * 1_000 + 1),
            payload: Payload::Console {
                node: NodeId((i % 8) as u32),
                detail: ConsoleDetail::OomKill {
                    victim: AppKind::Python,
                    pid: 1,
                },
            },
        });
    }
    let d = Diagnosis::from_events(events, 0, DiagnosisConfig::default());
    let dir = tmpdir("tail-stats");
    save(&d, &dir);
    let store = segment::Store::open(&dir).expect("open");
    let n_segments = store.manifest().segments.len();
    assert!(n_segments >= 2, "two populated classes → two segments");

    let filter = QueryFilter {
        classes: vec![hpc_diagnosis::EventClass::OomKill],
        ..QueryFilter::default()
    };
    let plan = query::plan(&store, &filter);

    // The tail itself: last 5 oom-kills, oldest first.
    let rows = plan.tail(5, SchedulerKind::Slurm).expect("tail");
    assert_eq!(rows.len(), 5);
    assert_eq!(rows[0].0, SimTime::from_millis(35_001));

    // The stream the tail rode: one segment decoded, the rest pruned,
    // and only that segment's rows ever touched the payload decoder.
    let mut ev = plan.events().expect("events");
    assert_eq!(ev.by_ref().count(), 40);
    assert!(ev.take_error().is_none());
    let stats = ev.stats();
    assert_eq!(stats.segments_decoded, 1);
    assert_eq!(stats.segments_pruned, (n_segments - 1) as u64);
    assert_eq!(stats.rows_decoded, 40);

    // A class-only count is served from the catalogue: no rows decoded.
    assert_eq!(plan.count().expect("count"), 40);

    std::fs::remove_dir_all(&dir).ok();
}

/// A time window that clips one segment must decode only up to the
/// window's upper row bound: trailing rows past `hi` are never decoded.
#[test]
fn time_clipped_scan_stops_at_the_binary_searched_bound() {
    let events: Vec<LogEvent> = (0..100u64)
        .map(|i| LogEvent {
            time: SimTime::from_millis(i * 1_000),
            payload: Payload::Console {
                node: NodeId((i % 4) as u32),
                detail: ConsoleDetail::CpuStall { cpu: 0 },
            },
        })
        .collect();
    let d = Diagnosis::from_events(events, 0, DiagnosisConfig::default());
    let dir = tmpdir("clip");
    save(&d, &dir);
    let store = segment::Store::open(&dir).expect("open");

    // [10s, 20s) selects rows 10..=19; rows 0..10 are decode-and-skip
    // (payload columns carry no offsets), rows 20..100 never decode.
    let filter = QueryFilter {
        from: Some(SimTime::from_millis(10_000)),
        to: Some(SimTime::from_millis(20_000)),
        ..QueryFilter::default()
    };
    let plan = query::plan(&store, &filter);
    let mut ev = plan.events().expect("events");
    assert_eq!(ev.by_ref().count(), 10);
    assert!(ev.take_error().is_none());
    let stats = ev.stats();
    assert_eq!(stats.segments_decoded, 1);
    assert_eq!(stats.rows_decoded, 20, "rows 0..hi only, never past hi");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_archive_round_trips() {
    let d = Diagnosis::from_events(Vec::new(), 0, DiagnosisConfig::default());
    let dir = tmpdir("empty");
    save(&d, &dir);
    let opened = segment::open_store(&dir).expect("open_store");
    assert!(opened.events.is_empty());
    assert!(opened.failures.is_empty());
    assert_eq!(opened.manifest.segments.len(), 0);
    assert_eq!(
        query::count(
            &EventStore::build(opened.events, &[]),
            &QueryFilter::default()
        ),
        0
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_event_round_trips() {
    let events = vec![LogEvent {
        time: SimTime::from_millis(42_000),
        payload: Payload::Console {
            node: NodeId(7),
            detail: ConsoleDetail::KernelPanic {
                reason: PanicReason::OutOfMemory,
            },
        },
    }];
    let d = Diagnosis::from_events(events, 0, DiagnosisConfig::default());
    let dir = tmpdir("one");
    save(&d, &dir);
    let opened = segment::open_store(&dir).expect("open_store");
    assert_eq!(&opened.events, d.events());
    assert_eq!(opened.manifest.segments.len(), 1);
    let failures = opened.failures.clone();
    let store = EventStore::build(opened.events, &failures);
    assert_eq!(query::count(&store, &QueryFilter::default()), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// The subject tier: under a node predicate a segment is read only if its
/// class names subject nodes and its dictionary holds the node. Answers
/// must stay those of the in-memory verbs for a node in several segments'
/// dictionaries, in one, only in the dictionary of a class that never has
/// a subject (a job's node list), in none, and beyond the largest id.
#[test]
fn node_predicates_prune_segments_and_keep_the_answers() {
    let console = |ms: u64, node: u32, detail| LogEvent {
        time: SimTime::from_millis(ms),
        payload: Payload::Console {
            node: NodeId(node),
            detail,
        },
    };
    let mut events = Vec::new();
    for i in 0..60u64 {
        let stall = ConsoleDetail::CpuStall { cpu: 0 };
        events.push(console(i * 1_000, [1, 2, 3][i as usize % 3], stall));
        let oom = ConsoleDetail::OomKill {
            victim: AppKind::Python,
            pid: 1,
        };
        events.push(console(i * 1_000 + 1, [2, 5][i as usize % 2], oom));
    }
    events.push(LogEvent {
        time: SimTime::from_millis(70_000),
        payload: Payload::Scheduler {
            detail: SchedulerDetail::JobStart {
                job: JobId(9),
                apid: Apid(10),
                user: 1000,
                app: AppKind::MpiSimulation,
                nodes: vec![NodeId(2), NodeId(7)],
                mem_per_node_mib: 1024,
            },
        },
    });
    let d = Diagnosis::from_events(events, 0, DiagnosisConfig::default());
    let dir = tmpdir("subject");
    save(&d, &dir);
    let store = segment::Store::open(&dir).expect("open");
    let segments = store.manifest().segments.len() as u64;
    assert_eq!(segments, 3);

    // (node, segments whose rows can match it)
    for (node, holding) in [(2, 2), (5, 1), (7, 0), (4, 0), (1_000_000, 0)] {
        let filter = QueryFilter {
            node: Some(NodeId(node)),
            ..QueryFilter::default()
        };
        let plan = query::plan(&store, &filter);
        let mut stream = plan.events().expect("events");
        let streamed = stream.by_ref().count() as u64;
        assert!(stream.take_error().is_none());
        assert_eq!(stream.stats().segments_decoded, holding, "node {node}");
        assert_eq!(stream.stats().segments_pruned, segments - holding);
        assert_eq!(streamed, query::count(d.store(), &filter), "node {node}");
        assert_eq!(plan.count().expect("count"), streamed);
        for key in [HistKey::Node, HistKey::Class, HistKey::Day] {
            assert_eq!(
                plan.histogram(key).expect("histogram"),
                query::histogram(d.store(), &filter, key),
                "node {node} {key:?}"
            );
        }
        assert_eq!(
            plan.tail(7, SchedulerKind::Slurm).expect("tail"),
            query::tail(d.store(), &filter, 7, SchedulerKind::Slurm),
            "node {node}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `testdata/store-v1` was written by the last schema 1 build from
/// `testdata/sample-logs`. It must keep opening, and give the same events
/// and the same answer to every verb as a store this build writes from
/// the same archive.
#[test]
fn schema_1_fixture_answers_like_a_fresh_store() {
    let testdata = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../testdata");
    let logs = testdata.join("sample-logs");
    let d = Diagnosis::from_dir(&logs, DiagnosisConfig::default()).expect("sample logs");
    let dir = tmpdir("fresh");
    let written = d
        .save_store(&dir, "testdata/sample-logs", 784, SchedulerKind::Slurm)
        .expect("save_store");
    assert_eq!(written.schema_version, 2);

    let old = segment::Store::open(&testdata.join("store-v1")).expect("schema 1 opens");
    let new = segment::Store::open(&dir).expect("schema 2 opens");
    assert_eq!(old.manifest().schema_version, 1);
    assert_eq!(old.manifest().events, new.manifest().events);

    let requests: [&[(&str, &str)]; 10] = [
        &[("verb", "count")],
        &[("verb", "count"), ("node", "nid00005")],
        &[("verb", "count"), ("from", "20000000"), ("to", "50000000")],
        &[
            ("verb", "count"),
            ("class", "job_start"),
            ("to", "50000000"),
        ],
        &[("verb", "histogram"), ("by", "class")],
        &[("verb", "histogram"), ("by", "hour"), ("from", "20000000")],
        &[("verb", "histogram"), ("by", "node"), ("cabinet", "0")],
        &[("verb", "tail"), ("n", "5")],
        &[("verb", "tail"), ("n", "20"), ("node", "nid00005")],
        &[("verb", "failures")],
    ];
    for pairs in requests {
        let mut request = query::Request::default();
        for (key, value) in pairs {
            request.set(key, value).expect("request");
        }
        let answer = |store| {
            request
                .run(&query::plan(store, &request.filter), SchedulerKind::Slurm)
                .expect("answer")
        };
        assert_eq!(answer(&old), answer(&new), "{pairs:?}");
    }

    let (old, new) = (old.load().expect("load"), new.load().expect("load"));
    assert_eq!(old.events, new.events);
    assert_eq!(&old.events, d.events());
    assert_eq!(old.failures, new.failures);
    assert_eq!(old.swos, new.swos);
    std::fs::remove_dir_all(&dir).ok();
}

/// Ten nodes in three cabinets: 1,100 cpu-stall rows (five blocks, in
/// runs of three equal times) and 300 oom-kills on twelve nodes, plus job
/// starts naming nodes in a class without a subject.
fn node_scoped_events() -> Vec<LogEvent> {
    const NODES: [u32; 12] = [0, 1, 2, 3, 5, 196, 197, 390, 391, 392, 8, 9];
    let console = |ms: u64, node: u32, detail| LogEvent {
        time: SimTime::from_millis(ms),
        payload: Payload::Console {
            node: NodeId(node),
            detail,
        },
    };
    let mut events = Vec::new();
    for i in 0..1_100u64 {
        // The last node of the ten is rare: one row in fifty.
        let node = if i % 50 == 0 { 9 } else { i % 9 };
        let stall = ConsoleDetail::CpuStall { cpu: 0 };
        events.push(console(i / 3 * 1_000, NODES[node as usize], stall));
        if i % 11 < 3 {
            let oom = ConsoleDetail::OomKill {
                victim: AppKind::Python,
                pid: i as u32,
            };
            events.push(console(i / 3 * 1_000 + 1, NODES[i as usize % 12], oom));
        }
        if i % 100 == 0 {
            events.push(LogEvent {
                time: SimTime::from_millis(i / 3 * 1_000 + 2),
                payload: Payload::Scheduler {
                    detail: SchedulerDetail::JobStart {
                        job: JobId(i),
                        apid: Apid(i + 1),
                        user: 1000,
                        app: AppKind::MpiSimulation,
                        nodes: vec![NodeId(NODES[0]), NodeId(NODES[10])],
                        mem_per_node_mib: 1024,
                    },
                },
            });
        }
    }
    events.sort_by_key(|e| e.time);
    events
}

/// Under a node predicate each selected segment builds its node index
/// once, on the first scan, and that scan counts the build's rows; every
/// later `count` and `histogram` decodes exactly the node's in-window
/// rows. Node alone, with a window, with a class and with a cabinet (in
/// and out of it) all answer like the in-memory verbs, `tail` shorter and
/// longer than a node's rows included.
#[test]
fn node_queries_decode_only_the_nodes_rows_across_blocks() {
    use hpc_diagnosis::EventClass;
    let d = Diagnosis::from_events(node_scoped_events(), 0, DiagnosisConfig::default());
    let dir = tmpdir("node-index");
    save(&d, &dir);
    let store = segment::Store::open(&dir).expect("open");
    let rows = |class| {
        let segments = &store.manifest().segments;
        segments
            .iter()
            .find(|s| s.class == class)
            .expect("segment")
            .events
    };
    let (stall_rows, oom_rows) = (rows(EventClass::CpuStall), rows(EventClass::OomKill));
    assert!(stall_rows > 4 * 256, "five blocks of one class");
    let builds_before = hpc_telemetry::counter("core.segment.node_index.builds").get();

    // Node 0 is in both node-scoped segments: the first scan builds both
    // indexes and reads every row of each once, then the node's rows.
    let node0 = QueryFilter {
        node: Some(NodeId(0)),
        ..QueryFilter::default()
    };
    let own = |filter: &QueryFilter| d.events().iter().filter(|e| filter.matches(e)).count();
    let plan = query::plan(&store, &node0);
    let mut cold = plan.events().expect("events");
    assert_eq!(cold.by_ref().count(), own(&node0));
    assert!(cold.take_error().is_none());
    assert_eq!(cold.stats().segments_decoded, 2);
    assert_eq!(
        cold.stats().rows_decoded,
        stall_rows + oom_rows + own(&node0) as u64
    );
    assert!(hpc_telemetry::counter("core.segment.node_index.builds").get() >= builds_before + 2);

    let mut filters = Vec::new();
    for node in [0, 1, 2, 3, 5, 196, 197, 390, 391, 392, 8, 9, 4] {
        let node = NodeId(node);
        let only = QueryFilter {
            node: Some(node),
            ..QueryFilter::default()
        };
        let windowed = QueryFilter {
            from: Some(SimTime::from_millis(100_000)),
            to: Some(SimTime::from_millis(300_000)),
            ..only.clone()
        };
        let stalls = QueryFilter {
            classes: vec![EventClass::CpuStall],
            to: Some(SimTime::from_millis(200_000)),
            ..only.clone()
        };
        let in_cabinet = QueryFilter {
            cabinet: Some(node.cabinet()),
            ..windowed.clone()
        };
        let out_of_cabinet = QueryFilter {
            cabinet: Some(hpc_platform::CabinetId(node.cabinet().0 + 1)),
            ..only.clone()
        };
        // Count and histogram ride `events()`; warm, it decodes only the
        // node's rows of the selected classes in the window.
        for filter in [&only, &windowed, &stalls, &in_cabinet] {
            let plan = query::plan(&store, filter);
            let mut warm = plan.events().expect("events");
            let streamed = warm.by_ref().count();
            assert!(warm.take_error().is_none());
            assert_eq!(streamed, own(filter), "{filter:?}");
            let node_rows = if filter.cabinet.is_some() {
                own(&QueryFilter {
                    cabinet: None,
                    ..filter.clone()
                })
            } else {
                streamed
            };
            assert_eq!(warm.stats().rows_decoded, node_rows as u64, "{filter:?}");
        }
        filters.extend([only, windowed, stalls, in_cabinet, out_of_cabinet]);
    }
    assert_plans_match_full_load(&dir, &filters);
    std::fs::remove_dir_all(&dir).ok();
}

/// fleetd shares one store across its workers: four threads released
/// together onto one freshly opened store, racing to decode and keep its
/// dictionaries, node indexes and cut blocks' times, get the answers a
/// serial run gets.
#[test]
fn concurrent_node_queries_on_one_store_answer_like_a_serial_run() {
    let d = Diagnosis::from_events(node_scoped_events(), 0, DiagnosisConfig::default());
    let dir = tmpdir("node-threads");
    save(&d, &dir);
    let answers = |store: &segment::Store, thread: u32| {
        let mut out = Vec::new();
        for i in 0..12 {
            // Each thread starts at another node and another window.
            let k = (i + thread as usize) % 12;
            let node = format!(
                "nid{:05}",
                [0, 1, 2, 3, 5, 196, 197, 390, 391, 392, 8, 9][k]
            );
            // Bounds inside blocks: racing counts fill the same block's times.
            let from = (k as u64 * 29_000 + 500).to_string();
            let to = (k as u64 * 29_000 + 96_500).to_string();
            for pairs in [
                &[("node", node.as_str()), ("verb", "tail"), ("n", "20")][..],
                &[("node", &node), ("verb", "count"), ("from", "100000")],
                &[("node", &node), ("verb", "histogram"), ("by", "class")],
                &[("verb", "count"), ("from", &from), ("to", &to)],
                &[("verb", "histogram"), ("by", "class"), ("from", &from)],
            ] {
                let mut request = query::Request::default();
                for (key, value) in pairs {
                    request.set(key, value).expect("request");
                }
                let plan = query::plan(store, &request.filter);
                let answer = request.run(&plan, SchedulerKind::Slurm).expect("answer");
                out.push((k, answer.text()));
            }
        }
        out.sort();
        out
    };
    let serial = answers(&segment::Store::open(&dir).expect("open"), 0);
    let shared = segment::Store::open(&dir).expect("open");
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let (shared, start) = (&shared, &start);
                s.spawn(move || {
                    start.wait();
                    answers(shared, t)
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().expect("no panic"), serial);
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}
