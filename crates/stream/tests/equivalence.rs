//! Streaming-vs-batch equivalence: replaying a finished two-week S1
//! archive through [`StreamEngine`] yields the same detected-failure set,
//! the same alert set and the same score (predicted and missed failures,
//! hits and false positives) as the batch [`Diagnosis`] pipeline and its
//! evaluator, for external gating both off and on, under the default
//! 10-minute watermark.
//!
//! Two arrival patterns are exercised:
//!
//! * **time-merged** — one line at a time in global timestamp order, each
//!   pushed and released on its own, the way `hpc-watch --stdin` takes a
//!   `sort -m` of the four files;
//! * **source-sequential** — each stream arrives whole, one after another
//!   (maximum cross-source skew), and the engine releases once: the
//!   merger's per-source queues do all the re-ordering.
//!
//! Both must drop nothing (`late_events == 0`) and reproduce the batch
//! results exactly.

use std::sync::OnceLock;

use hpc_diagnosis::prediction::evaluate;
use hpc_diagnosis::{Diagnosis, DiagnosisConfig};
use hpc_faultsim::Scenario;
use hpc_logs::parse::split_timestamp;
use hpc_logs::time::SimTime;
use hpc_logs::{LogArchive, LogSource};
use hpc_platform::SystemId;
use hpc_stream::{StreamConfig, StreamEngine};

struct Fixture {
    archive: LogArchive,
    batch: Diagnosis,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let out = Scenario::new(SystemId::S1, 2, 14, 42).run();
        // SWO exclusion is a batch post-pass over the whole window; the
        // online engine reproduces raw detection, so compare against that.
        let config = DiagnosisConfig {
            exclude_swos: false,
            ..DiagnosisConfig::default()
        };
        let batch = Diagnosis::from_archive(&out.archive, config);
        Fixture {
            archive: out.archive,
            batch,
        }
    })
}

/// Feeds lines one at a time in global timestamp order, ties in source
/// order, per-source order kept (a line without a timestamp keeps its
/// predecessor's) — the arrival order of a live merged feed.
fn feed_time_merged(engine: &mut StreamEngine, archive: &LogArchive) {
    let mut keyed = Vec::new();
    for (si, source) in LogSource::ALL.into_iter().enumerate() {
        let mut clock = SimTime::EPOCH;
        for line in archive.lines(source) {
            clock = split_timestamp(line).map_or(clock, |(t, _)| t);
            keyed.push((clock, si, source, line));
        }
    }
    keyed.sort_by_key(|&(t, si, _, _)| (t, si));
    for (_, _, source, line) in keyed {
        engine.push_line(source, line);
    }
}

/// Feeds each stream whole, one source after another — worst-case skew —
/// then releases once.
fn feed_source_sequential(engine: &mut StreamEngine, archive: &LogArchive) {
    for source in LogSource::ALL {
        for line in archive.lines(source) {
            engine.enqueue_line(source, line);
        }
    }
    engine.release();
}

fn assert_equivalent(engine: &StreamEngine, batch: &Diagnosis, require_external: bool) {
    let stats = engine.stats();
    assert_eq!(stats.late_events, 0, "no event may be dropped as late");
    assert_eq!(
        engine.failures(),
        batch.failures.as_slice(),
        "streamed failures must equal batch detection"
    );
    let ev = evaluate(batch, require_external);
    assert_eq!(
        engine.alerts(),
        ev.alerts.as_slice(),
        "streamed alerts must equal batch raise_alerts \
         (require_external={require_external})"
    );
    // Live score equals batch score: one scorer settles every alert.
    assert_eq!(
        (
            stats.predicted_failures,
            stats.missed_failures,
            stats.alerts - stats.expired_alerts,
            stats.expired_alerts
        ),
        (
            ev.predicted_failures as u64,
            ev.missed_failures as u64,
            ev.true_positives as u64,
            ev.false_positives as u64
        ),
        "(predicted, missed, hits, false positives), require_external={require_external}"
    );
    assert_eq!(engine.outstanding_alerts(), 0, "finish settles every alert");
    assert!(stats.events > 0 && stats.failures > 0 && stats.alerts > 0);
}

fn run(feed: impl Fn(&mut StreamEngine, &LogArchive), config: StreamConfig) {
    let fx = fixture();
    for require_external in [false, true] {
        let config = StreamConfig {
            require_external,
            ..config
        };
        let mut engine = StreamEngine::new(config);
        feed(&mut engine, &fx.archive);
        engine.finish();
        assert_equivalent(&engine, &fx.batch, require_external);
    }
}

#[test]
fn time_merged_replay_matches_batch() {
    run(feed_time_merged, StreamConfig::default());
}

#[test]
fn source_sequential_replay_matches_batch() {
    run(feed_source_sequential, StreamConfig::default());
}

#[test]
fn window_memory_stays_bounded_during_replay() {
    // The replay must keep the retained window well below the total
    // relevant-event population: eviction actually fires.
    let fx = fixture();
    let mut engine = StreamEngine::new(StreamConfig::default());
    feed_source_sequential(&mut engine, &fx.archive);
    engine.finish();
    let stats = engine.stats();
    assert!(stats.window_evicted > 0, "eviction never fired");
    // The peak retained set is far smaller than everything that passed
    // through the window over two weeks.
    let total = stats.window_evicted + stats.window_events as u64;
    assert!(
        (stats.window_peak as u64) < total,
        "peak {} vs total through-window {}",
        stats.window_peak,
        total
    );
}
