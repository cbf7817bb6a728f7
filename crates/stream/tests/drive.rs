//! The one feed loop ends every feed the same way: `Replay`, `Follow`
//! stopped mid-tail and routed `Lines` of one simulated archive all drain
//! to the diagnosis a bare `FollowDir` poll loop plus `finish()` reaches,
//! and the observer is told `finished` exactly once, last.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use hpc_faultsim::Scenario;
use hpc_logs::fs::save_archive;
use hpc_logs::parse::split_timestamp;
use hpc_logs::time::SimTime;
use hpc_logs::{LogArchive, LogSource};
use hpc_platform::SystemId;
use hpc_stream::drive::{drive, Feed};
use hpc_stream::{FollowDir, StreamConfig, StreamEngine};

const POLL: Duration = Duration::from_millis(5);

fn archive_on_disk(tag: &str) -> (LogArchive, PathBuf) {
    let dir = std::env::temp_dir().join(format!("stream-drive-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let archive = Scenario::new(SystemId::S1, 1, 2, 42).run().archive;
    save_archive(&archive, &dir).unwrap();
    (archive, dir)
}

/// The reference: what `crates/fleetd/tests/api.rs::local_replay` does.
fn local_replay(dir: &Path) -> StreamEngine {
    let mut engine = StreamEngine::new(StreamConfig::default());
    let mut follow = FollowDir::new(dir);
    while follow.poll_into(&mut engine) > 0 {}
    engine.finish();
    engine
}

/// The four streams as one line sequence in timestamp order, ties in
/// source order — what `sort -m -s -k1,2` hands `hpc-watch --stdin`.
fn merged_lines(archive: &LogArchive) -> Vec<String> {
    let mut keyed = Vec::new();
    for (si, source) in LogSource::ALL.into_iter().enumerate() {
        let mut clock = SimTime::EPOCH;
        for line in archive.lines(source) {
            clock = split_timestamp(line).map_or(clock, |(t, _)| t);
            keyed.push((clock, si, line.clone()));
        }
    }
    keyed.sort_by_key(|&(t, si, _)| (t, si));
    keyed.into_iter().map(|(_, _, line)| line).collect()
}

/// Drives `feed` to its end and checks the observer protocol; `stop_after`
/// raises the stop flag from inside the observer once that many lines are in.
fn driven(feed: Feed, stop_after: Option<u64>) -> StreamEngine {
    let mut engine = StreamEngine::new(StreamConfig::default());
    let stopped = Cell::new(false);
    let mut calls = Vec::new();
    drive(
        &mut engine,
        feed,
        POLL,
        || stopped.get(),
        |engine, _, finished| {
            calls.push(finished);
            if stop_after.is_some_and(|n| engine.stats().lines >= n) {
                stopped.set(true);
            }
        },
    );
    assert_eq!(calls.pop(), Some(true), "the last call reports the drain");
    assert!(!calls.contains(&true), "and no earlier one does");
    engine
}

#[test]
fn every_feed_drains_to_the_same_diagnosis() {
    let (archive, dir) = archive_on_disk("feeds");
    let reference = local_replay(&dir);
    assert!(!reference.failures().is_empty() && !reference.alerts().is_empty());

    let (tx, rx) = mpsc::channel();
    for line in merged_lines(&archive) {
        tx.send(line).unwrap();
    }
    drop(tx);
    // The first poll of a written archive reads all of it, so the stop
    // flag goes up with the watermark tail still buffered in the merger:
    // only the driver's `finish()` can release it.
    let stop_mid_follow = Some(archive.total_lines());
    for (name, feed, stop_after) in [
        ("replay", Feed::Replay(dir.clone()), None),
        ("follow", Feed::Follow(dir.clone()), stop_mid_follow),
        ("lines", Feed::Lines(rx), None),
    ] {
        let engine = driven(feed, stop_after);
        assert_eq!(engine.failures(), reference.failures(), "{name}");
        assert_eq!(engine.alerts(), reference.alerts(), "{name}");
        assert_eq!(engine.stats().late_events, 0, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stop_raised_before_the_first_step_still_drains() {
    let (_, dir) = archive_on_disk("stopped");
    let mut engine = StreamEngine::new(StreamConfig::default());
    let mut calls = Vec::new();
    drive(
        &mut engine,
        Feed::Follow(dir.clone()),
        POLL,
        || true,
        |_, _, finished| calls.push(finished),
    );
    assert_eq!(calls, [true]);
    assert_eq!(engine.stats().lines, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
