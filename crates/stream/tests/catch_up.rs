//! Bounded catch-up: a `FollowDir` draining an already-written directory
//! one block per source at a time, cut at each poll's common time bound,
//! reaches the diagnosis of replaying the same lines whole — same alerts,
//! same failures, same late events — at any block size on a clean S1
//! archive, and on a heavily corrupted copy of it when each source fits a
//! block. The drain ends only with every file read and nothing buffered.

use std::path::{Path, PathBuf};

use hpc_faultsim::chaos::{ChaosFeed, ChaosSpec, Intensity};
use hpc_faultsim::Scenario;
use hpc_logs::fs::{load_archive, save_archive, BLOCK_BYTES};
use hpc_logs::{LogArchive, LogSource};
use hpc_platform::SystemId;
use hpc_stream::{FollowDir, StreamConfig, StreamEngine};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stream-catch-up-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn archive() -> LogArchive {
    Scenario::new(SystemId::S1, 1, 3, 42).run().archive
}

/// The reference: every source's lines pushed whole, one release, finish.
fn replay(dir: &Path) -> StreamEngine {
    let archive = load_archive(dir).unwrap();
    let mut engine = StreamEngine::new(StreamConfig::default());
    for source in LogSource::ALL {
        for line in archive.lines(source) {
            engine.enqueue_line(source, line);
        }
    }
    engine.release();
    engine.finish();
    engine
}

fn catch_up(dir: &Path, block_bytes: usize) -> StreamEngine {
    let mut engine = StreamEngine::new(StreamConfig::default());
    let mut follow = FollowDir::with_block_bytes(dir, block_bytes);
    while follow.poll_into(&mut engine) > 0 {}
    assert_eq!(
        follow.buffered_bytes(),
        0,
        "a drain ends with nothing buffered"
    );
    assert_eq!(follow.poll_into(&mut engine), 0, "and stays drained");
    engine.finish();
    engine
}

fn assert_same_diagnosis(got: &StreamEngine, want: &StreamEngine, block_bytes: usize) {
    assert_eq!(got.failures(), want.failures(), "block {block_bytes}");
    assert_eq!(got.alerts(), want.alerts(), "block {block_bytes}");
    let (got, want) = (got.stats(), want.stats());
    assert_eq!(got.late_events, want.late_events, "block {block_bytes}");
    assert_eq!(got.events, want.events, "block {block_bytes}");
    assert_eq!(got.lines, want.lines, "block {block_bytes}");
}

#[test]
fn catch_up_of_a_clean_archive_at_any_block_size_matches_replay() {
    let dir = scratch_dir("clean");
    save_archive(&archive(), &dir).unwrap();
    let want = replay(&dir);
    assert!(!want.failures().is_empty() && !want.alerts().is_empty());
    for block_bytes in [64, 997, BLOCK_BYTES] {
        assert_same_diagnosis(&catch_up(&dir, block_bytes), &want, block_bytes);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn catch_up_of_a_corrupted_archive_at_any_block_size_matches_replay() {
    let dir = scratch_dir("chaos");
    let feed = ChaosFeed::corrupt(&archive(), &ChaosSpec::mixed(Intensity::Heavy, 7));
    feed.write_dir(&dir).unwrap();
    let want = replay(&dir);
    assert!(!want.failures().is_empty() && !want.alerts().is_empty());
    // Each source fits one default block: one poll reads it all.
    assert_same_diagnosis(&catch_up(&dir, BLOCK_BYTES), &want, BLOCK_BYTES);
    // Smaller blocks make catch-up a live feed of the same lines: a line a
    // skewed or reordered source delivers behind the release point of an
    // earlier poll is dropped late, and counted — never lost silently.
    for block_bytes in [64, 997] {
        let got = catch_up(&dir, block_bytes).stats();
        let want = want.stats();
        assert_eq!(got.lines, want.lines, "block {block_bytes}");
        assert_eq!(
            got.events + got.late_events,
            want.events,
            "block {block_bytes}"
        );
        assert!(got.failures > 0, "block {block_bytes}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
