//! CI stream smoke: the sliding-window engine must hold O(window) state,
//! not O(history), on a month-long replay.
//!
//! Concretely, on a 4-week S1 archive:
//!
//! * eviction must actually fire (a never-evicting window is O(history));
//! * the peak retained event count under a 2-hour window must be strictly
//!   below the peak under an 8-hour window, which in turn must stay well
//!   below the total number of window-relevant events in the archive;
//! * the acceptance gauges `stream.watermark_lag` and
//!   `stream.window.events` must be present in the telemetry registry
//!   after a run.
//!
//! And catch-up memory must not grow with the backlog: a `FollowDir`
//! draining 1×, 4× and 16× copies of one archive buffers at most a block
//! plus a line per source.

use hpc_faultsim::Scenario;
use hpc_logs::event::LogSource;
use hpc_logs::fs::source_path;
use hpc_logs::time::SimDuration;
use hpc_platform::SystemId;
use hpc_stream::{FollowDir, StreamConfig, StreamEngine};

/// Replays the four streams whole, one after another, then releases once:
/// the merger's per-source queues put them in time order.
fn replay(archive: &hpc_logs::LogArchive, window: SimDuration) -> StreamEngine {
    let mut engine = StreamEngine::new(StreamConfig {
        window,
        ..StreamConfig::default()
    });
    for source in LogSource::ALL {
        for line in archive.lines(source) {
            engine.enqueue_line(source, line);
        }
    }
    engine.release();
    engine.finish();
    engine
}

#[test]
fn month_long_replay_holds_o_window_memory() {
    let out = Scenario::new(SystemId::S1, 2, 28, 9).run();
    let short = replay(&out.archive, SimDuration::from_hours(2));
    let long = replay(&out.archive, SimDuration::from_hours(8));

    let s = short.stats();
    let l = long.stats();
    eprintln!(
        "stream smoke: 2h window peak {} / evicted {}, 8h window peak {} / evicted {}, \
         {} events total",
        s.window_peak, s.window_evicted, l.window_peak, l.window_evicted, s.events
    );

    // Eviction fires in both configurations.
    assert!(s.window_evicted > 0, "2h window never evicted");
    assert!(l.window_evicted > 0, "8h window never evicted");

    // Retained state scales with the window length, not the history: the
    // short window peaks strictly lower, and even the long window peaks
    // far below the total population that passed through it.
    assert!(
        s.window_peak < l.window_peak,
        "2h peak {} not below 8h peak {}",
        s.window_peak,
        l.window_peak
    );
    let through = l.window_evicted + l.window_events as u64;
    assert!(
        (l.window_peak as u64) * 2 < through,
        "8h peak {} not well below total through-window {}",
        l.window_peak,
        through
    );

    // Both replays saw the same ordered stream.
    assert_eq!(s.events, l.events);
    assert_eq!(s.late_events, 0);
    assert_eq!(short.failures(), long.failures());

    // The acceptance gauges are live in the registry.
    let snapshot = hpc_telemetry::snapshot();
    assert!(
        snapshot.gauge("stream.watermark_lag").is_some(),
        "stream.watermark_lag gauge missing"
    );
    assert!(
        snapshot.gauge("stream.window.events").is_some(),
        "stream.window.events gauge missing"
    );
    assert!(snapshot.counter("stream.events").unwrap_or(0) >= s.events);
}

#[test]
fn catch_up_buffers_do_not_grow_with_the_backlog() {
    let archive = Scenario::new(SystemId::S1, 1, 3, 11).run().archive;
    let longest = (LogSource::ALL.iter())
        .flat_map(|&s| archive.lines(s))
        .map(|l| l.len() + 1)
        .max()
        .unwrap();
    // A block well under the larger files, so their backlogs span blocks.
    let block = 16 << 10;
    let bound = 4 * (block + longest);
    let dir = std::env::temp_dir().join(format!("stream-smoke-backlog-{}", std::process::id()));
    let mut peaks = Vec::new();
    for copies in [1, 4, 16] {
        let _ = std::fs::remove_dir_all(&dir);
        for source in LogSource::ALL {
            let path = dir.join(source_path(source, archive.scheduler()));
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            let text: String = archive
                .lines(source)
                .iter()
                .map(|l| format!("{l}\n"))
                .collect();
            std::fs::write(path, text.repeat(copies)).unwrap();
        }
        let mut engine = StreamEngine::new(StreamConfig::default());
        let mut follow = FollowDir::with_block_bytes(&dir, block);
        let (mut peak, mut polls) = (0, 0);
        while follow.poll_into(&mut engine) > 0 {
            peak = peak.max(follow.buffered_bytes());
            polls += 1;
        }
        assert_eq!(engine.stats().lines, copies as u64 * archive.total_lines());
        assert!(
            peak <= bound,
            "{copies}x backlog buffered {peak} bytes, above {bound}"
        );
        peaks.push((copies, polls, peak));
    }
    eprintln!("stream smoke: catch-up (copies, polls, peak buffered bytes) {peaks:?}");
    // The 16x backlog takes more polls, not more buffer.
    assert!(peaks[2].1 > peaks[0].1);
    let _ = std::fs::remove_dir_all(&dir);
}
