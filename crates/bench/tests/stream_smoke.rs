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

use hpc_faultsim::Scenario;
use hpc_logs::event::LogSource;
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::SystemId;
use hpc_stream::{feed_time_aligned, StreamConfig, StreamEngine};

/// Replays the four streams interleaved in global timestamp order — the
/// arrival order of a live feed. Sequential whole-source feeding would put
/// every stream but the first hopelessly behind the 10-minute watermark.
fn replay(archive: &hpc_logs::LogArchive, window: SimDuration) -> StreamEngine {
    let mut engine = StreamEngine::new(StreamConfig {
        window,
        ..StreamConfig::default()
    });
    let lines = LogSource::ALL.map(|s| archive.lines(s));
    feed_time_aligned(&mut engine, &lines, &mut [SimTime::EPOCH; 4]);
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
