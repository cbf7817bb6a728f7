//! The one feed loop: pulls lines from a [`Feed`] into a [`StreamEngine`]
//! until the feed ends or the caller says stop, then drains the engine.
//!
//! `hpc-watch` and every `hpc-fleetd` shard run this same loop and differ
//! only in their observer: `hpc-watch` writes heartbeats and flight-recorder
//! entries from it, a shard publishes snapshots.

use std::io::BufRead;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::Duration;

use hpc_logs::event::LogSource;
use hpc_logs::fs::sanitise_lines;
use hpc_logs::parse::guess_source;

use crate::{FollowDir, StreamEngine};

/// Most lines a [`Feed::Lines`] feed pushes between two observer calls, so
/// a sender that never pauses cannot starve the observer.
const MAX_LINES_PER_OBSERVE: usize = 4096;

/// Where a driven engine's log lines come from.
pub enum Feed {
    /// Tail the archive directory like `tail -F`, until stopped.
    Follow(PathBuf),
    /// Read the archive directory until a poll feeds nothing, then drain —
    /// deterministic, for CI/bench/tests.
    Replay(PathBuf),
    /// Merged lines of all four sources, each routed by [`source_of`];
    /// ends when the sender hangs up.
    Lines(Receiver<String>),
}

/// The source a merged-stream line belongs to, by envelope sniffing.
/// Unrecognisable envelopes go to the console parser, which counts them
/// as skipped (same behaviour as garbage inside a known stream).
pub fn source_of(line: &str) -> LogSource {
    guess_source(line).unwrap_or(LogSource::Console)
}

/// Hands `each` the lines of a merged feed (standard input, for both
/// `--stdin` front ends) until end of input, a real I/O error, or `each`
/// returns false. The feed is read as bytes: a line that is not valid UTF-8
/// is sanitised like any other log bytes ([`sanitise_lines`]) and counted
/// under `invalid_counter` — it never ends the feed (DESIGN.md §10: skip
/// and count, never silently drop).
pub fn lossy_lines(
    mut input: impl BufRead,
    invalid_counter: &str,
    mut each: impl FnMut(String) -> bool,
) {
    let mut buf = Vec::new();
    while input.read_until(b'\n', &mut buf).is_ok_and(|n| n > 0) {
        let (mut line, invalid) = sanitise_lines(std::mem::take(&mut buf));
        if invalid > 0 {
            hpc_telemetry::counter(invalid_counter).add(invalid);
        }
        line.truncate(line.trim_end_matches(['\r', '\n']).len());
        if !each(line) {
            break;
        }
    }
}

/// Standard input as a [`Feed::Lines`] channel holding at most one
/// observer batch. The reader thread is detached: a blocking read on stdin
/// cannot be interrupted, so it ends at EOF, on a read error, or with the
/// process. Invalid UTF-8 counts under `stream.follow.invalid_utf8`, like
/// the directory follower's.
pub fn stdin_lines() -> Receiver<String> {
    let (tx, rx) = mpsc::sync_channel(MAX_LINES_PER_OBSERVE);
    std::thread::spawn(move || {
        lossy_lines(
            std::io::stdin().lock(),
            "stream.follow.invalid_utf8",
            |line| tx.send(line).is_ok(),
        );
    });
    rx
}

/// Feeds `engine` from `feed` until the feed ends or `stop` says so, then
/// calls [`StreamEngine::finish`].
///
/// `stop` is asked before every step and never again once it has
/// returned true. `observe(engine, follow, finished)` runs after every
/// step — a directory poll, a batch of lines, or an idle wait of `poll` —
/// with `finished == false`, and exactly once more, last, after the drain
/// with `finished == true`. `follow` is the directory tailer of a
/// `Follow`/`Replay` feed.
pub fn drive(
    engine: &mut StreamEngine,
    feed: Feed,
    poll: Duration,
    stop: impl Fn() -> bool,
    mut observe: impl FnMut(&StreamEngine, Option<&FollowDir>, bool),
) {
    let replay = matches!(feed, Feed::Replay(_));
    let follow = match feed {
        Feed::Follow(dir) | Feed::Replay(dir) => {
            let mut follow = FollowDir::new(&dir);
            while !stop() {
                let fed = follow.poll_into(engine);
                if fed == 0 && replay {
                    break;
                }
                observe(engine, Some(&follow), false);
                if fed == 0 {
                    std::thread::sleep(poll);
                }
            }
            Some(follow)
        }
        Feed::Lines(rx) => {
            while !stop() {
                match rx.recv_timeout(poll) {
                    // Whatever else is already queued rides along, so the
                    // observer runs per batch, not per line.
                    Ok(first) => {
                        let queued = std::iter::once(first).chain(rx.try_iter());
                        for line in queued.take(MAX_LINES_PER_OBSERVE) {
                            engine.push_line(source_of(&line), &line);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
                observe(engine, None, false);
            }
            None
        }
    };
    engine.finish();
    observe(engine, follow.as_ref(), true);
}
