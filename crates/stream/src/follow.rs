//! Polling directory tailer for `hpc-watch --follow`.
//!
//! Follows the four conventional log files of an archive directory
//! (`p0-directory/console`, `controller/controller.log`, `erd/…`, the
//! scheduler log) the way `tail -F` would: remember a byte offset per
//! file, read whatever appeared since, and feed complete lines to the
//! engine. A file that does not exist yet is simply retried on the next
//! poll; a file that shrank (rotation) is re-read from the start. Partial
//! trailing lines — a writer caught mid-`write` — stay buffered until
//! their newline arrives. Each poll's batch is fed to the engine in
//! global timestamp order, so catching up on an already-written archive
//! stays within the merger's watermark instead of dropping three of the
//! four sources as late.
//!
//! Misbehaving sources are quarantined, not fatal (DESIGN.md §10): a
//! transient open/seek/read error puts that one tail into exponential
//! backoff (2, 4, … up to 64 polls) while the other sources keep
//! flowing, and the first successful poll re-admits it with its read
//! offset intact. Invalid UTF-8 is sanitised and counted. All of it is
//! accounted in [`FollowStats`] and the `stream.follow.*` telemetry
//! counters.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use hpc_logs::event::LogSource;
use hpc_logs::fs::{detect_scheduler, sanitise_lines, source_path};
use hpc_logs::parse::split_timestamp;
use hpc_logs::time::SimTime;

use crate::engine::StreamEngine;

/// Longest backoff for a misbehaving source, in polls (~64 s at the
/// default 1 s poll interval).
const MAX_BACKOFF_POLLS: u64 = 64;

/// Degradation accounting for a [`FollowDir`] (DESIGN.md §10): how often
/// sources misbehaved and how the tailer coped. Mirrored into the
/// `stream.follow.*` telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FollowStats {
    /// Transient I/O errors (open/seek/read) absorbed without giving up.
    pub io_errors: u64,
    /// Lines containing invalid UTF-8, lossily sanitised before parsing.
    pub invalid_utf8: u64,
    /// Rotations/truncations detected (file shrank; re-read from start).
    pub rotations: u64,
    /// Error streaks that put a source into exponential backoff.
    pub quarantines: u64,
    /// Quarantined sources that came back and were re-admitted.
    pub recoveries: u64,
}

/// Tail state of one source file.
struct Tail {
    source: LogSource,
    path: PathBuf,
    offset: u64,
    /// Bytes of an incomplete trailing line.
    partial: Vec<u8>,
    /// Consecutive I/O errors; nonzero means the tail is quarantined.
    errors: u32,
    /// Poll number at which a quarantined tail may retry.
    retry_at: u64,
}

/// A polling tailer over the four source files under an archive root.
pub struct FollowDir {
    tails: Vec<Tail>,
    /// Per source, the timestamp of the last line fed (see
    /// [`feed_time_aligned`]); persists across polls.
    clocks: [SimTime; 4],
    polls: u64,
    stats: FollowStats,
}

impl FollowDir {
    /// Tailer for the archive layout under `root`. The scheduler flavour is
    /// sniffed from which scheduler log is non-empty (defaulting like the
    /// batch loader when neither is).
    pub fn new(root: &Path) -> FollowDir {
        let scheduler = detect_scheduler(root);
        FollowDir {
            tails: LogSource::ALL
                .into_iter()
                .map(|source| Tail {
                    source,
                    path: root.join(source_path(source, scheduler)),
                    offset: 0,
                    partial: Vec::new(),
                    errors: 0,
                    retry_at: 0,
                })
                .collect(),
            clocks: [SimTime::EPOCH; 4],
            polls: 0,
            stats: FollowStats::default(),
        }
    }

    /// Degradation accounting so far (also mirrored to `stream.follow.*`
    /// telemetry counters).
    pub fn stats(&self) -> FollowStats {
        self.stats
    }

    /// Sources currently quarantined (in error backoff); mirrors the
    /// `stream.follow.quarantined` gauge.
    pub fn quarantined(&self) -> usize {
        self.tails.iter().filter(|t| t.errors > 0).count()
    }

    /// The sources currently quarantined, in [`LogSource::ALL`] order.
    /// This is the set behind [`FollowDir::quarantined`]'s count —
    /// exported so heartbeats and fleetd snapshots name the degraded
    /// streams instead of merely counting them.
    pub fn quarantined_sources(&self) -> Vec<LogSource> {
        self.tails
            .iter()
            .filter(|t| t.errors > 0)
            .map(|t| t.source)
            .collect()
    }

    /// One consistent health sample — cumulative stats plus the current
    /// quarantine set — for heartbeats and exported snapshots. Both
    /// consumers calling this single accessor is what makes the beat-time
    /// and snapshot views agree by construction.
    pub fn health(&self) -> crate::heartbeat::FollowHealth {
        crate::heartbeat::FollowHealth {
            stats: self.stats,
            quarantined_sources: self.quarantined_sources(),
        }
    }

    /// Reads everything newly appended to every source file and feeds the
    /// batch to `engine` through [`feed_time_aligned`]. Returns how many
    /// complete lines were fed.
    pub fn poll_into(&mut self, engine: &mut StreamEngine) -> u64 {
        self.polls += 1;
        let polls = self.polls;
        let mut batches: [Vec<String>; 4] = Default::default();
        let mut fed = 0;
        for (tail, batch) in self.tails.iter_mut().zip(batches.iter_mut()) {
            if tail.errors > 0 && polls < tail.retry_at {
                continue; // quarantined — backing off until retry_at
            }
            fed += tail.poll_lines(batch, polls, &mut self.stats);
        }
        hpc_telemetry::gauge("stream.follow.quarantined").set(self.quarantined() as f64);
        feed_time_aligned(engine, &batches, &mut self.clocks);
        fed
    }
}

/// Feeds `batches` — one run of lines per source, in [`LogSource::ALL`]
/// order — to `engine` in global timestamp order, ties in source order,
/// each source's own order kept: the arrival order of a live merged feed.
/// A line without a timestamp of its own takes its source's entry in
/// `clocks`, the time of the last line fed from that source; start a fresh
/// feed from [`SimTime::EPOCH`].
///
/// The alignment matters most when catching up on an already-written
/// archive: feeding whole files one source at a time would advance the
/// merger's high-water mark to the end of the first file and drop nearly
/// every event of the remaining three behind the watermark. In steady
/// state the batches are small and the merge is effectively free.
pub fn feed_time_aligned<B: AsRef<[String]>>(
    engine: &mut StreamEngine,
    batches: &[B; 4],
    clocks: &mut [SimTime; 4],
) {
    let mut idx = [0usize; 4];
    loop {
        let mut best: Option<(SimTime, usize)> = None;
        for (si, batch) in batches.iter().enumerate() {
            let Some(line) = batch.as_ref().get(idx[si]) else {
                continue;
            };
            let t = split_timestamp(line).map_or(clocks[si], |(t, _)| t);
            if best.is_none_or(|b| (t, si) < b) {
                best = Some((t, si));
            }
        }
        let Some((t, si)) = best else { break };
        clocks[si] = t;
        engine.push_line(LogSource::ALL[si], &batches[si].as_ref()[idx[si]]);
        idx[si] += 1;
    }
}

impl Tail {
    /// Polls the file, absorbing transient I/O errors into quarantine
    /// state: an error streak backs the tail off exponentially (2, 4, …
    /// up to [`MAX_BACKOFF_POLLS`] polls between retries), and the first
    /// success after a streak re-admits it. The read offset never advances
    /// on an error, so no bytes are lost across a quarantine.
    fn poll_lines(&mut self, batch: &mut Vec<String>, polls: u64, stats: &mut FollowStats) -> u64 {
        match self.try_poll(batch, stats) {
            Ok(fed) => {
                if self.errors > 0 {
                    self.errors = 0;
                    self.retry_at = 0;
                    stats.recoveries += 1;
                    hpc_telemetry::counter("stream.follow.recoveries").inc();
                }
                fed
            }
            Err(_) => {
                self.errors = self.errors.saturating_add(1);
                stats.io_errors += 1;
                hpc_telemetry::counter("stream.follow.io_errors").inc();
                if self.errors == 1 {
                    stats.quarantines += 1;
                    hpc_telemetry::counter("stream.follow.quarantines").inc();
                }
                let backoff = (1u64 << self.errors.min(6)).min(MAX_BACKOFF_POLLS);
                self.retry_at = polls + backoff;
                0
            }
        }
    }

    fn try_poll(&mut self, batch: &mut Vec<String>, stats: &mut FollowStats) -> io::Result<u64> {
        let mut file = match File::open(&self.path) {
            Ok(f) => f,
            // Not created yet is normal (a source can lag hours behind);
            // anything else is a real error and starts a backoff streak.
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let meta = file.metadata()?;
        if meta.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "log path is a directory",
            ));
        }
        let len = meta.len();
        if len < self.offset {
            // Truncated/rotated: start over.
            self.offset = 0;
            self.partial.clear();
            stats.rotations += 1;
            hpc_telemetry::counter("stream.follow.rotations").inc();
        }
        if len == self.offset {
            return Ok(0);
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let mut buf = Vec::with_capacity((len - self.offset) as usize);
        let read = file.take(len - self.offset).read_to_end(&mut buf)?;
        self.offset += read as u64;
        // Whole lines are everything up to the last newline; what follows
        // it is a line still being written and waits for the next poll.
        let Some(last_nl) = buf.iter().rposition(|&b| b == b'\n') else {
            self.partial.extend_from_slice(&buf);
            return Ok(0);
        };
        let mut whole = std::mem::replace(&mut self.partial, buf.split_off(last_nl + 1));
        if whole.is_empty() {
            whole = buf;
        } else {
            whole.extend_from_slice(&buf);
        }
        let (text, invalid) = sanitise_lines(whole);
        if invalid > 0 {
            stats.invalid_utf8 += invalid;
            hpc_telemetry::counter("stream.follow.invalid_utf8").add(invalid);
        }
        let before = batch.len();
        batch.extend(text.split_terminator('\n').map(str::to_string));
        Ok((batch.len() - before) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamConfig;
    use hpc_logs::event::{ConsoleDetail, LogEvent, Payload};
    use hpc_logs::render::render;
    use hpc_platform::system::SchedulerKind;
    use hpc_platform::NodeId;
    use std::io::Write;

    /// A rendered console line about node 3, stamped `ms`.
    fn console_line(ms: u64) -> String {
        let event = LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(3),
                detail: ConsoleDetail::CpuStall { cpu: 0 },
            },
        };
        render(&event, SchedulerKind::Slurm).remove(0)
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hpc-stream-follow-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("p0-directory")).unwrap();
        dir
    }

    #[test]
    fn follows_appends_and_buffers_partial_lines() {
        let root = temp_root("append");
        let console = root.join("p0-directory/console");
        let mut engine = StreamEngine::new(StreamConfig::default());
        let mut follow = FollowDir::new(&root);

        // Nothing yet: all files absent.
        assert_eq!(follow.poll_into(&mut engine), 0);

        let first = console_line(60_000);
        let second = console_line(120_000);

        let mut f = std::fs::File::create(&console).unwrap();
        // Write one complete line and half of a second one.
        let (head, tail) = second.split_at(second.len() / 2);
        write!(f, "{first}\n{head}").unwrap();
        f.flush().unwrap();
        assert_eq!(follow.poll_into(&mut engine), 1);

        // Complete the second line; only now does it count.
        writeln!(f, "{tail}").unwrap();
        f.flush().unwrap();
        assert_eq!(follow.poll_into(&mut engine), 1);

        engine.finish();
        assert_eq!(engine.stats().events, 2);
        assert_eq!(engine.stats().skipped_lines, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn catch_up_poll_feeds_sources_in_timestamp_order() {
        use hpc_logs::event::{ControllerDetail, ControllerScope};

        let root = temp_root("catchup");
        std::fs::create_dir_all(root.join("controller")).unwrap();

        // Console spans two hours; the controller logs in minute one. Fed
        // file-by-file this would put the controller event far behind the
        // default 10-minute watermark.
        let console = [0u64, 60, 120].map(|mins| console_line(mins * 60_000));
        let node = NodeId(7);
        let nvf = LogEvent {
            time: SimTime::from_millis(60_000),
            payload: Payload::Controller {
                scope: ControllerScope::Blade(node.blade()),
                detail: ControllerDetail::NodeVoltageFault { node },
            },
        };
        std::fs::write(root.join("p0-directory/console"), console.join("\n") + "\n").unwrap();
        std::fs::write(
            root.join("controller/controller.log"),
            render(&nvf, SchedulerKind::Slurm).remove(0) + "\n",
        )
        .unwrap();

        let mut engine = StreamEngine::new(StreamConfig::default());
        let mut follow = FollowDir::new(&root);
        assert_eq!(follow.poll_into(&mut engine), 4);
        engine.finish();
        assert_eq!(engine.stats().late_events, 0);
        assert_eq!(engine.stats().events, 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn truncation_rereads_from_start() {
        let root = temp_root("truncate");
        let console = root.join("p0-directory/console");
        let mut engine = StreamEngine::new(StreamConfig::default());
        let mut follow = FollowDir::new(&root);

        std::fs::write(&console, "garbage line one\ngarbage line two\n").unwrap();
        assert_eq!(follow.poll_into(&mut engine), 2);
        // Rotation: the file is replaced by a shorter one.
        std::fs::write(&console, "fresh\n").unwrap();
        assert_eq!(follow.poll_into(&mut engine), 1);
        assert_eq!(follow.stats().rotations, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rotation_mid_follow_drops_partial_and_resumes() {
        let root = temp_root("rotate-mid");
        let console = root.join("p0-directory/console");
        let mut engine = StreamEngine::new(StreamConfig::default());
        let mut follow = FollowDir::new(&root);

        let first = console_line(60_000);
        let second = console_line(120_000);
        let third = console_line(180_000);

        // One whole line plus half of another, then the file rotates out
        // underneath the tailer before the half ever completes.
        let (head, _tail) = second.split_at(second.len() / 2);
        std::fs::write(&console, format!("{first}\n{head}")).unwrap();
        assert_eq!(follow.poll_into(&mut engine), 1);
        std::fs::write(&console, format!("{third}\n")).unwrap();
        assert_eq!(follow.poll_into(&mut engine), 1);
        assert_eq!(follow.stats().rotations, 1);
        engine.finish();
        // The orphaned half-line must not splice onto post-rotation bytes:
        // exactly the first and third events survive.
        assert_eq!(engine.stats().events, 2);
        assert_eq!(engine.stats().skipped_lines, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn io_errors_quarantine_then_recover() {
        let root = temp_root("quarantine");
        let console = root.join("p0-directory/console");
        let mut engine = StreamEngine::new(StreamConfig::default());
        let mut follow = FollowDir::new(&root);

        std::fs::write(&console, "one\n").unwrap();
        assert_eq!(follow.poll_into(&mut engine), 1);

        // Swap the file for a directory: open succeeds, reading fails —
        // a deterministic stand-in for a transient I/O fault.
        std::fs::remove_file(&console).unwrap();
        std::fs::create_dir(&console).unwrap();
        assert_eq!(follow.poll_into(&mut engine), 0);
        let s = follow.stats();
        assert_eq!((s.io_errors, s.quarantines, s.recoveries), (1, 1, 0));

        // Quarantined: the next poll backs off without touching the path.
        assert_eq!(follow.poll_into(&mut engine), 0);
        assert_eq!(follow.stats().io_errors, 1, "no retry during backoff");

        // Heal the source with more data. Once the backoff expires the
        // tail is re-admitted and resumes from its pre-error offset.
        std::fs::remove_dir(&console).unwrap();
        std::fs::write(&console, "one\ntwo\n").unwrap();
        let mut fed = 0;
        for _ in 0..MAX_BACKOFF_POLLS + 2 {
            fed += follow.poll_into(&mut engine);
            if fed > 0 {
                break;
            }
        }
        assert_eq!(fed, 1, "only the new line; the offset survived quarantine");
        assert_eq!(follow.stats().recoveries, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn invalid_utf8_lines_are_counted_and_sanitised() {
        let root = temp_root("utf8");
        let console = root.join("p0-directory/console");
        let mut engine = StreamEngine::new(StreamConfig::default());
        let mut follow = FollowDir::new(&root);

        std::fs::write(&console, b"plain line\n\xFF\xFE binary junk \x80\n").unwrap();
        assert_eq!(follow.poll_into(&mut engine), 2);
        assert_eq!(follow.stats().invalid_utf8, 1);
        assert_eq!(follow.stats().io_errors, 0);

        // A multi-byte character torn across two polls is judged once, on
        // the whole line (valid); bad lines count one each, however many
        // bad sequences they hold.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&console)
            .unwrap();
        f.write_all(b"caf\xC3").unwrap();
        assert_eq!(follow.poll_into(&mut engine), 0);
        f.write_all(b"\xA9 au lait\n\xE2\x82 and \xFF\n\x80\n")
            .unwrap();
        assert_eq!(follow.poll_into(&mut engine), 3);
        assert_eq!(follow.stats().invalid_utf8, 3);
        let _ = std::fs::remove_dir_all(&root);
    }
}
