//! Polling directory tailer for `hpc-watch --follow`.
//!
//! Follows the four log files of an archive directory the way `tail -F`
//! would: a byte offset per file, complete lines fed to the engine, a
//! partial trailing line kept until its newline arrives. A missing file is
//! retried next poll; one that shrank or was replaced (a new
//! `(dev, inode)`) is re-read from the start.
//!
//! Reads are bounded: a tail reads one block with the batch reader's
//! [`read_block`] into its one reused buffer, and reads again only once
//! the block's lines are all fed. A poll's bound `B` is the least
//! last-line timestamp among the tails whose file holds more; every source
//! feeds its lines up to the first one stamped after `B`, and the engine
//! releases once. A source read ahead waits in its buffer, so catch-up
//! stays within the merger's watermark and holds a block per source
//! whatever the backlog. In steady state no read fills a block and every
//! line read is fed.
//!
//! Misbehaving sources are quarantined, not fatal (DESIGN.md §10): an I/O
//! error backs that one tail off (2, 4, … up to 64 polls) while the others
//! keep flowing; the first good poll re-admits it, offset intact. Invalid
//! UTF-8 is sanitised and counted. [`FollowStats`] and the
//! `stream.follow.*` telemetry account for it all, `backlog_bytes` for what
//! the files hold past the read offsets.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

use hpc_logs::event::LogSource;
use hpc_logs::fs::{detect_scheduler, read_block, sanitise_lines, source_path, BLOCK_BYTES};
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
    /// Rotations/truncations detected (file shrank or was replaced;
    /// re-read from start).
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
    /// Bytes of the file consumed into `buf`, and the `(dev, inode)` of
    /// the file they count in.
    offset: u64,
    identity: Option<(u64, u64)>,
    /// Whole lines up to `whole` (those before `fed` already fed), then the
    /// start of a line still being written. Reused from read to read.
    buf: Vec<u8>,
    fed: usize,
    whole: usize,
    /// The last read stopped at the block limit; `reach` is the time of the
    /// last stamped line read.
    more: bool,
    reach: SimTime,
    /// File length past `offset` when the tail last looked.
    backlog: u64,
    /// Consecutive I/O errors (nonzero: quarantined), and the poll at which
    /// a quarantined tail may retry.
    errors: u32,
    retry_at: u64,
}

/// A polling tailer over the four source files under an archive root.
pub struct FollowDir {
    tails: Vec<Tail>,
    block_bytes: usize,
    polls: u64,
    stats: FollowStats,
}

impl FollowDir {
    /// Tailer for the archive layout under `root`. The scheduler flavour is
    /// sniffed from which scheduler log is non-empty (defaulting like the
    /// batch loader when neither is).
    pub fn new(root: &Path) -> FollowDir {
        FollowDir::with_block_bytes(root, BLOCK_BYTES)
    }

    /// [`FollowDir::new`] with a forced block size (at least 1), so tests
    /// can put block boundaries anywhere. Not a tunable.
    #[doc(hidden)]
    pub fn with_block_bytes(root: &Path, block_bytes: usize) -> FollowDir {
        let scheduler = detect_scheduler(root);
        FollowDir {
            tails: LogSource::ALL
                .into_iter()
                .map(|source| Tail {
                    source,
                    path: root.join(source_path(source, scheduler)),
                    offset: 0,
                    identity: None,
                    buf: Vec::new(),
                    fed: 0,
                    whole: 0,
                    more: false,
                    reach: SimTime::EPOCH,
                    backlog: 0,
                    errors: 0,
                    retry_at: 0,
                })
                .collect(),
            block_bytes: block_bytes.max(1),
            polls: 0,
            stats: FollowStats::default(),
        }
    }

    /// Degradation accounting so far (also mirrored to `stream.follow.*`
    /// telemetry counters).
    pub fn stats(&self) -> FollowStats {
        self.stats
    }

    /// Bytes the tails hold in their read buffers.
    #[doc(hidden)]
    pub fn buffered_bytes(&self) -> usize {
        self.tails.iter().map(|t| t.buf.len()).sum()
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

    /// One poll: every tail whose lines are all fed reads a block, each
    /// source's lines up to the poll's bound go to `engine`, which releases
    /// once. Returns the lines fed: 0 only when every tail not in
    /// quarantine is at the end of its file with no whole line buffered.
    pub fn poll_into(&mut self, engine: &mut StreamEngine) -> u64 {
        self.polls += 1;
        for tail in &mut self.tails {
            let backing_off = tail.errors > 0 && self.polls < tail.retry_at;
            if tail.fed == tail.whole && !backing_off {
                tail.read(self.polls, self.block_bytes, &mut self.stats);
            }
        }
        // The least time a source with more to read has reached: nothing
        // later is fed this poll, so a source that reads ahead waits.
        let bound = (self.tails.iter())
            .filter(|t| t.more && t.errors == 0)
            .map(|t| t.reach)
            .min();
        let fed = self.tails.iter_mut().map(|t| t.feed(engine, bound)).sum();
        engine.release();
        hpc_telemetry::gauge("stream.follow.quarantined").set(self.quarantined() as f64);
        let backlog: u64 = self.tails.iter().map(|t| t.backlog).sum();
        hpc_telemetry::gauge("stream.follow.backlog_bytes").set(backlog as f64);
        fed
    }
}

impl Tail {
    /// Reads the next block. An error streak backs the tail off
    /// exponentially (up to [`MAX_BACKOFF_POLLS`] polls between retries);
    /// the first success re-admits it. The offset never advances on an
    /// error, so no bytes are lost across a quarantine.
    fn read(&mut self, polls: u64, block_bytes: usize, stats: &mut FollowStats) {
        match self.try_read(block_bytes, stats) {
            Ok(()) => {
                if self.errors > 0 {
                    self.errors = 0;
                    self.retry_at = 0;
                    stats.recoveries += 1;
                    hpc_telemetry::counter("stream.follow.recoveries").inc();
                }
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
            }
        }
    }

    fn try_read(&mut self, block_bytes: usize, stats: &mut FollowStats) -> io::Result<()> {
        // Every line read so far is fed: keep only the unfinished one.
        self.buf.drain(..self.whole);
        (self.fed, self.whole) = (0, 0);
        let mut file = match File::open(&self.path) {
            Ok(f) => f,
            // Not created yet is normal (a source can lag hours behind);
            // anything else is a real error and starts a backoff streak.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                (self.more, self.backlog) = (false, 0);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let meta = file.metadata()?;
        if meta.is_dir() {
            return Err(io::Error::other("log path is a directory"));
        }
        let len = meta.len();
        let identity = (meta.dev(), meta.ino());
        if len < self.offset || self.identity.is_some_and(|known| known != identity) {
            // Truncated, or another file renamed over the path: start over.
            (self.offset, self.reach) = (0, SimTime::EPOCH);
            self.buf.clear();
            stats.rotations += 1;
            hpc_telemetry::counter("stream.follow.rotations").inc();
        }
        self.identity = Some(identity);
        (self.more, self.backlog) = (false, len - self.offset);
        if len == self.offset {
            return Ok(());
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let start = self.buf.len();
        let block = self.backlog.min(block_bytes as u64) as usize;
        let cut = read_block(&mut file.take(self.backlog), &mut self.buf, block);
        let cut = cut.inspect_err(|_| self.buf.truncate(start))?;
        self.offset += (self.buf.len() - start) as u64;
        self.backlog = len - self.offset;
        // Without a `\n` everything read is a line still being written.
        let Some(end) = cut else {
            return Ok(());
        };
        let text = match std::str::from_utf8(&self.buf[..end]) {
            Ok(text) => text,
            Err(_) => {
                let (text, invalid) = sanitise_lines(self.buf[..end].to_vec());
                stats.invalid_utf8 += invalid;
                hpc_telemetry::counter("stream.follow.invalid_utf8").add(invalid);
                self.buf.splice(..end, text.bytes());
                std::str::from_utf8(&self.buf[..text.len()]).expect("sanitised")
            }
        };
        let last = text.rsplit_terminator('\n').find_map(split_timestamp);
        self.reach = last.map_or(self.reach, |(t, _)| t);
        (self.whole, self.more) = (text.len(), self.backlog > 0);
        Ok(())
    }

    /// Feeds the buffered whole lines to `engine` without releasing: all of
    /// them if there is no `bound` or this tail defines it, else those
    /// before the first line stamped after `bound`. Returns how many.
    fn feed(&mut self, engine: &mut StreamEngine, bound: Option<SimTime>) -> u64 {
        let text = std::str::from_utf8(&self.buf[self.fed..self.whole]).expect("sanitised on read");
        let bound = bound.filter(|&b| !(self.more && self.reach <= b));
        let (mut lines, mut bytes) = (0, 0);
        for line in text.split_inclusive('\n') {
            let line_body = &line[..line.len() - 1];
            if bound.is_some_and(|b| split_timestamp(line_body).is_some_and(|(t, _)| t > b)) {
                break;
            }
            engine.enqueue_line(self.source, line_body);
            lines += 1;
            bytes += line.len();
        }
        self.fed += bytes;
        lines
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
    fn a_longer_file_renamed_over_the_path_is_read_from_its_start() {
        let root = temp_root("rename-over");
        let console = root.join("p0-directory/console");
        let mut engine = StreamEngine::new(StreamConfig::default());
        let mut follow = FollowDir::new(&root);

        let lines = [1u64, 2, 3, 4, 5].map(|mins| console_line(mins * 60_000));
        let (head, _tail) = lines[1].split_at(lines[1].len() / 2);
        std::fs::write(&console, format!("{}\n{head}", lines[0])).unwrap();
        assert_eq!(follow.poll_into(&mut engine), 1);
        // logrotate's `create` style: a new file, already longer than the
        // old read offset, is renamed over the path. Its length alone does
        // not give the rotation away; its inode does.
        let fresh = root.join("p0-directory/console.new");
        std::fs::write(&fresh, lines[1..].join("\n") + "\n").unwrap();
        std::fs::rename(&fresh, &console).unwrap();
        assert_eq!(follow.poll_into(&mut engine), 4);
        assert_eq!(follow.stats().rotations, 1);
        engine.finish();
        assert_eq!(engine.stats().events, 5);
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

        // Move the file aside and put a directory in its place: open
        // succeeds, reading fails — a deterministic stand-in for a
        // transient I/O fault.
        let aside = root.join("p0-directory/console.aside");
        std::fs::rename(&console, &aside).unwrap();
        std::fs::create_dir(&console).unwrap();
        assert_eq!(follow.poll_into(&mut engine), 0);
        let s = follow.stats();
        assert_eq!((s.io_errors, s.quarantines, s.recoveries), (1, 1, 0));

        // Quarantined: the next poll backs off without touching the path.
        assert_eq!(follow.poll_into(&mut engine), 0);
        assert_eq!(follow.stats().io_errors, 1, "no retry during backoff");

        // Heal the source: the same file comes back with more data. Once
        // the backoff expires the tail is re-admitted and resumes from its
        // pre-error offset.
        std::fs::remove_dir(&console).unwrap();
        std::fs::write(&aside, "one\ntwo\n").unwrap();
        std::fs::rename(&aside, &console).unwrap();
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
