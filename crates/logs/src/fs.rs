//! On-disk log archives.
//!
//! Persists a [`LogArchive`] as a directory of plain-text log files in a
//! layout mirroring a Cray SMW export, and loads such a directory back —
//! which also makes the diagnosis pipeline usable on *real* log trees that
//! follow the same conventions:
//!
//! ```text
//! <root>/
//!   p0-directory/console        node-internal console/messages lines
//!   controller/controller.log   BC/CC health-fault lines
//!   erd/event-20160101          ERD + SEDC lines
//!   scheduler/slurmctld.log     scheduler lines (or pbs_server.log)
//! ```

use std::collections::VecDeque;
use std::fs;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use hpc_platform::system::SchedulerKind;

use crate::archive::LogArchive;
use crate::event::LogSource;

/// Bytes a [`BlockReader`] (and `hpc-stream`'s follower) asks for per
/// block: per-block costs (a `read`, a UTF-8 validation, a pool hand-off)
/// vanish against parsing ~10k lines, and a pool's worth of blocks stays a
/// few MiB whatever the file size.
pub const BLOCK_BYTES: usize = 1 << 20;

/// The sanitiser shared by every reader of log bytes (the block reader
/// here, `hpc-stream`'s follower): turns a buffer of whole lines into text
/// and counts the lines that held invalid UTF-8. A valid buffer is
/// converted in place after its one validation; only a buffer that fails is
/// rebuilt, each invalid sequence replaced by U+FFFD exactly as a per-line
/// `String::from_utf8_lossy` would (`\n` is never part of one).
pub fn sanitise_lines(bytes: Vec<u8>) -> (String, u64) {
    let bytes = match String::from_utf8(bytes) {
        Ok(text) => return (text, 0),
        Err(e) => e.into_bytes(),
    };
    let mut text = Vec::with_capacity(bytes.len() + bytes.len() / 16);
    let mut invalid_lines = 0;
    // Whether the line in progress already holds a replacement.
    let mut counted = false;
    let mut rest = &bytes[..];
    while let Err(e) = std::str::from_utf8(rest) {
        let (valid, bad) = rest.split_at(e.valid_up_to());
        counted &= !valid.contains(&b'\n');
        invalid_lines += u64::from(!counted);
        counted = true;
        text.extend_from_slice(valid);
        text.extend_from_slice("\u{FFFD}".as_bytes());
        // `None`: the buffer ends inside a sequence, all of it one bad run.
        rest = &bad[e.error_len().unwrap_or(bad.len())..];
    }
    text.extend_from_slice(rest);
    let text = String::from_utf8(text).expect("valid runs joined by U+FFFD");
    (text, invalid_lines)
}

/// A run of whole lines read from a log file as one valid-UTF-8 buffer,
/// every line `\n`-terminated except possibly the file's last.
pub struct Block(String);

impl Block {
    /// The block's lines in file order, borrowed from the block, trailing
    /// `\r`/`\n` stripped.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        let lines = self.0.split_terminator('\n');
        lines.map(|line| line.trim_end_matches('\r'))
    }
}

/// Reads a log file as bounded [`Block`]s: ask for ~1 MiB, cut at the last
/// `\n`, carry the remainder into the next block — the one file-reading
/// path under [`load_archive`], [`LineBatches`] and
/// `hpc-diagnosis`'s pooled `Diagnosis::from_dir`. A line longer than the
/// block size grows the block until its `\n` arrives.
///
/// Hostile bytes degrade rather than fail (DESIGN.md §10): a block that is
/// not valid UTF-8 is rebuilt by [`sanitise_lines`], each bad line counted
/// under `core.ingest.dropped.invalid_utf8`; a mid-file read error
/// truncates the file at the last whole line before it, counted under
/// `core.ingest.dropped.io_error`. Neither aborts ingest of the rest.
pub struct BlockReader {
    file: fs::File,
    block_bytes: usize,
    /// Bytes after the last `\n` of the previous block.
    carry: Vec<u8>,
    done: bool,
}

impl BlockReader {
    /// Opens `path` for block reading.
    pub fn open(path: &Path) -> io::Result<BlockReader> {
        BlockReader::with_block_bytes(path, BLOCK_BYTES)
    }

    /// [`BlockReader::open`] with a forced block size (at least 1), so
    /// tests can put block boundaries anywhere. Not a tunable.
    #[doc(hidden)]
    pub fn with_block_bytes(path: &Path, block_bytes: usize) -> io::Result<BlockReader> {
        Ok(BlockReader {
            file: fs::File::open(path)?,
            block_bytes: block_bytes.max(1),
            carry: Vec::new(),
            done: false,
        })
    }
}

impl Iterator for BlockReader {
    type Item = Block;

    fn next(&mut self) -> Option<Block> {
        let mut buf = std::mem::take(&mut self.carry);
        if !self.done {
            match read_block(&mut self.file, &mut buf, self.block_bytes) {
                Ok(Some(end)) => self.carry = buf.split_off(end),
                // End of file: what is left is the unterminated last line.
                Ok(None) => self.done = true,
                Err(_) => {
                    hpc_telemetry::counter("core.ingest.dropped.io_error").inc();
                    self.done = true;
                    let whole = buf.iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1);
                    buf.truncate(whole);
                }
            }
        }
        if buf.is_empty() {
            return None;
        }
        hpc_telemetry::counter("core.ingest.blocks").inc();
        hpc_telemetry::counter("core.ingest.bytes").add(buf.len() as u64);
        let (text, invalid_lines) = sanitise_lines(buf);
        if invalid_lines > 0 {
            hpc_telemetry::counter("core.ingest.lossy_blocks").inc();
            hpc_telemetry::counter("core.ingest.dropped.invalid_utf8").add(invalid_lines);
        }
        Some(Block(text))
    }
}

/// The bounded read under every reader of log files ([`BlockReader`] and
/// `hpc-stream`'s follower): appends `src`'s bytes to `buf`, at most
/// `block_bytes` at a time, until the bytes of one read hold a `\n`.
/// `Some(end)` cuts there: `buf[..end]` is whole lines, `buf[end..]` the
/// start of the next one. `None` means `src` ended first; everything read is
/// in `buf`, and it is up to the caller whether an unterminated last line is
/// a line. A line longer than a block grows the read until its `\n` comes.
/// On an error `buf` may hold part of what was read.
pub fn read_block(
    src: &mut impl Read,
    buf: &mut Vec<u8>,
    block_bytes: usize,
) -> io::Result<Option<usize>> {
    loop {
        let before = buf.len();
        buf.reserve(block_bytes);
        if src.by_ref().take(block_bytes as u64).read_to_end(buf)? == 0 {
            return Ok(None);
        }
        if let Some(nl) = buf[before..].iter().rposition(|&b| b == b'\n') {
            return Ok(Some(before + nl + 1));
        }
    }
}

/// Relative path of a source's log file within an archive directory.
pub fn source_path(source: LogSource, scheduler: SchedulerKind) -> PathBuf {
    match source {
        LogSource::Console => PathBuf::from("p0-directory/console"),
        LogSource::Controller => PathBuf::from("controller/controller.log"),
        LogSource::Erd => PathBuf::from("erd/event-20160101"),
        LogSource::Scheduler => match scheduler {
            SchedulerKind::Slurm => PathBuf::from("scheduler/slurmctld.log"),
            SchedulerKind::Torque => PathBuf::from("scheduler/pbs_server.log"),
        },
    }
}

/// Writes the archive under `root`, creating directories as needed.
/// Existing files are overwritten.
pub fn save_archive(archive: &LogArchive, root: &Path) -> io::Result<()> {
    let _span = hpc_telemetry::span!("logs.save_archive");
    for source in LogSource::ALL {
        let path = root.join(source_path(source, archive.scheduler()));
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut w = BufWriter::with_capacity(BLOCK_BYTES, fs::File::create(&path)?);
        for line in archive.lines(source) {
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
        }
        w.flush()?;
        let stats = archive.stats(source);
        hpc_telemetry::counter("logs.write.lines").add(stats.lines);
        hpc_telemetry::counter("logs.write.bytes").add(stats.bytes);
    }
    Ok(())
}

/// Detects the scheduler flavour of an on-disk archive from its scheduler
/// log files. A non-empty log wins over a merely-existing empty one (SMW
/// exports routinely carry a zero-byte file for the scheduler that is
/// installed but not in use); when both are empty or absent, an existing
/// `pbs_server.log` means Torque, otherwise Slurm.
pub fn detect_scheduler(root: &Path) -> SchedulerKind {
    let pbs = root.join(source_path(LogSource::Scheduler, SchedulerKind::Torque));
    let slurm = root.join(source_path(LogSource::Scheduler, SchedulerKind::Slurm));
    let non_empty = |p: &Path| fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false);
    if non_empty(&pbs) {
        SchedulerKind::Torque
    } else if non_empty(&slurm) {
        SchedulerKind::Slurm
    } else if pbs.exists() {
        SchedulerKind::Torque
    } else {
        SchedulerKind::Slurm
    }
}

/// Loads an archive from `root`. Missing files yield empty streams (the
/// paper's "absence of certain environmental logs"); the scheduler flavour
/// comes from [`detect_scheduler`]. Hostile bytes degrade ([`BlockReader`]).
pub fn load_archive(root: &Path) -> io::Result<LogArchive> {
    let _span = hpc_telemetry::span!("logs.load_archive");
    let scheduler = detect_scheduler(root);
    let mut archive = LogArchive::new(scheduler);
    for source in LogSource::ALL {
        let path = root.join(source_path(source, scheduler));
        if !path.exists() {
            continue;
        }
        for block in BlockReader::open(&path)? {
            for line in block.lines() {
                archive.push_raw_line(source, line.to_string());
            }
        }
    }
    Ok(archive)
}

/// Reads a log file as fixed-size batches of owned lines (trailing
/// `\r`/`\n` stripped) for callers that need `String`s; holds one batch
/// plus at most one block of lines at a time.
pub struct LineBatches {
    reader: BlockReader,
    batch_lines: usize,
    /// Lines of the last block read that did not fit its batch.
    queued: VecDeque<String>,
}

impl LineBatches {
    /// Opens `path` for batched reading, `batch_lines` lines per batch
    /// (clamped to at least 1).
    pub fn open(path: &Path, batch_lines: usize) -> io::Result<LineBatches> {
        Ok(LineBatches {
            reader: BlockReader::open(path)?,
            batch_lines: batch_lines.max(1),
            queued: VecDeque::new(),
        })
    }
}

impl Iterator for LineBatches {
    /// Batches of sanitised lines; hostile bytes degrade as documented on
    /// [`BlockReader`] rather than surfacing as `Err`.
    type Item = Vec<String>;

    fn next(&mut self) -> Option<Self::Item> {
        let queued = self.batch_lines.min(self.queued.len());
        let mut batch: Vec<String> = self.queued.drain(..queued).collect();
        while batch.len() < self.batch_lines {
            let Some(block) = self.reader.next() else {
                break;
            };
            let mut lines = block.lines().map(str::to_string);
            batch.extend(lines.by_ref().take(self.batch_lines - batch.len()));
            self.queued.extend(lines);
        }
        (!batch.is_empty()).then_some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ConsoleDetail, LogEvent, Payload};
    use crate::time::SimTime;
    use hpc_platform::NodeId;
    use proptest::prelude::*;
    use std::io::BufRead;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hpc-logs-fs-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Serialises the tests that read or move the process-global
    /// `core.ingest.dropped.invalid_utf8` counter.
    fn invalid_utf8_counter_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The per-line reader the block reader replaced, kept as the oracle:
    /// `read_until` one `\n`-terminated line, strip trailing `\r`/`\n`,
    /// validate the line on its own, lossily replace and count a bad one.
    /// Returns the lines and the number that held invalid UTF-8.
    fn per_line_oracle(mut bytes: &[u8]) -> (Vec<String>, u64) {
        let (mut lines, mut invalid) = (Vec::new(), 0);
        let mut buf = Vec::new();
        loop {
            buf.clear();
            if bytes.read_until(b'\n', &mut buf).unwrap() == 0 {
                return (lines, invalid);
            }
            while matches!(buf.last(), Some(b'\n') | Some(b'\r')) {
                buf.pop();
            }
            match std::str::from_utf8(&buf) {
                Ok(s) => lines.push(s.to_string()),
                Err(_) => {
                    invalid += 1;
                    lines.push(String::from_utf8_lossy(&buf).into_owned());
                }
            }
        }
    }

    /// Everything a [`BlockReader`] over `path` yields: the lines, what it
    /// added to `core.ingest.dropped.invalid_utf8` (hold the counter lock),
    /// and the number of blocks.
    fn read_blocks(path: &Path, block_bytes: usize) -> (Vec<String>, u64, usize) {
        let counter = hpc_telemetry::counter("core.ingest.dropped.invalid_utf8");
        let before = counter.get();
        let (mut lines, mut blocks) = (Vec::new(), 0);
        for block in BlockReader::with_block_bytes(path, block_bytes).unwrap() {
            lines.extend(block.lines().map(str::to_string));
            blocks += 1;
        }
        (lines, counter.get() - before, blocks)
    }

    /// Byte soup weighted towards what breaks a block reader: line ends of
    /// both flavours (and runs of them), multi-byte sequences that a block
    /// boundary can cut anywhere, truncated and stray sequence bytes.
    fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
        let piece = prop_oneof![
            "[ -~]{0,12}".prop_map(String::into_bytes),
            prop::sample::select(vec![
                &b"\n"[..],
                b"\r\n",
                b"\r",
                b"\n\n",
                b"\r\r\n",
                "é".as_bytes(),
                "€".as_bytes(),
                "𝄞".as_bytes(),
                "\u{FFFD}".as_bytes(),
                b"\xE2\x82",
                b"\xF0\x9F",
                b"\x80",
                b"\xFF\xFE",
                b"\xC3",
            ])
            .prop_map(<[u8]>::to_vec),
        ];
        prop::collection::vec(piece, 0..40).prop_map(|pieces| pieces.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn block_reader_yields_what_the_per_line_reader_did(
            bytes in hostile_bytes(),
            sizes in prop::collection::vec(1usize..64, 1..4),
        ) {
            let _guard = invalid_utf8_counter_lock();
            let dir = tmpdir("blocks");
            let path = dir.join("log");
            fs::write(&path, &bytes).unwrap();
            let (lines, invalid) = per_line_oracle(&bytes);
            for block_bytes in sizes.into_iter().chain([1, 2, 3, bytes.len().max(1), BLOCK_BYTES]) {
                let (got, got_invalid, blocks) = read_blocks(&path, block_bytes);
                prop_assert_eq!(&got, &lines, "block_bytes={}", block_bytes);
                prop_assert_eq!(got_invalid, invalid, "block_bytes={}", block_bytes);
                prop_assert!(blocks <= lines.len().max(1), "a block holds at least one line");
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn sanitise_lines_counts_bad_lines_not_bad_sequences() {
        let (text, invalid) = sanitise_lines(b"ok\n\xFF mid \xFE\xE2\x82\nfine\r\n\x80".to_vec());
        assert_eq!(text, "ok\n\u{FFFD} mid \u{FFFD}\u{FFFD}\nfine\r\n\u{FFFD}");
        assert_eq!(invalid, 2);
        // Valid input comes back as the same allocation, untouched.
        let (text, invalid) = sanitise_lines("héllo\n".as_bytes().to_vec());
        assert_eq!((text.as_str(), invalid), ("héllo\n", 0));
    }

    #[test]
    fn a_line_longer_than_the_block_grows_the_block() {
        let _guard = invalid_utf8_counter_lock();
        let dir = tmpdir("longline");
        let path = dir.join("log");
        let long = "x".repeat(1000);
        fs::write(&path, format!("a\n{long}\nb")).unwrap();
        let (lines, invalid, blocks) = read_blocks(&path, 16);
        assert_eq!(lines, vec!["a".to_string(), long, "b".to_string()]);
        assert_eq!((invalid, blocks), (0, 3));
        fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_archive() -> LogArchive {
        let mut a = LogArchive::new(SchedulerKind::Slurm);
        for i in 0..10u64 {
            a.append_event(&LogEvent {
                time: SimTime::from_millis(i * 1000),
                payload: Payload::Console {
                    node: NodeId(i as u32),
                    detail: ConsoleDetail::DiskError,
                },
            });
        }
        a
    }

    #[test]
    fn save_load_round_trip() {
        let dir = tmpdir("roundtrip");
        let a = sample_archive();
        save_archive(&a, &dir).unwrap();
        let b = load_archive(&dir).unwrap();
        for source in LogSource::ALL {
            assert_eq!(a.lines(source), b.lines(source), "{source:?}");
        }
        assert_eq!(b.scheduler(), SchedulerKind::Slurm);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_streams_load_empty() {
        let dir = tmpdir("partial");
        let a = sample_archive();
        save_archive(&a, &dir).unwrap();
        fs::remove_file(dir.join("erd/event-20160101")).unwrap();
        fs::remove_dir_all(dir.join("controller")).unwrap();
        let b = load_archive(&dir).unwrap();
        assert_eq!(b.lines(LogSource::Console).len(), 10);
        assert!(b.lines(LogSource::Erd).is_empty());
        assert!(b.lines(LogSource::Controller).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torque_flavour_detected() {
        let dir = tmpdir("torque");
        let a = LogArchive::new(SchedulerKind::Torque);
        save_archive(&a, &dir).unwrap();
        let b = load_archive(&dir).unwrap();
        assert_eq!(b.scheduler(), SchedulerKind::Torque);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_pbs_file_does_not_shadow_populated_slurm_log() {
        // Regression: an empty pbs_server.log next to a populated
        // slurmctld.log used to flip detection to Torque, which then loaded
        // the empty file and dropped every scheduler line.
        let dir = tmpdir("both-scheds");
        let mut a = sample_archive();
        a.append_event(&LogEvent {
            time: SimTime::from_millis(20_000),
            payload: Payload::Scheduler {
                detail: crate::event::SchedulerDetail::JobEnd {
                    job: crate::event::JobId(7),
                    exit_code: 0,
                    reason: crate::event::JobEndReason::Completed,
                },
            },
        });
        save_archive(&a, &dir).unwrap();
        fs::write(dir.join("scheduler/pbs_server.log"), "").unwrap();
        assert_eq!(detect_scheduler(&dir), SchedulerKind::Slurm);
        let b = load_archive(&dir).unwrap();
        assert_eq!(b.scheduler(), SchedulerKind::Slurm);
        assert_eq!(b.lines(LogSource::Scheduler).len(), 1);
        // And symmetrically: a populated pbs log still wins over an empty
        // slurm one.
        fs::write(dir.join("scheduler/slurmctld.log"), "").unwrap();
        fs::write(
            dir.join("scheduler/pbs_server.log"),
            "2016-01-01T00:00:30.000 pbs_server: job 9 exit_code=0 reason=completed\n",
        )
        .unwrap();
        assert_eq!(detect_scheduler(&dir), SchedulerKind::Torque);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn line_batches_cover_file_exactly() {
        let dir = tmpdir("batches");
        let path = dir.join("log");
        let lines: Vec<String> = (0..10).map(|i| format!("line {i}")).collect();
        fs::write(&path, format!("{}\r\n", lines.join("\n"))).unwrap();
        let batches: Vec<Vec<String>> = LineBatches::open(&path, 4).unwrap().collect();
        assert_eq!(
            batches.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        assert_eq!(batches.concat(), lines);
        // Degenerate batch size clamps to 1; empty file yields no batches.
        assert_eq!(LineBatches::open(&path, 0).unwrap().count(), 10);
        fs::write(&path, "").unwrap();
        assert_eq!(LineBatches::open(&path, 4).unwrap().count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_utf8_is_sanitised_not_fatal() {
        let _guard = invalid_utf8_counter_lock();
        let dir = tmpdir("utf8");
        let path = dir.join("console");
        let good =
            "2016-01-01T00:00:00.000 c0-0c0s0n0 kernel: sd 0:0:0:0: [sda] Unhandled error code";
        let mut bytes = Vec::new();
        bytes.extend_from_slice(good.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(b"\x80\xFE garbage \xFF line\n");
        bytes.extend_from_slice(good.as_bytes());
        bytes.push(b'\n');
        fs::write(&path, &bytes).unwrap();
        let before = hpc_telemetry::counter("core.ingest.dropped.invalid_utf8").get();
        // All three lines come through, garbage sanitised (not a crash,
        // not a file-level error).
        let lines: Vec<String> = LineBatches::open(&path, 100).unwrap().flatten().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains('\u{FFFD}'));
        let after = hpc_telemetry::counter("core.ingest.dropped.invalid_utf8").get();
        assert_eq!(after - before, 1, "one count per read of the bad line");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_read_error_degrades_to_truncation() {
        // On Linux, opening a directory succeeds but reading it fails with
        // EISDIR — a portable-enough stand-in for a mid-file I/O error.
        let dir = tmpdir("eisdir");
        let a = sample_archive();
        save_archive(&a, &dir).unwrap();
        fs::remove_file(dir.join("p0-directory/console")).unwrap();
        fs::create_dir_all(dir.join("p0-directory/console")).unwrap();
        let before = hpc_telemetry::counter("core.ingest.dropped.io_error").get();
        let b = load_archive(&dir).unwrap();
        assert!(b.lines(LogSource::Console).is_empty());
        assert_eq!(b.lines(LogSource::Erd), a.lines(LogSource::Erd));
        assert_eq!(
            LineBatches::open(&dir.join("p0-directory/console"), 4)
                .unwrap()
                .count(),
            0
        );
        let after = hpc_telemetry::counter("core.ingest.dropped.io_error").get();
        assert_eq!(after - before, 2, "each reader counts its own error");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_root_loads_empty_archive() {
        let dir = tmpdir("empty");
        let b = load_archive(&dir).unwrap();
        assert_eq!(b.total_lines(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
