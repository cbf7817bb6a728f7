//! `follow_paced`: the stream path at a fixed rate far below capacity,
//! then draining a full backlog.
//!
//! Paced phase (open loop): a generator thread appends the time-merged
//! feed to the four files of a followed directory, 500 lines every 25 ms
//! (20,000 lines/s). Each tick has a due time fixed before the run; a
//! generator that falls behind appends late and says how late, it never
//! skips a tick. The consumer polls `FollowDir::poll_into(&mut engine)`
//! in a loop. Tick *k*'s lag runs from its due time to the first instant
//! the engine has consumed its last line (`push_line` pumps synchronously,
//! so every alert those lines settle is on the sinks by then).
//!
//! A tick's appends and a poll exclude each other through a mutex: a poll
//! that overlapped a tick's four appends could read one source ahead of
//! another by more than the engine's 10-minute watermark, and the events
//! dropped as late — by design — would make the run incomparable with the
//! reference replay.
//!
//! A tick is 500 lines, not fewer, so that its lag (~1 ms) is mostly the
//! program's work on those lines: at 100 lines per 5 ms the lag was 0.25 ms,
//! half of it append, wake-up and `open` calls, and its p90 moved by 27%
//! between ten runs of the same code on this sandbox.
//!
//! Catch-up phase (closed loop): a fresh `FollowDir` and engine over the
//! fully written archive directory, polled until dry, then `finish()`.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hpc_diagnosis::detection::DetectedFailure;
use hpc_diagnosis::prediction::Alert;
use hpc_logs::event::LogSource;
use hpc_logs::time::SimDuration;
use hpc_platform::system::SchedulerKind;
use hpc_stream::{AlertSink, FollowDir, JsonlSink, StreamConfig, StreamEngine};

use crate::inputs::{read_feed, FEED_FILE};
use crate::outcome::{peak_rss_mb, repeated_setup, Outcome};
use crate::stats;
use crate::Ctx;

pub const TICK: Duration = Duration::from_millis(25);
pub const LINES_PER_TICK: usize = 500;
/// A tick not consumed this long after the last due time has failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(2);
/// Share of `--seconds` the paced phase takes; catch-up gets the rest.
const PACED_SHARE: f64 = 0.7;
/// Fewest catch-up passes.
const MIN_CATCHUPS: usize = 3;
/// The generator sleeps to this close to a due time, then spins.
const SPIN: Duration = Duration::from_micros(200);

/// Sink counting what reaches it, shared with the thread that reads it.
#[derive(Clone, Default)]
pub struct CountingSink {
    pub alerts: Arc<AtomicU64>,
    pub failures: Arc<AtomicU64>,
}

impl AlertSink for CountingSink {
    fn alert(&mut self, _: &Alert) {
        self.alerts.fetch_add(1, Ordering::Relaxed);
    }
    fn failure(&mut self, _: &DetectedFailure, _: Option<SimDuration>) {
        self.failures.fetch_add(1, Ordering::Relaxed);
    }
    fn flush(&mut self) {}
}

/// Open-loop tick schedule: calls `emit(k)` for every tick `k` in order,
/// no earlier than `start + k·tick`. Returns how long after its due time
/// each tick's `emit` had completed. A slow `emit` delays later ticks;
/// none is dropped.
pub fn run_schedule(
    ticks: usize,
    tick: Duration,
    start: Instant,
    mut emit: impl FnMut(usize),
) -> Vec<Duration> {
    let mut late = Vec::with_capacity(ticks);
    for k in 0..ticks {
        let due = start + tick * k as u32;
        let wait = due.saturating_duration_since(Instant::now());
        if wait > SPIN {
            std::thread::sleep(wait - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        emit(k);
        late.push(Instant::now().duration_since(due));
    }
    late
}

/// Writer/poller exclusion. The poller holds the lock almost always, so
/// the writer raises `waiting` first and the poller stands back while it
/// is up; without it the writer would lose nearly every race.
#[derive(Default)]
struct Gate {
    lock: Mutex<()>,
    writer_waiting: AtomicBool,
}

/// Append handles of a followed directory's four files.
struct FollowedFiles {
    files: [File; 4],
}

impl FollowedFiles {
    fn create(root: &Path, scheduler: SchedulerKind) -> FollowedFiles {
        let _ = fs::remove_dir_all(root);
        let files = LogSource::ALL.map(|source| {
            let path = root.join(hpc_logs::fs::source_path(source, scheduler));
            fs::create_dir_all(path.parent().expect("source paths have a parent"))
                .expect("work directory is writable");
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .expect("work directory is writable")
        });
        FollowedFiles { files }
    }

    /// One tick: each source's lines in one `write`.
    fn append(&mut self, lines: &[(LogSource, String)]) {
        let mut buffers: [Vec<u8>; 4] = Default::default();
        for (source, line) in lines {
            let b = &mut buffers[*source as usize];
            b.extend_from_slice(line.as_bytes());
            b.push(b'\n');
        }
        for (file, bytes) in self.files.iter_mut().zip(&buffers) {
            if !bytes.is_empty() {
                file.write_all(bytes).expect("append to followed file");
            }
        }
    }
}

fn engine_with_sinks(jsonl: impl Write + Send + 'static) -> (StreamEngine, CountingSink) {
    let mut engine = StreamEngine::new(StreamConfig::default());
    let counting = CountingSink::default();
    engine.add_sink(Box::new(JsonlSink::new(jsonl)));
    engine.add_sink(Box::new(counting.clone()));
    (engine, counting)
}

/// What the stream path produced, for comparison with a replay.
#[derive(Debug, PartialEq)]
pub struct StreamResult {
    pub alerts: Vec<Alert>,
    pub failures: Vec<DetectedFailure>,
}

impl StreamResult {
    pub fn of(engine: &StreamEngine) -> StreamResult {
        StreamResult {
            alerts: engine.alerts().to_vec(),
            failures: engine.failures().to_vec(),
        }
    }
}

/// The first `limit` feed lines pushed straight into a fresh engine.
pub fn replay(feed: &Path, limit: usize) -> StreamEngine {
    let mut engine = StreamEngine::new(StreamConfig::default());
    for (source, line) in read_feed(feed).expect("feed file is readable").take(limit) {
        engine.push_line(source, &line);
    }
    engine.finish();
    engine
}

/// A fresh `FollowDir` + engine over a fully written directory, polled
/// until dry and finished. Returns the engine and the wall seconds.
pub fn catch_up(dir: &Path) -> (StreamEngine, CountingSink, f64) {
    let start = Instant::now();
    let mut follow = FollowDir::new(dir);
    let (mut engine, counting) = engine_with_sinks(std::io::sink());
    while follow.poll_into(&mut engine) > 0 {}
    engine.finish();
    (engine, counting, start.elapsed().as_secs_f64())
}

/// Result of one paced phase.
pub struct Paced {
    /// Lag per consumed tick, milliseconds.
    pub lag_ms: Vec<f64>,
    /// Ticks never consumed within [`DRAIN_LIMIT`].
    pub undrained: usize,
    pub late: Vec<Duration>,
    pub polls: u64,
    pub engine: StreamEngine,
    pub sink: CountingSink,
}

/// Runs `ticks` ticks of the feed into `dir` (laid out for `scheduler`)
/// against a polling consumer.
pub fn paced(
    feed: &Path,
    dir: &Path,
    scheduler: SchedulerKind,
    jsonl: PathBuf,
    ticks: usize,
) -> Paced {
    let mut files = FollowedFiles::create(dir, scheduler);
    let mut lines = read_feed(feed).expect("feed file is readable");
    let gate = Arc::new(Gate::default());
    let mut follow = FollowDir::new(dir);
    let (mut engine, sink) = engine_with_sinks(std::io::BufWriter::new(
        File::create(jsonl).expect("work directory is writable"),
    ));

    // Ticks start a little ahead so both threads are in place.
    let start = Instant::now() + Duration::from_millis(20);
    let generator = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            run_schedule(ticks, TICK, start, |_| {
                let batch: Vec<(LogSource, String)> = lines.by_ref().take(LINES_PER_TICK).collect();
                assert_eq!(
                    batch.len(),
                    LINES_PER_TICK,
                    "feed shorter than the schedule"
                );
                gate.writer_waiting.store(true, Ordering::SeqCst);
                let guard = gate
                    .lock
                    .lock()
                    .expect("poller does not panic holding the gate");
                gate.writer_waiting.store(false, Ordering::SeqCst);
                files.append(&batch);
                drop(guard);
            })
        })
    };

    let due = |k: usize| start + TICK * k as u32;
    let mut lag_ms = Vec::with_capacity(ticks);
    let mut polls = 0u64;
    let give_up = due(ticks.saturating_sub(1)) + DRAIN_LIMIT;
    while lag_ms.len() < ticks {
        while gate.writer_waiting.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        {
            let _guard = gate
                .lock
                .lock()
                .expect("generator does not panic holding the gate");
            follow.poll_into(&mut engine);
        }
        polls += 1;
        let now = Instant::now();
        let consumed = engine.stats().lines as usize;
        while lag_ms.len() < ticks && consumed >= (lag_ms.len() + 1) * LINES_PER_TICK {
            let lag = now.saturating_duration_since(due(lag_ms.len()));
            lag_ms.push(lag.as_secs_f64() * 1e3);
        }
        if now > give_up {
            break;
        }
        std::thread::yield_now();
    }
    let late = generator.join().expect("generator thread");
    engine.finish();
    Paced {
        undrained: ticks - lag_ms.len(),
        lag_ms,
        late,
        polls,
        engine,
        sink,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let archive = ctx.archive();
    let feed = ctx.work.join(FEED_FILE);

    // Set-up: size the schedule from the feed and run the warm-up
    // catch-up (page cache for both phases' files).
    let ((feed_lines, _), setup_s) = repeated_setup(|| {
        let feed_lines = read_feed(&feed).expect("feed file is readable").count();
        (feed_lines, catch_up(&archive))
    });

    let wanted = (ctx.seconds * PACED_SHARE / TICK.as_secs_f64()) as usize;
    let ticks = wanted.min(feed_lines / LINES_PER_TICK).max(1);
    let paced = paced(
        &feed,
        &ctx.work.join("followed"),
        hpc_logs::fs::detect_scheduler(&archive),
        ctx.work.join("alerts.jsonl"),
        ticks,
    );
    out.attempted += ticks as u64;
    if paced.undrained > 0 {
        out.fail(paced.undrained as u64, || {
            format!(
                "{} ticks not consumed within {DRAIN_LIMIT:?}",
                paced.undrained
            )
        });
    }

    let catchup_budget = ctx.seconds * (1.0 - PACED_SHARE);
    let mut catchup_s = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while catchup_s.len() < MIN_CATCHUPS || start.elapsed().as_secs_f64() < catchup_budget {
        // One engine at a time: the pass before must not count toward the
        // peak memory of this one.
        drop(last.take());
        let (engine, sink, secs) = catch_up(&archive);
        out.attempted += 1;
        catchup_s.push(secs);
        last = Some((engine, sink));
    }
    out.set("peak_rss_mb", peak_rss_mb());

    // Paced output against a replay of the same feed prefix.
    let reference = replay(&feed, ticks * LINES_PER_TICK);
    check_stream(&mut out, "paced", &paced.engine, &paced.sink, &reference);
    let written = fs::read_to_string(ctx.work.join("alerts.jsonl")).unwrap_or_default();
    let records = written.lines().count() as u64;
    let expected = (reference.alerts().len() + reference.failures().len()) as u64;
    if records != expected {
        out.fail(1, || {
            format!("alerts.jsonl holds {records} records, replay made {expected}")
        });
    }
    // Catch-up output against a replay of the whole feed.
    let (engine, sink) = last.expect("MIN_CATCHUPS > 0");
    let full = replay(&feed, usize::MAX);
    check_stream(&mut out, "catch-up", &engine, &sink, &full);
    let lines = engine.stats().lines;
    if lines as usize != feed_lines {
        out.fail(1, || {
            format!("catch-up consumed {lines} of {feed_lines} lines")
        });
    }

    let late_us: Vec<f64> = paced.late.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    out.set("setup_s", setup_s);
    out.set("throughput_per_s", lines as f64 / stats::median(&catchup_s));
    out.set("ticks", ticks as f64);
    out.set("polls_per_tick", paced.polls as f64 / ticks as f64);
    out.set("generator_late_p90_us", stats::percentile(&late_us, 900));
    out.samples.insert("generator_late_us".to_string(), late_us);
    out.samples.insert("catchup_s".to_string(), catchup_s);
    out.set_latency(paced.lag_ms, ctx.spec.tail_permille);
    out
}

/// `engine`'s alerts and failures must equal the replay's, and every one
/// of them must have reached the sinks.
fn check_stream(
    out: &mut Outcome,
    phase: &str,
    engine: &StreamEngine,
    sink: &CountingSink,
    reference: &StreamEngine,
) {
    let (got, want) = (StreamResult::of(engine), StreamResult::of(reference));
    if got != want {
        out.fail(1, || {
            format!(
                "{phase}: {} alerts / {} failures, replay made {} / {} ({} late events)",
                got.alerts.len(),
                got.failures.len(),
                want.alerts.len(),
                want.failures.len(),
                engine.stats().late_events
            )
        });
    }
    let on_sink = (
        sink.alerts.load(Ordering::Relaxed) as usize,
        sink.failures.load(Ordering::Relaxed) as usize,
    );
    if on_sink != (got.alerts.len(), got.failures.len()) {
        out.fail(1, || {
            format!("{phase}: sink saw {on_sink:?} alerts/failures")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_generator_reports_lateness_and_skips_no_tick() {
        let tick = Duration::from_millis(2);
        let mut emitted = Vec::new();
        let late = run_schedule(6, tick, Instant::now(), |k| {
            if k == 0 {
                // The first append stalls for three ticks.
                std::thread::sleep(tick * 3);
            }
            emitted.push(k);
        });
        assert_eq!(emitted, [0, 1, 2, 3, 4, 5]);
        assert_eq!(late.len(), 6);
        // Tick 1 was due at +2 ms and could only go out after +6 ms.
        assert!(late[1] >= tick * 2 - Duration::from_micros(100), "{late:?}");
        // The backlog drains without a sleep, so lateness falls again.
        assert!(late[5] < late[1], "{late:?}");
    }

    #[test]
    fn an_unhindered_schedule_is_never_early() {
        let start = Instant::now() + Duration::from_millis(1);
        let mut at = Vec::new();
        run_schedule(4, Duration::from_millis(1), start, |_| {
            at.push(Instant::now())
        });
        for (k, t) in at.iter().enumerate() {
            assert!(*t >= start + Duration::from_millis(k as u64));
        }
    }
}
