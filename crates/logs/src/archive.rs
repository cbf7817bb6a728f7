//! Log archives: the textual interface between generation and diagnosis.
//!
//! A [`LogArchive`] holds the rendered text of the four per-source streams
//! (console, controller, ERD, scheduler) for one observation window —
//! the in-memory analogue of a p0-directory plus controller/ERD/scheduler
//! log files. Generators append structured events (rendered on the way in);
//! the diagnosis pipeline reads lines back out and re-parses them.
//!
//! [`merge_before`] is the one place events of different origins are put in
//! chronological order: a stable k-way merge of time-sorted *runs* that
//! moves each stretch of one run in bulk, so the heap is touched once per
//! switch between runs instead of once per event (DESIGN.md §4.2). Batch
//! ingest calls it unbounded, as [`merge_by_time`], over the parsed chunks
//! of the stateless sources and the stitched console stream (`hpc-sysbench`
//! times it as `logs.archive.merge_ms`); `hpc-stream`'s merger calls it
//! bounded, over one queue per source, stopped at its release point.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use hpc_platform::system::SchedulerKind;

use crate::event::{LogEvent, LogSource};
use crate::parse::LogParser;
use crate::render::render_into;
use crate::time::SimTime;

/// Per-source line/byte counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Number of text lines.
    pub lines: u64,
    /// Total bytes (including implied newlines).
    pub bytes: u64,
}

/// An in-memory rendered log archive.
#[derive(Debug, Clone)]
pub struct LogArchive {
    scheduler: SchedulerKind,
    streams: [Vec<String>; 4],
    last_time: [Option<SimTime>; 4],
    render_buf: Vec<String>,
}

fn source_index(source: LogSource) -> usize {
    match source {
        LogSource::Console => 0,
        LogSource::Controller => 1,
        LogSource::Erd => 2,
        LogSource::Scheduler => 3,
    }
}

impl LogArchive {
    /// New empty archive for a system using the given scheduler flavour.
    pub fn new(scheduler: SchedulerKind) -> LogArchive {
        LogArchive {
            scheduler,
            streams: Default::default(),
            last_time: [None; 4],
            render_buf: Vec::with_capacity(8),
        }
    }

    /// The scheduler flavour used for rendering.
    pub fn scheduler(&self) -> SchedulerKind {
        self.scheduler
    }

    /// Renders `event` into its stream. Events must arrive in
    /// non-decreasing time order per source (the discrete-event engine
    /// guarantees this); violations panic in debug builds.
    pub fn append_event(&mut self, event: &LogEvent) {
        let idx = source_index(event.source());
        debug_assert!(
            self.last_time[idx].is_none_or(|t| t <= event.time),
            "out-of-order append to {:?}: {} after {:?}",
            event.source(),
            event.time,
            self.last_time[idx]
        );
        self.last_time[idx] = Some(event.time);
        self.render_buf.clear();
        render_into(event, self.scheduler, &mut self.render_buf);
        self.streams[idx].append(&mut self.render_buf);
    }

    /// Appends a raw line (disk loads, noise/corruption injection).
    ///
    /// If the line opens with a recognisable timestamp, the stream clock
    /// advances to it (never backwards), so the out-of-order guard in
    /// [`LogArchive::append_event`] stays meaningful for archives loaded
    /// from disk and then appended to. Timestampless noise, or noise with a
    /// stale timestamp, leaves the clock untouched — corruption must not
    /// make legitimate later appends panic.
    pub fn push_raw_line(&mut self, source: LogSource, line: String) {
        let idx = source_index(source);
        if let Some((t, _)) = crate::parse::split_timestamp(&line) {
            if self.last_time[idx].is_none_or(|prev| prev < t) {
                self.last_time[idx] = Some(t);
            }
        }
        self.streams[idx].push(line);
    }

    /// The text lines of one stream.
    pub fn lines(&self, source: LogSource) -> &[String] {
        &self.streams[source_index(source)]
    }

    /// Line/byte statistics for one stream.
    pub fn stats(&self, source: LogSource) -> SourceStats {
        let lines = self.lines(source);
        SourceStats {
            lines: lines.len() as u64,
            bytes: lines.iter().map(|l| l.len() as u64 + 1).sum(),
        }
    }

    /// Total lines across all streams.
    pub fn total_lines(&self) -> u64 {
        LogSource::ALL.iter().map(|s| self.stats(*s).lines).sum()
    }

    /// Total bytes across all streams.
    pub fn total_bytes(&self) -> u64 {
        LogSource::ALL.iter().map(|s| self.stats(*s).bytes).sum()
    }

    /// Re-parses one stream back into structured events. Returns the events
    /// and the count of unrecognised lines.
    pub fn parse_source(&self, source: LogSource) -> (Vec<LogEvent>, u64) {
        LogParser::parse_stream(source, self.lines(source).iter().map(|s| s.as_str()))
    }

    /// Re-parses all four streams and k-way merges them into one
    /// chronological sequence — the pipeline's "holistic view".
    pub fn parse_merged(&self) -> ParsedArchive {
        let mut per_source = Vec::with_capacity(4);
        let mut skipped = 0;
        for source in LogSource::ALL {
            let (events, sk) = self.parse_source(source);
            skipped += sk;
            per_source.push(events);
        }
        let merged = merge_by_time(per_source);
        ParsedArchive {
            events: merged,
            skipped_lines: skipped,
        }
    }
}

/// Result of re-parsing a whole archive.
#[derive(Debug, Clone)]
pub struct ParsedArchive {
    /// All events, chronologically merged across sources. Ties preserve
    /// source order (console < controller < erd < scheduler).
    pub events: Vec<LogEvent>,
    /// Lines no parser recognised.
    pub skipped_lines: u64,
}

/// Stable k-way merge of time-sorted runs into one chronological sequence.
///
/// At equal timestamps events of an earlier run come first and order within
/// a run is preserved, i.e. the result is what concatenating the runs and
/// stable-sorting by time would give. Callers hand runs over in `(source,
/// file order)` order, which makes that tie order `(time, source, seq)`.
///
/// This is [`merge_before`] with no bound; `VecDeque::from(Vec)` takes the
/// run's buffer as it is, so nothing is copied on the way in. Counts
/// `core.ingest.runs` (non-empty runs) and `core.ingest.merge.moves`.
pub fn merge_by_time(runs: Vec<Vec<LogEvent>>) -> Vec<LogEvent> {
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut runs: Vec<VecDeque<LogEvent>> = runs.into_iter().map(VecDeque::from).collect();
    let non_empty = runs.iter().filter(|run| !run.is_empty()).count();
    hpc_telemetry::counter("core.ingest.runs").add(non_empty as u64);
    let moves = merge_before(&mut runs, SimTime::from_millis(u64::MAX), &mut out);
    hpc_telemetry::counter("core.ingest.merge.moves").add(moves);
    out
}

/// The bounded run merge: moves every event earlier than `bound` out of
/// `runs` (each time-sorted) into `out`, in [`merge_by_time`]'s order, and
/// leaves the rest of each run in place for a later call. Merging up to `b`
/// and then on to any later bound gives what one merge to the later bound
/// gives. Returns the number of bulk moves.
///
/// The smallest head is popped off a heap of `(head time, run)`; a galloping
/// search (doubling step, then binary search) finds the first event of that
/// run that no longer precedes the next-smallest head, and the whole stretch
/// moves at once, so the heap is touched once per switch between runs
/// instead of once per event. A run's buffer is freed as soon as it is empty.
pub fn merge_before(
    runs: &mut [VecDeque<LogEvent>],
    bound: SimTime,
    out: &mut Vec<LogEvent>,
) -> u64 {
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = (runs.iter().enumerate())
        .filter_map(|(ri, run)| Some(Reverse((run.front()?.time, ri))))
        .filter(|&Reverse((t, _))| t < bound)
        .collect();
    let mut moves = 0;
    while let Some(Reverse((_, ri))) = heap.pop() {
        let run = &mut runs[ri];
        // Every head on the heap is below `bound`, so only the last run
        // standing needs the bound itself.
        let stretch = match heap.peek() {
            // Ties go to the earlier run: up to and including the other
            // head's time if this run comes first, strictly below it if not.
            Some(&Reverse((t, other))) if ri < other => gallop(run, |e| e.time <= t),
            Some(&Reverse((t, _))) => gallop(run, |e| e.time < t),
            None => gallop(run, |e| e.time < bound),
        };
        // `pop_front` moves beat `drain(..stretch)`: most stretches are short.
        out.extend((0..stretch).map_while(|_| run.pop_front()));
        moves += 1;
        match run.front() {
            Some(next) if next.time < bound => heap.push(Reverse((next.time, ri))),
            Some(_) => {}
            None => *run = VecDeque::new(),
        }
    }
    moves
}

/// Length of the leading stretch of `run` (time-sorted) that `precedes`
/// holds for, given that it holds for `run[0]`: O(log stretch), not
/// O(log run), so short stretches stay cheap.
fn gallop(run: &VecDeque<LogEvent>, precedes: impl Fn(&LogEvent) -> bool) -> usize {
    let (mut last, mut step) = (0, 1);
    while last + step < run.len() && precedes(&run[last + step]) {
        last += step;
        step *= 2;
    }
    let (mut lo, mut hi) = (last + 1, (last + step).min(run.len()));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if precedes(&run[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ConsoleDetail, Payload, SchedulerDetail};
    use crate::event::{JobEndReason, JobId};
    use hpc_platform::NodeId;

    fn console_event(ms: u64, node: u32) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(node),
                detail: ConsoleDetail::DiskError,
            },
        }
    }

    fn sched_event(ms: u64, job: u64) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Scheduler {
                detail: SchedulerDetail::JobEnd {
                    job: JobId(job),
                    exit_code: 0,
                    reason: JobEndReason::Completed,
                },
            },
        }
    }

    #[test]
    fn append_and_read_back() {
        let mut a = LogArchive::new(SchedulerKind::Slurm);
        a.append_event(&console_event(0, 1));
        a.append_event(&console_event(5, 2));
        a.append_event(&sched_event(3, 9));
        assert_eq!(a.stats(LogSource::Console).lines, 2);
        assert_eq!(a.stats(LogSource::Scheduler).lines, 1);
        assert_eq!(a.total_lines(), 3);
        assert!(a.total_bytes() > 0);
    }

    #[test]
    fn parse_merged_interleaves_sources_chronologically() {
        let mut a = LogArchive::new(SchedulerKind::Slurm);
        a.append_event(&console_event(10, 1));
        a.append_event(&console_event(30, 1));
        a.append_event(&sched_event(20, 5));
        let parsed = a.parse_merged();
        assert_eq!(parsed.skipped_lines, 0);
        let times: Vec<u64> = parsed.events.iter().map(|e| e.time.as_millis()).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn merge_stable_at_equal_timestamps() {
        let a = vec![console_event(5, 1), console_event(5, 2)];
        let b = vec![sched_event(5, 1)];
        let merged = merge_by_time(vec![a.clone(), b.clone()]);
        assert_eq!(merged.len(), 3);
        // Source 0 events first at equal time, preserving internal order.
        assert_eq!(merged[0], a[0]);
        assert_eq!(merged[1], a[1]);
        assert_eq!(merged[2], b[0]);
    }

    #[test]
    fn merge_empty_and_singleton_sources() {
        assert!(merge_by_time(vec![]).is_empty());
        assert!(merge_by_time(vec![vec![], vec![]]).is_empty());
        let only = vec![console_event(1, 0)];
        assert_eq!(merge_by_time(vec![vec![], only.clone()]), only);
    }

    #[test]
    fn merge_large_random_interleave_is_sorted() {
        // Three sources with staggered times.
        let s1: Vec<_> = (0..100).map(|i| console_event(i * 3, 0)).collect();
        let s2: Vec<_> = (0..100).map(|i| console_event(i * 3 + 1, 1)).collect();
        let s3: Vec<_> = (0..100).map(|i| sched_event(i * 3 + 2, i)).collect();
        let merged = merge_by_time(vec![s1, s2, s3]);
        assert_eq!(merged.len(), 300);
        assert!(merged.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn raw_noise_lines_surface_as_skipped() {
        let mut a = LogArchive::new(SchedulerKind::Slurm);
        a.append_event(&console_event(0, 1));
        a.push_raw_line(LogSource::Console, "%%% corrupted line %%%".into());
        let parsed = a.parse_merged();
        assert_eq!(parsed.events.len(), 1);
        assert_eq!(parsed.skipped_lines, 1);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    #[cfg(debug_assertions)]
    fn out_of_order_append_panics_in_debug() {
        let mut a = LogArchive::new(SchedulerKind::Slurm);
        a.append_event(&console_event(10, 1));
        a.append_event(&console_event(5, 1));
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    #[cfg(debug_assertions)]
    fn raw_line_with_timestamp_advances_stream_clock() {
        // Load-then-append: a raw line (as load_archive pushes) must arm the
        // out-of-order guard, so appending before its timestamp panics.
        let mut a = LogArchive::new(SchedulerKind::Slurm);
        a.push_raw_line(
            LogSource::Console,
            "2016-01-01T00:00:10.000 c0-0c0s0n0 kernel: Disabling lock debugging".into(),
        );
        a.append_event(&console_event(5_000, 1));
    }

    #[test]
    fn stale_or_timestampless_raw_lines_do_not_rewind_clock() {
        let mut a = LogArchive::new(SchedulerKind::Slurm);
        a.append_event(&console_event(10_000, 1));
        // Corruption with an old timestamp, and timestampless garbage: both
        // tolerated, neither rewinds the stream clock.
        a.push_raw_line(
            LogSource::Console,
            "2016-01-01T00:00:01.000 c0-0c0s0n0 kernel: stale replayed line".into(),
        );
        a.push_raw_line(LogSource::Console, "%%% corrupted line %%%".into());
        a.append_event(&console_event(10_500, 1));
        assert_eq!(a.stats(LogSource::Console).lines, 4);
    }
}
