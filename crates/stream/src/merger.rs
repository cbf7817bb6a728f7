//! Incremental multi-source merger with watermark semantics.
//!
//! Live monitoring receives the four log streams as they are written:
//! roughly time-ordered within a source, arbitrarily skewed across
//! sources. The batch pipeline gets away with "parse everything, sort,
//! k-way merge"; a monitor cannot wait for the end of the stream. The
//! [`StreamMerger`] instead keeps one time-sorted queue of parsed events
//! per source and *releases* them — in the exact order the batch merge
//! would produce — once no source can still deliver an earlier event. The
//! release is the batch run merge itself, in its bounded form
//! ([`merge_before`]) stopped at the release point.
//!
//! The release point at any instant is the minimum of:
//!
//! 1. **frontier floor** — the least per-source clock among unfinished
//!    sources: a source's future lines carry timestamps at or past its
//!    clock, so anything earlier is settled — *unless a source stalls*,
//!    which is what the watermark bounds;
//! 2. **watermark bound** — `max_seen − watermark`: a stalled or silent
//!    source only holds the stream back by the configured watermark;
//!    events from further behind are counted late and dropped;
//! 3. **pending floor** — the earliest open multi-line console report: an
//!    oops completes only when its node's next non-trace line arrives, yet
//!    carries the *header* timestamp, so the merger must not release past
//!    an open report (this is what makes replay equivalence exact).
//!
//! Release order is `(time, source, arrival-within-source)` — precisely the
//! batch order of `parse_stream` (stable per-source time sort) followed by
//! `merge_by_time` (source-index tie-break). A source's queue keeps it by
//! appending an event no older than its back and inserting an older one
//! after every queued event of equal or earlier time.

use std::collections::VecDeque;

use hpc_logs::archive::merge_before;
use hpc_logs::event::{LogEvent, LogSource};
use hpc_logs::parse::{split_timestamp, LogParser};
use hpc_logs::time::{SimDuration, SimTime};

/// Counters the merger maintains (all cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergerStats {
    /// Lines fed in.
    pub lines: u64,
    /// Events released in order.
    pub released: u64,
    /// Events dropped because they arrived behind the release point.
    pub late_events: u64,
    /// Lines no parser recognised.
    pub skipped_lines: u64,
}

/// The incremental merge: four stateful parsers, one ordered output.
pub struct StreamMerger {
    parsers: [LogParser; 4],
    /// Per source, the parsed events awaiting release: time-sorted, equal
    /// times in arrival order.
    queues: [VecDeque<LogEvent>; 4],
    /// Per-source clock: greatest line timestamp seen.
    frontier: [Option<SimTime>; 4],
    finished: [bool; 4],
    watermark: SimDuration,
    /// Exclusive upper bound of everything released so far.
    released_through: SimTime,
    stats: MergerStats,
    scratch: Vec<LogEvent>,
}

impl StreamMerger {
    /// New merger admitting out-of-order lines within `watermark`.
    pub fn new(watermark: SimDuration) -> StreamMerger {
        StreamMerger {
            parsers: Default::default(),
            queues: Default::default(),
            frontier: [None; 4],
            finished: [false; 4],
            watermark,
            released_through: SimTime::EPOCH,
            stats: MergerStats::default(),
            scratch: Vec::new(),
        }
    }

    /// Feeds one raw line from `source`. Returns `true` if the line was
    /// recognised (trace continuation lines count).
    pub fn push_line(&mut self, source: LogSource, line: &str) -> bool {
        let si = source as usize; // declaration order is `LogSource::ALL`'s
        debug_assert!(!self.finished[si], "line after finish_source");
        self.stats.lines += 1;
        if let Some((t, _)) = split_timestamp(line) {
            if self.frontier[si].is_none_or(|f| f < t) {
                self.frontier[si] = Some(t);
            }
        }
        self.scratch.clear();
        let ok = self.parsers[si].parse_line(source, line, &mut self.scratch);
        if !ok {
            self.stats.skipped_lines += 1;
        }
        self.enqueue_scratch(si);
        ok
    }

    fn enqueue_scratch(&mut self, si: usize) {
        let queue = &mut self.queues[si];
        for event in self.scratch.drain(..) {
            if event.time < self.released_through {
                self.stats.late_events += 1;
                continue;
            }
            match queue.back() {
                Some(back) if back.time > event.time => {
                    let at = queue.partition_point(|e| e.time <= event.time);
                    queue.insert(at, event);
                }
                _ => queue.push_back(event),
            }
        }
    }

    /// Marks one source as ended: its open multi-line reports flush and it
    /// no longer holds the frontier floor back.
    pub fn finish_source(&mut self, source: LogSource) {
        let si = source as usize;
        if self.finished[si] {
            return;
        }
        self.finished[si] = true;
        self.scratch.clear();
        self.parsers[si].finish(&mut self.scratch);
        self.enqueue_scratch(si);
    }

    /// Marks every source as ended. A subsequent [`StreamMerger::poll`]
    /// drains all buffered events.
    pub fn finish(&mut self) {
        for source in LogSource::ALL {
            self.finish_source(source);
        }
    }

    /// The exclusive release bound: events strictly before it can no longer
    /// be preceded by anything still unseen.
    fn release_point(&self) -> SimTime {
        let mut max_seen = SimTime::EPOCH;
        let mut frontier_floor: Option<SimTime> = None;
        for si in 0..4 {
            if let Some(f) = self.frontier[si] {
                max_seen = max_seen.max(f);
            }
            if !self.finished[si] {
                let f = self.frontier[si].unwrap_or(SimTime::EPOCH);
                frontier_floor = Some(frontier_floor.map_or(f, |x| x.min(f)));
            }
        }
        let mut rp = match frontier_floor {
            // A lagging source holds the stream back by at most the
            // watermark; beyond that its stragglers count as late.
            Some(floor) => floor.max(max_seen.saturating_sub(self.watermark)),
            // Every source finished: release everything.
            None => SimTime::from_millis(u64::MAX),
        };
        // Open multi-line reports complete late with their *header* time;
        // never release past one.
        for p in &self.parsers {
            if let Some(t) = p.earliest_pending_time() {
                rp = rp.min(t);
            }
        }
        rp.max(self.released_through)
    }

    /// Releases every settled event, in batch-merge order, into `out`.
    /// Returns how many were appended.
    pub fn poll(&mut self, out: &mut Vec<LogEvent>) -> usize {
        let rp = self.release_point();
        self.released_through = rp;
        let before = out.len();
        merge_before(&mut self.queues, rp, out);
        let n = out.len() - before;
        self.stats.released += n as u64;
        n
    }

    /// Cumulative line/event counters.
    pub fn stats(&self) -> MergerStats {
        self.stats
    }

    /// Events buffered awaiting release.
    pub fn buffered(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Open multi-line console reports across all parsers.
    pub fn pending_reports(&self) -> usize {
        self.parsers.iter().map(|p| p.pending_reports()).sum()
    }

    /// How far the newest observed line runs ahead of the release point —
    /// the `stream.watermark_lag` gauge.
    pub fn watermark_lag(&self) -> SimDuration {
        let max_seen = self
            .frontier
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(SimTime::EPOCH);
        max_seen.since(self.released_through)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_logs::event::{ConsoleDetail, Payload, SchedulerDetail};
    use hpc_logs::event::{NodeState, OopsCause, StackModule};
    use hpc_logs::render::render;
    use hpc_platform::system::SchedulerKind;
    use hpc_platform::NodeId;

    fn console_ev(ms: u64, node: u32) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(node),
                detail: ConsoleDetail::DiskError,
            },
        }
    }

    fn sched_ev(ms: u64, node: u32) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Scheduler {
                detail: SchedulerDetail::NodeStateChange {
                    node: NodeId(node),
                    state: NodeState::Down,
                },
            },
        }
    }

    fn push(m: &mut StreamMerger, e: &LogEvent) {
        for line in render(e, SchedulerKind::Slurm) {
            m.push_line(e.source(), &line);
        }
    }

    #[test]
    fn holds_events_until_all_frontiers_pass() {
        let mut m = StreamMerger::new(SimDuration::from_mins(10));
        let mut out = Vec::new();
        push(&mut m, &console_ev(1_000, 1));
        push(&mut m, &console_ev(5_000, 2));
        // Scheduler/controller/erd frontiers still at epoch: nothing settles.
        assert_eq!(m.poll(&mut out), 0);
        assert_eq!(m.buffered(), 2);
        // The scheduler catches up past 5s; the console events settle. The
        // other two sources hold the floor only up to the watermark, which
        // has not elapsed yet — so the frontier floor is still epoch...
        push(&mut m, &sched_ev(6_000, 3));
        assert_eq!(m.poll(&mut out), 0);
        // ...until the silent sources are declared finished. The release
        // bound is exclusive: the 5s console event stays buffered because
        // the console itself could still log more at exactly 5s.
        m.finish_source(LogSource::Controller);
        m.finish_source(LogSource::Erd);
        assert_eq!(m.poll(&mut out), 1);
        assert_eq!(out, vec![console_ev(1_000, 1)]);
        // The console moves past 6s: the 5s console event settles (the
        // scheduler, still at 6s, is the new floor).
        push(&mut m, &console_ev(7_000, 1));
        assert_eq!(m.poll(&mut out), 1);
        assert_eq!(out.last(), Some(&console_ev(5_000, 2)));
        // The scheduler moves past 7s: its 6s event settles.
        push(&mut m, &sched_ev(8_000, 3));
        assert_eq!(m.poll(&mut out), 1);
        assert_eq!(out.last(), Some(&sched_ev(6_000, 3)));
        // End of stream: everything left drains in order.
        m.finish();
        assert_eq!(m.poll(&mut out), 2);
        assert_eq!(out.pop(), Some(sched_ev(8_000, 3)));
        assert_eq!(out.pop(), Some(console_ev(7_000, 1)));
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    fn watermark_bounds_a_stalled_source() {
        let wm = SimDuration::from_mins(10);
        let mut m = StreamMerger::new(wm);
        let mut out = Vec::new();
        push(&mut m, &console_ev(0, 1));
        // The console runs far ahead; silent sources hold the floor only
        // until max_seen - watermark passes the event.
        let far = wm.as_millis() + 60_000;
        push(&mut m, &console_ev(far, 1));
        m.poll(&mut out);
        assert_eq!(out, vec![console_ev(0, 1)]);
        assert_eq!(m.watermark_lag(), wm);
        // A scheduler event from behind the release point is late.
        push(&mut m, &sched_ev(30_000, 2));
        assert_eq!(m.stats().late_events, 1);
        m.finish();
        m.poll(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(m.stats().released, 2);
    }

    #[test]
    fn open_trace_holds_the_release_point() {
        let mut m = StreamMerger::new(SimDuration::from_mins(10));
        let mut out = Vec::new();
        let oops = LogEvent {
            time: SimTime::from_millis(1_000),
            payload: Payload::Console {
                node: NodeId(0),
                detail: ConsoleDetail::KernelOops {
                    cause: OopsCause::NullDeref,
                    modules: vec![StackModule::MceLog],
                },
            },
        };
        let lines = render(&oops, SchedulerKind::Slurm);
        assert!(lines.len() > 1);
        for line in &lines {
            m.push_line(LogSource::Console, line);
        }
        // Other sources are past it, but the report is still open (a later
        // frame could still extend it), so nothing releases.
        for s in [LogSource::Controller, LogSource::Erd] {
            m.finish_source(s);
        }
        push(&mut m, &sched_ev(600_000, 2));
        assert_eq!(m.poll(&mut out), 0);
        assert_eq!(m.pending_reports(), 1);
        // The next console line from that node completes the report. The
        // scheduler (frontier 600s) is now the floor, so the oops releases
        // but the 600s scheduler event stays buffered (exclusive bound).
        push(&mut m, &console_ev(700_000, 0));
        assert_eq!(m.poll(&mut out), 1);
        assert_eq!(m.pending_reports(), 0);
        assert_eq!(out[0], oops);
        m.finish();
        m.poll(&mut out);
        assert_eq!(out[1], sched_ev(600_000, 2));
        assert_eq!(out[2], console_ev(700_000, 0));
    }

    #[test]
    fn replay_reproduces_batch_merge_order_exactly() {
        // Equal timestamps across sources and within a source: release
        // order must equal parse_stream + merge_by_time.
        let events = vec![
            console_ev(1_000, 1),
            console_ev(1_000, 2),
            sched_ev(1_000, 3),
            console_ev(2_000, 1),
            sched_ev(2_000, 2),
        ];
        let mut archive = hpc_logs::LogArchive::new(SchedulerKind::Slurm);
        for e in &events {
            archive.append_event(e);
        }
        let batch = archive.parse_merged().events;

        let mut m = StreamMerger::new(SimDuration::from_mins(10));
        for e in &events {
            push(&mut m, e);
        }
        m.finish();
        let mut streamed = Vec::new();
        m.poll(&mut streamed);
        assert_eq!(streamed, batch);
        assert_eq!(m.stats().late_events, 0);
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    fn out_of_order_source_releases_in_the_batch_sort_order() {
        // Console out of order — equal times, local swaps, a duplicate (node
        // 2 at 1s again) — and the scheduler in order on the same seconds.
        // Node ids tell every event apart, so a misplaced tie shows.
        let secs = [3, 1, 1, 2, 5, 4, 4, 2, 1];
        let nodes = [1, 2, 3, 4, 5, 6, 7, 8, 2];
        let console = secs
            .iter()
            .zip(nodes)
            .map(|(s, n)| console_ev(s * 1_000, n));
        let sched = [(1, 9), (2, 10), (4, 11)].map(|(s, n)| sched_ev(s * 1_000, n));
        let rendered = |events: Vec<LogEvent>| -> Vec<String> {
            let render = |e: &LogEvent| render(e, SchedulerKind::Slurm);
            events.iter().flat_map(render).collect()
        };
        let inputs = [
            (LogSource::Console, rendered(console.collect())),
            (LogSource::Scheduler, rendered(sched.to_vec())),
        ];
        let parse = |(source, lines): &(LogSource, Vec<String>)| {
            LogParser::parse_stream(*source, lines.iter().map(String::as_str)).0
        };
        let batch = hpc_logs::archive::merge_by_time(inputs.iter().map(parse).collect());

        let mut m = StreamMerger::new(SimDuration::from_mins(10));
        let mut streamed = Vec::new();
        for (source, lines) in &inputs {
            for line in lines {
                m.push_line(*source, line);
            }
            // Nothing settles while two sources are silent.
            assert_eq!(m.poll(&mut streamed), 0);
        }
        m.finish();
        m.poll(&mut streamed);
        assert_eq!(streamed, batch);
        assert_eq!(m.stats().late_events, 0);
        assert_eq!(m.buffered(), 0);
    }
}
