//! Record-safe chunked parsing: split a stream into line-range chunks,
//! parse the chunks independently (and hence concurrently), then stitch the
//! results back into exactly the sequence a single [`LogParser`] would have
//! produced.
//!
//! The console stream is the obstacle: multi-line kernel-oops / hung-task
//! reports are held open per node until the next non-trace line from that
//! node, so a chunk boundary can fall *inside* a record — the opening line
//! in one chunk, its `Call Trace:` frames and the completing line in later
//! chunks. Re-scanning an overlap cannot fix this (a trace's frames may be
//! interleaved with arbitrarily many lines from other nodes), so instead a
//! chunk parses in a *speculative* mode that defers every decision that
//! depends on parser state it cannot see:
//!
//! * For each node, continuation lines (`Call Trace:` headers and
//!   well-formed stack frames) arriving **before the chunk has seen any
//!   non-continuation line from that node** are set aside as
//!   deferred items — whether they extend a straddling report or are
//!   orphans to be skipped is only decided at stitch time.
//! * The first non-continuation line from a node is recorded as a
//!   *resolution* (with its position in the chunk's event list): if a
//!   straddling report for that node exists, the stitcher completes it at
//!   exactly that position, mirroring the sequential parser's
//!   complete-before-interpret rule.
//! * Reports still open at chunk end are carried into the stitch state,
//!   exactly like the sequential parser's pending map.
//!
//! Everything else (malformed lines, frames with unknown symbols, the
//! stateless controller/ERD/scheduler grammars) is decided locally because
//! the sequential parser's verdict for those lines does not depend on its
//! state. [`stitch_runs`] then replays console chunks in order against a
//! carried pending map, so the emitted event sequence — including
//! skipped-line counts and the order of equal-timestamp events before the
//! console stream's stable time sort — is identical to a sequential parse.
//!
//! Time order is restored where the events already are: a stateless
//! source's chunk is checked (and, only if a reordered or skewed line broke
//! it, stable-sorted) by the worker that parsed it and handed on as a
//! sorted *run*; the runs are never concatenated, and [`merge_by_time`]
//! interleaves them — ties to the earlier run — into what one stable sort
//! of the whole stream would give. The equivalence is pinned by the
//! exhaustive split-point tests below and by
//! `crates/logs/tests/proptest_chunked.rs`.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use hpc_platform::NodeId;

use crate::archive::merge_by_time;
use crate::event::{LogEvent, LogSource, StackModule};
use crate::parse::{
    classify_console, complete_pending, console_other_line, drain_pending, ConsoleLine, LogParser,
    PendingTrace,
};

/// A continuation line whose parsed/skipped verdict depends on whether a
/// report straddles the chunk's leading boundary.
enum Deferred {
    /// A `Call Trace:` header (extends a report, contributes no frame).
    CallTrace,
    /// A well-formed stack frame naming a known module.
    Frame(StackModule),
}

/// The result of parsing one chunk of one stream in isolation.
///
/// Opaque: produced by [`parse_chunk`] on any thread, consumed in file
/// order by [`stitch_runs`].
pub struct ChunkParse {
    /// Events completed locally: in emission order for a console chunk,
    /// time-sorted for a stateless source's (see `is_run`).
    events: Vec<LogEvent>,
    /// A stateless source's chunk: `events` is a finished time-sorted run
    /// and the boundary fields below are empty.
    is_run: bool,
    /// `(node, position)` of each node's first non-continuation line, in
    /// line order; `position` indexes into `events` where a straddling
    /// report's completion must be spliced.
    resolutions: Vec<(NodeId, usize)>,
    /// Boundary-sensitive continuation lines per not-yet-resolved node.
    deferred: HashMap<NodeId, Vec<Deferred>>,
    /// Reports still open at chunk end (chunk-local ones only).
    pending: HashMap<NodeId, PendingTrace>,
    /// Lines definitely recognised (deferred lines are counted at stitch).
    parsed_lines: u64,
    /// Lines definitely unrecognised.
    skipped_lines: u64,
}

/// One stream reassembled from chunks as time-sorted runs, in file order.
pub struct ChunkedRuns {
    /// The stream's events: one run per chunk of a stateless source, one
    /// run for a whole console stream. [`merge_by_time`] over them (ties to
    /// the earlier run) is the stream as [`LogParser::parse_stream`] sorts it.
    pub runs: Vec<Vec<LogEvent>>,
    /// Lines successfully consumed (including trace continuation lines).
    pub parsed_lines: u64,
    /// Lines that matched no known format.
    pub skipped_lines: u64,
}

impl ChunkedRuns {
    /// Total text lines this stream was parsed from.
    pub fn total_lines(&self) -> u64 {
        self.parsed_lines + self.skipped_lines
    }
}

/// One stream reassembled from chunks.
#[derive(Debug, Clone)]
pub struct ChunkedStream {
    /// Parsed events, sorted by timestamp (stable, as [`LogParser::parse_stream`]).
    pub events: Vec<LogEvent>,
    /// Lines successfully consumed (including trace continuation lines).
    pub parsed_lines: u64,
    /// Lines that matched no known format.
    pub skipped_lines: u64,
}

/// Line ranges covering `0..total` in chunks of `chunk_lines` (the last one
/// may be shorter). `chunk_lines` is clamped to at least 1.
pub fn chunk_spans(total: usize, chunk_lines: usize) -> impl Iterator<Item = Range<usize>> {
    let size = chunk_lines.max(1);
    (0..total)
        .step_by(size)
        .map(move |start| start..(start + size).min(total))
}

/// Chunk size heuristic: a few chunks per pool thread for load balance, but
/// never so small that per-chunk bookkeeping dominates parse time.
pub fn chunk_lines_for(total_lines: usize, threads: usize) -> usize {
    const TASKS_PER_THREAD: usize = 4;
    const MIN_CHUNK_LINES: usize = 256;
    (total_lines / (threads.max(1) * TASKS_PER_THREAD)).max(MIN_CHUNK_LINES)
}

/// Parses one chunk of `source` in isolation. Thread-safe: chunks of the
/// same stream may be parsed concurrently in any order.
pub fn parse_chunk<'a, I>(source: LogSource, lines: I) -> ChunkParse
where
    I: IntoIterator<Item = &'a str>,
{
    match source {
        LogSource::Console => parse_console_chunk(lines),
        // The other grammars are stateless: every line's verdict is local.
        _ => parse_plain_chunk(source, lines),
    }
}

fn parse_plain_chunk<'a, I>(source: LogSource, lines: I) -> ChunkParse
where
    I: IntoIterator<Item = &'a str>,
{
    let lines = lines.into_iter();
    let mut parser = LogParser::new();
    // These grammars are one event per recognised line.
    let mut events = Vec::with_capacity(lines.size_hint().0);
    for line in lines {
        parser.parse_line(source, line, &mut events);
    }
    // Disorder is sorted where it is parsed: a clean chunk passes the check;
    // one a reordered or skewed line broke is sorted here, on the worker
    // that holds it in cache, not as part of the whole stream later.
    if !events.is_sorted_by_key(|e| e.time) {
        events.sort_by_key(|e| e.time);
        hpc_telemetry::counter("core.ingest.chunks_sorted").inc();
    }
    // Every chunk's events stay resident until the merge: give back the
    // slack that doubling growth left (up to half the vector).
    events.shrink_to_fit();
    ChunkParse {
        events,
        is_run: true,
        resolutions: Vec::new(),
        deferred: HashMap::new(),
        pending: HashMap::new(),
        parsed_lines: parser.parsed_lines,
        skipped_lines: parser.skipped_lines,
    }
}

fn parse_console_chunk<'a, I>(lines: I) -> ChunkParse
where
    I: IntoIterator<Item = &'a str>,
{
    let mut events: Vec<LogEvent> = Vec::new();
    let mut resolutions: Vec<(NodeId, usize)> = Vec::new();
    let mut deferred: HashMap<NodeId, Vec<Deferred>> = HashMap::new();
    let mut pending: HashMap<NodeId, PendingTrace> = HashMap::new();
    // Nodes whose parser state is chunk-locally known (first
    // non-continuation line seen).
    let mut resolved: HashSet<NodeId> = HashSet::new();
    let mut parsed = 0u64;
    let mut skipped = 0u64;
    for line in lines {
        match classify_console(line) {
            ConsoleLine::Unrecognised => skipped += 1,
            ConsoleLine::CallTrace(node) => {
                if resolved.contains(&node) {
                    if pending.contains_key(&node) {
                        parsed += 1;
                    } else {
                        skipped += 1;
                    }
                } else {
                    deferred.entry(node).or_default().push(Deferred::CallTrace);
                }
            }
            ConsoleLine::Frame(node, module) => {
                if resolved.contains(&node) {
                    match (pending.get_mut(&node), module) {
                        (Some(p), Some(module)) => {
                            p.modules.push(module);
                            parsed += 1;
                        }
                        // Orphan frame, or malformed/unknown symbol (which
                        // the sequential parser skips without closing the
                        // report).
                        _ => skipped += 1,
                    }
                } else {
                    match module {
                        Some(module) => {
                            deferred
                                .entry(node)
                                .or_default()
                                .push(Deferred::Frame(module));
                        }
                        // A bad frame is skipped whether or not a report
                        // straddles the boundary — decide locally.
                        None => skipped += 1,
                    }
                }
            }
            ConsoleLine::Other(node, time, rest) => {
                if resolved.insert(node) {
                    resolutions.push((node, events.len()));
                }
                if console_other_line(&mut pending, node, time, rest, &mut events) {
                    parsed += 1;
                } else {
                    skipped += 1;
                }
            }
        }
    }
    events.shrink_to_fit();
    ChunkParse {
        events,
        is_run: false,
        resolutions,
        deferred,
        pending,
        parsed_lines: parsed,
        skipped_lines: skipped,
    }
}

/// Reassembles chunk parses (in file order) into the sequential result.
///
/// [`stitch_runs`] followed by the run merge; ingest keeps the runs apart
/// until its one merge across all sources instead.
pub fn stitch<I>(chunks: I) -> ChunkedStream
where
    I: IntoIterator<Item = ChunkParse>,
{
    let stream = stitch_runs(chunks);
    ChunkedStream {
        events: merge_by_time(stream.runs),
        parsed_lines: stream.parsed_lines,
        skipped_lines: stream.skipped_lines,
    }
}

/// Reassembles chunk parses (in file order) into time-sorted runs.
///
/// A stateless source's chunks are already runs and pass through untouched.
/// Console chunks are replayed against the carried pending map — O(events +
/// straddling lines), single pass — and the spliced stream is stable-sorted
/// into one run.
pub fn stitch_runs<I>(chunks: I) -> ChunkedRuns
where
    I: IntoIterator<Item = ChunkParse>,
{
    let chunks: Vec<ChunkParse> = chunks.into_iter().collect();
    if chunks.iter().all(|c| c.is_run) {
        return ChunkedRuns {
            parsed_lines: chunks.iter().map(|c| c.parsed_lines).sum(),
            skipped_lines: chunks.iter().map(|c| c.skipped_lines).sum(),
            runs: chunks.into_iter().map(|c| c.events).collect(),
        };
    }
    // Reports open across the current chunk boundary — exactly the
    // sequential parser's pending map at the equivalent line.
    let mut state: HashMap<NodeId, PendingTrace> = HashMap::new();
    let mut out: Vec<LogEvent> = Vec::with_capacity(chunks.iter().map(|c| c.events.len()).sum());
    let mut parsed = 0u64;
    let mut skipped = 0u64;
    for chunk in chunks {
        parsed += chunk.parsed_lines;
        skipped += chunk.skipped_lines;
        // Deferred continuation lines: extend a straddling report, or turn
        // out to have been orphans. Cross-node order is irrelevant (they
        // only touch per-node state and the counters).
        for (node, items) in chunk.deferred {
            match state.get_mut(&node) {
                Some(p) => {
                    for item in items {
                        if let Deferred::Frame(module) = item {
                            p.modules.push(module);
                        }
                        parsed += 1;
                    }
                }
                None => skipped += items.len() as u64,
            }
        }
        // Splice straddling-report completions at each node's resolving
        // position, preserving the sequential emission order; the events
        // between two resolutions move in bulk.
        let mut events = chunk.events.into_iter();
        let mut moved = 0;
        for (node, pos) in chunk.resolutions {
            out.extend(events.by_ref().take(pos - moved));
            moved = pos;
            if let Some(p) = state.remove(&node) {
                out.push(complete_pending(node, p));
            }
        }
        out.extend(events);
        // Reports the chunk left open continue into the next chunk. A node
        // with a chunk-local pending was necessarily resolved above, so
        // this cannot clobber a carried report.
        for (node, p) in chunk.pending {
            let prev = state.insert(node, p);
            debug_assert!(
                prev.is_none(),
                "pending carried past a resolution for {node:?}"
            );
        }
    }
    drain_pending(&mut state, &mut out);
    out.sort_by_key(|e| e.time);
    ChunkedRuns {
        runs: vec![out],
        parsed_lines: parsed,
        skipped_lines: skipped,
    }
}

/// Parses a whole in-memory stream through the chunked path with a fixed
/// chunk size — the single-threaded reference the tests compare against
/// [`LogParser::parse_stream`]; production ingest runs [`parse_chunk`] on a
/// pool instead.
pub fn parse_stream_chunked<S: AsRef<str>>(
    source: LogSource,
    lines: &[S],
    chunk_lines: usize,
) -> ChunkedStream {
    stitch(
        chunk_spans(lines.len(), chunk_lines)
            .map(|span| parse_chunk(source, lines[span].iter().map(|s| s.as_ref()))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AppKind, ConsoleDetail, OopsCause, Payload, StackModule};
    use crate::render::render;
    use crate::time::SimTime;
    use hpc_platform::system::SchedulerKind;

    fn oops(ms: u64, node: u32, modules: Vec<StackModule>) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(node),
                detail: ConsoleDetail::KernelOops {
                    cause: OopsCause::NullDeref,
                    modules,
                },
            },
        }
    }

    fn hung(ms: u64, node: u32, modules: Vec<StackModule>) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(node),
                detail: ConsoleDetail::HungTaskTimeout {
                    task: AppKind::Genomics,
                    pid: 4321,
                    modules,
                },
            },
        }
    }

    fn single(ms: u64, node: u32) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(node),
                detail: ConsoleDetail::DiskError,
            },
        }
    }

    fn lines_of(events: &[LogEvent]) -> Vec<String> {
        events
            .iter()
            .flat_map(|e| render(e, SchedulerKind::Slurm))
            .collect()
    }

    fn sequential(lines: &[String]) -> (Vec<LogEvent>, u64, u64) {
        let mut p = LogParser::new();
        let mut out = Vec::new();
        for l in lines {
            p.parse_line(LogSource::Console, l, &mut out);
        }
        p.finish(&mut out);
        out.sort_by_key(|e| e.time);
        (out, p.parsed_lines, p.skipped_lines)
    }

    /// Chunked output must equal sequential for EVERY split point and chunk
    /// size, i.e. with record boundaries landing anywhere.
    fn assert_all_splits_agree(lines: &[String]) {
        let (seq_events, seq_parsed, seq_skipped) = sequential(lines);
        for chunk_lines in 1..=lines.len().max(1) {
            let got = parse_stream_chunked(LogSource::Console, lines, chunk_lines);
            assert_eq!(got.events, seq_events, "chunk_lines={chunk_lines}");
            assert_eq!(got.parsed_lines, seq_parsed, "chunk_lines={chunk_lines}");
            assert_eq!(got.skipped_lines, seq_skipped, "chunk_lines={chunk_lines}");
        }
    }

    #[test]
    fn trace_straddling_every_split_point() {
        let events = vec![
            single(500, 3),
            oops(1_000, 7, vec![StackModule::LdlmBl, StackModule::MceLog]),
            single(2_000, 3),
            single(3_000, 7), // completes the oops
            single(4_000, 7),
        ];
        assert_all_splits_agree(&lines_of(&events));
    }

    #[test]
    fn interleaved_traces_from_two_nodes_all_splits() {
        let a = oops(1_000, 0, vec![StackModule::LdlmBl]);
        let b = hung(
            1_001,
            1,
            vec![StackModule::IoSchedule, StackModule::RwsemDownFailed],
        );
        let la = render(&a, SchedulerKind::Slurm);
        let lb = render(&b, SchedulerKind::Slurm);
        // Interleave the two records line by line, then let both complete
        // only at finish (no closing line from either node).
        let mut lines = Vec::new();
        for i in 0..la.len().max(lb.len()) {
            if let Some(l) = la.get(i) {
                lines.push(l.clone());
            }
            if let Some(l) = lb.get(i) {
                lines.push(l.clone());
            }
        }
        assert_all_splits_agree(&lines);
    }

    #[test]
    fn orphan_frames_and_garbage_all_splits() {
        let mut lines = vec![
            // Orphan frame with no report open anywhere.
            "2016-01-01T00:00:00.100 c0-0c0s0n0 kernel:  [<ffffffff8100beef>] mce_log+0x1/0x2"
                .to_string(),
            "totally unparseable".to_string(),
            "2016-01-01T00:00:00.200 c0-0c0s0n0 kernel:  Call Trace:".to_string(),
        ];
        lines.extend(lines_of(&[
            oops(400, 0, vec![StackModule::MceLog]),
            single(500, 0),
        ]));
        // Malformed frame inside an open report (skipped, report survives).
        lines.insert(
            4,
            "2016-01-01T00:00:00.450 c0-0c0s0n0 kernel:  [<badhex] nonsense".to_string(),
        );
        assert_all_splits_agree(&lines);
    }

    #[test]
    fn equal_timestamp_pendings_drain_deterministically() {
        // Two reports from different nodes, same open timestamp, both left
        // open at end-of-stream: finish order must not depend on chunking.
        let a = oops(1_000, 9, vec![]);
        let b = oops(1_000, 2, vec![]);
        let mut lines = lines_of(&[a]);
        lines.extend(lines_of(&[b]));
        assert_all_splits_agree(&lines);
    }

    #[test]
    fn stateless_sources_chunk_trivially() {
        use crate::event::{JobEndReason, JobId, SchedulerDetail};
        let events: Vec<LogEvent> = (0..25u64)
            .map(|i| LogEvent {
                time: SimTime::from_millis(i * 100),
                payload: Payload::Scheduler {
                    detail: SchedulerDetail::JobEnd {
                        job: JobId(i),
                        exit_code: 0,
                        reason: JobEndReason::Completed,
                    },
                },
            })
            .collect();
        let lines: Vec<String> = events
            .iter()
            .flat_map(|e| render(e, SchedulerKind::Slurm))
            .collect();
        let (seq, skipped) =
            LogParser::parse_stream(LogSource::Scheduler, lines.iter().map(|s| s.as_str()));
        for chunk_lines in [1, 3, 7, 100] {
            let got = parse_stream_chunked(LogSource::Scheduler, &lines, chunk_lines);
            assert_eq!(got.events, seq);
            assert_eq!(got.skipped_lines, skipped);
        }
    }

    #[test]
    fn empty_stream_and_span_edges() {
        let empty: Vec<String> = Vec::new();
        let got = parse_stream_chunked(LogSource::Console, &empty, 8);
        assert!(got.events.is_empty());
        assert_eq!(got.parsed_lines + got.skipped_lines, 0);
        assert_eq!(chunk_spans(0, 4).count(), 0);
        let spans: Vec<_> = chunk_spans(10, 4).collect();
        assert_eq!(spans, vec![0..4, 4..8, 8..10]);
        // Degenerate chunk size clamps to 1.
        assert_eq!(chunk_spans(3, 0).count(), 3);
        assert!(chunk_lines_for(0, 8) >= 1);
    }
}
