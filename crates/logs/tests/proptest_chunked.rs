//! Property test: chunked ingest is line-for-line equivalent to the
//! sequential parser, no matter where chunk boundaries fall.
//!
//! Generates console streams built to stress the stateful multi-line
//! grammar — kernel-oops / hung-task reports from a handful of nodes with
//! their `Call Trace:` sections *interleaved* across nodes, plus orphan
//! continuation lines and garbage — then sweeps chunk sizes down to a
//! single line, so boundaries land inside reports, between a report's
//! opening line and its frames, and on orphan frames. Every sweep must
//! reproduce the sequential events, parsed-line and skipped-line counts
//! exactly (the invariant `hpc-diagnosis` relies on to run the same parse
//! on a work-stealing pool of any width).
//!
//! A second property covers the stateless grammars on the hostile path:
//! ERD and scheduler streams whose lines are locally reordered, skewed,
//! duplicated and salted with garbage. There a chunk is sorted by whoever
//! parsed it and the chunks meet again in the run merge, which must give
//! what one stable sort of the whole stream gives.

use proptest::prelude::*;

use hpc_logs::chunk::parse_stream_chunked;
use hpc_logs::event::{
    AppKind, ConsoleDetail, ControllerScope, ErdDetail, JobEndReason, JobId, LogEvent, LogSource,
    NodeState, OopsCause, Payload, SchedulerDetail, StackModule,
};
use hpc_logs::parse::LogParser;
use hpc_logs::render::render;
use hpc_logs::time::SimTime;
use hpc_platform::system::SchedulerKind;
use hpc_platform::NodeId;

fn stack_modules() -> impl Strategy<Value = Vec<StackModule>> {
    prop::collection::vec(prop::sample::select(StackModule::ALL.to_vec()), 0..6)
}

/// Console events biased towards the stateful multi-line records, emitted
/// by a small node pool so streams interleave heavily.
fn console_event() -> impl Strategy<Value = LogEvent> {
    let detail = prop_oneof![
        (
            prop::sample::select(vec![
                OopsCause::PagingRequest,
                OopsCause::NullDeref,
                OopsCause::GeneralProtection,
            ]),
            stack_modules()
        )
            .prop_map(|(cause, modules)| ConsoleDetail::KernelOops { cause, modules }),
        (
            prop::sample::select(AppKind::ALL.to_vec()),
            1u32..10_000,
            stack_modules()
        )
            .prop_map(|(task, pid, modules)| ConsoleDetail::HungTaskTimeout {
                task,
                pid,
                modules
            }),
        Just(ConsoleDetail::DiskError),
        (0u8..8, any::<bool>())
            .prop_map(|(dimm, correctable)| ConsoleDetail::MemoryError { dimm, correctable }),
    ];
    (0u64..60_000, 0u32..4, detail).prop_map(|(ms, node, detail)| LogEvent {
        time: SimTime::from_millis(ms),
        payload: Payload::Console {
            node: NodeId(node),
            detail,
        },
    })
}

/// Adversarial raw lines: orphan continuation lines (a `Call Trace:`
/// header and frames with no report open — or worse, aimed at a node that
/// *does* have one open), malformed frames, and plain noise.
fn noise_line() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "2016-01-01T00:00:05.000 c0-0c0s0n1 kernel:  Call Trace:".to_string(),
        "2016-01-01T00:00:05.000 c0-0c0s0n1 kernel:  [<ffffffff81234567>] mce_log+0x5/0x20"
            .to_string(),
        "2016-01-01T00:00:05.000 c0-0c0s0n2 kernel:  [<badhex] junk".to_string(),
        "%%% corrupted line %%%".to_string(),
        String::new(),
    ])
}

/// Round-robin-ish merge of per-record line queues driven by `picks`:
/// lines of one record stay in order, but records (and noise) from
/// different nodes interleave — exactly the stream shape that makes chunk
/// boundaries hard.
fn interleave(queues: Vec<Vec<String>>, picks: &[usize]) -> Vec<String> {
    let mut cursors = vec![0usize; queues.len()];
    let mut lines = Vec::new();
    for &p in picks {
        if queues.is_empty() {
            break;
        }
        // Pick the p-th (mod n) queue that still has lines.
        let live: Vec<usize> = (0..queues.len())
            .filter(|&q| cursors[q] < queues[q].len())
            .collect();
        let Some(&q) = live.get(p % live.len().max(1)) else {
            break;
        };
        lines.push(queues[q][cursors[q]].clone());
        cursors[q] += 1;
    }
    for (q, queue) in queues.iter().enumerate() {
        lines.extend(queue[cursors[q]..].iter().cloned());
    }
    lines
}

/// ERD and scheduler events: `(source, event)` with the event's time a
/// small number of milliseconds, so equal timestamps are common.
fn stateless_event() -> impl Strategy<Value = (LogSource, LogEvent)> {
    let erd = (0u32..8, 0u8..3).prop_map(|(node, kind)| {
        let node = NodeId(node);
        let detail = match kind {
            0 => ErdDetail::HeartbeatStop,
            1 => ErdDetail::L0Failed,
            _ => ErdDetail::NodeFailed { node },
        };
        let scope = ControllerScope::Blade(node.blade());
        (LogSource::Erd, Payload::Erd { scope, detail })
    });
    let scheduler = (0u32..8, 0u8..3).prop_map(|(node, kind)| {
        let detail = match kind {
            0 => SchedulerDetail::JobEnd {
                job: JobId(u64::from(node)),
                exit_code: 0,
                reason: JobEndReason::Completed,
            },
            1 => SchedulerDetail::NodeStateChange {
                node: NodeId(node),
                state: NodeState::Down,
            },
            _ => SchedulerDetail::NodeStateChange {
                node: NodeId(node),
                state: NodeState::Up,
            },
        };
        (LogSource::Scheduler, Payload::Scheduler { detail })
    });
    (0u64..400, prop_oneof![erd, scheduler]).prop_map(|(ms, (source, payload))| {
        let time = SimTime::from_millis(ms);
        (source, LogEvent { time, payload })
    })
}

/// What a failing machine does to a time-ordered stream, one `(kind, at,
/// by)` at a time: swap two nearby lines, repeat a line a little later,
/// tear a line in half, drop in garbage.
fn disorder(lines: &mut Vec<String>, ops: &[(u8, usize, usize)]) {
    for &(kind, at, by) in ops {
        let n = lines.len();
        match kind {
            0 if n >= 2 => lines.swap(at % n, (at + 1 + by % 4) % n),
            1 if n >= 1 => {
                let line = lines[at % n].clone();
                lines.insert((at % n + 1 + by % 6).min(n), line);
            }
            2 if n >= 1 => {
                let line = &lines[at % n];
                let torn = line[..by % line.len().max(1)].to_string();
                lines.insert(at % n, torn);
            }
            _ => lines.insert(at % (n + 1), "%%% corrupted line %%%".to_string()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn disordered_stateless_streams_chunk_like_the_sequential_parser(
        events in prop::collection::vec(stateless_event(), 0..48),
        skews in prop::collection::vec((0usize..48, 1u64..30_000), 0..4),
        ops in prop::collection::vec((0u8..4, 0usize..64, 0usize..64), 0..12),
    ) {
        for source in [LogSource::Erd, LogSource::Scheduler] {
            let mut stream: Vec<LogEvent> = events
                .iter()
                .filter(|(s, _)| *s == source)
                .map(|(_, e)| e.clone())
                .collect();
            stream.sort_by_key(|e| e.time);
            // A skewed clock: the line stays where it is, its stamp moves.
            for &(at, ms) in &skews {
                if let Some(e) = stream.get_mut(at) {
                    e.time = SimTime::from_millis(e.time.as_millis() + ms);
                }
            }
            let mut lines: Vec<String> = stream
                .iter()
                .flat_map(|e| render(e, SchedulerKind::Slurm))
                .collect();
            disorder(&mut lines, &ops);

            let (seq, skipped) =
                LogParser::parse_stream(source, lines.iter().map(String::as_str));
            let mut sizes = vec![1, 2, 3, 5, 8, 13, 64];
            sizes.push(lines.len().max(1));
            for chunk_lines in sizes {
                let got = parse_stream_chunked(source, &lines, chunk_lines);
                prop_assert_eq!(&got.events, &seq, "{:?} chunk_lines={}", source, chunk_lines);
                prop_assert_eq!(
                    (got.parsed_lines, got.skipped_lines),
                    (lines.len() as u64 - skipped, skipped),
                    "{:?} line counts at chunk_lines={}", source, chunk_lines
                );
            }
        }
    }

    #[test]
    fn chunked_parse_equals_sequential_at_every_chunk_size(
        events in prop::collection::vec(console_event(), 0..16),
        noise in prop::collection::vec(noise_line(), 0..6),
        picks in prop::collection::vec(0usize..16, 0..160),
    ) {
        let mut queues: Vec<Vec<String>> = events
            .iter()
            .map(|e| render(e, SchedulerKind::Slurm))
            .collect();
        queues.extend(noise.into_iter().map(|l| vec![l]));
        let lines = interleave(queues, &picks);

        let mut parser = LogParser::new();
        let mut seq = Vec::new();
        for line in &lines {
            parser.parse_line(LogSource::Console, line, &mut seq);
        }
        parser.finish(&mut seq);
        seq.sort_by_key(|e| e.time);

        // Sweep chunk sizes down to one line per chunk: boundaries land
        // inside Call Trace sections, right after report openers, and on
        // orphan continuation lines.
        let mut sizes = vec![1, 2, 3, 5, 8, 13, 64];
        sizes.push(lines.len().max(1));
        for chunk_lines in sizes {
            let got = parse_stream_chunked(LogSource::Console, &lines, chunk_lines);
            prop_assert_eq!(&got.events, &seq, "chunk_lines={}", chunk_lines);
            prop_assert_eq!(
                got.parsed_lines, parser.parsed_lines,
                "parsed_lines at chunk_lines={}", chunk_lines
            );
            prop_assert_eq!(
                got.skipped_lines, parser.skipped_lines,
                "skipped_lines at chunk_lines={}", chunk_lines
            );
        }
    }
}
