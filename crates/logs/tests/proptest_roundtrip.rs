//! Property tests: every constructible event round-trips through the text
//! renderer and parser, for both scheduler flavours — the invariant the
//! whole text-only pipeline rests on — and the scan-once parser gives every
//! line, rendered or mangled, the verdict of the frozen `find()`-based
//! parser in `oracle/`.

mod oracle;
mod strategies;

use proptest::prelude::*;

use hpc_logs::event::{ConsoleDetail, Payload};
use hpc_logs::parse::LogParser;
use hpc_logs::render::render;
use hpc_logs::time::SimTime;
use hpc_platform::system::SchedulerKind;
use strategies::any_event;

/// One way of mangling a rendered line, applied at a byte position.
#[derive(Debug, Clone)]
enum Mangle {
    /// Overwrite one byte (possibly breaking UTF-8; the line is lossily
    /// re-sanitised, as the file readers would).
    Flip(u8),
    /// Cut the line here (a torn write).
    Truncate,
    /// Insert a fragment that collides with the field grammar: stray and
    /// doubled keys, keys glued into values, signs `str::parse` accepts.
    Insert(&'static str),
    /// Repeat the rest of the line (every key now occurs twice).
    Repeat,
}

fn mangle() -> impl Strategy<Value = Mangle> {
    prop_oneof![
        any::<u8>().prop_map(Mangle::Flip),
        prop::sample::select(b"= +-cnsTZ:.0\xC3\xFF".to_vec()).prop_map(Mangle::Flip),
        Just(Mangle::Truncate),
        prop::sample::select(vec![
            " ch=9",
            "xch=7 ",
            "src=",
            " src=c0-0c0s1n0",
            "=",
            " = ",
            "+",
            "node=nid00007 ",
            "job=+5 ",
            " status=ok",
            "reading=1e3 ",
            "sensor=ch=2 ",
            " end ",
            " start",
            "\r",
            "\u{FFFD}",
            "é",
        ])
        .prop_map(Mangle::Insert),
        Just(Mangle::Repeat),
    ]
}

fn apply(line: &str, how: &Mangle, at: usize) -> String {
    let mut bytes = line.as_bytes().to_vec();
    let at = at % (bytes.len() + 1);
    match how {
        Mangle::Flip(b) => {
            if let Some(slot) = bytes.get_mut(at) {
                *slot = *b;
            }
        }
        Mangle::Truncate => bytes.truncate(at),
        Mangle::Insert(fragment) => {
            bytes.splice(at..at, fragment.bytes());
        }
        Mangle::Repeat => {
            let tail = bytes[at..].to_vec();
            bytes.extend(tail);
        }
    }
    // A newline would make it two lines; the readers never hand one over.
    bytes.retain(|&b| b != b'\n');
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn scan_once_parser_agrees_with_the_frozen_oracle(
        events in prop::collection::vec(any_event(), 1..12),
        slurm in any::<bool>(),
        mangles in prop::collection::vec((0usize..64, mangle(), 0usize..200), 0..12),
    ) {
        use hpc_logs::event::LogSource;
        let scheduler = if slurm { SchedulerKind::Slurm } else { SchedulerKind::Torque };
        // (source, line), clean; then some lines mangled, some more than once.
        let mut lines: Vec<(LogSource, String)> = events
            .iter()
            .flat_map(|e| render(e, scheduler).into_iter().map(|l| (e.source(), l)))
            .collect();
        for (which, how, at) in &mangles {
            let slot = which % lines.len();
            lines[slot].1 = apply(&lines[slot].1, how, *at);
        }
        // Each stream through one parser of either kind, the console one
        // keeping its per-node state across lines; and every line through
        // every grammar, since a mangled line may land in any file.
        for source in LogSource::ALL {
            let own = lines.iter().filter(|(s, _)| *s == source).map(|(_, l)| l.as_str());
            let all = lines.iter().map(|(_, l)| l.as_str());
            for stream in [own.collect::<Vec<_>>(), all.collect()] {
                let mut parser = LogParser::new();
                let mut got = Vec::new();
                for line in &stream {
                    parser.parse_line(source, line, &mut got);
                }
                parser.finish(&mut got);
                got.sort_by_key(|e| e.time);
                let (want, parsed, skipped) =
                    oracle::LogParser::parse_stream(source, stream.iter().copied());
                prop_assert_eq!(&got, &want, "{:?} over {:#?}", source, stream);
                prop_assert_eq!(
                    (parser.parsed_lines, parser.skipped_lines),
                    (parsed, skipped),
                    "{:?} over {:#?}", source, stream
                );
                for line in &stream {
                    prop_assert_eq!(
                        hpc_logs::parse::split_timestamp(line),
                        oracle::split_timestamp(line),
                        "{:?}", line
                    );
                }
            }
        }
    }

    #[test]
    fn every_event_round_trips(event in any_event(), slurm in any::<bool>()) {
        let scheduler = if slurm { SchedulerKind::Slurm } else { SchedulerKind::Torque };
        let source = event.source();
        let lines = render(&event, scheduler);
        prop_assert!(!lines.is_empty());
        let mut parser = LogParser::new();
        let mut out = Vec::new();
        for line in &lines {
            prop_assert!(
                parser.parse_line(source, line, &mut out),
                "line not recognised: {line}"
            );
        }
        parser.finish(&mut out);
        prop_assert_eq!(out, vec![event]);
    }

    #[test]
    fn rendering_is_single_line_unless_traced(event in any_event()) {
        let lines = render(&event, SchedulerKind::Slurm);
        let multi = matches!(
            &event.payload,
            Payload::Console {
                detail: ConsoleDetail::KernelOops { .. } | ConsoleDetail::HungTaskTimeout { .. },
                ..
            }
        );
        if multi {
            prop_assert!(lines.len() >= 2, "trace events render a Call Trace section");
        } else {
            prop_assert_eq!(lines.len(), 1);
        }
        // Every rendered line starts with the canonical timestamp.
        for line in &lines {
            prop_assert!(SimTime::parse(&line[..23]).is_some(), "bad timestamp in {line}");
        }
    }

    #[test]
    fn parser_never_panics_on_corrupted_lines(
        line in "[ -~]{0,120}",
        source_idx in 0usize..4,
    ) {
        use hpc_logs::event::LogSource;
        let source = LogSource::ALL[source_idx];
        let mut parser = LogParser::new();
        let mut out = Vec::new();
        // Must not panic; may or may not parse.
        let _ = parser.parse_line(source, &line, &mut out);
    }

    #[test]
    fn truncated_real_lines_never_panic(event in any_event(), cut in 0usize..40) {
        let source = event.source();
        let lines = render(&event, SchedulerKind::Slurm);
        let mut parser = LogParser::new();
        let mut out = Vec::new();
        for line in &lines {
            let truncated = &line[..line.len().saturating_sub(cut).min(line.len())];
            let _ = parser.parse_line(source, truncated, &mut out);
        }
        parser.finish(&mut out);
    }
}
