//! Fuzz harness for the degradation contract (DESIGN.md §10): arbitrary
//! byte mutations of a valid rendered archive must never panic the
//! ingest→diagnose path, and the loss accounting must stay inside the
//! documented bound — each mutated byte may cost at most one
//! `RECORD_SLACK`-line record, and a loss bigger than what silent
//! line-merges could explain must leave a `skipped_lines` trace.
//!
//! Four properties:
//! 1. batch: mutated on-disk archive → `Diagnosis::from_dir` — no panic,
//!    bounded loss/gain, no silent undercounting;
//! 2. stream: the same mutated bytes fed line-by-line to `StreamEngine`
//!    — no panic;
//! 3. chaos layer: `ChaosFeed` with arbitrary per-line probabilities
//!    keeps its ledger balanced, and the all-zero spec is byte-identical;
//! 4. parser: `ChaosFeed`-corrupted and byte-mutated lines get the same
//!    verdict from the scan-once parser as from the frozen `find()`-based
//!    one (`crates/logs/tests/oracle`).

#[path = "../crates/logs/tests/oracle/mod.rs"]
mod oracle;

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use hpc_node_failures::diagnosis::{Diagnosis, DiagnosisConfig};
use hpc_node_failures::faultsim::chaos::{ChaosFeed, ChaosSpec, RECORD_SLACK};
use hpc_node_failures::faultsim::Scenario;
use hpc_node_failures::logs::event::LogSource;
use hpc_node_failures::logs::{LogArchive, LogParser};
use hpc_node_failures::platform::SystemId;
use hpc_node_failures::stream::{StreamConfig, StreamEngine};

struct Fixture {
    archive: LogArchive,
    /// Per-source rendered bytes of the clean feed.
    bytes: [Vec<u8>; 4],
    clean_events: u64,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        // One cabinet, one day: big enough to hold real multi-line records
        // and failures, small enough to diagnose hundreds of times.
        let out = Scenario::new(SystemId::S1, 1, 1, 7).run();
        let clean = ChaosFeed::corrupt(&out.archive, &ChaosSpec::clean(0));
        let bytes = [
            clean.source_bytes(LogSource::ALL[0]),
            clean.source_bytes(LogSource::ALL[1]),
            clean.source_bytes(LogSource::ALL[2]),
            clean.source_bytes(LogSource::ALL[3]),
        ];
        let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
        let clean_events = d.events().len() as u64;
        Fixture {
            archive: out.archive,
            bytes,
            clean_events,
        }
    })
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hpc-chaos-fuzz-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Applies `(source, position, byte)` overwrites to a copy of the clean
/// feed's bytes. Positions wrap modulo each stream's length.
fn mutate(bytes: &[Vec<u8>; 4], mutations: &[(u8, u32, u8)]) -> ([Vec<u8>; 4], usize) {
    let mut out = bytes.clone();
    let mut applied = 0;
    for &(source, pos, byte) in mutations {
        let stream = &mut out[source as usize % 4];
        if stream.is_empty() {
            continue;
        }
        let i = pos as usize % stream.len();
        if stream[i] != byte {
            applied += 1;
        }
        stream[i] = byte;
    }
    (out, applied)
}

fn write_streams(dir: &Path, fx: &Fixture, streams: &[Vec<u8>; 4]) {
    for (si, source) in LogSource::ALL.into_iter().enumerate() {
        let path = dir.join(hpc_node_failures::logs::fs::source_path(
            source,
            fx.archive.scheduler(),
        ));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &streams[si]).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batch path: ingest→diagnose over a byte-mutated archive never
    /// panics, and the event count moves by at most RECORD_SLACK per
    /// mutated byte in either direction. A loss larger than what silent
    /// newline-overwrite merges could explain (one event per mutation)
    /// must be visible in `skipped_lines` — accounting never undercounts.
    #[test]
    fn mutated_archive_never_panics_ingest(
        mutations in prop::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u8>()), 1..24),
    ) {
        let fx = fixture();
        let (streams, applied) = mutate(&fx.bytes, &mutations);
        let dir = tmpdir("batch");
        write_streams(&dir, fx, &streams);
        let d = Diagnosis::from_dir(&dir, DiagnosisConfig::default())
            .expect("mutated bytes must degrade, not error");
        let _ = std::fs::remove_dir_all(&dir);
        let events = d.events().len() as u64;
        let budget = applied as u64 * RECORD_SLACK;
        let lost = fx.clean_events.saturating_sub(events);
        let gained = events.saturating_sub(fx.clean_events);
        prop_assert!(lost <= budget, "lost {lost} > budget {budget}");
        prop_assert!(gained <= budget, "gained {gained} > budget {budget}");
        if lost > applied as u64 {
            prop_assert!(
                d.skipped_lines > 0,
                "{lost} events lost with zero skipped lines: silent undercount"
            );
        }
    }

    /// Stream path: the same mutated bytes, split on newlines and fed
    /// line-by-line (lossily decoded, like the tailer does), never panic
    /// the online engine.
    #[test]
    fn mutated_lines_never_panic_stream(
        mutations in prop::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u8>()), 1..24),
    ) {
        let fx = fixture();
        let (streams, _) = mutate(&fx.bytes, &mutations);
        let mut engine = StreamEngine::new(StreamConfig::default());
        for (si, source) in LogSource::ALL.into_iter().enumerate() {
            for line in streams[si].split(|&b| b == b'\n') {
                if !line.is_empty() {
                    engine.push_line(source, &String::from_utf8_lossy(line));
                }
            }
        }
        engine.finish();
        prop_assert!(engine.stats().lines > 0);
    }

    /// Parser: whatever the chaos layer and stray byte overwrites do to
    /// the feed, every stream parses to the frozen oracle's events and
    /// parsed/skipped line counts.
    #[test]
    fn corrupted_lines_parse_like_the_frozen_oracle(
        torn in 0.0f64..0.1,
        garbage in 0.0f64..0.1,
        skew in 0.0f64..0.1,
        seed in any::<u64>(),
        mutations in prop::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u8>()), 0..64),
    ) {
        let fx = fixture();
        let spec = ChaosSpec { seed, torn, garbage, skew, ..ChaosSpec::clean(seed) };
        let feed = ChaosFeed::corrupt(&fx.archive, &spec);
        let bytes = LogSource::ALL.map(|source| feed.source_bytes(source));
        let (streams, _) = mutate(&bytes, &mutations);
        for (si, source) in LogSource::ALL.into_iter().enumerate() {
            let lines: Vec<String> = streams[si]
                .split(|&b| b == b'\n')
                .map(|line| String::from_utf8_lossy(line).into_owned())
                .collect();
            let mut parser = LogParser::new();
            let mut got = Vec::new();
            for line in &lines {
                parser.parse_line(source, line, &mut got);
            }
            parser.finish(&mut got);
            got.sort_by_key(|e| e.time);
            let (want, parsed, skipped) =
                oracle::LogParser::parse_stream(source, lines.iter().map(String::as_str));
            prop_assert_eq!(got.len(), want.len(), "{:?}", source);
            prop_assert!(got == want, "{:?}: events differ", source);
            prop_assert_eq!((parser.parsed_lines, parser.skipped_lines), (parsed, skipped));
        }
    }

    /// Chaos layer: an arbitrary spec keeps the ledger balanced
    /// (lines_out == lines_in − dropped + garbage + duplicated) and
    /// deterministic; the all-zero spec is byte-identical.
    #[test]
    fn chaos_ledger_balances_for_arbitrary_specs(
        torn in 0.0f64..0.05,
        garbage in 0.0f64..0.05,
        duplicate in 0.0f64..0.05,
        reorder in 0.0f64..0.05,
        skew in 0.0f64..0.05,
        dropout in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let fx = fixture();
        let spec = ChaosSpec { seed, torn, garbage, duplicate, reorder, skew, dropout };
        let feed = ChaosFeed::corrupt(&fx.archive, &spec);
        let l = *feed.ledger();
        prop_assert_eq!(
            l.lines_out,
            l.lines_in - l.dropped_lines + l.garbage_lines + l.duplicated_lines
        );
        let again = ChaosFeed::corrupt(&fx.archive, &spec);
        prop_assert_eq!(&l, again.ledger());
        for source in LogSource::ALL {
            prop_assert_eq!(feed.source_bytes(source), again.source_bytes(source));
        }
    }
}

#[test]
fn zero_spec_reproduces_clean_bytes() {
    let fx = fixture();
    let feed = ChaosFeed::corrupt(&fx.archive, &ChaosSpec::clean(99));
    for (si, source) in LogSource::ALL.into_iter().enumerate() {
        assert_eq!(feed.source_bytes(source), fx.bytes[si], "{source:?}");
    }
}
