//! Adversarial feed corruption: deterministic, seeded log pathologies.
//!
//! Real log collection is messy in ways the fault simulator's clean renders
//! never are: writers die mid-`write(2)` and leave torn lines, consoles
//! interleave binary garbage, syslog relays duplicate and locally reorder
//! batches, node clocks regress, and whole sources drop out and resume.
//! [`ChaosFeed`] applies exactly those pathologies to a rendered
//! [`LogArchive`] — reproducibly, from a seed — and keeps an exact
//! [`ChaosLedger`] of every corruption it injected, so a consumer's loss
//! accounting can be checked against a ground-truth bound rather than
//! eyeballed.
//!
//! The degradation contract the ledger underwrites (DESIGN.md §10): each
//! injected corruption may cost the ingest pipeline at most
//! [`RECORD_SLACK`] lines/events (a torn or displaced line can orphan the
//! continuation lines of one multi-line record, never more), and zero
//! injected corruption must be byte-identical to the clean feed.

use std::io::{self, Write};
use std::path::Path;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use hpc_logs::archive::LogArchive;
use hpc_logs::event::LogSource;
use hpc_logs::parse::split_timestamp;
use hpc_logs::time::SimDuration;
use hpc_platform::system::SchedulerKind;

/// Worst-case lines (and events) a single injected corruption can cost the
/// pipeline: the longest multi-line record a corrupted header or displaced
/// continuation line can orphan. Rendered oops/hung-task traces run one
/// header plus a `Call Trace:` line plus one frame per stack module, well
/// under this bound.
pub const RECORD_SLACK: u64 = 16;

/// The corruption families [`ChaosFeed`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pathology {
    /// Lines truncated at an arbitrary byte (writer died mid-`write`).
    Torn,
    /// Interleaved garbage lines carrying non-UTF-8 bytes.
    Garbage,
    /// Batches of recent lines duplicated (relay retransmission).
    Duplicate,
    /// Local reordering of small windows (relay race).
    Reorder,
    /// Runs of timestamps rewritten backwards (clock regression/skew).
    ClockSkew,
    /// A contiguous window of one source dropped entirely, then resumption.
    Dropout,
}

impl Pathology {
    /// All families, in scorecard order.
    pub const ALL: [Pathology; 6] = [
        Pathology::Torn,
        Pathology::Garbage,
        Pathology::Duplicate,
        Pathology::Reorder,
        Pathology::ClockSkew,
        Pathology::Dropout,
    ];

    /// Stable snake_case key for scorecards and telemetry.
    pub fn key(self) -> &'static str {
        match self {
            Pathology::Torn => "torn",
            Pathology::Garbage => "garbage",
            Pathology::Duplicate => "duplicate",
            Pathology::Reorder => "reorder",
            Pathology::ClockSkew => "clock_skew",
            Pathology::Dropout => "dropout",
        }
    }
}

/// How hard a pathology is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intensity {
    /// Rare corruption (~0.2% of lines affected).
    Light,
    /// Pervasive corruption (~2% of lines affected).
    Heavy,
}

impl Intensity {
    /// Per-line corruption probability.
    fn rate(self) -> f64 {
        match self {
            Intensity::Light => 0.002,
            Intensity::Heavy => 0.02,
        }
    }

    /// Stable key for scorecards.
    pub fn key(self) -> &'static str {
        match self {
            Intensity::Light => "light",
            Intensity::Heavy => "heavy",
        }
    }
}

/// Per-line corruption probabilities of one chaos run. All rates are
/// per-line Bernoulli probabilities except `dropout`, which is the
/// per-source probability of one contiguous dropout window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSpec {
    /// RNG seed — same seed, same corruption, byte for byte.
    pub seed: u64,
    /// Probability a line is truncated at a random interior byte.
    pub torn: f64,
    /// Probability a garbage (non-UTF-8) line is inserted before a line.
    pub garbage: f64,
    /// Probability a batch of the most recent 1–6 lines is duplicated.
    pub duplicate: f64,
    /// Probability the most recent 2–5 lines are locally shuffled.
    pub reorder: f64,
    /// Probability a clock-skew run starts: the next 1–16 lines have their
    /// timestamps rewritten backwards by a fixed 1 s – 30 min delta.
    pub skew: f64,
    /// Per-source probability of one dropout window (1–10% of the stream
    /// removed contiguously, with resumption after).
    pub dropout: f64,
}

impl ChaosSpec {
    /// No corruption: the feed must be byte-identical to the input.
    pub fn clean(seed: u64) -> ChaosSpec {
        ChaosSpec {
            seed,
            torn: 0.0,
            garbage: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            skew: 0.0,
            dropout: 0.0,
        }
    }

    /// One pathology at the given intensity, all others off.
    pub fn single(pathology: Pathology, intensity: Intensity, seed: u64) -> ChaosSpec {
        let mut spec = ChaosSpec::clean(seed);
        let r = intensity.rate();
        match pathology {
            Pathology::Torn => spec.torn = r,
            Pathology::Garbage => spec.garbage = r,
            Pathology::Duplicate => spec.duplicate = r,
            Pathology::Reorder => spec.reorder = r,
            Pathology::ClockSkew => spec.skew = r,
            // Dropout is per source, not per line: light = one source
            // sometimes drops a window, heavy = every source does.
            Pathology::Dropout => {
                spec.dropout = match intensity {
                    Intensity::Light => 0.5,
                    Intensity::Heavy => 1.0,
                }
            }
        }
        spec
    }

    /// Every pathology at once at the given intensity.
    pub fn mixed(intensity: Intensity, seed: u64) -> ChaosSpec {
        let r = intensity.rate();
        ChaosSpec {
            seed,
            torn: r,
            garbage: r,
            duplicate: r,
            reorder: r,
            skew: r,
            dropout: match intensity {
                Intensity::Light => 0.5,
                Intensity::Heavy => 1.0,
            },
        }
    }

    fn is_clean(&self) -> bool {
        self.torn == 0.0
            && self.garbage == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.skew == 0.0
            && self.dropout == 0.0
    }
}

/// Exact per-pathology accounting of one chaos run — the ground truth a
/// consumer's loss accounting is checked against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosLedger {
    /// Lines in the clean input, all sources.
    pub lines_in: u64,
    /// Lines in the corrupted output, all sources.
    pub lines_out: u64,
    /// Lines truncated mid-byte.
    pub torn_lines: u64,
    /// Garbage lines inserted.
    pub garbage_lines: u64,
    /// Lines emitted a second time by batch duplication.
    pub duplicated_lines: u64,
    /// Lines displaced by local reordering.
    pub reordered_lines: u64,
    /// Lines whose timestamps were rewritten backwards.
    pub skewed_lines: u64,
    /// Lines removed by source dropout windows.
    pub dropped_lines: u64,
}

impl ChaosLedger {
    /// Total injected corruptions, every family.
    pub fn corruptions(&self) -> u64 {
        self.torn_lines
            + self.garbage_lines
            + self.duplicated_lines
            + self.reordered_lines
            + self.skewed_lines
            + self.dropped_lines
    }

    /// Documented upper bound on lines the ingest may skip: each corruption
    /// costs at most one [`RECORD_SLACK`]-line record.
    pub fn max_skipped_lines(&self) -> u64 {
        self.corruptions() * RECORD_SLACK
    }

    /// Documented upper bound on events lost relative to the clean feed.
    pub fn max_events_lost(&self) -> u64 {
        self.corruptions() * RECORD_SLACK
    }

    /// Documented upper bound on events *gained* relative to the clean feed
    /// (only duplication can add events).
    pub fn max_events_gained(&self) -> u64 {
        self.duplicated_lines * RECORD_SLACK
    }
}

/// A corrupted rendering of a [`LogArchive`]: four byte streams plus the
/// exact ledger of what was injected.
pub struct ChaosFeed {
    scheduler: SchedulerKind,
    /// Corrupted lines per source, as raw bytes (garbage lines are not
    /// valid UTF-8 by construction).
    lines: [Vec<Vec<u8>>; 4],
    ledger: ChaosLedger,
}

fn source_index(source: LogSource) -> usize {
    LogSource::ALL
        .iter()
        .position(|&s| s == source)
        .expect("source in ALL")
}

impl ChaosFeed {
    /// Applies `spec` to the rendered archive. Deterministic: the same
    /// archive and spec produce the same bytes and ledger.
    pub fn corrupt(archive: &LogArchive, spec: &ChaosSpec) -> ChaosFeed {
        let mut ledger = ChaosLedger::default();
        let mut lines: [Vec<Vec<u8>>; 4] = Default::default();
        for (si, source) in LogSource::ALL.into_iter().enumerate() {
            // Independent per-source streams, all derived from the one
            // seed, so corruption in one source never shifts another's.
            let mut rng = StdRng::seed_from_u64(spec.seed ^ ((si as u64 + 1) << 32));
            let input = archive.lines(source);
            ledger.lines_in += input.len() as u64;
            lines[si] = corrupt_stream(input, spec, &mut rng, &mut ledger);
            ledger.lines_out += lines[si].len() as u64;
        }
        ChaosFeed {
            scheduler: archive.scheduler(),
            lines,
            ledger,
        }
    }

    /// The injected-corruption ground truth.
    pub fn ledger(&self) -> &ChaosLedger {
        &self.ledger
    }

    /// One source's corrupted stream as file bytes (newline-terminated).
    pub fn source_bytes(&self, source: LogSource) -> Vec<u8> {
        let lines = &self.lines[source_index(source)];
        let mut out = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            out.extend_from_slice(line);
            out.push(b'\n');
        }
        out
    }

    /// One source's corrupted lines, lossily decoded — what a text-level
    /// consumer (the stream engine) sees.
    pub fn lossy_lines(&self, source: LogSource) -> impl Iterator<Item = String> + '_ {
        self.lines[source_index(source)]
            .iter()
            .map(|l| String::from_utf8_lossy(l).into_owned())
    }

    /// Writes the corrupted streams under `root` in the conventional
    /// archive layout (the batch loaders' input format).
    pub fn write_dir(&self, root: &Path) -> io::Result<()> {
        for source in LogSource::ALL {
            let path = root.join(hpc_logs::fs::source_path(source, self.scheduler));
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            let mut f = io::BufWriter::new(std::fs::File::create(&path)?);
            f.write_all(&self.source_bytes(source))?;
            f.flush()?;
        }
        Ok(())
    }
}

/// A garbage line: printable junk salted with bytes that are invalid in
/// any UTF-8 position (lone continuation bytes, 0xFE/0xFF).
fn garbage_line(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(5..60);
    let mut line: Vec<u8> = (0..len)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0x80..=0xBFu32) as u8, // lone continuation
            1 => [0xFE, 0xFF, 0xC0, 0xF5][rng.gen_range(0..4usize)],
            _ => rng.gen_range(0x20..0x7Fu32) as u8, // printable junk
        })
        .collect();
    // Never a newline (these are lines), and always at least one invalid
    // byte so the non-UTF-8 path is actually exercised.
    line.retain(|&b| b != b'\n');
    if line.iter().all(|b| b.is_ascii()) {
        line.push(0xFF);
    }
    line
}

/// Rewrites a line's leading timestamp `delta` backwards, if it has one.
/// Returns true if a rewrite happened.
fn skew_line(line: &mut Vec<u8>, delta: SimDuration) -> bool {
    let Ok(text) = std::str::from_utf8(line) else {
        return false;
    };
    let Some((t, rest)) = split_timestamp(text) else {
        return false;
    };
    let rewritten = format!("{} {rest}", t.saturating_sub(delta));
    *line = rewritten.into_bytes();
    true
}

fn corrupt_stream(
    input: &[String],
    spec: &ChaosSpec,
    rng: &mut StdRng,
    ledger: &mut ChaosLedger,
) -> Vec<Vec<u8>> {
    // The clean spec must be byte-identical AND draw nothing from the RNG,
    // so ledger-free fast path first.
    if spec.is_clean() {
        return input.iter().map(|l| l.clone().into_bytes()).collect();
    }
    let mut lines: Vec<&str> = input.iter().map(|s| s.as_str()).collect();
    // Source dropout: one contiguous window (1–10% of the stream) vanishes;
    // the source resumes afterwards.
    if spec.dropout > 0.0 && lines.len() >= 20 && rng.gen_bool(spec.dropout) {
        let max_window = (lines.len() / 10).max(1);
        let window = rng.gen_range(1..=max_window);
        let start = rng.gen_range(0..lines.len() - window);
        lines.drain(start..start + window);
        ledger.dropped_lines += window as u64;
    }
    let mut out: Vec<Vec<u8>> = Vec::with_capacity(lines.len());
    let mut skew_left = 0u32;
    let mut skew_delta = SimDuration::ZERO;
    for line in lines {
        if spec.garbage > 0.0 && rng.gen_bool(spec.garbage) {
            out.push(garbage_line(rng));
            ledger.garbage_lines += 1;
        }
        let mut line = line.as_bytes().to_vec();
        if skew_left == 0 && spec.skew > 0.0 && rng.gen_bool(spec.skew) {
            // A clock-regression run: the next few lines all carry the same
            // backwards shift, like a source whose clock stepped.
            skew_left = rng.gen_range(1..=16);
            skew_delta = SimDuration::from_millis(rng.gen_range(1_000..=1_800_000));
        }
        if skew_left > 0 {
            skew_left -= 1;
            if skew_line(&mut line, skew_delta) {
                ledger.skewed_lines += 1;
            }
        }
        if spec.torn > 0.0 && line.len() > 1 && rng.gen_bool(spec.torn) {
            let cut = rng.gen_range(1..line.len());
            line.truncate(cut);
            ledger.torn_lines += 1;
        }
        out.push(line);
        if spec.duplicate > 0.0 && !out.is_empty() && rng.gen_bool(spec.duplicate) {
            let k = rng.gen_range(1..=6usize).min(out.len());
            let copies: Vec<Vec<u8>> = out[out.len() - k..].to_vec();
            ledger.duplicated_lines += copies.len() as u64;
            out.extend(copies);
        }
        if spec.reorder > 0.0 && out.len() >= 2 && rng.gen_bool(spec.reorder) {
            let k = rng.gen_range(2..=5usize).min(out.len());
            let start = out.len() - k;
            out[start..].shuffle(rng);
            ledger.reordered_lines += k as u64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;
    use hpc_platform::SystemId;
    use std::sync::OnceLock;

    fn small_archive() -> &'static LogArchive {
        static ARCHIVE: OnceLock<LogArchive> = OnceLock::new();
        ARCHIVE.get_or_init(|| Scenario::new(SystemId::S1, 1, 1, 7).run().archive)
    }

    #[test]
    fn clean_spec_is_byte_identical() {
        let archive = small_archive();
        let feed = ChaosFeed::corrupt(archive, &ChaosSpec::clean(42));
        assert_eq!(feed.ledger().corruptions(), 0);
        assert_eq!(feed.ledger().lines_in, feed.ledger().lines_out);
        for source in LogSource::ALL {
            let clean: Vec<u8> = archive
                .lines(source)
                .iter()
                .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
                .collect();
            assert_eq!(feed.source_bytes(source), clean, "{source:?}");
        }
    }

    #[test]
    fn corruption_is_deterministic_under_seed() {
        let archive = small_archive();
        let spec = ChaosSpec::mixed(Intensity::Heavy, 99);
        let a = ChaosFeed::corrupt(archive, &spec);
        let b = ChaosFeed::corrupt(archive, &spec);
        assert_eq!(a.ledger(), b.ledger());
        for source in LogSource::ALL {
            assert_eq!(a.source_bytes(source), b.source_bytes(source));
        }
        let c = ChaosFeed::corrupt(archive, &ChaosSpec::mixed(Intensity::Heavy, 100));
        assert_ne!(
            a.source_bytes(LogSource::Console),
            c.source_bytes(LogSource::Console),
            "different seeds corrupt differently"
        );
    }

    #[test]
    fn ledger_balances_line_counts() {
        let archive = small_archive();
        for intensity in [Intensity::Light, Intensity::Heavy] {
            let feed = ChaosFeed::corrupt(archive, &ChaosSpec::mixed(intensity, 7));
            let l = feed.ledger();
            assert_eq!(
                l.lines_out,
                l.lines_in - l.dropped_lines + l.garbage_lines + l.duplicated_lines,
                "{intensity:?}: {l:?}"
            );
            assert!(l.corruptions() > 0, "{intensity:?} injected nothing");
        }
    }

    #[test]
    fn each_pathology_touches_only_its_counters() {
        let archive = small_archive();
        for pathology in Pathology::ALL {
            let spec = ChaosSpec::single(pathology, Intensity::Heavy, 11);
            let l = *ChaosFeed::corrupt(archive, &spec).ledger();
            let count = |p: Pathology| match p {
                Pathology::Torn => l.torn_lines,
                Pathology::Garbage => l.garbage_lines,
                Pathology::Duplicate => l.duplicated_lines,
                Pathology::Reorder => l.reordered_lines,
                Pathology::ClockSkew => l.skewed_lines,
                Pathology::Dropout => l.dropped_lines,
            };
            assert!(
                count(pathology) > 0,
                "{pathology:?} injected nothing: {l:?}"
            );
            for other in Pathology::ALL {
                if other != pathology {
                    assert_eq!(count(other), 0, "{pathology:?} leaked into {other:?}");
                }
            }
        }
    }

    #[test]
    fn garbage_lines_are_invalid_utf8() {
        let archive = small_archive();
        let spec = ChaosSpec::single(Pathology::Garbage, Intensity::Heavy, 3);
        let feed = ChaosFeed::corrupt(archive, &spec);
        let mut found = 0;
        for source in LogSource::ALL {
            for line in &feed.lines[source_index(source)] {
                if std::str::from_utf8(line).is_err() {
                    found += 1;
                }
            }
        }
        assert_eq!(
            found,
            feed.ledger().garbage_lines,
            "every garbage line is non-UTF-8"
        );
        assert!(found > 0);
    }

    #[test]
    fn skewed_timestamps_regress_but_stay_parseable() {
        let archive = small_archive();
        let spec = ChaosSpec::single(Pathology::ClockSkew, Intensity::Heavy, 5);
        let feed = ChaosFeed::corrupt(archive, &spec);
        assert!(feed.ledger().skewed_lines > 0);
        // Every line still carries a valid timestamp envelope (skew rewrites
        // in place, it does not mangle).
        let clean: Vec<_> = archive.lines(LogSource::Console).to_vec();
        let skewed: Vec<String> = feed.lossy_lines(LogSource::Console).collect();
        assert_eq!(clean.len(), skewed.len());
        let mut regressed = 0;
        for (c, s) in clean.iter().zip(&skewed) {
            let (tc, _) = split_timestamp(c).expect("clean line has ts");
            let (ts, _) = split_timestamp(s).expect("skewed line still parses");
            if ts < tc {
                regressed += 1;
            }
            assert!(ts <= tc, "skew only moves clocks backwards");
        }
        assert!(regressed > 0);
    }
}
