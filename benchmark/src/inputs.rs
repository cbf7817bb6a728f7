//! Input generation, in the parent process.
//!
//! Everything the program under test sees is a file written here from
//! `--seed`: the archive directory (clean, or corrupted for
//! `batch_chaos`) and, for the stream path, the time-merged feed the
//! open-loop generator appends from. The simulator's memory therefore
//! never counts toward a workload's `peak_rss_mb`.

use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use hpc_faultsim::chaos::{ChaosFeed, ChaosSpec, Intensity};
use hpc_faultsim::Scenario;
use hpc_logs::event::LogSource;
use hpc_logs::parse::split_timestamp;
use hpc_logs::time::SimTime;
use hpc_platform::SystemId;

use crate::catalogue::{Shape, WorkloadSpec};
use crate::rng::Rng;

/// RNG stream ids: one seed, independent sequences.
pub const STREAM_SCENARIO: u64 = 1;
pub const STREAM_CHAOS: u64 = 2;
pub const STREAM_QUERIES: u64 = 3;
pub const STREAM_ROUTES: u64 = 4;

/// Archive directory inside a run's work directory.
pub const ARCHIVE_DIR: &str = "archive";
/// Time-merged feed file inside a run's work directory.
pub const FEED_FILE: &str = "feed.txt";

/// The scenario of `shape` for `seed`.
pub fn scenario(shape: Shape, seed: u64) -> Scenario {
    let scenario_seed = Rng::new(seed, STREAM_SCENARIO).next_u64();
    match shape {
        Shape::Telemetry => {
            let mut s = Scenario::new(SystemId::S1, 2, 14, scenario_seed);
            s.config.telemetry_blades = 24;
            s.config.telemetry_interval_mins = 5;
            s
        }
        Shape::Failures => Scenario::new(SystemId::S1, 8, 60, scenario_seed),
    }
}

/// Corruption of `batch_chaos`: every per-line pathology of
/// `ChaosSpec::mixed(Heavy, _)` (torn lines, non-UTF-8 garbage, duplicated
/// batches, local reorder, clock skew at 2% of lines each) without the
/// per-source dropout window. One window removes 1-10% of a stream, which
/// on the dominant ERD stream changes the work by as much from one seed to
/// the next; the per-line pathologies average out over 425k lines.
pub fn chaos_spec(seed: u64) -> ChaosSpec {
    ChaosSpec {
        dropout: 0.0,
        ..ChaosSpec::mixed(Intensity::Heavy, Rng::new(seed, STREAM_CHAOS).next_u64())
    }
}

/// What the parent measured while generating.
#[derive(Debug, Clone, Copy, Default)]
pub struct Generated {
    pub scenario_run_ms: f64,
    /// `ChaosFeed::corrupt` time; measured for every workload in the
    /// traced run, for `batch_chaos` always.
    pub chaos_corrupt_ms: Option<f64>,
}

/// Generates `spec`'s inputs for `seed` under `work`: the archive
/// directory and, when `feed` is set, the merged feed file. `time_chaos`
/// also times a corruption pass on workloads that do not use its output.
pub fn generate(
    spec: &WorkloadSpec,
    seed: u64,
    work: &Path,
    feed: bool,
    time_chaos: bool,
) -> io::Result<Generated> {
    let start = Instant::now();
    let out = scenario(spec.shape, seed).run();
    let mut generated = Generated {
        scenario_run_ms: start.elapsed().as_secs_f64() * 1e3,
        chaos_corrupt_ms: None,
    };
    let archive_dir = work.join(ARCHIVE_DIR);
    let _ = fs::remove_dir_all(&archive_dir);
    if spec.chaos || time_chaos {
        let start = Instant::now();
        let corrupted = ChaosFeed::corrupt(&out.archive, &chaos_spec(seed));
        generated.chaos_corrupt_ms = Some(start.elapsed().as_secs_f64() * 1e3);
        if spec.chaos {
            corrupted.write_dir(&archive_dir)?;
            if feed {
                let lines = LogSource::ALL.map(|s| corrupted.lossy_lines(s).collect::<Vec<_>>());
                write_feed(&lines, &work.join(FEED_FILE))?;
            }
            return Ok(generated);
        }
    }
    hpc_logs::fs::save_archive(&out.archive, &archive_dir)?;
    if feed {
        let lines = LogSource::ALL.map(|s| out.archive.lines(s).to_vec());
        write_feed(&lines, &work.join(FEED_FILE))?;
    }
    Ok(generated)
}

/// Merges the four per-source line lists by `(timestamp, source)`, the
/// order `FollowDir::poll_into` feeds an engine in: a line without a
/// parseable timestamp inherits the time of the line before it in its
/// source. Returns `(source index, line)` pairs.
pub fn merge_lines(lines: &[Vec<String>; 4]) -> Vec<(u8, &str)> {
    let mut idx = [0usize; 4];
    let mut clock = [SimTime::EPOCH; 4];
    let mut merged = Vec::with_capacity(lines.iter().map(Vec::len).sum());
    loop {
        let mut best: Option<(SimTime, usize)> = None;
        for si in 0..4 {
            let Some(line) = lines[si].get(idx[si]) else {
                continue;
            };
            let t = split_timestamp(line).map_or(clock[si], |(t, _)| t);
            if best.is_none_or(|b| (t, si) < b) {
                best = Some((t, si));
            }
        }
        let Some((t, si)) = best else { break };
        clock[si] = t;
        merged.push((si as u8, lines[si][idx[si]].as_str()));
        idx[si] += 1;
    }
    merged
}

/// Writes the merged feed: one line per log line, the source index as
/// the first byte.
fn write_feed(lines: &[Vec<String>; 4], path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(fs::File::create(path)?);
    for (si, line) in merge_lines(lines) {
        w.write_all(&[b'0' + si])?;
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

/// Streams the feed file back as `(source, line)` pairs.
pub fn read_feed(path: &Path) -> io::Result<impl Iterator<Item = (LogSource, String)>> {
    let reader = BufReader::new(fs::File::open(path)?);
    Ok(reader.lines().map_while(Result::ok).filter_map(|mut l| {
        let source = LogSource::ALL[(l.as_bytes().first()?.checked_sub(b'0')?) as usize % 4];
        l.remove(0);
        Some((source, l))
    }))
}

/// Newline count over the four files of an archive directory: the line
/// count `throughput_per_s` divides by.
pub fn count_lines(archive_dir: &Path) -> io::Result<u64> {
    let scheduler = hpc_logs::fs::detect_scheduler(archive_dir);
    let mut lines = 0u64;
    for source in LogSource::ALL {
        let path = archive_dir.join(hpc_logs::fs::source_path(source, scheduler));
        if path.exists() {
            lines += fs::read(&path)?.iter().filter(|&&b| b == b'\n').count() as u64;
        }
    }
    Ok(lines)
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut bytes = 0;
    for entry in fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            bytes += meta.len();
        }
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_orders_by_time_then_source_and_carries_the_clock() {
        let s = |v: &[&str]| v.iter().map(|l| l.to_string()).collect::<Vec<_>>();
        let lines = [
            s(&[
                "2016-01-01T00:00:02.000 a",
                "continuation",
                "2016-01-01T00:00:05.000 b",
            ]),
            s(&["2016-01-01T00:00:02.000 c"]),
            s(&["2016-01-01T00:00:01.000 d"]),
            s(&[]),
        ];
        let merged: Vec<(u8, &str)> = merge_lines(&lines);
        assert_eq!(
            merged,
            [
                (2, "2016-01-01T00:00:01.000 d"),
                (0, "2016-01-01T00:00:02.000 a"),
                (0, "continuation"),
                (1, "2016-01-01T00:00:02.000 c"),
                (0, "2016-01-01T00:00:05.000 b"),
            ]
        );
    }

    #[test]
    fn same_seed_same_scenario_seed_and_shapes_share_it() {
        assert_eq!(
            scenario(Shape::Failures, 42).seed,
            scenario(Shape::Telemetry, 42).seed
        );
        assert_ne!(
            scenario(Shape::Failures, 42).seed,
            scenario(Shape::Failures, 43).seed
        );
    }
}
