//! Chaos-ingestion campaign runner: corruption matrix × consumer, with a
//! pass/fail scorecard.
//!
//! ```text
//! hpc-chaos [--seed N] [--days N] [--cabinets N] [--json <path>]
//! ```
//!
//! Renders one simulated archive (S1, default 2 cabinets × 7 days, seed
//! 42), then runs every cell of the corruption matrix — each
//! [`Pathology`] at light and heavy intensity, plus an all-pathologies
//! mix — through the batch pipeline (`Diagnosis::from_dir` over a
//! corrupted on-disk archive) and the mixed cells through the streaming
//! engine. Each cell asserts the degradation contract of DESIGN.md §10:
//!
//! * **no panic** anywhere in ingest or diagnosis;
//! * **bounded loss**: lines skipped and events lost relative to the
//!   clean feed never exceed `injected corruptions × RECORD_SLACK`,
//!   and events gained never exceed `duplicated lines × RECORD_SLACK`;
//! * **clean is exact**: the zero-corruption batch cell reproduces the
//!   golden report byte-identically (and matches the in-memory pipeline),
//!   the zero-corruption stream cell reproduces batch detection, alerts
//!   and score (predicted, missed, false positives), and the
//!   store cell round-trips the diagnosis through a persisted segment
//!   store (`Diagnosis::save_store` → `from_store`) byte-identically —
//!   then proves a bit-flipped segment fails the reopen cleanly;
//! * **alerts still flow**: every cell still detects failures.
//!
//! The text scorecard goes to stdout; `--json` writes it as JSON for CI
//! assertions. Exit code 0 iff every cell passed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::exit;

use hpc_diagnosis::jobs::JobLog;
use hpc_diagnosis::prediction::evaluate;
use hpc_diagnosis::report;
use hpc_diagnosis::{Diagnosis, DiagnosisConfig};
use hpc_faultsim::chaos::{ChaosFeed, ChaosSpec, Intensity, Pathology, RECORD_SLACK};
use hpc_faultsim::Scenario;
use hpc_logs::{LogArchive, LogSource};
use hpc_platform::SystemId;
use hpc_stream::{StreamConfig, StreamEngine};
use hpc_telemetry::json::JsonValue;
use hpc_telemetry::Flags;

const USAGE: &str = "usage: hpc-chaos [--seed <n>] [--days <n>] [--cabinets <n>] [--json <path>]";

struct Options {
    seed: u64,
    days: u64,
    cabinets: u32,
    json: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        seed: 42,
        days: 7,
        cabinets: 2,
        json: None,
    };
    let mut args = Flags::new(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => opts.seed = args.parsed(),
            "--days" => opts.days = args.parsed(),
            "--cabinets" => opts.cabinets = args.parsed(),
            "--json" => opts.json = Some(args.value()),
            _ => args.usage(),
        }
    }
    if opts.cabinets == 0 || opts.days == 0 {
        // A system has at least one cabinet, and a zero-day archive holds
        // no failures for any cell to score.
        args.usage();
    }
    opts
}

/// One scorecard row.
struct Cell {
    mode: &'static str, // "batch" | "stream"
    pathology: String,  // "clean", a pathology key, or "mixed"
    intensity: String,  // "-", "light", "heavy"
    lines: u64,
    corruptions: u64,
    skipped: u64,
    events: u64,
    failures: u64,
    events_lost: u64,
    events_gained: u64,
    /// Clean batch cell only: report byte-identical to the golden fixture.
    golden_identical: Option<bool>,
    violations: Vec<String>,
}

impl Cell {
    fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Clean-feed baseline the corrupted cells are judged against.
struct Baseline {
    batch_events: u64,
    batch_skipped: u64,
    stream_events: u64,
}

fn cell_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hpc-chaos-{}-{tag}", std::process::id()))
}

/// The corruption bound every consumer must honour: each injected
/// corruption may cost (or, for duplication, add) at most one
/// `RECORD_SLACK`-line record.
fn check_bounds(cell: &mut Cell, ledger: &hpc_faultsim::ChaosLedger, clean_events: u64) {
    cell.events_lost = clean_events.saturating_sub(cell.events);
    cell.events_gained = cell.events.saturating_sub(clean_events);
    if cell.skipped > ledger.max_skipped_lines() {
        cell.violations.push(format!(
            "skipped {} > bound {}",
            cell.skipped,
            ledger.max_skipped_lines()
        ));
    }
    if cell.events_lost > ledger.max_events_lost() {
        cell.violations.push(format!(
            "events lost {} > bound {}",
            cell.events_lost,
            ledger.max_events_lost()
        ));
    }
    if cell.events_gained > ledger.max_events_gained() {
        cell.violations.push(format!(
            "events gained {} > bound {}",
            cell.events_gained,
            ledger.max_events_gained()
        ));
    }
    if cell.failures == 0 {
        cell.violations
            .push("no failures detected — alerting is dead".into());
    }
}

/// Runs one batch cell: corrupt → write to disk → `Diagnosis::from_dir`.
/// `golden` carries (fixture report, in-memory report) for the clean cell.
fn run_batch_cell(
    archive: &LogArchive,
    spec: &ChaosSpec,
    pathology: &str,
    intensity: &str,
    baseline: Option<&Baseline>,
    golden: Option<(&str, &str)>,
) -> Cell {
    let mut cell = Cell {
        mode: "batch",
        pathology: pathology.to_string(),
        intensity: intensity.to_string(),
        lines: 0,
        corruptions: 0,
        skipped: 0,
        events: 0,
        failures: 0,
        events_lost: 0,
        events_gained: 0,
        golden_identical: None,
        violations: Vec::new(),
    };
    let feed = ChaosFeed::corrupt(archive, spec);
    let ledger = *feed.ledger();
    cell.lines = ledger.lines_out;
    cell.corruptions = ledger.corruptions();
    let dir = cell_dir(&format!("batch-{pathology}-{intensity}"));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = feed.write_dir(&dir) {
        cell.violations.push(format!("write_dir failed: {e}"));
        return cell;
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Diagnosis::from_dir(&dir, DiagnosisConfig::default())
    }));
    match outcome {
        Err(_) => cell.violations.push("panicked during diagnosis".into()),
        Ok(Err(e)) => cell.violations.push(format!("diagnosis failed: {e}")),
        Ok(Ok(d)) => {
            cell.skipped = d.skipped_lines;
            cell.events = d.events().len() as u64;
            cell.failures = d.failures.len() as u64;
            if let Some(base) = baseline {
                check_bounds(&mut cell, &ledger, base.batch_events);
            }
            if let Some((fixture, in_memory)) = golden {
                // Zero corruption ⇒ the on-disk byte path reproduces the
                // in-memory pipeline and the golden capture exactly.
                let jobs = JobLog::from_diagnosis(&d);
                let got = report::full_report(&d, &jobs);
                if got != in_memory {
                    cell.violations
                        .push("clean from_dir report != in-memory report".into());
                }
                let identical = !fixture.is_empty() && got == fixture;
                cell.golden_identical = Some(identical);
                if !fixture.is_empty() && !identical {
                    cell.violations
                        .push("clean report != golden fixture".into());
                }
                if cell.corruptions != 0 || cell.skipped != 0 {
                    cell.violations.push(format!(
                        "clean cell not clean: {} corruptions, {} skipped",
                        cell.corruptions, cell.skipped
                    ));
                }
                if cell.failures == 0 {
                    cell.violations.push("clean cell found no failures".into());
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    cell
}

/// Runs the segment-store clean cell: the finished clean diagnosis is
/// persisted as a segment store, reopened via `Diagnosis::from_store`, and
/// must reproduce the in-memory report (and the golden fixture) byte for
/// byte. A flipped byte in one segment must then fail the reopen with a
/// clean error — corruption of the binary store is part of the campaign's
/// threat model, not just corruption of the text feed.
fn run_store_cell(clean: &Diagnosis, total_lines: u64, fixture: &str, in_memory: &str) -> Cell {
    let mut cell = Cell {
        mode: "store",
        pathology: "clean".to_string(),
        intensity: "-".to_string(),
        lines: total_lines,
        corruptions: 0,
        skipped: 0,
        events: 0,
        failures: 0,
        events_lost: 0,
        events_gained: 0,
        golden_identical: None,
        violations: Vec::new(),
    };
    let dir = cell_dir("store-clean");
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = clean.save_store(
        &dir,
        "chaos",
        total_lines,
        hpc_platform::system::SchedulerKind::Slurm,
    ) {
        cell.violations.push(format!("save_store failed: {e}"));
        return cell;
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Diagnosis::from_store(&dir, DiagnosisConfig::default())
    }));
    match outcome {
        Err(_) => cell.violations.push("panicked during store reopen".into()),
        Ok(Err(e)) => cell.violations.push(format!("store reopen failed: {e}")),
        Ok(Ok(d)) => {
            cell.skipped = d.skipped_lines;
            cell.events = d.events().len() as u64;
            cell.failures = d.failures.len() as u64;
            let jobs = JobLog::from_diagnosis(&d);
            let got = report::full_report(&d, &jobs);
            if got != in_memory {
                cell.violations
                    .push("store replay report != in-memory report".into());
            }
            let identical = !fixture.is_empty() && got == fixture;
            cell.golden_identical = Some(identical);
            if !fixture.is_empty() && !identical {
                cell.violations
                    .push("store replay report != golden fixture".into());
            }
            if cell.failures == 0 {
                cell.violations.push("clean cell found no failures".into());
            }
        }
    }
    // Corrupt one byte of one segment: the reopen must degrade to a clean
    // error, never a panic and never a silently different diagnosis.
    let victim = std::fs::read_dir(&dir).ok().and_then(|entries| {
        entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|x| x == "col"))
    });
    match victim {
        None => cell.violations.push("store has no segment files".into()),
        Some(path) => {
            let mut bytes = std::fs::read(&path).unwrap_or_default();
            let mid = bytes.len() / 2;
            if let Some(b) = bytes.get_mut(mid) {
                *b ^= 0xff;
            }
            let _ = std::fs::write(&path, &bytes);
            cell.corruptions = 1;
            let reopen = catch_unwind(AssertUnwindSafe(|| {
                Diagnosis::from_store(&dir, DiagnosisConfig::default())
            }));
            match reopen {
                Err(_) => cell
                    .violations
                    .push("panicked reopening a corrupted store".into()),
                Ok(Ok(_)) => cell
                    .violations
                    .push("corrupted store reopened without error".into()),
                Ok(Err(_)) => {}
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    cell
}

/// Runs one stream cell. For the clean cell (`batch_reference` set) the
/// engine must reproduce batch detection, alerts and score exactly with
/// nothing late.
fn run_stream_cell(
    archive: &LogArchive,
    spec: &ChaosSpec,
    pathology: &str,
    intensity: &str,
    baseline: Option<&Baseline>,
    batch_reference: Option<&Diagnosis>,
) -> Cell {
    let mut cell = Cell {
        mode: "stream",
        pathology: pathology.to_string(),
        intensity: intensity.to_string(),
        lines: 0,
        corruptions: 0,
        skipped: 0,
        events: 0,
        failures: 0,
        events_lost: 0,
        events_gained: 0,
        golden_identical: None,
        violations: Vec::new(),
    };
    let feed = ChaosFeed::corrupt(archive, spec);
    let ledger = *feed.ledger();
    cell.lines = ledger.lines_out;
    cell.corruptions = ledger.corruptions();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // SWO exclusion is a batch post-pass; the online engine reproduces
        // raw detection, so the clean cell compares against that. Each
        // source goes in whole, then the engine releases once: the
        // per-source queues put the sources in order.
        let mut engine = StreamEngine::new(StreamConfig::default());
        for source in LogSource::ALL {
            for line in feed.lossy_lines(source) {
                engine.enqueue_line(source, &line);
            }
        }
        engine.release();
        engine.finish();
        engine
    }));
    match outcome {
        Err(_) => cell.violations.push("panicked during streaming".into()),
        Ok(engine) => {
            let stats = engine.stats();
            // Late-dropped events count as loss here: the merger skipped
            // them, so they never became events.
            cell.skipped = stats.skipped_lines;
            cell.events = stats.events;
            cell.failures = stats.failures;
            if let Some(base) = baseline {
                check_bounds(&mut cell, &ledger, base.stream_events);
            }
            if let Some(batch) = batch_reference {
                if stats.late_events != 0 {
                    cell.violations
                        .push(format!("clean replay dropped {} late", stats.late_events));
                }
                if engine.failures() != batch.failures.as_slice() {
                    cell.violations
                        .push("clean replay failures != batch detection".into());
                }
                let ev = evaluate(batch, engine.config().require_external);
                if engine.alerts() != ev.alerts.as_slice() {
                    cell.violations
                        .push("clean replay alerts != batch alerts".into());
                }
                let live = (
                    stats.predicted_failures,
                    stats.missed_failures,
                    stats.expired_alerts,
                );
                let scored = (
                    ev.predicted_failures as u64,
                    ev.missed_failures as u64,
                    ev.false_positives as u64,
                );
                if live != scored {
                    cell.violations.push(format!(
                        "clean replay (predicted, missed, expired) {live:?} != \
                         batch (predicted, missed, false positives) {scored:?}"
                    ));
                }
                if cell.failures == 0 {
                    cell.violations.push("clean cell found no failures".into());
                }
            }
        }
    }
    cell
}

fn scorecard_json(opts: &Options, cells: &[Cell]) -> JsonValue {
    let object = |members: Vec<(&str, JsonValue)>| {
        JsonValue::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let text = |v: &str| JsonValue::String(v.to_string());
    let number = |v: u64| JsonValue::Number(v as f64);
    let passed = cells.iter().filter(|c| c.passed()).count();
    let cell = |c: &Cell| {
        object(vec![
            ("mode", text(c.mode)),
            ("pathology", text(&c.pathology)),
            ("intensity", text(&c.intensity)),
            ("lines", number(c.lines)),
            ("corruptions", number(c.corruptions)),
            ("skipped", number(c.skipped)),
            ("events", number(c.events)),
            ("failures", number(c.failures)),
            ("events_lost", number(c.events_lost)),
            ("events_gained", number(c.events_gained)),
            (
                "golden_identical",
                c.golden_identical.map_or(JsonValue::Null, JsonValue::Bool),
            ),
            ("passed", JsonValue::Bool(c.passed())),
            (
                "violations",
                JsonValue::Array(c.violations.iter().map(|v| text(v)).collect()),
            ),
        ])
    };
    object(vec![
        ("system", text("S1")),
        ("seed", number(opts.seed)),
        ("cabinets", number(opts.cabinets.into())),
        ("days", number(opts.days)),
        ("record_slack", number(RECORD_SLACK)),
        ("passed", number(passed as u64)),
        ("failed", number((cells.len() - passed) as u64)),
        ("cells", JsonValue::Array(cells.iter().map(cell).collect())),
    ])
}

fn print_scorecard(cells: &[Cell]) {
    println!(
        "{:<6} {:<10} {:<6} {:>9} {:>11} {:>8} {:>8} {:>8} {:>6} {:>6}  result",
        "mode",
        "pathology",
        "level",
        "lines",
        "corruptions",
        "skipped",
        "events",
        "failures",
        "lost",
        "gained"
    );
    for c in cells {
        println!(
            "{:<6} {:<10} {:<6} {:>9} {:>11} {:>8} {:>8} {:>8} {:>6} {:>6}  {}",
            c.mode,
            c.pathology,
            c.intensity,
            c.lines,
            c.corruptions,
            c.skipped,
            c.events,
            c.failures,
            c.events_lost,
            c.events_gained,
            if c.passed() {
                "PASS".to_string()
            } else {
                format!("FAIL: {}", c.violations.join("; "))
            }
        );
    }
}

fn main() {
    let opts = parse_args();
    eprintln!(
        "hpc-chaos: simulating S1, {} cabinets x {} days, seed {} ...",
        opts.cabinets, opts.days, opts.seed
    );
    let out = Scenario::new(SystemId::S1, opts.cabinets, opts.days, opts.seed).run();
    let archive = out.archive;

    // In-memory clean pipeline: the reference the on-disk byte path must
    // reproduce exactly, and (for the default scenario) the golden fixture.
    let clean = Diagnosis::from_archive(&archive, DiagnosisConfig::default());
    let clean_jobs = JobLog::from_diagnosis(&clean);
    let in_memory_report = report::full_report(&clean, &clean_jobs);
    let default_scenario = opts.seed == 42 && opts.days == 7 && opts.cabinets == 2;
    let fixture = if default_scenario {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../testdata/golden-report-s1-2c-7d-seed42.txt"
        );
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("hpc-chaos: warning: golden fixture unreadable ({e}); skipping byte check");
            String::new()
        })
    } else {
        String::new()
    };

    let mut cells: Vec<Cell> = Vec::new();

    // Clean batch cell first: it defines the loss baseline for the rest.
    eprintln!("hpc-chaos: batch clean cell ...");
    let clean_batch = run_batch_cell(
        &archive,
        &ChaosSpec::clean(opts.seed),
        "clean",
        "-",
        None,
        Some((&fixture, &in_memory_report)),
    );
    // Clean stream cell: streaming-vs-batch equivalence.
    eprintln!("hpc-chaos: stream clean cell ...");
    let batch_raw = Diagnosis::from_archive(
        &archive,
        DiagnosisConfig {
            exclude_swos: false,
            ..DiagnosisConfig::default()
        },
    );
    let clean_stream = run_stream_cell(
        &archive,
        &ChaosSpec::clean(opts.seed),
        "clean",
        "-",
        None,
        Some(&batch_raw),
    );
    let baseline = Baseline {
        batch_events: clean_batch.events,
        batch_skipped: clean_batch.skipped,
        stream_events: clean_stream.events,
    };
    if baseline.batch_skipped != 0 {
        eprintln!(
            "hpc-chaos: warning: clean feed skipped {} lines",
            baseline.batch_skipped
        );
    }
    cells.push(clean_batch);
    cells.push(clean_stream);

    // Clean store cell: the campaign's replay path rehosted onto segment
    // reopen — persist, reopen, byte-compare, then survive a bit flip.
    eprintln!("hpc-chaos: store clean cell ...");
    cells.push(run_store_cell(
        &clean,
        archive.total_lines(),
        &fixture,
        &in_memory_report,
    ));

    // The corruption matrix: every pathology alone, then everything at
    // once, at both intensities, through the batch byte path.
    for pathology in Pathology::ALL {
        for intensity in [Intensity::Light, Intensity::Heavy] {
            eprintln!(
                "hpc-chaos: batch {} / {} ...",
                pathology.key(),
                intensity.key()
            );
            cells.push(run_batch_cell(
                &archive,
                &ChaosSpec::single(pathology, intensity, opts.seed),
                pathology.key(),
                intensity.key(),
                Some(&baseline),
                None,
            ));
        }
    }
    for intensity in [Intensity::Light, Intensity::Heavy] {
        eprintln!("hpc-chaos: batch mixed / {} ...", intensity.key());
        cells.push(run_batch_cell(
            &archive,
            &ChaosSpec::mixed(intensity, opts.seed),
            "mixed",
            intensity.key(),
            Some(&baseline),
            None,
        ));
        eprintln!("hpc-chaos: stream mixed / {} ...", intensity.key());
        cells.push(run_stream_cell(
            &archive,
            &ChaosSpec::mixed(intensity, opts.seed),
            "mixed",
            intensity.key(),
            Some(&baseline),
            None,
        ));
    }

    print_scorecard(&cells);
    if let Some(path) = &opts.json {
        let json = scorecard_json(&opts, &cells).pretty();
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("hpc-chaos: cannot write {path}: {e}");
            exit(1);
        }
        eprintln!("hpc-chaos: scorecard JSON written to {path}");
    }
    let failed = cells.iter().filter(|c| !c.passed()).count();
    if failed > 0 {
        eprintln!("hpc-chaos: {failed} of {} cells FAILED", cells.len());
        exit(1);
    }
    eprintln!("hpc-chaos: all {} cells passed", cells.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scorecard_round_trips_hostile_violation_text() {
        let violation = "diagnosis failed: \"C:\\logs\"\nline two";
        let opts = Options {
            seed: 42,
            days: 7,
            cabinets: 2,
            json: None,
        };
        let cell = Cell {
            mode: "batch",
            pathology: "clean".into(),
            intensity: "-".into(),
            lines: 10,
            corruptions: 0,
            skipped: 0,
            events: 9,
            failures: 1,
            events_lost: 0,
            events_gained: 0,
            golden_identical: Some(true),
            violations: vec![violation.to_string()],
        };
        let text = scorecard_json(&opts, &[cell]).pretty();
        let back = hpc_telemetry::json::parse(&text).expect("scorecard must be JSON");
        assert_eq!(back.get("failed").and_then(JsonValue::as_number), Some(1.0));
        let cells = back.get("cells").and_then(JsonValue::as_array).unwrap();
        let violations = cells[0].get("violations").and_then(JsonValue::as_array);
        assert_eq!(violations.unwrap()[0].as_str(), Some(violation));
    }
}
