//! Diagnoses a log directory (as written by `hpc-simulate`, or any real
//! log tree following the same layout) and prints the full report:
//! summary, root-cause breakdown, lead-time analysis, case studies and
//! operator advisories.
//!
//! ```text
//! hpc-diagnose <log-dir> [--save-store <dir>] [--verbose] [--telemetry-json <path>]
//! hpc-diagnose --stdin   [--save-store <dir>] [--verbose] [--telemetry-json <path>]
//! hpc-diagnose --from-store <dir> [--verbose] [--telemetry-json <path>]
//! cargo run --release --bin hpc-diagnose -- /tmp/logs
//! cat console controller.log | hpc-diagnose --stdin
//! ```
//!
//! With `--stdin` the four streams arrive pre-merged on standard input, in
//! any interleaving; each line is routed to its parser by envelope sniffing
//! (`guess_source`). Lines with no recognisable envelope are handed to the
//! console parser, which counts them as skipped.
//!
//! `--save-store <dir>` additionally persists the finished diagnosis as an
//! on-disk segment store (see `hpc_diagnosis::segment`);
//! `--from-store <dir>` reopens one in milliseconds instead of re-parsing
//! text, and emits a byte-identical report.
//!
//! The report goes to stdout; progress, warnings and the per-stage
//! telemetry table go to stderr. `--verbose` (or `HPC_TRACE=1`) adds a
//! nested enter/exit trace of every instrumented stage, and
//! `--telemetry-json` writes the full metric registry as JSON.

use std::path::Path;
use std::process::exit;

use hpc_node_failures::logs::LogArchive;
use hpc_node_failures::platform::system::SchedulerKind;

use hpc_node_failures::diagnosis::jobs::JobLog;
use hpc_node_failures::diagnosis::report;
use hpc_node_failures::diagnosis::{Diagnosis, DiagnosisConfig};
use hpc_node_failures::stream::drive::{lossy_lines, source_of};
use hpc_node_failures::telemetry::{self, Flags};

const USAGE: &str = "usage: hpc-diagnose (<log-dir> | --stdin | --from-store <dir>) \
     [--save-store <dir>] [--verbose] [--telemetry-json <path>]";

/// Reads a pre-merged log stream from stdin into an archive, routing each
/// line to its source stream by envelope sniffing. Invalid UTF-8 is
/// sanitised and counted where the directory reader counts it.
fn archive_from_stdin() -> LogArchive {
    let mut archive = LogArchive::new(SchedulerKind::Slurm);
    let counter = "core.ingest.dropped.invalid_utf8";
    lossy_lines(std::io::stdin().lock(), counter, |line| {
        archive.push_raw_line(source_of(&line), line);
        true
    });
    archive
}

fn main() {
    let mut telemetry_json: Option<String> = None;
    let mut save_store: Option<String> = None;
    let mut from_store: Option<String> = None;
    let mut from_stdin = false;
    let mut positional = Vec::new();
    let mut args = Flags::new(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--verbose" => telemetry::set_trace(true),
            "--stdin" => from_stdin = true,
            "--telemetry-json" => telemetry_json = Some(args.value()),
            "--save-store" => save_store = Some(args.value()),
            "--from-store" => from_store = Some(args.value()),
            _ if arg.starts_with("--") => args.usage(),
            _ => positional.push(arg),
        }
    }
    let inputs = from_stdin as usize + positional.len() + from_store.is_some() as usize;
    if inputs != 1 || (from_store.is_some() && save_store.is_some()) {
        // Exactly one input: a directory, the merged stream on stdin, or a
        // previously saved segment store (which there is no point re-saving).
        args.usage();
    }
    // Probe every output path up front (the PR 6 fail-fast contract):
    // better to refuse now than to panic or lose the report after ingest.
    if let Some(path) = &telemetry_json {
        telemetry::probe_writable(path);
    }
    if let Some(dir) = &save_store {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot write {dir}: {e}");
            exit(1);
        }
        telemetry::probe_writable(&format!("{dir}/MANIFEST.json"));
    }

    let config = DiagnosisConfig::default();
    let origin;
    // Stdin has no scheduler marker file; Slurm is the simulator default.
    let mut scheduler = SchedulerKind::Slurm;
    let d = if let Some(dir) = &from_store {
        origin = dir.clone();
        eprintln!("reopening segment store {dir} ...");
        match Diagnosis::from_store(Path::new(dir), config) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{e}");
                exit(1);
            }
        }
    } else if from_stdin {
        origin = "stdin".to_string();
        eprintln!("reading merged log stream from stdin ...");
        Diagnosis::from_archive(&archive_from_stdin(), config)
    } else {
        let dir = positional.first().expect("checked above");
        origin = dir.clone();
        // Fail fast with one clear line on a missing or unreadable
        // archive root, before spinning up the ingest pool.
        if let Err(e) = std::fs::read_dir(dir) {
            eprintln!("cannot read log directory {dir}: {e}");
            exit(1);
        }
        scheduler = hpc_node_failures::logs::fs::detect_scheduler(Path::new(dir));
        eprintln!(
            "streaming logs from {dir} with {} ingest threads ...",
            Diagnosis::ingest_threads(&config)
        );
        // Stream the archive through the pooled ingest: raw text in memory
        // stays bounded by one batch per stream, instead of load_archive
        // materialising every line of all four files up front.
        match Diagnosis::from_dir(Path::new(dir), config) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("cannot load {dir}: {e}");
                exit(1);
            }
        }
    };
    let ingest_snap = telemetry::snapshot();
    let snapshot_lines = ingest_snap.counter("ingest.lines").unwrap_or(0);
    if from_store.is_none() {
        // A store reopen parses no lines; the emptiness check belongs to
        // text ingest only.
        if snapshot_lines == 0 {
            eprintln!("no log lines found in {origin}");
            exit(1);
        }
        if d.skipped_lines > 0 {
            let pct = 100.0 * d.skipped_lines as f64 / snapshot_lines as f64;
            eprintln!(
                "warning: {} of {} lines unrecognised ({pct:.2}%) — possible log corruption \
                 or unsupported format (counter ingest.skipped_lines)",
                d.skipped_lines, snapshot_lines
            );
        }
    }
    // Loss accounting per the degradation contract (DESIGN.md §10): say
    // exactly what was sanitised or truncated away, never fail silently.
    let dropped_utf8 = ingest_snap
        .counter("core.ingest.dropped.invalid_utf8")
        .unwrap_or(0);
    let dropped_io = ingest_snap
        .counter("core.ingest.dropped.io_error")
        .unwrap_or(0);
    if dropped_utf8 > 0 || dropped_io > 0 {
        eprintln!(
            "warning: degraded ingest: {dropped_utf8} invalid-UTF-8 lines sanitised, \
             {dropped_io} stream(s) truncated at a mid-file I/O error \
             (counters core.ingest.dropped.*)"
        );
    }
    if let Some(dir) = &save_store {
        match d.save_store(Path::new(dir), &origin, snapshot_lines, scheduler) {
            Ok(manifest) => eprintln!(
                "segment store written to {dir}: {} events in {} segments",
                manifest.events,
                manifest.segments.len()
            ),
            Err(e) => {
                eprintln!("cannot write {dir}: {e}");
                exit(1);
            }
        }
    }
    let jobs = JobLog::from_diagnosis(&d);
    print!("{}", report::full_report(&d, &jobs));

    eprintln!();
    telemetry::exit_report(telemetry_json.as_deref());
}
