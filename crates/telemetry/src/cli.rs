//! Startup and exit plumbing every binary shares: probe an output path
//! before the work, print the telemetry epilogue after it.

use std::process::exit;

use crate::recorder::{profile_table, summary_table};

/// Fails fast — one line, exit 1 — if `path` cannot be created/appended,
/// so an unwritable output flag is reported before any work is done
/// rather than as a lost artefact (or an exit-time error) after it.
pub fn probe_writable(path: &str) {
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        eprintln!("cannot write {path}: {e}");
        exit(1);
    }
}

/// The exit epilogue: the per-stage table and (when spans ran) the span
/// profile on stderr, then the full registry as JSON at `json_path`.
/// Exits 1 if that write fails.
pub fn exit_report(json_path: Option<&str>) {
    let snapshot = crate::snapshot();
    eprintln!("--- telemetry ---");
    eprint!("{}", summary_table(&snapshot));
    let profile = profile_table(&snapshot);
    if !profile.is_empty() {
        eprintln!("--- profile ---");
        eprint!("{profile}");
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(path, snapshot.to_json()) {
            eprintln!("failed to write telemetry JSON to {path}: {e}");
            exit(1);
        }
        eprintln!("telemetry JSON written to {path}");
    }
}
