//! `hpc-chaos` and `experiments` command-line contract: a bad invocation
//! is the usage line and exit 2, an unwritable output one line and exit 1,
//! never a panic.

use std::ffi::OsString;
use std::process::Command;
#[cfg(unix)]
use std::{ffi::OsStr, os::unix::ffi::OsStrExt};

fn assert_rejected(bin: &str, cases: &[&[&str]]) {
    let mut cases: Vec<Vec<OsString>> = (cases.iter())
        .map(|args| args.iter().map(Into::into).collect())
        .collect();
    #[cfg(unix)]
    cases.push(vec![OsStr::from_bytes(b"\xff").into()]);
    for args in cases {
        let out = Command::new(bin).args(&args).output().expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage"), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
}

#[test]
fn chaos_rejects_bad_command_lines_with_usage() {
    assert_rejected(
        env!("CARGO_BIN_EXE_hpc-chaos"),
        &[
            &["--frobnicate"],
            &["--seed"],
            &["--days", "many"],
            &["--cabinets", "4294967297"],
            // Regression: zero cabinets panicked inside the topology RNG.
            &["--cabinets", "0"],
            // Zero days ran every cell on an empty archive and failed them all.
            &["--days", "0"],
            // Past the last four-digit-year timestamp; this count of days
            // in milliseconds wrapped to about 1.4 days and ran.
            &["--days", "213503982336"],
        ],
    );
}

#[test]
fn experiments_rejects_bad_command_lines_with_usage() {
    assert_rejected(
        env!("CARGO_BIN_EXE_experiments"),
        &[
            &[],
            &["--frobnicate"],
            &["table1", "--out"],
            // An unknown id is refused before any experiment runs.
            &["table1", "fig99"],
            // `all` and `list` stand alone; an extra id was silently ignored.
            &["all", "fig3"],
            &["list", "fig3"],
        ],
    );
}

/// `experiments <id> --out DIR` with `DIR/<blocker>` made a directory, so
/// that output cannot be written: one stderr line, exit 1, no panic.
fn experiments_blocked_at(blocker: &str) -> std::process::Output {
    let dir = std::env::temp_dir().join(format!(
        "hpc-experiments-out-{blocker}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join(blocker)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table1", "--out"])
        .arg(&dir)
        .output()
        .expect("run experiments");
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{blocker}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{blocker}: {stderr}");
    assert!(stderr.starts_with("cannot write"), "{blocker}: {stderr}");
    assert!(!stderr.contains("panicked"), "{blocker}: {stderr}");
    out
}

#[test]
fn experiments_out_exits_1_when_an_experiment_file_cannot_be_written() {
    experiments_blocked_at("table1.txt");
}

#[test]
fn experiments_out_probes_the_telemetry_file_before_running_anything() {
    let out = experiments_blocked_at("telemetry.json");
    assert!(out.stdout.is_empty(), "an experiment ran before the probe");
}
