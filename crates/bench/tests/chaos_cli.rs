//! `hpc-chaos` and `experiments` command-line contract: a bad invocation
//! is the usage line and exit 2, never a panic.

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
        ],
    );
}
