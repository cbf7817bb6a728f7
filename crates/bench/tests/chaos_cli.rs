//! `hpc-chaos` command-line contract: a bad invocation is the usage line
//! and exit 2, never a panic.

use std::process::Command;

#[test]
fn chaos_rejects_bad_command_lines_with_usage() {
    let cases: [&[&str]; 5] = [
        &["--frobnicate"],
        &["--seed"],
        &["--days", "many"],
        &["--cabinets", "4294967297"],
        // Regression: zero cabinets panicked inside the topology RNG.
        &["--cabinets", "0"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_hpc-chaos"))
            .args(args)
            .output()
            .expect("run hpc-chaos");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
