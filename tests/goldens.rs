//! The committed goldens, checked through the binaries the way an operator
//! would reproduce them: the `S1 2 7 42` scenario is simulated, saved as a
//! segment store with `hpc-diagnose --save-store`, and queried.
//!
//! A golden that must change is rewritten from the same command lines with
//! the release binaries, e.g. for the query matrix
//!
//! ```sh
//! ./target/release/hpc-simulate /tmp/seg-logs S1 2 7 42
//! ./target/release/hpc-diagnose /tmp/seg-logs --save-store /tmp/seg-store > /dev/null
//! # then each line of QUERY_MATRIX, in order:
//! ./target/release/hpc-query /tmp/seg-store count ... \
//!   > testdata/golden-queries-s1-2c-7d-seed42.txt
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use hpc_node_failures::telemetry::json;

/// The golden scenario: system, cabinets, days, seed.
const SCENARIO: [&str; 4] = ["S1", "2", "7", "42"];

/// The `hpc-query` verb matrix behind
/// `testdata/golden-queries-s1-2c-7d-seed42.txt`, in file order:
/// count, histogram, tail and failures over class, entity, blade, cabinet
/// and time filters, the spatial predicates (the paper's blade and cabinet
/// questions) last.
const QUERY_MATRIX: [&[&str]; 11] = [
    &["count"],
    &["count", "--class", "kernel_panic"],
    &["count", "--node", "nid00005"],
    &["histogram", "--by", "class"],
    &["histogram", "--by", "day", "--class", "mce"],
    &["histogram", "--by", "cabinet"],
    &["tail", "-n", "5"],
    &["failures"],
    &["count", "--blade", "10"],
    &["failures", "--cabinet", "1"],
    &["tail", "-n", "3", "--cabinet", "1"],
];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpc-goldens-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `bin` on `args` and returns its stdout; a failed run fails the
/// test.
fn run(bin: &str, args: &[&str]) -> Vec<u8> {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"));
    assert!(out.status.success(), "{bin} {args:?}: {out:?}");
    out.stdout
}

/// The golden scenario simulated into `dir/logs` and saved as a store in
/// `dir/store`.
fn golden_store(dir: &Path) -> PathBuf {
    let (logs, store) = (dir.join("logs"), dir.join("store"));
    let logs_arg = logs.to_str().unwrap();
    run(
        env!("CARGO_BIN_EXE_hpc-simulate"),
        &[&[logs_arg][..], &SCENARIO].concat(),
    );
    let store_arg = store.to_str().unwrap();
    run(
        env!("CARGO_BIN_EXE_hpc-diagnose"),
        &[logs_arg, "--save-store", store_arg],
    );
    store
}

fn query(store: &Path, args: &[&str]) -> String {
    let out = run(
        env!("CARGO_BIN_EXE_hpc-query"),
        &[&[store.to_str().unwrap()][..], args].concat(),
    );
    String::from_utf8(out).expect("hpc-query writes UTF-8")
}

/// Every query of the matrix answers byte for byte as the committed
/// capture, and `count --json` agrees with the text `count`.
#[test]
fn query_verb_matrix_matches_the_committed_golden_output() {
    let dir = tmpdir("queries");
    let store = golden_store(&dir);
    let matrix: String = QUERY_MATRIX.iter().map(|q| query(&store, q)).collect();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("testdata")
        .join("golden-queries-s1-2c-7d-seed42.txt");
    assert_eq!(matrix, std::fs::read_to_string(golden).unwrap());

    let n: f64 = query(&store, &["count"]).trim().parse().expect("a count");
    let answer = json::parse(&query(&store, &["count", "--json"])).expect("JSON");
    assert_eq!(answer.get("verb").and_then(|v| v.as_str()), Some("count"));
    assert_eq!(answer.get("count").and_then(|v| v.as_number()), Some(n));
    std::fs::remove_dir_all(&dir).unwrap();
}
