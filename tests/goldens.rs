//! The committed goldens, checked through the binaries the way an operator
//! would reproduce them: the `S1 2 7 42` scenario is simulated, saved as a
//! segment store with `hpc-diagnose --save-store`, reported on, reopened
//! with `--from-store`, and queried.
//!
//! A golden that must change is rewritten from the same command lines with
//! the release binaries:
//!
//! ```sh
//! ./target/release/hpc-simulate /tmp/seg-logs S1 2 7 42
//! (cd /tmp/seg-logs && sha256sum p0-directory/console controller/controller.log \
//!   erd/event-20160101 scheduler/slurmctld.log) > testdata/golden-simulate-s1-2c-7d-seed42.sha256
//! ./target/release/hpc-diagnose /tmp/seg-logs --save-store /tmp/seg-store \
//!   > testdata/golden-report-s1-2c-7d-seed42.txt
//! (cd /tmp/seg-store && sha256sum seg-*.col derived.bin) \
//!   > testdata/golden-store-s1-2c-7d-seed42.sha256
//! # then each line of QUERY_MATRIX, in order:
//! ./target/release/hpc-query /tmp/seg-store count ... \
//!   > testdata/golden-queries-s1-2c-7d-seed42.txt
//! ```
//!
//! The `.sha256` files stay in `sha256sum -c` format, so they also check
//! by hand.

use std::path::{Path, PathBuf};
use std::process::Command;

use hpc_node_failures::telemetry::json;

mod support {
    pub mod sha256;
}
use support::sha256::hex_digest;

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

/// A committed file under `testdata`.
fn testdata(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("testdata")
        .join(name)
}

/// The golden scenario simulated into `dir/logs`.
fn golden_logs(dir: &Path) -> PathBuf {
    let logs = dir.join("logs");
    run(
        env!("CARGO_BIN_EXE_hpc-simulate"),
        &[&[logs.to_str().unwrap()][..], &SCENARIO].concat(),
    );
    logs
}

/// The golden scenario simulated into `dir/logs` and saved as a store in
/// `dir/store`, with the report that run printed.
fn golden_store(dir: &Path) -> (PathBuf, Vec<u8>) {
    let logs = golden_logs(dir);
    let store = dir.join("store");
    let report = run(
        env!("CARGO_BIN_EXE_hpc-diagnose"),
        &[
            logs.to_str().unwrap(),
            "--save-store",
            store.to_str().unwrap(),
        ],
    );
    (store, report)
}

/// Checks every file that `sums` (in `sha256sum` format, named relative to
/// `dir`) lists against its digest, as `sha256sum --strict -c` does, and
/// returns the names listed.
fn check_sums(dir: &Path, sums: &str) -> Vec<String> {
    let text = std::fs::read_to_string(testdata(sums)).unwrap();
    let mut names = Vec::new();
    for line in text.lines() {
        let (digest, name) = line
            .split_once("  ")
            .unwrap_or_else(|| panic!("{sums}: malformed line {line:?}"));
        assert_eq!(digest.len(), 64, "{sums}: malformed line {line:?}");
        let bytes = std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(hex_digest(&bytes), digest, "{name} differs from {sums}");
        names.push(name.to_string());
    }
    assert!(!names.is_empty(), "{sums} lists no file");
    names
}

/// The published FIPS 180-4 examples: the empty message, "abc", and the
/// 448-bit message whose padding spills into a second block.
#[test]
fn sha256_matches_the_fips_180_4_vectors() {
    assert_eq!(
        hex_digest(b""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        hex_digest(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    assert_eq!(
        hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

/// The simulator's four log files match the committed sums byte for byte.
#[test]
fn simulated_logs_match_the_committed_sha256_sums() {
    let dir = tmpdir("simulate");
    let logs = golden_logs(&dir);
    check_sums(&logs, "golden-simulate-s1-2c-7d-seed42.sha256");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The saved store's segments and `derived.bin` match the committed sums
/// (its `MANIFEST.json` names the source path, so it is left out), and
/// the store holds exactly the listed segments. The report printed by the
/// saving run and the one `--from-store` rebuilds are both the committed
/// report.
#[test]
fn saved_store_and_both_reports_match_the_committed_goldens() {
    let dir = tmpdir("store");
    let (store, report) = golden_store(&dir);
    let golden = std::fs::read(testdata("golden-report-s1-2c-7d-seed42.txt")).unwrap();
    assert!(
        report == golden,
        "the ingest report differs from the golden"
    );

    let listed = check_sums(&store, "golden-store-s1-2c-7d-seed42.sha256");
    let mut listed: Vec<String> = listed.into_iter().filter(|n| n.ends_with(".col")).collect();
    let mut segments: Vec<String> = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".col"))
        .collect();
    listed.sort();
    segments.sort();
    assert_eq!(
        segments, listed,
        "the store's segments are not the listed ones"
    );

    let reopened = run(
        env!("CARGO_BIN_EXE_hpc-diagnose"),
        &["--from-store", store.to_str().unwrap()],
    );
    assert!(
        reopened == golden,
        "the --from-store report differs from the golden"
    );
    std::fs::remove_dir_all(&dir).unwrap();
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
    let (store, _) = golden_store(&dir);
    let matrix: String = QUERY_MATRIX.iter().map(|q| query(&store, q)).collect();
    let golden = testdata("golden-queries-s1-2c-7d-seed42.txt");
    assert_eq!(matrix, std::fs::read_to_string(golden).unwrap());

    let n: f64 = query(&store, &["count"]).trim().parse().expect("a count");
    let answer = json::parse(&query(&store, &["count", "--json"])).expect("JSON");
    assert_eq!(answer.get("verb").and_then(|v| v.as_str()), Some("count"));
    assert_eq!(answer.get("count").and_then(|v| v.as_number()), Some(n));
    std::fs::remove_dir_all(&dir).unwrap();
}
