//! The `experiments` and `hpc-chaos` goldens, checked through the binaries:
//! the validation and stack-trace ablation text byte for byte, and the
//! chaos campaign's scorecard invariants.
//!
//! The validation golden, when it must change, is rewritten from the same
//! command line with the release binary:
//!
//! ```sh
//! ./target/release/experiments validation ablation-trace \
//!   > testdata/golden-experiments-validation.txt
//! ```

use std::path::Path;
use std::process::Command;

use hpc_telemetry::json::{self, JsonValue};

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

/// Per-system detection and cause accuracy scored against ground truth,
/// and the 31-trace ablation, match the committed text: a change to the
/// truth matcher, the cause map, classification or the scenarios shows
/// here.
#[test]
fn validation_and_ablation_match_the_committed_golden() {
    let out = run(
        env!("CARGO_BIN_EXE_experiments"),
        &["validation", "ablation-trace"],
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../testdata/golden-experiments-validation.txt");
    let golden = std::fs::read(golden).unwrap();
    let first_difference = (out.iter().zip(&golden)).position(|(a, b)| a != b);
    assert!(
        out == golden,
        "the output differs from the golden at byte {:?} ({} vs {} bytes)",
        first_difference,
        out.len(),
        golden.len()
    );
}

/// The member `key` of a scorecard cell.
fn field<'a>(cell: &'a JsonValue, key: &str) -> &'a JsonValue {
    cell.get(key)
        .unwrap_or_else(|| panic!("a cell without {key}: {cell:?}"))
}

/// The cells whose `key` is the string `value`.
fn cells_where<'a>(cells: &'a [JsonValue], key: &str, value: &str) -> Vec<&'a JsonValue> {
    let matches = |c: &&JsonValue| field(c, key).as_str() == Some(value);
    cells.iter().filter(matches).collect()
}

fn skipped(cell: &JsonValue) -> f64 {
    field(cell, "skipped").as_number().expect("a skipped count")
}

/// The campaign's scorecard: no cell failed and all 19 ran; the clean
/// batch cell reproduces the golden report with no line skipped; the store
/// cell reproduces it and passes; both garbage cells leave a visible skip
/// count, never a silent drop.
#[test]
fn chaos_scorecard_holds_its_invariants() {
    let dir = std::env::temp_dir().join(format!("hpc-chaos-scorecard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scorecard.json");
    run(
        env!("CARGO_BIN_EXE_hpc-chaos"),
        &["--json", path.to_str().unwrap()],
    );
    let card = json::parse(&std::fs::read_to_string(&path).unwrap()).expect("JSON");
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(field(&card, "failed").as_number(), Some(0.0));
    let cells = field(&card, "cells").as_array().expect("a cell array");
    assert_eq!(cells.len(), 19);

    let yes = &JsonValue::Bool(true);
    let clean = cells_where(cells, "pathology", "clean");
    let batch: Vec<_> = clean
        .into_iter()
        .filter(|c| field(c, "mode").as_str() == Some("batch"))
        .collect();
    assert!(!batch.is_empty(), "no clean batch cell");
    for cell in batch {
        assert_eq!(field(cell, "golden_identical"), yes, "{cell:?}");
        assert_eq!(skipped(cell), 0.0, "{cell:?}");
    }

    let store = cells_where(cells, "mode", "store");
    assert!(!store.is_empty(), "no store cell");
    for cell in store {
        assert_eq!(field(cell, "golden_identical"), yes, "{cell:?}");
        assert_eq!(field(cell, "passed"), yes, "{cell:?}");
    }

    let garbage = cells_where(cells, "pathology", "garbage");
    assert_eq!(garbage.len(), 2, "{garbage:?}");
    for cell in garbage {
        assert!(skipped(cell) > 0.0, "a silent drop: {cell:?}");
    }
}
