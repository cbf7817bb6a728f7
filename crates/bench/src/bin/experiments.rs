//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p hpc-bench --bin experiments -- list
//! cargo run --release -p hpc-bench --bin experiments -- fig13
//! cargo run --release -p hpc-bench --bin experiments -- all
//! cargo run --release -p hpc-bench --bin experiments -- all --out results/
//! ```
//!
//! With `--out DIR`, each experiment's output is additionally written to
//! `DIR/<id>.txt`, and the telemetry registry accumulated across the runs
//! (per-stage wall times, ingest counts) to `DIR/telemetry.json` — the
//! machine-readable perf record that accompanies the figures. An output
//! that cannot be written is one line on stderr and exit 1: the telemetry
//! file is probed before any experiment runs, an `<id>.txt` when it is
//! written.

use std::path::{Path, PathBuf};

use hpc_bench::{find, Experiment, EXPERIMENTS};
use hpc_telemetry::Flags;

const USAGE: &str = "usage: experiments <id>...|all|list [--out DIR]";

fn main() {
    let mut out_dir: Option<PathBuf> = None;
    let mut ids = Vec::new();
    let mut flags = Flags::new(USAGE);
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--out" => out_dir = Some(PathBuf::from(flags.value())),
            _ if arg.starts_with("--") => flags.usage(),
            _ => ids.push(arg),
        }
    }
    let Some(first) = ids.first() else {
        flags.usage()
    };
    if ids.len() > 1 && ids.iter().any(|id| id == "all" || id == "list") {
        flags.refuse("`all` and `list` take no other experiment id");
    }
    if first == "list" {
        eprintln!("{USAGE}\n\navailable experiments:");
        for e in EXPERIMENTS {
            eprintln!("  {:<16} {}", e.id, e.description);
        }
        return;
    }
    let all = first == "all";
    let selected: Vec<&Experiment> = if all {
        EXPERIMENTS.iter().collect()
    } else {
        let known = |id: &String| {
            find(id).unwrap_or_else(|| {
                flags.refuse(&format!(
                    "unknown experiment {id:?} (try `experiments list`)"
                ))
            })
        };
        ids.iter().map(known).collect()
    };
    let cannot_write = |path: &Path, err: std::io::Error| -> ! {
        eprintln!("cannot write {}: {err}", path.display());
        std::process::exit(1);
    };
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        });
        hpc_telemetry::probe_writable(&dir.join("telemetry.json").to_string_lossy());
    }

    for e in selected {
        if all {
            eprintln!("[running {}]", e.id);
        }
        let text = (e.run)();
        print!("{text}");
        if all {
            println!();
        }
        if let Some(dir) = &out_dir {
            let path = dir.join(format!("{}.txt", e.id));
            if let Err(err) = std::fs::write(&path, text) {
                cannot_write(&path, err);
            }
        }
    }
    if let Some(dir) = &out_dir {
        let path = dir.join("telemetry.json");
        if let Err(err) = std::fs::write(&path, hpc_telemetry::snapshot().to_json()) {
            cannot_write(&path, err);
        }
        eprintln!("telemetry JSON written to {}", path.display());
    }
}
