//! Generates a synthetic log archive on disk.
//!
//! ```text
//! hpc-simulate <output-dir> [system S1..S5] [cabinets N] [days N] [seed N]
//!              [--verbose] [--telemetry-json <path>]
//! cargo run --release --bin hpc-simulate -- /tmp/logs S1 2 7 42
//! ```
//!
//! Progress and the per-stage telemetry table go to stderr. `--verbose`
//! (or `HPC_TRACE=1`) adds a nested stage trace; `--telemetry-json`
//! writes the full metric registry as JSON.

use std::path::PathBuf;
use std::process::exit;

use hpc_node_failures::faultsim::Scenario;
use hpc_node_failures::logs::fs::save_archive;
use hpc_node_failures::logs::time::SimDuration;
use hpc_node_failures::platform::SystemId;
use hpc_node_failures::telemetry::{self, Flags};

const USAGE: &str =
    "usage: hpc-simulate <output-dir> [system S1..S5] [cabinets N] [days N] [seed N] \
     [--verbose] [--telemetry-json <path>]";

fn main() {
    let mut telemetry_json: Option<String> = None;
    let mut args = Vec::new();
    let mut flags = Flags::new(USAGE);
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--verbose" => telemetry::set_trace(true),
            "--telemetry-json" => telemetry_json = Some(flags.value()),
            _ if arg.starts_with("--") => flags.usage(),
            _ => args.push(arg),
        }
    }
    let Some(dir) = args.first() else {
        flags.usage()
    };
    let dir = PathBuf::from(dir);
    let system = match args.get(1).map(String::as_str).unwrap_or("S1") {
        "S1" => SystemId::S1,
        "S2" => SystemId::S2,
        "S3" => SystemId::S3,
        "S4" => SystemId::S4,
        "S5" => SystemId::S5,
        other => flags.refuse(&format!("unknown system {other:?}")),
    };
    let cabinets: u32 = args.get(2).map_or(2, |s| flags.parse(s));
    let days: u64 = args.get(3).map_or(7, |s| flags.parse(s));
    let seed: u64 = args.get(4).map_or(42, |s| flags.parse(s));
    if cabinets == 0 || SimDuration::horizon_days(days).is_none() {
        // A system has at least one cabinet; the topology cannot be empty.
        // Every instant simulated must render as a log timestamp.
        flags.usage();
    }
    if let Some(path) = &telemetry_json {
        // The JSON may go inside the output directory, which need not exist
        // yet; if it cannot be made, `save_archive` says so below.
        let _ = std::fs::create_dir_all(&dir);
        telemetry::probe_writable(path);
    }

    let scenario = Scenario::new(system, cabinets, days, seed);
    eprintln!(
        "simulating {system} ({} nodes) for {} days, seed {seed} ...",
        scenario.topology.node_count(),
        days
    );
    let out = scenario.run();
    if let Err(e) = save_archive(&out.archive, &dir) {
        eprintln!("failed to write archive: {e}");
        exit(1);
    }
    eprintln!(
        "wrote {} lines ({:.1} MiB) to {} — {} injected failures",
        out.archive.total_lines(),
        out.archive.total_bytes() as f64 / (1024.0 * 1024.0),
        dir.display(),
        out.truth.failures.len()
    );

    eprintln!();
    telemetry::exit_report(telemetry_json.as_deref());
}
