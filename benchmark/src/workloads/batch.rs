//! `batch_telemetry`, `batch_failures`, `batch_chaos`: archive directory
//! on disk to the full report string, through the calls `hpc-diagnose`
//! makes.

use std::path::Path;
use std::time::Instant;

use hpc_diagnosis::jobs::JobLog;
use hpc_diagnosis::{report, Diagnosis, DiagnosisConfig};

use crate::inputs::count_lines;
use crate::outcome::{peak_rss_mb, repeated_setup, timed_ms, Outcome};
use crate::stats;
use crate::Ctx;

/// Fewest timed operations a run holds, however short `--seconds` is.
const MIN_OPS: usize = 5;

/// The operation: what `hpc-diagnose <dir>` computes and prints.
pub fn diagnose(archive: &Path, config: DiagnosisConfig) -> String {
    let d = Diagnosis::from_dir(archive, config).expect("archive directory is readable");
    let jobs = JobLog::from_diagnosis(&d);
    report::full_report(&d, &jobs)
}

fn sequential() -> DiagnosisConfig {
    DiagnosisConfig {
        parallel_ingest: false,
        ..DiagnosisConfig::default()
    }
}

/// The report of the sequential path: in memory for a clean archive;
/// for the corrupted one the sequential `from_dir`, since lossy decoding
/// happens at the file boundary.
pub fn reference_report(archive: &Path, chaos: bool) -> String {
    if chaos {
        return diagnose(archive, sequential());
    }
    let loaded = hpc_logs::fs::load_archive(archive).expect("archive directory is readable");
    let d = Diagnosis::from_archive(&loaded, sequential());
    report::full_report(&d, &JobLog::from_diagnosis(&d))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let archive = ctx.archive();

    // Set-up: the line count the throughput divides by, and the warm-up
    // operation (page cache, allocator, lazy statics).
    let ((lines, first), setup_s) = repeated_setup(|| {
        let lines = count_lines(&archive).expect("archive directory is readable");
        (lines, diagnose(&archive, DiagnosisConfig::default()))
    });

    let mut op_ms = Vec::new();
    let start = Instant::now();
    while op_ms.len() < MIN_OPS || start.elapsed().as_secs_f64() < ctx.seconds {
        let (text, ms) = timed_ms(|| diagnose(&archive, DiagnosisConfig::default()));
        out.attempted += 1;
        if text != first {
            out.fail(1, || {
                format!("operation {} rendered a different report", op_ms.len())
            });
        }
        op_ms.push(ms);
    }
    out.set("peak_rss_mb", peak_rss_mb());

    let reference = reference_report(&archive, ctx.spec.chaos);
    if first != reference {
        out.fail(out.attempted - out.failed, || {
            format!(
                "report differs from the sequential reference ({} vs {} bytes)",
                first.len(),
                reference.len()
            )
        });
    }
    if !first.contains("=== advisories ===") || lines == 0 {
        out.fail(1, || {
            "report is incomplete or the archive is empty".to_string()
        });
    }

    out.set("setup_s", setup_s);
    out.set(
        "throughput_per_s",
        lines as f64 / (stats::median(&op_ms) / 1e3),
    );
    out.set("lines", lines as f64);
    out.set_latency(op_ms, ctx.spec.tail_permille);
    out
}
