//! `hpc-sysbench`: the outside-in system benchmark of the node-failure
//! diagnosis stack.
//!
//! ```text
//! hpc-sysbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload; the last stdout line is the result object
//!     (end-to-end metrics with --trace 0, per-layer metrics with 1)
//! hpc-sysbench all    [--seed n] [--seconds s]   every workload, untraced then traced
//! hpc-sysbench repeat [--seed n] [--seconds s] [--runs n]
//!     two untraced sets of n (3) runs per workload, medians compared with the bounds
//! hpc-sysbench spread [--seconds s] [--runs n]
//!     n (10) seeds per workload, quartile spread per metric
//! hpc-sysbench describe                          BENCHMARK.json from the catalogue
//! hpc-sysbench catalogue                         the metric catalogue as Markdown (README.md)
//! ```
//!
//! Each workload runs in a child process of this executable, so its
//! `VmHWM` is its own; the parent generates the inputs and hands them
//! over as files under `benchmark/out/`.

mod catalogue;
mod http;
mod inputs;
mod mix;
mod outcome;
mod probes;
mod rng;
mod stats;
mod summary;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use catalogue::{Kind, WorkloadSpec};
use outcome::{Outcome, SETUP_REPS};

/// One workload run, as the child process sees it.
pub struct Ctx {
    pub spec: &'static WorkloadSpec,
    /// Directory holding the generated inputs; scratch space besides.
    pub work: PathBuf,
    pub seed: u64,
    /// Seconds the timed phase lasts.
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    pub fn archive(&self) -> PathBuf {
        self.work.join(inputs::ARCHIVE_DIR)
    }
}

/// `benchmark/out/`: inputs, traces and result files. Resolved from the
/// manifest directory the executable was built in, which is the checkout
/// it runs in.
pub fn out_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

const RESULT_FILE: &str = "result.json";
const TRACE_FILE: &str = "trace.json";
pub const DEFAULT_SEED: u64 = 42;

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    work: Option<PathBuf>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<usize>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        work: None,
        seed: DEFAULT_SEED,
        seconds: catalogue::RUN_SECONDS as f64,
        trace: false,
        runs: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.to_string()),
            "--work" => o.work = Some(PathBuf::from(value)),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => o.runs = Some(value.parse().ok().filter(|n| *n >= 1).ok_or_else(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(o)
}

fn spec_of(o: &Options) -> Result<&'static WorkloadSpec, String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    catalogue::workload(name).ok_or_else(|| {
        let names: Vec<&str> = catalogue::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })
}

/// The child: runs the timed side of one workload over inputs already on
/// disk and writes its outcome beside them.
fn child(o: &Options) -> Result<(), String> {
    let ctx = Ctx {
        spec: spec_of(o)?,
        work: o.work.clone().ok_or("--work is required")?,
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
    };
    let outcome = if ctx.trace {
        probes::run(&ctx)
    } else {
        match ctx.spec.kind {
            Kind::Batch => workloads::batch::run(&ctx),
            Kind::Store => workloads::store::run(&ctx),
            Kind::Follow => workloads::follow::run(&ctx),
            Kind::Fleet => workloads::fleet::run(&ctx),
        }
    };
    std::fs::write(ctx.work.join(RESULT_FILE), outcome.to_json().to_string())
        .map_err(|e| format!("cannot write the outcome: {e}"))
}

/// The parent side of one workload run: generate, spawn, collect.
pub fn run_workload(
    spec: &'static WorkloadSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let io = |what: &str, e: std::io::Error| format!("{}: {what}: {e}", spec.name);
    let work = out_root().join(format!("{}-s{seed}-p{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| io("create work directory", e))?;

    // The stream path's feed file is needed by follow_paced and by the
    // traced run's stream probes.
    let feed = trace || spec.kind == Kind::Follow;
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut generated = inputs::Generated::default();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        generated =
            inputs::generate(spec, seed, &work, feed, trace).map_err(|e| io("generate", e))?;
        setup.push(start.elapsed().as_secs_f64());
    }

    let exe = std::env::current_exe().map_err(|e| io("locate the executable", e))?;
    let status = Command::new(exe)
        .arg("child")
        .args(["--workload", spec.name])
        .arg("--work")
        .arg(&work)
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .status()
        .map_err(|e| io("spawn the child", e))?;
    if !status.success() {
        let _ = std::fs::remove_dir_all(&work);
        return Err(format!("{}: child process ended with {status}", spec.name));
    }
    let text =
        std::fs::read_to_string(work.join(RESULT_FILE)).map_err(|e| io("read the outcome", e))?;
    let mut outcome = Outcome::from_json(&text)?;

    let child_setup = outcome.metrics.get("setup_s").copied().unwrap_or(0.0);
    outcome.set("setup_s", stats::median(&setup) + child_setup);
    outcome.set("faultsim.scenario.run_ms", generated.scenario_run_ms);
    if let Some(ms) = generated.chaos_corrupt_ms {
        outcome.set("faultsim.chaos.corrupt_ms", ms);
    }

    // Keep the small artefacts, drop the generated inputs.
    let keep = out_root();
    if trace {
        let _ = std::fs::rename(
            work.join(TRACE_FILE),
            keep.join(format!("trace-{}.json", spec.name)),
        );
    }
    let kept = keep.join(format!(
        "result-{}-trace{}.json",
        spec.name,
        if trace { 1 } else { 0 }
    ));
    let _ = std::fs::write(kept, outcome.to_json().pretty());
    let _ = std::fs::remove_dir_all(&work);
    Ok(outcome)
}

fn contract(o: &Options) -> Result<(), String> {
    let spec = spec_of(o)?;
    let outcome = run_workload(spec, o.seed, o.seconds, o.trace)?;
    eprint!("{}", summary::run_table(spec, &outcome, o.trace));
    println!("{}", summary::contract_line(&outcome, o.trace)?);
    Ok(())
}

fn usage() -> String {
    "usage: hpc-sysbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
     hpc-sysbench all|repeat [--seed n] [--seconds s] [--runs n]\n       \
     hpc-sysbench spread [--seconds s] [--runs n]\n       \
     hpc-sysbench describe|catalogue"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("child" | "all" | "repeat" | "spread" | "describe" | "catalogue")) => {
            (m, &args[1..])
        }
        Some(_) => ("contract", &args[..]),
        None => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = parse_options(rest).and_then(|o| match mode {
        "child" => child(&o),
        "contract" => contract(&o),
        "all" => summary::all(o.seed, o.seconds),
        "repeat" => summary::repeat(o.seed, o.seconds, o.runs.unwrap_or(3)),
        "spread" => summary::spread(o.runs.unwrap_or(10).max(2), o.seconds),
        "catalogue" => {
            print!("{}", catalogue::markdown());
            Ok(())
        }
        _ => {
            print!("{}", catalogue::benchmark_json().pretty());
            Ok(())
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hpc-sysbench: {e}");
            ExitCode::FAILURE
        }
    }
}
