//! Live, bounded-memory diagnosis over a log stream.
//!
//! ```text
//! hpc-watch --stdin [options]                # merged lines on stdin
//! hpc-watch --follow <log-dir> [options]     # tail an archive directory
//!
//! options:
//!   --require-external        gate alerts on external correlation
//!   --watermark-mins <n>      out-of-order admission bound (default 10)
//!   --window-mins <n>         sliding-window retention (default 360)
//!   --poll-ms <n>             idle poll interval (default 200)
//!   --alerts-jsonl <path>     append alerts/failures as JSON lines
//!   --heartbeat-jsonl <path>  append periodic engine snapshots as JSON lines
//!   --heartbeat-secs <n>      heartbeat interval (default 5)
//!   --flight-file <path>      also write flight-recorder dumps here
//!   --quiet                   no per-alert text on stderr
//!   --telemetry-json <path>   write the metric registry as JSON on exit
//!   --verbose                 stage trace on stderr
//! ```
//!
//! In `--stdin` mode each line is routed to its parser by envelope sniffing
//! (`guess_source`), so the four streams can be interleaved arbitrarily —
//! `cat console controller erd slurmctld.log | sort -s -k1,2` works, and so
//! does any line-granular multiplexer. In `--follow` mode the four
//! conventional files under the directory are tailed like `tail -F`.
//!
//! SIGINT/SIGTERM trigger a graceful finish: buffered events drain, open
//! incidents finalize, sinks flush, the final heartbeat and telemetry JSON
//! are written, the summary prints, exit code 0. The exit artefacts are
//! written by the same drain path on *every* way out — clean EOF or signal
//! (`tests/cli.rs` holds stdin open on a FIFO and SIGTERMs to prove it).
//!
//! A bounded flight recorder retains the last 256 state transitions
//! (alerts, failures, quarantine flips, signals, heartbeats). SIGUSR1
//! dumps it to stderr (and `--flight-file`) without stopping the monitor;
//! a panic dumps it before the backtrace (DESIGN.md §7).

use std::path::PathBuf;
use std::process::exit;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hpc_node_failures::diagnosis::detection::DetectedFailure;
use hpc_node_failures::diagnosis::prediction::Alert;
use hpc_node_failures::logs::time::SimDuration;
use hpc_node_failures::stream::drive::{drive, stdin_lines, Feed};
use hpc_node_failures::stream::flight::{self, FlightRecorder};
use hpc_node_failures::stream::sink::{alert_text, failure_text};
use hpc_node_failures::stream::{
    signal, AlertSink, FollowDir, HeartbeatWriter, JsonlSink, StreamConfig, StreamEngine,
    StreamStats, TextSink,
};
use hpc_node_failures::telemetry::{self, Flags};

/// Transitions the flight recorder retains.
const FLIGHT_CAPACITY: usize = 256;

const USAGE: &str = "usage: hpc-watch (--stdin | --follow <log-dir>) [--require-external] \
     [--watermark-mins <n>] [--window-mins <n>] [--poll-ms <n>] \
     [--alerts-jsonl <path>] [--heartbeat-jsonl <path>] [--heartbeat-secs <n>] \
     [--flight-file <path>] [--quiet] [--telemetry-json <path>] [--verbose]";

struct Options {
    follow: Option<PathBuf>,
    stdin: bool,
    config: StreamConfig,
    poll: Duration,
    alerts_jsonl: Option<String>,
    heartbeat_jsonl: Option<String>,
    heartbeat: Duration,
    flight_file: Option<String>,
    quiet: bool,
    telemetry_json: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        follow: None,
        stdin: false,
        config: StreamConfig::default(),
        poll: Duration::from_millis(200),
        alerts_jsonl: None,
        heartbeat_jsonl: None,
        heartbeat: Duration::from_secs(5),
        flight_file: None,
        quiet: false,
        telemetry_json: None,
    };
    let mut args = Flags::new(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdin" => opts.stdin = true,
            "--follow" => opts.follow = Some(PathBuf::from(args.value())),
            "--require-external" => opts.config.require_external = true,
            "--watermark-mins" => opts.config.watermark = SimDuration::from_mins(args.parsed()),
            "--window-mins" => opts.config.window = SimDuration::from_mins(args.parsed()),
            "--poll-ms" => opts.poll = Duration::from_millis(args.parsed()),
            "--alerts-jsonl" => opts.alerts_jsonl = Some(args.value()),
            "--heartbeat-jsonl" => opts.heartbeat_jsonl = Some(args.value()),
            "--heartbeat-secs" => opts.heartbeat = Duration::from_secs(args.parsed()),
            "--flight-file" => opts.flight_file = Some(args.value()),
            "--quiet" => opts.quiet = true,
            "--telemetry-json" => opts.telemetry_json = Some(args.value()),
            "--verbose" => telemetry::set_trace(true),
            _ => args.usage(),
        }
    }
    if opts.stdin == opts.follow.is_some() {
        // Exactly one input mode.
        args.usage();
    }
    opts
}

/// Periodic + final heartbeat emission. The single-final invariant (and
/// the flush-every-line behaviour that makes heartbeats survive any exit)
/// lives in [`HeartbeatWriter`]; this wrapper only adds the wall-clock
/// scheduling.
struct Heartbeat {
    writer: HeartbeatWriter<std::fs::File>,
    interval: Duration,
    started: Instant,
    last: Instant,
}

impl Heartbeat {
    fn open(path: &str, interval: Duration) -> Heartbeat {
        match std::fs::File::create(path) {
            Ok(out) => Heartbeat {
                writer: HeartbeatWriter::new(out),
                interval,
                started: Instant::now(),
                last: Instant::now(),
            },
            Err(e) => {
                eprintln!("cannot open {path}: {e}");
                exit(1);
            }
        }
    }

    /// Writes a record when one is due, and always when `last`.
    fn tick(&mut self, engine: &StreamEngine, follow: Option<&FollowDir>, last: bool) {
        if !last && self.last.elapsed() < self.interval {
            return;
        }
        let health = follow.map(FollowDir::health);
        let seq = self.writer.seq();
        let written = self.writer.beat(
            self.started.elapsed().as_millis() as u64,
            last,
            &engine.stats(),
            engine.outstanding_alerts(),
            health.as_ref(),
        );
        if written {
            flight::record_global("heartbeat", format!("seq {seq} written"));
        }
        self.last = Instant::now();
    }
}

/// Records every settled alert and failure in the flight recorder, in the
/// words of its stderr line.
struct FlightSink;

impl AlertSink for FlightSink {
    fn alert(&mut self, alert: &Alert) {
        flight::record_global("alert", format!("{} {}", alert.time, alert_text(alert)));
    }

    fn failure(&mut self, failure: &DetectedFailure, lead: Option<SimDuration>) {
        let text = failure_text(failure, lead);
        flight::record_global("failure", format!("{} {text}", failure.time));
    }

    fn flush(&mut self) {}
}

/// The driver's observer: feeds the flight recorder with the late-event
/// and quarantine *transitions* by diffing engine state against the last
/// call (alerts and failures reach it through [`FlightSink`]), keeps the
/// heartbeat schedule, and writes the exit artefacts on the final call.
struct Monitor {
    heartbeat: Option<Heartbeat>,
    flight_file: Option<String>,
    last: StreamStats,
    last_quarantined: usize,
}

impl Monitor {
    fn new(heartbeat: Option<Heartbeat>, flight_file: Option<String>) -> Monitor {
        Monitor {
            heartbeat,
            flight_file,
            last: StreamStats::default(),
            last_quarantined: 0,
        }
    }

    fn observe(&mut self, engine: &StreamEngine, follow: Option<&FollowDir>, finished: bool) {
        if finished && !signal::shutdown_requested() {
            flight::record_global("eof", "stdin closed: drained");
        }
        let stats = engine.stats();
        if stats.late_events > self.last.late_events {
            flight::record_global(
                "late",
                format!(
                    "{} events dropped behind the watermark (total {})",
                    stats.late_events - self.last.late_events,
                    stats.late_events
                ),
            );
        }
        if let Some(f) = follow {
            let q = f.quarantined();
            if q != self.last_quarantined {
                flight::record_global(
                    "quarantine",
                    format!(
                        "{} source(s) in error backoff (was {})",
                        q, self.last_quarantined
                    ),
                );
                self.last_quarantined = q;
            }
        }
        self.last = stats;
        if let Some(hb) = &mut self.heartbeat {
            hb.tick(engine, follow, finished);
        }
        if signal::take_dump_request() {
            flight::record_global("signal", "SIGUSR1: dump requested");
            self.dump_flight();
        }
        if finished {
            summary(engine, follow);
        }
    }

    fn dump_flight(&self) {
        flight::dump_global(&mut std::io::stderr().lock());
        if let Some(path) = &self.flight_file {
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                Ok(mut f) => flight::dump_global(&mut f),
                Err(e) => eprintln!("cannot open flight file {path}: {e}"),
            }
        }
    }
}

/// The drained engine's closing lines on stderr.
fn summary(engine: &StreamEngine, follow: Option<&FollowDir>) {
    let stats = engine.stats();
    eprintln!(
        "hpc-watch: {} lines, {} events ({} late, {} lines skipped) | \
         {} alerts ({} expired unmatched) | {} failures ({} predicted, {} missed) | \
         window {} events now, {} peak, {} evicted",
        stats.lines,
        stats.events,
        stats.late_events,
        stats.skipped_lines,
        stats.alerts,
        stats.expired_alerts,
        stats.failures,
        stats.predicted_failures,
        stats.missed_failures,
        stats.window_events,
        stats.window_peak,
        stats.window_evicted,
    );
    if let Some(fs) = follow.map(FollowDir::stats) {
        // Loss accounting per the degradation contract (DESIGN.md §10).
        eprintln!(
            "hpc-watch: follow degradation: {} io errors, {} quarantines ({} recovered), \
             {} rotations, {} invalid-utf8 lines sanitised",
            fs.io_errors, fs.quarantines, fs.recoveries, fs.rotations, fs.invalid_utf8,
        );
    } else {
        let invalid = telemetry::counter("stream.follow.invalid_utf8").get();
        if invalid > 0 {
            eprintln!("hpc-watch: stdin degradation: {invalid} invalid-utf8 lines sanitised");
        }
    }
    if let Some((blade, n)) = engine.window().hottest_blade() {
        eprintln!(
            "hpc-watch: hottest blade {} ({n} external events in window)",
            blade.cname()
        );
    }
}

fn main() {
    let opts = parse_args();
    // An unwritable output is reported now, not after hours of monitoring.
    for path in opts.telemetry_json.iter().chain(&opts.flight_file) {
        telemetry::probe_writable(path);
    }
    signal::install(true);
    flight::install_global(Arc::new(Mutex::new(FlightRecorder::new(FLIGHT_CAPACITY))));
    flight::install_panic_hook();

    let mut engine = StreamEngine::new(opts.config);
    engine.add_sink(Box::new(FlightSink));
    if !opts.quiet {
        engine.add_sink(Box::new(TextSink::new(std::io::stderr())));
    }
    if let Some(path) = &opts.alerts_jsonl {
        match std::fs::File::create(path) {
            Ok(f) => engine.add_sink(Box::new(JsonlSink::new(std::io::BufWriter::new(f)))),
            Err(e) => {
                eprintln!("cannot open {path}: {e}");
                exit(1);
            }
        }
    }
    let heartbeat = opts
        .heartbeat_jsonl
        .as_deref()
        .map(|path| Heartbeat::open(path, opts.heartbeat));
    let mut monitor = Monitor::new(heartbeat, opts.flight_file.clone());
    flight::record_global("start", "engine configured");

    let feed = match opts.follow {
        Some(dir) => {
            // Fail fast with one clear line on a missing or unreadable
            // archive root instead of silently polling it forever.
            if let Err(e) = std::fs::read_dir(&dir) {
                eprintln!("cannot read log directory {}: {e}", dir.display());
                exit(1);
            }
            Feed::Follow(dir)
        }
        None => Feed::Lines(stdin_lines()),
    };
    let stop = || {
        let requested = signal::shutdown_requested();
        if requested {
            eprintln!("hpc-watch: signal received, finishing ...");
            flight::record_global("signal", "SIGINT/SIGTERM: draining");
        }
        requested
    };
    // The drain is the same for clean EOF and SIGINT/SIGTERM: the driver
    // finishes the engine (flushing the alert sinks), the monitor's final
    // call writes the final heartbeat and the summary, then telemetry is
    // persisted. Nothing below is conditional on *how* the input ended.
    drive(
        &mut engine,
        feed,
        opts.poll,
        stop,
        |engine, follow, finished| monitor.observe(engine, follow, finished),
    );

    telemetry::exit_report(opts.telemetry_json.as_deref());
}
