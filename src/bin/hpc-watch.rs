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
//! a panic dumps it before the backtrace (DESIGN.md §11).

use std::io::BufRead;
use std::path::PathBuf;
use std::process::exit;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use hpc_node_failures::logs::event::LogSource;
use hpc_node_failures::logs::parse::guess_source;
use hpc_node_failures::logs::time::SimDuration;
use hpc_node_failures::stream::flight::{self, FlightRecorder};
use hpc_node_failures::stream::{
    signal, FollowDir, HeartbeatWriter, JsonlSink, StreamConfig, StreamEngine, StreamStats,
    TextSink,
};
use hpc_node_failures::telemetry;

/// Transitions the flight recorder retains.
const FLIGHT_CAPACITY: usize = 256;

fn usage() -> ! {
    eprintln!(
        "usage: hpc-watch (--stdin | --follow <log-dir>) [--require-external] \
         [--watermark-mins <n>] [--window-mins <n>] [--poll-ms <n>] \
         [--alerts-jsonl <path>] [--heartbeat-jsonl <path>] [--heartbeat-secs <n>] \
         [--flight-file <path>] [--quiet] [--telemetry-json <path>] [--verbose]"
    );
    exit(2)
}

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
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>| args.next().unwrap_or_else(|| usage());
    let number = |s: String| s.parse::<u64>().unwrap_or_else(|_| usage());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdin" => opts.stdin = true,
            "--follow" => opts.follow = Some(PathBuf::from(value(&mut args))),
            "--require-external" => opts.config.predictor.require_external = true,
            "--watermark-mins" => {
                opts.config.watermark = SimDuration::from_mins(number(value(&mut args)));
            }
            "--window-mins" => {
                opts.config.window = SimDuration::from_mins(number(value(&mut args)));
            }
            "--poll-ms" => opts.poll = Duration::from_millis(number(value(&mut args))),
            "--alerts-jsonl" => opts.alerts_jsonl = Some(value(&mut args)),
            "--heartbeat-jsonl" => opts.heartbeat_jsonl = Some(value(&mut args)),
            "--heartbeat-secs" => opts.heartbeat = Duration::from_secs(number(value(&mut args))),
            "--flight-file" => opts.flight_file = Some(value(&mut args)),
            "--quiet" => opts.quiet = true,
            "--telemetry-json" => opts.telemetry_json = Some(value(&mut args)),
            "--verbose" => telemetry::set_trace(true),
            _ => usage(),
        }
    }
    if opts.stdin == opts.follow.is_some() {
        // Exactly one input mode.
        usage();
    }
    opts
}

/// Periodic + final heartbeat emission. The single-final invariant (and
/// the flush-every-line behaviour that makes heartbeats survive any exit)
/// lives in [`HeartbeatWriter`]; this wrapper only adds the wall-clock
/// scheduling, so a signal drain racing the EOF drain can call `beat`
/// twice and still leave exactly one `"final": true` record in the file.
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

    fn beat(&mut self, engine: &StreamEngine, follow: Option<&FollowDir>, last: bool) {
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

    fn maybe_beat(&mut self, engine: &StreamEngine, follow: Option<&FollowDir>) {
        if self.last.elapsed() >= self.interval {
            self.beat(engine, follow, false);
        }
    }
}

/// Per-loop bookkeeping shared by both input modes: feeds the flight
/// recorder with state *transitions* (new alerts/failures, late-event and
/// quarantine changes) by diffing engine state against the last poll.
struct Monitor {
    heartbeat: Option<Heartbeat>,
    flight_file: Option<String>,
    last: StreamStats,
    seen_alerts: usize,
    seen_failures: usize,
    last_quarantined: usize,
}

impl Monitor {
    fn new(heartbeat: Option<Heartbeat>, flight_file: Option<String>) -> Monitor {
        Monitor {
            heartbeat,
            flight_file,
            last: StreamStats::default(),
            seen_alerts: 0,
            seen_failures: 0,
            last_quarantined: 0,
        }
    }

    /// Called once per loop iteration in both modes.
    fn observe(&mut self, engine: &StreamEngine, follow: Option<&FollowDir>) {
        let stats = engine.stats();
        for alert in &engine.alerts()[self.seen_alerts..] {
            flight::record_global(
                "alert",
                format!(
                    "{} node {} ({})",
                    alert.time,
                    alert.node.cname(),
                    if alert.backed_by_external {
                        "externally-backed"
                    } else {
                        "internal-only"
                    }
                ),
            );
        }
        self.seen_alerts = engine.alerts().len();
        for failure in &engine.failures()[self.seen_failures..] {
            flight::record_global(
                "failure",
                format!(
                    "{} node {} {:?}",
                    failure.time,
                    failure.node.cname(),
                    failure.terminal
                ),
            );
        }
        self.seen_failures = engine.failures().len();
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
            hb.maybe_beat(engine, follow);
        }
        if signal::take_dump_request() {
            flight::record_global("signal", "SIGUSR1: dump requested");
            self.dump_flight();
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

/// Routes one merged-stream line to its source by envelope sniffing.
/// Unrecognisable envelopes go to the console parser, which counts them
/// as skipped (same behaviour as garbage inside a known stream).
fn route(engine: &mut StreamEngine, line: &str) {
    let source = guess_source(line).unwrap_or(LogSource::Console);
    engine.push_line(source, line);
}

fn run_stdin(engine: &mut StreamEngine, monitor: &mut Monitor, poll: Duration) {
    // A detached reader thread turns the blocking stdin into a channel the
    // main loop can poll alongside the shutdown flag.
    let (tx, rx) = mpsc::sync_channel::<String>(4096);
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    loop {
        if signal::shutdown_requested() {
            eprintln!("hpc-watch: signal received, finishing ...");
            flight::record_global("signal", "SIGINT/SIGTERM: draining");
            break;
        }
        match rx.recv_timeout(poll) {
            Ok(line) => route(engine, &line),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                flight::record_global("eof", "stdin closed: draining");
                break;
            }
        }
        monitor.observe(engine, None);
    }
}

fn run_follow(
    engine: &mut StreamEngine,
    monitor: &mut Monitor,
    dir: &std::path::Path,
    poll: Duration,
) -> FollowDir {
    let mut follow = FollowDir::new(dir);
    loop {
        if signal::shutdown_requested() {
            eprintln!("hpc-watch: signal received, finishing ...");
            flight::record_global("signal", "SIGINT/SIGTERM: draining");
            break;
        }
        let fed = follow.poll_into(engine);
        monitor.observe(engine, Some(&follow));
        if fed == 0 {
            std::thread::sleep(poll);
        }
    }
    // Returned (not just its stats) so the drain path can emit a final
    // heartbeat that still carries the follow_* fields.
    follow
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

    let follow_dir = match &opts.follow {
        Some(dir) => {
            // Fail fast with one clear line on a missing or unreadable
            // archive root instead of silently polling it forever.
            if let Err(e) = std::fs::read_dir(dir) {
                eprintln!("cannot read log directory {}: {e}", dir.display());
                exit(1);
            }
            Some(dir.clone())
        }
        None => None,
    };
    let follow_tail = match &follow_dir {
        Some(dir) => Some(run_follow(&mut engine, &mut monitor, dir, opts.poll)),
        None => {
            run_stdin(&mut engine, &mut monitor, opts.poll);
            None
        }
    };

    // The drain path — identical for clean EOF and SIGINT/SIGTERM: finish
    // the engine (flushes alert sinks), write the final heartbeat, print
    // the summary, then persist telemetry. Nothing below is conditional on
    // *how* the input ended.
    engine.finish();
    if let Some(hb) = &mut monitor.heartbeat {
        hb.beat(&engine, follow_tail.as_ref(), true);
    }

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
    if let Some(fs) = follow_tail.as_ref().map(FollowDir::stats) {
        // Loss accounting per the degradation contract (DESIGN.md §10).
        eprintln!(
            "hpc-watch: follow degradation: {} io errors, {} quarantines ({} recovered), \
             {} rotations, {} invalid-utf8 lines sanitised",
            fs.io_errors, fs.quarantines, fs.recoveries, fs.rotations, fs.invalid_utf8,
        );
    }
    if let Some((blade, n)) = engine.window().hottest_blade() {
        eprintln!(
            "hpc-watch: hottest blade {} ({n} external events in window)",
            blade.cname()
        );
    }

    telemetry::exit_report(opts.telemetry_json.as_deref());
}
