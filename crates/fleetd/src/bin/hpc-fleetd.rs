//! Always-on multi-cluster diagnosis daemon with an HTTP/JSON read path.
//!
//! ```text
//! hpc-fleetd --system S1=dir1 --system S2=dir2 --listen 127.0.0.1:8080
//!
//! feeds (repeatable; at least one):
//!   --system NAME=DIR         tail DIR like hpc-watch --follow
//!   --replay NAME=DIR         read DIR once, drain, keep serving
//!   --stdin NAME              route stdin lines to shard NAME (once)
//!   --backfill NAME=STORE[,t0_ms,t1_ms]
//!                             pre-warm NAME from a segment store,
//!                             optionally range-pruned (load_range)
//!   --query-store NAME=DIR    serve /v1/systems/NAME/query straight
//!                             from the segment store at DIR (lazy
//!                             planner; no full decode at startup)
//!
//! options:
//!   --listen ADDR             bind address (default 127.0.0.1:8080)
//!   --workers N               HTTP worker threads (default 4)
//!   --queue N                 accept queue depth before 503 (default 64)
//!   --watermark-mins N        out-of-order admission bound (default 10)
//!   --window-mins N           sliding-window retention (default 360)
//!   --poll-ms N               shard idle poll interval (default 200)
//!   --telemetry-json PATH     write the metric registry as JSON on exit
//!   --quiet                   suppress the startup banner
//! ```
//!
//! Endpoints: `/v1/systems`, `/v1/systems/{id}`, `/{id}/window`,
//! `/{id}/alerts`, `/{id}/failures`, `/{id}/report` (each of these five
//! rendered once per generation, ETag/304), `/{id}/query` (with
//! `--query-store`), `/metrics`. SIGINT/SIGTERM drain gracefully: the
//! acceptor stops, in-flight responses complete, shards finish their
//! engines, the final telemetry prints, exit 0.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hpc_fleet::shard::{self, BackfillSpec, Feed, ShardConfig};
use hpc_fleet::{serve, Fleet, QueryStore, ServerConfig};
use hpc_logs::time::{SimDuration, SimTime};
use hpc_stream::drive::stdin_lines;
use hpc_stream::{signal, StreamConfig};
use hpc_telemetry::Flags;

const USAGE: &str = "usage: hpc-fleetd (--system NAME=DIR | --replay NAME=DIR | --stdin NAME)... \
     [--backfill NAME=STORE[,t0_ms,t1_ms]] [--query-store NAME=DIR] \
     [--listen ADDR] [--workers N] [--queue N] \
     [--watermark-mins N] [--window-mins N] [--poll-ms N] \
     [--telemetry-json PATH] [--quiet]";

enum FeedSpec {
    Follow(String, PathBuf),
    Replay(String, PathBuf),
    Stdin(String),
}

struct Options {
    feeds: Vec<FeedSpec>,
    backfills: Vec<(String, BackfillSpec)>,
    query_stores: Vec<(String, PathBuf)>,
    listen: String,
    workers: usize,
    queue: usize,
    config: StreamConfig,
    poll: Duration,
    telemetry_json: Option<String>,
    quiet: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        feeds: Vec::new(),
        backfills: Vec::new(),
        query_stores: Vec::new(),
        listen: "127.0.0.1:8080".to_string(),
        workers: 4,
        queue: 64,
        config: StreamConfig::default(),
        poll: Duration::from_millis(200),
        telemetry_json: None,
        quiet: false,
    };
    let mut args = Flags::new(USAGE);
    let name_eq = |args: &mut Flags| -> (String, PathBuf) {
        match args.value().split_once('=') {
            Some((name, dir)) if !name.is_empty() && !dir.is_empty() => {
                (name.to_string(), PathBuf::from(dir))
            }
            _ => args.usage(),
        }
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--system" => {
                let (name, dir) = name_eq(&mut args);
                opts.feeds.push(FeedSpec::Follow(name, dir));
            }
            "--replay" => {
                let (name, dir) = name_eq(&mut args);
                opts.feeds.push(FeedSpec::Replay(name, dir));
            }
            "--stdin" => opts.feeds.push(FeedSpec::Stdin(args.value())),
            "--backfill" => {
                let (name, spec) = name_eq(&mut args);
                let spec = spec.to_string_lossy().into_owned();
                let mut parts = spec.split(',');
                let store = PathBuf::from(parts.next().unwrap_or_default());
                let from = parts.next().map(|v| SimTime::from_millis(args.parse(v)));
                let to = parts.next().map(|v| SimTime::from_millis(args.parse(v)));
                if parts.next().is_some() || store.as_os_str().is_empty() {
                    args.usage();
                }
                opts.backfills
                    .push((name, BackfillSpec { store, from, to }));
            }
            "--query-store" => opts.query_stores.push(name_eq(&mut args)),
            "--listen" => opts.listen = args.value(),
            "--workers" => opts.workers = args.parsed(),
            "--queue" => opts.queue = args.parsed(),
            "--watermark-mins" => opts.config.watermark = SimDuration::from_mins(args.parsed()),
            "--window-mins" => opts.config.window = SimDuration::from_mins(args.parsed()),
            "--poll-ms" => opts.poll = Duration::from_millis(args.parsed()),
            "--telemetry-json" => opts.telemetry_json = Some(args.value()),
            "--quiet" => opts.quiet = true,
            _ => args.usage(),
        }
    }
    if opts.feeds.is_empty() || opts.workers == 0 || opts.queue == 0 {
        args.usage();
    }
    let stdin_feeds = opts
        .feeds
        .iter()
        .filter(|f| matches!(f, FeedSpec::Stdin(_)))
        .count();
    if stdin_feeds > 1 {
        eprintln!("hpc-fleetd: at most one --stdin shard (stdin is one stream)");
        exit(2);
    }
    let mut names: Vec<&str> = opts
        .feeds
        .iter()
        .map(|f| match f {
            FeedSpec::Follow(n, _) | FeedSpec::Replay(n, _) | FeedSpec::Stdin(n) => n.as_str(),
        })
        .collect();
    names.sort_unstable();
    if names.windows(2).any(|w| w[0] == w[1]) {
        eprintln!("hpc-fleetd: duplicate system name");
        exit(2);
    }
    for (name, _) in &opts.backfills {
        if !names.iter().any(|n| n == name) {
            eprintln!("hpc-fleetd: --backfill names unknown system `{name}`");
            exit(2);
        }
    }
    for (name, _) in &opts.query_stores {
        if !names.iter().any(|n| n == name) {
            eprintln!("hpc-fleetd: --query-store names unknown system `{name}`");
            exit(2);
        }
    }
    opts
}

fn main() {
    let mut opts = parse_args();
    if let Some(path) = &opts.telemetry_json {
        hpc_telemetry::probe_writable(path);
    }
    signal::install(false);

    // Bind before spawning anything: a taken port should fail fast.
    let listener = match TcpListener::bind(&opts.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("hpc-fleetd: cannot bind {}: {e}", opts.listen);
            exit(1);
        }
    };

    let shutdown = Arc::new(AtomicBool::new(false));
    let mut shards = Vec::new();
    for feed in opts.feeds.drain(..) {
        let (name, feed) = match feed {
            FeedSpec::Follow(name, dir) => (name, Feed::Follow(dir)),
            FeedSpec::Replay(name, dir) => (name, Feed::Replay(dir)),
            // EOF on stdin lets the shard drain and finish; the server
            // keeps serving its last snapshot.
            FeedSpec::Stdin(name) => (name, Feed::Lines(stdin_lines())),
        };
        let backfill = opts
            .backfills
            .iter()
            .position(|(n, _)| *n == name)
            .map(|i| opts.backfills.swap_remove(i).1);
        match shard::spawn(
            ShardConfig {
                name: name.clone(),
                feed,
                stream: opts.config,
                poll: opts.poll,
                backfill,
            },
            Arc::clone(&shutdown),
        ) {
            Ok(handle) => shards.push(handle),
            Err(e) => {
                eprintln!("hpc-fleetd: shard {name}: {e}");
                shutdown.store(true, Ordering::SeqCst);
                for s in shards {
                    s.join();
                }
                exit(1);
            }
        }
    }

    let mut fleet = Fleet::new(
        shards
            .iter()
            .map(|s| (s.name.clone(), Arc::clone(&s.slot)))
            .collect(),
    );
    // Query stores open-validate (checksums, footers, fingerprint) but
    // decode nothing; a corrupt store should fail startup, not a request.
    for (name, dir) in &opts.query_stores {
        match QueryStore::open(dir) {
            Ok(qs) => fleet = fleet.with_query_store(name, qs),
            Err(e) => {
                eprintln!("hpc-fleetd: --query-store {name}: {e}");
                shutdown.store(true, Ordering::SeqCst);
                for s in shards {
                    s.join();
                }
                exit(1);
            }
        }
    }
    let server = match serve(
        listener,
        fleet,
        ServerConfig {
            workers: opts.workers,
            queue: opts.queue,
        },
        Arc::clone(&shutdown),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hpc-fleetd: cannot start server: {e}");
            exit(1);
        }
    };
    if !opts.quiet {
        eprintln!(
            "hpc-fleetd: listening on {} ({} systems)",
            server.addr(),
            shards.len()
        );
    }

    // Idle until a signal; the threads do all the work.
    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    if !opts.quiet {
        eprintln!("hpc-fleetd: signal received, draining");
    }
    shutdown.store(true, Ordering::SeqCst);
    server.join();
    for s in shards {
        s.join();
    }

    hpc_telemetry::exit_report(opts.telemetry_json.as_deref());
}
