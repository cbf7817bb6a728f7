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
//! `/{id}/alerts`, `/{id}/failures`, `/{id}/report` (cached, ETag/304),
//! `/{id}/query` (with `--query-store`), `/metrics`. SIGINT/SIGTERM drain gracefully: the acceptor stops,
//! in-flight responses complete, shards finish their engines, the final
//! telemetry prints, exit 0.

use std::io::BufRead;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use hpc_fleet::shard::{self, BackfillSpec, Feed, ShardConfig};
use hpc_fleet::{serve, Fleet, QueryStore, ServerConfig};
use hpc_logs::time::{SimDuration, SimTime};
use hpc_stream::{signal, StreamConfig};

fn usage() -> ! {
    eprintln!(
        "usage: hpc-fleetd (--system NAME=DIR | --replay NAME=DIR | --stdin NAME)... \
         [--backfill NAME=STORE[,t0_ms,t1_ms]] [--query-store NAME=DIR] \
         [--listen ADDR] [--workers N] [--queue N] \
         [--watermark-mins N] [--window-mins N] [--poll-ms N] \
         [--telemetry-json PATH] [--quiet]"
    );
    exit(2)
}

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
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>| match args.next() {
        Some(v) => v,
        None => usage(),
    };
    let name_eq = |v: &str| -> (String, PathBuf) {
        match v.split_once('=') {
            Some((name, dir)) if !name.is_empty() && !dir.is_empty() => {
                (name.to_string(), PathBuf::from(dir))
            }
            _ => usage(),
        }
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--system" => {
                let (name, dir) = name_eq(&value(&mut args));
                opts.feeds.push(FeedSpec::Follow(name, dir));
            }
            "--replay" => {
                let (name, dir) = name_eq(&value(&mut args));
                opts.feeds.push(FeedSpec::Replay(name, dir));
            }
            "--stdin" => opts.feeds.push(FeedSpec::Stdin(value(&mut args))),
            "--backfill" => {
                let raw = value(&mut args);
                let (name, spec) = name_eq(&raw);
                let spec = spec.to_string_lossy().into_owned();
                let mut parts = spec.split(',');
                let store = PathBuf::from(parts.next().unwrap_or_default());
                let t = |p: Option<&str>| -> Option<SimTime> {
                    p.map(|v| match v.parse() {
                        Ok(ms) => SimTime::from_millis(ms),
                        Err(_) => usage(),
                    })
                };
                let from = t(parts.next());
                let to = t(parts.next());
                if parts.next().is_some() || store.as_os_str().is_empty() {
                    usage();
                }
                opts.backfills
                    .push((name, BackfillSpec { store, from, to }));
            }
            "--query-store" => {
                let (name, dir) = name_eq(&value(&mut args));
                opts.query_stores.push((name, dir));
            }
            "--listen" => opts.listen = value(&mut args),
            "--workers" => match value(&mut args).parse() {
                Ok(n) if n > 0 => opts.workers = n,
                _ => usage(),
            },
            "--queue" => match value(&mut args).parse() {
                Ok(n) if n > 0 => opts.queue = n,
                _ => usage(),
            },
            "--watermark-mins" => match value(&mut args).parse() {
                Ok(n) => opts.config.watermark = SimDuration::from_mins(n),
                Err(_) => usage(),
            },
            "--window-mins" => match value(&mut args).parse() {
                Ok(n) => opts.config.window = SimDuration::from_mins(n),
                Err(_) => usage(),
            },
            "--poll-ms" => match value(&mut args).parse() {
                Ok(n) => opts.poll = Duration::from_millis(n),
                Err(_) => usage(),
            },
            "--telemetry-json" => opts.telemetry_json = Some(value(&mut args)),
            "--quiet" => opts.quiet = true,
            _ => usage(),
        }
    }
    if opts.feeds.is_empty() {
        usage();
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
    let mut stdin_tx: Option<mpsc::Sender<String>> = None;
    for feed in opts.feeds.drain(..) {
        let (name, feed) = match feed {
            FeedSpec::Follow(name, dir) => (name, Feed::Follow(dir)),
            FeedSpec::Replay(name, dir) => (name, Feed::Replay(dir)),
            FeedSpec::Stdin(name) => {
                let (tx, rx) = mpsc::channel();
                stdin_tx = Some(tx);
                (name, Feed::Lines(rx))
            }
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

    // Stdin pump: main thread work is cheap, but EOF must not stop the
    // server, so it runs on its own thread too.
    let stdin_pump = stdin_tx.map(|tx| {
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
            // Dropping tx lets the shard drain and finish.
        })
    });

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
            ..ServerConfig::default()
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
    drop(stdin_pump); // EOF pump may outlive us blocking on stdin; detach.

    hpc_telemetry::exit_report(opts.telemetry_json.as_deref());
}
