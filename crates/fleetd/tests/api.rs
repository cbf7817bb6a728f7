//! End-to-end API tests: a real `TcpListener`, real sockets, ≥2 systems.
//!
//! The acceptance contract for fleetd: serving two systems concurrently,
//! the live `/window` response must equal the state an
//! `hpc-watch`-equivalent local engine computes over the same replayed
//! feed, and every `/alerts`, `/failures` and `/report` record must be the
//! bytes that engine's JSONL and text sinks wrote for it; every cached
//! snapshot body must 304 on an unchanged generation; and concurrent
//! clients hammering `/v1/...` during live ingest must see no 5xx other
//! than deliberate 503 backpressure, with every JSON body parsing.

use std::collections::HashMap;
use std::ffi::OsString;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
#[cfg(unix)]
use std::{ffi::OsStr, os::unix::ffi::OsStrExt};

use hpc_faultsim::scenario::Scenario;
use hpc_fleet::shard::{Feed, ShardConfig};
use hpc_fleet::{serve, Fleet, QueryStore, ServerConfig};
use hpc_logs::fs::save_archive;
use hpc_platform::system::SystemId;
use hpc_stream::{FollowDir, JsonlSink, StreamConfig, StreamEngine, TextSink};
use hpc_telemetry::json::{self, JsonValue};

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fleetd-api-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generates a small archive for `system` under `dir`.
fn generate_feed(dir: &Path, system: SystemId, seed: u64) {
    let out = Scenario::new(system, 1, 1, seed).run();
    save_archive(&out.archive, dir).unwrap();
}

/// One blocking HTTP exchange; returns (status, headers, body).
fn get(addr: std::net::SocketAddr, path: &str, extra: &str) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: fleet\r\n{extra}Connection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head")
        + 4;
    let head = std::str::from_utf8(&raw[..head_end]).unwrap().to_string();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head, raw[head_end..].to_vec())
}

fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.eq_ignore_ascii_case(name)).then(|| v.trim())
    })
}

/// A writer whose bytes the test reads back after the engine is done.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Shared {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

/// Replays `dir` through a local engine exactly the way a replay shard
/// does — the `hpc-watch` equivalent — returning the drained engine and
/// what its JSONL and text sinks wrote.
fn local_replay(dir: &Path) -> (StreamEngine, String, String) {
    let (jsonl, text) = (Shared::default(), Shared::default());
    let mut engine = StreamEngine::new(StreamConfig::default());
    engine.add_sink(Box::new(JsonlSink::new(jsonl.clone())));
    engine.add_sink(Box::new(TextSink::new(text.clone())));
    let mut follow = FollowDir::new(dir);
    while follow.poll_into(&mut engine) > 0 {}
    engine.finish();
    (engine, jsonl.text(), text.text())
}

struct Server {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    server: Option<hpc_fleet::ServerHandle>,
    shards: Vec<hpc_fleet::ShardHandle>,
}

impl Server {
    fn start(shard_configs: Vec<ShardConfig>, config: ServerConfig) -> Server {
        Server::start_with_stores(shard_configs, config, Vec::new())
    }

    fn start_with_stores(
        shard_configs: Vec<ShardConfig>,
        config: ServerConfig,
        query_stores: Vec<(String, QueryStore)>,
    ) -> Server {
        let shutdown = Arc::new(AtomicBool::new(false));
        let shards: Vec<_> = shard_configs
            .into_iter()
            .map(|c| hpc_fleet::spawn(c, Arc::clone(&shutdown)).expect("spawn shard"))
            .collect();
        let mut fleet = Fleet::new(
            shards
                .iter()
                .map(|s| (s.name.clone(), Arc::clone(&s.slot)))
                .collect(),
        );
        for (name, qs) in query_stores {
            fleet = fleet.with_query_store(&name, qs);
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = serve(listener, fleet, config, Arc::clone(&shutdown)).unwrap();
        Server {
            addr: server.addr(),
            shutdown,
            server: Some(server),
            shards,
        }
    }

    fn wait_all_finished(&self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.shards.iter().any(|s| !s.slot.read().finished) {
            assert!(Instant::now() < deadline, "shards never drained");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(s) = self.server.take() {
            s.join();
        }
        for s in self.shards.drain(..) {
            s.join();
        }
    }
}

fn replay_config(name: &str, dir: &Path) -> ShardConfig {
    ShardConfig {
        name: name.to_string(),
        feed: Feed::Replay(dir.to_path_buf()),
        stream: StreamConfig::default(),
        poll: Duration::from_millis(10),
        backfill: None,
    }
}

#[test]
fn two_systems_match_the_equivalent_watch_state() {
    let d1 = tmpdir("s1");
    let d2 = tmpdir("s2");
    generate_feed(&d1, SystemId::S1, 42);
    generate_feed(&d2, SystemId::S2, 43);

    let srv = Server::start(
        vec![replay_config("S1", &d1), replay_config("S2", &d2)],
        ServerConfig::default(),
    );
    srv.wait_all_finished();

    // The listing names both systems and both are finished.
    let (status, _, body) = get(srv.addr, "/v1/systems", "");
    assert_eq!(status, 200);
    let v = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(v.get("count").unwrap().as_number(), Some(2.0));

    for (name, dir) in [("S1", &d1), ("S2", &d2)] {
        let (engine, jsonl, text) = local_replay(dir);
        let stats = engine.stats();
        let compact = |r: &JsonValue| r.to_string();

        // /window equals the local engine's window state.
        let (status, _, body) = get(srv.addr, &format!("/v1/systems/{name}/window"), "");
        assert_eq!(status, 200);
        let w = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        let num = |key: &str| w.get(key).unwrap().as_number().unwrap() as u64;
        assert_eq!(
            num("window_events"),
            engine.window().retained_events() as u64
        );
        assert_eq!(num("window_peak"), engine.window().peak_retained() as u64);
        assert_eq!(num("window_evicted"), engine.window().evicted());
        assert_eq!(
            num("symptomatic_nodes"),
            engine.window().symptomatic_nodes() as u64
        );

        // /alerts is the tail of the JSONL alert lines, byte for byte.
        let (status, _, body) = get(srv.addr, &format!("/v1/systems/{name}/alerts"), "");
        assert_eq!(status, 200);
        let a = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(
            a.get("total").unwrap().as_number(),
            Some(stats.alerts as f64)
        );
        assert_eq!(
            a.get("outstanding").unwrap().as_number(),
            Some(engine.outstanding_alerts() as f64)
        );
        let records = a.get("alerts").and_then(JsonValue::as_array).unwrap();
        let lines: Vec<&str> = jsonl
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"alert\""))
            .collect();
        assert_eq!(lines.len(), engine.alerts().len());
        let tail = &lines[lines.len().saturating_sub(1024)..];
        assert_eq!(records.iter().map(compact).collect::<Vec<_>>(), tail);

        // /failures: totals equal the local engine's, and each record is
        // the JSONL line of the same failure, byte for byte. The sinks see
        // failures in finalization order, the snapshot in the drained
        // engine's (time, node) order, so lines are matched by that key.
        let (status, _, body) = get(srv.addr, &format!("/v1/systems/{name}/failures"), "");
        assert_eq!(status, 200);
        let f = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(
            f.get("total").unwrap().as_number(),
            Some(stats.failures as f64)
        );
        let records = f.get("failures").and_then(JsonValue::as_array).unwrap();
        let local = engine.failures();
        assert_eq!(records.len(), local.len().min(1024));
        let key = |r: &JsonValue| {
            let num = |k: &str| r.get(k).and_then(JsonValue::as_number).unwrap() as u64;
            (num("time_ms"), num("node"))
        };
        let by_key: HashMap<(u64, u64), &str> = jsonl
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"failure\""))
            .map(|l| (key(&json::parse(l).unwrap()), l))
            .collect();
        assert_eq!(by_key.len(), local.len());
        for record in records {
            assert_eq!(compact(record), by_key[&key(record)]);
        }
        let predicted: u64 = records
            .iter()
            .filter(|r| r.get("predicted") == Some(&JsonValue::Bool(true)))
            .count() as u64;
        if local.len() <= 1024 {
            assert_eq!(predicted, stats.predicted_failures);
        }

        // /report's recent failures are the text sink's FAILURE lines with
        // the word FAILURE taken out, newest first.
        let by_failure: HashMap<(String, String), String> = text
            .lines()
            .filter_map(|l| {
                let mut words = l.split(' ');
                let (time, kind, cname) = (words.next()?, words.next()?, words.next()?);
                (kind == "FAILURE").then(|| {
                    let key = (time.to_string(), cname.to_string());
                    (key, l.replacen(" FAILURE ", " ", 1))
                })
            })
            .collect();
        assert_eq!(by_failure.len(), local.len());
        let expected: Vec<&str> = local
            .iter()
            .rev()
            .take(10)
            .map(|f| by_failure[&(f.time.to_string(), f.node.cname().to_string())].as_str())
            .collect();
        let (status, _, body) = get(srv.addr, &format!("/v1/systems/{name}/report"), "");
        assert_eq!(status, 200);
        let report = String::from_utf8(body).unwrap();
        let recent: Vec<&str> = report
            .lines()
            .skip_while(|l| *l != "-- recent failures --")
            .skip(1)
            .take_while(|l| !l.is_empty())
            .collect();
        assert!(!expected.is_empty(), "{name}: the replay must fail a node");
        assert_eq!(recent, expected, "{name}");
    }

    srv.stop();
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d2);
}

#[test]
fn every_snapshot_route_serves_304_on_unchanged_generation() {
    let d1 = tmpdir("etag");
    generate_feed(&d1, SystemId::S3, 7);
    let srv = Server::start(vec![replay_config("S3", &d1)], ServerConfig::default());
    srv.wait_all_finished();

    let (status, _, body) = get(srv.addr, "/v1/systems/S3/report", "");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("live diagnosis"), "{text}");
    assert!(text.contains("Findings"), "core findings section reused");

    for path in [
        "/v1/systems/S3",
        "/v1/systems/S3/window",
        "/v1/systems/S3/alerts",
        "/v1/systems/S3/failures",
        "/v1/systems/S3/report",
    ] {
        let (status, head, body) = get(srv.addr, path, "");
        assert_eq!(status, 200, "{path}");
        let etag = header(&head, "ETag").expect("ETag").to_string();
        let length = header(&head, "Content-Length").map(str::to_string);
        assert_eq!(length, Some(body.len().to_string()), "{path}");

        // Same generation: 304, no body, and the 200's Content-Length.
        let (status, head, body) = get(srv.addr, path, &format!("If-None-Match: {etag}\r\n"));
        assert_eq!(status, 304, "{path}: unchanged generation must 304");
        assert_eq!(header(&head, "ETag"), Some(etag.as_str()));
        assert_eq!(header(&head, "Content-Length"), length.as_deref(), "{path}");
        assert!(body.is_empty(), "{path}: 304 carries no body");

        // A stale ETag still gets the full body.
        let (status, _, body) = get(srv.addr, path, "If-None-Match: \"S3-g0\"\r\n");
        assert_eq!(status, 200, "{path}");
        assert_eq!(Some(body.len().to_string()), length, "{path}");
    }

    srv.stop();
    let _ = std::fs::remove_dir_all(&d1);
}

#[test]
fn pipelined_keep_alive_requests_share_one_connection() {
    let d1 = tmpdir("pipeline");
    generate_feed(&d1, SystemId::S1, 11);
    let srv = Server::start(vec![replay_config("S1", &d1)], ServerConfig::default());
    srv.wait_all_finished();

    let mut stream = TcpStream::connect(srv.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Two requests in one write; the second closes the connection.
    write!(
        stream,
        "GET /v1/systems HTTP/1.1\r\nHost: f\r\n\r\n\
         GET /v1/systems/S1/window HTTP/1.1\r\nHost: f\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(
        text.matches("HTTP/1.1 200 OK").count(),
        2,
        "both pipelined responses arrive in order: {text}"
    );
    assert!(text.contains("window_events"));

    srv.stop();
    let _ = std::fs::remove_dir_all(&d1);
}

/// A new connection reaches a worker the moment it arrives: fifty fresh
/// connections one after another, each sending one request and reading its
/// reply, take well under the 5 ms each that an acceptor polling every
/// 10 ms would add on average.
#[test]
fn fresh_connections_are_served_without_an_accept_delay() {
    let d1 = tmpdir("accept");
    generate_feed(&d1, SystemId::S1, 11);
    let srv = Server::start(vec![replay_config("S1", &d1)], ServerConfig::default());
    srv.wait_all_finished();
    assert_eq!(get(srv.addr, "/v1/systems", "").0, 200);

    let started = Instant::now();
    for _ in 0..50 {
        assert_eq!(get(srv.addr, "/v1/systems", "").0, 200);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(100),
        "50 fresh connections took {elapsed:?}"
    );

    srv.stop();
    let _ = std::fs::remove_dir_all(&d1);
}

/// N threads hammer every endpoint while a live follow shard ingests a
/// feed that is still being appended. Zero 5xx (other than deliberate
/// 503 backpressure), and every 200 JSON body parses.
#[test]
fn concurrent_clients_during_live_ingest_see_no_spurious_errors() {
    let live = tmpdir("live");
    let source = tmpdir("live-src");
    generate_feed(&source, SystemId::S1, 99);
    std::fs::create_dir_all(live.join("p0-directory")).unwrap();

    let srv = Server::start(
        vec![ShardConfig {
            name: "S1".to_string(),
            feed: Feed::Follow(live.clone()),
            stream: StreamConfig::default(),
            poll: Duration::from_millis(5),
            backfill: None,
        }],
        ServerConfig::default(),
    );

    // Writer: drip the generated console file into the live dir.
    let writer = {
        let src = source.join("p0-directory/console");
        let dst = live.join("p0-directory/console");
        std::thread::spawn(move || {
            let text = std::fs::read_to_string(&src).unwrap_or_default();
            let mut out = std::fs::File::create(&dst).unwrap();
            for chunk in text.lines().collect::<Vec<_>>().chunks(200) {
                for line in chunk {
                    writeln!(out, "{line}").unwrap();
                }
                out.flush().unwrap();
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    let paths = [
        "/v1/systems",
        "/v1/systems/S1",
        "/v1/systems/S1/window",
        "/v1/systems/S1/alerts",
        "/v1/systems/S1/failures",
        "/v1/systems/S1/report",
        "/metrics",
    ];
    let addr = srv.addr;
    let clients: Vec<_> = (0..8)
        .map(|c| {
            std::thread::spawn(move || {
                let mut bad = Vec::new();
                for i in 0..40 {
                    let path = paths[(c + i) % paths.len()];
                    let (status, head, body) = get(addr, path, "");
                    let json_body = header(&head, "Content-Type")
                        .is_some_and(|ct| ct.starts_with("application/json"));
                    if status >= 500 && status != 503 {
                        bad.push(format!("{path} -> {status}"));
                    }
                    if status == 200 && json_body {
                        if let Err(e) = json::parse(std::str::from_utf8(&body).unwrap()) {
                            bad.push(format!("{path} unparsable: {e}"));
                        }
                    }
                }
                bad
            })
        })
        .collect();
    let bad: Vec<String> = clients
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    assert!(bad.is_empty(), "spurious errors: {bad:?}");

    writer.join().unwrap();
    srv.stop();
    let _ = std::fs::remove_dir_all(&live);
    let _ = std::fs::remove_dir_all(&source);
}

/// The `/query` passthrough over a real socket: a diagnosis persisted
/// with `save_store` is attached as a query store, and every verb's HTTP
/// answer must equal querying the planner directly — including filters
/// that prune down to nothing.
#[test]
fn query_endpoint_answers_from_a_real_store_over_http() {
    use hpc_diagnosis::query::{self, QueryFilter};
    use hpc_diagnosis::{Diagnosis, DiagnosisConfig, EventClass};
    use hpc_platform::system::SchedulerKind;

    let feed = tmpdir("query-feed");
    let store_dir = tmpdir("query-store");
    generate_feed(&feed, SystemId::S1, 17);
    let out = Scenario::new(SystemId::S1, 1, 1, 17).run();
    let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
    d.save_store(&store_dir, "api-test", 0, SchedulerKind::Slurm)
        .unwrap();

    let srv = Server::start_with_stores(
        vec![replay_config("S1", &feed)],
        ServerConfig::default(),
        vec![("S1".to_string(), QueryStore::open(&store_dir).unwrap())],
    );
    srv.wait_all_finished();

    let store = hpc_diagnosis::segment::Store::open(&store_dir).unwrap();
    let body_of = |path: &str| -> JsonValue {
        let (status, _, body) = get(srv.addr, path, "");
        assert_eq!(status, 200, "{path}");
        json::parse(std::str::from_utf8(&body).unwrap()).unwrap()
    };

    // Unfiltered count == total events in the store.
    let v = body_of("/v1/systems/S1/query?verb=count");
    let total = query::plan(&store, &QueryFilter::default())
        .count()
        .unwrap();
    assert_eq!(v.get("count").unwrap().as_number(), Some(total as f64));

    // A class filter answers from the catalogue and matches the planner.
    let filter = QueryFilter {
        classes: vec![EventClass::JobStart],
        ..Default::default()
    };
    let direct = query::plan(&store, &filter).count().unwrap();
    let v = body_of("/v1/systems/S1/query?verb=count&class=job_start");
    assert_eq!(v.get("count").unwrap().as_number(), Some(direct as f64));

    // A window in the far future prunes every segment: count is 0.
    let v = body_of("/v1/systems/S1/query?verb=count&from=99999999999999");
    assert_eq!(v.get("count").unwrap().as_number(), Some(0.0));

    // Histogram bucket totals re-add to the unfiltered count.
    let v = body_of("/v1/systems/S1/query?verb=histogram&by=class");
    let buckets = v.get("buckets").and_then(JsonValue::as_array).unwrap();
    let sum: f64 = buckets
        .iter()
        .map(|b| b.get("count").unwrap().as_number().unwrap())
        .sum();
    assert_eq!(sum, total as f64);

    // Tail returns at most n, failures parses.
    let v = body_of("/v1/systems/S1/query?verb=tail&n=5");
    assert!(v.get("events").and_then(JsonValue::as_array).unwrap().len() <= 5);
    let v = body_of("/v1/systems/S1/query?verb=failures");
    assert!(v.get("failures").and_then(JsonValue::as_array).is_some());

    // Liveness endpoints still work alongside the query store.
    let (status, _, _) = get(srv.addr, "/v1/systems/S1/window", "");
    assert_eq!(status, 200);

    srv.stop();
    let _ = std::fs::remove_dir_all(&feed);
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Backpressure is deliberate and bounded: with a one-connection queue
/// and one worker pinned by a slow request stream, extra connections get
/// 503 + Retry-After, not a hang and not a connection reset.
#[test]
fn overload_sheds_load_with_503_retry_after() {
    let d1 = tmpdir("overload");
    generate_feed(&d1, SystemId::S2, 5);
    let srv = Server::start(
        vec![replay_config("S2", &d1)],
        ServerConfig {
            workers: 1,
            queue: 1,
        },
    );
    srv.wait_all_finished();

    // Pin the worker and fill the queue with idle connections, which hold
    // their slots until the read timeout — one at a time, because opened
    // back to back the acceptor can shed #2 before the worker has taken #1
    // and leave the queue empty behind a pinned worker. A shed connection
    // is answered 503 at once, a held one stays silent. One shed only says
    // the queue was full at that instant (an idle worker may still empty
    // it, and then the next connection is queued); two in a row say the
    // worker is pinned with the queue full behind it.
    let rejected = || hpc_telemetry::counter("fleetd.http.rejected").get();
    let rejected_before = rejected();
    let mut idle = Vec::new();
    let mut sheds_in_a_row = 0;
    for _ in 0..12 {
        let mut conn = TcpStream::connect(srv.addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        if matches!(conn.read(&mut [0u8; 1]), Ok(1)) {
            sheds_in_a_row += 1;
        } else {
            sheds_in_a_row = 0;
            idle.push(conn);
        }
        if sheds_in_a_row == 2 {
            break;
        }
    }
    assert_eq!(sheds_in_a_row, 2, "worker and queue never filled up");
    // The counter is process-wide (other tests shed too), hence `>=`.
    assert!(rejected() - rejected_before >= 2);

    // Now a burst of real requests: every response is either served or a
    // clean 503 with Retry-After.
    let mut saw_503 = false;
    for _ in 0..12 {
        let mut stream = TcpStream::connect(srv.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(
            stream,
            "GET /v1/systems HTTP/1.1\r\nHost: f\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        let text = String::from_utf8_lossy(&raw);
        if text.starts_with("HTTP/1.1 503") {
            assert!(text.contains("Retry-After: 1"), "{text}");
            saw_503 = true;
        } else if !text.is_empty() {
            assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        }
    }
    assert!(saw_503, "queue of 1 under a burst must shed something");

    // Closing the idle connections frees the worker without the timeout.
    drop(idle);
    srv.stop();
    let _ = std::fs::remove_dir_all(&d1);
}

/// `hpc-fleetd --telemetry-json` under a path that cannot exist (its
/// parent is a regular file, ENOTDIR even for root) is refused at startup
/// with one line — before a port is bound or a shard reads the feed.
#[test]
fn daemon_fails_fast_on_unwritable_telemetry_json() {
    let dir = tmpdir("unwritable");
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "not a directory\n").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hpc-fleetd"))
        .arg("--replay")
        .arg(format!("S1={}", dir.display()))
        .args(["--listen", "127.0.0.1:0", "--telemetry-json"])
        .arg(blocker.join("x"))
        .output()
        .expect("run hpc-fleetd");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("cannot write"), "got:\n{stderr}");
    assert_eq!(stderr.lines().count(), 1, "got:\n{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bad `hpc-fleetd` command line is the usage line and exit 2, never a
/// panic.
#[test]
fn daemon_rejects_bad_command_lines_with_usage() {
    let cases: [&[&str]; 5] = [
        &[],
        &["--frobnicate"],
        &["--replay"],
        &["--replay", "S1=/tmp", "--workers", "many"],
        &["--replay", "S1=/tmp", "--backfill", "S1=/tmp,soon"],
    ];
    let mut cases: Vec<Vec<OsString>> = (cases.iter())
        .map(|args| args.iter().map(Into::into).collect())
        .collect();
    #[cfg(unix)]
    cases.push(vec![OsStr::from_bytes(b"\xff").into()]);
    for args in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_hpc-fleetd"))
            .args(&args)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("run hpc-fleetd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
