//! Threaded HTTP/1.1 server over `std::net`: acceptor, bounded worker
//! pool, routing, backpressure, graceful drain.
//!
//! ```text
//! acceptor thread ──► bounded sync_channel ──► N worker threads
//!      │ (blocking accept,      │ (queue full = deliberate          │
//!      │  checks the shutdown   │  backpressure: the acceptor       │
//!      │  flag after each one)  │  answers 503 + Retry-After        │
//!      │                        │  itself and drops the socket)     ▼
//!      ▼                        ▼                        parse → route → respond
//! ```
//!
//! Every connection gets read/write timeouts, so a stalled peer ties up
//! one worker for at most one timeout, never forever. Responses are
//! fully materialised before the first byte is written (they are bounded
//! by construction — a snapshot keeps at most `MAX_RECORDS` alerts and
//! failures), so the write buffer is bounded and a slow consumer can only
//! slow its own socket.
//!
//! Graceful drain: once the shutdown flag flips, [`ServerHandle::join`]
//! connects once to wake the acceptor, which stops accepting (that
//! connection is never queued) and closes the queue; workers finish the
//! connections they hold (capped by the keep-alive request budget and
//! socket timeouts) and exit; `join` returns. No in-flight response is
//! abandoned.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hpc_diagnosis::query::{self, RunError};
use hpc_diagnosis::segment::{OpenError, Store};

use crate::http::{parse_request, Method, Parse, Request, Response, MAX_HEAD_BYTES};
use crate::snapshot::{Body, SnapshotSlot};

/// Most requests served over one keep-alive connection before the server
/// closes it — bounds how long a drain can take.
const MAX_REQUESTS_PER_CONNECTION: usize = 1024;

/// Per-connection socket read timeout: how long a stalled peer can hold a
/// worker.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-connection socket write timeout, also for the acceptor's 503.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Server tuning; the defaults suit a diagnosis sidecar.
pub struct ServerConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Accepted-but-unhandled connections the queue holds before the
    /// acceptor starts shedding load with 503s.
    pub queue: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue: 64,
        }
    }
}

/// A validated segment store a system serves `/query` reads from:
/// opened once at startup, decoded lazily per query by the planner.
pub struct QueryStore {
    store: Store,
}

impl QueryStore {
    /// Opens and validates the store in `dir` ([`Store::open`] — no row
    /// decode) and proves the derived failures decode, so a bad store
    /// fails startup, not a `verb=failures` request.
    pub fn open(dir: &Path) -> Result<QueryStore, OpenError> {
        let store = Store::open(dir)?;
        store.derived()?;
        Ok(QueryStore { store })
    }
}

/// The systems the server serves: `(name, slot)` pairs, name order is
/// listing order. A system may additionally carry a [`QueryStore`]
/// backing its `/query` endpoint.
pub struct Fleet {
    systems: Vec<(String, Arc<SnapshotSlot>)>,
    query_stores: Vec<(String, QueryStore)>,
}

impl Fleet {
    /// A fleet over the given `(name, slot)` pairs.
    pub fn new(systems: Vec<(String, Arc<SnapshotSlot>)>) -> Fleet {
        hpc_telemetry::gauge("fleetd.shards").set(systems.len() as f64);
        Fleet {
            systems,
            query_stores: Vec::new(),
        }
    }

    /// Attaches a query store to system `name`, enabling its
    /// `/v1/systems/{name}/query` endpoint.
    pub fn with_query_store(mut self, name: &str, store: QueryStore) -> Fleet {
        self.query_stores.push((name.to_string(), store));
        self
    }

    fn slot(&self, name: &str) -> Option<&Arc<SnapshotSlot>> {
        self.systems.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    fn query_store(&self, name: &str) -> Option<&QueryStore> {
        self.query_stores
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }
}

/// A running server; join it after flipping the shutdown flag.
pub struct ServerHandle {
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the acceptor and every worker to exit; the shutdown flag
    /// must already be set.
    pub fn join(self) {
        // The acceptor blocks in `accept`: one connection wakes it to see
        // the flag. It may have exited already, so a refusal is fine.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, WRITE_TIMEOUT);
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Starts the acceptor and worker threads over an already-bound
/// listener. The server runs until `shutdown` flips to true.
pub fn serve(
    listener: TcpListener,
    fleet: Fleet,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let fleet = Arc::new(fleet);
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(config.queue.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let mut workers = Vec::with_capacity(config.workers.max(1));
    for i in 0..config.workers.max(1) {
        let rx = Arc::clone(&rx);
        let fleet = Arc::clone(&fleet);
        let shutdown = Arc::clone(&shutdown);
        workers.push(
            std::thread::Builder::new()
                .name(format!("fleetd-worker-{i}"))
                .spawn(move || worker_loop(rx, fleet, shutdown))?,
        );
    }

    let acceptor = std::thread::Builder::new()
        .name("fleetd-acceptor".to_string())
        .spawn(move || acceptor_loop(listener, tx, shutdown))?;

    Ok(ServerHandle {
        addr,
        acceptor,
        workers,
    })
}

fn acceptor_loop(listener: TcpListener, tx: SyncSender<TcpStream>, shutdown: Arc<AtomicBool>) {
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            // `join`'s wake-up, or a client arriving during the drain:
            // neither is queued.
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                hpc_telemetry::counter("fleetd.http.connections").inc();
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        // Deliberate backpressure: shed load here, at the
                        // edge, instead of queueing without bound.
                        hpc_telemetry::counter("fleetd.http.rejected").inc();
                        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                        let resp = Response::error(503, "server busy");
                        let mut s = stream;
                        let _ = s.write_all(&resp.write_to(false));
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            // Out of descriptors and the like: back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Dropping `tx` closes the queue: workers drain what was accepted
    // and then see Disconnected.
}

fn worker_loop(rx: Arc<Mutex<Receiver<TcpStream>>>, fleet: Arc<Fleet>, shutdown: Arc<AtomicBool>) {
    loop {
        // Hold the lock only while dequeueing, never while serving.
        let stream = {
            let rx = rx.lock().unwrap();
            rx.recv_timeout(Duration::from_millis(100))
        };
        match stream {
            Ok(stream) => handle_connection(stream, &fleet, &shutdown),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::SeqCst) {
                    // Keep draining until the queue is closed *and* empty;
                    // the next recv sees Disconnected once it is.
                    continue;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Serves one connection: pipelined keep-alive requests until close,
/// error, request budget, or shutdown.
fn handle_connection(mut stream: TcpStream, fleet: &Fleet, shutdown: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);

    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let mut served = 0usize;

    loop {
        // Serve every complete pipelined request already buffered.
        loop {
            match parse_request(&buf) {
                Parse::Complete(req, consumed) => {
                    buf.drain(..consumed);
                    served += 1;
                    let started = Instant::now();
                    let resp = route(&req, fleet);
                    hpc_telemetry::counter("fleetd.http.requests").inc();
                    hpc_telemetry::counter(response_counter(resp.status)).inc();
                    hpc_telemetry::histogram("fleetd.http.request_micros")
                        .record(started.elapsed().as_micros() as u64);
                    let bytes = resp.write_to(req.method == Method::Head);
                    hpc_telemetry::counter("fleetd.http.bytes.written").add(bytes.len() as u64);
                    if stream.write_all(&bytes).is_err() {
                        return;
                    }
                    let close = !req.keep_alive
                        || served >= MAX_REQUESTS_PER_CONNECTION
                        || shutdown.load(Ordering::SeqCst);
                    if close {
                        let _ = stream.flush();
                        return;
                    }
                }
                Parse::Partial => break,
                Parse::Error(status, reason) => {
                    hpc_telemetry::counter("fleetd.http.requests").inc();
                    hpc_telemetry::counter("fleetd.http.parse_errors").inc();
                    hpc_telemetry::counter(response_counter(status)).inc();
                    let resp = Response::error(status, reason);
                    let _ = stream.write_all(&resp.write_to(false));
                    return;
                }
            }
        }

        if buf.len() > MAX_HEAD_BYTES {
            // parse_request would have condemned it already; belt-and-braces.
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return; // idle past the read timeout
            }
            Err(_) => return,
        }
    }
}

/// The counter of `status`'s class (`fleetd.http.responses.<class>xx`),
/// named from a table rather than formatted per response. fleetd emits
/// 1xx-5xx statuses only.
fn response_counter(status: u16) -> &'static str {
    const CLASSES: [&str; 5] = [
        "fleetd.http.responses.1xx",
        "fleetd.http.responses.2xx",
        "fleetd.http.responses.3xx",
        "fleetd.http.responses.4xx",
        "fleetd.http.responses.5xx",
    ];
    CLASSES[usize::from(status / 100) - 1]
}

/// Maps one request to its response. Pure: no I/O beyond snapshot reads.
///
/// Every snapshot route answers from the snapshot's body cache under one
/// conditional rule: the generation is the `ETag`, and a matching
/// `If-None-Match` gets a 304 whose `Content-Length` is the cached body's.
pub fn route(req: &Request, fleet: &Fleet) -> Response {
    let path = req.path.as_str();
    if path == "/metrics" {
        return Response::json(200, hpc_telemetry::snapshot().to_json());
    }
    if path == "/v1/systems" || path == "/v1/systems/" {
        // `{"systems":[<summary>,...],"count":N}`, spliced from the cached
        // summaries: the bytes `JsonValue` would write for the same tree.
        let mut listing = b"{\"systems\":[".to_vec();
        for (i, (_, slot)) in fleet.systems.iter().enumerate() {
            if i > 0 {
                listing.push(b',');
            }
            listing.extend_from_slice(&slot.read().body(Body::Summary));
        }
        listing.extend_from_slice(format!("],\"count\":{}}}", fleet.systems.len()).as_bytes());
        return Response::json(200, listing);
    }
    let Some(rest) = path.strip_prefix("/v1/systems/") else {
        return Response::error(404, "no such resource");
    };
    let (id, verb) = match rest.split_once('/') {
        Some((id, verb)) => (id, verb),
        None => (rest, ""),
    };
    let Some(slot) = fleet.slot(id) else {
        return Response::error(404, "no such system");
    };
    let body = match verb {
        "" => Body::Summary,
        "window" => Body::Window,
        "alerts" => Body::Alerts,
        "failures" => Body::Failures,
        "report" => Body::Report,
        "query" => {
            return match fleet.query_store(id) {
                Some(qs) => {
                    hpc_telemetry::counter("fleetd.query.requests").inc();
                    answer_query(req, qs)
                }
                None => Response::error(404, "no query store configured for this system"),
            }
        }
        _ => return Response::error(404, "no such resource"),
    };
    let snap = slot.read();
    let etag = snap.etag();
    let status = match req.header("if-none-match") {
        Some(tags) if etag_listed(tags, &etag) => {
            hpc_telemetry::counter("fleetd.http.not_modified").inc();
            304
        }
        _ => 200,
    };
    Response {
        status,
        content_type: body.content_type(),
        extra_headers: vec![("ETag".to_string(), etag)],
        body: snap.body(body),
    }
}

/// Whether an `If-None-Match` field value lists `etag` (RFC 9110
/// §13.1.2): `*`, or a comma-separated list of entity tags compared
/// weakly, so `W/"S1-g7"` matches `"S1-g7"`. A malformed member ends the
/// list unmatched, which only ever costs the client a full 200.
fn etag_listed(field: &str, etag: &str) -> bool {
    if field.trim() == "*" {
        return true;
    }
    let mut rest = field;
    loop {
        rest = rest.trim_start_matches([' ', '\t', ',']);
        if rest.is_empty() {
            return false;
        }
        let tag = rest.strip_prefix("W/").unwrap_or(rest);
        let Some(end) = tag.strip_prefix('"').and_then(|t| t.find('"')) else {
            return false;
        };
        let (opaque, after) = tag.split_at(end + 2);
        if opaque == etag {
            return true;
        }
        rest = after;
    }
}

/// Serves `/v1/systems/{id}/query?...` straight from the configured
/// segment store through the lazy planner — the store-backed read path.
///
/// The URL parameters are the [`query::Request`] vocabulary `hpc-query`
/// spells as flags: `verb=count|histogram|tail|failures` (required),
/// repeatable `class=`, `node=`, `blade=`, `cabinet=`, `from=`/`to=`,
/// `by=` for histograms, `n=` for tail. Whatever the request refuses is a
/// 400 carrying its reason.
fn answer_query(req: &Request, qs: &QueryStore) -> Response {
    let mut request = query::Request::default();
    for (key, value) in req.params() {
        if let Err(reason) = request.set(key, value) {
            return Response::error(400, &reason);
        }
    }
    let plan = query::plan(&qs.store, &request.filter);
    match request.run(&plan, qs.store.manifest().scheduler) {
        Ok(answer) => Response::json(200, answer.json().to_string()),
        Err(RunError::Request(reason)) => Response::error(400, &reason),
        // A decode error after a fully validated open means the store
        // went bad underneath us — the client did nothing wrong.
        Err(RunError::Store(e)) => Response::error(500, &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Method;
    use hpc_logs::time::SimTime;
    use hpc_platform::system::SchedulerKind;
    use hpc_platform::NodeId;
    use hpc_telemetry::json::JsonValue;

    fn req(path: &str) -> Request {
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p, q),
            None => (path, ""),
        };
        Request {
            method: Method::Get,
            path: path.to_string(),
            query: query.to_string(),
            headers: Vec::new(),
            keep_alive: true,
        }
    }

    #[test]
    fn response_counters_name_the_status_class() {
        for status in [101, 200, 304, 400, 404, 405, 411, 431, 500, 503, 505, 599] {
            let name = format!("fleetd.http.responses.{}xx", status / 100);
            assert_eq!(response_counter(status), name);
        }
    }

    fn fleet() -> Fleet {
        Fleet::new(vec![
            ("S1".to_string(), Arc::new(SnapshotSlot::new("S1"))),
            ("S2".to_string(), Arc::new(SnapshotSlot::new("S2"))),
        ])
    }

    #[test]
    fn routes_resolve_and_unknowns_404() {
        let f = fleet();
        assert_eq!(route(&req("/v1/systems"), &f).status, 200);
        assert_eq!(route(&req("/v1/systems/S1"), &f).status, 200);
        assert_eq!(route(&req("/v1/systems/S1/window"), &f).status, 200);
        assert_eq!(route(&req("/v1/systems/S2/alerts"), &f).status, 200);
        assert_eq!(route(&req("/v1/systems/S2/failures"), &f).status, 200);
        assert_eq!(route(&req("/v1/systems/S1/report"), &f).status, 200);
        assert_eq!(route(&req("/metrics"), &f).status, 200);
        assert_eq!(route(&req("/v1/systems/S3/window"), &f).status, 404);
        assert_eq!(route(&req("/v1/systems/S1/nope"), &f).status, 404);
        assert_eq!(route(&req("/nope"), &f).status, 404);
    }

    fn etag_of(resp: &Response) -> String {
        resp.extra_headers
            .iter()
            .find(|(k, _)| k == "ETag")
            .map(|(_, v)| v.clone())
            .expect("snapshot routes carry an ETag")
    }

    fn conditional(path: &str, if_none_match: &str) -> Request {
        let mut r = req(path);
        r.headers
            .push(("if-none-match".to_string(), if_none_match.to_string()));
        r
    }

    #[test]
    fn every_snapshot_route_round_trips_its_etag_to_304() {
        let f = fleet();
        for path in [
            "/v1/systems/S1",
            "/v1/systems/S1/window",
            "/v1/systems/S1/alerts",
            "/v1/systems/S1/failures",
            "/v1/systems/S1/report",
        ] {
            let first = route(&req(path), &f);
            assert_eq!(first.status, 200, "{path}");
            let etag = etag_of(&first);
            assert_eq!(etag, "\"S1-g0\"", "{path}");

            for tags in [
                etag.clone(),
                format!("W/{etag}"),
                format!("\"S1-g9\", {etag}"),
                "*".to_string(),
            ] {
                let again = route(&conditional(path, &tags), &f);
                assert_eq!(again.status, 304, "{path} with {tags}");
                assert_eq!(etag_of(&again), etag);
                // The 304 carries the cached 200 body's length, not 0, and
                // writes no body.
                assert!(Arc::ptr_eq(&again.body, &first.body), "{path}");
                let length = format!("Content-Length: {}\r\n", first.body.len());
                let wire = String::from_utf8(again.write_to(false)).unwrap();
                assert!(wire.contains(&length), "{path}: {wire}");
                assert!(wire.ends_with("\r\n\r\n"), "{path}: 304 has no body");
            }

            // A different generation misses the cache.
            let stale = route(&conditional(path, "\"S1-g999\", W/\"S2-g0\""), &f);
            assert_eq!(stale.status, 200, "{path}");
            assert_eq!(stale.body, first.body);
        }
    }

    #[test]
    fn if_none_match_compares_weakly_over_a_list_or_star() {
        let etag = "\"S1-g7\"";
        for listed in [
            "\"S1-g7\"",
            "W/\"S1-g7\"",
            "\"S1-g6\", \"S1-g7\"",
            "\"S1-g6\",W/\"S1-g7\"",
            " ,\"a,b\" ,\t\"S1-g7\" ",
            "*",
            " * ",
        ] {
            assert!(etag_listed(listed, etag), "{listed:?}");
        }
        for unlisted in [
            "\"S1-g6\"",
            "\"S1-g6\", W/\"S1-g8\"",
            "\"S1-g70\"",
            "S1-g7",
            "\"S1-g7",
            "w/\"S1-g7\"",
            "\"\"",
            "",
            "*, \"S1-g6\"",
        ] {
            assert!(!etag_listed(unlisted, etag), "{unlisted:?}");
        }
    }

    #[test]
    fn systems_listing_splices_the_cached_summaries() {
        let f = fleet();
        let listing = route(&req("/v1/systems"), &f);
        let summaries: Vec<JsonValue> = f
            .systems
            .iter()
            .map(|(_, slot)| {
                hpc_telemetry::json::parse(
                    std::str::from_utf8(&slot.read().body(Body::Summary)).unwrap(),
                )
                .unwrap()
            })
            .collect();
        let tree = JsonValue::Object(vec![
            ("systems".to_string(), JsonValue::Array(summaries)),
            ("count".to_string(), JsonValue::Number(2.0)),
        ]);
        assert_eq!(&*listing.body, tree.to_string().as_bytes());
        let empty = route(&req("/v1/systems"), &Fleet::new(Vec::new()));
        assert_eq!(&*empty.body, b"{\"systems\":[],\"count\":0}");
    }

    fn query_fleet(dir: &std::path::Path) -> Fleet {
        use hpc_diagnosis::segment::{write_store, StoreContents};
        use hpc_logs::event::{ConsoleDetail, LogEvent, Payload};

        let events: Vec<LogEvent> = (0..8)
            .map(|i| LogEvent {
                time: SimTime::from_millis(1_000 * (i as u64)),
                payload: Payload::Console {
                    node: NodeId(i % 3),
                    detail: if i % 2 == 0 {
                        ConsoleDetail::DiskError
                    } else {
                        ConsoleDetail::CpuStall { cpu: 0 }
                    },
                },
            })
            .collect();
        write_store(
            dir,
            &StoreContents {
                events: &events,
                failures: &[],
                swos: &[],
                swo_failures: &[],
                skipped_lines: 0,
                total_lines: 8,
                scheduler: SchedulerKind::Slurm,
                source: "unit-test",
            },
        )
        .unwrap();
        fleet().with_query_store("S1", QueryStore::open(dir).unwrap())
    }

    #[test]
    fn query_endpoint_answers_from_the_configured_store() {
        let dir = std::env::temp_dir().join(format!("fleetd-query-route-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let f = query_fleet(&dir);

        // Count with a class filter comes straight from the catalogue.
        let resp = route(&req("/v1/systems/S1/query?verb=count&class=disk_error"), &f);
        assert_eq!(resp.status, 200);
        let body = hpc_telemetry::json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(body.get("count").unwrap().as_number(), Some(4.0));

        // Histogram and tail also answer.
        let hist = route(&req("/v1/systems/S1/query?verb=histogram&by=class"), &f);
        assert_eq!(hist.status, 200);
        let tail = route(&req("/v1/systems/S1/query?verb=tail&n=3"), &f);
        assert_eq!(tail.status, 200);
        let body = hpc_telemetry::json::parse(std::str::from_utf8(&tail.body).unwrap()).unwrap();
        assert_eq!(
            body.get("events")
                .and_then(JsonValue::as_array)
                .unwrap()
                .len(),
            3
        );
        let fails = route(&req("/v1/systems/S1/query?verb=failures"), &f);
        assert_eq!(fails.status, 200);

        // Bad requests are 400 with a reason, not guesses.
        for bad in [
            "/v1/systems/S1/query",
            "/v1/systems/S1/query?verb=nope",
            "/v1/systems/S1/query?verb=count&class=bogus",
            "/v1/systems/S1/query?verb=count&frobnicate=1",
            "/v1/systems/S1/query?verb=histogram",
            "/v1/systems/S1/query?verb=count&from=not-a-time",
        ] {
            assert_eq!(route(&req(bad), &f).status, 400, "{bad}");
        }

        // A system without a store 404s; an unknown system too.
        assert_eq!(
            route(&req("/v1/systems/S2/query?verb=count"), &f).status,
            404
        );
        assert_eq!(
            route(&req("/v1/systems/S9/query?verb=count"), &f).status,
            404
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A rejected parameter value is echoed in the reason; whatever bytes
    /// the request parser let through must come back as valid JSON.
    #[test]
    fn bad_query_values_come_back_as_valid_json() {
        use crate::http::{parse_request, Parse};

        let dir = std::env::temp_dir().join(format!("fleetd-query-echo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let f = query_fleet(&dir);
        for value in ["a\\q", "say\"hi\"", "ctl\u{1}byte"] {
            let raw = format!("GET /v1/systems/S1/query?verb=count&class={value} HTTP/1.1\r\n\r\n");
            let Parse::Complete(request, _) = parse_request(raw.as_bytes()) else {
                panic!("{value:?} must reach the router");
            };
            let resp = route(&request, &f);
            assert_eq!(resp.status, 400, "{value:?}");
            let body = hpc_telemetry::json::parse(std::str::from_utf8(&resp.body).unwrap())
                .unwrap_or_else(|e| panic!("{value:?}: body is not JSON: {e}"));
            assert_eq!(
                body.get("error").and_then(JsonValue::as_str),
                Some(format!("unknown event class `{value}`").as_str())
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What `hpc-query <store> <argv...>` asks for: the positional verb,
    /// then each flag with its dashes stripped — the binary's whole
    /// translation.
    fn cli_request(argv: &[&str]) -> Result<query::Request, String> {
        let mut request = query::Request::default();
        request.set("verb", argv[0])?;
        for pair in argv[1..].chunks(2) {
            request.set(pair[0].trim_start_matches('-'), pair[1])?;
        }
        Ok(request)
    }

    /// The two front ends are one request: for every `(hpc-query argv, URL
    /// query string)` pair the endpoint's body is what the CLI's request
    /// answers over the same store, and a malformed value is refused by
    /// both with the same reason.
    #[test]
    fn query_endpoint_matches_direct_plan_results() {
        let dir = std::env::temp_dir().join(format!("fleetd-query-equiv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let f = query_fleet(&dir);
        let store = &f.query_store("S1").unwrap().store;
        let http = |url: &str| {
            let resp = route(&req(&format!("/v1/systems/S1/query?{url}")), &f);
            (resp.status, String::from_utf8(resp.body.to_vec()).unwrap())
        };

        let answered: [(&[&str], &str); 6] = [
            (&["count"], "verb=count"),
            (
                &[
                    "count",
                    "--class",
                    "cpu_stall",
                    "--from",
                    "2000",
                    "--to",
                    "6000",
                ],
                "verb=count&class=cpu_stall&from=2000&to=6000",
            ),
            (
                &["histogram", "--by", "class", "--node", "nid00001"],
                "node=nid00001&by=class&verb=histogram",
            ),
            (
                &["tail", "-n", "3", "--blade", "0", "--cabinet", "0"],
                "verb=tail&n=3&blade=0&cabinet=0",
            ),
            (
                &["tail", "--from", "2016-01-01T00:00:02.000", "--node", "2"],
                "verb=tail&from=2016-01-01T00:00:02.000&node=2",
            ),
            (&["failures", "--to", "5000"], "verb=failures&to=5000"),
        ];
        for (argv, url) in answered {
            let request = cli_request(argv).unwrap();
            let answer = request
                .run(&query::plan(store, &request.filter), SchedulerKind::Slurm)
                .unwrap();
            assert_eq!(http(url), (200, answer.json().to_string()), "{url}");
        }
        let windowed = cli_request(answered[1].0).unwrap();
        let plan = query::plan(store, &windowed.filter);
        assert_eq!(plan.count().unwrap(), 2); // events at 3000 and 5000

        let refused: [(&[&str], &str); 11] = [
            (&["nope"], "verb=nope"),
            (&["count", "--class", "bogus"], "verb=count&class=bogus"),
            (&["count", "--node", "nidx"], "verb=count&node=nidx"),
            (&["count", "--blade", "-1"], "verb=count&blade=-1"),
            (&["count", "--cabinet", "c0"], "verb=count&cabinet=c0"),
            (
                &["count", "--from", "not-a-time"],
                "verb=count&from=not-a-time",
            ),
            (&["count", "--to", ""], "verb=count&to="),
            (&["histogram", "--by", "week"], "verb=histogram&by=week"),
            (&["tail", "-n", "few"], "verb=tail&n=few"),
            (&["count", "--frobnicate", "1"], "verb=count&frobnicate=1"),
            (&["histogram"], "verb=histogram"),
        ];
        for (argv, url) in refused {
            let reason = match cli_request(argv) {
                Err(reason) => reason,
                Ok(request) => match request.run(&plan, SchedulerKind::Slurm) {
                    Err(RunError::Request(reason)) => reason,
                    other => panic!("{argv:?} must be refused, got {other:?}"),
                },
            };
            let body = JsonValue::Object(vec![("error".to_string(), JsonValue::String(reason))]);
            assert_eq!(http(url), (400, body.to_string()), "{url}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
