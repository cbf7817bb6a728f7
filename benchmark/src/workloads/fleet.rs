//! `fleet_api`: the fleetd read path over one keep-alive connection.
//!
//! An in-process `hpc_fleet::serve` on `127.0.0.1:0` with the default
//! `ServerConfig` serves one finished snapshot (the archive replayed
//! through `FollowDir` + engine, as a `--replay` shard does) and a
//! `QueryStore` of the same archive's diagnosis. One client sends the
//! seeded request list in a closed loop.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hpc_fleet::snapshot::{SnapshotSlot, SystemSnapshot};
use hpc_fleet::{serve, Fleet, QueryStore, ServerConfig, ServerHandle};
use hpc_telemetry::json;

use crate::http::{Client, Reply};
use crate::mix::{self, Domain, Request, Route, ROUTE_LIST, SYSTEM};
use crate::outcome::{peak_rss_mb, repeated_setup, timed_ms, Outcome};
use crate::workloads::follow::catch_up;
use crate::workloads::store::StoreBed;
use crate::Ctx;

/// Fewest timed requests.
const MIN_REQUESTS: usize = 500;

/// A running server with the state it serves.
pub struct FleetBed {
    pub snapshot: Arc<SystemSnapshot>,
    pub domain: Domain,
    /// The one keep-alive client. The bed owns it so that it is closed
    /// before the server is joined: a worker blocks in `read` on an open
    /// connection until its 5 s timeout.
    pub client: Client,
    shutdown: Arc<AtomicBool>,
    server: Option<ServerHandle>,
}

impl FleetBed {
    /// The snapshot a finished replay shard publishes for `archive`.
    pub fn snapshot_of(archive: &Path) -> SystemSnapshot {
        let (engine, _, _) = catch_up(archive);
        SystemSnapshot::capture(SYSTEM, 1, true, &engine, None, &[])
    }

    pub fn fleet(slot: &Arc<SnapshotSlot>, store_dir: &Path) -> Fleet {
        Fleet::new(vec![(SYSTEM.to_string(), Arc::clone(slot))]).with_query_store(
            SYSTEM,
            QueryStore::open(store_dir).expect("store just written opens"),
        )
    }

    /// Serves `archive`'s finished snapshot and `store`'s segment store.
    pub fn start(archive: &Path, store: &StoreBed) -> FleetBed {
        let slot = Arc::new(SnapshotSlot::new(SYSTEM));
        slot.publish(FleetBed::snapshot_of(archive));
        let shutdown = Arc::new(AtomicBool::new(false));
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback is available");
        let server = serve(
            listener,
            FleetBed::fleet(&slot, &store.store_dir),
            ServerConfig::default(),
            Arc::clone(&shutdown),
        )
        .expect("server starts");
        let client = Client::connect(server.addr()).expect("connect to the server just started");
        FleetBed {
            client,
            snapshot: slot.read(),
            domain: Domain::of(&store.diagnosis),
            shutdown,
            server: Some(server),
        }
    }
}

impl Drop for FleetBed {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.client.close();
        if let Some(server) = self.server.take() {
            server.join();
        }
    }
}

/// Why `reply` is not an acceptable answer to `request`, if it is not.
pub fn check_reply(request: &Request, reply: &Reply, snapshot: &SystemSnapshot) -> Option<String> {
    if reply.status != 200 {
        return Some(format!("{}: status {}", request.target, reply.status));
    }
    if request.route == Route::Report {
        return (reply.body != snapshot.report().as_bytes()).then(|| {
            format!(
                "{}: body differs from SystemSnapshot::report()",
                request.target
            )
        });
    }
    let text = match std::str::from_utf8(&reply.body) {
        Ok(t) => t,
        Err(_) => return Some(format!("{}: body is not UTF-8", request.target)),
    };
    json::parse(text)
        .err()
        .map(|e| format!("{}: body is not JSON: {e}", request.target))
}

/// The first reply to each distinct request target. A repeat of the
/// target must repeat it byte for byte (except `/metrics`, whose counters
/// move); the firsts themselves are checked once, after the clock stops.
#[derive(Default)]
pub struct ReplyLedger<'a> {
    firsts: BTreeMap<&'a str, (&'a Request, Reply)>,
}

impl<'a> ReplyLedger<'a> {
    /// Files `reply`; returns why it is unacceptable as a repeat, if it is.
    pub fn record(&mut self, request: &'a Request, reply: Reply) -> Option<String> {
        match self.firsts.get(request.target.as_str()) {
            Some((_, first)) if request.route != Route::Metrics && *first != reply => {
                Some(format!("{} changed its reply", request.target))
            }
            Some(_) => None,
            None => {
                self.firsts.insert(&request.target, (request, reply));
                None
            }
        }
    }

    /// [`check_reply`] over every first reply.
    pub fn verify(&self, snapshot: &SystemSnapshot) -> Vec<String> {
        self.firsts
            .values()
            .filter_map(|(request, reply)| check_reply(request, reply, snapshot))
            .collect()
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();

    let ((mut bed, requests), setup_s) = repeated_setup(|| {
        let store = StoreBed::build(&ctx.archive(), &ctx.work);
        let mut bed = FleetBed::start(&ctx.archive(), &store);
        let requests = mix::route_mix(ctx.seed, &bed.domain, ROUTE_LIST);
        // Warm-up: every route once; this also renders the cached report.
        let mut seen = Vec::new();
        for r in &requests {
            if !seen.contains(&r.route) {
                seen.push(r.route);
                bed.client.request(&r.wire()).expect("warm-up request");
            }
        }
        (bed, requests)
    });

    let wires: Vec<Vec<u8>> = requests.iter().map(Request::wire).collect();
    let mut request_ms = Vec::new();
    let mut ledger = ReplyLedger::default();
    let start = Instant::now();
    while request_ms.len() < MIN_REQUESTS || start.elapsed().as_secs_f64() < ctx.seconds {
        let index = request_ms.len() % requests.len();
        let (reply, ms) = timed_ms(|| bed.client.request(&wires[index]));
        out.attempted += 1;
        request_ms.push(ms);
        let failure = match reply {
            Ok(reply) => ledger.record(&requests[index], reply),
            Err(e) => Some(format!("{}: {e}", requests[index].target)),
        };
        if let Some(why) = failure {
            out.fail(1, || why);
        }
    }
    out.set("peak_rss_mb", peak_rss_mb());

    for why in ledger.verify(&bed.snapshot) {
        out.fail(1, || why);
    }

    out.set("setup_s", setup_s);
    out.set(
        "throughput_per_s",
        request_ms.len() as f64 / (request_ms.iter().sum::<f64>() / 1e3),
    );
    out.set("reconnects", bed.client.reconnects as f64);
    out.set("alerts_in_snapshot", bed.snapshot.alerts.len() as f64);
    let mut by_route: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, ms) in request_ms.iter().enumerate() {
        by_route
            .entry(requests[i % requests.len()].route.key())
            .or_default()
            .push(*ms);
    }
    for (route, ms) in by_route {
        out.samples.insert(format!("request_ms.{route}"), ms);
    }
    out.set_latency(request_ms, ctx.spec.tail_permille);
    out
}
