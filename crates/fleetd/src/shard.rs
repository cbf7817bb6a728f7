//! One shard = one system = one `StreamEngine` on its own thread.
//!
//! The supervisor spawns a shard per `--system`/`--replay`/`--stdin`
//! flag. Each shard owns its engine exclusively — no shared mutable
//! engine state exists anywhere — and exports state solely by publishing
//! immutable [`SystemSnapshot`]s into its [`SnapshotSlot`]. Publishing is
//! change-driven: a snapshot (and with it the generation, and with *it*
//! the `/report` ETag) is produced only when the observable state
//! actually moved, so an idle system costs neither renders nor cache
//! invalidations.
//!
//! Cold start can pre-warm a shard from a PR 8 segment store
//! (`--backfill NAME=STOREDIR[,t0_ms,t1_ms]`): the store is opened and
//! range-pruned via `Store::load_range`, the selected events re-rendered
//! to log lines, and those fed through the normal ingest path before the
//! live feed starts — the engine cannot tell backfill from tail.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hpc_diagnosis::detection::DetectedFailure;
use hpc_diagnosis::prediction::Alert;
use hpc_diagnosis::segment::Store;
use hpc_logs::event::LogSource;
use hpc_logs::render::render_into;
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::NodeId;
use hpc_stream::drive::drive;
pub use hpc_stream::drive::Feed;
use hpc_stream::{AlertSink, FollowDir, StreamConfig, StreamEngine, StreamStats};

use crate::snapshot::{SnapshotSlot, SystemSnapshot};

/// Achieved lead times the shard retains for `/failures` annotation.
const MAX_LEADS: usize = 4096;

/// Optional cold-start backfill from a segment store directory.
pub struct BackfillSpec {
    /// Store directory (written by `hpc-diagnose --save-store`).
    pub store: PathBuf,
    /// Inclusive lower bound; unset means from the beginning.
    pub from: Option<SimTime>,
    /// Inclusive upper bound; unset means to the end.
    pub to: Option<SimTime>,
}

/// Everything needed to spawn one shard.
pub struct ShardConfig {
    /// System name (`S1`, …) — the `{id}` in `/v1/systems/{id}/...`.
    pub name: String,
    /// Line source.
    pub feed: Feed,
    /// Engine configuration (watermark, window, external gating).
    pub stream: StreamConfig,
    /// Idle poll interval for follow/lines feeds.
    pub poll: Duration,
    /// Cold-start backfill, fed before the live feed.
    pub backfill: Option<BackfillSpec>,
}

/// A running shard: its name, its snapshot slot, and its thread.
pub struct ShardHandle {
    /// System name.
    pub name: String,
    /// Slot the shard publishes into; share with the HTTP server.
    pub slot: Arc<SnapshotSlot>,
    join: JoinHandle<()>,
}

impl ShardHandle {
    /// Waits for the shard thread to drain and exit.
    pub fn join(self) {
        let _ = self.join.join();
    }
}

/// Records achieved lead times as failures finalize, so snapshots can
/// annotate `/failures` records exactly like `--alerts-jsonl` does.
struct LeadSink {
    leads: Arc<Mutex<Vec<(NodeId, SimTime, SimDuration)>>>,
}

impl AlertSink for LeadSink {
    fn alert(&mut self, _alert: &Alert) {}

    fn failure(&mut self, failure: &DetectedFailure, lead: Option<SimDuration>) {
        if let Some(lead) = lead {
            let mut leads = self.leads.lock().unwrap();
            if leads.len() >= MAX_LEADS {
                leads.drain(..MAX_LEADS / 2);
            }
            leads.push((failure.node, failure.time, lead));
        }
    }

    fn flush(&mut self) {}
}

/// Spawns the shard thread. Backfill stores are opened and validated
/// *before* the thread starts, so a bad `--backfill` flag fails fast at
/// startup instead of surfacing as a mysteriously empty system.
pub fn spawn(config: ShardConfig, shutdown: Arc<AtomicBool>) -> Result<ShardHandle, String> {
    let backfill_lines = match &config.backfill {
        Some(spec) => Some(load_backfill(spec)?),
        None => None,
    };
    let slot = Arc::new(SnapshotSlot::new(&config.name));
    let thread_slot = Arc::clone(&slot);
    let name = config.name.clone();
    let join = std::thread::Builder::new()
        .name(format!("shard-{}", config.name))
        .spawn(move || run_shard(config, backfill_lines, thread_slot, shutdown))
        .map_err(|e| format!("cannot spawn shard thread: {e}"))?;
    hpc_telemetry::counter("fleetd.shards.spawned").inc();
    Ok(ShardHandle { name, slot, join })
}

/// Opens the backfill store, prunes to the requested range, and
/// re-renders the selected events as `(source, line)` pairs in global
/// merge order.
fn load_backfill(spec: &BackfillSpec) -> Result<Vec<(LogSource, String)>, String> {
    let store = Store::open(&spec.store).map_err(|e| e.to_string())?;
    let scheduler = store.manifest().scheduler;
    let from = spec.from.unwrap_or(SimTime::EPOCH);
    let to = spec.to.unwrap_or(SimTime::from_millis(u64::MAX));
    let events = store.load_range(from, to).map_err(|e| e.to_string())?;
    let mut lines = Vec::with_capacity(events.len());
    let mut scratch = Vec::new();
    for e in &events {
        render_into(e, scheduler, &mut scratch);
        let source = e.source();
        lines.extend(scratch.drain(..).map(|l| (source, l)));
    }
    hpc_telemetry::counter("fleetd.backfill.events").add(events.len() as u64);
    Ok(lines)
}

fn run_shard(
    config: ShardConfig,
    backfill: Option<Vec<(LogSource, String)>>,
    slot: Arc<SnapshotSlot>,
    shutdown: Arc<AtomicBool>,
) {
    let leads = Arc::new(Mutex::new(Vec::new()));
    let mut engine = StreamEngine::new(config.stream);
    engine.add_sink(Box::new(LeadSink {
        leads: Arc::clone(&leads),
    }));

    // The driver's observer: a snapshot is published exactly when this
    // digest of the observable state (engine stats, outstanding alerts,
    // quarantined sources, finished) changes.
    let mut generation = 0u64;
    let mut last_key = (StreamStats::default(), 0, Vec::new(), false);
    let mut publish = |engine: &StreamEngine, follow: Option<&FollowDir>, finished: bool| {
        let key = (
            engine.stats(),
            engine.outstanding_alerts(),
            follow
                .map(FollowDir::quarantined_sources)
                .unwrap_or_default(),
            finished,
        );
        if key == last_key {
            return;
        }
        last_key = key;
        generation += 1;
        let leads = leads.lock().unwrap().clone();
        slot.publish(SystemSnapshot::capture(
            &config.name,
            generation,
            finished,
            engine,
            follow.map(FollowDir::health),
            &leads,
        ));
    };

    if let Some(lines) = backfill {
        for (source, line) in &lines {
            engine.push_line(*source, line);
        }
        publish(&engine, None, false);
    }

    let resident = matches!(config.feed, Feed::Replay(_));
    let stop = || shutdown.load(Ordering::SeqCst);
    drive(&mut engine, config.feed, config.poll, stop, publish);
    // A replayed system stays resident — its snapshot keeps serving —
    // until shutdown.
    while resident && !stop() {
        std::thread::sleep(config.poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_shard_drains_and_publishes_a_finished_snapshot() {
        // An empty directory: the first poll feeds nothing, so the shard
        // finishes immediately with a generation-1 empty-but-final state.
        let dir = std::env::temp_dir().join(format!("fleetd-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = spawn(
            ShardConfig {
                name: "S9".to_string(),
                feed: Feed::Replay(dir.clone()),
                stream: StreamConfig::default(),
                poll: Duration::from_millis(5),
                backfill: None,
            },
            Arc::clone(&shutdown),
        )
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !handle.slot.read().finished {
            assert!(std::time::Instant::now() < deadline, "shard never finished");
            std::thread::sleep(Duration::from_millis(5));
        }
        let snap = handle.slot.read();
        assert_eq!(snap.system, "S9");
        assert!(snap.finished);
        shutdown.store(true, Ordering::SeqCst);
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: a `Lines` shard whose lines arrive more often than its
    /// poll interval used to publish only on a receive timeout — that is,
    /// never before EOF.
    #[test]
    fn lines_shard_fed_faster_than_its_poll_publishes_while_fed() {
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = spawn(
            ShardConfig {
                name: "S1".to_string(),
                feed: Feed::Lines(rx),
                stream: StreamConfig::default(),
                poll: Duration::from_millis(200),
                backfill: None,
            },
            Arc::clone(&shutdown),
        )
        .unwrap();
        let mut seen_while_sending = 0;
        for i in 0..60 {
            tx.send(format!(
                "2016-01-01T00:00:{i:02}.000 c0-0c0s0n1 chatter {i}"
            ))
            .unwrap();
            std::thread::sleep(Duration::from_millis(20));
            seen_while_sending = handle.slot.read().generation;
        }
        assert!(
            seen_while_sending > 0,
            "1.2 s of lines 20 ms apart and the slot never left generation 0"
        );
        // EOF drains the shard; its last snapshot has every line.
        drop(tx);
        let slot = Arc::clone(&handle.slot);
        handle.join();
        assert!(slot.read().finished);
    }

    #[test]
    fn bad_backfill_store_fails_fast() {
        let shutdown = Arc::new(AtomicBool::new(false));
        let err = spawn(
            ShardConfig {
                name: "S1".to_string(),
                feed: Feed::Replay(PathBuf::from("/nonexistent")),
                stream: StreamConfig::default(),
                poll: Duration::from_millis(5),
                backfill: Some(BackfillSpec {
                    store: PathBuf::from("/nonexistent/store"),
                    from: None,
                    to: None,
                }),
            },
            shutdown,
        )
        .err()
        .expect("must fail");
        assert!(err.contains("cannot read"), "{err}");
    }
}
