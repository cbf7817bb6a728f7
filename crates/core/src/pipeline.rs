//! The diagnosis pipeline core: ingest → detect → index.
//!
//! [`Diagnosis::from_dir`] is the entry point `hpc-diagnose` uses. It pulls
//! the four log files of an archive directory through one pool sized from
//! the machine ([`Diagnosis::ingest_threads`]): each worker takes the reader
//! lock, pulls the next bounded block of whole lines, releases the lock and
//! parses the block, so reading overlaps parsing and raw text in memory
//! never exceeds one block per worker. A worker leaves its block's events
//! time-sorted, so what the pool hands on is sorted runs; one galloping run
//! merge ([`merge_by_time`]) makes them the chronological sequence. The
//! [`EventStore`] indexes every analysis module queries are built next, and
//! failure detection reads the few terminal-class events through them
//! instead of scanning the sequence again.
//! [`Diagnosis::from_archive`] runs the same pool over an in-memory archive.
//!
//! The pipeline deliberately starts from *text*: it knows nothing about the
//! simulator, mirroring the paper's position of mining p0-directory,
//! controller, ERD and scheduler files.

use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use hpc_logs::archive::{merge_by_time, LogArchive};
use hpc_logs::chunk::{chunk_lines_for, chunk_spans, parse_chunk, stitch_runs, ChunkParse};
use hpc_logs::event::{LogEvent, LogSource};
use hpc_logs::fs::{Block, BlockReader};
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::system::SchedulerKind;
use hpc_platform::{BladeId, CabinetId, NodeId};

use crate::detection::{detect_failures, DetectedFailure, TERMINAL_CLASSES};
use crate::segment::{self, Manifest, OpenError, StoreContents};
use crate::store::EventStore;
use crate::swo::{detect_swos, partition_failures, SwoWindow};
use crate::windows::EXTERNAL_WINDOW;

/// What a caller may set about a diagnosis. The windows nobody sets are
/// constants in [`crate::windows`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagnosisConfig {
    /// Run the ingest pool at machine width (false = the same code with
    /// one worker, on the calling thread).
    pub parallel_ingest: bool,
    /// How far back external correlation searches the controller/ERD
    /// streams for early indicators: the lead-time and false-positive
    /// analyses and the batch predictor's backing all read it
    /// (`experiments ablation-window` sweeps it).
    pub external_window: SimDuration,
    /// Recognise system-wide outages and exclude their failures from the
    /// node-failure population (§III: "Our study addresses single and
    /// multiple node failures, unlike SWOs").
    pub exclude_swos: bool,
}

impl Default for DiagnosisConfig {
    fn default() -> DiagnosisConfig {
        DiagnosisConfig {
            parallel_ingest: true,
            external_window: EXTERNAL_WINDOW,
            exclude_swos: true,
        }
    }
}

/// The parsed, indexed view of one observation window: a thin view over
/// the [`EventStore`] plus the detection outputs.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// Pipeline configuration used.
    pub config: DiagnosisConfig,
    /// Detected node failures (chronological), excluding failures swallowed
    /// by recognised SWOs when `config.exclude_swos` is set.
    pub failures: Vec<DetectedFailure>,
    /// Recognised system-wide outages.
    pub swos: Vec<SwoWindow>,
    /// Failures attributed to SWOs (excluded from `failures`).
    pub swo_failures: Vec<DetectedFailure>,
    /// Lines no parser recognised (log corruption indicator).
    pub skipped_lines: u64,
    store: EventStore,
}

impl Diagnosis {
    /// Ingest pool width under `config`: 1 when `parallel_ingest` is off,
    /// otherwise `std::thread::available_parallelism()` (which honours CPU
    /// affinity and cgroup quotas). Also what the `core.ingest.threads`
    /// gauge reports.
    pub fn ingest_threads(config: &DiagnosisConfig) -> usize {
        if !config.parallel_ingest {
            return 1;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }

    /// Runs ingest + detection + indexing over an in-memory archive: each
    /// stream is cut into line ranges (a few per pool thread) that feed the
    /// same pool [`Diagnosis::from_dir`] reads blocks into.
    pub fn from_archive(archive: &LogArchive, config: DiagnosisConfig) -> Diagnosis {
        Self::from_archive_with(archive, Self::ingest_threads(&config), config)
    }

    /// [`Diagnosis::from_archive`] at a given pool width (tests sweep it).
    fn from_archive_with(
        archive: &LogArchive,
        threads: usize,
        config: DiagnosisConfig,
    ) -> Diagnosis {
        let _span = hpc_telemetry::span!("core.from_archive");
        let ranges = LogSource::ALL.iter().enumerate().flat_map(|(si, &source)| {
            let lines = archive.lines(source);
            chunk_spans(lines.len(), chunk_lines_for(lines.len(), threads))
                .map(move |span| (si, &lines[span]))
        });
        let parse =
            |source, lines: &&[String]| parse_chunk(source, lines.iter().map(String::as_str));
        Self::from_blocks(threads, ranges, parse, config)
    }

    /// Runs the pooled ingest directly off an on-disk archive directory
    /// (the `save_archive` layout), reading each stream in bounded blocks
    /// instead of materialising whole files the way `load_archive` +
    /// [`Diagnosis::from_archive`] does. Missing files load as empty.
    pub fn from_dir(root: &Path, config: DiagnosisConfig) -> io::Result<Diagnosis> {
        Self::from_dir_with(
            root,
            Self::ingest_threads(&config),
            config,
            BlockReader::open,
        )
    }

    /// [`Diagnosis::from_dir`] at a given pool width, with the block readers
    /// opened by `open` (tests sweep the width and force tiny blocks).
    fn from_dir_with(
        root: &Path,
        threads: usize,
        config: DiagnosisConfig,
        open: impl Fn(&Path) -> io::Result<BlockReader>,
    ) -> io::Result<Diagnosis> {
        let _span = hpc_telemetry::span!("core.from_dir");
        let scheduler = hpc_logs::fs::detect_scheduler(root);
        // Opened up front, so an unreadable file fails before any parsing.
        let mut readers = Vec::with_capacity(LogSource::ALL.len());
        for (si, source) in LogSource::ALL.into_iter().enumerate() {
            let path = root.join(hpc_logs::fs::source_path(source, scheduler));
            if path.exists() {
                readers.push((si, open(&path)?));
            }
        }
        // One queue for the directory: a source run dry hands on to the next.
        let blocks = readers
            .into_iter()
            .flat_map(|(si, reader)| reader.map(move |block| (si, block)));
        let parse = |source, block: &Block| parse_chunk(source, block.lines());
        Ok(Self::from_blocks(threads, blocks, parse, config))
    }

    /// The ingest shared by [`Diagnosis::from_dir`] and
    /// [`Diagnosis::from_archive`]: pool-parse `blocks`, merge the sorted
    /// runs of all sources, hand over to [`Diagnosis::from_events`].
    fn from_blocks<B: Send>(
        threads: usize,
        blocks: impl Iterator<Item = (usize, B)> + Send,
        parse: impl Fn(LogSource, &B) -> ChunkParse + Sync,
        config: DiagnosisConfig,
    ) -> Diagnosis {
        hpc_telemetry::gauge("core.ingest.threads").set(threads as f64);
        let (runs, total_lines, skipped_lines) = {
            let _parse = hpc_telemetry::span!("core.ingest.parse");
            run_ingest_pool(threads, blocks, parse)
        };
        hpc_telemetry::counter("ingest.lines").add(total_lines);
        hpc_telemetry::counter("ingest.skipped_lines").add(skipped_lines);
        let events = {
            let _merge = hpc_telemetry::span!("core.ingest.merge");
            merge_by_time(runs)
        };
        hpc_telemetry::counter("ingest.events").add(events.len() as u64);
        Self::from_events(events, skipped_lines, config)
    }

    /// Builds a diagnosis from already-parsed chronological events (used by
    /// tests and the structured-fast-path ablation).
    ///
    /// # Panics
    ///
    /// If there are more than `u32::MAX` events — the store's posting lists
    /// store dense `u32` positions, and truncating would silently point
    /// them at the wrong events. Split the observation window instead.
    pub fn from_events(
        events: Vec<LogEvent>,
        skipped_lines: u64,
        config: DiagnosisConfig,
    ) -> Diagnosis {
        // Index first: detection and the machine-size estimate then read
        // what the indexes already hold, not the whole sequence twice more.
        let mut store = EventStore::index(events);
        let all_failures = {
            let _detect = hpc_telemetry::span!("core.detect");
            detect_failures(store.classes_events(TERMINAL_CLASSES))
        };
        hpc_telemetry::counter("core.detect.failures").add(all_failures.len() as u64);
        let (failures, swos, swo_failures) = if config.exclude_swos {
            let _swo = hpc_telemetry::span!("core.swo.partition");
            let swos = detect_swos(&all_failures, store.node_count_estimate());
            let (regular, swallowed) = partition_failures(&all_failures, &swos);
            hpc_telemetry::counter("core.swo.windows").add(swos.len() as u64);
            hpc_telemetry::counter("core.swo.excluded_failures").add(swallowed.len() as u64);
            (regular, swos, swallowed)
        } else {
            (all_failures, Vec::new(), Vec::new())
        };
        store.attach_failures(&failures);
        Diagnosis {
            config,
            failures,
            swos,
            swo_failures,
            skipped_lines,
            store,
        }
    }

    /// Persists this diagnosis as an on-disk segment store in `dir` (see
    /// [`crate::segment`]): the merged event sequence columnar-encoded per
    /// class, plus the detection outputs, so later runs reopen in
    /// milliseconds instead of re-parsing text. `source` is a provenance
    /// string for the manifest; `total_lines` and `scheduler` describe the
    /// archive the diagnosis was built from.
    pub fn save_store(
        &self,
        dir: &Path,
        source: &str,
        total_lines: u64,
        scheduler: SchedulerKind,
    ) -> io::Result<Manifest> {
        segment::write_store(
            dir,
            &StoreContents {
                events: self.store.events(),
                failures: &self.failures,
                swos: &self.swos,
                swo_failures: &self.swo_failures,
                skipped_lines: self.skipped_lines,
                total_lines,
                scheduler,
                source,
            },
        )
    }

    /// Reopens a segment store written by [`Diagnosis::save_store`]. The
    /// persisted detection outputs are trusted as-is — no re-detection, no
    /// re-partitioning — so the result (and any report rendered from it)
    /// is identical to the diagnosis that wrote the store, at a fraction
    /// of the cost.
    pub fn from_store(dir: &Path, config: DiagnosisConfig) -> Result<Diagnosis, OpenError> {
        let _span = hpc_telemetry::span!("core.from_store");
        let opened = segment::open_store(dir)?;
        let store = EventStore::build(opened.events, &opened.failures);
        Ok(Diagnosis {
            config,
            failures: opened.failures,
            swos: opened.swos,
            swo_failures: opened.swo_failures,
            skipped_lines: opened.manifest.skipped_lines,
            store,
        })
    }

    /// The underlying [`EventStore`], for class-level and failure-index
    /// queries the thin delegates below don't cover.
    pub fn store(&self) -> &EventStore {
        &self.store
    }

    /// All events, chronologically merged across sources.
    pub fn events(&self) -> &[LogEvent] {
        self.store.events()
    }

    /// First and last event times (epoch..epoch for an empty window).
    pub fn window(&self) -> (SimTime, SimTime) {
        self.store.window()
    }

    /// Events about `node` within `[from, to)`.
    pub fn node_events_between(
        &self,
        node: NodeId,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &LogEvent> {
        self.store.node_events_between(node, from, to)
    }

    /// External (controller/ERD) events attributed to `blade` within
    /// `[from, to)`.
    pub fn blade_external_between(
        &self,
        blade: BladeId,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &LogEvent> {
        self.store.blade_external_between(blade, from, to)
    }

    /// External events attributed to `cabinet` within `[from, to)`.
    pub fn cabinet_external_between(
        &self,
        cabinet: CabinetId,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &LogEvent> {
        self.store.cabinet_external_between(cabinet, from, to)
    }

    /// Blades that logged any external fault/warning in `[from, to)`.
    pub fn faulty_blades_between(&self, from: SimTime, to: SimTime) -> Vec<BladeId> {
        self.store.faulty_blades_between(from, to)
    }
}

/// The ingest pool. `threads` workers (the calling thread is one of them)
/// loop: take the queue lock, pull the next of `blocks` — `(source index,
/// run of whole lines)`, sources and their blocks in file order — release
/// the lock, parse the block with `parse`. Pulling is the only serial
/// section, so reading overlaps parsing and at most `threads` blocks are
/// resident. Each source's chunk parses are then reassembled in file order
/// by [`stitch_runs`], which makes the merged output bit-identical to a
/// single-threaded [`hpc_logs::LogParser`] even when block boundaries cut
/// through multi-line oops/stack-trace records or reordered lines (see
/// `crates/logs/src/chunk.rs`). Returns every source's time-sorted runs, in
/// `(source, file order)` order — the tie order the merge keeps — and the
/// total and skipped line counts.
///
/// Telemetry: a `core.ingest.read` span per pull (lock wait apart, in the
/// `core.ingest.read.wait_us` histogram) and, per block, a
/// `core.ingest.parse.<source>` span around its `core.ingest.chunk`; one
/// more `core.ingest.parse.<source>` wraps `core.ingest.stitch.<source>`,
/// so the per-source histogram sums the CPU time a source cost across the
/// pool, not one thread's wall time.
fn run_ingest_pool<B: Send>(
    threads: usize,
    blocks: impl Iterator<Item = (usize, B)> + Send,
    parse: impl Fn(LogSource, &B) -> ChunkParse + Sync,
) -> (Vec<Vec<LogEvent>>, u64, u64) {
    // Pulls are numbered, so results sort back into file order.
    let queue = Mutex::new(blocks.enumerate());
    let work = || {
        let mut parsed = Vec::new();
        loop {
            let pulled = {
                let waiting = Instant::now();
                let mut queue = queue.lock().expect("an ingest worker panicked mid-pull");
                hpc_telemetry::histogram("core.ingest.read.wait_us")
                    .record(waiting.elapsed().as_micros() as u64);
                let _read = hpc_telemetry::span!("core.ingest.read");
                queue.next()
            };
            let Some((seq, (si, block))) = pulled else {
                return parsed;
            };
            let source = LogSource::ALL[si];
            let _source = hpc_telemetry::span!(format!("core.ingest.parse.{}", source.key()));
            let _chunk = hpc_telemetry::span!("core.ingest.chunk");
            parsed.push((seq, si, parse(source, &block)));
        }
    };
    let mut parsed = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut parsed = work();
        for worker in spawned {
            parsed.extend(worker.join().expect("ingest worker panicked"));
        }
        parsed
    });
    parsed.sort_by_key(|&(seq, _, _)| seq);
    let mut chunks: [Vec<ChunkParse>; 4] = Default::default();
    for (_, si, chunk) in parsed {
        chunks[si].push(chunk);
    }
    let mut runs = Vec::new();
    let (mut total, mut skipped) = (0, 0);
    for (source, chunks) in LogSource::ALL.into_iter().zip(chunks) {
        let key = source.key();
        let _source = hpc_telemetry::span!(format!("core.ingest.parse.{key}"));
        let stream = {
            let _stitch = hpc_telemetry::span!(format!("core.ingest.stitch.{key}"));
            stitch_runs(chunks)
        };
        let events: usize = stream.runs.iter().map(Vec::len).sum();
        hpc_telemetry::counter(&format!("ingest.{key}.lines")).add(stream.total_lines());
        hpc_telemetry::counter(&format!("ingest.{key}.events")).add(events as u64);
        hpc_telemetry::counter(&format!("ingest.{key}.skipped")).add(stream.skipped_lines);
        total += stream.total_lines();
        skipped += stream.skipped_lines;
        runs.extend(stream.runs);
    }
    (runs, total, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_faultsim::Scenario;
    use hpc_platform::SystemId;

    fn diagnose(seed: u64, parallel: bool) -> (Diagnosis, hpc_faultsim::SimOutput) {
        let out = Scenario::new(SystemId::S1, 2, 7, seed).run();
        let d = Diagnosis::from_archive(
            &out.archive,
            DiagnosisConfig {
                parallel_ingest: parallel,
                ..DiagnosisConfig::default()
            },
        );
        (d, out)
    }

    #[test]
    fn parallel_and_sequential_ingest_agree() {
        let (dp, _) = diagnose(5, true);
        let (ds, _) = diagnose(5, false);
        assert_eq!(dp.events(), ds.events());
        assert_eq!(dp.failures, ds.failures);
        assert_eq!(dp.skipped_lines, ds.skipped_lines);
    }

    #[test]
    fn pooled_ingest_agrees_at_every_pool_width() {
        let out = Scenario::new(SystemId::S1, 2, 7, 11).run();
        let seq = Diagnosis::from_archive(
            &out.archive,
            DiagnosisConfig {
                parallel_ingest: false,
                ..DiagnosisConfig::default()
            },
        );
        // One worker is the same pool code: pin it to the whole-stream
        // parser, which never chunks, so the sweep has an outside witness.
        let whole = out.archive.parse_merged();
        assert_eq!(seq.events(), whole.events);
        assert_eq!(seq.skipped_lines, whole.skipped_lines);
        let machine = Diagnosis::ingest_threads(&DiagnosisConfig::default());
        for threads in [1, 2, 4, machine] {
            let pooled =
                Diagnosis::from_archive_with(&out.archive, threads, DiagnosisConfig::default());
            assert_eq!(pooled.events(), seq.events(), "pool width {threads}");
            assert_eq!(pooled.failures, seq.failures, "pool width {threads}");
            assert_eq!(
                pooled.skipped_lines, seq.skipped_lines,
                "pool width {threads}"
            );
        }
    }

    #[test]
    fn from_dir_streams_to_the_same_diagnosis() {
        let out = Scenario::new(SystemId::S1, 1, 4, 13).run();
        let dir = tmpdir("from-dir");
        hpc_logs::fs::save_archive(&out.archive, &dir).unwrap();
        let streamed = Diagnosis::from_dir(&dir, DiagnosisConfig::default()).unwrap();
        let in_memory = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
        assert_eq!(streamed.events(), in_memory.events());
        assert_eq!(streamed.failures, in_memory.failures);
        assert_eq!(streamed.skipped_lines, in_memory.skipped_lines);
        // Missing streams load as empty, like load_archive.
        std::fs::remove_dir_all(dir.join("controller")).unwrap();
        let partial = Diagnosis::from_dir(&dir, DiagnosisConfig::default()).unwrap();
        assert!(partial.events().len() < in_memory.events().len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hpc-core-pipeline-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `from_dir` with `threads` workers over blocks of `block_bytes`.
    fn from_dir_blocks(dir: &Path, threads: usize, block_bytes: usize) -> Diagnosis {
        Diagnosis::from_dir_with(dir, threads, DiagnosisConfig::default(), |path| {
            BlockReader::with_block_bytes(path, block_bytes)
        })
        .unwrap()
    }

    #[test]
    fn from_dir_agrees_at_tiny_blocks_and_every_pool_width() {
        use hpc_faultsim::chaos::{ChaosFeed, ChaosSpec, Intensity};
        let archive = crate::fixtures::s1_1x2_seed21();
        let clean = tmpdir("blocks-clean");
        hpc_logs::fs::save_archive(archive, &clean).unwrap();
        let hostile = tmpdir("blocks-chaos");
        ChaosFeed::corrupt(archive, &ChaosSpec::mixed(Intensity::Heavy, 5))
            .write_dir(&hostile)
            .unwrap();
        for dir in [&clean, &hostile] {
            let loaded = hpc_logs::fs::load_archive(dir).unwrap();
            let reference = Diagnosis::from_archive(
                &loaded,
                DiagnosisConfig {
                    parallel_ingest: false,
                    ..DiagnosisConfig::default()
                },
            );
            // The pool's own one-worker run is not an independent witness:
            // pin it to the whole-stream parser, which never chunks.
            let whole = loaded.parse_merged();
            assert_eq!(reference.events(), whole.events);
            assert_eq!(reference.skipped_lines, whole.skipped_lines);
            // 64 bytes is below every line length: one line per block, so
            // every multi-line trace straddles block boundaries.
            for block_bytes in [64, 997, 1 << 20] {
                for threads in [1, 2, 4] {
                    let d = from_dir_blocks(dir, threads, block_bytes);
                    let at = format!("{} at {block_bytes} B x {threads}", dir.display());
                    assert_eq!(d.events(), reference.events(), "{at}");
                    assert_eq!(d.failures, reference.failures, "{at}");
                    assert_eq!(d.skipped_lines, reference.skipped_lines, "{at}");
                }
            }
        }
        assert!(
            Diagnosis::from_dir(&hostile, DiagnosisConfig::default())
                .unwrap()
                .skipped_lines
                > 0,
            "the hostile directory must exercise the skip path"
        );
        std::fs::remove_dir_all(&clean).unwrap();
        std::fs::remove_dir_all(&hostile).unwrap();
    }

    #[test]
    fn oops_trace_straddling_any_block_boundary_reassembles() {
        use hpc_logs::event::{ConsoleDetail, OopsCause, Payload, StackModule};
        let console = |ms: u64, node: u32, detail: ConsoleDetail| LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(node),
                detail,
            },
        };
        let events = vec![
            console(500, 3, ConsoleDetail::DiskError),
            console(
                1_000,
                7,
                ConsoleDetail::KernelOops {
                    cause: OopsCause::NullDeref,
                    modules: vec![StackModule::LdlmBl, StackModule::MceLog],
                },
            ),
            console(2_000, 3, ConsoleDetail::BiosError),
            console(3_000, 7, ConsoleDetail::DiskError), // completes the oops
        ];
        let mut archive = LogArchive::new(SchedulerKind::Slurm);
        for event in &events {
            archive.append_event(event);
        }
        let dir = tmpdir("straddle");
        hpc_logs::fs::save_archive(&archive, &dir).unwrap();
        let bytes = archive.total_bytes() as usize;
        assert!(archive.total_lines() > events.len() as u64, "trace lines");
        // Every block size up to the whole file puts a boundary after every
        // line of the trace in turn.
        for block_bytes in 1..=bytes {
            for threads in [1, 3] {
                let d = from_dir_blocks(&dir, threads, block_bytes);
                assert_eq!(d.events(), &events[..], "{block_bytes} B x {threads}");
                assert_eq!(d.skipped_lines, 0, "{block_bytes} B x {threads}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_thread_resolution_precedence() {
        let seq = DiagnosisConfig {
            parallel_ingest: false,
            ..DiagnosisConfig::default()
        };
        assert_eq!(Diagnosis::ingest_threads(&seq), 1);
        let machine = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        assert_eq!(
            Diagnosis::ingest_threads(&DiagnosisConfig::default()),
            machine
        );
    }

    #[test]
    fn node_events_are_chronological_and_scoped() {
        let (d, _) = diagnose(2, true);
        let node = d.failures[0].node;
        let (a, b) = d.window();
        let events: Vec<_> = d
            .node_events_between(node, a, b + SimDuration::from_millis(1))
            .collect();
        assert!(!events.is_empty());
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        for e in events {
            assert_eq!(e.subject_node(), Some(node));
        }
    }

    #[test]
    fn between_queries_respect_bounds() {
        let (d, _) = diagnose(3, true);
        let node = d.failures[0].node;
        let t = d.failures[0].time;
        let from = t.saturating_sub(SimDuration::from_mins(30));
        for e in d.node_events_between(node, from, t) {
            assert!(e.time >= from && e.time < t);
        }
        // Full-window query matches unfiltered iteration.
        let (a, b) = d.window();
        let all: Vec<_> = (d.events().iter())
            .filter(|e| e.subject_node() == Some(node))
            .collect();
        let windowed: Vec<_> = d
            .node_events_between(node, a, b + SimDuration::from_millis(1))
            .collect();
        assert_eq!(all, windowed);
    }

    #[test]
    fn faulty_blades_nonempty_on_noisy_scenario() {
        let (d, _) = diagnose(4, true);
        let (a, b) = d.window();
        let blades = d.faulty_blades_between(a, b);
        assert!(!blades.is_empty());
        // Sorted, deduplicated.
        assert!(blades.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn no_lines_skipped_on_clean_archive() {
        let (d, _) = diagnose(6, true);
        assert_eq!(d.skipped_lines, 0);
    }

    #[test]
    fn empty_archive_diagnoses_to_nothing() {
        let archive = hpc_logs::LogArchive::new(hpc_platform::system::SchedulerKind::Slurm);
        let d = Diagnosis::from_archive(&archive, DiagnosisConfig::default());
        assert!(d.events().is_empty());
        assert!(d.failures.is_empty());
        assert!(d.swos.is_empty());
        assert_eq!(
            d.window(),
            (hpc_logs::SimTime::EPOCH, hpc_logs::SimTime::EPOCH)
        );
    }
}
