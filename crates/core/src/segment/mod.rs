//! Persistent on-disk segment store.
//!
//! The paper's methodology is a *re-analysis* workload: the same
//! months-long archive is interrogated over and over (Observations 1–9),
//! yet until now every invocation re-parsed raw log text. This module
//! persists the ingested, detected, indexed view once — written by
//! `hpc-diagnose --save-store <dir>` — and reopens it in milliseconds for
//! every later `hpc-diagnose --from-store` / `hpc-query` run.
//!
//! # Layout
//!
//! A store directory holds one columnar segment file per populated
//! [`EventClass`], a derived-state file, and a manifest:
//!
//! ```text
//! store/
//! ├── MANIFEST.json     schema version, fingerprint, segment catalogue
//! ├── seg-mce.col       one segment per event class that has events
//! ├── seg-job_start.col
//! ├── ...
//! └── derived.bin       detected failures, SWO windows, SWO failures
//! ```
//!
//! Each segment holds only events of its class, so payloads are encoded
//! tag-free (see [`codec`]). Within a segment the columns are: a sorted
//! node-id dictionary, delta-encoded timestamps, strictly-increasing
//! global positions (the event's index in the chronologically merged
//! stream — preserving merge tie-order exactly), and the payload column.
//! After the columns comes the block directory: for every block of 256
//! rows, the first row's absolute time and position and the byte offset
//! of that row in each of the three row columns, so a reader can start
//! decoding at any block instead of at row 0. The footer carries the
//! segment's time range, row count, a checksum of the body (columns and
//! directory) and where the directory starts, so truncation and bit-rot
//! are detected before any row is trusted.
//!
//! Opening is two-phase, the way columnar databases split catalog open
//! from segment scan: [`Store::open`] reads and validates every file —
//! manifest, envelopes, checksums, footers — without decoding a row;
//! [`Store::load`] is the scan that decodes rows and derived state.
//! [`open_store`] composes both for callers that want everything.
//!
//! # Versioning
//!
//! `MANIFEST.json` carries `schema_version`; readers reject any version
//! they don't know ([`OpenError::Version`]). Schema 1 segments have no
//! block directory and a shorter footer; the footer magic says which kind
//! a file is, and a schema 1 segment is read as one block that starts at
//! row 0, by the same readers. The manifest `fingerprint`
//! hashes the store's logical content (line/event counts, per-class
//! counts, window) and is re-derived on open, so a manifest paired with
//! the wrong segment files refuses to load. All decode paths return
//! [`OpenError`] — a corrupted store must never panic the reader.

pub mod codec;
pub mod scan;

pub use scan::{Scan, ScanStats};

use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use hpc_logs::event::{LogEvent, Payload};
use hpc_logs::time::SimTime;
use hpc_platform::system::SchedulerKind;
use hpc_platform::NodeId;
use hpc_telemetry::json::{self, JsonValue};

use crate::detection::DetectedFailure;
use crate::store::EventClass;
use crate::swo::SwoWindow;
use codec::{put_varint, Dec, Discard};

/// On-disk schema version this build writes; bump on any incompatible
/// layout change. Schema 1 stores (no block directory) still open.
pub const SCHEMA_VERSION: u64 = 2;

/// Rows per entry of a segment's block directory. A constant, recorded in
/// every directory so a reader never has to guess it: the directory costs
/// about 12 bytes per block (0.3% of a telemetry store), and a query that
/// starts mid-segment decodes at most this many rows it does not return.
const BLOCK_ROWS: usize = 256;

/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// Derived-state file name inside a store directory.
pub const DERIVED_FILE: &str = "derived.bin";

const SEG_MAGIC: &[u8; 8] = b"HPCSEG1\n";
const DRV_MAGIC: &[u8; 8] = b"HPCDRV1\n";
/// Footer of the derived file and of schema 1 segments.
const FOOTER_MAGIC: &[u8; 8] = b"HSEGFTR1";
const FOOTER_LEN: usize = 40;
/// Footer of a segment with a block directory: the same fields, then the
/// directory's byte offset inside the body.
const INDEXED_FOOTER_MAGIC: &[u8; 8] = b"HSEGFTR2";
const INDEXED_FOOTER_LEN: usize = 48;

// --- checksums ----------------------------------------------------------

/// FNV-1a 64-bit hash — the manifest fingerprint primitive. Stable and
/// dependency-free; its byte-serial multiply chain is fine for the few
/// dozen bytes of catalogue digest it hashes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Segment body checksum: a multiply–rotate hash driven eight bytes per
/// round, so `Store::open` verifies whole-store integrity at memory
/// speed instead of FNV's one-multiply-per-byte. The length fold at the
/// end catches truncations that land on an all-zero tail; this detects
/// corruption, it is not cryptographic.
fn hash64(bytes: &[u8]) -> u64 {
    const M: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = 0x1b87_3593_cc9e_2d51u64 ^ (bytes.len() as u64).wrapping_mul(M);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(c.try_into().unwrap());
        h = (h ^ v).wrapping_mul(M).rotate_left(23);
    }
    let mut tail = [0u8; 8];
    let rem = chunks.remainder();
    tail[..rem.len()].copy_from_slice(rem);
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(M);
    h ^ (h >> 29)
}

// --- errors -------------------------------------------------------------

/// Why a store failed to open. Every variant renders as one line; the
/// open path never panics on bad input.
#[derive(Debug)]
pub enum OpenError {
    /// Filesystem error reading a store file.
    Io(PathBuf, io::Error),
    /// A file exists but its contents are invalid (bad magic, checksum
    /// mismatch, truncation, undecodable rows, catalogue inconsistency).
    Corrupt(PathBuf, String),
    /// The manifest declares a schema version this reader doesn't know.
    Version(u64),
}

impl fmt::Display for OpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpenError::Io(path, e) => write!(f, "cannot read {}: {e}", path.display()),
            OpenError::Corrupt(path, why) => {
                write!(f, "corrupt segment store {}: {why}", path.display())
            }
            OpenError::Version(v) => write!(
                f,
                "unsupported segment store schema version {v} (reader supports 1 to {SCHEMA_VERSION})"
            ),
        }
    }
}

impl std::error::Error for OpenError {}

// --- manifest -----------------------------------------------------------

/// Catalogue entry for one segment file.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentMeta {
    /// Event class stored in this segment.
    pub class: EventClass,
    /// File name relative to the store directory.
    pub file: String,
    /// Row count.
    pub events: u64,
    /// Earliest event time in the segment.
    pub min_time: SimTime,
    /// Latest event time in the segment.
    pub max_time: SimTime,
    /// File size in bytes as written.
    pub bytes: u64,
}

/// The parsed `MANIFEST.json`: store-level identity plus the segment
/// catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// On-disk schema version ([`SCHEMA_VERSION`] when written here).
    pub schema_version: u64,
    /// Content fingerprint over counts and window; re-derived on open.
    pub fingerprint: u64,
    /// Scheduler of the source archive (drives `hpc-query tail` rendering).
    pub scheduler: SchedulerKind,
    /// Human-readable provenance (archive directory or `<stdin>`).
    pub source: String,
    /// Raw line count of the source archive.
    pub total_lines: u64,
    /// Lines no parser recognised.
    pub skipped_lines: u64,
    /// Total event count across all segments.
    pub events: u64,
    /// One entry per populated event class, in [`EventClass`] repr order.
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// Logical-content fingerprint: hashes counts, the per-class
    /// catalogue and the time window, so swapped or regenerated segment
    /// files under an old manifest are caught on open.
    fn derive_fingerprint(&self) -> u64 {
        let mut buf = Vec::with_capacity(64 + self.segments.len() * 16);
        put_varint(&mut buf, self.schema_version);
        put_varint(&mut buf, self.total_lines);
        put_varint(&mut buf, self.skipped_lines);
        put_varint(&mut buf, self.events);
        put_varint(&mut buf, self.segments.len() as u64);
        for s in &self.segments {
            buf.push(s.class as u8);
            put_varint(&mut buf, s.events);
            put_varint(&mut buf, s.min_time.as_millis());
            put_varint(&mut buf, s.max_time.as_millis());
        }
        fnv1a64(&buf)
    }

    fn to_json(&self) -> JsonValue {
        let n = |v: u64| JsonValue::Number(v as f64);
        let segments = self
            .segments
            .iter()
            .map(|s| {
                JsonValue::Object(vec![
                    (
                        "class".to_string(),
                        JsonValue::String(s.class.key().to_string()),
                    ),
                    ("file".to_string(), JsonValue::String(s.file.clone())),
                    ("events".to_string(), n(s.events)),
                    ("min_time_ms".to_string(), n(s.min_time.as_millis())),
                    ("max_time_ms".to_string(), n(s.max_time.as_millis())),
                    ("bytes".to_string(), n(s.bytes)),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("schema_version".to_string(), n(self.schema_version)),
            // Full 64 bits do not fit losslessly in a JSON number.
            (
                "fingerprint".to_string(),
                JsonValue::String(format!("{:016x}", self.fingerprint)),
            ),
            (
                "scheduler".to_string(),
                JsonValue::String(scheduler_key(self.scheduler).to_string()),
            ),
            ("source".to_string(), JsonValue::String(self.source.clone())),
            ("total_lines".to_string(), n(self.total_lines)),
            ("skipped_lines".to_string(), n(self.skipped_lines)),
            ("events".to_string(), n(self.events)),
            ("segments".to_string(), JsonValue::Array(segments)),
        ])
    }

    fn from_json(v: &JsonValue, path: &Path) -> Result<Manifest, OpenError> {
        let corrupt = |why: &str| OpenError::Corrupt(path.to_path_buf(), why.to_string());
        let num = |key: &str| -> Result<u64, OpenError> {
            v.get(key)
                .and_then(JsonValue::as_number)
                .map(|n| n as u64)
                .ok_or_else(|| corrupt(&format!("manifest missing numeric field `{key}`")))
        };
        let text = |key: &str| -> Result<String, OpenError> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| corrupt(&format!("manifest missing string field `{key}`")))
        };
        let schema_version = num("schema_version")?;
        if !(1..=SCHEMA_VERSION).contains(&schema_version) {
            return Err(OpenError::Version(schema_version));
        }
        let fingerprint = u64::from_str_radix(&text("fingerprint")?, 16)
            .map_err(|_| corrupt("manifest fingerprint is not a hex number"))?;
        let scheduler = parse_scheduler_key(&text("scheduler")?)
            .ok_or_else(|| corrupt("manifest scheduler is not `slurm` or `torque`"))?;
        let segments_json = v
            .get("segments")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| corrupt("manifest missing `segments` array"))?;
        let mut segments = Vec::with_capacity(segments_json.len());
        for s in segments_json {
            let class_key = s
                .get("class")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| corrupt("segment entry missing `class`"))?;
            let class = EventClass::from_key(class_key).ok_or_else(|| {
                corrupt(&format!("segment entry names unknown class `{class_key}`"))
            })?;
            let seg_num = |key: &str| -> Result<u64, OpenError> {
                s.get(key)
                    .and_then(JsonValue::as_number)
                    .map(|n| n as u64)
                    .ok_or_else(|| corrupt(&format!("segment entry missing `{key}`")))
            };
            let file = s
                .get("file")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| corrupt("segment entry missing `file`"))?;
            if file.contains('/') || file.contains('\\') || file.contains("..") {
                return Err(corrupt(&format!(
                    "segment file name `{file}` escapes the store"
                )));
            }
            segments.push(SegmentMeta {
                class,
                file: file.to_string(),
                events: seg_num("events")?,
                min_time: SimTime::from_millis(seg_num("min_time_ms")?),
                max_time: SimTime::from_millis(seg_num("max_time_ms")?),
                bytes: seg_num("bytes")?,
            });
        }
        Ok(Manifest {
            schema_version,
            fingerprint,
            scheduler,
            source: text("source")?,
            total_lines: num("total_lines")?,
            skipped_lines: num("skipped_lines")?,
            events: num("events")?,
            segments,
        })
    }
}

fn scheduler_key(s: SchedulerKind) -> &'static str {
    match s {
        SchedulerKind::Slurm => "slurm",
        SchedulerKind::Torque => "torque",
    }
}

fn parse_scheduler_key(s: &str) -> Option<SchedulerKind> {
    match s {
        "slurm" => Some(SchedulerKind::Slurm),
        "torque" => Some(SchedulerKind::Torque),
        _ => None,
    }
}

// --- store contents -----------------------------------------------------

/// Everything a store persists, borrowed from a finished diagnosis.
#[derive(Debug, Clone, Copy)]
pub struct StoreContents<'a> {
    /// Chronologically merged events (index = global position).
    pub events: &'a [LogEvent],
    /// Detected node failures after SWO exclusion.
    pub failures: &'a [DetectedFailure],
    /// Recognised system-wide outages.
    pub swos: &'a [SwoWindow],
    /// Failures attributed to SWOs.
    pub swo_failures: &'a [DetectedFailure],
    /// Lines no parser recognised.
    pub skipped_lines: u64,
    /// Raw line count of the source archive.
    pub total_lines: u64,
    /// Scheduler of the source archive.
    pub scheduler: SchedulerKind,
    /// Human-readable provenance string.
    pub source: &'a str,
}

/// The decoded `derived.bin` state: everything a store persists beyond
/// the event rows. Readable without decoding a single event row.
#[derive(Debug, Clone)]
pub struct DerivedState {
    /// Detected node failures after SWO exclusion.
    pub failures: Vec<DetectedFailure>,
    /// Recognised system-wide outages.
    pub swos: Vec<SwoWindow>,
    /// Failures attributed to SWOs.
    pub swo_failures: Vec<DetectedFailure>,
}

/// A fully validated, decoded store — the persisted twin of the
/// in-memory pipeline output.
#[derive(Debug, Clone)]
pub struct OpenedStore {
    /// Chronologically merged events, exactly as written.
    pub events: Vec<LogEvent>,
    /// Detected node failures after SWO exclusion.
    pub failures: Vec<DetectedFailure>,
    /// Recognised system-wide outages.
    pub swos: Vec<SwoWindow>,
    /// Failures attributed to SWOs.
    pub swo_failures: Vec<DetectedFailure>,
    /// The validated manifest (counts, scheduler, provenance).
    pub manifest: Manifest,
}

// --- segment write ------------------------------------------------------

/// The footer after a body: time range, row count, body checksum, then
/// either the plain magic or — for a segment with a block directory at
/// `index_off` inside the body — that offset and the indexed magic.
fn footer(
    min_time: u64,
    max_time: u64,
    count: u64,
    checksum: u64,
    index_off: Option<u64>,
) -> Vec<u8> {
    let mut f = Vec::with_capacity(INDEXED_FOOTER_LEN);
    for v in [min_time, max_time, count, checksum] {
        f.extend_from_slice(&v.to_le_bytes());
    }
    match index_off {
        Some(off) => {
            f.extend_from_slice(&off.to_le_bytes());
            f.extend_from_slice(INDEXED_FOOTER_MAGIC);
        }
        None => f.extend_from_slice(FOOTER_MAGIC),
    }
    f
}

/// Directory entry of one block of [`BLOCK_ROWS`] rows: the first row's
/// absolute time and global position, and the byte offset of that row in
/// the time, position and payload columns (relative to the segment body).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Block {
    first_time: u64,
    first_pos: u64,
    time_off: u64,
    pos_off: u64,
    payload_off: u64,
}

impl Block {
    fn fields(&self) -> [u64; 5] {
        [
            self.first_time,
            self.first_pos,
            self.time_off,
            self.pos_off,
            self.payload_off,
        ]
    }
}

/// Appends the block directory: block size, block count, then every
/// entry as five deltas against the entry before it.
fn encode_block_dir(blocks: &[Block], out: &mut Vec<u8>) {
    put_varint(out, BLOCK_ROWS as u64);
    put_varint(out, blocks.len() as u64);
    let mut prev = Block::default();
    for b in blocks {
        for (v, p) in b.fields().into_iter().zip(prev.fields()) {
            put_varint(out, v - p);
        }
        prev = *b;
    }
}

/// Encodes one class's rows as a complete segment file image, built in
/// one buffer: header, body, footer.
fn encode_segment(class: EventClass, rows: &[(u32, &LogEvent)]) -> Vec<u8> {
    // Pass 1: collect every referenced node id into a sorted dictionary,
    // walking the payloads without writing a byte.
    let mut dict: Vec<NodeId> = Vec::new();
    for (_, e) in rows {
        codec::encode_payload(
            &e.payload,
            &mut |n| {
                dict.push(n);
                0
            },
            &mut Discard,
        );
    }
    dict.sort_unstable();
    dict.dedup();

    let mut image = Vec::new();
    image.extend_from_slice(SEG_MAGIC);
    image.push(class as u8);
    let header = image.len();
    // Where the body's next byte lands, relative to the body.
    let at = |image: &Vec<u8>| (image.len() - header) as u64;
    // Dictionary column: sorted unique node ids, delta-encoded.
    put_varint(&mut image, dict.len() as u64);
    let mut prev = 0u64;
    for n in &dict {
        put_varint(&mut image, n.0 as u64 - prev);
        prev = n.0 as u64;
    }
    // Time column: first absolute, then deltas (rows are chronological).
    // Every column notes where each block's first row landed.
    let mut blocks = Vec::with_capacity(rows.len().div_ceil(BLOCK_ROWS));
    put_varint(&mut image, rows.len() as u64);
    let mut prev_t = SimTime::EPOCH;
    for (i, (pos, e)) in rows.iter().enumerate() {
        if i % BLOCK_ROWS == 0 {
            blocks.push(Block {
                first_time: e.time.as_millis(),
                first_pos: *pos as u64,
                time_off: at(&image),
                ..Block::default()
            });
        }
        put_varint(&mut image, e.time.since(prev_t).as_millis());
        prev_t = e.time;
    }
    // Position column: strictly increasing global positions, delta-encoded.
    let mut prev_p = 0u64;
    for (i, (pos, _)) in rows.iter().enumerate() {
        if i % BLOCK_ROWS == 0 {
            blocks[i / BLOCK_ROWS].pos_off = at(&image);
        }
        put_varint(&mut image, *pos as u64 - prev_p);
        prev_p = *pos as u64;
    }
    // Payload column: tag-free, nodes as dictionary indexes.
    for (i, (_, e)) in rows.iter().enumerate() {
        if i % BLOCK_ROWS == 0 {
            blocks[i / BLOCK_ROWS].payload_off = at(&image);
        }
        codec::encode_payload(
            &e.payload,
            &mut |n| dict.binary_search(&n).expect("pass-1 collected every node") as u64,
            &mut image,
        );
    }
    let index_off = at(&image);
    encode_block_dir(&blocks, &mut image);

    let min_time = rows.first().map(|(_, e)| e.time.as_millis()).unwrap_or(0);
    let max_time = rows.last().map(|(_, e)| e.time.as_millis()).unwrap_or(0);
    let checksum = hash64(&image[header..]);
    image.extend_from_slice(&footer(
        min_time,
        max_time,
        rows.len() as u64,
        checksum,
        Some(index_off),
    ));
    image
}

fn encode_derived(c: &StoreContents<'_>) -> Vec<u8> {
    let mut body = Vec::new();
    codec::encode_failures(c.failures, &mut body);
    codec::encode_swos(c.swos, &mut body);
    codec::encode_failures(c.swo_failures, &mut body);
    let count = (c.failures.len() + c.swo_failures.len()) as u64;
    let checksum = hash64(&body);
    let mut file = Vec::with_capacity(DRV_MAGIC.len() + body.len() + FOOTER_LEN);
    file.extend_from_slice(DRV_MAGIC);
    file.extend_from_slice(&body);
    file.extend_from_slice(&footer(0, 0, count, checksum, None));
    file
}

/// Writes a complete store into `dir` (created if absent), replacing any
/// previous contents file-by-file. Returns the manifest as written.
pub fn write_store(dir: &Path, contents: &StoreContents<'_>) -> io::Result<Manifest> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    write_store_with(dir, contents, threads)
}

/// [`write_store`] on a pool of `threads` segment writers, capped at the
/// number of populated classes; the calling thread is one of them. Each
/// writer loops: take the queue lock, pull the next class — largest first,
/// so the longest encode starts at once — release the lock, encode the
/// class's segment and write it durably. After every writer has joined,
/// `derived.bin` and then the manifest are written, each rename followed by
/// a sync of `dir`, so a manifest on disk names only segments already on
/// disk. The first error stops every writer's pulls and is returned.
///
/// Telemetry: `core.segstore.encode_us` gets one sample per segment, and
/// `core.segstore.sync_us` one per `sync_all`, files and directory alike.
fn write_store_with(
    dir: &Path,
    contents: &StoreContents<'_>,
    threads: usize,
) -> io::Result<Manifest> {
    let _span = hpc_telemetry::span!("core.segstore.write");
    fs::create_dir_all(dir)?;

    // Bucket events by class, keeping global positions for exact replay.
    let mut by_class: Vec<Vec<(u32, &LogEvent)>> = vec![Vec::new(); EventClass::COUNT];
    for (pos, e) in contents.events.iter().enumerate() {
        by_class[EventClass::of(&e.payload) as usize].push((pos as u32, e));
    }
    let mut classes: Vec<EventClass> = EventClass::ALL
        .into_iter()
        .filter(|&c| !by_class[c as usize].is_empty())
        .collect();
    classes.sort_by_key(|&c| Reverse(by_class[c as usize].len()));
    let threads = threads.clamp(1, classes.len().max(1));

    // The classes left to pull, and the first error a writer met.
    let queue = Mutex::new((classes.into_iter(), None));
    let work = || {
        let mut written = Vec::new();
        loop {
            let pulled = {
                let mut queue = queue.lock().expect("a segment writer panicked mid-pull");
                let (pending, error) = &mut *queue;
                if error.is_some() {
                    None
                } else {
                    pending.next()
                }
            };
            let Some(class) = pulled else {
                return written;
            };
            match write_segment(dir, class, &by_class[class as usize]) {
                Ok(meta) => written.push(meta),
                Err(e) => {
                    let mut queue = queue.lock().expect("a segment writer panicked mid-pull");
                    queue.1.get_or_insert(e);
                    return written;
                }
            }
        }
    };
    let mut segments = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut written = work();
        for worker in spawned {
            written.extend(worker.join().expect("segment writer panicked"));
        }
        written
    });
    if let (_, Some(e)) = queue
        .into_inner()
        .expect("a segment writer panicked mid-pull")
    {
        return Err(e);
    }
    // Back in `EventClass::ALL` order: the manifest does not depend on the pool.
    segments.sort_by_key(|s| s.class as u8);

    let derived = encode_derived(contents);
    write_atomic(&dir.join(DERIVED_FILE), &derived)?;
    sync_dir(dir)?;

    let mut manifest = Manifest {
        schema_version: SCHEMA_VERSION,
        fingerprint: 0,
        scheduler: contents.scheduler,
        source: contents.source.to_string(),
        total_lines: contents.total_lines,
        skipped_lines: contents.skipped_lines,
        events: contents.events.len() as u64,
        segments,
    };
    manifest.fingerprint = manifest.derive_fingerprint();
    let manifest_text = manifest.to_json().pretty();
    write_atomic(&dir.join(MANIFEST_FILE), manifest_text.as_bytes())?;
    sync_dir(dir)?;

    let segment_bytes: u64 = manifest.segments.iter().map(|s| s.bytes).sum();
    let bytes_written = segment_bytes + derived.len() as u64 + manifest_text.len() as u64;
    hpc_telemetry::counter("core.segstore.bytes.written").add(bytes_written);
    hpc_telemetry::counter("core.segstore.segments.written").add(manifest.segments.len() as u64);
    hpc_telemetry::counter("core.segstore.events.written").add(manifest.events);
    Ok(manifest)
}

/// One segment writer's unit of work: encode `class`'s rows and write the
/// image durably under its final name.
fn write_segment(
    dir: &Path,
    class: EventClass,
    rows: &[(u32, &LogEvent)],
) -> io::Result<SegmentMeta> {
    let encoding = Instant::now();
    let image = encode_segment(class, rows);
    hpc_telemetry::histogram("core.segstore.encode_us")
        .record(encoding.elapsed().as_micros() as u64);
    let file = format!("seg-{}.col", class.key());
    write_atomic(&dir.join(&file), &image)?;
    Ok(SegmentMeta {
        class,
        file,
        events: rows.len() as u64,
        min_time: rows.first().map(|(_, e)| e.time).unwrap_or(SimTime::EPOCH),
        max_time: rows.last().map(|(_, e)| e.time).unwrap_or(SimTime::EPOCH),
        bytes: image.len() as u64,
    })
}

/// Write-to-temp-then-rename so a crash mid-write never leaves a
/// half-written file under its final name (the footer checksum catches
/// the rename-less leftovers). The rename is durable once the directory
/// is synced ([`sync_dir`]).
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        sync(&f)?;
    }
    fs::rename(&tmp, path)
}

/// Syncs the directory `dir` itself, so the renames into it survive a
/// power loss.
fn sync_dir(dir: &Path) -> io::Result<()> {
    sync(&fs::File::open(dir)?)
}

/// `sync_all`, timed into `core.segstore.sync_us`.
fn sync(file: &fs::File) -> io::Result<()> {
    let syncing = Instant::now();
    file.sync_all()?;
    hpc_telemetry::histogram("core.segstore.sync_us").record(syncing.elapsed().as_micros() as u64);
    Ok(())
}

// --- segment read -------------------------------------------------------

struct Envelope {
    count: u64,
    min_time: u64,
    max_time: u64,
    /// The checksummed body inside the image.
    body: Range<usize>,
    /// Where the block directory starts inside the body; `None` for a
    /// schema 1 segment and for the derived file.
    index_off: Option<u64>,
}

/// Verifies a segment/derived file envelope — magic, footer magic and
/// body checksum — and returns the parsed footer. `class_byte` is
/// `Some(expected_repr)` for event segments, `None` for the derived file.
fn check_envelope(
    path: &Path,
    image: &[u8],
    magic: &[u8; 8],
    class_byte: Option<u8>,
) -> Result<Envelope, OpenError> {
    let corrupt = |why: String| OpenError::Corrupt(path.to_path_buf(), why);
    let header_len = magic.len() + class_byte.map(|_| 1).unwrap_or(0);
    if image.len() < header_len + FOOTER_LEN {
        return Err(corrupt(format!(
            "file is {} bytes, shorter than header + footer",
            image.len()
        )));
    }
    if &image[..magic.len()] != magic {
        return Err(corrupt("bad magic".to_string()));
    }
    if let Some(expected) = class_byte {
        let got = image[magic.len()];
        if got != expected {
            return Err(corrupt(format!(
                "segment class byte {got} does not match manifest class {expected}"
            )));
        }
    }
    // The last eight bytes say which footer this is.
    let footer_magic = &image[image.len() - FOOTER_MAGIC.len()..];
    let indexed = class_byte.is_some()
        && footer_magic == INDEXED_FOOTER_MAGIC
        && image.len() >= header_len + INDEXED_FOOTER_LEN;
    if !indexed && footer_magic != FOOTER_MAGIC {
        return Err(corrupt("bad footer magic (truncated file?)".to_string()));
    }
    let footer_len = if indexed {
        INDEXED_FOOTER_LEN
    } else {
        FOOTER_LEN
    };
    let footer = &image[image.len() - footer_len..];
    let field = |i: usize| u64::from_le_bytes(footer[i * 8..i * 8 + 8].try_into().unwrap());
    let body = header_len..image.len() - footer_len;
    let checksum = field(3);
    let actual = hash64(&image[body.clone()]);
    if actual != checksum {
        return Err(corrupt(format!(
            "body checksum {actual:016x} does not match footer {checksum:016x}"
        )));
    }
    Ok(Envelope {
        count: field(2),
        min_time: field(0),
        max_time: field(1),
        body,
        index_off: indexed.then(|| field(4)),
    })
}

/// Decodes a block directory written by [`encode_block_dir`].
fn decode_block_dir(dir: &[u8]) -> Result<Vec<Block>, String> {
    let mut dec = Dec::new(dir);
    let block_rows = dec.varint()?;
    if block_rows != BLOCK_ROWS as u64 {
        return Err(format!(
            "{block_rows} rows per block, this reader expects {BLOCK_ROWS}"
        ));
    }
    let n = dec.varint()?;
    // An entry is five varints, so a count the bytes cannot hold is a lie.
    if n > dec.remaining() as u64 / 5 {
        return Err(format!("{n} blocks do not fit in the directory"));
    }
    let mut blocks = Vec::with_capacity(n as usize);
    let mut prev = Block::default();
    for _ in 0..n {
        let mut fields = prev.fields();
        for v in &mut fields {
            *v = v
                .checked_add(dec.varint()?)
                .ok_or("entry overflows 64 bits")?;
        }
        let [first_time, first_pos, time_off, pos_off, payload_off] = fields;
        prev = Block {
            first_time,
            first_pos,
            time_off,
            pos_off,
            payload_off,
        };
        blocks.push(prev);
    }
    if dec.remaining() != 0 {
        return Err(format!("{} trailing bytes", dec.remaining()));
    }
    Ok(blocks)
}

/// The one block a schema 1 body reads as: every row, starting at row 0
/// (so its "block size" is the row count). The file stores no offsets, so
/// this walks the three fixed columns once (no value is kept) to learn
/// where each begins.
fn schema1_block(cols: &[u8], rows: u64) -> Result<Vec<Block>, String> {
    let mut dec = Dec::new(cols);
    let at = |dec: &Dec<'_>| (cols.len() - dec.remaining()) as u64;
    for _ in 0..dec.varint()? {
        dec.varint()?;
    }
    let count = dec.varint()?;
    if count != rows {
        return Err(format!(
            "body row count {count} does not match footer {rows}"
        ));
    }
    let mut column = || -> Result<(u64, u64), String> {
        let off = at(&dec);
        let first = dec.varint()?;
        for _ in 1..rows {
            dec.varint()?;
        }
        Ok((off, first))
    };
    let (time_off, first_time) = column()?;
    let (pos_off, first_pos) = column()?;
    Ok(vec![Block {
        first_time,
        first_pos,
        time_off,
        pos_off,
        payload_off: at(&dec),
    }])
}

/// Checks a block directory against the footer and the column bytes it
/// points into: one entry per `block_rows` rows, every offset inside its
/// own column and at least a block's worth of bytes past the one before.
/// (That each offset is the *right* byte is checked by the column readers,
/// which compare every block boundary they cross with where they are.)
fn check_blocks(
    blocks: &[Block],
    block_rows: u64,
    env: &Envelope,
    cols_len: u64,
) -> Result<(), String> {
    if blocks.len() as u64 != env.count.div_ceil(block_rows) {
        return Err(format!(
            "{} blocks for {} rows of {block_rows} per block",
            blocks.len(),
            env.count
        ));
    }
    let (Some(first), Some(last)) = (blocks.first(), blocks.last()) else {
        return Err("no blocks".to_string());
    };
    if first.first_time != env.min_time || last.first_time > env.max_time {
        return Err("block times do not match footer time range".to_string());
    }
    if !(first.time_off < first.pos_off
        && first.pos_off < first.payload_off
        && first.payload_off <= cols_len)
    {
        return Err("columns are out of order or past the body".to_string());
    }
    if last.time_off >= first.pos_off
        || last.pos_off >= first.payload_off
        || last.payload_off > cols_len
        || last.first_pos > u32::MAX as u64
    {
        return Err("an offset points outside its column".to_string());
    }
    for w in blocks.windows(2) {
        // A row is at least one byte in the time and position columns and
        // one position apart from its neighbours.
        if w[1].first_pos - w[0].first_pos < block_rows
            || w[1].time_off - w[0].time_off < block_rows
            || w[1].pos_off - w[0].pos_off < block_rows
        {
            return Err("entries are closer together than one block".to_string());
        }
    }
    Ok(())
}

/// One validated segment file and the readers of its columns.
///
/// Every reader takes a block range and starts at the first block's byte
/// offset; `0..blocks` is the front-to-back read [`Store::load`] does, a
/// narrower range is what the planner's cursors do. The one other read is
/// the node index's: it records each payload's offset during a
/// front-to-back read and later decodes single payloads there.
///
/// What every query would otherwise decode again — the node dictionary,
/// the node index and the times of each block a count cuts — is kept
/// here once a read has decoded and checked it, for as long as the store
/// is open. A failed decode keeps nothing, so the next read fails the
/// same way.
#[derive(Debug)]
pub(crate) struct Segment {
    path: PathBuf,
    image: Vec<u8>,
    class: EventClass,
    rows: usize,
    max_time: SimTime,
    /// The column bytes inside `image`: the body without the directory.
    cols: Range<usize>,
    /// Rows per block: [`BLOCK_ROWS`], or every row for schema 1.
    block_rows: usize,
    /// One entry per `block_rows` rows, never empty.
    blocks: Vec<Block>,
    /// The node dictionary, decoded by the first read that needs it.
    dict: OnceLock<Vec<NodeId>>,
    /// The times of each block, decoded by the first count cut that falls
    /// in it (`scan.rs`); one cell per entry of `blocks`.
    block_times: Vec<OnceLock<Vec<SimTime>>>,
    /// The rows of each subject node, built by the first node query that
    /// selects this segment (`scan.rs`).
    node_index: OnceLock<scan::NodeIndex>,
}

/// The value in `cell`, filled by `fill` on first use. An error fills
/// nothing, so the next call runs `fill` again; a fill racing on another
/// thread may win, and both are equal.
fn cached<T>(
    cell: &OnceLock<T>,
    fill: impl FnOnce() -> Result<T, OpenError>,
) -> Result<&T, OpenError> {
    if let Some(value) = cell.get() {
        return Ok(value);
    }
    let value = fill()?;
    Ok(cell.get_or_init(|| value))
}

impl Segment {
    /// Validates one segment file against its catalogue entry: envelope,
    /// checksum, footer against manifest, block directory.
    fn open(
        path: PathBuf,
        image: Vec<u8>,
        meta: &SegmentMeta,
        schema_version: u64,
    ) -> Result<Segment, OpenError> {
        let corrupt = |why: String| OpenError::Corrupt(path.clone(), why);
        let env = check_envelope(&path, &image, SEG_MAGIC, Some(meta.class as u8))?;
        if env.count != meta.events {
            return Err(corrupt(format!(
                "footer row count {} does not match manifest {}",
                env.count, meta.events
            )));
        }
        if env.min_time != meta.min_time.as_millis() || env.max_time != meta.max_time.as_millis() {
            return Err(corrupt(
                "footer time range does not match manifest".to_string(),
            ));
        }
        if env.count == 0 {
            // The writer skips empty classes; every reader below may rely
            // on a first block.
            return Err(corrupt("segment holds no rows".to_string()));
        }
        if env.index_off.is_some() != (schema_version >= 2) {
            return Err(corrupt(format!(
                "segment footer does not belong to a schema {schema_version} store"
            )));
        }
        let body = &image[env.body.clone()];
        let (cols_len, block_rows, blocks) = match env.index_off {
            Some(off) => {
                let off = usize::try_from(off)
                    .ok()
                    .filter(|off| *off <= body.len())
                    .ok_or_else(|| corrupt("block directory starts past the body".to_string()))?;
                (off, BLOCK_ROWS as u64, decode_block_dir(&body[off..]))
            }
            None => (body.len(), env.count, schema1_block(body, env.count)),
        };
        let blocks = blocks
            .and_then(|blocks| {
                check_blocks(&blocks, block_rows, &env, cols_len as u64).map(|()| blocks)
            })
            .map_err(|e| corrupt(format!("block directory: {e}")))?;
        Ok(Segment {
            class: meta.class,
            rows: meta.events as usize,
            max_time: meta.max_time,
            cols: env.body.start..env.body.start + cols_len,
            block_rows: block_rows as usize,
            dict: OnceLock::new(),
            block_times: blocks.iter().map(|_| OnceLock::new()).collect(),
            blocks,
            node_index: OnceLock::new(),
            image,
            path,
        })
    }

    fn corrupt(&self, why: String) -> OpenError {
        OpenError::Corrupt(self.path.clone(), why)
    }

    fn cols(&self) -> &[u8] {
        &self.image[self.cols.clone()]
    }

    /// Rows in `blocks`; only the segment's last block can be short.
    fn rows_in(&self, blocks: &Range<usize>) -> usize {
        (blocks.end * self.block_rows).min(self.rows) - blocks.start * self.block_rows
    }

    /// The node dictionary, decoded by the first call and kept.
    fn dict(&self) -> Result<&[NodeId], OpenError> {
        cached(&self.dict, || self.decode_dict()).map(Vec::as_slice)
    }

    /// Decodes the node dictionary, which leads the body. Also checks that
    /// the row count after it matches the footer and that the time column
    /// starts where the directory says.
    fn decode_dict(&self) -> Result<Vec<NodeId>, OpenError> {
        let cols = self.cols();
        let fail = |e: String| self.corrupt(e);
        let mut dec = Dec::new(cols);
        let dict_len = dec.varint().map_err(fail)? as usize;
        if dict_len > cols.len() {
            return Err(self.corrupt(format!("dictionary length {dict_len} exceeds body")));
        }
        let mut dict = Vec::with_capacity(dict_len);
        let mut prev = 0u64;
        for i in 0..dict_len {
            let delta = dec.varint().map_err(fail)?;
            if i > 0 && delta == 0 {
                return Err(self.corrupt("dictionary is not strictly increasing".to_string()));
            }
            let id = prev
                .checked_add(delta)
                .and_then(|id| u32::try_from(id).ok())
                .ok_or_else(|| self.corrupt("dictionary node id exceeds u32".to_string()))?;
            prev = id as u64;
            dict.push(NodeId(id));
        }
        let count = dec.varint().map_err(fail)?;
        if count != self.rows as u64 {
            return Err(self.corrupt(format!(
                "body row count {count} does not match footer {}",
                self.rows
            )));
        }
        let at = (cols.len() - dec.remaining()) as u64;
        if self.blocks[0].time_off != at {
            return Err(self.corrupt(format!(
                "time column starts at byte {at}, not where the block directory says"
            )));
        }
        Ok(dict)
    }

    /// Reads the rows of `blocks` from a delta-encoded column (first value
    /// absolute, then differences). `at` picks the column's byte offset and
    /// absolute first value out of a directory entry; the value stored for
    /// a block's first row is a difference from the row before, so it can
    /// only be checked, not used, when that row was not read. Every block
    /// boundary reached is compared with the directory: the read must end
    /// where the next block starts, or at `end` after the last block.
    fn delta_column<T>(
        &self,
        what: &str,
        blocks: Range<usize>,
        at: impl Fn(&Block) -> (u64, u64),
        end: u64,
        min_delta: u64,
        make: impl Fn(u64) -> Option<T>,
    ) -> Result<Vec<T>, OpenError> {
        let cols = self.cols();
        let fail = |e: String| self.corrupt(format!("{what} column: {e}"));
        let misplaced = |b: usize| fail(format!("block {b} is not where the directory says"));
        let mut dec = Dec::new(&cols[at(&self.blocks[blocks.start]).0 as usize..]);
        let here = |dec: &Dec<'_>| (cols.len() - dec.remaining()) as u64;
        let mut out = Vec::with_capacity(self.rows_in(&blocks));
        let mut value = 0u64;
        for b in blocks.clone() {
            let (off, first_value) = at(&self.blocks[b]);
            if here(&dec) != off {
                return Err(misplaced(b));
            }
            // Row 0 is stored absolute (`value` is still 0 there); another
            // block's first row can be checked once the row before was read.
            let stored = dec.varint().map_err(fail)?;
            if (b == 0 || b > blocks.start) && value.checked_add(stored) != Some(first_value) {
                return Err(fail(format!(
                    "block {b} does not start with the directory's value"
                )));
            }
            value = first_value;
            out.push(make(value).ok_or_else(|| fail("value out of range".to_string()))?);
            for _ in 1..self.rows_in(&(b..b + 1)) {
                let delta = dec.varint().map_err(fail)?;
                value = value
                    .checked_add(delta)
                    .filter(|_| delta >= min_delta)
                    .ok_or_else(|| fail("values do not increase as they must".to_string()))?;
                out.push(make(value).ok_or_else(|| fail("value out of range".to_string()))?);
            }
        }
        let stop = self.blocks.get(blocks.end).map_or(end, |next| at(next).0);
        if here(&dec) != stop {
            return Err(misplaced(blocks.end));
        }
        Ok(out)
    }

    /// Times of the rows in `blocks`.
    fn times(&self, blocks: Range<usize>) -> Result<Vec<SimTime>, OpenError> {
        let end = self.blocks[0].pos_off;
        let whole = blocks.end == self.blocks.len();
        let times = self.delta_column(
            "time",
            blocks,
            |b| (b.time_off, b.first_time),
            end,
            0,
            |ms| Some(SimTime::from_millis(ms)),
        )?;
        if whole && times.last().is_some_and(|t| *t != self.max_time) {
            return Err(self.corrupt("time column does not match footer time range".to_string()));
        }
        Ok(times)
    }

    /// Global positions of the rows in `blocks`.
    fn positions(&self, blocks: Range<usize>) -> Result<Vec<u32>, OpenError> {
        let end = self.blocks[0].payload_off;
        self.delta_column(
            "position",
            blocks,
            |b| (b.pos_off, b.first_pos),
            end,
            1,
            |p| u32::try_from(p).ok(),
        )
    }

    /// A reader of the payload column positioned at the first row of
    /// `block`.
    fn payloads(&self, block: usize) -> Payloads<'_> {
        Payloads {
            seg: self,
            dec: Dec::new(&self.cols()[self.blocks[block].payload_off as usize..]),
            row: block * self.block_rows,
            next_block: block,
            rows_to_block: 0,
        }
    }

    /// Decodes the whole segment front to back, placing each event
    /// directly into its global position slot (no intermediate row buffer —
    /// each event is constructed exactly once, in its final resting place).
    /// Reading every block also proves every directory entry.
    fn decode_into(&self, slots: &mut [Option<LogEvent>]) -> Result<(), OpenError> {
        let all = 0..self.blocks.len();
        let dict = self.dict()?;
        let times = self.times(all.clone())?;
        let positions = self.positions(all)?;
        let mut payloads = self.payloads(0);
        let total = slots.len();
        for (time, pos) in times.into_iter().zip(positions) {
            let payload = payloads.next(dict)?;
            let slot = slots.get_mut(pos as usize).ok_or_else(|| {
                self.corrupt(format!(
                    "event position {pos} out of range ({total} events)"
                ))
            })?;
            if slot.replace(LogEvent { time, payload }).is_some() {
                return Err(self.corrupt(format!("event position {pos} occupied twice")));
            }
        }
        if payloads.dec.remaining() != 0 {
            return Err(self.corrupt(format!(
                "{} trailing bytes after last row",
                payloads.dec.remaining()
            )));
        }
        Ok(())
    }
}

/// Sequential reader of a segment's payload column from some block on.
struct Payloads<'a> {
    seg: &'a Segment,
    dec: Dec<'a>,
    /// The row the next call decodes.
    row: usize,
    /// The next block boundary to compare with the directory, and how
    /// many rows are left before it.
    next_block: usize,
    rows_to_block: usize,
}

impl Payloads<'_> {
    // `load` calls this once per row. Inlined, the payload is built where
    // the caller wants it; as a call it is copied once more per row, which
    // read as +6% on `core.segment.load_ms`.
    #[inline]
    fn next(&mut self, dict: &[NodeId]) -> Result<Payload, OpenError> {
        let (seg, row) = (self.seg, self.row);
        if self.rows_to_block == 0 {
            let at = (seg.cols().len() - self.dec.remaining()) as u64;
            if seg.blocks.get(self.next_block).map(|b| b.payload_off) != Some(at) {
                return Err(seg.corrupt(format!(
                    "payload column: row {row} is not where the block directory says"
                )));
            }
            self.next_block += 1;
            self.rows_to_block = seg.block_rows;
        }
        self.rows_to_block -= 1;
        self.row += 1;
        codec::decode_payload(seg.class, &mut self.dec, dict)
            .map_err(|e| seg.corrupt(format!("row {row}: {e}")))
    }
}

/// A validated-but-undecoded store handle.
///
/// [`Store::open`] is the catalogue-and-checksum pass: it reads every
/// file and proves the store intact — manifest schema, fingerprint and
/// catalogue consistency, every segment's magic/class byte/footer, every
/// body checksum, footers cross-checked against the manifest — without
/// decoding a single row. That is the contract behind "reopened in
/// milliseconds": corruption anywhere is detected up front, row decode is
/// deferred to [`Store::load`] (the scan phase), exactly as columnar
/// databases separate catalog open from segment scan.
#[derive(Debug)]
pub struct Store {
    manifest: Manifest,
    /// Validated segment files, aligned with `manifest.segments`.
    segments: Vec<Segment>,
    derived_path: PathBuf,
    derived: Vec<u8>,
}

impl Store {
    /// Opens and validates every file of the store in `dir` without
    /// decoding rows. Never panics on malformed input.
    pub fn open(dir: &Path) -> Result<Store, OpenError> {
        let _span = hpc_telemetry::span!("core.segstore.open");

        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest_text = fs::read_to_string(&manifest_path)
            .map_err(|e| OpenError::Io(manifest_path.clone(), e))?;
        let manifest_json = json::parse(&manifest_text).map_err(|e| {
            OpenError::Corrupt(manifest_path.clone(), format!("manifest is not JSON: {e}"))
        })?;
        let manifest = Manifest::from_json(&manifest_json, &manifest_path)?;
        if manifest.fingerprint != manifest.derive_fingerprint() {
            return Err(OpenError::Corrupt(
                manifest_path.clone(),
                "manifest fingerprint does not match its contents".to_string(),
            ));
        }
        let segment_events: u64 = manifest.segments.iter().map(|s| s.events).sum();
        if segment_events != manifest.events {
            return Err(OpenError::Corrupt(
                manifest_path.clone(),
                format!(
                    "segment catalogue sums to {segment_events} events, manifest says {}",
                    manifest.events
                ),
            ));
        }
        {
            let mut seen = [false; EventClass::COUNT];
            for s in &manifest.segments {
                if std::mem::replace(&mut seen[s.class as usize], true) {
                    return Err(OpenError::Corrupt(
                        manifest_path.clone(),
                        format!("duplicate segment entry for class {}", s.class.key()),
                    ));
                }
            }
        }

        let mut bytes_read = 0u64;
        let mut segments = Vec::with_capacity(manifest.segments.len());
        for meta in &manifest.segments {
            let path = dir.join(&meta.file);
            let image = read_file(&path)?;
            bytes_read += image.len() as u64;
            segments.push(Segment::open(path, image, meta, manifest.schema_version)?);
        }

        let derived_path = dir.join(DERIVED_FILE);
        let derived = read_file(&derived_path)?;
        bytes_read += derived.len() as u64;
        check_envelope(&derived_path, &derived, DRV_MAGIC, None)?;

        hpc_telemetry::counter("core.segstore.bytes.read").add(bytes_read);
        hpc_telemetry::counter("core.segstore.segments.read").add(manifest.segments.len() as u64);

        Ok(Store {
            manifest,
            segments,
            derived_path,
            derived,
        })
    }

    /// The validated manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Decodes only the events whose time falls in `[from, to]`
    /// (inclusive), in global merge order.
    ///
    /// This is a planner query: the filter compiles to a segment set
    /// (catalogue time pruning) plus per-segment row ranges, and the
    /// events stream out of [`Store::scan`] cursors already merged in
    /// position order — a segment disjoint from the range never has a
    /// row decoded. Unlike [`Store::load`] this borrows the handle, so
    /// repeated range queries reuse one validated open.
    pub fn load_range(&self, from: SimTime, to: SimTime) -> Result<Vec<LogEvent>, OpenError> {
        let _span = hpc_telemetry::span!("core.segstore.load_range");
        // The planner's window is half-open; widen the inclusive `to` by
        // one tick (saturating: an unrepresentable bound means no bound).
        let filter = crate::query::QueryFilter {
            from: Some(from),
            to: to.as_millis().checked_add(1).map(SimTime::from_millis),
            ..Default::default()
        };
        let plan = crate::query::plan(self, &filter);
        let mut iter = plan.events()?;
        let events: Vec<LogEvent> = iter.by_ref().collect();
        if let Some(e) = iter.take_error() {
            return Err(e);
        }
        hpc_telemetry::counter("core.segstore.events.range_read").add(events.len() as u64);
        Ok(events)
    }

    /// Decodes the derived-state file — detected failures, SWO windows,
    /// SWO-attributed failures — without touching any event row. This is
    /// how the `failures` query verb answers from a cold store.
    pub fn derived(&self) -> Result<DerivedState, OpenError> {
        let body = &self.derived[DRV_MAGIC.len()..self.derived.len() - FOOTER_LEN];
        let footer = &self.derived[self.derived.len() - FOOTER_LEN..];
        let drv_count = u64::from_le_bytes(footer[16..24].try_into().unwrap());
        let mut dec = Dec::new(body);
        let dfail = |e: String| OpenError::Corrupt(self.derived_path.clone(), e);
        let failures = codec::decode_failures(&mut dec).map_err(dfail)?;
        let swos = codec::decode_swos(&mut dec).map_err(dfail)?;
        let swo_failures = codec::decode_failures(&mut dec).map_err(dfail)?;
        if dec.remaining() != 0 {
            return Err(dfail(format!(
                "{} trailing bytes in derived file",
                dec.remaining()
            )));
        }
        if drv_count != (failures.len() + swo_failures.len()) as u64 {
            return Err(dfail(
                "derived footer count does not match decoded failures".to_string(),
            ));
        }
        Ok(DerivedState {
            failures,
            swos,
            swo_failures,
        })
    }

    /// Decodes every row and the derived state — the scan phase. Checks
    /// dense position coverage `0..events` and in-body row counts; the
    /// envelopes were already proven by [`Store::open`].
    pub fn load(self) -> Result<OpenedStore, OpenError> {
        let _span = hpc_telemetry::span!("core.segstore.load");
        let DerivedState {
            failures,
            swos,
            swo_failures,
        } = self.derived()?;
        let manifest = self.manifest;
        let total = manifest.events as usize;

        let mut slots: Vec<Option<LogEvent>> = vec![None; total];
        for seg in &self.segments {
            seg.decode_into(&mut slots)?;
        }
        let mut events = Vec::with_capacity(total);
        for (pos, slot) in slots.into_iter().enumerate() {
            events.push(slot.ok_or_else(|| {
                OpenError::Corrupt(
                    self.derived_path.with_file_name(MANIFEST_FILE),
                    format!("no segment covers event position {pos}"),
                )
            })?);
        }

        hpc_telemetry::counter("core.segstore.events.read").add(manifest.events);
        hpc_telemetry::gauge("core.segstore.events").set(manifest.events as f64);

        Ok(OpenedStore {
            events,
            failures,
            swos,
            swo_failures,
            manifest,
        })
    }
}

/// Opens, fully validates and decodes the store in `dir` in one step:
/// [`Store::open`] followed by [`Store::load`].
pub fn open_store(dir: &Path) -> Result<OpenedStore, OpenError> {
    Store::open(dir)?.load()
}

fn read_file(path: &Path) -> Result<Vec<u8>, OpenError> {
    fs::read(path).map_err(|e| OpenError::Io(path.to_path_buf(), e))
}

/// Per-class event counts of an event stream — used by tests and the
/// manifest round-trip check.
pub fn class_counts(events: &[LogEvent]) -> HashMap<EventClass, u64> {
    let mut counts = HashMap::new();
    for e in events {
        *counts.entry(EventClass::of(&e.payload)).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::TerminalKind;
    use hpc_logs::event::PanicReason;
    use hpc_logs::time::SimDuration;

    fn contents<'a>(events: &'a [LogEvent], failures: &'a [DetectedFailure]) -> StoreContents<'a> {
        StoreContents {
            events,
            failures,
            swos: &[],
            swo_failures: &[],
            skipped_lines: 3,
            total_lines: 100,
            scheduler: SchedulerKind::Slurm,
            source: "testdata",
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hpc-segment-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_then_open_round_trips_everything() {
        let events = codec::one_of_every_class();
        let failures = vec![DetectedFailure {
            node: NodeId(5),
            time: SimTime::from_millis(4_000),
            terminal: TerminalKind::Panic(PanicReason::FatalMce),
        }];
        let dir = tmpdir("roundtrip");
        let manifest = write_store(&dir, &contents(&events, &failures)).unwrap();
        assert_eq!(manifest.events, events.len() as u64);
        assert_eq!(manifest.segments.len(), EventClass::COUNT);

        let opened = open_store(&dir).unwrap();
        assert_eq!(opened.events, events);
        assert_eq!(opened.failures, failures);
        assert!(opened.swos.is_empty());
        assert_eq!(opened.manifest, manifest);
        assert_eq!(opened.manifest.skipped_lines, 3);
        assert_eq!(opened.manifest.total_lines, 100);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_range_prunes_disjoint_segments_and_keeps_merge_order() {
        let events = codec::one_of_every_class();
        let dir = tmpdir("range");
        write_store(&dir, &contents(&events, &[])).unwrap();

        let lo = events.first().unwrap().time;
        let hi = events.last().unwrap().time;
        let store = Store::open(&dir).unwrap();

        // Full-range query reproduces the whole stream in merge order.
        let all = store.load_range(SimTime::EPOCH, hi).unwrap();
        assert_eq!(all, events);

        // A range strictly after every event decodes nothing.
        let after = store
            .load_range(
                hi + SimDuration::from_millis(1),
                hi + SimDuration::from_mins(5),
            )
            .unwrap();
        assert!(after.is_empty());

        // An inverted range is empty, not an error.
        assert!(store.load_range(hi, lo).unwrap().is_empty() || lo == hi);

        // A mid-stream slice matches the brute-force filter.
        let mid = SimTime::from_millis((lo.as_millis() + hi.as_millis()) / 2);
        let sliced = store.load_range(lo, mid).unwrap();
        let expect: Vec<LogEvent> = events
            .iter()
            .filter(|e| e.time >= lo && e.time <= mid)
            .cloned()
            .collect();
        assert_eq!(sliced, expect);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_round_trips() {
        let dir = tmpdir("empty");
        let manifest = write_store(&dir, &contents(&[], &[])).unwrap();
        assert_eq!(manifest.events, 0);
        assert!(manifest.segments.is_empty());
        let opened = open_store(&dir).unwrap();
        assert!(opened.events.is_empty());
        assert!(opened.failures.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_segment_body_is_detected() {
        let events = codec::one_of_every_class();
        let dir = tmpdir("bitflip");
        let manifest = write_store(&dir, &contents(&events, &[])).unwrap();
        let victim = dir.join(&manifest.segments[0].file);
        let mut image = fs::read(&victim).unwrap();
        // First body byte: right after the 8-byte magic + class byte, well
        // clear of the footer, so the flip must trip the checksum.
        image[SEG_MAGIC.len() + 1] ^= 0x40;
        fs::write(&victim, &image).unwrap();
        match open_store(&dir) {
            Err(OpenError::Corrupt(_, why)) => assert!(why.contains("checksum"), "{why}"),
            other => panic!("expected checksum corruption, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_segment_is_detected() {
        let events = codec::one_of_every_class();
        let dir = tmpdir("truncate");
        let manifest = write_store(&dir, &contents(&events, &[])).unwrap();
        let victim = dir.join(&manifest.segments[3].file);
        let image = fs::read(&victim).unwrap();
        fs::write(&victim, &image[..image.len() - 17]).unwrap();
        assert!(matches!(open_store(&dir), Err(OpenError::Corrupt(..))));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// What `Diagnosis::save_store` writes for `d`.
    fn contents_of(d: &crate::Diagnosis) -> StoreContents<'_> {
        StoreContents {
            events: d.events(),
            failures: &d.failures,
            swos: &d.swos,
            swo_failures: &d.swo_failures,
            ..contents(&[], &[])
        }
    }

    /// Every file in `dir`, by name.
    fn files_of(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().to_string_lossy().into_owned();
                (name, fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn every_pool_width_writes_the_same_bytes() {
        use crate::{Diagnosis, DiagnosisConfig};
        use hpc_faultsim::chaos::{ChaosFeed, ChaosSpec, Intensity};
        use hpc_faultsim::Scenario;
        use hpc_platform::SystemId;

        let archive = Scenario::new(SystemId::S1, 2, 7, 42).run().archive;
        let golden = Diagnosis::from_archive(&archive, DiagnosisConfig::default());
        let logs = tmpdir("pool-chaos-logs");
        let archive = crate::fixtures::s1_1x2_seed21();
        ChaosFeed::corrupt(archive, &ChaosSpec::mixed(Intensity::Heavy, 5))
            .write_dir(&logs)
            .unwrap();
        let chaos = Diagnosis::from_dir(&logs, DiagnosisConfig::default()).unwrap();
        fs::remove_dir_all(&logs).unwrap();
        let counts = class_counts(golden.events());
        let busiest = counts
            .into_iter()
            .max_by_key(|&(c, n)| (n, c as u8))
            .unwrap()
            .0;
        let one_class: Vec<LogEvent> = golden
            .events()
            .iter()
            .filter(|e| EventClass::of(&e.payload) == busiest)
            .cloned()
            .collect();
        let stores = [
            ("s1-2x7-seed42", contents_of(&golden)),
            ("heavy-mixed-chaos", contents_of(&chaos)),
            ("empty", contents(&[], &[])),
            ("one-class", contents(&one_class, &[])),
        ];
        for (name, store) in &stores {
            let dir = tmpdir(&format!("pool-{name}-1"));
            let manifest = write_store_with(&dir, store, 1).unwrap();
            let reference = files_of(&dir);
            assert_eq!(reference.len(), manifest.segments.len() + 2, "{name}");
            fs::remove_dir_all(&dir).unwrap();
            for threads in [2, 4, 64] {
                let dir = tmpdir(&format!("pool-{name}-{threads}"));
                assert_eq!(write_store_with(&dir, store, threads).unwrap(), manifest);
                let files = files_of(&dir);
                let names = |f: &[(String, Vec<u8>)]| f.iter().map(|f| f.0.clone()).collect();
                let (got, want): (Vec<String>, Vec<String>) = (names(&files), names(&reference));
                assert_eq!(got, want, "{name} at pool width {threads}");
                assert!(files == reference, "{name} at pool width {threads}");
                fs::remove_dir_all(&dir).unwrap();
            }
        }
        assert!(
            stores[3].1.events.len() > 1,
            "the one-class store holds rows"
        );
    }

    #[test]
    fn a_failed_segment_write_fails_every_width_and_writes_no_manifest() {
        let events = codec::one_of_every_class();
        let first = EventClass::of(&events[0].payload);
        let last = EventClass::of(&events[events.len() - 1].payload);
        for threads in [1, 2, 4, 64] {
            for squatted in [first, last] {
                let dir = tmpdir(&format!("squat-{threads}-{}", squatted.key()));
                // A directory where the writer's temp file must go.
                fs::create_dir(dir.join(format!("seg-{}.tmp", squatted.key()))).unwrap();
                let written = write_store_with(&dir, &contents(&events, &[]), threads);
                assert!(written.is_err(), "width {threads}, {}", squatted.key());
                assert!(!dir.join(MANIFEST_FILE).exists());
                fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    /// 700 cpu-stall rows (three blocks) in runs of seven equal times, so a
    /// run straddles each block boundary, interleaved with 300 oom-kills.
    fn multi_block_events() -> Vec<LogEvent> {
        use hpc_logs::event::{AppKind, ConsoleDetail};
        let mut events = Vec::new();
        for i in 0..700u64 {
            events.push(LogEvent {
                time: SimTime::from_millis(i / 7 * 1_000),
                payload: Payload::Console {
                    node: NodeId((i % 16) as u32),
                    detail: ConsoleDetail::CpuStall { cpu: (i % 4) as u8 },
                },
            });
            if i % 7 < 3 {
                events.push(LogEvent {
                    time: SimTime::from_millis(i / 7 * 1_000),
                    payload: Payload::Console {
                        node: NodeId((i % 5) as u32),
                        detail: ConsoleDetail::OomKill {
                            victim: AppKind::Python,
                            pid: i as u32,
                        },
                    },
                });
            }
        }
        events
    }

    /// A schema 2 segment image taken apart: columns, directory bytes and
    /// the footer's `[min, max, count]`.
    fn split_segment(image: &[u8]) -> (Vec<u8>, Vec<u8>, [u64; 3]) {
        let footer = &image[image.len() - INDEXED_FOOTER_LEN..];
        let field = |i: usize| u64::from_le_bytes(footer[i * 8..i * 8 + 8].try_into().unwrap());
        let body = &image[SEG_MAGIC.len() + 1..image.len() - INDEXED_FOOTER_LEN];
        let (cols, dir) = body.split_at(field(4) as usize);
        (cols.to_vec(), dir.to_vec(), [field(0), field(1), field(2)])
    }

    /// Puts a segment image back together around `dir`, checksum included;
    /// without a directory it is a schema 1 image.
    fn join_segment(class: u8, cols: &[u8], dir: Option<&[u8]>, f: [u64; 3]) -> Vec<u8> {
        let mut image = SEG_MAGIC.to_vec();
        image.push(class);
        image.extend_from_slice(cols);
        image.extend_from_slice(dir.unwrap_or(&[]));
        let checksum = hash64(&image[SEG_MAGIC.len() + 1..]);
        let index_off = dir.map(|_| cols.len() as u64);
        image.extend_from_slice(&footer(f[0], f[1], f[2], checksum, index_off));
        image
    }

    fn encoded(blocks: &[Block]) -> Vec<u8> {
        let mut dir = Vec::new();
        encode_block_dir(blocks, &mut dir);
        dir
    }

    /// A block directory that is wrong but correctly checksummed must be
    /// refused — by `open` when its shape is wrong, by whichever read
    /// reaches the lie otherwise — and never panic or answer differently.
    #[test]
    fn hostile_block_directories_are_corrupt_not_wrong() {
        let events = multi_block_events();
        let dir = tmpdir("hostile-dir");
        write_store(&dir, &contents(&events, &[])).unwrap();
        let victim = dir.join("seg-cpu_stall.col");
        let good = fs::read(&victim).unwrap();
        let (cols, good_dir, f) = split_segment(&good);
        let blocks = decode_block_dir(&good_dir).unwrap();
        assert_eq!(blocks.len(), 3);
        assert_eq!(join_segment(good[8], &cols, Some(&good_dir), f), good);

        type Edit<'a> = &'a dyn Fn(&mut Vec<Block>);
        let edit = |edit: Edit<'_>| {
            let mut b = blocks.clone();
            edit(&mut b);
            encoded(&b)
        };
        let past_the_body = cols.len() as u64 + 1;
        let shapes: Vec<(&str, Vec<u8>)> = vec![
            (
                "payload offset past the column",
                edit(&|b| b[2].payload_off = past_the_body),
            ),
            (
                "time offset inside the position column",
                edit(&|b| b[2].time_off = b[0].pos_off + 1),
            ),
            (
                "offsets that do not advance",
                edit(&|b| b[2].pos_off = b[1].pos_off),
            ),
            (
                "positions that do not advance",
                edit(&|b| b[2].first_pos = b[1].first_pos),
            ),
            ("one block too few", edit(&|b| b.truncate(2))),
            (
                "one block too many",
                edit(&|b| {
                    let mut extra = b[2];
                    extra.first_pos += 256;
                    extra.time_off += 256;
                    extra.pos_off += 256;
                    b.push(extra)
                }),
            ),
            ("first time off the footer", edit(&|b| b[0].first_time += 1)),
            ("truncated", good_dir[..good_dir.len() - 3].to_vec()),
            ("trailing bytes", [&good_dir[..], &[0u8][..]].concat()),
            ("another block size", {
                let mut d = good_dir.clone();
                d[1] ^= 1; // 256 is the two-byte varint 0x80 0x02
                d
            }),
            ("empty", Vec::new()),
        ];
        for (what, hostile) in &shapes {
            fs::write(&victim, join_segment(good[8], &cols, Some(hostile), f)).unwrap();
            match Store::open(&dir) {
                Err(OpenError::Corrupt(_, why)) => {
                    assert!(why.contains("block directory"), "{what}: {why}")
                }
                other => panic!("{what}: expected a corrupt store, got {other:?}"),
            }
        }

        // Lies of one byte keep the shape (unless the column is so dense
        // that `open` sees it): then every read that meets one refuses.
        let all_time = (SimTime::EPOCH, SimTime::from_millis(u64::MAX));
        let lies: [Edit<'_>; 4] = [
            &|b| b[1].time_off += 1,
            &|b| b[1].pos_off += 1,
            &|b| b[1].payload_off += 1,
            &|b| b[1].first_time += 1,
        ];
        let mut met_by_a_read = 0;
        for (i, lie) in lies.iter().enumerate() {
            fs::write(&victim, join_segment(good[8], &cols, Some(&edit(lie)), f)).unwrap();
            let store = match Store::open(&dir) {
                Ok(store) => store,
                Err(OpenError::Corrupt(..)) => continue,
                Err(other) => panic!("lie {i}: {other:?}"),
            };
            met_by_a_read += 1;
            let streamed = store
                .scan(&[], all_time.0, all_time.1)
                .and_then(|mut scan| {
                    let n = scan.by_ref().count();
                    scan.take_error().map_or(Ok(n), Err)
                });
            assert!(
                matches!(streamed, Err(OpenError::Corrupt(..))),
                "lie {i}: {streamed:?}"
            );
            assert!(
                matches!(store.load(), Err(OpenError::Corrupt(..))),
                "lie {i}"
            );
        }
        assert!(met_by_a_read >= 3, "{met_by_a_read}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A node query reads the whole segment it indexes: a payload that
    /// does not decode, in a block outside the query's window and under a
    /// resealed checksum, makes the store corrupt on every node query (a
    /// failed build caches nothing), and never panics.
    #[test]
    fn a_node_query_validates_the_whole_segment_it_indexes() {
        use crate::query::{self, QueryFilter};
        let events = multi_block_events();
        let dir = tmpdir("node-index-corrupt");
        write_store(&dir, &contents(&events, &[])).unwrap();
        let victim = dir.join("seg-cpu_stall.col");
        let image = fs::read(&victim).unwrap();
        let (mut cols, block_dir, f) = split_segment(&image);
        let blocks = decode_block_dir(&block_dir).unwrap();
        // Row 0 names dictionary entry 127 of 16.
        cols[blocks[0].payload_off as usize] = 0x7f;
        fs::write(&victim, join_segment(image[8], &cols, Some(&block_dir), f)).unwrap();

        let store = Store::open(&dir).unwrap();
        let from = Some(SimTime::from_millis(80_000));
        assert!(
            blocks[2].first_time <= 80_000,
            "the window starts in block 2"
        );
        let window = QueryFilter {
            from,
            ..Default::default()
        };
        let tail = query::plan(&store, &window).tail(300, SchedulerKind::Slurm);
        assert!(tail.is_ok(), "block 0 is outside the window: {tail:?}");

        let node = QueryFilter {
            node: Some(NodeId(3)),
            from,
            ..Default::default()
        };
        for attempt in 0..2 {
            match query::plan(&store, &node).count() {
                Err(OpenError::Corrupt(_, why)) => assert!(why.contains("row 0"), "{why}"),
                other => panic!("attempt {attempt}: expected a corrupt store, got {other:?}"),
            }
        }
        let stalls = store
            .segments
            .iter()
            .find(|s| s.class == EventClass::CpuStall);
        assert!(stalls.unwrap().node_index.get().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `multi_block_events`' store in `tmpdir(name)` with its cpu-stall
    /// segment's columns edited by `edit` (which also gets the block
    /// directory) and resealed: the directory and the opened store.
    fn resealed_stalls(name: &str, edit: impl Fn(&mut [u8], &[Block])) -> (PathBuf, Store) {
        let dir = tmpdir(name);
        write_store(&dir, &contents(&multi_block_events(), &[])).unwrap();
        let victim = dir.join("seg-cpu_stall.col");
        let image = fs::read(&victim).unwrap();
        let (mut cols, block_dir, f) = split_segment(&image);
        edit(&mut cols, &decode_block_dir(&block_dir).unwrap());
        fs::write(&victim, join_segment(image[8], &cols, Some(&block_dir), f)).unwrap();
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    fn stalls(store: &Store) -> &Segment {
        let seg = store
            .segments
            .iter()
            .find(|s| s.class == EventClass::CpuStall);
        seg.unwrap()
    }

    /// Asserts `answer` is a corrupt store whose reason mentions `why`.
    fn assert_corrupt<T: fmt::Debug>(what: &str, answer: Result<T, OpenError>, why: &str) {
        match answer {
            Err(OpenError::Corrupt(_, reason)) => assert!(reason.contains(why), "{what}: {reason}"),
            other => panic!("{what}: expected a corrupt store, got {other:?}"),
        }
    }

    /// A dictionary that is not strictly increasing, under a resealed
    /// checksum: every query that reads it is corrupt on two calls in a
    /// row and nothing is kept. A windowed count never reads it.
    #[test]
    fn a_dictionary_out_of_order_fails_every_read_and_is_not_kept() {
        use crate::query::{self, QueryFilter};
        let (dir, store) = resealed_stalls("dict-out-of-order", |cols, _| {
            // 16 entries, then node 0, then a difference of 1 made 0.
            assert_eq!(cols[..3], [16, 0, 1]);
            cols[2] = 0;
        });
        let from = Some(SimTime::from_millis(80_000));
        let window = QueryFilter {
            from,
            ..Default::default()
        };
        let node = QueryFilter {
            node: Some(NodeId(3)),
            from,
            ..Default::default()
        };
        for attempt in 0..2 {
            let why = "dictionary is not strictly increasing";
            let tail = query::plan(&store, &window).tail(5, SchedulerKind::Slurm);
            assert_corrupt(&format!("tail, attempt {attempt}"), tail, why);
            let count = query::plan(&store, &node).count();
            assert_corrupt(&format!("node count, attempt {attempt}"), count, why);
        }
        let seg = stalls(&store);
        assert!(seg.dict.get().is_none() && seg.node_index.get().is_none());
        let in_window = multi_block_events()
            .iter()
            .filter(|e| e.time >= SimTime::from_millis(80_000))
            .count();
        assert_eq!(
            query::plan(&store, &window).count().unwrap(),
            in_window as u64
        );
        assert_corrupt("load", store.load(), "dictionary");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Block 1's time column made one byte longer than its directory entry
    /// says, under a resealed checksum: every count that cuts block 1 and
    /// every scan that reads it is corrupt on two calls in a row and its
    /// times are not kept. A count cutting blocks 0 and 2 answers.
    #[test]
    fn a_time_block_off_its_directory_entry_fails_every_cut_and_is_not_kept() {
        use crate::query::{self, HistKey, QueryFilter};
        let (dir, store) = resealed_stalls("time-block-off", |cols, blocks| {
            // A one-byte difference of 0 (equal times) inside block 1
            // becomes the first byte of a longer varint.
            let block_1 = blocks[1].time_off as usize + 1..blocks[2].time_off as usize;
            let at = block_1.clone().find(|&i| cols[i] == 0).unwrap();
            cols[at] = 0x80;
        });
        let seg = stalls(&store);
        let starts: Vec<u64> = seg.blocks.iter().map(|b| b.first_time).collect();
        assert!(starts[0] < 10_000 && starts[1] < 50_000);
        assert!(50_000 < starts[2] && starts[2] <= 80_000, "{starts:?}");
        let cut = QueryFilter {
            classes: vec![EventClass::CpuStall],
            from: Some(SimTime::from_millis(50_000)),
            ..Default::default()
        };
        for attempt in 0..2 {
            let why = "time column: block 2 is not where the directory says";
            let plan = query::plan(&store, &cut);
            assert_corrupt(&format!("count, attempt {attempt}"), plan.count(), why);
            let by_class = plan.histogram(HistKey::Class);
            assert_corrupt(&format!("histogram, attempt {attempt}"), by_class, why);
            let tail = plan.tail(300, SchedulerKind::Slurm);
            assert_corrupt(&format!("tail, attempt {attempt}"), tail, why);
        }
        assert!(seg.block_times[1].get().is_none());

        let around = QueryFilter {
            from: Some(SimTime::from_millis(10_000)),
            to: Some(SimTime::from_millis(80_000)),
            ..cut
        };
        let in_window = multi_block_events()
            .iter()
            .filter(|e| EventClass::of(&e.payload) == EventClass::CpuStall)
            .filter(|e| (10_000..80_000).contains(&e.time.as_millis()))
            .count();
        assert_eq!(
            query::plan(&store, &around).count().unwrap(),
            in_window as u64
        );
        assert!(seg.block_times[0].get().is_some() && seg.block_times[2].get().is_some());
        assert!(seg.block_times[1].get().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A schema 1 segment longer than a block has no directory and reads
    /// as one block from row 0: same events, same answers as schema 2.
    #[test]
    fn schema_1_segments_longer_than_a_block_read_as_one_block() {
        use crate::query::{self, HistKey, QueryFilter};
        let events = multi_block_events();
        let v2 = tmpdir("schema2");
        let mut manifest = write_store(&v2, &contents(&events, &[])).unwrap();
        let v1 = tmpdir("schema1");
        for meta in &manifest.segments {
            let image = fs::read(v2.join(&meta.file)).unwrap();
            let (cols, _, f) = split_segment(&image);
            fs::write(v1.join(&meta.file), join_segment(image[8], &cols, None, f)).unwrap();
        }
        fs::copy(v2.join(DERIVED_FILE), v1.join(DERIVED_FILE)).unwrap();
        manifest.schema_version = 1;
        manifest.fingerprint = manifest.derive_fingerprint();
        fs::write(v1.join(MANIFEST_FILE), manifest.to_json().pretty()).unwrap();

        let (old, new) = (Store::open(&v1).unwrap(), Store::open(&v2).unwrap());
        assert_eq!(old.manifest().schema_version, 1);
        assert!(old.segments.iter().all(|s| s.blocks.len() == 1));
        assert_eq!(new.segments[1].blocks.len(), 3);

        let t = |ms: u64| Some(SimTime::from_millis(ms));
        let filters = [
            QueryFilter::default(),
            QueryFilter {
                from: t(36_000),
                to: t(37_001),
                ..Default::default()
            },
            QueryFilter {
                node: Some(NodeId(3)),
                from: t(20_000),
                ..Default::default()
            },
            QueryFilter {
                classes: vec![EventClass::CpuStall],
                to: t(73_000),
                ..Default::default()
            },
        ];
        for f in &filters {
            let (a, b) = (query::plan(&old, f), query::plan(&new, f));
            assert_eq!(a.count().unwrap(), b.count().unwrap(), "{f:?}");
            for key in [HistKey::Class, HistKey::Node, HistKey::Hour] {
                assert_eq!(a.histogram(key).unwrap(), b.histogram(key).unwrap());
            }
            for n in [5, 300] {
                assert_eq!(
                    a.tail(n, SchedulerKind::Slurm).unwrap(),
                    b.tail(n, SchedulerKind::Slurm).unwrap(),
                    "{f:?}"
                );
            }
        }
        // A mixed store is refused: the footer must match the manifest.
        fs::copy(v2.join("seg-cpu_stall.col"), v1.join("seg-cpu_stall.col")).unwrap();
        assert!(matches!(Store::open(&v1), Err(OpenError::Corrupt(..))));
        fs::copy(v1.join("seg-oom_kill.col"), v1.join("seg-cpu_stall.col")).unwrap();

        assert_eq!(old.load().unwrap().events, events);
        assert_eq!(new.load().unwrap().events, events);
        fs::remove_dir_all(&v1).unwrap();
        fs::remove_dir_all(&v2).unwrap();
    }

    #[test]
    fn missing_segment_file_is_io_error() {
        let events = codec::one_of_every_class();
        let dir = tmpdir("missing");
        let manifest = write_store(&dir, &contents(&events, &[])).unwrap();
        fs::remove_file(dir.join(&manifest.segments[1].file)).unwrap();
        assert!(matches!(open_store(&dir), Err(OpenError::Io(..))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_schema_version_is_rejected() {
        let events = codec::one_of_every_class();
        let dir = tmpdir("version");
        write_store(&dir, &contents(&events, &[])).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&path).unwrap().replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 99",
        );
        fs::write(&path, text).unwrap();
        assert!(matches!(open_store(&dir), Err(OpenError::Version(99))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_manifest_fingerprint_is_rejected() {
        let events = codec::one_of_every_class();
        let dir = tmpdir("fingerprint");
        write_store(&dir, &contents(&events, &[])).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&path)
            .unwrap()
            .replace("\"total_lines\": 100", "\"total_lines\": 101");
        fs::write(&path, text).unwrap();
        match open_store(&dir) {
            Err(OpenError::Corrupt(_, why)) => assert!(why.contains("fingerprint"), "{why}"),
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
