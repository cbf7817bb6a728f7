//! Lazy, prunable, streaming scan layer over a validated [`Store`].
//!
//! [`Store::open`] proves every file intact without decoding a row; this
//! module is the read path that decodes *as little as possible* to
//! answer a filter. A row is read only if it survives, in order:
//!
//! 1. **Class** — a segment is one class; the catalogue names it.
//! 2. **Time range** — the catalogue holds each segment's first and last
//!    time. Neither tier reads a byte of the segment.
//! 3. **Subject** — under a node predicate, a segment is dropped if its
//!    class cannot name a subject node
//!    ([`EventClass::carries_subject_node`]) or its sorted node dictionary
//!    — the short first column of the body — lacks the node. A kept
//!    segment answers from its node index (`NodeIndex`): the node's rows
//!    are binary-searched by time to `[from, to]`, cut to the last `n`
//!    when the caller keeps only `n`, and each payload is decoded at its
//!    recorded offset — only the node's rows are decoded. The index is
//!    built by the first node scan that selects the segment, in one
//!    validated pass over the whole segment, and kept while the store is
//!    open. Tiers 4 and 5 are the scan without a node predicate.
//! 4. **Block** — the block directory is binary-searched for the blocks
//!    that can hold `[from, to]`; time, position and payload columns are
//!    read from the first such block on, never the prefix before it. A
//!    `tail` with no entity predicate also passes `n` down, and a cursor
//!    then starts no earlier than its segment's last `n` in-range rows.
//! 5. **Row** — within those blocks the decoded times are binary-searched
//!    to the row range; payloads are decoded from the start of the block
//!    holding the first in-range row (at most a block of rows that are
//!    not returned) and never past the last in-range row.
//!
//! What a query reads that the next would read again is kept in the
//! segment while the store is open: the node dictionary, the node index
//! and the times of each block a count cuts ([`Store::count_rows`]). All
//! three are bounded by the segment — about 8 bytes of times per row and
//! 4 per dictionary entry, plus the index's 16 per indexed row.
//!
//! Per-segment cursors are merged by global position into one
//! chronological stream, one event at a time; no full event vector is
//! ever materialised.
//!
//! Decode effort is observable: `core.segment.segments_pruned`,
//! `core.segment.segments_decoded` and `core.segment.rows_decoded`
//! count what a scan skipped and touched (an index build's rows
//! included), and the same numbers are available per-scan via
//! [`Scan::stats`] (tests pin pruning behaviour on them without racing on
//! the global registry). `core.segment.node_index.builds` and
//! `.rows` count index builds, and the gauge
//! `core.segment.node_index_bytes` is the heap the live indexes hold.
//!
//! A [`Scan`] is an `Iterator<Item = LogEvent>`. Construction fails on
//! undecodable columns; a payload error mid-stream ends the iteration
//! and is surfaced by [`Scan::take_error`] — callers that need
//! corruption to be fatal check it after draining.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use hpc_logs::event::{LogEvent, Payload};
use hpc_logs::time::SimTime;
use hpc_platform::NodeId;

use super::codec::{self, Dec};
use super::{cached, OpenError, Payloads, Segment, SegmentMeta, Store, MANIFEST_FILE};
use crate::store::EventClass;

/// What one scan (or column-only count) skipped and decoded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Segments skipped on catalogue class/time or on the subject tier —
    /// no time, position or payload byte read.
    pub segments_pruned: u64,
    /// Segments whose columns were decoded.
    pub segments_decoded: u64,
    /// Payload rows decoded (including the rows between a block's start
    /// and the first in-range row, which are decoded and dropped, and
    /// every row of a segment whose node index this scan built).
    pub rows_decoded: u64,
}

fn flush_segment_counters(stats: &ScanStats) {
    hpc_telemetry::counter("core.segment.segments_pruned").add(stats.segments_pruned);
    hpc_telemetry::counter("core.segment.segments_decoded").add(stats.segments_decoded);
}

/// One row of a [`NodeIndex`]: 16 bytes.
#[derive(Debug, Clone, Copy)]
struct IndexedRow {
    time: SimTime,
    position: u32,
    /// Where the row's payload starts in the segment's column bytes.
    payload_off: u32,
}

/// Heap held by every live [`NodeIndex`]; `core.segment.node_index_bytes`.
static NODE_INDEX_BYTES: AtomicUsize = AtomicUsize::new(0);

/// One segment's rows grouped by subject node: the rows whose
/// [`LogEvent::subject_node`] is dictionary entry `i` are
/// `rows[offsets[i]..offsets[i + 1]]`, in row order.
#[derive(Debug)]
pub(super) struct NodeIndex {
    offsets: Vec<usize>,
    rows: Vec<IndexedRow>,
}

impl NodeIndex {
    /// Reads `seg` front to back through its column readers — every block
    /// boundary checked against the directory, every payload decoded, no
    /// trailing bytes: the checks [`Store::load`] makes of a segment.
    fn build(seg: &Segment, dict: &[NodeId]) -> Result<NodeIndex, OpenError> {
        let all = 0..seg.blocks.len();
        let times = seg.times(all.clone())?;
        let positions = seg.positions(all)?;
        let mut payloads = seg.payloads(0);
        let cols_len = seg.cols().len();
        let mut tagged = Vec::new();
        for (row, (time, position)) in times.into_iter().zip(positions).enumerate() {
            let at = cols_len - payloads.dec.remaining();
            let payload = payloads.next(dict)?;
            let Some(node) = (LogEvent { time, payload }).subject_node() else {
                continue;
            };
            let slot = dict.binary_search(&node).map_err(|_| {
                seg.corrupt(format!("row {row}: subject node is not in the dictionary"))
            })?;
            let payload_off = u32::try_from(at).map_err(|_| {
                seg.corrupt(format!("row {row}: payload offset {at} exceeds 32 bits"))
            })?;
            tagged.push((
                slot,
                IndexedRow {
                    time,
                    position,
                    payload_off,
                },
            ));
        }
        if payloads.dec.remaining() != 0 {
            return Err(seg.corrupt(format!(
                "{} trailing bytes after last row",
                payloads.dec.remaining()
            )));
        }
        // Stable: each node's rows stay in row order.
        tagged.sort_by_key(|(slot, _)| *slot);
        let index = NodeIndex {
            offsets: (0..=dict.len())
                .map(|i| tagged.partition_point(|(slot, _)| *slot < i))
                .collect(),
            rows: tagged.into_iter().map(|(_, row)| row).collect(),
        };
        hpc_telemetry::counter("core.segment.node_index.builds").inc();
        hpc_telemetry::counter("core.segment.node_index.rows").add(index.rows.len() as u64);
        let held = NODE_INDEX_BYTES.fetch_add(index.heap_bytes(), Ordering::Relaxed);
        hpc_telemetry::gauge("core.segment.node_index_bytes")
            .set((held + index.heap_bytes()) as f64);
        Ok(index)
    }

    fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.rows.capacity() * std::mem::size_of::<IndexedRow>()
    }

    /// The rows of dictionary entry `slot` with times in `[from, to]`, or
    /// only the last `last` of them.
    fn rows(&self, slot: usize, from: SimTime, to: SimTime, last: Option<usize>) -> &[IndexedRow] {
        let rows = &self.rows[self.offsets[slot]..self.offsets[slot + 1]];
        let hi = rows.partition_point(|r| r.time <= to);
        let mut lo = rows[..hi].partition_point(|r| r.time < from);
        if let Some(n) = last {
            lo = lo.max(hi.saturating_sub(n));
        }
        &rows[lo..hi]
    }
}

impl Drop for NodeIndex {
    fn drop(&mut self) {
        let held = NODE_INDEX_BYTES.fetch_sub(self.heap_bytes(), Ordering::Relaxed);
        hpc_telemetry::gauge("core.segment.node_index_bytes")
            .set(held.saturating_sub(self.heap_bytes()) as f64);
    }
}

/// The in-range rows of one segment, found through the block directory.
struct Window {
    /// The block holding the first in-range row.
    block: usize,
    /// Times from that block's first row up to the last in-range row.
    times: Vec<SimTime>,
    /// Index in `times` of the first in-range row.
    first: usize,
}

impl Segment {
    /// The block holding the first row at or after `t`, if any block does.
    /// A run of equal times can straddle a block boundary, so that row
    /// may end the block *before* the first one that starts at `t`.
    fn block_of(&self, t: SimTime) -> usize {
        self.blocks
            .partition_point(|b| b.first_time < t.as_millis())
            .saturating_sub(1)
    }

    /// Rows with times in `[from, to]`, or only the last `last` of them;
    /// `None` when there are none. Only the blocks that can hold such rows
    /// have their times decoded.
    fn window(
        &self,
        from: SimTime,
        to: SimTime,
        last: Option<usize>,
    ) -> Result<Option<Window>, OpenError> {
        let mut b_lo = self.block_of(from);
        let b_hi = self
            .blocks
            .partition_point(|b| b.first_time <= to.as_millis());
        if let Some(n) = last {
            // Every block after `b_lo` below `b_hi` is in range whole.
            b_lo = b_lo.max(b_hi.saturating_sub(1 + n.div_ceil(self.block_rows)));
        }
        if b_lo >= b_hi {
            return Ok(None);
        }
        let mut times = self.times(b_lo..b_hi)?;
        let mut lo = times.partition_point(|t| *t < from);
        let hi = times.partition_point(|t| *t <= to);
        if let Some(n) = last {
            lo = lo.max(hi.saturating_sub(n));
        }
        if lo >= hi {
            return Ok(None);
        }
        let skipped = lo / self.block_rows;
        times.truncate(hi);
        times.drain(..skipped * self.block_rows);
        Ok(Some(Window {
            block: b_lo + skipped,
            times,
            first: lo - skipped * self.block_rows,
        }))
    }

    /// The times of block `b`, decoded by the first call and kept. The
    /// decode checks what any read of the block checks, the footer's last
    /// time included; a failed one keeps nothing.
    fn block_times(&self, b: usize) -> Result<&[SimTime], OpenError> {
        cached(&self.block_times[b], || self.times(b..b + 1)).map(Vec::as_slice)
    }

    /// The node index, built on first use; `rows_decoded` counts a
    /// build's rows. A failed build caches nothing, so the next call
    /// fails the same way.
    fn node_index(&self, dict: &[NodeId], rows_decoded: &mut u64) -> Result<&NodeIndex, OpenError> {
        cached(&self.node_index, || {
            let index = NodeIndex::build(self, dict)?;
            *rows_decoded += self.rows as u64;
            Ok(index)
        })
    }

    /// The payload of an indexed row, decoded at its recorded offset.
    fn payload_at(&self, row: &IndexedRow, dict: &[NodeId]) -> Result<Payload, OpenError> {
        let mut dec = Dec::new(&self.cols()[row.payload_off as usize..]);
        codec::decode_payload(self.class, &mut dec, dict)
            .map_err(|e| self.corrupt(format!("position {}: {e}", row.position)))
    }
}

/// Where a cursor's rows come from.
enum Rows<'a> {
    /// A run of consecutive rows, read column-sequentially from a block.
    Window {
        /// Times and positions from the first row of the block `payloads`
        /// started in; `times` ends with the last in-range row, and rows
        /// beyond it are never decoded.
        times: Vec<SimTime>,
        positions: Vec<u32>,
        /// The payload column, strictly sequential.
        payloads: Payloads<'a>,
        /// Next in-range row to yield, as an index into `times`.
        next: usize,
    },
    /// One node's rows from the node index, each payload decoded at its
    /// own offset.
    Node(std::slice::Iter<'a, IndexedRow>),
}

/// One segment's in-range rows, decoded on demand in row order.
struct Cursor<'a> {
    seg: &'a Segment,
    dict: &'a [NodeId],
    rows: Rows<'a>,
    /// The next in-range row, pre-decoded for the merge.
    peeked: Option<(u32, LogEvent)>,
}

impl<'a> Cursor<'a> {
    /// Positions the columns on `window`'s first in-range row and primes
    /// it for the merge.
    fn window(
        seg: &'a Segment,
        dict: &'a [NodeId],
        window: Window,
        rows_decoded: &mut u64,
    ) -> Result<Cursor<'a>, OpenError> {
        let blocks = window.times.len().div_ceil(seg.block_rows);
        let positions = seg.positions(window.block..window.block + blocks)?;
        let mut payloads = seg.payloads(window.block);
        // Rows between the block's start and the first in-range row have
        // no offset of their own: they are decoded and dropped.
        for _ in 0..window.first {
            payloads.next(dict)?;
        }
        *rows_decoded += window.first as u64;
        let rows = Rows::Window {
            times: window.times,
            positions,
            payloads,
            next: window.first,
        };
        Cursor::primed(seg, dict, rows, rows_decoded)
    }

    /// Primes a cursor over `rows` for the merge.
    fn primed(
        seg: &'a Segment,
        dict: &'a [NodeId],
        rows: Rows<'a>,
        rows_decoded: &mut u64,
    ) -> Result<Cursor<'a>, OpenError> {
        let mut cursor = Cursor {
            seg,
            dict,
            rows,
            peeked: None,
        };
        cursor.peeked = cursor.advance(rows_decoded)?;
        Ok(cursor)
    }

    /// Decodes the next in-range row; `None` once the range is exhausted.
    /// Rows after the range are left undecoded.
    fn advance(&mut self, rows_decoded: &mut u64) -> Result<Option<(u32, LogEvent)>, OpenError> {
        let (position, time, payload) = match &mut self.rows {
            Rows::Window {
                times,
                positions,
                payloads,
                next,
            } => {
                let row = *next;
                if row >= times.len() {
                    return Ok(None);
                }
                let payload = payloads.next(self.dict)?;
                *next += 1;
                (positions[row], times[row], payload)
            }
            Rows::Node(rows) => {
                let Some(row) = rows.next() else {
                    return Ok(None);
                };
                let payload = self.seg.payload_at(row, self.dict)?;
                (row.position, row.time, payload)
            }
        };
        *rows_decoded += 1;
        Ok(Some((position, LogEvent { time, payload })))
    }
}

/// A streaming, position-ordered merge of the pruned per-segment
/// cursors — the lazy counterpart of [`Store::load`].
pub struct Scan<'a> {
    cursors: Vec<Cursor<'a>>,
    manifest_path: PathBuf,
    error: Option<OpenError>,
    stats: ScanStats,
}

impl Scan<'_> {
    /// The error that ended the stream early, if any. Callers that must
    /// treat corruption as fatal check this after draining.
    pub fn take_error(&mut self) -> Option<OpenError> {
        self.error.take()
    }

    /// Decode-effort counters for this scan so far.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }
}

impl Iterator for Scan<'_> {
    type Item = LogEvent;

    fn next(&mut self) -> Option<LogEvent> {
        if self.error.is_some() {
            return None;
        }
        // Linear min-by-position over at most one cursor per class.
        let mut best: Option<(usize, u32)> = None;
        for (i, c) in self.cursors.iter().enumerate() {
            let Some(pos) = c.peeked.as_ref().map(|(p, _)| *p) else {
                continue;
            };
            match best {
                Some((_, bp)) if pos == bp => {
                    // Segments partition global positions; a collision
                    // means two segments claim the same event.
                    self.error = Some(OpenError::Corrupt(
                        self.manifest_path.clone(),
                        "segments disagree: one event position decoded twice".to_string(),
                    ));
                    return None;
                }
                Some((_, bp)) if pos > bp => {}
                _ => best = Some((i, pos)),
            }
        }
        let (i, _) = best?;
        let (_, event) = self.cursors[i].peeked.take().expect("peeked row present");
        match self.cursors[i].advance(&mut self.stats.rows_decoded) {
            Ok(p) => self.cursors[i].peeked = p,
            // The yielded event decoded fine; the error surfaces on the
            // next call so no good row is lost.
            Err(e) => self.error = Some(e),
        }
        Some(event)
    }
}

impl Drop for Scan<'_> {
    fn drop(&mut self) {
        hpc_telemetry::counter("core.segment.rows_decoded").add(self.stats.rows_decoded);
    }
}

/// The two catalogue tiers: class set (empty = all), then time range.
fn in_catalogue(meta: &SegmentMeta, classes: &[EventClass], from: SimTime, to: SimTime) -> bool {
    (classes.is_empty() || classes.contains(&meta.class))
        && meta.max_time >= from
        && meta.min_time <= to
}

impl Store {
    /// Streams events of `classes` (empty = all classes) with times in
    /// `[from, to]` (inclusive), merged into global position order.
    ///
    /// Segments outside the class set or time window are pruned on the
    /// catalogue alone; within a selected segment only the blocks that
    /// can hold the window are read, and only up to its last in-range row.
    pub fn scan(
        &self,
        classes: &[EventClass],
        from: SimTime,
        to: SimTime,
    ) -> Result<Scan<'_>, OpenError> {
        self.scan_filter(classes, None, from, to, None)
    }

    /// [`Store::scan`] for the planner: `node` keeps only events with that
    /// subject node — segments that cannot hold one are pruned, the others
    /// yield the node's rows from their node index — and `last: Some(n)`
    /// says the caller keeps only the last `n` events of the stream, so no
    /// cursor starts before its own last `n` rows.
    pub(crate) fn scan_filter(
        &self,
        classes: &[EventClass],
        node: Option<NodeId>,
        from: SimTime,
        to: SimTime,
        last: Option<usize>,
    ) -> Result<Scan<'_>, OpenError> {
        let mut stats = ScanStats::default();
        let mut cursors = Vec::new();
        for (meta, seg) in self.manifest.segments.iter().zip(&self.segments) {
            if !in_catalogue(meta, classes, from, to)
                || (node.is_some() && !meta.class.carries_subject_node())
            {
                stats.segments_pruned += 1;
                continue;
            }
            let dict = seg.dict()?;
            let Some(node) = node else {
                stats.segments_decoded += 1;
                if let Some(window) = seg.window(from, to, last)? {
                    cursors.push(Cursor::window(seg, dict, window, &mut stats.rows_decoded)?);
                }
                continue;
            };
            let Ok(slot) = dict.binary_search(&node) else {
                stats.segments_pruned += 1;
                continue;
            };
            stats.segments_decoded += 1;
            let rows = seg
                .node_index(dict, &mut stats.rows_decoded)?
                .rows(slot, from, to, last);
            if !rows.is_empty() {
                let rows = Rows::Node(rows.iter());
                cursors.push(Cursor::primed(seg, dict, rows, &mut stats.rows_decoded)?);
            }
        }
        flush_segment_counters(&stats);
        Ok(Scan {
            cursors,
            manifest_path: self.derived_path.with_file_name(MANIFEST_FILE),
            error: None,
            stats,
        })
    }

    /// Counts rows of `classes` (empty = all) with times in `[from, to]`
    /// without decoding a single payload: segments fully inside the
    /// window answer from the catalogue row count, straddling segments
    /// from the times of the one or two blocks a bound falls in, each
    /// decoded by the first count that cuts it and kept while the store
    /// is open. With no time bounds this touches no segment bytes at all —
    /// the manifest alone answers.
    pub fn count_rows(
        &self,
        classes: &[EventClass],
        from: SimTime,
        to: SimTime,
    ) -> Result<u64, OpenError> {
        let mut n = 0;
        self.count_rows_in_buckets(classes, from, to, None, |_, _, rows| n += rows)?;
        Ok(n)
    }

    /// [`Store::count_rows`] one piece at a time: every segment the
    /// catalogue selects is cut at the multiples of `width` milliseconds
    /// (`None`: not cut), and `each` gets the segment's class, a time
    /// inside the piece and the piece's in-window row count. Each cut
    /// reads the times of the one block it falls in.
    pub(crate) fn count_rows_in_buckets(
        &self,
        classes: &[EventClass],
        from: SimTime,
        to: SimTime,
        width: Option<u64>,
        mut each: impl FnMut(EventClass, SimTime, u64),
    ) -> Result<(), OpenError> {
        let mut stats = ScanStats::default();
        for (meta, seg) in self.manifest.segments.iter().zip(&self.segments) {
            if !in_catalogue(meta, classes, from, to) {
                stats.segments_pruned += 1;
                continue;
            }
            // Rows with a time before `t`, from the times of the one block
            // `t` falls in.
            let mut read = false;
            let mut rows_before = |t: u64| -> Result<usize, OpenError> {
                let t = SimTime::from_millis(t);
                let b = seg.block_of(t);
                read = true;
                let times = seg.block_times(b)?;
                Ok(b * seg.block_rows + times.partition_point(|x| *x < t))
            };
            // A bound at or beyond the segment's own is answered by the
            // catalogue: row 0, or the row count.
            let mut piece = from.max(meta.min_time);
            let mut lo = if from <= meta.min_time {
                0
            } else {
                rows_before(from.as_millis())?
            };
            let last = to.min(meta.max_time).as_millis();
            let mut cut = width.and_then(|w| (piece.as_millis() / w + 1).checked_mul(w));
            while let Some(edge) = cut.filter(|edge| *edge <= last) {
                let hi = rows_before(edge)?;
                each(meta.class, piece, hi.saturating_sub(lo) as u64);
                (piece, lo) = (SimTime::from_millis(edge), hi);
                cut = width.and_then(|w| edge.checked_add(w));
            }
            // Times are whole milliseconds: `<= to` is `< to + 1`.
            let hi = match to.as_millis().checked_add(1) {
                Some(end) if to < meta.max_time => rows_before(end)?,
                _ => seg.rows,
            };
            each(meta.class, piece, hi.saturating_sub(lo) as u64);
            stats.segments_decoded += u64::from(read);
        }
        flush_segment_counters(&stats);
        Ok(())
    }
}
