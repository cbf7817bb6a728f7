//! Ad-hoc query layer over an [`EventStore`] — the library behind the
//! `hpc-query` binary.
//!
//! A [`QueryFilter`] narrows the event population by class set, subject
//! entity (node / blade / cabinet) and half-open time window `[from, to)`.
//! [`QueryFilter::select`] picks the cheapest index path the store offers
//! for the filter (class postings, per-node postings, or the time-sliced
//! event column) and post-filters the rest, so results are *identical* to
//! a linear scan — the round-trip proptests rely on that equivalence —
//! while touching only the indexed subset.
//!
//! Four verbs cover the re-analysis workload: [`count`], [`histogram`]
//! (bucketed by class, entity or time), [`tail`] (the last N matching
//! events rendered back into their original log-line form), and
//! [`failures`] (the persisted detection output, filterable the same
//! way). Both front ends — `hpc-query` and fleetd's `/query` — state a
//! query as one [`Request`] and render its [`Answer`] as text or JSON.
//!
//! The same verbs also run straight off a cold on-disk store: [`plan`]
//! compiles a [`QueryFilter`] against a validated [`Store`] into a
//! pruned segment set plus per-segment row ranges, and a [`StorePlan`]
//! answers `count` from the manifest catalogue when no residual
//! predicate needs row bytes, streams matching events one at a time
//! otherwise (`histogram`, and `tail` through a bounded ring), and
//! reads `failures` from the derived file alone. Results are identical
//! to building an [`EventStore`] from [`Store::load`] and querying it —
//! the round-trip proptests pin that equivalence.

use std::borrow::Borrow;
use std::collections::{BTreeMap, VecDeque};

use hpc_logs::event::{nid_name, parse_nid, LogEvent, Payload};
use hpc_logs::time::{SimTime, MILLIS_PER_DAY, MILLIS_PER_HOUR};
use hpc_platform::system::SchedulerKind;
use hpc_platform::{BladeId, CabinetId, NodeId};
use hpc_telemetry::json::JsonValue;

use crate::detection::{DetectedFailure, TerminalKind};
use crate::segment::{OpenError, Scan, ScanStats, Store};
use crate::store::{EventClass, EventStore};

/// Event predicate: class set, subject entity, and half-open time window.
/// Empty/None fields match everything.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryFilter {
    /// Match events of any of these classes (empty = all classes).
    pub classes: Vec<EventClass>,
    /// Match events whose subject node is this node.
    pub node: Option<NodeId>,
    /// Match events whose subject blade is this blade.
    pub blade: Option<BladeId>,
    /// Match events attributable to this cabinet.
    pub cabinet: Option<CabinetId>,
    /// Inclusive lower time bound.
    pub from: Option<SimTime>,
    /// Exclusive upper time bound.
    pub to: Option<SimTime>,
}

/// The cabinet most directly implicated by an event: its subject node's
/// cabinet, else a controller/ERD scope's cabinet.
fn subject_cabinet(e: &LogEvent) -> Option<CabinetId> {
    if let Some(n) = e.subject_node() {
        return Some(n.cabinet());
    }
    match &e.payload {
        Payload::Controller { scope, .. } | Payload::Erd { scope, .. } => Some(scope.cabinet()),
        _ => None,
    }
}

impl QueryFilter {
    /// Whether `e` satisfies every set predicate. Time bounds are
    /// `[from, to)`, matching the store's range semantics.
    pub fn matches(&self, e: &LogEvent) -> bool {
        if !self.classes.is_empty() && !self.classes.contains(&EventClass::of(&e.payload)) {
            return false;
        }
        if let Some(n) = self.node {
            if e.subject_node() != Some(n) {
                return false;
            }
        }
        if let Some(b) = self.blade {
            if e.subject_blade() != Some(b) {
                return false;
            }
        }
        if let Some(c) = self.cabinet {
            if subject_cabinet(e) != Some(c) {
                return false;
            }
        }
        if let Some(from) = self.from {
            if e.time < from {
                return false;
            }
        }
        if let Some(to) = self.to {
            if e.time >= to {
                return false;
            }
        }
        true
    }

    fn time_bounds(&self) -> (SimTime, SimTime) {
        (
            self.from.unwrap_or(SimTime::EPOCH),
            self.to.unwrap_or(SimTime::from_millis(u64::MAX)),
        )
    }

    /// Matching events in chronological (merge) order. Routes through the
    /// narrowest applicable index — class postings beat the per-node index
    /// beat the raw time slice — then applies the remaining predicates;
    /// the result equals filtering [`EventStore::events`] linearly.
    pub fn select<'a>(&self, store: &'a EventStore) -> Vec<&'a LogEvent> {
        let (from, to) = self.time_bounds();
        let mut hits: Vec<&LogEvent> = if !self.classes.is_empty() {
            store
                .classes_events_between(&self.classes, from, to)
                .collect()
        } else if let Some(n) = self.node {
            store.node_events_between(n, from, to).collect()
        } else {
            store.events_between(from, to).iter().collect()
        };
        hits.retain(|e| self.matches(e));
        hits
    }
}

/// Number of matching events.
pub fn count(store: &EventStore, filter: &QueryFilter) -> u64 {
    // Pure class+time filters answer from posting-list lengths alone.
    if filter.node.is_none() && filter.cabinet.is_none() && filter.blade.is_none() {
        let (from, to) = filter.time_bounds();
        if filter.classes.is_empty() {
            return store.events_between(from, to).len() as u64;
        }
        // Sort before dedup: a repeated `--class` that is not adjacent
        // must still count each event once.
        let mut classes = filter.classes.clone();
        classes.sort_unstable_by_key(|c| *c as u8);
        classes.dedup();
        return classes
            .iter()
            .map(|&c| store.class_events_between(c, from, to).count() as u64)
            .sum();
    }
    filter.select(store).len() as u64
}

/// Histogram bucketing dimension for the `histogram` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKey {
    /// Bucket by event class.
    Class,
    /// Bucket by subject node.
    Node,
    /// Bucket by subject blade.
    Blade,
    /// Bucket by implicated cabinet.
    Cabinet,
    /// Bucket by simulation day index.
    Day,
    /// Bucket by hour of day (0–23).
    Hour,
}

impl HistKey {
    /// CLI spelling.
    fn key(self) -> &'static str {
        match self {
            HistKey::Class => "class",
            HistKey::Node => "node",
            HistKey::Blade => "blade",
            HistKey::Cabinet => "cabinet",
            HistKey::Day => "day",
            HistKey::Hour => "hour",
        }
    }

    /// Parses a CLI spelling.
    fn parse(s: &str) -> Option<HistKey> {
        [
            HistKey::Class,
            HistKey::Node,
            HistKey::Blade,
            HistKey::Cabinet,
            HistKey::Day,
            HistKey::Hour,
        ]
        .into_iter()
        .find(|k| k.key() == s)
    }
}

/// One histogram bucket: label and event count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistBucket {
    /// Bucket label (class key, `nid00042`, `blade 3`, `day 2`, …).
    pub label: String,
    /// Matching events in the bucket.
    pub count: u64,
}

/// Matching events bucketed by `key`. Entity-keyed histograms sort by
/// descending count (label as tie-break); time-keyed histograms sort by
/// ascending bucket. Events without the keyed attribute are dropped.
pub fn histogram(store: &EventStore, filter: &QueryFilter, key: HistKey) -> Vec<HistBucket> {
    bucket_stream(filter.select(store), key)
}

/// Histogram counts by `(sort_key, label)`; [`order_buckets`] turns them
/// into the rendered order.
type BucketCounts = BTreeMap<(u64, String), u64>;

/// `(sort_key, label)` of a class bucket.
fn class_bucket(class: EventClass) -> (u64, String) {
    (0, class.key().to_string())
}

/// `(sort_key, label)` of a `day` or `hour` bucket; the sort key keeps
/// time buckets numeric. `None` for every other dimension.
fn time_bucket(key: HistKey, time: SimTime) -> Option<(u64, String)> {
    match key {
        HistKey::Day => Some((time.day_index(), format!("day {}", time.day_index()))),
        HistKey::Hour => Some((
            time.hour_of_day() as u64,
            format!("hour {:02}", time.hour_of_day()),
        )),
        _ => None,
    }
}

/// Core of [`histogram`]: buckets any stream of events (borrowed from an
/// [`EventStore`] or streamed off a [`StorePlan`]) in O(buckets) memory.
fn bucket_stream<B: Borrow<LogEvent>>(
    events: impl IntoIterator<Item = B>,
    key: HistKey,
) -> Vec<HistBucket> {
    let mut buckets = BucketCounts::new();
    for e in events {
        let e = e.borrow();
        let entry = match key {
            HistKey::Class => Some(class_bucket(EventClass::of(&e.payload))),
            HistKey::Node => e.subject_node().map(|n| (0, nid_name(n))),
            HistKey::Blade => e.subject_blade().map(|b| (0, format!("blade {}", b.0))),
            HistKey::Cabinet => subject_cabinet(e).map(|c| (0, format!("cabinet {}", c.0))),
            HistKey::Day | HistKey::Hour => time_bucket(key, e.time),
        };
        if let Some(bucket) = entry {
            *buckets.entry(bucket).or_insert(0) += 1;
        }
    }
    order_buckets(buckets, key)
}

/// Bucket order of every histogram: time dimensions chronological, the
/// others heaviest first with the label as deterministic tie-break.
fn order_buckets(buckets: BucketCounts, key: HistKey) -> Vec<HistBucket> {
    let mut out: Vec<(u64, HistBucket)> = buckets
        .into_iter()
        .map(|((sort_key, label), count)| (sort_key, HistBucket { label, count }))
        .collect();
    match key {
        HistKey::Day | HistKey::Hour => out.sort_by_key(|a| a.0),
        _ => out.sort_by(|a, b| {
            b.1.count
                .cmp(&a.1.count)
                .then_with(|| a.1.label.cmp(&b.1.label))
        }),
    }
    out.into_iter().map(|(_, b)| b).collect()
}

/// The last `n` matching events, oldest of the `n` first, rendered back
/// into their original log-line form for `scheduler`.
pub fn tail(
    store: &EventStore,
    filter: &QueryFilter,
    n: usize,
    scheduler: SchedulerKind,
) -> Vec<(SimTime, EventClass, String)> {
    render_tail_rows(keep_last(filter.select(store), n), scheduler)
}

/// Bounded reverse ring: retains the last `n` items of a stream in O(n)
/// memory, never materialising the stream itself.
fn keep_last<B>(events: impl IntoIterator<Item = B>, n: usize) -> VecDeque<B> {
    let mut ring = VecDeque::with_capacity(n.min(1024));
    if n == 0 {
        return ring;
    }
    for e in events {
        if ring.len() == n {
            ring.pop_front();
        }
        ring.push_back(e);
    }
    ring
}

/// Renders ring survivors into their original log-line form.
fn render_tail_rows<B: Borrow<LogEvent>>(
    rows: impl IntoIterator<Item = B>,
    scheduler: SchedulerKind,
) -> Vec<(SimTime, EventClass, String)> {
    rows.into_iter()
        .map(|e| {
            let e = e.borrow();
            let lines = hpc_logs::render::render(e, scheduler).join("\n");
            (e.time, EventClass::of(&e.payload), lines)
        })
        .collect()
}

/// One-word stable label for a terminal signature.
fn terminal_label(t: TerminalKind) -> String {
    match t {
        TerminalKind::Panic(reason) => format!("panic:{reason:?}"),
        TerminalKind::UnexpectedShutdown => "unexpected_shutdown".to_string(),
        TerminalKind::AdminDown => "admin_down".to_string(),
        TerminalKind::SchedulerDown => "scheduler_down".to_string(),
    }
}

/// Detected failures narrowed by the filter's entity and time predicates
/// (the class set does not apply — failures are not events).
pub fn failures(all: &[DetectedFailure], filter: &QueryFilter) -> Vec<DetectedFailure> {
    all.iter()
        .filter(|f| {
            filter.node.is_none_or(|n| f.node == n)
                && filter.blade.is_none_or(|b| f.node.blade() == b)
                && filter.cabinet.is_none_or(|c| f.node.cabinet() == c)
                && filter.from.is_none_or(|from| f.time >= from)
                && filter.to.is_none_or(|to| f.time < to)
        })
        .copied()
        .collect()
}

// --- store planner ------------------------------------------------------

/// Compiles `filter` into a lazy plan over a validated (but undecoded)
/// [`Store`]. Nothing is read until a verb runs.
pub fn plan<'a>(store: &'a Store, filter: &QueryFilter) -> StorePlan<'a> {
    StorePlan {
        store,
        filter: filter.clone(),
    }
}

/// A compiled query over a cold segment store.
///
/// The plan is the single read path shared by `hpc-query`, fleetd's
/// `/v1/systems/{id}/query` endpoint and [`Store::load_range`]: class
/// predicates select segments straight from the manifest catalogue,
/// time predicates prune on catalogue time ranges before any byte of a
/// body is read and then binary-search the decoded time column, a node
/// predicate reads only that node's rows through each segment's node
/// index, and the predicates are applied again to a stream of events
/// that is never materialised as a whole.
pub struct StorePlan<'a> {
    store: &'a Store,
    filter: QueryFilter,
}

impl<'a> StorePlan<'a> {
    /// The filter's half-open window as inclusive scan bounds, or
    /// `None` when the window is provably empty.
    fn bounds(&self) -> Option<(SimTime, SimTime)> {
        let from = self.filter.from.unwrap_or(SimTime::EPOCH);
        let to = match self.filter.to {
            None => SimTime::from_millis(u64::MAX),
            Some(t) => SimTime::from_millis(t.as_millis().checked_sub(1)?),
        };
        (from <= to).then_some((from, to))
    }

    /// Whether a predicate survives segment/row pruning and must
    /// inspect decoded events.
    fn has_entity_predicate(&self) -> bool {
        self.filter.node.is_some() || self.filter.blade.is_some() || self.filter.cabinet.is_some()
    }

    /// Matching events as a stream in global merge order. Decodes rows
    /// on demand; drop the iterator early and the tail is never read.
    pub fn events(&self) -> Result<PlannedEvents<'_>, OpenError> {
        self.stream(None)
    }

    /// [`StorePlan::events`]; with `last: Some(n)` the caller promises to
    /// keep only the last `n` events, so each segment may skip all but its
    /// own last `n` in-range rows.
    fn stream(&self, last: Option<usize>) -> Result<PlannedEvents<'_>, OpenError> {
        let QueryFilter { classes, node, .. } = &self.filter;
        let scan = match self.bounds() {
            Some((from, to)) => Some(self.store.scan_filter(classes, *node, from, to, last)?),
            None => None,
        };
        Ok(PlannedEvents {
            scan,
            filter: &self.filter,
        })
    }

    /// Number of matching events.
    ///
    /// With no entity predicate this never decodes a payload row: a
    /// class-only filter sums manifest row counts outright, and time
    /// bounds read, in each window-straddling segment, the times of the
    /// one or two blocks a bound falls in, decoded by the first count
    /// that cuts them and kept while the store is open
    /// ([`Store::count_rows`]).
    pub fn count(&self) -> Result<u64, OpenError> {
        let Some((from, to)) = self.bounds() else {
            return Ok(0);
        };
        if !self.has_entity_predicate() {
            return self.store.count_rows(&self.filter.classes, from, to);
        }
        let mut it = self.events()?;
        let n = it.by_ref().count() as u64;
        match it.take_error() {
            Some(e) => Err(e),
            None => Ok(n),
        }
    }

    /// Matching events bucketed by `key`, streamed in O(buckets) memory.
    ///
    /// With no entity predicate a `class`, `day` or `hour` bucket is
    /// decided by a row's segment and time, so — like [`StorePlan::count`]
    /// — this never decodes a payload.
    pub fn histogram(&self, key: HistKey) -> Result<Vec<HistBucket>, OpenError> {
        if !self.has_entity_predicate() {
            if let Some(buckets) = self.catalogue_histogram(key)? {
                return Ok(order_buckets(buckets, key));
            }
        }
        let mut it = self.events()?;
        let buckets = bucket_stream(it.by_ref(), key);
        match it.take_error() {
            Some(e) => Err(e),
            None => Ok(buckets),
        }
    }

    /// `key`'s buckets from segment classes and time columns alone:
    /// `class` counts the in-window rows of each segment, `day` and `hour`
    /// count them between consecutive bucket edges. `None` for an entity
    /// dimension, which needs the payloads.
    fn catalogue_histogram(&self, key: HistKey) -> Result<Option<BucketCounts>, OpenError> {
        let width = match key {
            HistKey::Class => None,
            HistKey::Day => Some(MILLIS_PER_DAY),
            HistKey::Hour => Some(MILLIS_PER_HOUR),
            HistKey::Node | HistKey::Blade | HistKey::Cabinet => return Ok(None),
        };
        let mut buckets = BucketCounts::new();
        if let Some((from, to)) = self.bounds() {
            let classes = &self.filter.classes;
            self.store
                .count_rows_in_buckets(classes, from, to, width, |class, time, rows| {
                    if rows > 0 {
                        let bucket = time_bucket(key, time).unwrap_or_else(|| class_bucket(class));
                        *buckets.entry(bucket).or_insert(0) += rows;
                    }
                })?;
        }
        Ok(Some(buckets))
    }

    /// The last `n` matching events, oldest of the `n` first, via a
    /// bounded ring — the stream is scanned once and never materialised.
    ///
    /// When every row the scan yields matches — no entity predicate, or
    /// `node` alone, whose scan yields exactly the node's rows from each
    /// segment's node index — a row that is not among its own segment's
    /// last `n` has `n` later matching rows in that segment alone and
    /// cannot be among the global last `n`: the scan is told `n` and reads
    /// no further back. `blade` and `cabinet` are tested per event, so
    /// either one keeps the whole window.
    pub fn tail(
        &self,
        n: usize,
        scheduler: SchedulerKind,
    ) -> Result<Vec<(SimTime, EventClass, String)>, OpenError> {
        let mut it = self.stream(self.tail_last(n))?;
        let ring = keep_last(it.by_ref(), n);
        match it.take_error() {
            Some(e) => Err(e),
            None => Ok(render_tail_rows(ring, scheduler)),
        }
    }

    /// The `last` a tail of `n` passes to the scan: `None` under a
    /// `blade` or `cabinet` predicate.
    fn tail_last(&self, n: usize) -> Option<usize> {
        let residual = self.filter.blade.is_some() || self.filter.cabinet.is_some();
        (!residual).then_some(n)
    }

    /// Detected failures narrowed by the filter, straight from the
    /// derived file — no event row is touched.
    pub fn failures(&self) -> Result<Vec<DetectedFailure>, OpenError> {
        Ok(failures(&self.store.derived()?.failures, &self.filter))
    }
}

/// The streaming side of a [`StorePlan`]: pruned per-segment cursors
/// merged in position order, with the residual predicates applied per
/// event.
///
/// A mid-stream decode error ends the iteration; callers that must
/// treat corruption as fatal check [`PlannedEvents::take_error`] after
/// draining. (Checksums verified by [`Store::open`] make such errors
/// all but impossible in practice.)
pub struct PlannedEvents<'a> {
    /// `None` when the plan's window is provably empty.
    scan: Option<Scan<'a>>,
    filter: &'a QueryFilter,
}

impl PlannedEvents<'_> {
    /// The error that ended the stream early, if any.
    pub fn take_error(&mut self) -> Option<OpenError> {
        self.scan.as_mut().and_then(Scan::take_error)
    }

    /// Decode-effort counters for this stream so far.
    pub fn stats(&self) -> ScanStats {
        self.scan.as_ref().map(Scan::stats).unwrap_or_default()
    }
}

impl Iterator for PlannedEvents<'_> {
    type Item = LogEvent;

    fn next(&mut self) -> Option<LogEvent> {
        let filter = self.filter;
        let scan = self.scan.as_mut()?;
        scan.find(|e| filter.matches(e))
    }
}

// --- front-end request ---------------------------------------------------

/// What a query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Number of matching events.
    Count,
    /// Matching events bucketed by [`Request::by`].
    Histogram,
    /// The last [`Request::n`] matching events.
    Tail,
    /// Detected failures narrowed by the filter.
    Failures,
}

/// One query as a front end states it. `hpc-query` builds it from its
/// flags (`--class mce` is `set("class", "mce")`, the positional verb is
/// `set("verb", …)`) and fleetd's `/query` from its URL parameters, so
/// both speak one vocabulary and refuse with one wording.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The verb; a request without one cannot run.
    pub verb: Option<Verb>,
    /// Event predicate.
    pub filter: QueryFilter,
    /// Histogram dimension; required by [`Verb::Histogram`].
    pub by: Option<HistKey>,
    /// Rows [`Verb::Tail`] returns.
    pub n: usize,
}

impl Default for Request {
    fn default() -> Request {
        Request {
            verb: None,
            filter: QueryFilter::default(),
            by: None,
            n: 10,
        }
    }
}

/// Why a [`Request`] produced no [`Answer`].
#[derive(Debug)]
pub enum RunError {
    /// The request is incomplete (exit 2 / HTTP 400); the reason.
    Request(String),
    /// The store failed underneath a valid request (exit 1 / HTTP 500).
    Store(OpenError),
}

impl From<OpenError> for RunError {
    fn from(e: OpenError) -> RunError {
        RunError::Store(e)
    }
}

fn number<T: std::str::FromStr>(what: &str, s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what} `{s}`"))
}

/// An ISO `2016-03-04T12:33:01.123` timestamp or raw epoch milliseconds.
fn time(s: &str) -> Result<SimTime, String> {
    SimTime::parse(s)
        .or_else(|| s.parse().ok().map(SimTime::from_millis))
        .ok_or_else(|| {
            format!("invalid time `{s}` (expected 2016-03-04T12:33:01.123 or epoch milliseconds)")
        })
}

impl Request {
    /// Applies one `key`/`value` pair of the shared vocabulary: `verb`,
    /// repeatable `class`, `node` (`nid00042` or an id), `blade`,
    /// `cabinet`, `from`/`to` (`[from, to)`), `by`, `n`. An unknown key or
    /// a malformed value is refused with the reason, never guessed at.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "verb" => {
                self.verb = Some(match value {
                    "count" => Verb::Count,
                    "histogram" => Verb::Histogram,
                    "tail" => Verb::Tail,
                    "failures" => Verb::Failures,
                    _ => {
                        return Err(format!(
                            "unknown verb `{value}` (expected count, histogram, tail or failures)"
                        ))
                    }
                })
            }
            "class" => self.filter.classes.push(
                EventClass::from_key(value)
                    .ok_or_else(|| format!("unknown event class `{value}`"))?,
            ),
            "node" => {
                self.filter.node = Some(
                    parse_nid(value)
                        .or_else(|| value.parse().ok().map(NodeId))
                        .ok_or_else(|| {
                            format!("invalid node `{value}` (expected nid00042 or a node id)")
                        })?,
                )
            }
            "blade" => self.filter.blade = Some(BladeId(number("blade", value)?)),
            "cabinet" => self.filter.cabinet = Some(CabinetId(number("cabinet", value)?)),
            "from" => self.filter.from = Some(time(value)?),
            "to" => self.filter.to = Some(time(value)?),
            "by" => {
                self.by = Some(HistKey::parse(value).ok_or_else(|| {
                    format!(
                        "unknown histogram dimension `{value}` \
                         (expected class, node, blade, cabinet, day or hour)"
                    )
                })?)
            }
            "n" => self.n = number("tail count", value)?,
            _ => return Err(format!("unknown query parameter `{key}`")),
        }
        Ok(())
    }

    /// Runs the request against `plan` — [`plan()`] of a store over
    /// [`Request::filter`]; `scheduler` is the flavour `tail` renders
    /// scheduler lines in.
    pub fn run(&self, plan: &StorePlan, scheduler: SchedulerKind) -> Result<Answer, RunError> {
        Ok(match self.verb {
            Some(Verb::Count) => Answer::Count(plan.count()?),
            Some(Verb::Histogram) => {
                let key = self.by.ok_or_else(|| {
                    RunError::Request(
                        "histogram needs `by` (class, node, blade, cabinet, day or hour)"
                            .to_string(),
                    )
                })?;
                Answer::Histogram(key, plan.histogram(key)?)
            }
            Some(Verb::Tail) => Answer::Tail(plan.tail(self.n, scheduler)?),
            Some(Verb::Failures) => Answer::Failures(plan.failures()?),
            None => {
                return Err(RunError::Request(
                    "query needs a verb (count, histogram, tail or failures)".to_string(),
                ))
            }
        })
    }
}

/// A verb's result; renders to text and to JSON from the one value, which
/// keeps the two output modes structurally in sync.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `count`.
    Count(u64),
    /// `histogram`: the dimension and its buckets.
    Histogram(HistKey, Vec<HistBucket>),
    /// `tail`: `(time, class, rendered line)` rows, oldest first.
    Tail(Vec<(SimTime, EventClass, String)>),
    /// `failures`.
    Failures(Vec<DetectedFailure>),
}

fn jn(v: u64) -> JsonValue {
    JsonValue::Number(v as f64)
}

fn js(s: impl Into<String>) -> JsonValue {
    JsonValue::String(s.into())
}

fn obj<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Answer {
    /// Plain text: the count on one line; an aligned two-column histogram
    /// table; the tail's rendered log lines; one `time node terminal` line
    /// per failure plus a total.
    pub fn text(&self) -> String {
        let mut out = String::new();
        match self {
            Answer::Count(n) => out = format!("{n}\n"),
            Answer::Histogram(_, buckets) => {
                let width = buckets.iter().map(|b| b.label.len()).max().unwrap_or(0);
                for b in buckets {
                    out.push_str(&format!("{:<width$}  {}\n", b.label, b.count));
                }
            }
            Answer::Tail(rows) => {
                for (_, _, line) in rows {
                    out.push_str(line);
                    out.push('\n');
                }
            }
            Answer::Failures(rows) => {
                for f in rows {
                    out.push_str(&format!(
                        "{} {} {}\n",
                        f.time,
                        nid_name(f.node),
                        terminal_label(f.terminal)
                    ));
                }
                out.push_str(&format!("total: {}\n", rows.len()));
            }
        }
        out
    }

    /// One JSON document, tagged with its `verb`.
    pub fn json(&self) -> JsonValue {
        match self {
            Answer::Count(n) => obj([("verb", js("count")), ("count", jn(*n))]),
            Answer::Histogram(key, buckets) => obj([
                ("verb", js("histogram")),
                ("key", js(key.key())),
                (
                    "buckets",
                    JsonValue::Array(
                        buckets
                            .iter()
                            .map(|b| obj([("bucket", js(&*b.label)), ("count", jn(b.count))]))
                            .collect(),
                    ),
                ),
            ]),
            Answer::Tail(rows) => obj([
                ("verb", js("tail")),
                (
                    "events",
                    JsonValue::Array(
                        rows.iter()
                            .map(|(time, class, line)| {
                                obj([
                                    ("time_ms", jn(time.as_millis())),
                                    ("time", js(time.to_string())),
                                    ("class", js(class.key())),
                                    ("line", js(&**line)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Answer::Failures(rows) => obj([
                ("verb", js("failures")),
                ("total", jn(rows.len() as u64)),
                (
                    "failures",
                    JsonValue::Array(
                        rows.iter()
                            .map(|f| {
                                obj([
                                    ("time_ms", jn(f.time.as_millis())),
                                    ("time", js(f.time.to_string())),
                                    ("node", js(nid_name(f.node))),
                                    ("terminal", js(terminal_label(f.terminal))),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_logs::event::{ConsoleDetail, ControllerDetail, ControllerScope, PanicReason};

    fn ev(ms: u64, node: u32) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(node),
                detail: ConsoleDetail::DiskError,
            },
        }
    }

    fn panic_ev(ms: u64, node: u32) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(node),
                detail: ConsoleDetail::KernelPanic {
                    reason: PanicReason::KernelBug,
                },
            },
        }
    }

    fn controller_ev(ms: u64, blade: u32) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Controller {
                scope: ControllerScope::Blade(BladeId(blade)),
                detail: ControllerDetail::BcHeartbeatFault,
            },
        }
    }

    fn store() -> EventStore {
        let events = vec![
            ev(0, 1),
            panic_ev(1_000, 2),
            controller_ev(2_000, 0),
            ev(3_000, 1),
            ev(3_000, 2),
            ev(4_000, 9),
        ];
        EventStore::build(events, &[])
    }

    /// Every index path must agree with a linear scan of the event column.
    fn assert_select_equals_scan(store: &EventStore, filter: &QueryFilter) {
        let scanned: Vec<&LogEvent> = store
            .events()
            .iter()
            .filter(|e| filter.matches(e))
            .collect();
        let selected = filter.select(store);
        assert_eq!(selected, scanned, "{filter:?}");
    }

    #[test]
    fn select_agrees_with_linear_scan_on_every_index_path() {
        let s = store();
        let filters = [
            QueryFilter::default(),
            QueryFilter {
                classes: vec![EventClass::DiskError],
                ..Default::default()
            },
            QueryFilter {
                classes: vec![EventClass::DiskError, EventClass::KernelPanic],
                node: Some(NodeId(2)),
                ..Default::default()
            },
            QueryFilter {
                node: Some(NodeId(1)),
                ..Default::default()
            },
            QueryFilter {
                blade: Some(NodeId(1).blade()),
                ..Default::default()
            },
            QueryFilter {
                cabinet: Some(CabinetId(0)),
                from: Some(SimTime::from_millis(1_000)),
                to: Some(SimTime::from_millis(3_000)),
                ..Default::default()
            },
            QueryFilter {
                from: Some(SimTime::from_millis(3_000)),
                ..Default::default()
            },
        ];
        for f in &filters {
            assert_select_equals_scan(&s, f);
            assert_eq!(count(&s, f), f.select(&s).len() as u64, "{f:?}");
        }
    }

    /// Regression: a class repeated non-adjacently (`--class a --class b
    /// --class a`) must count each event once. An adjacent-only `dedup`
    /// used to double-count here, in both the in-memory and store paths.
    #[test]
    fn non_adjacent_duplicate_classes_count_once() {
        let s = store();
        let f = QueryFilter {
            classes: vec![
                EventClass::DiskError,
                EventClass::KernelPanic,
                EventClass::DiskError,
            ],
            ..Default::default()
        };
        assert_eq!(count(&s, &f), 5); // 4 disk errors + 1 panic
        assert_eq!(f.select(&s).len(), 5);
    }

    #[test]
    fn time_window_is_half_open() {
        let s = store();
        let f = QueryFilter {
            from: Some(SimTime::from_millis(1_000)),
            to: Some(SimTime::from_millis(3_000)),
            ..Default::default()
        };
        // Includes 1_000 and 2_000, excludes both 3_000 events.
        assert_eq!(count(&s, &f), 2);
    }

    #[test]
    fn histogram_class_orders_by_count_then_label() {
        let s = store();
        let buckets = histogram(&s, &QueryFilter::default(), HistKey::Class);
        assert_eq!(buckets[0].label, "disk_error");
        assert_eq!(buckets[0].count, 4);
        let labels: Vec<&str> = buckets.iter().map(|b| b.label.as_str()).collect();
        assert_eq!(labels, ["disk_error", "bc_heartbeat_fault", "kernel_panic"]);
    }

    #[test]
    fn histogram_day_is_chronological() {
        let events = vec![ev(0, 1), ev(86_400_000, 1), ev(86_400_001, 2)];
        let s = EventStore::build(events, &[]);
        let buckets = histogram(&s, &QueryFilter::default(), HistKey::Day);
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].label, "day 0");
        assert_eq!(buckets[0].count, 1);
        assert_eq!(buckets[1].label, "day 1");
        assert_eq!(buckets[1].count, 2);
    }

    #[test]
    fn tail_returns_last_n_oldest_first() {
        let s = store();
        let rows = tail(&s, &QueryFilter::default(), 2, SchedulerKind::Slurm);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].0 <= rows[1].0);
        assert_eq!(rows[1].0, SimTime::from_millis(4_000));
        assert!(!rows[0].2.is_empty());
    }

    #[test]
    fn failures_verb_filters_by_entity_and_time() {
        let all = vec![
            DetectedFailure {
                node: NodeId(1),
                time: SimTime::from_millis(1_000),
                terminal: TerminalKind::AdminDown,
            },
            DetectedFailure {
                node: NodeId(8),
                time: SimTime::from_millis(2_000),
                terminal: TerminalKind::SchedulerDown,
            },
        ];
        let by_node = failures(
            &all,
            &QueryFilter {
                node: Some(NodeId(8)),
                ..Default::default()
            },
        );
        assert_eq!(by_node.len(), 1);
        assert_eq!(by_node[0].node, NodeId(8));
        let by_time = failures(
            &all,
            &QueryFilter {
                to: Some(SimTime::from_millis(2_000)),
                ..Default::default()
            },
        );
        assert_eq!(by_time.len(), 1);
        assert_eq!(by_time[0].node, NodeId(1));
        let text = Answer::Failures(by_time).text();
        assert!(text.contains("nid00001"));
        assert!(text.ends_with("total: 1\n"));
    }

    #[test]
    fn json_renderings_parse_back() {
        let s = store();
        let buckets = histogram(&s, &QueryFilter::default(), HistKey::Class);
        for answer in [
            Answer::Count(7),
            Answer::Histogram(HistKey::Class, buckets),
            Answer::Tail(tail(&s, &QueryFilter::default(), 3, SchedulerKind::Slurm)),
            Answer::Failures(Vec::new()),
        ] {
            let v = answer.json();
            let text = v.pretty();
            let back = hpc_telemetry::json::parse(&text).unwrap();
            assert_eq!(back, v);
        }
    }

    /// On a warm node index a node tail decodes, in each segment, the
    /// last `min(n, the node's rows)` and nothing else; a cabinet
    /// predicate keeps every row of the node.
    #[test]
    fn warm_node_tail_decodes_at_most_n_rows_per_segment() {
        use crate::segment::{write_store, StoreContents};
        let stall = |ms: u64, node: u32| LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(node),
                detail: ConsoleDetail::CpuStall { cpu: 1 },
            },
        };
        // Three blocks of disk errors on five nodes, one of stalls on four.
        let mut events = Vec::new();
        for i in 0..700u64 {
            events.push(ev(i * 10, (i % 5) as u32));
            if i % 3 == 0 {
                events.push(stall(i * 10 + 1, (i % 4) as u32 * 2));
            }
        }
        let dir = std::env::temp_dir().join(format!("hpc-query-tail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_store(
            &dir,
            &StoreContents {
                events: &events,
                failures: &[],
                swos: &[],
                swo_failures: &[],
                skipped_lines: 0,
                total_lines: events.len() as u64,
                scheduler: SchedulerKind::Slurm,
                source: "test",
            },
        )
        .unwrap();
        let store = Store::open(&dir).unwrap();
        let decoded = |plan: &StorePlan<'_>, last| {
            let mut it = plan.stream(last).unwrap();
            it.by_ref().for_each(drop);
            assert!(it.take_error().is_none());
            it.stats().rows_decoded
        };
        for node in 0..7 {
            let node = NodeId(node);
            let filter = QueryFilter {
                node: Some(node),
                ..Default::default()
            };
            let by_node = plan(&store, &filter);
            decoded(&by_node, None); // builds the indexes
            let own = |class| {
                let of_class = |e: &&LogEvent| EventClass::of(&e.payload) == class;
                let e = events.iter().filter(of_class);
                e.filter(|e| e.subject_node() == Some(node)).count() as u64
            };
            let rows = [own(EventClass::DiskError), own(EventClass::CpuStall)];
            for n in [0, 1, 5, 200] {
                let want: u64 = rows.iter().map(|r| (*r).min(n as u64)).sum();
                let last = by_node.tail_last(n);
                assert_eq!(decoded(&by_node, last), want, "{node:?} n={n}");
            }
            let cabinet = QueryFilter {
                cabinet: Some(node.cabinet()),
                ..filter.clone()
            };
            let in_cabinet = plan(&store, &cabinet);
            assert_eq!(in_cabinet.tail_last(5), None);
            assert_eq!(decoded(&in_cabinet, None), rows.iter().sum());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
