//! The `EventStore` query layer: typed indexes over the merged event
//! sequence, built in one pass and shared by every analysis.
//!
//! The paper's methodology is one correlation engine asked many questions
//! of the same log window (Figs. 5–14, Tables IV–VIII). Answering each
//! question with its own full scan of `events` costs O(questions × events);
//! worse, matching each fault to a subsequent failure by scanning the
//! failure list is O(events × failures). The store replaces both with
//! indexes built in a single pass over the merged events:
//!
//! * **per-class posting lists** — one [`Postings`] per [`EventClass`]
//!   (one class per payload detail variant), so "all NVFs", "all SEDC
//!   warnings in \[from, to)" or "all job records, chronologically" are
//!   indexed range lookups rather than scans;
//! * **per-entity indexes** — the per-node / per-blade / per-cabinet
//!   posting lists the analyses already relied on, folded into one generic
//!   [`EntityIndex`];
//! * **a per-node failure-time index** — sorted failure times per node, so
//!   [`EventStore::fails_within`] is a binary search instead of a walk of
//!   the whole failure list.
//!
//! Because the merged events are globally time-sorted, a posting's dense
//! `u32` position order *is* chronological order; merging several classes
//! back into one chronological pass (see [`EventStore::classes_events`])
//! is a sort of positions, not of timestamps.
//!
//! The same [`Postings`]/[`EntityIndex`] types back `hpc-stream`'s sliding
//! window: [`VecDeque`] supports both the `partition_point` binary searches
//! batch queries need and the O(1) front eviction a bounded-memory monitor
//! needs, so batch and stream share one implementation of "events for
//! entity X in \[from, to)".
//!
//! Telemetry (`core.store.*`): `core.store.index.time_us` (build),
//! `core.store.events` (events owned), `core.store.queries` (indexed
//! queries served), `core.store.events.indexed` (events the index ranges
//! touched) and `core.store.events.scanned` (events a per-query full scan
//! would have walked instead) — the last two make the index win visible in
//! the stage table.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;

use hpc_logs::event::{
    ConsoleDetail, ControllerDetail, ControllerScope, ErdDetail, LogEvent, Payload, SchedulerDetail,
};
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::{BladeId, CabinetId, NodeId};
use hpc_telemetry::Counter;

use crate::detection::DetectedFailure;

/// The payload class of an event: one variant per payload *detail* variant,
/// across all four sources. [`EventClass::of`] is total — every event falls
/// in exactly one class — so iterating [`EventClass::ALL`] posting lists
/// visits every event exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventClass {
    // Console (node-internal).
    /// Machine-check exception.
    Mce,
    /// EDAC memory error.
    MemoryError,
    /// Application segfault.
    SegFault,
    /// oom-killer invocation.
    OomKill,
    /// Kernel oops.
    KernelOops,
    /// Kernel panic (terminal).
    KernelPanic,
    /// Lustre client error.
    LustreError,
    /// Hung-task watchdog timeout.
    HungTaskTimeout,
    /// RCU/CPU stall.
    CpuStall,
    /// Page allocation failure.
    PageAllocFailure,
    /// GPU Xid error.
    GpuError,
    /// Local-disk I/O error.
    DiskError,
    /// The benign BIOS pattern.
    BiosError,
    /// NHC warning echoed to the console.
    NhcWarning,
    /// Abrupt shutdown (terminal).
    UnexpectedShutdown,
    /// Intended shutdown.
    GracefulShutdown,
    // Controller (BC/CC).
    /// Node heartbeat fault.
    NodeHeartbeatFault,
    /// Node voltage fault.
    NodeVoltageFault,
    /// Blade-controller heartbeat fault.
    BcHeartbeatFault,
    /// ECB fault.
    EcbFault,
    /// Sensor read failure.
    SensorReadFailed,
    /// Cabinet power fault.
    CabinetPowerFault,
    /// Microcontroller fault.
    MicroControllerFault,
    /// Controller communication fault.
    CommunicationFault,
    /// Module health fault.
    ModuleHealthFault,
    /// Fan RPM fault.
    RpmFault,
    /// L0 sysd MCE notice.
    L0SysdMce,
    /// Node power-off notice.
    NodePowerOff,
    // ERD.
    /// SEDC threshold warning.
    SedcWarning,
    /// SEDC telemetry reading.
    SedcReading,
    /// Node-scoped hardware error.
    HwError,
    /// Heartbeat stop.
    HeartbeatStop,
    /// L0 failed.
    L0Failed,
    /// HSN link error.
    LinkError,
    /// Environmental notice.
    Environment,
    /// Cabinet sensor check.
    CabinetSensorCheck,
    /// Node failed notice.
    NodeFailed,
    // Scheduler.
    /// Job start.
    JobStart,
    /// Job end.
    JobEnd,
    /// NHC test result.
    NhcResult,
    /// Node state change.
    NodeStateChange,
    /// Epilogue cleanup.
    EpilogueCleanup,
    /// Memory overallocation notice.
    MemOverallocation,
}

impl EventClass {
    /// Number of classes (`ALL.len()`).
    pub const COUNT: usize = 43;

    /// Every class, in `repr` order.
    pub const ALL: [EventClass; EventClass::COUNT] = [
        EventClass::Mce,
        EventClass::MemoryError,
        EventClass::SegFault,
        EventClass::OomKill,
        EventClass::KernelOops,
        EventClass::KernelPanic,
        EventClass::LustreError,
        EventClass::HungTaskTimeout,
        EventClass::CpuStall,
        EventClass::PageAllocFailure,
        EventClass::GpuError,
        EventClass::DiskError,
        EventClass::BiosError,
        EventClass::NhcWarning,
        EventClass::UnexpectedShutdown,
        EventClass::GracefulShutdown,
        EventClass::NodeHeartbeatFault,
        EventClass::NodeVoltageFault,
        EventClass::BcHeartbeatFault,
        EventClass::EcbFault,
        EventClass::SensorReadFailed,
        EventClass::CabinetPowerFault,
        EventClass::MicroControllerFault,
        EventClass::CommunicationFault,
        EventClass::ModuleHealthFault,
        EventClass::RpmFault,
        EventClass::L0SysdMce,
        EventClass::NodePowerOff,
        EventClass::SedcWarning,
        EventClass::SedcReading,
        EventClass::HwError,
        EventClass::HeartbeatStop,
        EventClass::L0Failed,
        EventClass::LinkError,
        EventClass::Environment,
        EventClass::CabinetSensorCheck,
        EventClass::NodeFailed,
        EventClass::JobStart,
        EventClass::JobEnd,
        EventClass::NhcResult,
        EventClass::NodeStateChange,
        EventClass::EpilogueCleanup,
        EventClass::MemOverallocation,
    ];

    /// Console (node-internal) classes.
    pub const CONSOLE: &'static [EventClass] = &[
        EventClass::Mce,
        EventClass::MemoryError,
        EventClass::SegFault,
        EventClass::OomKill,
        EventClass::KernelOops,
        EventClass::KernelPanic,
        EventClass::LustreError,
        EventClass::HungTaskTimeout,
        EventClass::CpuStall,
        EventClass::PageAllocFailure,
        EventClass::GpuError,
        EventClass::DiskError,
        EventClass::BiosError,
        EventClass::NhcWarning,
        EventClass::UnexpectedShutdown,
        EventClass::GracefulShutdown,
    ];

    /// Controller (BC/CC) classes.
    pub const CONTROLLER: &'static [EventClass] = &[
        EventClass::NodeHeartbeatFault,
        EventClass::NodeVoltageFault,
        EventClass::BcHeartbeatFault,
        EventClass::EcbFault,
        EventClass::SensorReadFailed,
        EventClass::CabinetPowerFault,
        EventClass::MicroControllerFault,
        EventClass::CommunicationFault,
        EventClass::ModuleHealthFault,
        EventClass::RpmFault,
        EventClass::L0SysdMce,
        EventClass::NodePowerOff,
    ];

    /// Classes that can trigger an online alert
    /// ([`AlertRaiser::offer`](crate::prediction::AlertRaiser::offer)): the
    /// classes that can satisfy
    /// [`is_indicative_internal`](crate::lead_time::is_indicative_internal)
    /// plus the strong external indicators. The internal predicate is
    /// value-dependent for [`EventClass::Mce`] (only uncorrected) and
    /// [`EventClass::MemoryError`] (only uncorrectable), so it still applies
    /// per event after narrowing to these classes.
    pub const ALERT_TRIGGERS: &'static [EventClass] = &[
        EventClass::Mce,
        EventClass::MemoryError,
        EventClass::SegFault,
        EventClass::OomKill,
        EventClass::KernelOops,
        EventClass::LustreError,
        EventClass::CpuStall,
        EventClass::PageAllocFailure,
        EventClass::NhcWarning,
        EventClass::NodeVoltageFault,
        EventClass::L0SysdMce,
        EventClass::HwError,
    ];

    /// Stable snake_case identifier of this class — the vocabulary shared
    /// by segment file names, the store manifest and the `hpc-query
    /// --class` filter. Round-trips through [`EventClass::from_key`].
    pub fn key(self) -> &'static str {
        match self {
            EventClass::Mce => "mce",
            EventClass::MemoryError => "memory_error",
            EventClass::SegFault => "seg_fault",
            EventClass::OomKill => "oom_kill",
            EventClass::KernelOops => "kernel_oops",
            EventClass::KernelPanic => "kernel_panic",
            EventClass::LustreError => "lustre_error",
            EventClass::HungTaskTimeout => "hung_task_timeout",
            EventClass::CpuStall => "cpu_stall",
            EventClass::PageAllocFailure => "page_alloc_failure",
            EventClass::GpuError => "gpu_error",
            EventClass::DiskError => "disk_error",
            EventClass::BiosError => "bios_error",
            EventClass::NhcWarning => "nhc_warning",
            EventClass::UnexpectedShutdown => "unexpected_shutdown",
            EventClass::GracefulShutdown => "graceful_shutdown",
            EventClass::NodeHeartbeatFault => "node_heartbeat_fault",
            EventClass::NodeVoltageFault => "node_voltage_fault",
            EventClass::BcHeartbeatFault => "bc_heartbeat_fault",
            EventClass::EcbFault => "ecb_fault",
            EventClass::SensorReadFailed => "sensor_read_failed",
            EventClass::CabinetPowerFault => "cabinet_power_fault",
            EventClass::MicroControllerFault => "micro_controller_fault",
            EventClass::CommunicationFault => "communication_fault",
            EventClass::ModuleHealthFault => "module_health_fault",
            EventClass::RpmFault => "rpm_fault",
            EventClass::L0SysdMce => "l0_sysd_mce",
            EventClass::NodePowerOff => "node_power_off",
            EventClass::SedcWarning => "sedc_warning",
            EventClass::SedcReading => "sedc_reading",
            EventClass::HwError => "hw_error",
            EventClass::HeartbeatStop => "heartbeat_stop",
            EventClass::L0Failed => "l0_failed",
            EventClass::LinkError => "link_error",
            EventClass::Environment => "environment",
            EventClass::CabinetSensorCheck => "cabinet_sensor_check",
            EventClass::NodeFailed => "node_failed",
            EventClass::JobStart => "job_start",
            EventClass::JobEnd => "job_end",
            EventClass::NhcResult => "nhc_result",
            EventClass::NodeStateChange => "node_state_change",
            EventClass::EpilogueCleanup => "epilogue_cleanup",
            EventClass::MemOverallocation => "mem_overallocation",
        }
    }

    /// Parses a [`EventClass::key`] identifier.
    pub fn from_key(s: &str) -> Option<EventClass> {
        EventClass::ALL.into_iter().find(|c| c.key() == s)
    }

    /// Whether events of this class name a subject node
    /// ([`LogEvent::subject_node`] is `Some`). The payload *detail* variant
    /// decides that, and a class is one detail variant, so this holds for
    /// every event of the class — which lets the segment planner drop a
    /// whole segment under a `node` predicate without reading it.
    pub fn carries_subject_node(self) -> bool {
        EventClass::CONSOLE.contains(&self)
            || matches!(
                self,
                EventClass::NodeHeartbeatFault
                    | EventClass::NodeVoltageFault
                    | EventClass::L0SysdMce
                    | EventClass::NodePowerOff
                    | EventClass::HwError
                    | EventClass::NodeFailed
                    | EventClass::NhcResult
                    | EventClass::NodeStateChange
                    | EventClass::EpilogueCleanup
                    | EventClass::MemOverallocation
            )
    }

    /// The class of an event payload (total: every payload has one).
    pub fn of(payload: &Payload) -> EventClass {
        match payload {
            Payload::Console { detail, .. } => match detail {
                ConsoleDetail::Mce { .. } => EventClass::Mce,
                ConsoleDetail::MemoryError { .. } => EventClass::MemoryError,
                ConsoleDetail::SegFault { .. } => EventClass::SegFault,
                ConsoleDetail::OomKill { .. } => EventClass::OomKill,
                ConsoleDetail::KernelOops { .. } => EventClass::KernelOops,
                ConsoleDetail::KernelPanic { .. } => EventClass::KernelPanic,
                ConsoleDetail::LustreError { .. } => EventClass::LustreError,
                ConsoleDetail::HungTaskTimeout { .. } => EventClass::HungTaskTimeout,
                ConsoleDetail::CpuStall { .. } => EventClass::CpuStall,
                ConsoleDetail::PageAllocFailure { .. } => EventClass::PageAllocFailure,
                ConsoleDetail::GpuError { .. } => EventClass::GpuError,
                ConsoleDetail::DiskError => EventClass::DiskError,
                ConsoleDetail::BiosError => EventClass::BiosError,
                ConsoleDetail::NhcWarning { .. } => EventClass::NhcWarning,
                ConsoleDetail::UnexpectedShutdown => EventClass::UnexpectedShutdown,
                ConsoleDetail::GracefulShutdown => EventClass::GracefulShutdown,
            },
            Payload::Controller { detail, .. } => match detail {
                ControllerDetail::NodeHeartbeatFault { .. } => EventClass::NodeHeartbeatFault,
                ControllerDetail::NodeVoltageFault { .. } => EventClass::NodeVoltageFault,
                ControllerDetail::BcHeartbeatFault => EventClass::BcHeartbeatFault,
                ControllerDetail::EcbFault { .. } => EventClass::EcbFault,
                ControllerDetail::SensorReadFailed { .. } => EventClass::SensorReadFailed,
                ControllerDetail::CabinetPowerFault => EventClass::CabinetPowerFault,
                ControllerDetail::MicroControllerFault => EventClass::MicroControllerFault,
                ControllerDetail::CommunicationFault => EventClass::CommunicationFault,
                ControllerDetail::ModuleHealthFault => EventClass::ModuleHealthFault,
                ControllerDetail::RpmFault { .. } => EventClass::RpmFault,
                ControllerDetail::L0SysdMce { .. } => EventClass::L0SysdMce,
                ControllerDetail::NodePowerOff { .. } => EventClass::NodePowerOff,
            },
            Payload::Erd { detail, .. } => match detail {
                ErdDetail::SedcWarning { .. } => EventClass::SedcWarning,
                ErdDetail::SedcReading { .. } => EventClass::SedcReading,
                ErdDetail::HwError { .. } => EventClass::HwError,
                ErdDetail::HeartbeatStop => EventClass::HeartbeatStop,
                ErdDetail::L0Failed => EventClass::L0Failed,
                ErdDetail::LinkError { .. } => EventClass::LinkError,
                ErdDetail::Environment { .. } => EventClass::Environment,
                ErdDetail::CabinetSensorCheck { .. } => EventClass::CabinetSensorCheck,
                ErdDetail::NodeFailed { .. } => EventClass::NodeFailed,
            },
            Payload::Scheduler { detail } => match detail {
                SchedulerDetail::JobStart { .. } => EventClass::JobStart,
                SchedulerDetail::JobEnd { .. } => EventClass::JobEnd,
                SchedulerDetail::NhcResult { .. } => EventClass::NhcResult,
                SchedulerDetail::NodeStateChange { .. } => EventClass::NodeStateChange,
                SchedulerDetail::EpilogueCleanup { .. } => EventClass::EpilogueCleanup,
                SchedulerDetail::MemOverallocation { .. } => EventClass::MemOverallocation,
            },
        }
    }
}

/// A time-sorted posting list: parallel columns of timestamps and values.
///
/// The time column answers half-open `[from, to)` range queries by binary
/// search (`range`); the [`VecDeque`] backing additionally supports O(1)
/// front eviction (`evict_before`), which is what lets the batch
/// [`EventStore`] and the streaming sliding window share one type. `push`
/// requires non-decreasing times (events arrive merged, or in release order
/// on a stream).
#[derive(Debug, Clone)]
pub struct Postings<V> {
    times: VecDeque<SimTime>,
    values: VecDeque<V>,
}

impl<V> Default for Postings<V> {
    fn default() -> Postings<V> {
        Postings::new()
    }
}

impl<V> Postings<V> {
    /// Empty posting list.
    fn new() -> Postings<V> {
        Postings {
            times: VecDeque::new(),
            values: VecDeque::new(),
        }
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Heap bytes the two columns hold, by capacity.
    fn heap_bytes(&self) -> usize {
        self.times.capacity() * size_of::<SimTime>() + self.values.capacity() * size_of::<V>()
    }

    /// Appends a posting. Times must be non-decreasing.
    fn push(&mut self, time: SimTime, value: V) {
        debug_assert!(
            self.times.back().is_none_or(|&t| t <= time),
            "postings must be pushed in time order"
        );
        self.times.push_back(time);
        self.values.push_back(value);
    }

    /// Index bounds of the half-open time range `[from, to)`.
    fn bounds(&self, from: SimTime, to: SimTime) -> (usize, usize) {
        let lo = self.times.partition_point(|&t| t < from);
        let hi = self.times.partition_point(|&t| t < to);
        (lo, hi.max(lo))
    }

    /// Values posted within `[from, to)`, in time order.
    fn range(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &V> {
        let (lo, hi) = self.bounds(from, to);
        self.values.range(lo..hi)
    }

    /// Number of postings within `[from, to)` — O(log n).
    fn range_len(&self, from: SimTime, to: SimTime) -> usize {
        let (lo, hi) = self.bounds(from, to);
        hi - lo
    }

    /// Whether any posting falls within `[from, to)` — O(log n).
    fn any_in(&self, from: SimTime, to: SimTime) -> bool {
        self.range_len(from, to) > 0
    }

    /// All values, in time order.
    fn values(&self) -> impl Iterator<Item = &V> {
        self.values.iter()
    }

    /// Pops postings strictly older than `cutoff` off the front, returning
    /// how many were dropped.
    fn evict_before(&mut self, cutoff: SimTime) -> usize {
        let mut dropped = 0;
        while self.times.front().is_some_and(|&t| t < cutoff) {
            self.times.pop_front();
            self.values.pop_front();
            dropped += 1;
        }
        dropped
    }
}

/// Per-entity posting lists: one [`Postings`] per key, plus the cross-key
/// queries both the batch pipeline (`faulty_blades_between`) and the
/// streaming window (hotness via [`EntityIndex::iter`], eviction via
/// [`EntityIndex::evict_before`]) need.
#[derive(Debug, Clone)]
pub struct EntityIndex<K, V = u32> {
    map: HashMap<K, Postings<V>>,
}

impl<K, V> Default for EntityIndex<K, V> {
    fn default() -> EntityIndex<K, V> {
        EntityIndex {
            map: HashMap::new(),
        }
    }
}

impl<K: Eq + Hash + Copy, V> EntityIndex<K, V> {
    /// Empty index.
    pub fn new() -> EntityIndex<K, V> {
        EntityIndex {
            map: HashMap::new(),
        }
    }

    /// Number of keys with at least one posting.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no key has postings.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Appends a posting under `key`. Times must be non-decreasing per key.
    pub fn push(&mut self, key: K, time: SimTime, value: V) {
        self.map.entry(key).or_default().push(time, value);
    }

    /// Heap bytes the index holds, by capacity: the table's slots plus
    /// every posting list's columns.
    fn heap_bytes(&self) -> usize {
        self.map.capacity() * size_of::<(K, Postings<V>)>()
            + self.map.values().map(Postings::heap_bytes).sum::<usize>()
    }

    /// The posting list of `key`, if any.
    fn get(&self, key: &K) -> Option<&Postings<V>> {
        self.map.get(key)
    }

    /// Values posted under `key` within `[from, to)` (empty for unknown
    /// keys).
    pub fn range(&self, key: &K, from: SimTime, to: SimTime) -> impl Iterator<Item = &V> {
        self.map
            .get(key)
            .into_iter()
            .flat_map(move |p| p.range(from, to))
    }

    /// All `(key, postings)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &Postings<V>)> {
        self.map.iter()
    }

    /// Keys with at least one posting in `[from, to)`, sorted — behind
    /// `faulty_blades_between`.
    fn active_between(&self, from: SimTime, to: SimTime) -> Vec<K>
    where
        K: Ord,
    {
        let mut out: Vec<K> = self
            .map
            .iter()
            .filter(|(_, p)| p.any_in(from, to))
            .map(|(k, _)| *k)
            .collect();
        out.sort_unstable();
        out
    }

    /// Evicts postings strictly older than `cutoff` from every key,
    /// dropping keys that become empty. Returns how many postings were
    /// dropped.
    pub fn evict_before(&mut self, cutoff: SimTime) -> usize {
        let mut dropped = 0;
        self.map.retain(|_, p| {
            dropped += p.evict_before(cutoff);
            !p.is_empty()
        });
        dropped
    }
}

/// The indexed, owned view of one observation window's merged events.
///
/// Built once per diagnosis in a single pass over the chronological events
/// (plus the already-detected failures); every analysis then answers its
/// question through indexed range queries instead of scanning
/// `events`. See the module docs for the index layout.
#[derive(Debug, Clone)]
pub struct EventStore {
    events: Vec<LogEvent>,
    /// One posting list per `EventClass`, indexed by `class as usize`.
    /// Values are dense `u32` positions into `events`; position order is
    /// chronological because `events` is globally time-sorted.
    by_class: Vec<Postings<u32>>,
    by_node: EntityIndex<NodeId>,
    blade_external: EntityIndex<BladeId>,
    cabinet_external: EntityIndex<CabinetId>,
    /// Sorted failure times per node (failures arrive chronological).
    node_failures: HashMap<NodeId, Vec<SimTime>>,
    queries: Arc<Counter>,
    indexed: Arc<Counter>,
    scanned: Arc<Counter>,
}

impl EventStore {
    /// Builds every index in one pass over `events` (which must be
    /// chronological, as produced by the merge) and one pass over
    /// `failures`. Recorded under the `core.store.index` span; the event
    /// count lands in the `core.store.events` gauge.
    ///
    /// # Panics
    ///
    /// If there are more than `u32::MAX` events — the posting lists store
    /// dense `u32` positions, and truncating would silently point them at
    /// the wrong events. Split the observation window instead.
    pub fn build(events: Vec<LogEvent>, failures: &[DetectedFailure]) -> EventStore {
        let mut store = EventStore::index(events);
        store.attach_failures(failures);
        store
    }

    /// The event half of [`EventStore::build`]: every event index, no
    /// failure index yet — so the pipeline can detect failures *through* the
    /// class index and hand them to [`EventStore::attach_failures`] after.
    /// Besides `core.store.events`, sets the memory-ledger gauges
    /// `core.store.events_bytes` (the event array itself) and
    /// `core.store.index_bytes` (heap the four event indexes hold, by
    /// capacity).
    pub(crate) fn index(events: Vec<LogEvent>) -> EventStore {
        let _span = hpc_telemetry::span!("core.store.index");
        let mut by_class: Vec<Postings<u32>> =
            (0..EventClass::COUNT).map(|_| Postings::new()).collect();
        let mut by_node = EntityIndex::new();
        let mut blade_external = EntityIndex::new();
        let mut cabinet_external = EntityIndex::new();
        for (i, event) in events.iter().enumerate() {
            let i = u32::try_from(i).unwrap_or_else(|_| {
                panic!("event {i} exceeds the u32 capacity of the dense event indexes; split the observation window")
            });
            by_class[EventClass::of(&event.payload) as usize].push(event.time, i);
            if let Some(node) = event.subject_node() {
                by_node.push(node, event.time, i);
            }
            match &event.payload {
                Payload::Controller { scope, .. } | Payload::Erd { scope, .. } => {
                    // Blade-scoped events index under their blade;
                    // cabinet-scoped (CC) events under their cabinet. Blade
                    // events do NOT roll up: the paper treats BC and CC
                    // health separately ("blade and cabinet-specific health
                    // faults"), and rolling up would mark every cabinet
                    // faulty on a miniature machine.
                    match scope {
                        ControllerScope::Blade(_) => {
                            if let Some(blade) = event.subject_blade() {
                                blade_external.push(blade, event.time, i);
                            }
                        }
                        ControllerScope::Cabinet(c) => {
                            cabinet_external.push(*c, event.time, i);
                        }
                    }
                }
                _ => {}
            }
        }
        hpc_telemetry::gauge("core.store.events").set(events.len() as f64);
        hpc_telemetry::gauge("core.store.events_bytes")
            .set((events.len() * size_of::<LogEvent>()) as f64);
        let index_bytes = by_class.iter().map(Postings::heap_bytes).sum::<usize>()
            + by_node.heap_bytes()
            + blade_external.heap_bytes()
            + cabinet_external.heap_bytes();
        hpc_telemetry::gauge("core.store.index_bytes").set(index_bytes as f64);
        EventStore {
            events,
            by_class,
            by_node,
            blade_external,
            cabinet_external,
            node_failures: HashMap::new(),
            queries: hpc_telemetry::counter("core.store.queries"),
            indexed: hpc_telemetry::counter("core.store.events.indexed"),
            scanned: hpc_telemetry::counter("core.store.events.scanned"),
        }
    }

    /// Replaces the per-node failure-time index with one over `failures`.
    pub(crate) fn attach_failures(&mut self, failures: &[DetectedFailure]) {
        self.node_failures.clear();
        for f in failures {
            self.node_failures.entry(f.node).or_default().push(f.time);
        }
        // Failures are chronological overall, hence per node; keep the
        // invariant explicit in case a caller hands unsorted ones.
        for times in self.node_failures.values_mut() {
            times.sort_unstable();
        }
    }

    /// Machine size as far as the logs show it: one past the highest node
    /// id any event names (1 for none).
    pub(crate) fn node_count_estimate(&self) -> u32 {
        let past_highest = self.by_node.iter().map(|(node, _)| node.0 + 1).max();
        past_highest.unwrap_or(1)
    }

    /// Accounts one indexed query that touched `touched` postings where a
    /// naive implementation would have scanned the full event sequence.
    fn account(&self, touched: usize) {
        self.queries.inc();
        self.indexed.add(touched as u64);
        self.scanned.add(self.events.len() as u64);
    }

    /// All events, chronologically merged across sources.
    pub fn events(&self) -> &[LogEvent] {
        &self.events
    }

    /// First and last event times (epoch..epoch for an empty window).
    pub fn window(&self) -> (SimTime, SimTime) {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => (a.time, b.time),
            _ => (SimTime::EPOCH, SimTime::EPOCH),
        }
    }

    fn resolve<'a>(
        &'a self,
        positions: impl Iterator<Item = &'a u32> + 'a,
    ) -> impl Iterator<Item = &'a LogEvent> {
        positions.map(move |&i| &self.events[i as usize])
    }

    /// All events of `class`, chronological.
    pub fn class_events(&self, class: EventClass) -> impl Iterator<Item = &LogEvent> {
        let postings = &self.by_class[class as usize];
        self.account(postings.len());
        self.resolve(postings.values())
    }

    /// Events of `class` within `[from, to)`, chronological.
    pub fn class_events_between(
        &self,
        class: EventClass,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &LogEvent> {
        let postings = &self.by_class[class as usize];
        self.account(postings.range_len(from, to));
        self.resolve(postings.range(from, to))
    }

    /// All events of any of `classes`, merged back into chronological
    /// order. Because position order is chronological, this sorts dense
    /// positions rather than comparing timestamps, and ties keep the
    /// original merge order.
    pub fn classes_events(&self, classes: &[EventClass]) -> impl Iterator<Item = &LogEvent> {
        let mut positions: Vec<u32> = classes
            .iter()
            .flat_map(|&c| self.by_class[c as usize].values().copied())
            .collect();
        positions.sort_unstable();
        self.account(positions.len());
        positions.into_iter().map(move |i| &self.events[i as usize])
    }

    /// All events of any of `classes` within `[from, to)`, merged back
    /// into chronological order (same position-sort trick as
    /// [`EventStore::classes_events`]).
    pub fn classes_events_between(
        &self,
        classes: &[EventClass],
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &LogEvent> {
        let mut positions: Vec<u32> = classes
            .iter()
            .flat_map(|&c| self.by_class[c as usize].range(from, to).copied())
            .collect();
        positions.sort_unstable();
        // A class listed twice must not yield its events twice.
        positions.dedup();
        self.account(positions.len());
        positions.into_iter().map(move |i| &self.events[i as usize])
    }

    /// The contiguous slice of all events within `[from, to)`, by binary
    /// search on the globally time-sorted event sequence.
    pub fn events_between(&self, from: SimTime, to: SimTime) -> &[LogEvent] {
        let lo = self.events.partition_point(|e| e.time < from);
        let hi = self.events.partition_point(|e| e.time < to);
        let hi = hi.max(lo);
        self.account(hi - lo);
        &self.events[lo..hi]
    }

    /// Events about `node` within `[from, to)`.
    pub fn node_events_between(
        &self,
        node: NodeId,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &LogEvent> {
        let touched = self.by_node.get(&node).map_or(0, |p| p.range_len(from, to));
        self.account(touched);
        self.resolve(self.by_node.range(&node, from, to))
    }

    /// External (controller/ERD) events attributed to `blade` within
    /// `[from, to)`.
    pub fn blade_external_between(
        &self,
        blade: BladeId,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &LogEvent> {
        let touched = self
            .blade_external
            .get(&blade)
            .map_or(0, |p| p.range_len(from, to));
        self.account(touched);
        self.resolve(self.blade_external.range(&blade, from, to))
    }

    /// External events attributed to `cabinet` within `[from, to)`.
    pub fn cabinet_external_between(
        &self,
        cabinet: CabinetId,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &LogEvent> {
        let touched = self
            .cabinet_external
            .get(&cabinet)
            .map_or(0, |p| p.range_len(from, to));
        self.account(touched);
        self.resolve(self.cabinet_external.range(&cabinet, from, to))
    }

    /// Blades that logged any external fault/warning in `[from, to)`,
    /// sorted.
    pub fn faulty_blades_between(&self, from: SimTime, to: SimTime) -> Vec<BladeId> {
        self.account(0);
        self.blade_external.active_between(from, to)
    }

    /// Sorted failure times of `node` (empty for never-failed nodes).
    fn node_failure_times(&self, node: NodeId) -> &[SimTime] {
        self.node_failures.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Earliest failure of `node` within the *inclusive* range
    /// `[from, to]`, by binary search on the per-node failure-time index.
    pub fn first_failure_in(&self, node: NodeId, from: SimTime, to: SimTime) -> Option<SimTime> {
        self.account(0);
        let times = self.node_failure_times(node);
        let lo = times.partition_point(|&t| t < from);
        times.get(lo).copied().filter(|&t| t <= to)
    }

    /// Does `node` fail within `[t − 2 min, t + horizon]` (both ends
    /// inclusive)? The two-minute slack tolerates a failure's terminal
    /// signature landing just before the fault event that announces it —
    /// the fault→failure correspondence notion of Figs. 5/6.
    pub fn fails_within(&self, node: NodeId, t: SimTime, horizon: SimDuration) -> bool {
        self.first_failure_in(
            node,
            t.saturating_sub(SimDuration::from_mins(2)),
            t + horizon,
        )
        .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::TerminalKind;
    use hpc_logs::event::ConsoleDetail;

    fn ev(ms: u64, node: u32, detail: ConsoleDetail) -> LogEvent {
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Console {
                node: NodeId(node),
                detail,
            },
        }
    }

    fn nvf(ms: u64, node: u32) -> LogEvent {
        let node = NodeId(node);
        LogEvent {
            time: SimTime::from_millis(ms),
            payload: Payload::Controller {
                scope: ControllerScope::Blade(node.blade()),
                detail: ControllerDetail::NodeVoltageFault { node },
            },
        }
    }

    /// The only source of the machine size the SWO threshold scales with.
    #[test]
    fn node_count_estimate_is_one_past_the_highest_named_node() {
        let job_end = LogEvent {
            time: SimTime::from_millis(5),
            payload: Payload::Scheduler {
                detail: hpc_logs::event::SchedulerDetail::JobEnd {
                    job: hpc_logs::event::JobId(1),
                    exit_code: 0,
                    reason: hpc_logs::event::JobEndReason::Completed,
                },
            },
        };
        assert_eq!(EventStore::index(Vec::new()).node_count_estimate(), 1);
        assert_eq!(
            EventStore::index(vec![job_end.clone()]).node_count_estimate(),
            1
        );
        let named = vec![
            ev(10, 7, ConsoleDetail::CpuStall { cpu: 0 }),
            nvf(20, 41),
            job_end,
            ev(30, 3, ConsoleDetail::CpuStall { cpu: 0 }),
        ];
        assert_eq!(EventStore::index(named).node_count_estimate(), 42);
    }

    /// The segment planner drops whole segments on this table, so it must
    /// say exactly what the per-event accessor says, for an event of every
    /// class.
    #[test]
    fn class_subject_table_matches_the_event_accessor() {
        let events = crate::segment::codec::one_of_every_class();
        let mut seen = Vec::new();
        for e in &events {
            let class = EventClass::of(&e.payload);
            seen.push(class);
            assert_eq!(
                class.carries_subject_node(),
                e.subject_node().is_some(),
                "{class:?}"
            );
        }
        assert_eq!(seen, EventClass::ALL, "one event of every class");
    }

    fn failure(ms: u64, node: u32) -> DetectedFailure {
        DetectedFailure {
            node: NodeId(node),
            time: SimTime::from_millis(ms),
            terminal: TerminalKind::SchedulerDown,
        }
    }

    #[test]
    fn postings_range_is_half_open() {
        let mut p = Postings::new();
        for ms in [10u64, 20, 20, 30] {
            p.push(SimTime::from_millis(ms), ms);
        }
        let got: Vec<u64> = p
            .range(SimTime::from_millis(20), SimTime::from_millis(30))
            .copied()
            .collect();
        assert_eq!(got, [20, 20]);
        assert_eq!(
            p.range_len(SimTime::from_millis(0), SimTime::from_millis(31)),
            4
        );
        assert!(p.any_in(SimTime::from_millis(30), SimTime::from_millis(31)));
        assert!(!p.any_in(SimTime::from_millis(31), SimTime::from_millis(100)));
        // Inverted range is empty, not a panic.
        assert_eq!(
            p.range_len(SimTime::from_millis(30), SimTime::from_millis(10)),
            0
        );
    }

    #[test]
    fn postings_evict_keeps_cutoff() {
        let mut p = Postings::new();
        for ms in [10u64, 20, 30] {
            p.push(SimTime::from_millis(ms), ms);
        }
        // Eviction is strict: postings exactly at the cutoff survive.
        assert_eq!(p.evict_before(SimTime::from_millis(20)), 1);
        assert_eq!(p.len(), 2);
        assert_eq!(p.values().next(), Some(&20));
    }

    #[test]
    fn entity_index_active_between_is_sorted_and_windowed() {
        let mut idx: EntityIndex<BladeId, u32> = EntityIndex::new();
        idx.push(BladeId(3), SimTime::from_millis(100), 0);
        idx.push(BladeId(1), SimTime::from_millis(200), 1);
        idx.push(BladeId(2), SimTime::from_millis(999), 2);
        assert_eq!(
            idx.active_between(SimTime::from_millis(0), SimTime::from_millis(300)),
            [BladeId(1), BladeId(3)]
        );
        assert_eq!(idx.evict_before(SimTime::from_millis(201)), 2);
        assert_eq!(idx.len(), 1);
        assert!(idx.get(&BladeId(1)).is_none());
    }

    #[test]
    fn class_index_partitions_all_events() {
        let events = vec![
            ev(10, 1, ConsoleDetail::CpuStall { cpu: 0 }),
            nvf(20, 1),
            ev(30, 2, ConsoleDetail::GracefulShutdown),
            nvf(40, 5),
        ];
        let s = EventStore::build(events, &[]);
        let count = |c| s.class_events(c).count();
        let total: usize = EventClass::ALL.into_iter().map(count).sum();
        assert_eq!(total, s.events().len());
        assert_eq!(count(EventClass::NodeVoltageFault), 2);
        assert_eq!(count(EventClass::GracefulShutdown), 1);
        // Multi-class merge is chronological.
        let merged: Vec<u64> = s
            .classes_events(&[EventClass::NodeVoltageFault, EventClass::CpuStall])
            .map(|e| e.time.as_millis())
            .collect();
        assert_eq!(merged, [10, 20, 40]);
        // Ranged class query is half-open.
        let ranged: Vec<u64> = s
            .class_events_between(
                EventClass::NodeVoltageFault,
                SimTime::from_millis(20),
                SimTime::from_millis(40),
            )
            .map(|e| e.time.as_millis())
            .collect();
        assert_eq!(ranged, [20]);
    }

    /// Pins the fault→failure correspondence boundary semantics: a failure
    /// counts if it lands in `[t − 2 min, t + horizon]`, both ends
    /// inclusive.
    #[test]
    fn fails_within_boundaries_are_inclusive() {
        let two_min = SimDuration::from_mins(2);
        let horizon = SimDuration::from_hours(6);
        // Far enough in that `f − horizon − 1 ms` does not saturate to 0.
        let f_ms = 100_000_000u64;
        let s = EventStore::build(Vec::new(), &[failure(f_ms, 7)]);
        let f = SimTime::from_millis(f_ms);
        let node = NodeId(7);
        // Fault exactly two minutes *after* the failure: still corresponds
        // (the −2 min slack, inclusive).
        assert!(s.fails_within(node, f + two_min, horizon));
        // One millisecond later: out.
        assert!(!s.fails_within(node, f + two_min + SimDuration::from_millis(1), horizon));
        // Fault exactly `horizon` before the failure: corresponds
        // (inclusive upper bound).
        assert!(s.fails_within(node, f.saturating_sub(horizon), horizon));
        // One millisecond earlier: out.
        assert!(!s.fails_within(
            node,
            f.saturating_sub(horizon + SimDuration::from_millis(1)),
            horizon
        ));
        // Other nodes never correspond.
        assert!(!s.fails_within(NodeId(8), f, horizon));
    }

    #[test]
    fn first_failure_in_picks_earliest_in_range() {
        let s = EventStore::build(Vec::new(), &[failure(1_000, 3), failure(5_000, 3)]);
        let node = NodeId(3);
        assert_eq!(
            s.first_failure_in(node, SimTime::from_millis(0), SimTime::from_millis(9_000)),
            Some(SimTime::from_millis(1_000))
        );
        assert_eq!(
            s.first_failure_in(
                node,
                SimTime::from_millis(1_001),
                SimTime::from_millis(9_000)
            ),
            Some(SimTime::from_millis(5_000))
        );
        assert_eq!(
            s.first_failure_in(
                node,
                SimTime::from_millis(1_001),
                SimTime::from_millis(4_999)
            ),
            None
        );
        assert_eq!(
            s.node_failure_times(node),
            [SimTime::from_millis(1_000), SimTime::from_millis(5_000)]
        );
        assert!(s.node_failure_times(NodeId(4)).is_empty());
    }

    #[test]
    fn store_queries_are_counted() {
        hpc_telemetry::reset();
        let s = EventStore::build(vec![nvf(20, 1)], &[]);
        let _ = s.class_events(EventClass::NodeVoltageFault).count();
        let snap = hpc_telemetry::snapshot();
        assert_eq!(snap.counter("core.store.queries"), Some(1));
        assert_eq!(snap.counter("core.store.events.indexed"), Some(1));
        assert_eq!(snap.counter("core.store.events.scanned"), Some(1));
    }
}
