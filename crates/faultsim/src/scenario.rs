//! Scenario orchestration: one simulated observation window end-to-end.
//!
//! A [`Scenario`] fixes a system flavour, a (usually miniature) topology, a
//! time horizon, a seed, and the rate/probability knobs of
//! [`ScenarioConfig`]. [`Scenario::run`] then:
//!
//! 1. generates the job workload (`hpc-sched`),
//! 2. interleaves all incident and noise families chronologically through
//!    the discrete-event queue, instantiating failure chains against
//!    eligible nodes (and active jobs, for application families),
//! 3. truncates jobs running on failed nodes (`node_fail` ends),
//! 4. renders everything — fault chains, noise, telemetry and the final
//!    scheduler stream — into a text [`LogArchive`],
//!
//! returning the archive together with the [`GroundTruth`] that tests use
//! to validate the diagnosis pipeline. Rates are tuned per system (the
//! presets [`Scenario::new`] applies) to land in the paper's reported
//! bands; EXPERIMENTS.md records the calibration.

use std::ops::{Index, IndexMut};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hpc_logs::archive::LogArchive;
use hpc_logs::event::{AppKind, LogEvent};
use hpc_logs::time::{SimDuration, SimTime, MILLIS_PER_DAY};
use hpc_platform::rng::{chance, exp_sample, sample_subset};
use hpc_platform::{BladeId, NodeId, SystemId, Topology};
use hpc_sched::events::scheduler_events;
use hpc_sched::workload::{generate_workload, WorkloadConfig};
use hpc_sched::JobTimeline;

use crate::engine::EventQueue;
use crate::fault::{FailureRecord, GroundTruth};
use crate::incidents::{self, Incident};
use crate::noise;

/// Rate and probability knobs of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Mean occurrences per simulated day, machine-wide, of each family.
    pub rates: Rates,

    /// Nodes per application burst (inclusive range, clamped to job size).
    pub app_burst_nodes: (u32, u32),
    /// Intra-burst spread of terminal times, minutes.
    pub app_burst_window_mins: f64,
    /// Cluster size of single-node hardware/software families (a bad DIMM
    /// batch or shared kernel bug hits 1–N nodes the same day) — drives
    /// Fig. 4's dominant-cause share.
    pub hw_cluster_nodes: (u32, u32),
    /// Intra-cluster spread, minutes.
    pub hw_cluster_window_mins: f64,

    /// Number of "chatty" blades with recurring daily warnings (Fig. 9).
    pub chatty_blades: u32,

    /// Per-node failure probability range of an overallocated job's nodes
    /// when they do not all fail (J1 had 1 failure in 600 overallocated
    /// nodes; J16 had 6 in 683).
    pub overalloc_node_fail_prob: (f64, f64),

    /// Temperature telemetry: number of blades sampled (0 = off) and the
    /// node (if any) that reads 0 °C because it is powered off (Fig. 11).
    pub telemetry_blades: u32,
    /// Telemetry sampling interval, minutes.
    pub telemetry_interval_mins: u64,
    /// Powered-off nodes that read 0 °C in telemetry.
    pub telemetry_off_nodes: Vec<NodeId>,
}

/// Per-hour warning rate range of a chatty blade.
const CHATTY_RATE_PER_HOUR: (f64, f64) = (20.0, 80.0);

/// Probability that *all* of a job's overallocated nodes fail (jobs J5, J8
/// of Fig. 17).
const OVERALLOC_ALL_FAIL_PROB: f64 = 0.2;

/// Failed nodes stay unschedulable/ineligible for this many hours
/// (uniform range).
pub const RECOVERY_HOURS: (f64, f64) = (2.0, 6.0);

impl Default for ScenarioConfig {
    /// Baseline production-Cray mix, tuned so that the *diagnosed* class
    /// shares land near the paper's S3 text figures (HW 37% / SW 32% / App
    /// 31%) with 4–8 failures/day and heavy benign noise. System-wide
    /// outages and S5's hung-task, GPU and disk noise stay off.
    fn default() -> ScenarioConfig {
        use Family::*;
        ScenarioConfig {
            rates: Rates::SILENT.with(&[
                (FatalMce, 0.60),
                (CpuCorruption, 0.22),
                (MemFailSlow, 0.30),
                (Nvf, 0.12),
                (LinkFailure, 0.08),
                (LustreBug, 0.85),
                (KernelBug, 0.45),
                (DriverFirmware, 0.45),
                (AppOom, 0.28),
                (AppExit, 0.34),
                (AppFs, 0.26),
                (UnknownBios, 0.05),
                (UnknownL0, 0.05),
                (Operator, 0.05),
                (BladeFailure, 0.10),
                (BenignNhf, 2.5),
                (BenignNvf, 0.025),
                (BenignHwExternal, 4.5),
                (BenignHw, 22.0),
                (LustreNoise, 34.0),
                (SedcBlade, 26.0),
                (CabinetBurst, 6.0),
                (LinkNoise, 10.0),
                (BenignBios, 1.5),
                (Graceful, 0.4),
                (SoftwareNoise, 1.0),
                (OomNoise, 0.8),
            ]),
            app_burst_nodes: (2, 5),
            app_burst_window_mins: 4.0,
            hw_cluster_nodes: (1, 3),
            hw_cluster_window_mins: 12.0,
            chatty_blades: 0,
            overalloc_node_fail_prob: (0.002, 0.25),
            telemetry_blades: 0,
            telemetry_interval_mins: 15,
            telemetry_off_nodes: Vec::new(),
        }
    }
}

impl ScenarioConfig {
    /// Per-system presets (Table I systems). S2 skews towards app-exits and
    /// FS bugs (Fig. 16); S5 is the institutional cluster dominated by
    /// hung-task noise with no environmental logs (Fig. 15).
    fn for_system(system: SystemId) -> ScenarioConfig {
        use Family::*;
        let base = ScenarioConfig::default();
        match system {
            SystemId::S1 => base,
            SystemId::S2 => ScenarioConfig {
                // Fig. 16 mix: app-exit 37.5%, FS bugs 26.78%, memory
                // 16.07%, kernel 7.14%, others 12.5%. Effective burst size
                // with size-weighted job selection is ≈3 nodes.
                rates: base.rates.with(&[
                    (FatalMce, 0.03),
                    (CpuCorruption, 0.01),
                    (MemFailSlow, 0.02),
                    (Nvf, 0.02),
                    (LustreBug, 0.11),
                    (KernelBug, 0.12),
                    (DriverFirmware, 0.05),
                    (AppOom, 0.15),
                    (AppExit, 0.42),
                    (AppFs, 0.18),
                    (UnknownBios, 0.015),
                    (UnknownL0, 0.015),
                    (Operator, 0.015),
                    (BladeFailure, 0.01),
                    (BenignNhf, 0.5),
                ]),
                chatty_blades: 10,
                ..base
            },
            SystemId::S3 => ScenarioConfig {
                // §III-F text: HW 37% / SW 32% / App 31%, with memory
                // exhaustion in 27% of failures. OOM bursts dominate the
                // application share accordingly.
                rates: base.rates.with(&[
                    (FatalMce, 0.90),
                    (CpuCorruption, 0.30),
                    (MemFailSlow, 0.45),
                    (Nvf, 0.12),
                    (LustreBug, 0.60),
                    (KernelBug, 0.45),
                    (DriverFirmware, 0.45),
                    (AppOom, 1.00),
                    (AppExit, 0.12),
                    (AppFs, 0.12),
                ]),
                app_burst_nodes: (2, 6),
                ..base
            },
            SystemId::S4 => ScenarioConfig {
                rates: base
                    .rates
                    .with(&[(FatalMce, 0.5), (LustreBug, 0.7), (AppExit, 0.3)]),
                ..base
            },
            SystemId::S5 => ScenarioConfig {
                // No environmental logs; local FS; hung tasks dominate.
                rates: base.rates.with(&[
                    (FatalMce, 0.03),
                    (CpuCorruption, 0.0),
                    (MemFailSlow, 0.0),
                    (Nvf, 0.0),
                    (LinkFailure, 0.0),
                    (LustreBug, 0.05),
                    (KernelBug, 0.05),
                    (DriverFirmware, 0.03),
                    (AppOom, 0.10),
                    (AppExit, 0.12),
                    (AppFs, 0.05),
                    (UnknownBios, 0.0),
                    (UnknownL0, 0.0),
                    (Operator, 0.03),
                    (BladeFailure, 0.0),
                    (BenignNhf, 0.0),
                    (BenignHwExternal, 0.0),
                    (BenignHw, 1.5),
                    (LustreNoise, 2.2),
                    (SedcBlade, 0.0),
                    (CabinetBurst, 0.0),
                    (LinkNoise, 0.0),
                    (BenignBios, 0.0),
                    (HungTask, 28.0),
                    (GpuNoise, 0.35),
                    (DiskNoise, 0.35),
                    (SoftwareNoise, 1.0),
                    (OomNoise, 2.4),
                ]),
                ..base
            },
        }
    }
}

/// One runnable scenario.
///
/// ```
/// use hpc_faultsim::Scenario;
/// use hpc_platform::SystemId;
///
/// // One simulated day on a single cabinet, fixed seed.
/// let out = Scenario::new(SystemId::S1, 1, 1, 7).run();
/// assert!(out.archive.total_lines() > 0);
/// // Same seed, same logs.
/// let again = Scenario::new(SystemId::S1, 1, 1, 7).run();
/// assert_eq!(out.archive.total_lines(), again.archive.total_lines());
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// System flavour (scheduler, interconnect, noise profile).
    pub system: SystemId,
    /// Topology (usually [`Topology::miniature`]).
    pub topology: Topology,
    /// Observation window length.
    pub horizon: SimDuration,
    /// RNG seed — same seed, same logs.
    pub seed: u64,
    /// Rate/probability knobs.
    pub config: ScenarioConfig,
    /// Workload knobs.
    pub workload: WorkloadConfig,
}

impl Scenario {
    /// Standard scenario: `cabinets` cabinets of `system`, `days` days,
    /// per-system preset rates.
    pub fn new(system: SystemId, cabinets: u32, days: u64, seed: u64) -> Scenario {
        Scenario {
            system,
            topology: Topology::miniature(system, cabinets),
            horizon: SimDuration::from_days(days),
            seed,
            config: ScenarioConfig::for_system(system),
            workload: WorkloadConfig::default(),
        }
    }

    /// Runs the scenario to completion.
    pub fn run(&self) -> SimOutput {
        let span = hpc_telemetry::span!("faultsim.run");
        let out = Runner::new(self).run();
        let wall_us = span.finish();
        let days = (self.horizon.as_millis() as f64 / MILLIS_PER_DAY as f64).max(1e-9);
        hpc_telemetry::gauge("faultsim.wall_us_per_sim_day").set(wall_us as f64 / days);
        out
    }
}

/// Everything a scenario produces.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The rendered text logs — the *only* thing the diagnosis pipeline
    /// sees.
    pub archive: LogArchive,
    /// Injected ground truth, for validation.
    pub truth: GroundTruth,
    /// Final (post-amendment) job history.
    pub timeline: JobTimeline,
    /// The topology the scenario ran on.
    pub topology: Topology,
}

/// The incident and noise families interleaved through the event queue.
/// Each fires at its [`Rates`] entry, a mean count per simulated day,
/// machine-wide; a family at rate 0 never fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    // ---- failure incident families ----
    /// Fatal MCE incidents.
    FatalMce,
    /// CPU corruption incidents.
    CpuCorruption,
    /// Fail-slow memory incidents (always with external indicators).
    MemFailSlow,
    /// Node-voltage-fault incidents.
    Nvf,
    /// Interconnect link failures with failed failovers (ref. \[22\]): node
    /// unreachable, scheduler-down terminal only.
    LinkFailure,
    /// System Lustre-bug incidents.
    LustreBug,
    /// Kernel-bug incidents.
    KernelBug,
    /// Driver/firmware incidents.
    DriverFirmware,
    /// Application OOM bursts (each kills several nodes of one job).
    AppOom,
    /// Abnormal-app-exit bursts.
    AppExit,
    /// Application-triggered FS-bug bursts.
    AppFs,
    /// Unknown-cause BIOS-pattern failures.
    UnknownBios,
    /// Unknown-cause `L0_sysd_mce` failures.
    UnknownL0,
    /// Operator-error shutdowns.
    Operator,
    /// Whole-blade hardware failures (all four nodes, same cause — the
    /// Fig. 18 population).
    BladeFailure,
    /// System-wide outages (<3% of anomalous failures in the paper;
    /// disabled by default — specific scenarios enable it).
    Swo,

    // ---- benign noise families ----
    /// Benign NHFs (power-off / skipped heartbeat).
    BenignNhf,
    /// Benign NVFs: transient voltage glitches that do not fail the node
    /// (keeps Fig. 5's NVF correspondence below 100%).
    BenignNvf,
    /// Benign `ec_hw_error`s during healthy times (§III-D) — external
    /// indicators that do NOT precede failures, keeping the
    /// external-correlation false-positive rate realistic (Fig. 14).
    BenignHwExternal,
    /// Nodes receiving correctable-error noise.
    BenignHw,
    /// Nodes receiving Lustre I/O noise.
    LustreNoise,
    /// Blade SEDC warning bursts.
    SedcBlade,
    /// Cabinet fault/warning bursts.
    CabinetBurst,
    /// Link-error chatter bursts.
    LinkNoise,
    /// Benign BIOS-pattern events.
    BenignBios,
    /// Intended (excluded) shutdowns.
    Graceful,
    /// Hung-task reports (S5's pathology; 0 on Cray systems).
    HungTask,
    /// GPU-error noise (S5).
    GpuNoise,
    /// Disk-error noise (S5).
    DiskNoise,
    /// Software-error noise (segfault/page-alloc).
    SoftwareNoise,
    /// Non-failing OOM episodes.
    OomNoise,
}

impl Family {
    /// Every family, in declaration order: the order the event queue is
    /// seeded in, so reordering it changes every simulated byte.
    pub const ALL: [Family; 31] = [
        Family::FatalMce,
        Family::CpuCorruption,
        Family::MemFailSlow,
        Family::Nvf,
        Family::LinkFailure,
        Family::LustreBug,
        Family::KernelBug,
        Family::DriverFirmware,
        Family::AppOom,
        Family::AppExit,
        Family::AppFs,
        Family::UnknownBios,
        Family::UnknownL0,
        Family::Operator,
        Family::BladeFailure,
        Family::Swo,
        Family::BenignNhf,
        Family::BenignNvf,
        Family::BenignHwExternal,
        Family::BenignHw,
        Family::LustreNoise,
        Family::SedcBlade,
        Family::CabinetBurst,
        Family::LinkNoise,
        Family::BenignBios,
        Family::Graceful,
        Family::HungTask,
        Family::GpuNoise,
        Family::DiskNoise,
        Family::SoftwareNoise,
        Family::OomNoise,
    ];

    /// Stable snake_case identifier used in the per-family event counters
    /// (`faultsim.events.<key>`).
    fn key(self) -> &'static str {
        match self {
            Family::FatalMce => "fatal_mce",
            Family::CpuCorruption => "cpu_corruption",
            Family::MemFailSlow => "mem_fail_slow",
            Family::Nvf => "nvf",
            Family::LinkFailure => "link_failure",
            Family::LustreBug => "lustre_bug",
            Family::KernelBug => "kernel_bug",
            Family::DriverFirmware => "driver_firmware",
            Family::AppOom => "app_oom",
            Family::AppExit => "app_exit",
            Family::AppFs => "app_fs",
            Family::UnknownBios => "unknown_bios",
            Family::UnknownL0 => "unknown_l0",
            Family::Operator => "operator",
            Family::BladeFailure => "blade_failure",
            Family::Swo => "swo",
            Family::BenignNhf => "benign_nhf",
            Family::BenignNvf => "benign_nvf",
            Family::BenignHwExternal => "benign_hw_external",
            Family::BenignHw => "benign_hw",
            Family::LustreNoise => "lustre_noise",
            Family::SedcBlade => "sedc_blade",
            Family::CabinetBurst => "cabinet_burst",
            Family::LinkNoise => "link_noise",
            Family::BenignBios => "benign_bios",
            Family::Graceful => "graceful",
            Family::HungTask => "hung_task",
            Family::GpuNoise => "gpu_noise",
            Family::DiskNoise => "disk_noise",
            Family::SoftwareNoise => "software_noise",
            Family::OomNoise => "oom_noise",
        }
    }

    fn is_failure_family(self) -> bool {
        matches!(
            self,
            Family::FatalMce
                | Family::CpuCorruption
                | Family::MemFailSlow
                | Family::Nvf
                | Family::LinkFailure
                | Family::LustreBug
                | Family::KernelBug
                | Family::DriverFirmware
                | Family::AppOom
                | Family::AppExit
                | Family::AppFs
                | Family::UnknownBios
                | Family::UnknownL0
                | Family::Operator
                | Family::BladeFailure
                | Family::Swo
        )
    }
}

/// A mean rate per simulated day for each [`Family`], indexed by family.
///
/// ```
/// use hpc_faultsim::scenario::{Family, Rates};
///
/// let mut rates = Rates::SILENT.with(&[(Family::AppExit, 0.5)]);
/// rates[Family::Swo] = 0.1;
/// assert_eq!((rates[Family::AppExit], rates[Family::Swo]), (0.5, 0.1));
/// assert_eq!(rates[Family::FatalMce], 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates([f64; Family::ALL.len()]);

impl Rates {
    /// Every family at rate 0: nothing fires.
    pub const SILENT: Rates = Rates([0.0; Family::ALL.len()]);

    /// This table with each `(family, rate)` of `overrides` set.
    pub fn with(mut self, overrides: &[(Family, f64)]) -> Rates {
        for &(family, rate) in overrides {
            self[family] = rate;
        }
        self
    }
}

impl Index<Family> for Rates {
    type Output = f64;

    fn index(&self, family: Family) -> &f64 {
        &self.0[family as usize]
    }
}

impl IndexMut<Family> for Rates {
    fn index_mut(&mut self, family: Family) -> &mut f64 {
        &mut self.0[family as usize]
    }
}

/// Failure incidents never start before this margin, so precursor leads
/// never clamp against the epoch.
const FAILURE_MARGIN: SimDuration = SimDuration::from_hours(3);

struct Runner<'a> {
    sc: &'a Scenario,
    rng: StdRng,
    events: Vec<LogEvent>,
    truth: GroundTruth,
    timeline: JobTimeline,
    /// Per-node time until which the node is ineligible for new failures.
    failed_until: Vec<SimTime>,
    /// Events emitted per queue-driven family, flushed to the
    /// `faultsim.events.<family>` counters once at the end of the run (the
    /// per-event path stays free of registry lookups).
    family_events: [u64; Family::ALL.len()],
}

impl<'a> Runner<'a> {
    fn new(sc: &'a Scenario) -> Runner<'a> {
        let mut rng = StdRng::seed_from_u64(sc.seed);
        let timeline = {
            let _span = hpc_telemetry::span!("faultsim.workload");
            generate_workload(&sc.topology, &sc.workload, sc.horizon, &mut rng)
        };
        Runner {
            sc,
            rng,
            events: Vec::new(),
            truth: GroundTruth::default(),
            timeline,
            failed_until: vec![SimTime::EPOCH; sc.topology.node_count() as usize],
            family_events: [0; Family::ALL.len()],
        }
    }

    fn run(mut self) -> SimOutput {
        {
            let _inject = hpc_telemetry::span!("faultsim.inject");
            self.inject_families();
            self.inject_overalloc_ooms();
            self.inject_chatty_blades();
            self.inject_telemetry();
        }
        {
            let _finalize = hpc_telemetry::span!("faultsim.finalize");
            self.amend_jobs();
            self.events.extend(scheduler_events(&self.timeline));
            self.events.sort_by_key(|e| e.time);
            self.truth.failures.sort_by_key(|f| (f.time, f.node));
        }

        let mut archive = LogArchive::new(self.sc.system.profile().scheduler);
        {
            let _render = hpc_telemetry::span!("faultsim.render");
            for e in &self.events {
                archive.append_event(e);
            }
        }
        for (family, count) in Family::ALL.iter().zip(self.family_events) {
            if count > 0 {
                hpc_telemetry::counter(&format!("faultsim.events.{}", family.key())).add(count);
            }
        }
        hpc_telemetry::counter("faultsim.failures_injected").add(self.truth.failures.len() as u64);
        hpc_telemetry::counter("faultsim.rendered_lines").add(archive.total_lines());
        SimOutput {
            archive,
            truth: self.truth,
            timeline: self.timeline,
            topology: self.sc.topology.clone(),
        }
    }

    fn inject_families(&mut self) {
        let horizon_end = SimTime::EPOCH + self.sc.horizon;
        let mut queue: EventQueue<Family> = EventQueue::new();
        for family in Family::ALL {
            let rate = self.sc.config.rates[family];
            if rate <= 0.0 {
                continue;
            }
            let mean_gap = MILLIS_PER_DAY as f64 / rate;
            let offset = if family.is_failure_family() {
                FAILURE_MARGIN
            } else {
                SimDuration::ZERO
            };
            let first = SimTime::EPOCH
                + offset
                + SimDuration::from_millis(exp_sample(&mut self.rng, mean_gap) as u64);
            queue.push(first, family);
        }
        while let Some((t, family)) = queue.pop() {
            if t >= horizon_end {
                continue; // family exhausted; do not reschedule
            }
            self.handle(family, t);
            let mean_gap = MILLIS_PER_DAY as f64 / self.sc.config.rates[family];
            let next = t + SimDuration::from_millis(exp_sample(&mut self.rng, mean_gap) as u64 + 1);
            queue.push(next, family);
        }
    }

    /// Picks a node eligible for a new failure at `t` (not currently in a
    /// failure/recovery window).
    fn pick_failable_node(&mut self, t: SimTime) -> Option<NodeId> {
        let n = self.sc.topology.node_count();
        for _ in 0..16 {
            let node = NodeId(self.rng.gen_range(0..n));
            if self.failed_until[node.index()] <= t {
                return Some(node);
            }
        }
        None
    }

    fn mark_failed(&mut self, node: NodeId, t: SimTime) {
        let (lo, hi) = RECOVERY_HOURS;
        let rec = SimDuration::from_millis((self.rng.gen_range(lo..=hi) * 3_600_000.0) as u64);
        self.failed_until[node.index()] = t + rec;
    }

    fn push_incident(&mut self, incident: Incident) {
        self.mark_failed(incident.record.node, incident.record.time);
        self.truth.failures.push(incident.record);
        self.events.extend(incident.events);
    }

    /// One single-node failure at `t`, if an eligible node is found.
    fn single_node<F>(&mut self, t: SimTime, build: F)
    where
        F: FnOnce(&mut StdRng, NodeId, SimTime) -> Incident,
    {
        if let Some(node) = self.pick_failable_node(t) {
            let incident = build(&mut self.rng, node, t);
            self.push_incident(incident);
        }
    }

    /// A cluster of same-cause single-node failures (bad batch / shared
    /// bug), sized by `hw_cluster_nodes`.
    fn hw_cluster<F>(&mut self, t: SimTime, mut build: F)
    where
        F: FnMut(&mut StdRng, NodeId, SimTime) -> Incident,
    {
        let (lo, hi) = self.sc.config.hw_cluster_nodes;
        let k = self.rng.gen_range(lo..=hi);
        let window_ms = (self.sc.config.hw_cluster_window_mins * 60_000.0) as u64;
        for i in 0..k {
            let ti = if i == 0 {
                t
            } else {
                t + SimDuration::from_millis(self.rng.gen_range(0..window_ms.max(1)))
            };
            if let Some(node) = self.pick_failable_node(ti) {
                let incident = build(&mut self.rng, node, ti);
                self.push_incident(incident);
            }
        }
    }

    /// An application burst: several nodes of one running job fail with the
    /// same app-triggered cause within a short window (Obs. 8's temporal
    /// locality across spatially distant blades).
    fn app_burst<F>(&mut self, t: SimTime, mut build: F)
    where
        F: FnMut(&mut StdRng, NodeId, SimTime, AppKind, hpc_logs::event::JobId) -> Incident,
    {
        // Candidate jobs: active at t with enough runway behind and ahead.
        // Selection is weighted by job size — wide jobs stress many nodes
        // at once, which is exactly how the paper's multi-node app bursts
        // arise (53 failures over 16 jobs in Fig. 17).
        let margin = SimDuration::from_mins(6);
        let candidates: Vec<(hpc_logs::event::JobId, AppKind, Vec<NodeId>, SimTime)> = self
            .timeline
            .active_at(t)
            .filter(|j| j.start + margin <= t && t + margin < j.end)
            .map(|j| (j.id, j.app, j.nodes.clone(), j.end))
            .collect();
        if candidates.is_empty() {
            return;
        }
        let weights: Vec<f64> = candidates
            .iter()
            .map(|(_, _, nodes, _)| (nodes.len().min(12)) as f64)
            .collect();
        let pick = hpc_platform::rng::weighted_index(&mut self.rng, &weights);
        let (job, app, nodes, end) = candidates[pick].clone();
        let (lo, hi) = self.sc.config.app_burst_nodes;
        let k = (self.rng.gen_range(lo..=hi) as usize).min(nodes.len());
        let victims = sample_subset(&mut self.rng, &nodes, k);
        let window_ms = ((self.sc.config.app_burst_window_mins * 60_000.0) as u64)
            .min(end.since(t).as_millis().saturating_sub(60_000))
            .max(1);
        for (i, node) in victims.into_iter().enumerate() {
            if self.failed_until[node.index()] > t {
                continue;
            }
            let ti = t + SimDuration::from_millis(if i == 0 {
                0
            } else {
                self.rng.gen_range(0..window_ms)
            });
            let incident = build(&mut self.rng, node, ti, app, job);
            self.push_incident(incident);
        }
    }

    fn handle(&mut self, family: Family, t: SimTime) {
        let before = self.events.len();
        self.dispatch(family, t);
        self.family_events[family as usize] += (self.events.len() - before) as u64;
    }

    fn dispatch(&mut self, family: Family, t: SimTime) {
        match family {
            Family::FatalMce => self.hw_cluster(t, incidents::fatal_mce_chain),
            Family::CpuCorruption => self.hw_cluster(t, incidents::cpu_corruption_chain),
            Family::MemFailSlow => self.single_node(t, incidents::memory_fail_slow_chain),
            Family::Nvf => self.single_node(t, incidents::nvf_chain),
            Family::LinkFailure => self.single_node(t, incidents::link_failure_chain),
            Family::LustreBug => self.hw_cluster(t, incidents::lustre_bug_chain),
            Family::KernelBug => self.hw_cluster(t, incidents::kernel_bug_chain),
            Family::DriverFirmware => self.hw_cluster(t, incidents::driver_firmware_chain),
            Family::AppOom => self.app_burst(t, incidents::oom_chain),
            Family::AppExit => self.app_burst(t, incidents::app_exit_chain),
            Family::AppFs => self.app_burst(t, incidents::app_fs_bug_chain),
            Family::UnknownBios => self.single_node(t, incidents::unknown_bios_chain),
            Family::UnknownL0 => self.single_node(t, incidents::unknown_l0_chain),
            Family::Operator => {
                self.single_node(t, |_, node, t| incidents::operator_shutdown_chain(node, t))
            }
            Family::BladeFailure => self.blade_failure(t),
            Family::Swo => self.system_wide_outage(t),
            Family::BenignNhf => {
                if let Some(node) = self.pick_failable_node(t) {
                    let (events, outcome) = noise::benign_nhf(&mut self.rng, node, t);
                    self.events.extend(events);
                    self.truth.benign_nhfs.push((node, t, outcome));
                }
            }
            Family::BenignNvf => {
                if let Some(node) = self.pick_failable_node(t) {
                    self.events.push(noise::benign_nvf(node, t));
                }
            }
            Family::BenignHwExternal => {
                let node = self.random_node();
                let e = noise::benign_hw_external(&mut self.rng, node, t);
                self.events.push(e);
            }
            Family::BenignHw => {
                let node = self.random_node();
                self.truth.benign_error_nodes.push(node);
                let events = noise::benign_hw_errors(&mut self.rng, node, t);
                self.events.extend(events);
            }
            Family::LustreNoise => {
                let node = self.random_node();
                let events = noise::lustre_noise(&mut self.rng, node, t);
                self.events.extend(events);
            }
            Family::SedcBlade => {
                let blade = self.random_blade();
                let events = noise::sedc_warning_burst(&mut self.rng, blade, t);
                self.events.extend(events);
            }
            Family::CabinetBurst => {
                let cab = hpc_platform::CabinetId(
                    self.rng.gen_range(0..self.sc.topology.cabinet_count()),
                );
                let events = noise::cabinet_fault_burst(&mut self.rng, cab, t);
                self.events.extend(events);
            }
            Family::LinkNoise => {
                let blade = self.random_blade();
                let events = noise::link_noise(&mut self.rng, blade, t);
                self.events.extend(events);
            }
            Family::BenignBios => {
                let node = self.random_node();
                self.events.push(noise::benign_bios_event(node, t));
            }
            Family::Graceful => {
                let node = self.random_node();
                self.events.push(noise::graceful_shutdown_event(node, t));
            }
            Family::HungTask => {
                let node = self.random_node();
                let app = self.app_on_or_random(node, t);
                let e = noise::hung_task_event(&mut self.rng, node, t, app);
                self.events.push(e);
            }
            Family::GpuNoise => {
                let node = self.random_node();
                let e = noise::gpu_error_event(&mut self.rng, node, t);
                self.events.push(e);
            }
            Family::DiskNoise => {
                let node = self.random_node();
                self.events.push(noise::disk_error_event(node, t));
            }
            Family::SoftwareNoise => {
                let node = self.random_node();
                let app = self.app_on_or_random(node, t);
                let e = noise::software_error_event(&mut self.rng, node, t, app);
                self.events.push(e);
            }
            Family::OomNoise => {
                let node = self.random_node();
                let app = self.app_on_or_random(node, t);
                let events = noise::oom_noise(&mut self.rng, node, t, app);
                self.events.extend(events);
            }
        }
    }

    fn random_node(&mut self) -> NodeId {
        NodeId(self.rng.gen_range(0..self.sc.topology.node_count()))
    }

    fn random_blade(&mut self) -> BladeId {
        BladeId(self.rng.gen_range(0..self.sc.topology.blade_count()))
    }

    fn app_on_or_random(&mut self, node: NodeId, t: SimTime) -> AppKind {
        self.timeline
            .job_on(node, t)
            .map(|j| j.app)
            .unwrap_or_else(|| AppKind::ALL[self.rng.gen_range(0..AppKind::ALL.len())])
    }

    /// Whole-blade hardware failure: all nodes of one blade fail with the
    /// same cause within seconds (Fig. 18's same-reason blade failures).
    fn blade_failure(&mut self, t: SimTime) {
        let blade = self.random_blade();
        let nodes: Vec<NodeId> = self
            .sc
            .topology
            .blade_nodes(blade)
            .filter(|n| self.failed_until[n.index()] <= t)
            .collect();
        if nodes.len() < 2 {
            return;
        }
        let use_mce = chance(&mut self.rng, 0.7);
        for (i, node) in nodes.into_iter().enumerate() {
            let ti = t + SimDuration::from_millis(self.rng.gen_range(0..30_000) + i as u64);
            let inc = if use_mce {
                incidents::fatal_mce_chain(&mut self.rng, node, ti)
            } else {
                incidents::nvf_chain(&mut self.rng, node, ti)
            };
            self.push_incident(inc);
        }
    }

    /// A system-wide outage (§III): either an intended service outage
    /// (graceful shutdowns across much of the machine — the pipeline never
    /// counts these) or a file-system collapse failing a large node
    /// fraction within minutes (recognised and excluded as an SWO window).
    fn system_wide_outage(&mut self, t: SimTime) {
        use hpc_logs::event::{ConsoleDetail, Payload};
        let n = self.sc.topology.node_count();
        let intended = chance(&mut self.rng, 0.5);
        let frac = if intended {
            self.rng.gen_range(0.4..0.7)
        } else {
            self.rng.gen_range(0.15..0.35)
        };
        let count = ((n as f64 * frac) as u32).max(2);
        let all: Vec<NodeId> = self.sc.topology.nodes().collect();
        let victims = sample_subset(&mut self.rng, &all, count as usize);
        let window_ms = 10 * 60_000;
        let mut hit = 0u32;
        for node in victims {
            if self.failed_until[node.index()] > t {
                continue;
            }
            let ti = t + SimDuration::from_millis(self.rng.gen_range(0..window_ms));
            if intended {
                self.events.push(noise::graceful_shutdown_event(node, ti));
            } else {
                self.events.push(LogEvent {
                    time: ti.saturating_sub(SimDuration::from_secs(40)),
                    payload: Payload::Console {
                        node,
                        detail: ConsoleDetail::LustreError {
                            kind: hpc_logs::event::LustreErrorKind::Evicted,
                        },
                    },
                });
                self.events.push(LogEvent {
                    time: ti,
                    payload: Payload::Console {
                        node,
                        detail: ConsoleDetail::KernelPanic {
                            reason: hpc_logs::event::PanicReason::LustreBug,
                        },
                    },
                });
                self.events.push(hpc_sched::nhc::crash_down_event(
                    node,
                    ti + SimDuration::from_secs(60),
                ));
            }
            self.mark_failed(node, ti);
            // SWO victims also lose their jobs.
            self.timeline.fail_node_at(node, ti);
            hit += 1;
        }
        if hit > 0 {
            self.truth.swos.push(crate::fault::SwoRecord {
                time: t,
                intended,
                nodes: hit,
            });
        }
    }

    /// Fig. 17: jobs with overallocated nodes suffer OOM failures on some
    /// or all of those nodes. A workload without overallocation draws
    /// nothing here.
    fn inject_overalloc_ooms(&mut self) {
        let jobs: Vec<(
            hpc_logs::event::JobId,
            AppKind,
            SimTime,
            SimTime,
            Vec<NodeId>,
        )> = self
            .timeline
            .jobs()
            .iter()
            .filter(|j| !j.overallocated_nodes.is_empty())
            .map(|j| (j.id, j.app, j.start, j.end, j.overallocated_nodes.clone()))
            .collect();
        for (job, app, start, end, over_nodes) in jobs {
            let all_fail = chance(&mut self.rng, OVERALLOC_ALL_FAIL_PROB);
            let per_node_p = {
                let (lo, hi) = self.sc.config.overalloc_node_fail_prob;
                self.rng.gen_range(lo..=hi)
            };
            for node in over_nodes {
                if !(all_fail || chance(&mut self.rng, per_node_p)) {
                    continue;
                }
                // Fail 20–80% into the job, but at least 15 min in (so the
                // chain's precursors stay inside the job window).
                let span = end.since(start).as_millis();
                if span < 40 * 60_000 {
                    continue;
                }
                let frac = self.rng.gen_range(0.2..0.8);
                let t = start + SimDuration::from_millis((span as f64 * frac) as u64);
                if self.failed_until[node.index()] > t {
                    continue;
                }
                let inc = incidents::oom_chain(&mut self.rng, node, t, app, job);
                self.push_incident(inc);
            }
        }
    }

    fn inject_chatty_blades(&mut self) {
        let count = self.sc.config.chatty_blades;
        if count == 0 {
            return;
        }
        let days = self.sc.horizon.as_millis() / MILLIS_PER_DAY;
        let (lo, hi) = CHATTY_RATE_PER_HOUR;
        // One chatty blade stops mid-day (Fig. 9's blade 7).
        let stopper = self.rng.gen_range(0..count);
        for i in 0..count {
            let blade = self.random_blade();
            let rate = self.rng.gen_range(lo..=hi);
            let stop_hour = if i == stopper && count >= 2 {
                self.rng.gen_range(8..16)
            } else {
                24
            };
            for day in 0..days.max(1) {
                let start = SimTime::EPOCH + SimDuration::from_days(day);
                let events = noise::chatty_blade_day(&mut self.rng, blade, start, rate, stop_hour);
                self.events.extend(events);
            }
        }
    }

    fn inject_telemetry(&mut self) {
        let blades = self.sc.config.telemetry_blades;
        if blades == 0 {
            return;
        }
        let interval = SimDuration::from_mins(self.sc.config.telemetry_interval_mins);
        let off = self.sc.config.telemetry_off_nodes.clone();
        for b in 0..blades.min(self.sc.topology.blade_count()) {
            let events = noise::temperature_telemetry(
                &mut self.rng,
                BladeId(b),
                &off,
                SimTime::EPOCH,
                self.sc.horizon,
                interval,
            );
            self.events.extend(events);
        }
    }

    /// Truncates jobs running on failed nodes (→ `node_fail` ends).
    fn amend_jobs(&mut self) {
        let failures: Vec<(NodeId, SimTime)> = self
            .truth
            .failures
            .iter()
            .map(|f: &FailureRecord| (f.node, f.time))
            .collect();
        for (node, t) in failures {
            self.timeline.fail_node_at(node, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{RootCauseClass, TrueRootCause};

    fn small_run(seed: u64) -> SimOutput {
        Scenario::new(SystemId::S1, 2, 7, seed).run()
    }

    #[test]
    fn produces_failures_and_logs() {
        let out = small_run(1);
        let failures = &out.truth.failures;
        // ~6 failures/day * 7 days, wide tolerance.
        assert!(failures.len() > 10, "only {} failures", failures.len());
        assert!(failures.len() < 200, "{} failures", failures.len());
        let lines = out.archive.total_lines();
        assert!(lines > 10_000, "only {lines} lines");
        assert!(failures.iter().any(|f| f.cause.is_app_triggered()));
        assert!(failures.iter().any(|f| f.external_indicator.is_some()));
    }

    #[test]
    fn family_positions_are_declaration_order() {
        // `Rates` and the per-family event counters index by `family as
        // usize`, and the queue is seeded in `ALL` order.
        for (i, family) in Family::ALL.into_iter().enumerate() {
            assert_eq!(family as usize, i, "{family:?}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small_run(99);
        let b = small_run(99);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.archive.total_lines(), b.archive.total_lines());
        assert_eq!(a.timeline, b.timeline);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_run(1);
        let b = small_run(2);
        assert_ne!(a.truth, b.truth);
    }

    #[test]
    fn failures_are_time_sorted_and_eligible() {
        let out = small_run(3);
        let f = &out.truth.failures;
        assert!(f.windows(2).all(|w| w[0].time <= w[1].time));
        // No node fails twice within an hour (recovery windows enforced).
        for (i, a) in f.iter().enumerate() {
            for b in &f[i + 1..] {
                if a.node == b.node {
                    assert!(
                        b.time.since(a.time) >= SimDuration::from_hours(1),
                        "node {:?} failed twice within an hour",
                        a.node
                    );
                }
            }
        }
    }

    #[test]
    fn app_failures_reference_real_jobs_that_ended_node_fail() {
        let out = small_run(4);
        let mut checked = 0;
        for rec in &out.truth.failures {
            if let Some(job_id) = rec.job {
                let job = out.timeline.get(job_id).expect("job exists");
                assert!(job.nodes.contains(&rec.node), "victim allocated to job");
                assert!(
                    job.end <= rec.time,
                    "job truncated at/before failure manifestation"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no app-triggered failures to check");
    }

    #[test]
    fn class_mix_is_broadly_balanced_on_s1() {
        let out = Scenario::new(SystemId::S1, 2, 21, 5).run();
        let counts = out.truth.class_counts();
        let total: usize = counts.iter().map(|(_, c)| c).sum();
        assert!(total > 50);
        for (class, count) in counts {
            let share = count as f64 / total as f64;
            match class {
                RootCauseClass::Unknown => assert!(share < 0.15, "{class:?} {share}"),
                _ => assert!(
                    share > 0.12 && share < 0.60,
                    "{class:?} share {share} out of band"
                ),
            }
        }
    }

    #[test]
    fn archive_round_trips_through_parser() {
        let out = small_run(6);
        let parsed = out.archive.parse_merged();
        assert_eq!(parsed.skipped_lines, 0, "every rendered line parses");
        assert!(parsed.events.len() as u64 <= out.archive.total_lines());
        assert!(!parsed.events.is_empty());
        // Chronological.
        assert!(parsed.events.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn s5_has_hung_tasks_but_no_environmental_stream() {
        let mut sc = Scenario::new(SystemId::S5, 1, 7, 7);
        sc.topology = Topology::of(SystemId::S5); // full 520 nodes
        let out = sc.run();
        use hpc_logs::event::LogSource;
        // No controller/ERD noise configured for S5 (no environmental logs
        // in the paper). Failure chains may still emit a stray NHF, so we
        // only require the streams to be near-empty relative to console.
        let env_lines = out.archive.stats(LogSource::Controller).lines
            + out.archive.stats(LogSource::Erd).lines;
        let console_lines = out.archive.stats(LogSource::Console).lines;
        assert!(
            env_lines < console_lines / 20,
            "env {env_lines} vs console {console_lines}"
        );
        // Hung tasks present.
        let (events, _) = out.archive.parse_source(LogSource::Console);
        let hung = events
            .iter()
            .filter(|e| {
                matches!(
                    e.payload,
                    hpc_logs::event::Payload::Console {
                        detail: hpc_logs::event::ConsoleDetail::HungTaskTimeout { .. },
                        ..
                    }
                )
            })
            .count();
        assert!(hung > 50, "only {hung} hung tasks");
    }

    #[test]
    fn overalloc_scenario_fails_overallocated_nodes() {
        let mut sc = Scenario::new(SystemId::S1, 2, 3, 11);
        sc.workload.overalloc_job_prob = 0.25;
        sc.workload.large_job_prob = 0.3;
        let out = sc.run();
        let oom_failures: Vec<_> = out
            .truth
            .failures
            .iter()
            .filter(|f| f.cause == TrueRootCause::AppMemoryExhaustion && f.job.is_some())
            .collect();
        assert!(!oom_failures.is_empty(), "no overallocation OOM failures");
        for f in &oom_failures {
            let job = out.timeline.get(f.job.unwrap()).unwrap();
            assert!(
                job.overallocated_nodes.contains(&f.node) || job.nodes.contains(&f.node),
                "OOM victim belongs to its job"
            );
        }
    }

    #[test]
    fn telemetry_emits_readings() {
        let mut sc = Scenario::new(SystemId::S1, 1, 1, 13);
        sc.config.telemetry_blades = 4;
        sc.config.telemetry_off_nodes = vec![NodeId(5)];
        let out = sc.run();
        let (events, _) = out.archive.parse_source(hpc_logs::event::LogSource::Erd);
        let readings = events
            .iter()
            .filter(|e| {
                matches!(
                    e.payload,
                    hpc_logs::event::Payload::Erd {
                        detail: hpc_logs::event::ErdDetail::SedcReading { .. },
                        ..
                    }
                )
            })
            .count();
        // 4 blades * 4 nodes * 96 samples/day
        assert!(readings > 1_000, "{readings} readings");
    }
}
