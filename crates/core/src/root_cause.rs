//! Root-cause classification of detected failures.
//!
//! For each detected failure, the classifier examines the node's events in
//! the lookback window before the terminal signature and applies the
//! paper's inference rules (§III-E/F, Table IV, Table V):
//!
//! * panic reasons anchor the coarse class (`Fatal Machine check`, `LBUG`,
//!   `CPU context corrupt` …);
//! * the *leading stack-trace modules* discriminate application-triggered
//!   file-system bugs (`dvs_ipc_msg`, `sleep_on_page`) from genuine Lustre
//!   bugs (`ldlm_bl`, `ptlrpc`) — "finer inspection included examining the
//!   beginning of the stack traces";
//! * NHC admindowns split into abnormal app exits vs memory exhaustion by
//!   the failing test and the presence of oom-killer activity;
//! * abrupt shutdowns check for NVFs, `L0_sysd_mce` and the BIOS pattern,
//!   and otherwise remain `Unknown` (Obs. 9).

use std::collections::BTreeMap;

use hpc_logs::event::{
    ConsoleDetail, ControllerDetail, LogEvent, NhcTest, PanicReason, Payload, SchedulerDetail,
    StackModule,
};
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::NodeId;

use crate::detection::{DetectedFailure, TerminalKind};
use crate::pipeline::Diagnosis;
use crate::windows::LOOKBACK;

/// Coarse cause class (the paper's S3 breakdown: HW 37% / SW 32% / App 31%).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CauseClass {
    /// Hardware.
    Hardware,
    /// System software.
    Software,
    /// Application-triggered.
    Application,
    /// Not inferable from the logs.
    Unknown,
}

impl CauseClass {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CauseClass::Hardware => "Hardware",
            CauseClass::Software => "Software",
            CauseClass::Application => "Application",
            CauseClass::Unknown => "Unknown",
        }
    }
}

/// Fine-grained inferred cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InferredCause {
    /// Fatal MCE from healthy-looking hardware.
    HardwareMce,
    /// Fatal MCE preceded by EDAC memory degradation (fail-slow memory).
    MemoryFailSlow,
    /// CPU context corruption.
    CpuCorruption,
    /// Node voltage fault.
    VoltageFault,
    /// Interconnect link failure (dead link + failed failover on the
    /// node's blade; no console terminal).
    InterconnectFailure,
    /// Lustre bug (system software; `ldlm_bl`/`ptlrpc` frames).
    LustreBug,
    /// Kernel bug (invalid opcode etc.).
    KernelBug,
    /// Driver or firmware bug.
    DriverFirmware,
    /// Abnormal application exit (NHC app-exit admindown).
    AppAbnormalExit,
    /// Application memory exhaustion (OOM path).
    MemoryExhaustion,
    /// Application-triggered file-system bug (`dvs_ipc_msg` /
    /// `sleep_on_page` frames).
    AppFsBug,
    /// BIOS pattern with no other symptom.
    UnknownBios,
    /// `L0_sysd_mce` with no other symptom.
    UnknownL0,
    /// Nothing diagnostic at all (operator error / cosmic rays, Obs. 9).
    Unknown,
}

impl InferredCause {
    /// Coarse class of this cause.
    pub fn class(self) -> CauseClass {
        match self {
            InferredCause::HardwareMce
            | InferredCause::MemoryFailSlow
            | InferredCause::CpuCorruption
            | InferredCause::VoltageFault
            | InferredCause::InterconnectFailure => CauseClass::Hardware,
            InferredCause::LustreBug | InferredCause::KernelBug | InferredCause::DriverFirmware => {
                CauseClass::Software
            }
            InferredCause::AppAbnormalExit
            | InferredCause::MemoryExhaustion
            | InferredCause::AppFsBug => CauseClass::Application,
            InferredCause::UnknownBios | InferredCause::UnknownL0 | InferredCause::Unknown => {
                CauseClass::Unknown
            }
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            InferredCause::HardwareMce => "hardware-mce",
            InferredCause::MemoryFailSlow => "memory-fail-slow",
            InferredCause::CpuCorruption => "cpu-corruption",
            InferredCause::VoltageFault => "voltage-fault",
            InferredCause::InterconnectFailure => "interconnect-failure",
            InferredCause::LustreBug => "lustre-bug",
            InferredCause::KernelBug => "kernel-bug",
            InferredCause::DriverFirmware => "driver-firmware",
            InferredCause::AppAbnormalExit => "app-abnormal-exit",
            InferredCause::MemoryExhaustion => "memory-exhaustion",
            InferredCause::AppFsBug => "app-fs-bug",
            InferredCause::UnknownBios => "unknown-bios",
            InferredCause::UnknownL0 => "unknown-l0-mce",
            InferredCause::Unknown => "unknown",
        }
    }

    /// Fig. 16 reporting bucket (APP-EXIT / KBUG / FSBUG / MEM / Others).
    fn fig16_bucket(self) -> Fig16Bucket {
        match self {
            InferredCause::AppAbnormalExit => Fig16Bucket::AppExit,
            InferredCause::KernelBug => Fig16Bucket::KernelBug,
            InferredCause::AppFsBug | InferredCause::LustreBug => Fig16Bucket::FsBug,
            InferredCause::MemoryExhaustion => Fig16Bucket::Memory,
            _ => Fig16Bucket::Others,
        }
    }
}

/// Fig. 16's five reporting buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fig16Bucket {
    /// Anomalous application exits failing NHC tests.
    AppExit,
    /// Critical kernel bugs.
    KernelBug,
    /// File-system bugs prompted by compute jobs.
    FsBug,
    /// Memory resource exhaustion.
    Memory,
    /// CPU stalls, driver and firmware bugs, everything else.
    Others,
}

impl Fig16Bucket {
    /// All buckets in paper order.
    pub const ALL: [Fig16Bucket; 5] = [
        Fig16Bucket::AppExit,
        Fig16Bucket::KernelBug,
        Fig16Bucket::FsBug,
        Fig16Bucket::Memory,
        Fig16Bucket::Others,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Fig16Bucket::AppExit => "APP-EXIT",
            Fig16Bucket::KernelBug => "KBUG",
            Fig16Bucket::FsBug => "FSBUG",
            Fig16Bucket::Memory => "MEM",
            Fig16Bucket::Others => "Others",
        }
    }
}

/// The node's events in its precursor window `[t − LOOKBACK, t + 1 ms)`:
/// the context a failure at `t` is classified from, its terminal included.
pub(crate) fn precursor_window(
    d: &Diagnosis,
    node: NodeId,
    t: SimTime,
) -> impl Iterator<Item = &LogEvent> {
    d.node_events_between(
        node,
        t.saturating_sub(LOOKBACK),
        t + SimDuration::from_millis(1),
    )
}

/// The module frames of the last kernel oops in the precursor window of a
/// failure of `node` at `t`: the trace the classifier reads its stack-trace
/// origin from.
pub fn last_oops(d: &Diagnosis, node: NodeId, t: SimTime) -> Option<&[StackModule]> {
    last_oops_modules(&precursor_window(d, node, t).collect::<Vec<_>>())
}

/// Classifies one detected failure from the node's log context.
pub fn classify(d: &Diagnosis, failure: &DetectedFailure) -> InferredCause {
    let window: Vec<_> = precursor_window(d, failure.node, failure.time).collect();
    match failure.terminal {
        TerminalKind::Panic(reason) => classify_panic(reason, &window),
        TerminalKind::AdminDown => classify_admindown(&window),
        TerminalKind::UnexpectedShutdown | TerminalKind::SchedulerDown => {
            classify_shutdown(d, failure, &window)
        }
    }
}

fn last_oops_modules<'a>(window: &[&'a LogEvent]) -> Option<&'a [StackModule]> {
    window.iter().rev().find_map(|e| match &e.payload {
        Payload::Console {
            detail: ConsoleDetail::KernelOops { modules, .. },
            ..
        } => Some(modules.as_slice()),
        _ => None,
    })
}

fn has_console(window: &[&LogEvent], pred: impl Fn(&ConsoleDetail) -> bool) -> bool {
    window.iter().any(|e| match &e.payload {
        Payload::Console { detail, .. } => pred(detail),
        _ => false,
    })
}

fn classify_panic(reason: PanicReason, window: &[&LogEvent]) -> InferredCause {
    match reason {
        PanicReason::FatalMce => {
            // EDAC degradation before the fatal MCE marks fail-slow memory
            // (Table V case 5); bare MCE escalation is ordinary HW MCE.
            if has_console(window, |c| matches!(c, ConsoleDetail::MemoryError { .. })) {
                InferredCause::MemoryFailSlow
            } else {
                InferredCause::HardwareMce
            }
        }
        PanicReason::CpuCorruption => InferredCause::CpuCorruption,
        PanicReason::LustreBug => {
            // Table IV: dvs_ipc_msg / sleep_on_page betray the application
            // origin even though the panic says LBUG.
            let app_frames = last_oops_modules(window).is_some_and(|m| {
                m.contains(&StackModule::DvsIpcMsg) || m.contains(&StackModule::SleepOnPage)
            });
            if app_frames {
                InferredCause::AppFsBug
            } else {
                InferredCause::LustreBug
            }
        }
        PanicReason::KernelBug => InferredCause::KernelBug,
        PanicReason::DriverBug | PanicReason::FirmwareBug => InferredCause::DriverFirmware,
        PanicReason::OutOfMemory | PanicReason::HungTask => InferredCause::MemoryExhaustion,
    }
}

fn classify_admindown(window: &[&LogEvent]) -> InferredCause {
    // Which NHC tests failed on the way down?
    let mut failed_tests: Vec<NhcTest> = Vec::new();
    for e in window {
        match &e.payload {
            Payload::Scheduler {
                detail:
                    SchedulerDetail::NhcResult {
                        test,
                        passed: false,
                        ..
                    },
            } => failed_tests.push(*test),
            Payload::Console {
                detail: ConsoleDetail::NhcWarning { test },
                ..
            } => failed_tests.push(*test),
            _ => {}
        }
    }
    let oom = has_console(window, |c| matches!(c, ConsoleDetail::OomKill { .. }))
        || failed_tests.contains(&NhcTest::FreeMemory);
    if oom {
        return InferredCause::MemoryExhaustion;
    }
    if failed_tests.contains(&NhcTest::AppExit)
        || has_console(window, |c| matches!(c, ConsoleDetail::SegFault { .. }))
    {
        return InferredCause::AppAbnormalExit;
    }
    InferredCause::Unknown
}

fn classify_shutdown(
    d: &Diagnosis,
    failure: &DetectedFailure,
    window: &[&LogEvent],
) -> InferredCause {
    // A dead link + failed failover on the node's blade marks the node
    // unreachable rather than dead (Table V's Aries link-error evidence).
    let ext_from = failure.time.saturating_sub(d.config.external_window);
    let mut saw_down = false;
    let mut saw_failed_failover = false;
    for e in d.blade_external_between(
        failure.node.blade(),
        ext_from,
        failure.time + SimDuration::from_millis(1),
    ) {
        if let Payload::Erd {
            detail: hpc_logs::event::ErdDetail::LinkError { kind, .. },
            ..
        } = &e.payload
        {
            match kind {
                hpc_platform::interconnect::LinkErrorKind::LinkDown => saw_down = true,
                hpc_platform::interconnect::LinkErrorKind::Failover { succeeded: false } => {
                    saw_failed_failover = true
                }
                _ => {}
            }
        }
    }
    if saw_down && saw_failed_failover {
        return InferredCause::InterconnectFailure;
    }
    classify_shutdown_inner(window)
}

fn classify_shutdown_inner(window: &[&LogEvent]) -> InferredCause {
    let has_controller = |pred: &dyn Fn(&ControllerDetail) -> bool| {
        window.iter().any(|e| match &e.payload {
            Payload::Controller { detail, .. } => pred(detail),
            _ => false,
        })
    };
    if has_controller(&|c| matches!(c, ControllerDetail::NodeVoltageFault { .. })) {
        return InferredCause::VoltageFault;
    }
    if has_controller(&|c| matches!(c, ControllerDetail::L0SysdMce { .. })) {
        return InferredCause::UnknownL0;
    }
    if has_console(window, |c| matches!(c, ConsoleDetail::BiosError)) {
        return InferredCause::UnknownBios;
    }
    InferredCause::Unknown
}

/// Classifies every detected failure.
pub fn classify_all(d: &Diagnosis) -> Vec<(DetectedFailure, InferredCause)> {
    let _span = hpc_telemetry::span!("core.root_cause.classify_all");
    d.failures.iter().map(|f| (*f, classify(d, f))).collect()
}

/// Percentage breakdown of failures per fine cause, Fig. 16 bucket and
/// coarse class.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CauseBreakdown {
    /// Total classified failures.
    pub total: usize,
    /// Count per fine cause.
    pub by_cause: BTreeMap<InferredCause, usize>,
    /// Count per Fig. 16 bucket.
    pub by_bucket: BTreeMap<Fig16Bucket, usize>,
    /// Count per coarse class.
    pub by_class: BTreeMap<CauseClass, usize>,
}

impl CauseBreakdown {
    /// Builds the breakdown from a diagnosis.
    pub fn compute(d: &Diagnosis) -> CauseBreakdown {
        CauseBreakdown::of(&classify_all(d))
    }

    /// Builds the breakdown from already classified failures.
    pub fn of(classified: &[(DetectedFailure, InferredCause)]) -> CauseBreakdown {
        let mut out = CauseBreakdown::default();
        for &(_, cause) in classified {
            out.total += 1;
            *out.by_cause.entry(cause).or_insert(0) += 1;
            *out.by_bucket.entry(cause.fig16_bucket()).or_insert(0) += 1;
            *out.by_class.entry(cause.class()).or_insert(0) += 1;
        }
        out
    }

    /// Percentage of a Fig. 16 bucket.
    pub fn bucket_percent(&self, b: Fig16Bucket) -> f64 {
        percent(self.by_bucket.get(&b).copied().unwrap_or(0), self.total)
    }

    /// Percentage of a coarse class.
    pub fn class_percent(&self, c: CauseClass) -> f64 {
        percent(self.by_class.get(&c).copied().unwrap_or(0), self.total)
    }

    /// Percentage of a fine cause.
    pub fn cause_percent(&self, c: InferredCause) -> f64 {
        percent(self.by_cause.get(&c).copied().unwrap_or(0), self.total)
    }
}

fn percent(n: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * n as f64 / total as f64
    }
}

/// Node-pattern census for Fig. 15: the percentage of *nodes* whose console
/// logs exhibit each call-trace pattern over the window (S5 analysis; these
/// patterns mostly do not fail nodes there).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PatternCensus {
    /// Nodes observed in the console stream.
    pub nodes_seen: usize,
    /// Nodes with hung-task timeouts (80.57% on S5).
    pub hung_task: usize,
    /// Nodes with OOM activity (10.59%).
    pub oom: usize,
    /// Nodes with Lustre errors (5.04%).
    pub lustre: usize,
    /// Nodes with software errors: segfaults / page-alloc faults (2.16%).
    pub software: usize,
    /// Nodes with hardware errors: GPU/disk (1.43%).
    pub hardware: usize,
}

impl PatternCensus {
    /// Tallies the console posting lists of the store (every console
    /// class: any console activity makes a node count as "seen").
    pub fn compute(d: &Diagnosis) -> PatternCensus {
        #[derive(Default)]
        struct Flags {
            hung: bool,
            oom: bool,
            lustre: bool,
            sw: bool,
            hw: bool,
        }
        let mut per_node: BTreeMap<NodeId, Flags> = BTreeMap::new();
        for e in d.store().classes_events(crate::store::EventClass::CONSOLE) {
            let Payload::Console { node, detail } = &e.payload else {
                continue;
            };
            let f = per_node.entry(*node).or_default();
            match detail {
                ConsoleDetail::HungTaskTimeout { .. } => f.hung = true,
                ConsoleDetail::OomKill { .. } | ConsoleDetail::PageAllocFailure { .. } => {
                    f.oom = true
                }
                ConsoleDetail::LustreError { .. } => f.lustre = true,
                ConsoleDetail::SegFault { .. } => f.sw = true,
                ConsoleDetail::GpuError { .. } | ConsoleDetail::DiskError => f.hw = true,
                _ => {}
            }
        }
        let mut c = PatternCensus {
            nodes_seen: per_node.len(),
            ..PatternCensus::default()
        };
        for f in per_node.values() {
            c.hung_task += f.hung as usize;
            c.oom += f.oom as usize;
            c.lustre += f.lustre as usize;
            c.software += f.sw as usize;
            c.hardware += f.hw as usize;
        }
        c
    }

    /// Percentage of a count against a node population.
    pub fn percent_of(&self, count: usize, population: usize) -> f64 {
        percent(count, population)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DiagnosisConfig;
    use hpc_faultsim::Scenario;
    use hpc_platform::SystemId;

    #[test]
    fn breakdown_percentages_sum_to_100() {
        let out = Scenario::new(SystemId::S2, 2, 14, 5).run();
        let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
        let b = CauseBreakdown::compute(&d);
        assert!(b.total > 20);
        let bucket_sum: f64 = Fig16Bucket::ALL.iter().map(|x| b.bucket_percent(*x)).sum();
        assert!((bucket_sum - 100.0).abs() < 1e-9);
        let class_sum: f64 = [
            CauseClass::Hardware,
            CauseClass::Software,
            CauseClass::Application,
            CauseClass::Unknown,
        ]
        .iter()
        .map(|c| b.class_percent(*c))
        .sum();
        assert!((class_sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn s2_mix_lands_near_fig16_shape() {
        // Fig. 16: APP-EXIT 37.5%, FSBUG 26.78%, MEM 16.07%, KBUG 7.14%,
        // Others 12.5%. Bands are generous, and the window is long (16
        // weeks): burst sizes make short windows noisy.
        let out = Scenario::new(SystemId::S2, 2, 112, 77).run();
        let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
        let b = CauseBreakdown::compute(&d);
        let app_exit = b.bucket_percent(Fig16Bucket::AppExit);
        let fsbug = b.bucket_percent(Fig16Bucket::FsBug);
        let mem = b.bucket_percent(Fig16Bucket::Memory);
        eprintln!(
            "S2 mix: APP-EXIT {app_exit:.1} KBUG {:.1} FSBUG {fsbug:.1} MEM {mem:.1} Others {:.1} (n={})",
            b.bucket_percent(Fig16Bucket::KernelBug),
            b.bucket_percent(Fig16Bucket::Others),
            b.total
        );
        assert!(
            app_exit > fsbug && fsbug > mem,
            "ordering APP-EXIT({app_exit}) > FSBUG({fsbug}) > MEM({mem}) violated"
        );
        assert!((20.0..=55.0).contains(&app_exit), "APP-EXIT {app_exit}");
        assert!((12.0..=42.0).contains(&fsbug), "FSBUG {fsbug}");
    }

    #[test]
    fn interconnect_failures_are_recognised_from_link_evidence() {
        // Only link-failure incidents enabled: every detected failure must
        // classify as InterconnectFailure purely from the dead-link +
        // failed-failover evidence (no console terminal exists).
        let mut sc = Scenario::new(SystemId::S1, 2, 21, 31);
        use hpc_faultsim::Family::*;
        sc.config.rates = sc.config.rates.with(&[
            (FatalMce, 0.0),
            (CpuCorruption, 0.0),
            (MemFailSlow, 0.0),
            (Nvf, 0.0),
            (LinkFailure, 0.4),
            (LustreBug, 0.0),
            (KernelBug, 0.0),
            (DriverFirmware, 0.0),
            (AppOom, 0.0),
            (AppExit, 0.0),
            (AppFs, 0.0),
            (UnknownBios, 0.0),
            (UnknownL0, 0.0),
            (Operator, 0.0),
            (BladeFailure, 0.0),
        ]);
        let out = sc.run();
        assert!(!out.truth.failures.is_empty(), "no link failures injected");
        let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
        let classified = classify_all(&d);
        assert!(!classified.is_empty());
        let ok = classified
            .iter()
            .filter(|(_, c)| *c == InferredCause::InterconnectFailure)
            .count();
        assert!(
            ok as f64 > 0.9 * classified.len() as f64,
            "{ok}/{} classified as interconnect failures",
            classified.len()
        );
        assert_eq!(
            InferredCause::InterconnectFailure.class(),
            CauseClass::Hardware
        );
    }

    #[test]
    fn pattern_census_finds_hung_tasks_on_s5() {
        let mut sc = Scenario::new(SystemId::S5, 1, 7, 3);
        sc.topology = hpc_platform::Topology::of(SystemId::S5);
        let out = sc.run();
        let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
        let census = PatternCensus::compute(&d);
        assert!(census.hung_task > 100, "hung {}", census.hung_task);
        assert!(census.hung_task > census.oom);
        assert!(census.oom > census.hardware);
    }
}
