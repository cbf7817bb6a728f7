//! Failure incident chains: the generative model of how nodes die.
//!
//! Each builder instantiates one *incident* against a node: a chronological
//! chain of precursor events (internal console symptoms, optionally early
//! external indicators in the controller/ERD streams), a terminal event
//! (kernel panic, unexpected shutdown, or an NHC admindown sequence) and the
//! scheduler's `down` notice. The chain shapes follow the paper's case
//! studies (Table V) and root-cause analysis (§III-E/F):
//!
//! * hardware chains: `ec_hw_errors` … MCEs → oops(`mce_log`) → panic;
//! * fail-slow memory: long-lived external indicators (Obs. 5's 5× lead);
//! * Lustre/kernel/driver chains → panic with the Table IV stack modules;
//! * application chains: segfault/OOM → NHC test failures → admindown,
//!   with **no** external indicators (Obs. 5);
//! * the three unknown-cause patterns of §III (BIOS pattern, `L0_sysd_mce`,
//!   bare shutdown).
//!
//! All times are computed backwards from the terminal instant `t`, so a
//! caller can schedule incidents by failure time.

use rand::Rng;

use hpc_logs::event::{
    AppKind, ConsoleDetail, ControllerDetail, ControllerScope, ErdDetail, JobId, LogEvent,
    LustreErrorKind, MceKind, NhcTest, OopsCause, PanicReason, Payload, StackModule,
};
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::components::Component;
use hpc_platform::rng::chance;
use hpc_platform::NodeId;
use hpc_sched::nhc;

use crate::fault::{FailureRecord, TrueRootCause};

/// Uniform range (minutes) of the *internal* precursor lead: how long
/// before the terminal event the first console symptom appears.
const INTERNAL_LEAD_MINS: (f64, f64) = (2.0, 12.0);
/// Uniform range (minutes) of the *external* early-indicator lead.
/// Roughly 5× the internal lead, per Fig. 13.
const EXTERNAL_LEAD_MINS: (f64, f64) = (18.0, 60.0);
/// Probability that an eligible failure exhibits fail-slow external
/// indicators (drives Fig. 13's 10–28% enhanceable fraction).
const EXTERNAL_INDICATOR_PROB: f64 = 0.25;
/// Probability that a failing chain emits a node heartbeat fault just
/// before the terminal event (drives Fig. 5/6's NHF→failure rates).
const NHF_PRECURSOR_PROB: f64 = 0.55;
/// Delay between a crash-style terminal event and the scheduler's `down`
/// notice.
const DOWN_DETECTION: SimDuration = SimDuration::from_secs(60);

fn internal_lead<R: Rng + ?Sized>(rng: &mut R) -> SimDuration {
    mins(rng.gen_range(INTERNAL_LEAD_MINS.0..=INTERNAL_LEAD_MINS.1))
}

fn external_lead<R: Rng + ?Sized>(rng: &mut R) -> SimDuration {
    mins(rng.gen_range(EXTERNAL_LEAD_MINS.0..=EXTERNAL_LEAD_MINS.1))
}

fn mins(m: f64) -> SimDuration {
    SimDuration::from_millis((m * 60_000.0) as u64)
}

/// Output of a chain builder: the events plus the ground-truth record.
#[derive(Debug, Clone)]
pub struct Incident {
    /// All events of the chain (time order not guaranteed; the scenario
    /// sorts globally).
    pub events: Vec<LogEvent>,
    /// Ground truth for the failure this chain causes.
    pub record: FailureRecord,
}

fn console(time: SimTime, node: NodeId, detail: ConsoleDetail) -> LogEvent {
    LogEvent {
        time,
        payload: Payload::Console { node, detail },
    }
}

fn controller_nhf(time: SimTime, node: NodeId) -> LogEvent {
    LogEvent {
        time,
        payload: Payload::Controller {
            scope: ControllerScope::Blade(node.blade()),
            detail: ControllerDetail::NodeHeartbeatFault { node },
        },
    }
}

fn erd_hw_error(time: SimTime, node: NodeId, component: Component) -> LogEvent {
    LogEvent {
        time,
        payload: Payload::Erd {
            scope: ControllerScope::Blade(node.blade()),
            detail: ErdDetail::HwError { node, component },
        },
    }
}

/// Shared skeleton: assembles a crash-terminal incident from internal
/// precursors, optional externals and an optional NHF precursor.
struct ChainBuilder {
    node: NodeId,
    t: SimTime,
    events: Vec<LogEvent>,
    first_internal: Option<SimTime>,
    external_indicator: Option<SimTime>,
}

impl ChainBuilder {
    fn new(node: NodeId, t: SimTime) -> ChainBuilder {
        ChainBuilder {
            node,
            t,
            events: Vec::with_capacity(8),
            first_internal: None,
            external_indicator: None,
        }
    }

    fn internal(&mut self, time: SimTime, detail: ConsoleDetail) {
        self.first_internal = Some(self.first_internal.map_or(time, |f| f.min(time)));
        self.events.push(console(time, self.node, detail));
    }

    fn external(&mut self, event: LogEvent) {
        let t = event.time;
        self.external_indicator = Some(self.external_indicator.map_or(t, |f| f.min(t)));
        self.events.push(event);
    }

    /// NHF shortly before the terminal event (counts as external for the
    /// record only if it leads the first internal symptom; it normally does
    /// not — it is a *concurrent* external correlate, which the pipeline
    /// uses for Fig. 5/6, not for lead time).
    fn nhf_precursor(&mut self, lead: SimDuration) {
        let t = self.t.saturating_sub(lead);
        self.events.push(controller_nhf(t, self.node));
    }

    /// Crash terminal: panic + scheduler down notice.
    fn finish_panic(
        mut self,
        reason: PanicReason,
        cause: TrueRootCause,
        job: Option<JobId>,
    ) -> Incident {
        self.internal(self.t, ConsoleDetail::KernelPanic { reason });
        self.events
            .push(nhc::crash_down_event(self.node, self.t + DOWN_DETECTION));
        self.finish(cause, job)
    }

    /// Abrupt-shutdown terminal (unknown-cause patterns).
    fn finish_shutdown(mut self, cause: TrueRootCause, job: Option<JobId>) -> Incident {
        self.events.push(console(
            self.t,
            self.node,
            ConsoleDetail::UnexpectedShutdown,
        ));
        self.events
            .push(nhc::crash_down_event(self.node, self.t + DOWN_DETECTION));
        self.finish(cause, job)
    }

    /// NHC admindown terminal: the admindown sequence *ends* at `t`.
    fn finish_admindown(
        mut self,
        test: NhcTest,
        cause: TrueRootCause,
        job: Option<JobId>,
    ) -> Incident {
        let seq_len = nhc::SUSPECT_DELAY + nhc::RETEST_DELAY + nhc::ADMINDOWN_DELAY;
        let t0 = self.t.saturating_sub(seq_len);
        self.events
            .extend(nhc::admindown_sequence(self.node, t0, test));
        self.finish(cause, job)
    }

    fn finish(self, cause: TrueRootCause, job: Option<JobId>) -> Incident {
        Incident {
            record: FailureRecord {
                node: self.node,
                time: self.t,
                cause,
                job,
                external_indicator: self.external_indicator,
                first_internal: self.first_internal,
            },
            events: self.events,
        }
    }
}

/// Fatal MCE chain: (optional `ec_hw_error`s) … uncorrected MCEs → kernel
/// oops via `mce_log` → `Fatal Machine check` panic.
pub fn fatal_mce_chain<R: Rng + ?Sized>(rng: &mut R, node: NodeId, t: SimTime) -> Incident {
    let mut b = ChainBuilder::new(node, t);
    if chance(rng, EXTERNAL_INDICATOR_PROB) {
        let lead = external_lead(rng);
        b.external(erd_hw_error(t.saturating_sub(lead), node, Component::Cpu));
        if chance(rng, 0.6) {
            b.external(erd_hw_error(
                t.saturating_sub(SimDuration::from_millis(lead.as_millis() / 2)),
                node,
                Component::Dimm,
            ));
        }
    }
    let lead = internal_lead(rng);
    let kind = MceKind::ALL[rng.gen_range(0..MceKind::ALL.len())];
    b.internal(
        t.saturating_sub(lead),
        ConsoleDetail::Mce {
            bank: rng.gen_range(0..8),
            kind,
            corrected: false,
        },
    );
    b.internal(
        t.saturating_sub(SimDuration::from_millis(lead.as_millis() * 3 / 5)),
        ConsoleDetail::Mce {
            bank: rng.gen_range(0..8),
            kind,
            corrected: false,
        },
    );
    b.internal(
        t.saturating_sub(SimDuration::from_millis(lead.as_millis() / 4)),
        ConsoleDetail::KernelOops {
            cause: OopsCause::GeneralProtection,
            modules: vec![StackModule::MceLog, StackModule::Generic],
        },
    );
    if chance(rng, NHF_PRECURSOR_PROB) {
        b.nhf_precursor(SimDuration::from_secs(45));
    }
    b.finish_panic(PanicReason::FatalMce, TrueRootCause::HardwareMce, None)
}

/// CPU-corruption chain (Table V case 2): MCEs and CPU stalls escalating to
/// a `CPU context corrupt` panic; link errors and temperature violations
/// may exist *distant* from the failure (added as scenario noise, not
/// here).
pub fn cpu_corruption_chain<R: Rng + ?Sized>(rng: &mut R, node: NodeId, t: SimTime) -> Incident {
    let mut b = ChainBuilder::new(node, t);
    if chance(rng, EXTERNAL_INDICATOR_PROB) {
        b.external(erd_hw_error(
            t.saturating_sub(external_lead(rng)),
            node,
            Component::Cpu,
        ));
    }
    let lead = internal_lead(rng);
    b.internal(
        t.saturating_sub(lead),
        ConsoleDetail::Mce {
            bank: rng.gen_range(0..8),
            kind: MceKind::Cache,
            corrected: false,
        },
    );
    b.internal(
        t.saturating_sub(SimDuration::from_millis(lead.as_millis() / 2)),
        ConsoleDetail::CpuStall {
            cpu: rng.gen_range(0..32),
        },
    );
    b.internal(
        t.saturating_sub(SimDuration::from_millis(lead.as_millis() / 5)),
        ConsoleDetail::KernelOops {
            cause: OopsCause::GeneralProtection,
            modules: vec![StackModule::MceLog],
        },
    );
    if chance(rng, NHF_PRECURSOR_PROB) {
        b.nhf_precursor(SimDuration::from_secs(30));
    }
    b.finish_panic(
        PanicReason::CpuCorruption,
        TrueRootCause::CpuCorruption,
        None,
    )
}

/// Fail-slow memory chain (Table V case 5): *always* has long-lived
/// external `ec_hw_error`s, correctable EDAC errors turning uncorrectable,
/// then a fatal MCE panic. The paper's flagship lead-time-enhancement case.
pub fn memory_fail_slow_chain<R: Rng + ?Sized>(rng: &mut R, node: NodeId, t: SimTime) -> Incident {
    let mut b = ChainBuilder::new(node, t);
    let lead = external_lead(rng);
    // Sustained hardware errors: several externals spread over the window
    // ("for certain failures, hardware errors sustain for a long time").
    for i in 0..3u64 {
        b.external(erd_hw_error(
            t.saturating_sub(SimDuration::from_millis(lead.as_millis() * (3 - i) / 3 + 1)),
            node,
            Component::Dimm,
        ));
    }
    let int_lead = internal_lead(rng);
    b.internal(
        t.saturating_sub(int_lead),
        ConsoleDetail::MemoryError {
            dimm: rng.gen_range(0..8),
            correctable: true,
        },
    );
    b.internal(
        t.saturating_sub(SimDuration::from_millis(int_lead.as_millis() / 2)),
        ConsoleDetail::MemoryError {
            dimm: rng.gen_range(0..8),
            correctable: false,
        },
    );
    if chance(rng, NHF_PRECURSOR_PROB) {
        b.nhf_precursor(SimDuration::from_secs(50));
    }
    b.finish_panic(PanicReason::FatalMce, TrueRootCause::MemoryFailSlow, None)
}

/// Node-voltage-fault chain: an NVF (controller log) minutes ahead, then an
/// abrupt shutdown. NVFs "occur rarely, but when they do, they often relate
/// to failures" (Fig. 5).
pub fn nvf_chain<R: Rng + ?Sized>(rng: &mut R, node: NodeId, t: SimTime) -> Incident {
    let mut b = ChainBuilder::new(node, t);
    let lead = mins(rng.gen_range(1.0..6.0));
    b.external(LogEvent {
        time: t.saturating_sub(lead),
        payload: Payload::Controller {
            scope: ControllerScope::Blade(node.blade()),
            detail: ControllerDetail::NodeVoltageFault { node },
        },
    });
    b.internal(
        t.saturating_sub(SimDuration::from_secs(20)),
        ConsoleDetail::MemoryError {
            dimm: rng.gen_range(0..8),
            correctable: false,
        },
    );
    b.finish_shutdown(TrueRootCause::NodeVoltage, None)
}

/// Interconnect link-failure chain (ref. \[22\]): CRC errors degrade into a dead
/// link, the failover FAILS, the node's Lustre traffic times out, and the
/// scheduler marks the unreachable node down — with **no** console terminal
/// (the node itself is fine). The link errors are the external indicator.
pub fn link_failure_chain<R: Rng + ?Sized>(rng: &mut R, node: NodeId, t: SimTime) -> Incident {
    use hpc_platform::interconnect::LinkErrorKind;
    let mut b = ChainBuilder::new(node, t);
    let blade = node.blade();
    let lead = external_lead(rng);
    let port = rng.gen_range(0..8);
    let link = |time: SimTime, kind: LinkErrorKind| LogEvent {
        time,
        payload: Payload::Erd {
            scope: ControllerScope::Blade(blade),
            detail: hpc_logs::event::ErdDetail::LinkError { port, kind },
        },
    };
    b.external(link(t.saturating_sub(lead), LinkErrorKind::Crc));
    b.external(link(
        t.saturating_sub(SimDuration::from_millis(lead.as_millis() / 2)),
        LinkErrorKind::LaneDegrade,
    ));
    b.external(link(
        t.saturating_sub(SimDuration::from_mins(2)),
        LinkErrorKind::LinkDown,
    ));
    b.external(link(
        t.saturating_sub(SimDuration::from_mins(1)),
        LinkErrorKind::Failover { succeeded: false },
    ));
    // The unreachable node's filesystem traffic times out.
    let int_lead = internal_lead(rng);
    b.internal(
        t.saturating_sub(SimDuration::from_millis(int_lead.as_millis() / 2)),
        ConsoleDetail::LustreError {
            kind: LustreErrorKind::Timeout,
        },
    );
    // No console terminal: only the scheduler notices.
    b.events
        .push(nhc::crash_down_event(node, t + DOWN_DETECTION));
    b.finish(TrueRootCause::InterconnectFailure, None)
}

/// Lustre-bug chain (system software, not job-triggered): Lustre errors →
/// oops through `ldlm_bl`/`ptlrpc` → LBUG panic.
pub fn lustre_bug_chain<R: Rng + ?Sized>(rng: &mut R, node: NodeId, t: SimTime) -> Incident {
    let mut b = ChainBuilder::new(node, t);
    if chance(rng, EXTERNAL_INDICATOR_PROB) {
        b.external(erd_hw_error(
            t.saturating_sub(external_lead(rng)),
            node,
            Component::Nic,
        ));
    }
    let lead = internal_lead(rng);
    b.internal(
        t.saturating_sub(lead),
        ConsoleDetail::LustreError {
            kind: LustreErrorKind::Timeout,
        },
    );
    b.internal(
        t.saturating_sub(SimDuration::from_millis(lead.as_millis() / 2)),
        ConsoleDetail::LustreError {
            kind: LustreErrorKind::Evicted,
        },
    );
    b.internal(
        t.saturating_sub(SimDuration::from_millis(lead.as_millis() / 4)),
        ConsoleDetail::KernelOops {
            cause: OopsCause::PagingRequest,
            modules: vec![StackModule::LdlmBl, StackModule::PtlrpcMain],
        },
    );
    if chance(rng, NHF_PRECURSOR_PROB * 0.5) {
        b.nhf_precursor(SimDuration::from_secs(40));
    }
    b.finish_panic(PanicReason::LustreBug, TrueRootCause::LustreBug, None)
}

/// Kernel-bug chain: invalid-opcode oops → fatal-exception panic. "7.14% of
/// the failures were caused due to critical kernel bugs (e.g., invalid
/// opcode)" (Fig. 16).
pub fn kernel_bug_chain<R: Rng + ?Sized>(rng: &mut R, node: NodeId, t: SimTime) -> Incident {
    let mut b = ChainBuilder::new(node, t);
    let lead = internal_lead(rng);
    b.internal(
        t.saturating_sub(lead),
        ConsoleDetail::KernelOops {
            cause: OopsCause::InvalidOpcode,
            modules: vec![StackModule::Generic, StackModule::PageFault],
        },
    );
    b.finish_panic(PanicReason::KernelBug, TrueRootCause::KernelBug, None)
}

/// Driver/firmware chain (the "Others" slice of Fig. 16: CPU stalls and
/// driver/firmware bugs).
pub fn driver_firmware_chain<R: Rng + ?Sized>(rng: &mut R, node: NodeId, t: SimTime) -> Incident {
    let mut b = ChainBuilder::new(node, t);
    if chance(rng, EXTERNAL_INDICATOR_PROB) {
        b.external(erd_hw_error(
            t.saturating_sub(external_lead(rng)),
            node,
            Component::Nic,
        ));
    }
    let lead = internal_lead(rng);
    if chance(rng, 0.5) {
        b.internal(
            t.saturating_sub(lead),
            ConsoleDetail::CpuStall {
                cpu: rng.gen_range(0..32),
            },
        );
    }
    b.internal(
        t.saturating_sub(SimDuration::from_millis(lead.as_millis() / 3)),
        ConsoleDetail::KernelOops {
            cause: OopsCause::GeneralProtection,
            modules: vec![StackModule::DoFork, StackModule::Generic],
        },
    );
    let reason = if chance(rng, 0.5) {
        PanicReason::DriverBug
    } else {
        PanicReason::FirmwareBug
    };
    b.finish_panic(reason, TrueRootCause::DriverFirmwareBug, None)
}

/// Application memory-exhaustion chain: page-allocation failures → OOM
/// kill → oops with `oom_kill_process`/`xpmem`/`dvsipc` frames → NHC
/// admindown. No external indicators, per Obs. 5.
pub fn oom_chain<R: Rng + ?Sized>(
    rng: &mut R,
    node: NodeId,
    t: SimTime,
    app: AppKind,
    job: JobId,
) -> Incident {
    let mut b = ChainBuilder::new(node, t);
    let lead = internal_lead(rng);
    b.internal(
        t.saturating_sub(lead),
        ConsoleDetail::PageAllocFailure {
            app,
            order: rng.gen_range(0..5),
        },
    );
    b.internal(
        t.saturating_sub(SimDuration::from_millis(lead.as_millis() / 2)),
        ConsoleDetail::OomKill {
            victim: app,
            pid: rng.gen_range(1_000..60_000),
        },
    );
    b.internal(
        t.saturating_sub(SimDuration::from_millis(lead.as_millis() / 3)),
        ConsoleDetail::KernelOops {
            cause: OopsCause::NullDeref,
            modules: vec![
                StackModule::OomKillProcess,
                StackModule::XpmemFault,
                StackModule::DvsIpcMsg,
            ],
        },
    );
    b.finish_admindown(
        NhcTest::FreeMemory,
        TrueRootCause::AppMemoryExhaustion,
        Some(job),
    )
}

/// Abnormal application exit chain: segfault → NHC app-exit test fails →
/// admindown (Fig. 16's dominant 37.5% slice).
pub fn app_exit_chain<R: Rng + ?Sized>(
    rng: &mut R,
    node: NodeId,
    t: SimTime,
    app: AppKind,
    job: JobId,
) -> Incident {
    let mut b = ChainBuilder::new(node, t);
    let lead = internal_lead(rng);
    b.internal(
        t.saturating_sub(lead),
        ConsoleDetail::SegFault {
            app,
            pid: rng.gen_range(1_000..60_000),
        },
    );
    b.finish_admindown(NhcTest::AppExit, TrueRootCause::AppAbnormalExit, Some(job))
}

/// Application-triggered file-system bug chain: page-fault locks and an
/// oops whose leading frames (`dvs_ipc_msg`, `sleep_on_page`) betray the
/// application origin (§III-E's finer inspection), ending in an LBUG panic.
pub fn app_fs_bug_chain<R: Rng + ?Sized>(
    rng: &mut R,
    node: NodeId,
    t: SimTime,
    _app: AppKind,
    job: JobId,
) -> Incident {
    let mut b = ChainBuilder::new(node, t);
    let lead = internal_lead(rng);
    b.internal(
        t.saturating_sub(lead),
        ConsoleDetail::LustreError {
            kind: LustreErrorKind::PageFaultLock,
        },
    );
    b.internal(
        t.saturating_sub(SimDuration::from_millis(lead.as_millis() / 2)),
        ConsoleDetail::KernelOops {
            cause: OopsCause::PagingRequest,
            modules: vec![StackModule::DvsIpcMsg, StackModule::SleepOnPage],
        },
    );
    b.finish_panic(PanicReason::LustreBug, TrueRootCause::AppFsBug, Some(job))
}

/// Unknown-cause pattern 1: the BIOS `type:2; severity:80; …` pattern
/// followed by an anomalous shutdown "without any other helpful patterns".
pub fn unknown_bios_chain<R: Rng + ?Sized>(rng: &mut R, node: NodeId, t: SimTime) -> Incident {
    let mut b = ChainBuilder::new(node, t);
    let lead = internal_lead(rng);
    b.internal(t.saturating_sub(lead), ConsoleDetail::BiosError);
    if chance(rng, 0.5) {
        b.internal(
            t.saturating_sub(SimDuration::from_millis(lead.as_millis() / 2)),
            ConsoleDetail::BiosError,
        );
    }
    b.finish_shutdown(TrueRootCause::UnknownBios, None)
}

/// Unknown-cause pattern 2: `L0_sysd_mce` in the blade-controller log,
/// then the node dies with no internal symptom at all.
pub fn unknown_l0_chain<R: Rng + ?Sized>(rng: &mut R, node: NodeId, t: SimTime) -> Incident {
    let mut b = ChainBuilder::new(node, t);
    let lead = mins(rng.gen_range(2.0..15.0));
    b.external(LogEvent {
        time: t.saturating_sub(lead),
        payload: Payload::Controller {
            scope: ControllerScope::Blade(node.blade()),
            detail: ControllerDetail::L0SysdMce { node },
        },
    });
    b.finish_shutdown(TrueRootCause::UnknownL0Mce, None)
}

/// Unknown-cause pattern 3: a bare shutdown with no prior anomaly —
/// operator error or undetectable cause.
pub fn operator_shutdown_chain(node: NodeId, t: SimTime) -> Incident {
    ChainBuilder::new(node, t).finish_shutdown(TrueRootCause::OperatorShutdown, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RootCauseClass;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t0() -> SimTime {
        SimTime::from_millis(6 * 3_600_000) // 6h in, so leads never clamp
    }

    fn check_basic(inc: &Incident, cause: TrueRootCause) {
        assert_eq!(inc.record.cause, cause);
        assert!(!inc.events.is_empty());
        // Terminal time is the record time; all events within a sane window.
        for e in &inc.events {
            assert!(
                e.time <= inc.record.time + SimDuration::from_mins(5),
                "event after terminal window: {e:?}"
            );
        }
        // Internal precursors (if any) lead the terminal event.
        if let Some(fi) = inc.record.first_internal {
            assert!(fi <= inc.record.time);
        }
        if let Some(ext) = inc.record.external_indicator {
            assert!(ext < inc.record.time);
        }
    }

    #[test]
    fn all_non_app_chains_build() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = NodeId(17);
        check_basic(
            &fatal_mce_chain(&mut rng, n, t0()),
            TrueRootCause::HardwareMce,
        );
        check_basic(
            &cpu_corruption_chain(&mut rng, n, t0()),
            TrueRootCause::CpuCorruption,
        );
        check_basic(
            &memory_fail_slow_chain(&mut rng, n, t0()),
            TrueRootCause::MemoryFailSlow,
        );
        check_basic(&nvf_chain(&mut rng, n, t0()), TrueRootCause::NodeVoltage);
        check_basic(
            &lustre_bug_chain(&mut rng, n, t0()),
            TrueRootCause::LustreBug,
        );
        check_basic(
            &kernel_bug_chain(&mut rng, n, t0()),
            TrueRootCause::KernelBug,
        );
        check_basic(
            &driver_firmware_chain(&mut rng, n, t0()),
            TrueRootCause::DriverFirmwareBug,
        );
        check_basic(
            &unknown_bios_chain(&mut rng, n, t0()),
            TrueRootCause::UnknownBios,
        );
        check_basic(
            &unknown_l0_chain(&mut rng, n, t0()),
            TrueRootCause::UnknownL0Mce,
        );
        check_basic(
            &operator_shutdown_chain(n, t0()),
            TrueRootCause::OperatorShutdown,
        );
    }

    #[test]
    fn app_chains_carry_job_and_no_externals() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = NodeId(3);
        let job = JobId(99);
        for inc in [
            oom_chain(&mut rng, n, t0(), AppKind::Matlab, job),
            app_exit_chain(&mut rng, n, t0(), AppKind::Python, job),
            app_fs_bug_chain(&mut rng, n, t0(), AppKind::MpiSimulation, job),
        ] {
            assert_eq!(inc.record.job, Some(job));
            assert!(inc.record.cause.is_app_triggered());
            assert_eq!(
                inc.record.external_indicator, None,
                "Obs. 5: app-triggered failures have no early external indicators"
            );
            assert_eq!(inc.record.cause.class(), RootCauseClass::Application);
        }
    }

    #[test]
    fn fail_slow_always_has_external_indicators() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let inc = memory_fail_slow_chain(&mut rng, NodeId(5), t0());
            let ext = inc.record.external_indicator.expect("fail-slow externals");
            let lead = inc.record.time.since(ext);
            assert!(
                lead.as_mins_f64() >= EXTERNAL_LEAD_MINS.0 - 1.0,
                "external lead {lead} too short"
            );
        }
    }

    #[test]
    fn external_lead_exceeds_internal_lead() {
        // The ≈5× enhancement of Fig. 13 requires external indicators to
        // strictly lead internal ones.
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let inc = memory_fail_slow_chain(&mut rng, NodeId(5), t0());
            let ext = inc.record.external_lead().unwrap().as_mins_f64();
            let int = inc.record.internal_lead().unwrap().as_mins_f64();
            assert!(ext > int, "external {ext}min should lead internal {int}min");
        }
    }

    #[test]
    fn link_failure_chain_has_no_console_terminal() {
        let mut rng = StdRng::seed_from_u64(9);
        let inc = link_failure_chain(&mut rng, NodeId(8), t0());
        assert_eq!(inc.record.cause, TrueRootCause::InterconnectFailure);
        // External link evidence exists and leads the failure.
        let ext = inc.record.external_indicator.expect("link externals");
        assert!(ext < inc.record.time);
        // No kernel panic / unexpected shutdown in the chain: the node is
        // unreachable, not dead.
        for e in &inc.events {
            if let Payload::Console { detail, .. } = &e.payload {
                assert!(
                    !matches!(
                        detail,
                        ConsoleDetail::KernelPanic { .. } | ConsoleDetail::UnexpectedShutdown
                    ),
                    "unexpected console terminal {detail:?}"
                );
            }
        }
        // The scheduler's down notice is the only terminal.
        assert!(inc.events.iter().any(|e| matches!(
            &e.payload,
            Payload::Scheduler {
                detail: hpc_logs::event::SchedulerDetail::NodeStateChange {
                    state: hpc_logs::event::NodeState::Down,
                    ..
                }
            }
        )));
        // Failed failover present.
        assert!(inc.events.iter().any(|e| matches!(
            &e.payload,
            Payload::Erd {
                detail: ErdDetail::LinkError {
                    kind: hpc_platform::interconnect::LinkErrorKind::Failover { succeeded: false },
                    ..
                },
                ..
            }
        )));
    }

    #[test]
    fn nvf_chain_contains_controller_nvf() {
        let mut rng = StdRng::seed_from_u64(5);
        let inc = nvf_chain(&mut rng, NodeId(20), t0());
        assert!(inc.events.iter().any(|e| matches!(
            e.payload,
            Payload::Controller {
                detail: ControllerDetail::NodeVoltageFault { .. },
                ..
            }
        )));
    }

    #[test]
    fn admindown_chains_end_at_terminal_time() {
        let mut rng = StdRng::seed_from_u64(6);
        let inc = app_exit_chain(&mut rng, NodeId(1), t0(), AppKind::Climate, JobId(7));
        // The last scheduler event of the chain is the admindown at exactly t.
        let max_time = inc.events.iter().map(|e| e.time).max().unwrap();
        assert_eq!(max_time, inc.record.time);
    }

    #[test]
    fn operator_shutdown_has_no_precursors() {
        let inc = operator_shutdown_chain(NodeId(0), t0());
        assert_eq!(inc.record.first_internal, None);
        assert_eq!(inc.record.external_indicator, None);
        assert_eq!(inc.events.len(), 2); // shutdown + down notice
    }
}
