//! The structured event vocabulary shared by the log generators (fault
//! simulator, scheduler) and the diagnosis pipeline.
//!
//! Four log *sources* mirror the paper's Table II inventory:
//!
//! * **console** — compute-node internal logs (console/messages/consumer in
//!   the p0-directories): kernel oopses, MCEs, Lustre errors, OOM kills,
//!   shutdowns, stack traces.
//! * **controller** — blade-controller (BC) and cabinet-controller (CC)
//!   logs: heartbeat faults, voltage faults, ECB faults, sensor failures.
//! * **erd** — event-router-daemon logs: `ec_sedc_warning`, `ec_hw_error`,
//!   link errors and other system-wide environmental events.
//! * **scheduler** — Slurm/Torque logs: job lifecycle, NHC results, node
//!   state changes, epilogue actions, memory overallocation.
//!
//! Every event is a [`LogEvent`]: a [`SimTime`] plus a source-specific
//! payload. Generators construct events, [`crate::render`] turns them into
//! text lines, and [`crate::parse`] recovers them from text — the diagnosis
//! pipeline only ever sees the text.

use hpc_platform::components::Component;
use hpc_platform::interconnect::LinkErrorKind;
use hpc_platform::sensors::{Deviation, SensorKind};
use hpc_platform::{BladeId, CabinetId, NodeId};

use crate::time::SimTime;

/// Identifier of a scheduler job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// ALPS application id; the paper recommends "tracking buggy application IDs
/// (APIDs)" (Obs. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Apid(pub u64);

impl std::fmt::Display for Apid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Scheduler-visible node health state (§III-B: NHC "when in suspect mode,
/// may turn the node to admindown").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeState {
    /// Healthy, schedulable.
    Up,
    /// NHC suspect mode: under test after an anomaly.
    Suspect,
    /// Taken out of service by NHC after failed tests.
    AdminDown,
    /// Crashed / unreachable.
    Down,
    /// Deliberately powered off (explains heartbeat faults that are not
    /// failures, §III-B).
    PoweredOff,
}

impl NodeState {
    /// Every state, in ordinal order: a variant's position here is its on-disk
    /// ordinal in the segment codec, so new variants are appended, never
    /// inserted or reordered.
    pub const ALL: [NodeState; 5] = [
        NodeState::Up,
        NodeState::Suspect,
        NodeState::AdminDown,
        NodeState::Down,
        NodeState::PoweredOff,
    ];

    /// Lower-case token used in scheduler logs.
    pub fn token(self) -> &'static str {
        match self {
            NodeState::Up => "up",
            NodeState::Suspect => "suspect",
            NodeState::AdminDown => "admindown",
            NodeState::Down => "down",
            NodeState::PoweredOff => "poweroff",
        }
    }

    /// Parses a scheduler-log token.
    pub fn from_token(s: &str) -> Option<NodeState> {
        NodeState::ALL.into_iter().find(|v| v.token() == s)
    }

    /// Whether this state counts as a manifested node failure for the
    /// paper's purposes (admindown and down do; poweroff does not).
    pub fn is_failure(self) -> bool {
        matches!(self, NodeState::AdminDown | NodeState::Down)
    }
}

/// Flavour of a machine-check exception; the paper: "MCE log triggers
/// (page/cache/DIMM; caused when the error count exceeds a predefined
/// threshold)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MceKind {
    /// Page-level memory error.
    Page,
    /// CPU cache error.
    Cache,
    /// DIMM-level error.
    Dimm,
}

impl MceKind {
    /// Every kind, in ordinal order: a variant's position here is its on-disk
    /// ordinal in the segment codec, so new variants are appended, never
    /// inserted or reordered.
    pub const ALL: [MceKind; 3] = [MceKind::Page, MceKind::Cache, MceKind::Dimm];

    /// Log token.
    pub fn token(self) -> &'static str {
        match self {
            MceKind::Page => "page",
            MceKind::Cache => "cache",
            MceKind::Dimm => "dimm",
        }
    }

    /// Parses a log token.
    pub fn from_token(s: &str) -> Option<MceKind> {
        MceKind::ALL.into_iter().find(|v| v.token() == s)
    }
}

/// First line of a kernel oops, determining its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OopsCause {
    /// `BUG: unable to handle kernel paging request` (Table V case 4).
    PagingRequest,
    /// Null-pointer dereference.
    NullDeref,
    /// `invalid opcode` software trap (§III-F: "generally do not fail nodes,
    /// unless exception handling disturbs the file system").
    InvalidOpcode,
    /// General protection fault.
    GeneralProtection,
}

impl OopsCause {
    /// Every cause, in ordinal order: a variant's position here is its on-disk
    /// ordinal in the segment codec, so new variants are appended, never
    /// inserted or reordered.
    pub const ALL: [OopsCause; 4] = [
        OopsCause::PagingRequest,
        OopsCause::NullDeref,
        OopsCause::InvalidOpcode,
        OopsCause::GeneralProtection,
    ];

    /// First-line text of the oops.
    pub fn first_line(self) -> &'static str {
        match self {
            OopsCause::PagingRequest => "BUG: unable to handle kernel paging request",
            OopsCause::NullDeref => "BUG: kernel NULL pointer dereference",
            OopsCause::InvalidOpcode => "invalid opcode: 0000 [#1] SMP",
            OopsCause::GeneralProtection => "general protection fault: 0000 [#1] SMP",
        }
    }

    /// Recognises an oops first line.
    pub fn from_first_line(s: &str) -> Option<OopsCause> {
        OopsCause::ALL
            .into_iter()
            .find(|c| s.starts_with(c.first_line()))
    }
}

/// Kernel modules observed at the top of stack backtraces (Table IV). The
/// paper's root-cause analysis keys on these: "presence of dvsipc related
/// modules indicate an affected file system triggered by the application".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StackModule {
    /// `sleep_on_page` — job-triggered I/O wait (Table IV).
    SleepOnPage,
    /// `ldlm_bl` — Lustre lock-manager callback thread, job-triggered
    /// (rendered `ldml_bl` in the paper's Table IV).
    LdlmBl,
    /// `dvs_ipc_msg` — Cray DVS filesystem IPC; app-triggered FS trouble.
    DvsIpcMsg,
    /// `mce_log` — hardware machine-check path.
    MceLog,
    /// `rwsem_down_failed` — semaphore contention / hang.
    RwsemDownFailed,
    /// `oom_kill_process` — memory exhaustion path.
    OomKillProcess,
    /// `ptlrpc_main` — Lustre RPC service thread.
    PtlrpcMain,
    /// `xpmem_fault` — cross-process memory attach (appears in OOM stack
    /// traces per §III-E).
    XpmemFault,
    /// `page_fault` — generic page-fault path.
    PageFault,
    /// `do_fork` — fork/allocation errors.
    DoFork,
    /// `io_schedule` — block-I/O wait (S5 hung tasks).
    IoSchedule,
    /// Miscellaneous kernel frame with no diagnostic value.
    Generic,
}

impl StackModule {
    /// All diagnostically meaningful modules, in ordinal order: a module's
    /// position here is its on-disk ordinal in the segment codec, so new
    /// modules are appended, never inserted or reordered.
    pub const ALL: [StackModule; 12] = [
        StackModule::SleepOnPage,
        StackModule::LdlmBl,
        StackModule::DvsIpcMsg,
        StackModule::MceLog,
        StackModule::RwsemDownFailed,
        StackModule::OomKillProcess,
        StackModule::PtlrpcMain,
        StackModule::XpmemFault,
        StackModule::PageFault,
        StackModule::DoFork,
        StackModule::IoSchedule,
        StackModule::Generic,
    ];

    /// Symbol name as it appears in a backtrace frame.
    pub fn symbol(self) -> &'static str {
        match self {
            StackModule::SleepOnPage => "sleep_on_page",
            StackModule::LdlmBl => "ldlm_bl_thread_main",
            StackModule::DvsIpcMsg => "dvs_ipc_msg",
            StackModule::MceLog => "mce_log",
            StackModule::RwsemDownFailed => "rwsem_down_failed",
            StackModule::OomKillProcess => "oom_kill_process",
            StackModule::PtlrpcMain => "ptlrpc_main",
            StackModule::XpmemFault => "xpmem_fault",
            StackModule::PageFault => "do_page_fault",
            StackModule::DoFork => "do_fork",
            StackModule::IoSchedule => "io_schedule",
            StackModule::Generic => "schedule_timeout",
        }
    }

    /// Recognises a backtrace symbol.
    pub fn from_symbol(s: &str) -> Option<StackModule> {
        StackModule::ALL.into_iter().find(|m| m.symbol() == s)
    }
}

/// Lustre error classes surfaced in console logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LustreErrorKind {
    /// RPC timeout against an OST/MDT.
    Timeout,
    /// Client evicted by server.
    Evicted,
    /// Generic I/O error.
    IoError,
    /// Page-fault lock contention ("page fault locks" signalling
    /// job-triggered I/O problems, Fig. 10).
    PageFaultLock,
    /// Inode inconsistency ("disk and job induced inode errors", §III-F).
    InodeError,
}

impl LustreErrorKind {
    /// Every kind, in ordinal order: a variant's position here is its on-disk
    /// ordinal in the segment codec, so new variants are appended, never
    /// inserted or reordered.
    pub const ALL: [LustreErrorKind; 5] = [
        LustreErrorKind::Timeout,
        LustreErrorKind::Evicted,
        LustreErrorKind::IoError,
        LustreErrorKind::PageFaultLock,
        LustreErrorKind::InodeError,
    ];

    /// Log token.
    pub fn token(self) -> &'static str {
        match self {
            LustreErrorKind::Timeout => "timeout",
            LustreErrorKind::Evicted => "evicted",
            LustreErrorKind::IoError => "io_error",
            LustreErrorKind::PageFaultLock => "page_fault_lock",
            LustreErrorKind::InodeError => "inode_error",
        }
    }

    /// Parses a log token.
    pub fn from_token(s: &str) -> Option<LustreErrorKind> {
        LustreErrorKind::ALL.into_iter().find(|v| v.token() == s)
    }
}

/// Reason string attached to a kernel panic (terminal failure event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PanicReason {
    /// Fatal machine-check exception.
    FatalMce,
    /// Lustre bug escalated to panic.
    LustreBug,
    /// Generic kernel bug.
    KernelBug,
    /// OOM with no killable process.
    OutOfMemory,
    /// CPU corruption (Table V case 2).
    CpuCorruption,
    /// Firmware bug.
    FirmwareBug,
    /// Driver bug.
    DriverBug,
    /// Hung-task panic (S5's `hung_task_panic`).
    HungTask,
}

impl PanicReason {
    /// Every reason, in ordinal order: a variant's position here is its on-disk
    /// ordinal in the segment codec, so new variants are appended, never
    /// inserted or reordered.
    pub const ALL: [PanicReason; 8] = [
        PanicReason::FatalMce,
        PanicReason::LustreBug,
        PanicReason::KernelBug,
        PanicReason::OutOfMemory,
        PanicReason::CpuCorruption,
        PanicReason::FirmwareBug,
        PanicReason::DriverBug,
        PanicReason::HungTask,
    ];

    /// Panic message fragment.
    pub fn message(self) -> &'static str {
        match self {
            PanicReason::FatalMce => "Fatal Machine check",
            PanicReason::LustreBug => "LBUG",
            PanicReason::KernelBug => "Fatal exception",
            PanicReason::OutOfMemory => "Out of memory and no killable processes",
            PanicReason::CpuCorruption => "CPU context corrupt",
            PanicReason::FirmwareBug => "firmware fatal error",
            PanicReason::DriverBug => "driver fatal error",
            PanicReason::HungTask => "hung_task: blocked tasks",
        }
    }

    /// Recognises a panic message fragment.
    pub fn from_message(s: &str) -> Option<PanicReason> {
        PanicReason::ALL
            .into_iter()
            .find(|r| s.starts_with(r.message()))
    }
}

/// Application families run by jobs; failures correlate on *job id*, the
/// app kind adds realism (MPI vs Matlab submission-parameter advice, §III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppKind {
    /// Large MPI simulation.
    MpiSimulation,
    /// Matlab batch job.
    Matlab,
    /// Python analytics.
    Python,
    /// Molecular dynamics (NAMD-like).
    MolecularDynamics,
    /// Climate model (WRF-like).
    Climate,
    /// I/O-heavy genomics pipeline.
    Genomics,
}

impl AppKind {
    /// All application kinds, in ordinal order: a kind's position here is
    /// its on-disk ordinal in the segment codec and its index in the
    /// simulator's random draws and in hpc-sched's `APP_WEIGHTS`, so new
    /// kinds are appended, never inserted or reordered.
    pub const ALL: [AppKind; 6] = [
        AppKind::MpiSimulation,
        AppKind::Matlab,
        AppKind::Python,
        AppKind::MolecularDynamics,
        AppKind::Climate,
        AppKind::Genomics,
    ];

    /// Executable name as logged.
    pub fn executable(self) -> &'static str {
        match self {
            AppKind::MpiSimulation => "mpi_sim",
            AppKind::Matlab => "matlab",
            AppKind::Python => "python3",
            AppKind::MolecularDynamics => "namd2",
            AppKind::Climate => "wrf.exe",
            AppKind::Genomics => "genome_pipe",
        }
    }

    /// Parses an executable name.
    pub fn from_executable(s: &str) -> Option<AppKind> {
        AppKind::ALL.into_iter().find(|a| a.executable() == s)
    }
}

/// Why a job ended (Fig. 12's exit-status census buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobEndReason {
    /// Completed successfully (exit 0).
    Completed,
    /// Exceeded wall-time limit (configuration error bucket).
    WallTimeExceeded,
    /// Exceeded memory limit (configuration error bucket).
    MemoryLimitExceeded,
    /// Cancelled by the user.
    UserCancelled,
    /// Aborted because an allocated node failed.
    NodeFail,
    /// Application bug (nonzero exit).
    AppError,
}

impl JobEndReason {
    /// Every reason, in ordinal order: a variant's position here is its on-disk
    /// ordinal in the segment codec, so new variants are appended, never
    /// inserted or reordered.
    pub const ALL: [JobEndReason; 6] = [
        JobEndReason::Completed,
        JobEndReason::WallTimeExceeded,
        JobEndReason::MemoryLimitExceeded,
        JobEndReason::UserCancelled,
        JobEndReason::NodeFail,
        JobEndReason::AppError,
    ];

    /// Log token.
    pub fn token(self) -> &'static str {
        match self {
            JobEndReason::Completed => "completed",
            JobEndReason::WallTimeExceeded => "walltime",
            JobEndReason::MemoryLimitExceeded => "memlimit",
            JobEndReason::UserCancelled => "user_cancel",
            JobEndReason::NodeFail => "node_fail",
            JobEndReason::AppError => "app_error",
        }
    }

    /// Parses a log token.
    pub fn from_token(s: &str) -> Option<JobEndReason> {
        JobEndReason::ALL.into_iter().find(|v| v.token() == s)
    }

    /// Whether this reason is a *user/configuration* problem rather than a
    /// system problem (Fig. 12: "some are caused by configuration errors …
    /// leaving a few errors caused by node problems or application bugs").
    pub fn is_config_error(self) -> bool {
        matches!(
            self,
            JobEndReason::WallTimeExceeded
                | JobEndReason::MemoryLimitExceeded
                | JobEndReason::UserCancelled
        )
    }
}

/// Node-health-checker tests (§III-B, Obs. 6: "abnormal application exits").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NhcTest {
    /// Heartbeat / reachability.
    Heartbeat,
    /// Filesystem mount check.
    FilesystemMount,
    /// Free-memory check.
    FreeMemory,
    /// Abnormal application exit check ("app-exit" in Fig. 16).
    AppExit,
    /// Process-table sanity.
    ProcessTable,
}

impl NhcTest {
    /// Every test, in ordinal order: a variant's position here is its on-disk
    /// ordinal in the segment codec, so new variants are appended, never
    /// inserted or reordered.
    pub const ALL: [NhcTest; 5] = [
        NhcTest::Heartbeat,
        NhcTest::FilesystemMount,
        NhcTest::FreeMemory,
        NhcTest::AppExit,
        NhcTest::ProcessTable,
    ];

    /// Log token.
    pub fn token(self) -> &'static str {
        match self {
            NhcTest::Heartbeat => "heartbeat",
            NhcTest::FilesystemMount => "fs_mount",
            NhcTest::FreeMemory => "free_memory",
            NhcTest::AppExit => "app_exit",
            NhcTest::ProcessTable => "process_table",
        }
    }

    /// Parses a log token.
    pub fn from_token(s: &str) -> Option<NhcTest> {
        NhcTest::ALL.into_iter().find(|v| v.token() == s)
    }
}

/// A blade- or cabinet-controller scope for external events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControllerScope {
    /// Blade controller (BC / L0).
    Blade(BladeId),
    /// Cabinet controller (CC).
    Cabinet(CabinetId),
}

impl ControllerScope {
    /// The cabinet this controller belongs to.
    pub fn cabinet(self) -> CabinetId {
        match self {
            ControllerScope::Blade(b) => b.cabinet(),
            ControllerScope::Cabinet(c) => c,
        }
    }

    /// The blade, if this is a blade controller.
    pub fn blade(self) -> Option<BladeId> {
        match self {
            ControllerScope::Blade(b) => Some(b),
            ControllerScope::Cabinet(_) => None,
        }
    }
}

/// Console (node-internal) event payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ConsoleDetail {
    /// Machine-check exception.
    Mce {
        /// MCA bank reporting the error.
        bank: u8,
        /// Page/cache/DIMM flavour.
        kind: MceKind,
        /// Whether the error was corrected (uncorrected MCEs escalate).
        corrected: bool,
    },
    /// EDAC correctable/uncorrectable memory error.
    MemoryError {
        /// DIMM slot.
        dimm: u8,
        /// Correctable vs uncorrectable.
        correctable: bool,
    },
    /// Application segmentation fault.
    SegFault {
        /// Faulting executable.
        app: AppKind,
        /// PID.
        pid: u32,
    },
    /// oom-killer invocation.
    OomKill {
        /// Killed executable.
        victim: AppKind,
        /// PID.
        pid: u32,
    },
    /// Kernel oops with its (leading) stack-trace modules.
    KernelOops {
        /// Oops class from the first line.
        cause: OopsCause,
        /// Leading call-trace modules (Table IV analysis input).
        modules: Vec<StackModule>,
    },
    /// Kernel panic — a terminal failure indication.
    KernelPanic {
        /// Panic reason.
        reason: PanicReason,
    },
    /// Lustre client error.
    LustreError {
        /// Error class.
        kind: LustreErrorKind,
    },
    /// Hung-task watchdog timeout (S5's dominant pattern, Fig. 15), with
    /// its call trace.
    HungTaskTimeout {
        /// Blocked task name.
        task: AppKind,
        /// PID.
        pid: u32,
        /// Call-trace modules.
        modules: Vec<StackModule>,
    },
    /// RCU/CPU stall notice.
    CpuStall {
        /// CPU index.
        cpu: u8,
    },
    /// Page allocation failure.
    PageAllocFailure {
        /// Requesting executable.
        app: AppKind,
        /// Allocation order.
        order: u8,
    },
    /// GPU Xid error (S5).
    GpuError {
        /// GPU index.
        gpu: u8,
        /// Xid code.
        xid: u8,
    },
    /// Local-disk I/O error (S5).
    DiskError,
    /// The mysterious benign BIOS pattern (`type:2; severity:80; class:3;
    /// subclass:D; operation: 2`, §III "Unknown Causes").
    BiosError,
    /// NHC warning echoed to the console.
    NhcWarning {
        /// Failing test.
        test: NhcTest,
    },
    /// Abrupt shutdown with no prior symptom — terminal, the paper's third
    /// unknown-cause pattern (operator error / undetectable cause).
    UnexpectedShutdown,
    /// Intended, administratively scheduled shutdown — terminal but
    /// *excluded* from failure analysis (§III: "We recognize and exclude
    /// intended shutdowns").
    GracefulShutdown,
}

/// Controller (BC/CC) event payloads — column 1 of Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControllerDetail {
    /// Node heartbeat fault (NHF): node skipped a heartbeat / failed a
    /// health probe.
    NodeHeartbeatFault {
        /// Suspect node.
        node: NodeId,
    },
    /// Node voltage fault (NVF) — rare, strongly failure-correlated
    /// (Fig. 5).
    NodeVoltageFault {
        /// Affected node.
        node: NodeId,
    },
    /// Blade-controller heartbeat fault (BCHF).
    BcHeartbeatFault,
    /// Electronic circuit-breaker fault.
    EcbFault {
        /// ECB channel.
        channel: u16,
    },
    /// `get sensor reading failed`.
    SensorReadFailed {
        /// Sensor channel.
        channel: u16,
    },
    /// Cabinet power fault.
    CabinetPowerFault,
    /// Cabinet micro-controller fault.
    MicroControllerFault,
    /// Controller communication fault.
    CommunicationFault,
    /// Module health fault.
    ModuleHealthFault,
    /// Cabinet fan RPM fault.
    RpmFault {
        /// Fan index.
        fan: u8,
    },
    /// `L0_sysd_mce` — BC-reported memory error of unknown semantics
    /// (second unknown-cause pattern).
    L0SysdMce {
        /// Node referenced by the event.
        node: NodeId,
    },
    /// Node deliberately powered off (operator action).
    NodePowerOff {
        /// Affected node.
        node: NodeId,
    },
}

/// ERD (event-router) payloads — the system-wide environmental stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErdDetail {
    /// `ec_sedc_warning`: a sensor reading outside its envelope.
    SedcWarning {
        /// Sensor kind.
        sensor: SensorKind,
        /// Controller channel.
        channel: u16,
        /// The out-of-range reading.
        reading: f64,
        /// Below/above threshold.
        deviation: Deviation,
    },
    /// `ec_sedc_data`: a periodic in-range telemetry sample (the SEDC data
    /// collections behind the Fig. 11 per-node temperature map).
    SedcReading {
        /// Sensor kind.
        sensor: SensorKind,
        /// Controller channel (per-node temperature channels are 0–3).
        channel: u16,
        /// The sampled value.
        reading: f64,
    },
    /// `ec_hw_error`: hardware malfunction notice — the paper's key *early
    /// external indicator* for fail-slow failures (§III-D).
    HwError {
        /// Affected node.
        node: NodeId,
        /// Affected component.
        component: Component,
    },
    /// `ec_heartbeat_stop`.
    HeartbeatStop,
    /// `ec_l0_failed`: blade controller failed.
    L0Failed,
    /// Interconnect link error.
    LinkError {
        /// Router port.
        port: u8,
        /// Error class.
        kind: LinkErrorKind,
    },
    /// `ec_environment`: firmware environmental action (e.g. fan speed or
    /// air flow adjusted).
    Environment {
        /// Whether air velocity was reduced (thermal response, §III-C).
        air_flow_reduced: bool,
    },
    /// Cabinet sensor check result.
    CabinetSensorCheck {
        /// Whether all sensors read OK.
        ok: bool,
    },
    /// `ec_node_failed`: the HSS's own view that a node died. Used for
    /// cross-validation, not as pipeline ground truth.
    NodeFailed {
        /// The failed node.
        node: NodeId,
    },
}

/// Scheduler payloads (Slurm/Torque + NHC + ALPS).
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerDetail {
    /// Job started on a node list.
    JobStart {
        /// Job id.
        job: JobId,
        /// ALPS application id.
        apid: Apid,
        /// Numeric user id.
        user: u32,
        /// Application kind.
        app: AppKind,
        /// Allocated nodes.
        nodes: Vec<NodeId>,
        /// Requested memory per node (MiB).
        mem_per_node_mib: u32,
    },
    /// Job ended.
    JobEnd {
        /// Job id.
        job: JobId,
        /// Process exit code.
        exit_code: i32,
        /// Why it ended.
        reason: JobEndReason,
    },
    /// NHC test result for a node.
    NhcResult {
        /// Tested node.
        node: NodeId,
        /// Which test.
        test: NhcTest,
        /// Pass/fail.
        passed: bool,
    },
    /// Node state transition.
    NodeStateChange {
        /// The node.
        node: NodeId,
        /// New state.
        state: NodeState,
    },
    /// Epilogue cleaned up a node after a job (§III-E: "processes also get
    /// killed by the epilogue").
    EpilogueCleanup {
        /// The job whose processes were removed.
        job: JobId,
        /// The node cleaned.
        node: NodeId,
    },
    /// Slurm allocated more memory than the node has (Fig. 17's
    /// overallocation bug).
    MemOverallocation {
        /// The job.
        job: JobId,
        /// The node.
        node: NodeId,
        /// Requested MiB.
        requested_mib: u32,
        /// Physically available MiB.
        available_mib: u32,
    },
}

/// A source-tagged event payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Node-internal console/messages event.
    Console {
        /// Emitting node.
        node: NodeId,
        /// Payload.
        detail: ConsoleDetail,
    },
    /// Blade/cabinet controller event.
    Controller {
        /// Emitting controller.
        scope: ControllerScope,
        /// Payload.
        detail: ControllerDetail,
    },
    /// ERD event (scoped to a blade or cabinet controller source).
    Erd {
        /// Source controller.
        scope: ControllerScope,
        /// Payload.
        detail: ErdDetail,
    },
    /// Scheduler event.
    Scheduler {
        /// Payload.
        detail: SchedulerDetail,
    },
}

/// Which of the four log streams an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LogSource {
    /// Node console/messages logs.
    Console,
    /// BC/CC controller logs.
    Controller,
    /// Event-router-daemon log.
    Erd,
    /// Slurm/Torque scheduler log.
    Scheduler,
}

impl LogSource {
    /// All sources.
    pub const ALL: [LogSource; 4] = [
        LogSource::Console,
        LogSource::Controller,
        LogSource::Erd,
        LogSource::Scheduler,
    ];

    /// Short stable identifier used in metric names
    /// (`ingest.<key>.lines`, `core.ingest.parse.<key>`).
    pub fn key(self) -> &'static str {
        match self {
            LogSource::Console => "console",
            LogSource::Controller => "controller",
            LogSource::Erd => "erd",
            LogSource::Scheduler => "scheduler",
        }
    }
}

/// Severity of an event, mirroring syslog levels used in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational.
    Info,
    /// Warning — benign unless correlated.
    Warning,
    /// Error — component malfunction.
    Error,
    /// Critical — failure or imminent failure.
    Critical,
}

/// One timestamped structured log event.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEvent {
    /// When it happened.
    pub time: SimTime,
    /// What happened.
    pub payload: Payload,
}

impl LogEvent {
    /// Which stream this event renders into.
    pub fn source(&self) -> LogSource {
        match self.payload {
            Payload::Console { .. } => LogSource::Console,
            Payload::Controller { .. } => LogSource::Controller,
            Payload::Erd { .. } => LogSource::Erd,
            Payload::Scheduler { .. } => LogSource::Scheduler,
        }
    }

    /// Severity classification.
    pub fn severity(&self) -> Severity {
        match &self.payload {
            Payload::Console { detail, .. } => match detail {
                ConsoleDetail::KernelPanic { .. } | ConsoleDetail::UnexpectedShutdown => {
                    Severity::Critical
                }
                ConsoleDetail::KernelOops { .. }
                | ConsoleDetail::OomKill { .. }
                | ConsoleDetail::GpuError { .. }
                | ConsoleDetail::DiskError => Severity::Error,
                ConsoleDetail::Mce { corrected, .. } => {
                    if *corrected {
                        Severity::Warning
                    } else {
                        Severity::Error
                    }
                }
                ConsoleDetail::MemoryError { correctable, .. } => {
                    if *correctable {
                        Severity::Warning
                    } else {
                        Severity::Error
                    }
                }
                ConsoleDetail::SegFault { .. }
                | ConsoleDetail::LustreError { .. }
                | ConsoleDetail::HungTaskTimeout { .. }
                | ConsoleDetail::CpuStall { .. }
                | ConsoleDetail::PageAllocFailure { .. }
                | ConsoleDetail::NhcWarning { .. } => Severity::Warning,
                ConsoleDetail::BiosError | ConsoleDetail::GracefulShutdown => Severity::Info,
            },
            Payload::Controller { detail, .. } => match detail {
                ControllerDetail::NodeVoltageFault { .. } => Severity::Error,
                ControllerDetail::NodeHeartbeatFault { .. }
                | ControllerDetail::BcHeartbeatFault
                | ControllerDetail::EcbFault { .. }
                | ControllerDetail::CabinetPowerFault
                | ControllerDetail::MicroControllerFault
                | ControllerDetail::ModuleHealthFault
                | ControllerDetail::L0SysdMce { .. } => Severity::Warning,
                ControllerDetail::SensorReadFailed { .. }
                | ControllerDetail::CommunicationFault
                | ControllerDetail::RpmFault { .. }
                | ControllerDetail::NodePowerOff { .. } => Severity::Info,
            },
            Payload::Erd { detail, .. } => match detail {
                ErdDetail::NodeFailed { .. } => Severity::Critical,
                ErdDetail::HwError { .. } | ErdDetail::L0Failed => Severity::Error,
                ErdDetail::SedcWarning { .. }
                | ErdDetail::HeartbeatStop
                | ErdDetail::LinkError { .. } => Severity::Warning,
                ErdDetail::Environment { .. }
                | ErdDetail::CabinetSensorCheck { .. }
                | ErdDetail::SedcReading { .. } => Severity::Info,
            },
            Payload::Scheduler { detail } => match detail {
                SchedulerDetail::NodeStateChange { state, .. } if state.is_failure() => {
                    Severity::Critical
                }
                SchedulerDetail::MemOverallocation { .. } => Severity::Error,
                SchedulerDetail::NhcResult { passed: false, .. } => Severity::Warning,
                _ => Severity::Info,
            },
        }
    }

    /// The node this event is most directly about, if any. Console events
    /// name their emitting node; controller/ERD/scheduler events may name a
    /// target node in the payload.
    pub fn subject_node(&self) -> Option<NodeId> {
        match &self.payload {
            Payload::Console { node, .. } => Some(*node),
            Payload::Controller { detail, .. } => match detail {
                ControllerDetail::NodeHeartbeatFault { node }
                | ControllerDetail::NodeVoltageFault { node }
                | ControllerDetail::L0SysdMce { node }
                | ControllerDetail::NodePowerOff { node } => Some(*node),
                _ => None,
            },
            Payload::Erd { detail, .. } => match detail {
                ErdDetail::HwError { node, .. } | ErdDetail::NodeFailed { node } => Some(*node),
                _ => None,
            },
            Payload::Scheduler { detail } => match detail {
                SchedulerDetail::NhcResult { node, .. }
                | SchedulerDetail::NodeStateChange { node, .. }
                | SchedulerDetail::EpilogueCleanup { node, .. }
                | SchedulerDetail::MemOverallocation { node, .. } => Some(*node),
                _ => None,
            },
        }
    }

    /// The blade most directly implicated by this event, if any.
    pub fn subject_blade(&self) -> Option<BladeId> {
        if let Some(n) = self.subject_node() {
            return Some(n.blade());
        }
        match &self.payload {
            Payload::Controller { scope, .. } | Payload::Erd { scope, .. } => scope.blade(),
            _ => None,
        }
    }
}

/// A node's scheduler name (`nid00042`). Scheduler logs address nodes by
/// nid while console/controller logs use cnames; the diagnosis pipeline
/// joins the two namespaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nid(pub NodeId);

impl std::fmt::Display for Nid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "nid{:05}", self.0 .0)
    }
}

/// Renders a node's scheduler name ([`Nid`]) as a fresh string.
pub fn nid_name(node: NodeId) -> String {
    Nid(node).to_string()
}

/// Parses a `nid00042`-style name.
pub fn parse_nid(s: &str) -> Option<NodeId> {
    let digits = s.strip_prefix("nid")?;
    if digits.len() != 5 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok().map(NodeId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nid_round_trip() {
        for raw in [0u32, 42, 5599, 99_999] {
            let n = NodeId(raw);
            assert_eq!(parse_nid(&nid_name(n)), Some(n));
        }
        assert_eq!(parse_nid("nid123"), None);
        assert_eq!(parse_nid("nod00001"), None);
        assert_eq!(parse_nid("nid0001x"), None);
    }

    #[test]
    fn node_state_failure_classification() {
        assert!(NodeState::AdminDown.is_failure());
        assert!(NodeState::Down.is_failure());
        assert!(!NodeState::PoweredOff.is_failure());
        assert!(!NodeState::Suspect.is_failure());
    }

    /// Every text form of `all` parses back to its variant, and `parse`
    /// refuses a text no variant renders.
    fn round_trips<T: Copy + PartialEq + std::fmt::Debug>(
        all: &[T],
        text: fn(T) -> &'static str,
        parse: impl Fn(&str) -> Option<T>,
    ) {
        for &v in all {
            assert_eq!(parse(text(v)), Some(v), "{v:?}");
        }
        assert_eq!(parse("BOGUS"), None);
    }

    /// For a vocabulary matched by prefix (`suffix == false`) or suffix: no
    /// text form is a prefix (suffix) of another, so the lookup order over
    /// `ALL` cannot change an answer, and each text is still recognised with
    /// the rest of its line around it.
    fn affix_free<T: Copy + PartialEq + std::fmt::Debug>(
        all: &[T],
        text: fn(T) -> &'static str,
        parse: impl Fn(&str) -> Option<T>,
        suffix: bool,
    ) {
        for &a in all {
            for &b in all {
                let (ta, tb) = (text(a), text(b));
                let covers = if suffix {
                    tb.ends_with(ta)
                } else {
                    tb.starts_with(ta)
                };
                assert!(
                    a == b || !covers,
                    "{a:?} text {ta:?} within {b:?} text {tb:?}"
                );
            }
            let line = if suffix {
                format!("port=3 {}", text(a))
            } else {
                format!("{} at 0000", text(a))
            };
            assert_eq!(parse(&line), Some(a), "{line}");
        }
    }

    /// One round trip over `ALL` for each closed vocabulary the parser
    /// reads whole, through the inverse the parser uses; the oops and panic
    /// texts have their own test, and sensor mnemonics are checked in
    /// `hpc-platform`.
    #[test]
    fn token_round_trips() {
        use crate::parse::{parse_component, parse_deviation, parse_link_error};
        round_trips(&NodeState::ALL, NodeState::token, NodeState::from_token);
        round_trips(&MceKind::ALL, MceKind::token, MceKind::from_token);
        round_trips(
            &StackModule::ALL,
            StackModule::symbol,
            StackModule::from_symbol,
        );
        round_trips(
            &LustreErrorKind::ALL,
            LustreErrorKind::token,
            LustreErrorKind::from_token,
        );
        round_trips(&AppKind::ALL, AppKind::executable, AppKind::from_executable);
        round_trips(
            &JobEndReason::ALL,
            JobEndReason::token,
            JobEndReason::from_token,
        );
        round_trips(&NhcTest::ALL, NhcTest::token, NhcTest::from_token);
        round_trips(&Component::ALL, Component::mnemonic, parse_component);

        round_trips(&Deviation::ALL, Deviation::as_str, parse_deviation);
        affix_free(&Deviation::ALL, Deviation::as_str, parse_deviation, true);
        round_trips(
            &LinkErrorKind::ALL,
            LinkErrorKind::as_log_fragment,
            parse_link_error,
        );
        affix_free(
            &LinkErrorKind::ALL,
            LinkErrorKind::as_log_fragment,
            parse_link_error,
            true,
        );
    }

    /// Oops first lines and panic messages, which the parser matches by
    /// prefix, round-trip and are recognised with the rest of their line.
    #[test]
    fn oops_and_panic_recognition() {
        round_trips(
            &OopsCause::ALL,
            OopsCause::first_line,
            OopsCause::from_first_line,
        );
        affix_free(
            &OopsCause::ALL,
            OopsCause::first_line,
            OopsCause::from_first_line,
            false,
        );
        round_trips(
            &PanicReason::ALL,
            PanicReason::message,
            PanicReason::from_message,
        );
        affix_free(
            &PanicReason::ALL,
            PanicReason::message,
            PanicReason::from_message,
            false,
        );
    }

    #[test]
    fn severity_of_terminal_events_is_critical() {
        let panic = LogEvent {
            time: SimTime::EPOCH,
            payload: Payload::Console {
                node: NodeId(0),
                detail: ConsoleDetail::KernelPanic {
                    reason: PanicReason::FatalMce,
                },
            },
        };
        assert_eq!(panic.severity(), Severity::Critical);

        let down = LogEvent {
            time: SimTime::EPOCH,
            payload: Payload::Scheduler {
                detail: SchedulerDetail::NodeStateChange {
                    node: NodeId(3),
                    state: NodeState::Down,
                },
            },
        };
        assert_eq!(down.severity(), Severity::Critical);
    }

    #[test]
    fn subject_node_resolution() {
        let nhf = LogEvent {
            time: SimTime::EPOCH,
            payload: Payload::Controller {
                scope: ControllerScope::Blade(NodeId(17).blade()),
                detail: ControllerDetail::NodeHeartbeatFault { node: NodeId(17) },
            },
        };
        assert_eq!(nhf.subject_node(), Some(NodeId(17)));
        assert_eq!(nhf.subject_blade(), Some(NodeId(17).blade()));

        let sedc = LogEvent {
            time: SimTime::EPOCH,
            payload: Payload::Erd {
                scope: ControllerScope::Cabinet(CabinetId(2)),
                detail: ErdDetail::HeartbeatStop,
            },
        };
        assert_eq!(sedc.subject_node(), None);
        assert_eq!(sedc.subject_blade(), None);
    }

    #[test]
    fn config_error_classification() {
        assert!(JobEndReason::WallTimeExceeded.is_config_error());
        assert!(JobEndReason::UserCancelled.is_config_error());
        assert!(!JobEndReason::NodeFail.is_config_error());
        assert!(!JobEndReason::AppError.is_config_error());
        assert!(!JobEndReason::Completed.is_config_error());
    }

    #[test]
    fn controller_scope_navigation() {
        let b = ControllerScope::Blade(BladeId(50));
        assert_eq!(b.blade(), Some(BladeId(50)));
        assert_eq!(b.cabinet(), BladeId(50).cabinet());
        let c = ControllerScope::Cabinet(CabinetId(1));
        assert_eq!(c.blade(), None);
        assert_eq!(c.cabinet(), CabinetId(1));
    }

    #[test]
    fn source_mapping() {
        let e = LogEvent {
            time: SimTime::EPOCH,
            payload: Payload::Scheduler {
                detail: SchedulerDetail::JobEnd {
                    job: JobId(1),
                    exit_code: 0,
                    reason: JobEndReason::Completed,
                },
            },
        };
        assert_eq!(e.source(), LogSource::Scheduler);
    }
}
