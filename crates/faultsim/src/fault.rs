//! Ground-truth fault taxonomy.
//!
//! Every injected failure carries a [`TrueRootCause`] — what *actually*
//! brought the node down. The diagnosis pipeline never sees this; it infers
//! a cause from logs alone, and tests compare the inference against this
//! ground truth. The classes follow the paper's breakdown (§III-F: hardware
//! 37% / software 32% / application 31% on S3; Fig. 16's per-cause shares;
//! §III "Unknown Causes").

use hpc_logs::event::JobId;
use hpc_logs::time::SimTime;
use hpc_platform::NodeId;

/// Coarse root-cause class used in the paper's headline breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RootCauseClass {
    /// Hardware faults (MCEs, CPU corruption, voltage, degraded memory).
    Hardware,
    /// System-software faults (kernel, Lustre, drivers/firmware).
    Software,
    /// Application-triggered faults (OOM, abnormal exits, app-induced FS
    /// bugs).
    Application,
    /// No inferable cause (BIOS pattern, `L0_sysd_mce`, operator error).
    Unknown,
}

impl RootCauseClass {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            RootCauseClass::Hardware => "Hardware",
            RootCauseClass::Software => "Software",
            RootCauseClass::Application => "Application",
            RootCauseClass::Unknown => "Unknown",
        }
    }
}

/// Fine-grained true cause of an injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrueRootCause {
    /// Fatal machine-check exception (page/cache/DIMM escalation).
    HardwareMce,
    /// CPU context corruption (Table V case 2).
    CpuCorruption,
    /// Fail-slow memory degradation with long external indicators
    /// (Table V case 5: "degraded h/w triggered by s/w").
    MemoryFailSlow,
    /// Node voltage fault (Fig. 5's NVF).
    NodeVoltage,
    /// Interconnect link failure with a failed failover (ref.\[22\] in the
    /// paper): the node is healthy but unreachable, so the scheduler marks
    /// it down without any console terminal.
    InterconnectFailure,
    /// Lustre bug escalating to LBUG/panic — *not* job-triggered.
    LustreBug,
    /// Generic kernel bug (invalid opcode, race).
    KernelBug,
    /// Driver/firmware bug ("Others" slice of Fig. 16).
    DriverFirmwareBug,
    /// Application memory exhaustion → OOM → admindown (Fig. 16's 16.07%).
    AppMemoryExhaustion,
    /// Abnormal application exit failing NHC tests (Fig. 16's 37.5%).
    AppAbnormalExit,
    /// Application-triggered file-system bug propagating into the kernel
    /// (Fig. 16's 26.78% FS bugs; §III-E dvsipc analysis).
    AppFsBug,
    /// Benign-looking BIOS error pattern with no diagnosable trigger.
    UnknownBios,
    /// `L0_sysd_mce` blade-controller memory error of unknown semantics.
    UnknownL0Mce,
    /// Operator error / undetectable cause: clean logs, sudden shutdown.
    OperatorShutdown,
}

impl TrueRootCause {
    /// Coarse class of this cause.
    pub fn class(self) -> RootCauseClass {
        match self {
            TrueRootCause::HardwareMce
            | TrueRootCause::CpuCorruption
            | TrueRootCause::MemoryFailSlow
            | TrueRootCause::NodeVoltage
            | TrueRootCause::InterconnectFailure => RootCauseClass::Hardware,
            TrueRootCause::LustreBug
            | TrueRootCause::KernelBug
            | TrueRootCause::DriverFirmwareBug => RootCauseClass::Software,
            TrueRootCause::AppMemoryExhaustion
            | TrueRootCause::AppAbnormalExit
            | TrueRootCause::AppFsBug => RootCauseClass::Application,
            TrueRootCause::UnknownBios
            | TrueRootCause::UnknownL0Mce
            | TrueRootCause::OperatorShutdown => RootCauseClass::Unknown,
        }
    }

    /// Whether this cause originates in a running application (the paper's
    /// "root cause often lies in the application").
    pub fn is_app_triggered(self) -> bool {
        self.class() == RootCauseClass::Application
    }
}

/// Ground truth for one injected node failure.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// The failed node.
    pub node: NodeId,
    /// Time of the terminal event (panic / shutdown / admindown).
    pub time: SimTime,
    /// True cause.
    pub cause: TrueRootCause,
    /// Triggering job, for application-caused failures.
    pub job: Option<JobId>,
    /// Time of the earliest *external* early indicator (ERD/controller), if
    /// the failure was injected with fail-slow behaviour.
    pub external_indicator: Option<SimTime>,
    /// Time of the earliest *internal* precursor in the console log.
    pub first_internal: Option<SimTime>,
}

impl FailureRecord {
    /// True internal lead time (terminal − first internal precursor).
    pub fn internal_lead(&self) -> Option<hpc_logs::time::SimDuration> {
        self.first_internal.map(|t| self.time.since(t))
    }

    /// True external lead time (terminal − earliest external indicator).
    pub fn external_lead(&self) -> Option<hpc_logs::time::SimDuration> {
        self.external_indicator.map(|t| self.time.since(t))
    }
}

/// Outcome of a node heartbeat fault that did *not* come from a failure
/// chain (Fig. 6's non-failing NHF slices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenignNhfOutcome {
    /// The node was deliberately powered off.
    PoweredOff,
    /// The node merely skipped a heartbeat and recovered.
    SkippedHeartbeat,
}

/// One injected system-wide outage (§III: excluded from node-failure
/// analysis by the pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwoRecord {
    /// When the outage started.
    pub time: SimTime,
    /// Intended/service outage (graceful shutdowns) vs anomalous
    /// (file-system collapse).
    pub intended: bool,
    /// Nodes taken down.
    pub nodes: u32,
}

/// Full ground truth of one simulated window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundTruth {
    /// Every injected *node* failure, in time order (SWO victims are
    /// recorded in `swos`, not here — mirroring the paper's exclusion).
    pub failures: Vec<FailureRecord>,
    /// Injected system-wide outages.
    pub swos: Vec<SwoRecord>,
    /// Benign NHFs: (node, time, outcome).
    pub benign_nhfs: Vec<(NodeId, SimTime, BenignNhfOutcome)>,
    /// Nodes that received benign (non-failing) hardware-error noise.
    pub benign_error_nodes: Vec<NodeId>,
}

impl GroundTruth {
    /// Count of failures per coarse class.
    pub fn class_counts(&self) -> [(RootCauseClass, usize); 4] {
        let mut counts = [
            (RootCauseClass::Hardware, 0),
            (RootCauseClass::Software, 0),
            (RootCauseClass::Application, 0),
            (RootCauseClass::Unknown, 0),
        ];
        for f in &self.failures {
            let idx = match f.cause.class() {
                RootCauseClass::Hardware => 0,
                RootCauseClass::Software => 1,
                RootCauseClass::Application => 2,
                RootCauseClass::Unknown => 3,
            };
            counts[idx].1 += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_triggered_set() {
        assert!(TrueRootCause::AppMemoryExhaustion.is_app_triggered());
        assert!(TrueRootCause::AppAbnormalExit.is_app_triggered());
        assert!(TrueRootCause::AppFsBug.is_app_triggered());
        assert!(!TrueRootCause::HardwareMce.is_app_triggered());
        assert!(!TrueRootCause::UnknownBios.is_app_triggered());
    }

    #[test]
    fn failure_record_leads() {
        let r = FailureRecord {
            node: NodeId(1),
            time: SimTime::from_millis(600_000),
            cause: TrueRootCause::HardwareMce,
            job: None,
            external_indicator: Some(SimTime::from_millis(0)),
            first_internal: Some(SimTime::from_millis(480_000)),
        };
        assert_eq!(r.external_lead().unwrap().as_mins_f64(), 10.0);
        assert_eq!(r.internal_lead().unwrap().as_mins_f64(), 2.0);
    }

    #[test]
    fn class_counts_tally() {
        let mk = |cause, ms| FailureRecord {
            node: NodeId(0),
            time: SimTime::from_millis(ms),
            cause,
            job: None,
            external_indicator: None,
            first_internal: None,
        };
        let gt = GroundTruth {
            failures: vec![
                mk(TrueRootCause::HardwareMce, 0),
                mk(TrueRootCause::LustreBug, 1),
                mk(TrueRootCause::AppFsBug, 2),
                mk(TrueRootCause::AppAbnormalExit, 3),
                mk(TrueRootCause::UnknownBios, 4),
            ],
            ..GroundTruth::default()
        };
        let counts = gt.class_counts();
        assert_eq!(counts[0].1, 1);
        assert_eq!(counts[1].1, 1);
        assert_eq!(counts[2].1, 2);
        assert_eq!(counts[3].1, 1);
    }
}
