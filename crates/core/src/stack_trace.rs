//! Stack-trace module analysis (Table IV).
//!
//! "We examined the preliminary call traces indicating the modules linked
//! to the trace such as dvs_ipc_mesg, mce_log etc. … there are indications
//! of application-caused (which in turn may affect the file system) versus
//! file system-caused failures." This module:
//!
//! * attributes a *trace origin* to a module list using the paper's
//!   first-frames heuristic (DESIGN.md ablation #4 also provides a
//!   whole-trace voting variant);
//! * tabulates which modules appear in the traces of which inferred causes
//!   (the Table IV correspondence).

use std::collections::BTreeMap;

use hpc_logs::event::{ConsoleDetail, Payload, StackModule};
use hpc_logs::time::SimDuration;

use crate::pipeline::Diagnosis;
use crate::root_cause::{classify_all, InferredCause};
use crate::windows::LOOKBACK;

/// Where a stack trace points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TraceOrigin {
    /// Application-side frames (`dvs_ipc_msg`, `sleep_on_page`, `xpmem`,
    /// OOM path).
    Application,
    /// File-system service frames (`ldlm_bl`, `ptlrpc`).
    FileSystem,
    /// Hardware path (`mce_log`).
    Hardware,
    /// Generic kernel frames only.
    Kernel,
}

impl TraceOrigin {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TraceOrigin::Application => "application",
            TraceOrigin::FileSystem => "file-system",
            TraceOrigin::Hardware => "hardware",
            TraceOrigin::Kernel => "kernel",
        }
    }
}

fn module_origin(m: StackModule) -> Option<TraceOrigin> {
    Some(match m {
        StackModule::DvsIpcMsg
        | StackModule::SleepOnPage
        | StackModule::XpmemFault
        | StackModule::OomKillProcess => TraceOrigin::Application,
        StackModule::LdlmBl | StackModule::PtlrpcMain => TraceOrigin::FileSystem,
        StackModule::MceLog => TraceOrigin::Hardware,
        StackModule::RwsemDownFailed
        | StackModule::PageFault
        | StackModule::DoFork
        | StackModule::IoSchedule => TraceOrigin::Kernel,
        StackModule::Generic => return None,
    })
}

/// First-frames heuristic: the first diagnostic module in the trace wins
/// (the paper examines "the beginning of the stack traces").
pub fn origin_first_frames(modules: &[StackModule]) -> TraceOrigin {
    modules
        .iter()
        .find_map(|m| module_origin(*m))
        .unwrap_or(TraceOrigin::Kernel)
}

/// Whole-trace voting variant (ablation): majority origin across all
/// diagnostic frames, ties broken towards the first-frames answer.
pub fn origin_by_vote(modules: &[StackModule]) -> TraceOrigin {
    let mut votes: BTreeMap<TraceOrigin, usize> = BTreeMap::new();
    for m in modules {
        if let Some(o) = module_origin(*m) {
            *votes.entry(o).or_insert(0) += 1;
        }
    }
    let first = origin_first_frames(modules);
    votes
        .into_iter()
        .max_by_key(|(o, c)| (*c, usize::from(*o == first)))
        .map(|(o, _)| o)
        .unwrap_or(TraceOrigin::Kernel)
}

/// One row of the Table IV correspondence.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleRow {
    /// The stack module.
    pub module: StackModule,
    /// Times it appeared in failure-window traces.
    pub occurrences: usize,
    /// Inferred causes of the failures it appeared under.
    pub causes: BTreeMap<InferredCause, usize>,
}

/// Tabulates stack modules observed in the traces preceding each failure,
/// against the failure's inferred cause.
pub fn module_table(d: &Diagnosis) -> Vec<ModuleRow> {
    let mut rows: BTreeMap<StackModule, ModuleRow> = BTreeMap::new();
    for (failure, cause) in classify_all(d) {
        let from = failure.time.saturating_sub(LOOKBACK);
        let to = failure.time + SimDuration::from_millis(1);
        for e in d.node_events_between(failure.node, from, to) {
            let Payload::Console { detail, .. } = &e.payload else {
                continue;
            };
            let modules: &[StackModule] = match detail {
                ConsoleDetail::KernelOops { modules, .. } => modules,
                ConsoleDetail::HungTaskTimeout { modules, .. } => modules,
                _ => continue,
            };
            for m in modules {
                if *m == StackModule::Generic {
                    continue;
                }
                let row = rows.entry(*m).or_insert_with(|| ModuleRow {
                    module: *m,
                    occurrences: 0,
                    causes: BTreeMap::new(),
                });
                row.occurrences += 1;
                *row.causes.entry(cause).or_insert(0) += 1;
            }
        }
    }
    rows.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DiagnosisConfig;
    use hpc_faultsim::Scenario;
    use hpc_platform::SystemId;

    #[test]
    fn first_frames_heuristic() {
        assert_eq!(
            origin_first_frames(&[StackModule::DvsIpcMsg, StackModule::LdlmBl]),
            TraceOrigin::Application
        );
        assert_eq!(
            origin_first_frames(&[StackModule::Generic, StackModule::MceLog]),
            TraceOrigin::Hardware
        );
        assert_eq!(
            origin_first_frames(&[StackModule::Generic]),
            TraceOrigin::Kernel
        );
        assert_eq!(origin_first_frames(&[]), TraceOrigin::Kernel);
    }

    #[test]
    fn vote_vs_first_frames() {
        // First frame says FS, but app frames dominate.
        let trace = [
            StackModule::LdlmBl,
            StackModule::DvsIpcMsg,
            StackModule::XpmemFault,
        ];
        assert_eq!(origin_first_frames(&trace), TraceOrigin::FileSystem);
        assert_eq!(origin_by_vote(&trace), TraceOrigin::Application);
        // Tie: falls back towards first frames.
        let tie = [StackModule::LdlmBl, StackModule::DvsIpcMsg];
        assert_eq!(origin_by_vote(&tie), origin_first_frames(&tie));
    }

    #[test]
    fn module_table_associates_mce_log_with_hardware_causes() {
        let out = Scenario::new(SystemId::S1, 2, 21, 9).run();
        let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
        let table = module_table(&d);
        assert!(!table.is_empty());
        let mce_row = table
            .iter()
            .find(|r| r.module == StackModule::MceLog)
            .expect("mce_log in failure traces");
        let hw: usize = mce_row
            .causes
            .iter()
            .filter(|(c, _)| matches!(c, InferredCause::HardwareMce | InferredCause::CpuCorruption))
            .map(|(_, n)| n)
            .sum();
        assert!(
            hw as f64 > 0.8 * mce_row.occurrences as f64,
            "mce_log mostly under hardware causes"
        );
        // dvs_ipc_msg appears and is dominated by application causes.
        if let Some(dvs) = table.iter().find(|r| r.module == StackModule::DvsIpcMsg) {
            let app: usize = dvs
                .causes
                .iter()
                .filter(|(c, _)| {
                    matches!(c, InferredCause::AppFsBug | InferredCause::MemoryExhaustion)
                })
                .map(|(_, n)| n)
                .sum();
            assert!(app as f64 > 0.7 * dvs.occurrences as f64);
        }
    }
}
