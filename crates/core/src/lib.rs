//! # hpc-diagnosis
//!
//! The paper's primary contribution as a reusable library: holistic,
//! measurement-driven diagnosis of node failures from raw text logs.
//!
//! ```text
//!   text logs ──► pipeline (parse ∥, merge, detect)
//!                 ──► store (per-class/per-entity/failure-time indexes)
//!                  ├─► root_cause     (Table IV/V rules, Fig. 15/16)
//!                  ├─► interarrival   (Fig. 3/4/19, Obs. 1)
//!                  ├─► spatial        (Fig. 7/18, Obs. 2/8)
//!                  ├─► external       (Fig. 5/6/8/9/10/11, Obs. 2/3)
//!                  ├─► jobs           (Fig. 12/17, Obs. 6)
//!                  ├─► lead_time      (Fig. 13/14, Obs. 5)
//!                  ├─► stack_trace    (Table IV)
//!                  ├─► report         (Tables V/VI)
//!                  ├─► prediction     (online predictor built on Obs. 5)
//!                  └─► advisor        (Table VI as operator actions)
//! ```
//!
//! The pipeline consumes only rendered log text (via
//! [`hpc_logs::LogArchive`]); ground truth from the fault simulator is used
//! exclusively by tests to validate the inferences.

pub mod advisor;
pub mod detection;
pub mod external;
pub mod interarrival;
pub mod jobs;
pub mod lead_time;
pub mod pipeline;
pub mod prediction;
pub mod query;
pub mod report;
pub mod root_cause;
pub mod segment;
pub mod spatial;
pub mod stack_trace;
pub mod store;
pub mod swo;
pub mod windows;

pub use detection::{DetectedFailure, TerminalKind};
pub use pipeline::{Diagnosis, DiagnosisConfig};
pub use query::{plan, HistKey, PlannedEvents, QueryFilter, StorePlan};
pub use root_cause::{CauseBreakdown, CauseClass, Fig16Bucket, InferredCause};
pub use segment::{
    open_store, write_store, DerivedState, Manifest, OpenError, OpenedStore, Scan, ScanStats,
    Store, StoreContents,
};
pub use store::{EntityIndex, EventClass, EventStore, Postings};

/// Archives that tests in more than one module read, each simulated once
/// per test binary.
#[cfg(test)]
mod fixtures {
    use hpc_logs::LogArchive;
    use std::sync::OnceLock;

    /// System S1, one cabinet, two days, seed 21.
    pub(crate) fn s1_1x2_seed21() -> &'static LogArchive {
        static ARCHIVE: OnceLock<LogArchive> = OnceLock::new();
        ARCHIVE.get_or_init(|| {
            let scenario = hpc_faultsim::Scenario::new(hpc_platform::SystemId::S1, 1, 2, 21);
            scenario.run().archive
        })
    }
}
