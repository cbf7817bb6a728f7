//! # hpc-faultsim
//!
//! Discrete-event fault-injection simulator: the stand-in for months of
//! production operation on the paper's five systems.
//!
//! * [`engine`] — deterministic priority event queue driving all stochastic
//!   processes.
//! * [`fault`] — ground-truth taxonomy ([`fault::TrueRootCause`]) and the
//!   [`fault::GroundTruth`] record used to validate the diagnosis pipeline.
//! * [`incidents`] — failure chains: how hardware, software, application
//!   and unknown-cause failures unfold across the console, controller and
//!   ERD streams, including fail-slow chains with early external indicators
//!   (Obs. 5) and NHC admindown terminals.
//! * [`noise`] — the benign majority: SEDC warnings, correctable errors,
//!   chatty blades, hung tasks, link chatter (Obs. 3/4 hinge on this).
//! * [`scenario`] — orchestration: workload + incidents + noise → one text
//!   [`hpc_logs::LogArchive`] plus ground truth.
//! * [`chaos`] — adversarial feed corruption: seeded log pathologies (torn
//!   lines, garbage bytes, duplication, reordering, clock skew, dropout)
//!   with an exact injected-corruption ledger, for hardening the ingest
//!   and streaming paths against real-world collection failures.

pub mod chaos;
pub mod engine;
pub mod fault;
pub mod incidents;
pub mod noise;
pub mod scenario;

pub use chaos::{ChaosFeed, ChaosLedger, ChaosSpec, Intensity, Pathology, RECORD_SLACK};
pub use fault::{FailureRecord, GroundTruth, RootCauseClass, TrueRootCause};
pub use incidents::ChainTiming;
pub use scenario::{Scenario, ScenarioConfig, SimOutput};
