//! The hand-picked windows behind Obs. 5 and Figs. 13/14, each defined once.
//!
//! Every module that looks back from a failure, forward from a flag or
//! across a node's alerts reads its window here; the batch analyses, the
//! batch predictor and the stream engine therefore cannot disagree. Only
//! [`EXTERNAL_WINDOW`] is also a field (`DiagnosisConfig::external_window`),
//! because `experiments ablation-window` sweeps it. DESIGN.md §4 lists these
//! with every other window and threshold the diagnosis decides.

use hpc_logs::time::SimDuration;

/// How far back from a terminal event the internal (console) precursors
/// are searched: root-cause classification (Table IV/V), stack-trace
/// attribution and the Fig. 13 *internal lead*, the baseline horizon of
/// predictors that read only the failed node's own console.
pub const LOOKBACK: SimDuration = SimDuration::from_mins(30);

/// How far back the controller/ERD streams are searched for a correlated
/// external indicator: the Fig. 13 *external lead*, the backing an alert
/// needs in the externally-gated predictor, and Fig. 14's combined flags
/// (Obs. 5: "lead times can be enhanced by about a factor of 5" by
/// external correlations). The default of `DiagnosisConfig::external_window`.
pub const EXTERNAL_WINDOW: SimDuration = SimDuration::from_hours(2);

/// How far forward a fault or a predictor flag is matched to a failure of
/// the same node: the fault→failure correspondences of Figs. 5/6 ("% NVF →
/// failure", "% NHF → failure") and a flag's true positive in Fig. 14.
pub const FAILURE_HORIZON: SimDuration = SimDuration::from_hours(6);

/// Minimum spacing between two alerts on one node. A symptom landing
/// exactly `DEBOUNCE` after the previous alert fires again. Fig. 14 counts
/// *flags*, and a predictor that flagged every line of a burst would
/// measure the log's verbosity, not its false-positive rate.
pub const DEBOUNCE: SimDuration = SimDuration::from_hours(1);
