//! # hpc-stats
//!
//! Statistics substrate for the node-failure study: the small set of
//! estimators the paper's evaluation actually uses, implemented without
//! external dependencies.
//!
//! * [`descriptive`] — means, sample standard deviations, quantiles and the
//!   paper's `mean (±σ)` reporting convention.
//! * [`cdf`] — empirical CDFs for the inter-failure-time figures (3, 19).
//! * [`histogram`] — categorical histograms (dominant-cause and root-cause
//!   breakdowns).
//! * [`mtbf`] — inter-event gaps and MTBF summaries (Obs. 1).

pub mod cdf;
pub mod descriptive;
pub mod histogram;
pub mod mtbf;

pub use cdf::Ecdf;
pub use descriptive::Summary;
pub use histogram::CategoricalHistogram;
pub use mtbf::MtbfAnalysis;
