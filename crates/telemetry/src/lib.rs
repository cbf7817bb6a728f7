//! # hpc-telemetry
//!
//! Zero-dependency observability substrate for the simulate→diagnose
//! pipeline: every stage of the fault simulator and diagnosis pipeline
//! reports wall time, throughput and drop counts through the global
//! registry defined here, giving later performance work a baseline to
//! beat (the paper's methodology mines ~250 GB of raw logs; at that
//! scale a pipeline without per-stage introspection is a black box).
//!
//! Three primitives, one registry:
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free metrics,
//!   interned by name via [`counter`]/[`gauge`]/[`histogram`].
//! - [`Span`] (via [`span!`]) — RAII stage timer; on drop it feeds
//!   `<stage>.time_us` and `<stage>.calls`, accumulates into the retained
//!   span tree ([`SpanNode`], rendered by [`profile_table`] with per-node
//!   wall/self time and call counts), and with `HPC_TRACE=1` emits a
//!   nested enter/exit trace on stderr.
//! - [`Snapshot`] — one consistent read of the registry;
//!   [`summary_table`] renders the per-stage table the CLIs print,
//!   [`Snapshot::to_json`] the full registry as JSON (`--telemetry-json`).
//!
//! Metric names follow `<crate>.<stage>.<metric>` (e.g.
//! `core.ingest.merge.time_us`, `faultsim.events.fatal_mce`); the
//! pipeline-wide ingest totals live under the shared `ingest.` prefix
//! (`ingest.lines`, `ingest.events`, `ingest.skipped_lines`).
//!
//! ```
//! {
//!     let _span = hpc_telemetry::span!("demo.stage");
//!     hpc_telemetry::counter("demo.items").add(3);
//! }
//! let snap = hpc_telemetry::snapshot();
//! assert_eq!(snap.counter("demo.items"), Some(3));
//! assert_eq!(snap.histogram("demo.stage.time_us").unwrap().count, 1);
//! // Machine-readable round trip.
//! let back = hpc_telemetry::Snapshot::from_json(&snap.to_json()).unwrap();
//! assert_eq!(back.counter("demo.items"), Some(3));
//! ```
//!
//! Disabled-by-default costs: tracing is off unless requested, and the
//! instrumentation updates metrics at stage granularity (a handful of
//! atomic ops per pipeline run).

pub mod cli;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod registry;
pub mod span;

pub use cli::{exit_report, probe_writable, Flags};
pub use metrics::{Bucket, Counter, Gauge, Histogram, HistogramSnapshot};
pub use recorder::{profile_table, summary_table};
pub use registry::{counter, gauge, histogram, reset, snapshot, Registry, Snapshot};
pub use span::{set_trace, set_trace_writer, tree_snapshot, Span, SpanNode};
