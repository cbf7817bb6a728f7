//! `hpc-fleet`: the always-on multi-cluster diagnosis service behind the
//! `hpc-fleetd` binary.
//!
//! The paper assesses node failures across five production systems
//! (S1–S5); `hpc-fleetd` serves that assessment continuously, for any
//! number of systems at once, with a read path that is independent of
//! ingest. Three layers, one module each:
//!
//! - [`shard`] — one supervisor-spawned thread per configured system,
//!   each owning a `StreamEngine` fed by a tailed directory, a one-shot
//!   replay, or routed stdin, optionally pre-warmed from a segment store
//!   (`Store::load_range` backfill).
//! - [`snapshot`] — the lock-light hand-off: shards publish immutable
//!   `Arc<SystemSnapshot>`s into a [`snapshot::SnapshotSlot`]; HTTP
//!   readers clone the `Arc` and never block ingest. Each body a snapshot
//!   serves (summary, window, alerts, failures, report) is rendered once
//!   per snapshot and shared; the generation is every body's `ETag`, and
//!   a matching `If-None-Match` gets a 304.
//! - [`http`] + [`server`] — a hand-rolled `std::net` threaded HTTP/1.1
//!   server (the build environment is offline; no tokio, no hyper):
//!   bounded worker pool, per-connection timeouts, pipelined keep-alive,
//!   503 + `Retry-After` backpressure at the accept queue, graceful
//!   drain on SIGINT/SIGTERM.
//!
//! Endpoints: `/v1/systems`, `/v1/systems/{id}`,
//! `/v1/systems/{id}/window`, `/v1/systems/{id}/alerts`,
//! `/v1/systems/{id}/failures`, `/v1/systems/{id}/report`,
//! `/v1/systems/{id}/query`, `/metrics`. The `query` endpoint is a
//! passthrough to the lazy segment-store planner (`--query-store`): it
//! answers count/histogram/tail/failures straight from an on-disk store
//! via [`server::QueryStore`], pruning segments on the manifest before
//! decoding a row. See DESIGN.md §9 and §11 for the architecture contract.

pub mod http;
pub mod server;
pub mod shard;
pub mod snapshot;

pub use server::{serve, Fleet, QueryStore, ServerConfig, ServerHandle};
pub use shard::{spawn, BackfillSpec, Feed, ShardConfig, ShardHandle};
pub use snapshot::{SnapshotSlot, SystemSnapshot};
