//! # hpc-stream
//!
//! Bounded-memory *online* diagnosis over live log streams — the paper's
//! operational payoff (Obs. 5: lead-time enhancement and FPR reduction)
//! turned from a post-mortem batch pipeline into a monitoring system.
//!
//! ```text
//!   live lines ──► merger   (per-source parsers, watermark, time order)
//!                   └─► engine (cohorts) ──► window   (sliding O(window) state)
//!                                           ├─► detect  (incremental dedup)
//!                                           ├─► predict (AlertRaiser, causal)
//!                                           └─► sinks   (text / JSONL)
//! ```
//!
//! Modules:
//!
//! * [`merger`] — incremental multi-source merge: feeds raw lines to the
//!   four stateful `hpc-logs` parsers (multi-line trace continuation
//!   included), keeps one time-sorted queue per source, admits
//!   out-of-order lines within a configurable watermark, and releases
//!   through the batch run merge, so the event stream reproduces the batch
//!   pipeline's merge order exactly.
//! * [`window`] — sliding-window state: per-node indicator ring buffers,
//!   per-blade/cabinet external-event hotness, eviction past the window so
//!   memory is O(window), not O(history).
//! * [`engine`] — [`engine::StreamEngine`]: incremental failure detection
//!   and the batch predictor (`AlertRaiser`) rehosted on the stream, with
//!   per-alert lead-time bookkeeping.
//! * [`sink`] — pluggable alert sinks (stderr text, JSONL) and the one
//!   JSON and one text form of each settled alert and failure.
//! * [`follow`] — polling directory tailer for `hpc-watch --follow`:
//!   bounded block reads, cut per poll at a common time bound.
//! * [`drive`] — the one feed loop (follow / replay / routed stdin lines →
//!   engine → drain) under `hpc-watch` and every `hpc-fleetd` shard.
//! * [`heartbeat`] — periodic flat-JSON engine snapshots
//!   (`hpc-watch --heartbeat-jsonl`).
//! * [`flight`] — bounded ring buffer of recent state transitions, dumped
//!   to stderr on panic or `SIGUSR1` (DESIGN.md §7).
//! * [`signal`] — the SIGINT/SIGTERM/SIGUSR1 flags `hpc-watch` and
//!   `hpc-fleetd` poll.
//!
//! The replay guarantee (tested in `tests/equivalence.rs`): feeding a
//! finished archive through the engine and calling
//! [`engine::StreamEngine::finish`] yields the same detected-failure set
//! and the same alert set as the batch [`hpc_diagnosis::Diagnosis`] path,
//! for external gating on and off.

pub mod drive;
pub mod engine;
pub mod flight;
pub mod follow;
pub mod heartbeat;
pub mod merger;
pub mod signal;
pub mod sink;
pub mod window;

pub use engine::{StreamConfig, StreamEngine, StreamStats};
pub use flight::FlightRecorder;
pub use follow::{FollowDir, FollowStats};
pub use heartbeat::{FollowHealth, HeartbeatWriter, HEARTBEAT_VERSION};
pub use merger::StreamMerger;
pub use sink::{AlertSink, JsonlSink, TextSink};
pub use window::SlidingWindow;
