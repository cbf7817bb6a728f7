//! The timed side of each workload, run in the child process.

pub mod batch;
pub mod fleet;
pub mod follow;
pub mod store;
