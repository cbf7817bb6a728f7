//! # hpc-sched
//!
//! Slurm/Torque-like scheduler simulation for the node-failure study:
//! workload generation, dedicated-node allocation (including the Fig. 17
//! memory-overallocation bug), the node health checker, and the rendering
//! of job lifecycles into scheduler log events.
//!
//! Division of labour with `hpc-faultsim`: this crate decides *what runs
//! where and how jobs end absent failures*; the fault simulator injects
//! incidents against the resulting [`job::JobTimeline`], truncates the jobs
//! that lose nodes, and only then is the final timeline rendered into the
//! scheduler log stream by [`events::scheduler_events`].

pub mod allocator;
pub mod events;
pub mod job;
pub mod nhc;
pub mod workload;

pub use allocator::Allocator;
pub use job::{Job, JobTimeline};
pub use workload::{generate_workload, WorkloadConfig};
