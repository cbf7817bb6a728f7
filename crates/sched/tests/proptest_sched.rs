//! Property tests over the scheduler substrate: allocation exclusivity,
//! workload invariants, and scheduler-event round trips.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::{NodeId, SystemId, Topology};
use hpc_sched::allocator::Allocator;
use hpc_sched::events::scheduler_events;
use hpc_sched::job::Job;
use hpc_sched::workload::{generate_workload, WorkloadConfig, NODE_MEM_MIB};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// First-fit allocation never double-books a node.
    #[test]
    fn allocator_exclusivity(ops in prop::collection::vec((0u64..10_000, 1u64..500, 1usize..20), 1..60)) {
        let topo = Topology::miniature(SystemId::S1, 1); // 192 nodes
        let mut alloc = Allocator::new(&topo);
        let mut leases: Vec<(Vec<NodeId>, SimTime, SimTime)> = Vec::new();
        for (start_ms, dur_ms, count) in ops {
            let start = SimTime::from_millis(start_ms);
            let end = start + SimDuration::from_millis(dur_ms);
            if let Some(nodes) = alloc.allocate(count, start, end) {
                prop_assert_eq!(nodes.len(), count);
                // No overlap with any live lease on the same node.
                for (other_nodes, os, oe) in &leases {
                    let overlap = start < *oe && *os < end;
                    if overlap {
                        for n in &nodes {
                            prop_assert!(
                                !other_nodes.contains(n),
                                "node {n} double-booked"
                            );
                        }
                    }
                }
                leases.push((nodes, start, end));
            }
        }
    }

    /// Generated workloads keep every invariant regardless of knobs.
    #[test]
    fn workload_invariants(
        seed in 0u64..1_000,
        arrivals in 5.0f64..80.0,
        large_prob in 0.0f64..0.4,
        overalloc in 0.0f64..0.5,
    ) {
        let topo = Topology::miniature(SystemId::S1, 1);
        let cfg = WorkloadConfig {
            arrivals_per_hour: arrivals,
            large_job_prob: large_prob,
            large_nodes: (8, 64),
            overalloc_job_prob: overalloc,
            ..WorkloadConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let tl = generate_workload(&topo, &cfg, SimDuration::from_hours(12), &mut rng);
        for j in tl.jobs() {
            prop_assert!(j.start < j.end);
            prop_assert!(!j.nodes.is_empty());
            prop_assert!(j.nodes.iter().all(|n| n.0 < topo.node_count()));
            prop_assert_eq!(j.exit_code, Job::exit_code_for(j.end_reason));
            for n in &j.overallocated_nodes {
                prop_assert!(j.nodes.contains(n));
            }
            if !j.overallocated_nodes.is_empty() {
                prop_assert!(j.mem_per_node_mib > NODE_MEM_MIB);
            }
        }
        // Dedicated nodes: sample instants for exclusivity.
        for h in 0..12u64 {
            let t = SimTime::from_millis(h * 3_600_000);
            let mut seen = std::collections::BTreeSet::new();
            for j in tl.active_at(t) {
                for n in &j.nodes {
                    prop_assert!(seen.insert(*n), "node {n} double-booked at {t}");
                }
            }
        }
    }

    /// The scheduler event stream is chronological and every emitted event
    /// parses back from its rendered text.
    #[test]
    fn scheduler_stream_renders_and_parses(seed in 0u64..500) {
        use hpc_logs::event::LogSource;
        use hpc_logs::parse::LogParser;
        use hpc_logs::render::render;
        use hpc_platform::system::SchedulerKind;

        let topo = Topology::miniature(SystemId::S1, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let tl = generate_workload(
            &topo,
            &WorkloadConfig {
                arrivals_per_hour: 20.0,
                overalloc_job_prob: 0.1,
                ..WorkloadConfig::default()
            },
            SimDuration::from_hours(6),
            &mut rng,
        );
        let events = scheduler_events(&tl);
        prop_assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        let mut parser = LogParser::new();
        let mut out = Vec::new();
        for e in &events {
            for line in render(e, SchedulerKind::Slurm) {
                prop_assert!(parser.parse_line(LogSource::Scheduler, &line, &mut out));
            }
        }
        parser.finish(&mut out);
        prop_assert_eq!(out, events);
    }
}
