//! Node allocation.
//!
//! The allocator models dedicated-node scheduling: each node runs at most
//! one job at a time; allocations are first-fit over the node index, which
//! mimics how real schedulers produce a mix of contiguous blocks and
//! scattered fragments — giving the paper's "spatially distant nodes with
//! temporal locality of failures because of the common jobs running on
//! them" (Obs. 8).

use hpc_logs::time::SimTime;
use hpc_platform::{NodeId, Topology};

/// First-fit dedicated-node allocator.
#[derive(Debug, Clone)]
pub struct Allocator {
    /// Per-node time until which the node is busy.
    busy_until: Vec<SimTime>,
}

impl Allocator {
    /// New allocator over a topology.
    pub fn new(topology: &Topology) -> Allocator {
        Allocator {
            busy_until: vec![SimTime::EPOCH; topology.node_count() as usize],
        }
    }

    /// Attempts to allocate `count` nodes from `start` to `end`. Returns the
    /// chosen nodes (first-fit by index) or `None` if fewer than `count`
    /// nodes are free at `start`.
    pub fn allocate(&mut self, count: usize, start: SimTime, end: SimTime) -> Option<Vec<NodeId>> {
        debug_assert!(start <= end);
        let mut chosen = Vec::with_capacity(count);
        for (i, busy) in self.busy_until.iter().enumerate() {
            if *busy <= start {
                chosen.push(NodeId(i as u32));
                if chosen.len() == count {
                    break;
                }
            }
        }
        if chosen.len() < count {
            return None;
        }
        for n in &chosen {
            self.busy_until[n.index()] = end;
        }
        Some(chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_platform::SystemId;

    fn topo() -> Topology {
        Topology::miniature(SystemId::S1, 1) // 192 nodes
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn allocate_first_fit() {
        let mut a = Allocator::new(&topo());
        let got = a.allocate(3, t(0), t(100)).unwrap();
        assert_eq!(got, vec![NodeId(0), NodeId(1), NodeId(2)]);
        // Those nodes are busy until 100.
        let next = a.allocate(2, t(50), t(150)).unwrap();
        assert_eq!(next, vec![NodeId(3), NodeId(4)]);
        // After 100 the originals are free again.
        let reuse = a.allocate(1, t(100), t(200)).unwrap();
        assert_eq!(reuse, vec![NodeId(0)]);
    }

    #[test]
    fn allocation_fails_when_machine_full() {
        let mut a = Allocator::new(&topo());
        assert!(a.allocate(192, t(0), t(100)).is_some());
        assert!(a.allocate(1, t(50), t(60)).is_none());
        assert!(a.allocate(192, t(100), t(200)).is_some());
    }
}
