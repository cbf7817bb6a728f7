//! The containment hierarchy of a machine and spatial queries over it.
//!
//! A [`Topology`] is built from a [`SystemProfile`] by filling cabinets
//! sequentially (Cray deployments populate complete cabinets; the last one
//! may be partial). All membership relations are pure arithmetic over the
//! dense ids of [`crate::id`], so the structure itself only stores counts.
//!
//! The spatial-correlation analysis of the paper (Fig. 7: failures on faulty
//! blades/cabinets; Fig. 18: blade failures sharing a reason; Obs. 8:
//! spatially distant nodes with temporal locality) needs exactly two
//! primitives: *membership* (which blade/cabinet does this node live in) and
//! *distance* (how far apart are two nodes physically). Both live here.

use crate::id::{BladeId, NodeId, NODES_PER_BLADE, NODES_PER_CABINET};
use crate::system::{SystemId, SystemProfile};

/// The physical layout of one system: how many cabinets/blades/nodes exist
/// and how they contain each other.
///
/// ```
/// use hpc_platform::{NodeId, SystemId, Topology};
///
/// let t = Topology::of(SystemId::S1);
/// assert_eq!(t.node_count(), 5600);
/// // Nodes in different cabinets are spatially distant (Obs. 8).
/// assert!(t.spatially_distant(NodeId(0), NodeId(200)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    profile: SystemProfile,
    nodes: u32,
    blades: u32,
    cabinets: u32,
}

impl Topology {
    /// Builds the topology for a system profile. Nodes fill blades in order;
    /// blades fill cabinets in order; the final blade/cabinet may be partial
    /// (e.g. S1's 5600 nodes = 29 full cabinets + 32 nodes).
    pub fn new(profile: SystemProfile) -> Topology {
        let nodes = profile.nodes;
        let blades = nodes.div_ceil(NODES_PER_BLADE);
        let cabinets = nodes.div_ceil(NODES_PER_CABINET);
        Topology {
            profile,
            nodes,
            blades,
            cabinets,
        }
    }

    /// Convenience constructor from a [`SystemId`].
    pub fn of(system: SystemId) -> Topology {
        Topology::new(system.profile())
    }

    /// Number of compute nodes.
    pub fn node_count(&self) -> u32 {
        self.nodes
    }

    /// Number of (possibly partial) blades.
    pub fn blade_count(&self) -> u32 {
        self.blades
    }

    /// Number of (possibly partial) cabinets.
    pub fn cabinet_count(&self) -> u32 {
        self.cabinets
    }

    /// Whether `node` is a valid node of this machine.
    fn contains_node(&self, node: NodeId) -> bool {
        node.0 < self.nodes
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes).map(NodeId)
    }

    /// Nodes of `blade` that actually exist (the trailing blade of the
    /// machine may host fewer than four nodes).
    pub fn blade_nodes(&self, blade: BladeId) -> impl Iterator<Item = NodeId> + '_ {
        blade.nodes().filter(move |n| self.contains_node(*n))
    }

    /// Physical distance proxy between two nodes, used to decide whether
    /// co-failing nodes are "spatially distant" (Obs. 8):
    ///
    /// * 0 — same blade
    /// * 1 — same chassis, different blade
    /// * 2 — same cabinet, different chassis
    /// * 3 — different cabinet, same machine-room row
    /// * 4 — different row
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        if a.blade() == b.blade() {
            0
        } else if a.chassis() == b.chassis() {
            1
        } else if a.cabinet() == b.cabinet() {
            2
        } else if a.cabinet().row() == b.cabinet().row() {
            3
        } else {
            4
        }
    }

    /// Whether two nodes are "spatially distant" in the paper's sense
    /// (different blades, typically different cabinets).
    pub fn spatially_distant(&self, a: NodeId, b: NodeId) -> bool {
        self.distance(a, b) >= 2
    }

    /// Validity check used by property tests: every node maps into a valid
    /// blade/chassis/cabinet and the counts are mutually consistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.blades != self.nodes.div_ceil(NODES_PER_BLADE) {
            return Err(format!(
                "blade count {} inconsistent with node count {}",
                self.blades, self.nodes
            ));
        }
        if self.cabinets != self.nodes.div_ceil(NODES_PER_CABINET) {
            return Err(format!(
                "cabinet count {} inconsistent with node count {}",
                self.cabinets, self.nodes
            ));
        }
        let last = NodeId(self.nodes - 1);
        if last.blade().0 >= self.blades || last.cabinet().0 >= self.cabinets {
            return Err("last node maps outside machine".into());
        }
        Ok(())
    }

    /// A deliberately small topology for tests and examples: `cabinets`
    /// complete cabinets of the given system flavour.
    pub fn miniature(system: SystemId, cabinets: u32) -> Topology {
        let mut profile = system.profile();
        profile.nodes = cabinets * NODES_PER_CABINET;
        Topology::new(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::BLADES_PER_CABINET;

    #[test]
    fn s1_topology_counts() {
        let t = Topology::of(SystemId::S1);
        assert_eq!(t.node_count(), 5600);
        assert_eq!(t.blade_count(), 1400); // 5600/4
        assert_eq!(t.cabinet_count(), 30); // ceil(5600/192) = 30
        t.validate().unwrap();
    }

    #[test]
    fn all_systems_validate() {
        for s in SystemId::ALL {
            Topology::of(s).validate().unwrap();
        }
    }

    #[test]
    fn distance_levels() {
        let t = Topology::of(SystemId::S1);
        let a = NodeId(0);
        assert_eq!(t.distance(a, NodeId(1)), 0, "same blade");
        assert_eq!(t.distance(a, NodeId(NODES_PER_BLADE)), 1, "same chassis");
        assert_eq!(
            t.distance(a, NodeId(NODES_PER_BLADE * 16)),
            2,
            "same cabinet, next chassis"
        );
        assert_eq!(t.distance(a, NodeId(NODES_PER_CABINET)), 3, "same row");
        let far = NodeId(NODES_PER_CABINET * 8); // cabinet 8 = row 1
        assert_eq!(t.distance(a, far), 4, "different row");
        assert!(t.spatially_distant(a, far));
        assert!(!t.spatially_distant(a, NodeId(1)));
    }

    #[test]
    fn distance_is_symmetric() {
        let t = Topology::of(SystemId::S2);
        for (x, y) in [(0u32, 5u32), (17, 955), (1000, 4000)] {
            assert_eq!(
                t.distance(NodeId(x), NodeId(y)),
                t.distance(NodeId(y), NodeId(x))
            );
        }
    }

    #[test]
    fn miniature_builds_exact_cabinets() {
        let t = Topology::miniature(SystemId::S1, 2);
        assert_eq!(t.node_count(), 2 * NODES_PER_CABINET);
        assert_eq!(t.cabinet_count(), 2);
        assert_eq!(t.blade_count(), 2 * BLADES_PER_CABINET);
        t.validate().unwrap();
    }
}
