//! Strongly-typed identifiers and the Cray *cname* naming scheme.
//!
//! Cray systems address every field-replaceable unit with a *cname*:
//!
//! ```text
//! c1-3c2s14n3
//! │ │ │ │   └── node   n3   (0..4 per blade)
//! │ │ │ └────── slot   s14  (0..16 blades per chassis)
//! │ │ └──────── chassis c2  (0..3 per cabinet)
//! │ └────────── cabinet row    3
//! └──────────── cabinet column 1
//! ```
//!
//! The paper's methodology (§II-A) "moves from node to blade to cabinet" by
//! joining node-internal logs against blade-controller and cabinet-controller
//! logs on these identifiers, so parsing and formatting cnames correctly is
//! load-bearing for the whole diagnosis pipeline.
//!
//! Internally every entity is a dense `u32` index (node index, blade index,
//! …) so membership maps are plain arithmetic — see [`crate::topology`].

use std::fmt;
use std::str::FromStr;

/// Nodes per blade on Cray XC/XE machines (§III: "In most Cray systems, 4
/// nodes reside in a single blade").
pub const NODES_PER_BLADE: u32 = 4;
/// Blades (slots) per chassis on Cray XC/XE machines.
pub const BLADES_PER_CHASSIS: u32 = 16;
/// Chassis per cabinet on Cray XC/XE machines.
pub const CHASSIS_PER_CABINET: u32 = 3;
/// Cabinets per physical row in the machine room; determines the
/// `c<column>-<row>` part of a cname.
pub const CABINETS_PER_ROW: u32 = 8;

/// Nodes per chassis (derived).
pub const NODES_PER_CHASSIS: u32 = NODES_PER_BLADE * BLADES_PER_CHASSIS;
/// Nodes per cabinet (derived): 192 on XC systems.
pub const NODES_PER_CABINET: u32 = NODES_PER_CHASSIS * CHASSIS_PER_CABINET;
/// Blades per cabinet (derived): 48 on XC systems.
pub const BLADES_PER_CABINET: u32 = BLADES_PER_CHASSIS * CHASSIS_PER_CABINET;

macro_rules! dense_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Raw dense index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl From<$name> for u32 {
            #[inline]
            fn from(v: $name) -> u32 {
                v.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }
    };
}

dense_id!(
    /// Dense index of a compute node within a [`crate::topology::Topology`].
    NodeId
);
dense_id!(
    /// Dense index of a blade (slot). Each blade hosts [`NODES_PER_BLADE`]
    /// nodes and one blade controller (BC).
    BladeId
);
dense_id!(
    /// Dense index of a chassis. Each chassis hosts [`BLADES_PER_CHASSIS`]
    /// blades.
    ChassisId
);
dense_id!(
    /// Dense index of a cabinet. Each cabinet hosts [`CHASSIS_PER_CABINET`]
    /// chassis and one cabinet controller (CC).
    CabinetId
);

impl NodeId {
    /// Blade containing this node.
    #[inline]
    pub fn blade(self) -> BladeId {
        BladeId(self.0 / NODES_PER_BLADE)
    }

    /// Position of this node within its blade (`n0..n3`).
    #[inline]
    pub fn slot_in_blade(self) -> u32 {
        self.0 % NODES_PER_BLADE
    }

    /// Chassis containing this node.
    #[inline]
    pub fn chassis(self) -> ChassisId {
        ChassisId(self.0 / NODES_PER_CHASSIS)
    }

    /// Cabinet containing this node.
    #[inline]
    pub fn cabinet(self) -> CabinetId {
        CabinetId(self.0 / NODES_PER_CABINET)
    }

    /// The cname of this node.
    pub fn cname(self) -> Cname {
        Cname::for_node(self)
    }
}

impl BladeId {
    /// All nodes hosted by this blade.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        let base = self.0 * NODES_PER_BLADE;
        (base..base + NODES_PER_BLADE).map(NodeId)
    }

    /// Chassis containing this blade.
    #[inline]
    pub fn chassis(self) -> ChassisId {
        ChassisId(self.0 / BLADES_PER_CHASSIS)
    }

    /// Cabinet containing this blade.
    #[inline]
    pub fn cabinet(self) -> CabinetId {
        CabinetId(self.0 / BLADES_PER_CABINET)
    }

    /// Slot number within the chassis (`s0..s15`).
    #[inline]
    fn slot_in_chassis(self) -> u32 {
        self.0 % BLADES_PER_CHASSIS
    }

    /// The cname of this blade (node part omitted), e.g. `c0-0c1s4`.
    pub fn cname(self) -> Cname {
        Cname::for_blade(self)
    }
}

impl ChassisId {
    /// Cabinet containing this chassis.
    #[inline]
    pub fn cabinet(self) -> CabinetId {
        CabinetId(self.0 / CHASSIS_PER_CABINET)
    }

    /// Chassis number within the cabinet (`c0..c2`).
    #[inline]
    fn index_in_cabinet(self) -> u32 {
        self.0 % CHASSIS_PER_CABINET
    }
}

impl CabinetId {
    /// Machine-room column of this cabinet (`c<column>-<row>`).
    #[inline]
    fn column(self) -> u32 {
        self.0 % CABINETS_PER_ROW
    }

    /// Machine-room row of this cabinet.
    #[inline]
    pub fn row(self) -> u32 {
        self.0 / CABINETS_PER_ROW
    }

    /// The cname of this cabinet, e.g. `c3-1`.
    pub fn cname(self) -> Cname {
        Cname::for_cabinet(self)
    }
}

/// A parsed Cray component name at cabinet, chassis, blade or node
/// granularity.
///
/// The granularity is encoded by which fields are present: a cabinet cname
/// (`c0-0`) has neither `chassis` nor `slot` nor `node`; a blade cname
/// (`c0-0c1s4`) has `chassis` and `slot`; a node cname (`c0-0c1s4n2`) has all
/// fields.
///
/// ```
/// use hpc_platform::{Cname, NodeId};
///
/// let c: Cname = "c0-0c1s4n2".parse().unwrap();
/// let node = c.node_id().unwrap();
/// assert_eq!(node.cname().to_string(), "c0-0c1s4n2");
/// assert_eq!(node.blade(), c.blade_id().unwrap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cname {
    /// Cabinet column in the machine room.
    pub column: u32,
    /// Cabinet row in the machine room.
    pub row: u32,
    /// Chassis within the cabinet, if addressed.
    pub chassis: Option<u32>,
    /// Blade slot within the chassis, if addressed.
    pub slot: Option<u32>,
    /// Node within the blade, if addressed.
    pub node: Option<u32>,
}

impl Cname {
    /// Cname for a whole cabinet.
    fn for_cabinet(cab: CabinetId) -> Self {
        Cname {
            column: cab.column(),
            row: cab.row(),
            chassis: None,
            slot: None,
            node: None,
        }
    }

    /// Cname for a blade.
    fn for_blade(blade: BladeId) -> Self {
        let chassis = blade.chassis();
        let cab = chassis.cabinet();
        Cname {
            column: cab.column(),
            row: cab.row(),
            chassis: Some(chassis.index_in_cabinet()),
            slot: Some(blade.slot_in_chassis()),
            node: None,
        }
    }

    /// Cname for a node.
    fn for_node(node: NodeId) -> Self {
        let mut c = Self::for_blade(node.blade());
        c.node = Some(node.slot_in_blade());
        c
    }

    /// Dense cabinet id this cname refers to.
    pub fn cabinet_id(&self) -> CabinetId {
        CabinetId(self.row * CABINETS_PER_ROW + self.column)
    }

    /// Dense blade id, if this cname addresses (at least) a blade.
    pub fn blade_id(&self) -> Option<BladeId> {
        let chassis = self.chassis?;
        let slot = self.slot?;
        let cab = self.cabinet_id();
        Some(BladeId(
            cab.0 * BLADES_PER_CABINET + chassis * BLADES_PER_CHASSIS + slot,
        ))
    }

    /// Dense node id, if this cname addresses a node.
    pub fn node_id(&self) -> Option<NodeId> {
        let blade = self.blade_id()?;
        let n = self.node?;
        Some(NodeId(blade.0 * NODES_PER_BLADE + n))
    }

    /// Granularity of the cname: 0 = cabinet, 1 = chassis, 2 = blade,
    /// 3 = node.
    pub fn granularity(&self) -> u8 {
        match (self.chassis, self.slot, self.node) {
            (None, _, _) => 0,
            (Some(_), None, _) => 1,
            (Some(_), Some(_), None) => 2,
            (Some(_), Some(_), Some(_)) => 3,
        }
    }
}

impl fmt::Display for Cname {
    /// `c0-0c1s4n2`, down to the first unaddressed level, built in one
    /// buffer and written once (most simulated log lines carry one).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Five tags and five fields of at most ten digits each.
        let mut buf = [0u8; 55];
        let mut len = 0;
        let fields = [
            (b'c', Some(self.column)),
            (b'-', Some(self.row)),
            (b'c', self.chassis),
            (b's', self.slot),
            (b'n', self.node),
        ];
        for (tag, field) in fields {
            let Some(mut value) = field else { break };
            buf[len] = tag;
            let digits = value.checked_ilog10().unwrap_or(0) as usize + 1;
            len += 1 + digits;
            for slot in buf[len - digits..len].iter_mut().rev() {
                *slot = b'0' + (value % 10) as u8;
                value /= 10;
            }
        }
        f.write_str(std::str::from_utf8(&buf[..len]).expect("ASCII tags and digits"))
    }
}

/// Error produced when parsing a malformed cname string. Carries no copy
/// of the input: the log parsers reject millions of non-cname tokens on
/// hostile archives, and a rejection must not allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CnameParseError {
    /// Human-readable reason.
    pub reason: &'static str,
}

impl fmt::Display for CnameParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid cname: {}", self.reason)
    }
}

impl std::error::Error for CnameParseError {}

impl FromStr for Cname {
    type Err = CnameParseError;

    /// Parses cnames at any granularity: `c0-0`, `c0-0c1`, `c0-0c1s4`,
    /// `c0-0c1s4n2`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason| CnameParseError { reason };
        let rest = s
            .strip_prefix('c')
            .ok_or_else(|| err("must start with 'c'"))?;
        // column until '-'
        let dash = rest
            .find('-')
            .ok_or_else(|| err("missing '-' after column"))?;
        let column: u32 = rest[..dash]
            .parse()
            .map_err(|_| err("column is not a number"))?;
        let rest = &rest[dash + 1..];
        // row until next 'c' or end
        let (row_str, rest) = match rest.find('c') {
            Some(i) => (&rest[..i], &rest[i + 1..]),
            None => (rest, ""),
        };
        let row: u32 = row_str.parse().map_err(|_| err("row is not a number"))?;
        let mut cname = Cname {
            column,
            row,
            chassis: None,
            slot: None,
            node: None,
        };
        if rest.is_empty() {
            return Ok(cname);
        }
        // chassis until 's' or end
        let (ch_str, rest) = match rest.find('s') {
            Some(i) => (&rest[..i], &rest[i + 1..]),
            None => (rest, ""),
        };
        cname.chassis = Some(ch_str.parse().map_err(|_| err("chassis is not a number"))?);
        if rest.is_empty() {
            return Ok(cname);
        }
        // slot until 'n' or end
        let (s_str, rest) = match rest.find('n') {
            Some(i) => (&rest[..i], &rest[i + 1..]),
            None => (rest, ""),
        };
        cname.slot = Some(s_str.parse().map_err(|_| err("slot is not a number"))?);
        if rest.is_empty() {
            return Ok(cname);
        }
        cname.node = Some(rest.parse().map_err(|_| err("node is not a number"))?);
        Ok(cname)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_to_blade_mapping_is_four_per_blade() {
        for raw in 0..64u32 {
            let n = NodeId(raw);
            assert_eq!(n.blade().0, raw / 4);
            assert_eq!(n.slot_in_blade(), raw % 4);
        }
    }

    #[test]
    fn blade_nodes_round_trip() {
        let blade = BladeId(17);
        let nodes: Vec<_> = blade.nodes().collect();
        assert_eq!(nodes.len(), NODES_PER_BLADE as usize);
        for n in nodes {
            assert_eq!(n.blade(), blade);
        }
    }

    #[test]
    fn chassis_and_cabinet_containment() {
        let n = NodeId(NODES_PER_CABINET + NODES_PER_CHASSIS + 5);
        assert_eq!(n.cabinet().0, 1);
        assert_eq!(n.chassis().0, CHASSIS_PER_CABINET + 1);
        assert_eq!(n.chassis().cabinet(), n.cabinet());
        assert_eq!(n.blade().cabinet(), n.cabinet());
        assert_eq!(n.blade().chassis(), n.chassis());
    }

    #[test]
    fn cabinet_row_column_layout() {
        let cab = CabinetId(CABINETS_PER_ROW + 3);
        assert_eq!(cab.row(), 1);
        assert_eq!(cab.column(), 3);
    }

    #[test]
    fn cname_display_node() {
        let n = NodeId(0);
        assert_eq!(n.cname().to_string(), "c0-0c0s0n0");
        // Node 197 = cabinet 1, chassis 0 of cab1, blade: 197/4 = 49,
        // 49 - 48 = slot 1 in chassis 3 (first chassis of cabinet 1), n1.
        let n = NodeId(197);
        let c = n.cname();
        assert_eq!(c.node_id(), Some(n));
    }

    #[test]
    fn cname_display_blade_and_cabinet() {
        assert_eq!(BladeId(0).cname().to_string(), "c0-0c0s0");
        assert_eq!(CabinetId(9).cname().to_string(), "c1-1");
    }

    #[test]
    fn cname_parse_all_granularities() {
        let cab: Cname = "c3-2".parse().unwrap();
        assert_eq!(cab.granularity(), 0);
        assert_eq!(cab.cabinet_id(), CabinetId(2 * CABINETS_PER_ROW + 3));

        let ch: Cname = "c3-2c1".parse().unwrap();
        assert_eq!(ch.granularity(), 1);
        assert_eq!(ch.chassis, Some(1));

        let bl: Cname = "c3-2c1s15".parse().unwrap();
        assert_eq!(bl.granularity(), 2);
        assert!(bl.blade_id().is_some());

        let nd: Cname = "c3-2c1s15n3".parse().unwrap();
        assert_eq!(nd.granularity(), 3);
        assert!(nd.node_id().is_some());
    }

    #[test]
    fn cname_round_trip_via_string() {
        for raw in [0u32, 1, 5, 191, 192, 1000, 5599] {
            let n = NodeId(raw);
            let s = n.cname().to_string();
            let parsed: Cname = s.parse().unwrap();
            assert_eq!(parsed.node_id(), Some(n), "cname {s}");
        }
    }

    #[test]
    fn cname_parse_rejects_garbage() {
        for bad in [
            "",
            "x0-0",
            "c-0",
            "c0",
            "c0-ac0",
            "c0-0cXs0n0",
            "c0-0c0sXn0",
        ] {
            assert!(bad.parse::<Cname>().is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn blade_cname_without_node_has_no_node_id() {
        let c: Cname = "c0-0c0s3".parse().unwrap();
        assert_eq!(c.node_id(), None);
        assert!(c.blade_id().is_some());
    }
}
