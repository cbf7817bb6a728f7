//! Per-node hardware component classes.
//!
//! Fault injection targets concrete components: MCEs hit CPU caches or DIMMs
//! (the paper: "MCE log triggers (page/cache/DIMM)"), disk errors hit local
//! disks (S5), GPU errors hit GPUs (S5), and link errors hit the NIC/HSN
//! port.

/// A hardware component class within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// CPU socket (MCEs: cache errors, corruptions).
    Cpu,
    /// DRAM DIMM (correctable/uncorrectable memory errors).
    Dimm,
    /// High-speed-network NIC / Aries-Gemini port (link errors).
    Nic,
    /// Node-local disk (only on institutional clusters like S5).
    Disk,
    /// GPU accelerator (only on S5).
    Gpu,
    /// Burst-buffer SSD (S3/S4 DataWarp nodes).
    BurstBufferSsd,
}

impl Component {
    /// Every component class, in ordinal order: a variant's position here
    /// is its on-disk ordinal in the segment codec, so new variants are
    /// appended, never inserted or reordered.
    pub const ALL: [Component; 6] = [
        Component::Cpu,
        Component::Dimm,
        Component::Nic,
        Component::Disk,
        Component::Gpu,
        Component::BurstBufferSsd,
    ];

    /// Short mnemonic used in log rendering.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Component::Cpu => "CPU",
            Component::Dimm => "DIMM",
            Component::Nic => "NIC",
            Component::Disk => "DISK",
            Component::Gpu => "GPU",
            Component::BurstBufferSsd => "BB_SSD",
        }
    }
}
