//! System profiles for the five platforms of Table I.
//!
//! | System | Duration | Log Size | Nodes | Type | Interconnect | Scheduler | FS/OS | CPU | Accel |
//! |--------|----------|----------|-------|------|--------------|-----------|-------|-----|-------|
//! | S1 | 10 mons | 37.3 GB | 5600 | Cray XC30 | Aries Dragonfly | Slurm | Lustre/SuSE | IvyBridge | — |
//! | S2 | 12 mons | 150 GB | 6400 | Cray XE6 | Gemini Torus | Torque | Lustre | IvyBridge | — |
//! | S3 | 8 mons | 39.6 GB | 2100 | Cray XC40 | Aries Dragonfly | Slurm | Lustre/SuSE | Haswell | Burst Buffer |
//! | S4 | 10 mons | 22.8 GB | 1872 | Cray XC40/XC30 | Aries Dragonfly | Torque | Lustre/CLE | Haswell/IvyBridge | Burst Buffer |
//! | S5 | 1 mon | 3.1 GB | 520 | Institutional | Infiniband | Slurm | Lustre/RedHat | Haswell | GPUs |
//!
//! (The paper's Table I lists S2 with "Lustre" under scheduler and "Torque"
//! under filesystem — an obvious typographical swap that we normalise here.)

use crate::interconnect::InterconnectKind;

/// Identifier of one of the five studied systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SystemId {
    /// 5600-node Cray XC30, Aries Dragonfly, Slurm.
    S1,
    /// 6400-node Cray XE6, Gemini Torus, Torque.
    S2,
    /// 2100-node Cray XC40 with burst buffers, Slurm.
    S3,
    /// 1872-node hybrid Cray XC40/XC30 with burst buffers, Torque.
    S4,
    /// 520-node institutional Infiniband cluster with GPUs, Slurm.
    S5,
}

impl SystemId {
    /// All five systems in paper order.
    pub const ALL: [SystemId; 5] = [
        SystemId::S1,
        SystemId::S2,
        SystemId::S3,
        SystemId::S4,
        SystemId::S5,
    ];

    /// Short name as used in the paper ("S1" …).
    pub fn name(self) -> &'static str {
        match self {
            SystemId::S1 => "S1",
            SystemId::S2 => "S2",
            SystemId::S3 => "S3",
            SystemId::S4 => "S4",
            SystemId::S5 => "S5",
        }
    }

    /// The Table I profile for this system.
    pub fn profile(self) -> SystemProfile {
        SystemProfile::of(self)
    }
}

impl std::fmt::Display for SystemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Job scheduler running on a system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Slurm workload manager (S1, S3, S5).
    Slurm,
    /// Torque/PBS (S2, S4).
    Torque,
}

impl SchedulerKind {
    /// Human-readable name.
    fn name(self) -> &'static str {
        match self {
            SchedulerKind::Slurm => "Slurm",
            SchedulerKind::Torque => "Torque",
        }
    }
}

/// Parallel file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileSystemKind {
    /// Lustre parallel filesystem (all Cray systems).
    Lustre,
    /// Node-local filesystem (S5's hung-task I/O pathology, Fig. 15).
    Local,
}

impl FileSystemKind {
    /// Human-readable name.
    fn name(self) -> &'static str {
        match self {
            FileSystemKind::Lustre => "Lustre",
            FileSystemKind::Local => "Local",
        }
    }
}

/// Processor generation (affects MCE flavour strings only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessorKind {
    /// Intel Ivy Bridge (S1, S2).
    IvyBridge,
    /// Intel Haswell (S3, S5).
    Haswell,
    /// Mixed Haswell/Ivy Bridge partitions (S4).
    Mixed,
}

impl ProcessorKind {
    /// Human-readable name.
    fn name(self) -> &'static str {
        match self {
            ProcessorKind::IvyBridge => "IvyBridge",
            ProcessorKind::Haswell => "Haswell",
            ProcessorKind::Mixed => "Haswell/IvyBridge",
        }
    }
}

/// Accelerator / auxiliary hardware present on the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Accelerator {
    /// No accelerators (S1, S2).
    None,
    /// DataWarp burst buffer nodes (S3, S4).
    BurstBuffer,
    /// GPU nodes (S5).
    Gpu,
}

impl Accelerator {
    /// Human-readable name.
    fn name(self) -> &'static str {
        match self {
            Accelerator::None => "-",
            Accelerator::BurstBuffer => "Burst Buffer",
            Accelerator::Gpu => "GPUs",
        }
    }
}

/// Complete Table I row for one system, plus derived simulation parameters.
/// Profiles carry `&'static str` display fields and are reconstructed from
/// [`SystemId`], never read back from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemProfile {
    /// Which system this is.
    pub id: SystemId,
    /// Months of logs analysed in the paper.
    pub duration_months: u32,
    /// Total log volume analysed, in GB.
    pub log_size_gb: f64,
    /// Number of compute nodes.
    pub nodes: u32,
    /// Machine family, e.g. "Cray XC30".
    pub machine: &'static str,
    /// Interconnect fabric.
    pub interconnect: InterconnectKind,
    /// Job scheduler.
    pub scheduler: SchedulerKind,
    /// Parallel file system.
    pub filesystem: FileSystemKind,
    /// Operating system name.
    pub os: &'static str,
    /// Processor generation.
    pub processor: ProcessorKind,
    /// Accelerators / burst buffers.
    pub accelerator: Accelerator,
    /// Whether blade/cabinet-controller environmental logs exist. The paper
    /// had none for S5 (§II: "We did not have external environmental logs
    /// for S5").
    pub has_environmental_logs: bool,
}

impl SystemProfile {
    /// Table I row for the given system.
    fn of(id: SystemId) -> SystemProfile {
        match id {
            SystemId::S1 => SystemProfile {
                id,
                duration_months: 10,
                log_size_gb: 37.3,
                nodes: 5600,
                machine: "Cray XC30",
                interconnect: InterconnectKind::AriesDragonfly,
                scheduler: SchedulerKind::Slurm,
                filesystem: FileSystemKind::Lustre,
                os: "SuSE",
                processor: ProcessorKind::IvyBridge,
                accelerator: Accelerator::None,
                has_environmental_logs: true,
            },
            SystemId::S2 => SystemProfile {
                id,
                duration_months: 12,
                log_size_gb: 150.0,
                nodes: 6400,
                machine: "Cray XE6",
                interconnect: InterconnectKind::GeminiTorus,
                scheduler: SchedulerKind::Torque,
                filesystem: FileSystemKind::Lustre,
                os: "CLE",
                processor: ProcessorKind::IvyBridge,
                accelerator: Accelerator::None,
                has_environmental_logs: true,
            },
            SystemId::S3 => SystemProfile {
                id,
                duration_months: 8,
                log_size_gb: 39.6,
                nodes: 2100,
                machine: "Cray XC40",
                interconnect: InterconnectKind::AriesDragonfly,
                scheduler: SchedulerKind::Slurm,
                filesystem: FileSystemKind::Lustre,
                os: "SuSE",
                processor: ProcessorKind::Haswell,
                accelerator: Accelerator::BurstBuffer,
                has_environmental_logs: true,
            },
            SystemId::S4 => SystemProfile {
                id,
                duration_months: 10,
                log_size_gb: 22.8,
                nodes: 1872,
                machine: "Cray XC40/XC30",
                interconnect: InterconnectKind::AriesDragonfly,
                scheduler: SchedulerKind::Torque,
                filesystem: FileSystemKind::Lustre,
                os: "CLE",
                processor: ProcessorKind::Mixed,
                accelerator: Accelerator::BurstBuffer,
                has_environmental_logs: true,
            },
            SystemId::S5 => SystemProfile {
                id,
                duration_months: 1,
                log_size_gb: 3.1,
                nodes: 520,
                machine: "Institutional",
                interconnect: InterconnectKind::Infiniband,
                scheduler: SchedulerKind::Slurm,
                filesystem: FileSystemKind::Local,
                os: "RedHat",
                processor: ProcessorKind::Haswell,
                accelerator: Accelerator::Gpu,
                has_environmental_logs: false,
            },
        }
    }

    /// Renders this profile as a Table I row (pipe-separated), used by the
    /// `experiments table1` harness.
    pub fn table_row(&self) -> String {
        format!(
            "{} | {} mons | {}GB | {} | {} | {} | {} | {}/{} | {} | {}",
            self.id.name(),
            self.duration_months,
            self.log_size_gb,
            self.nodes,
            self.machine,
            self.interconnect.name(),
            self.scheduler.name(),
            self.filesystem.name(),
            self.os,
            self.processor.name(),
            self.accelerator.name(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_match_table1_headline_numbers() {
        let s1 = SystemId::S1.profile();
        assert_eq!(s1.nodes, 5600);
        assert_eq!(s1.duration_months, 10);
        assert_eq!(s1.scheduler, SchedulerKind::Slurm);
        assert!(s1.has_environmental_logs);

        let s2 = SystemId::S2.profile();
        assert_eq!(s2.nodes, 6400);
        assert_eq!(s2.interconnect, InterconnectKind::GeminiTorus);
        assert_eq!(s2.scheduler, SchedulerKind::Torque);

        let s3 = SystemId::S3.profile();
        assert_eq!(s3.nodes, 2100);
        assert_eq!(s3.accelerator, Accelerator::BurstBuffer);

        let s4 = SystemId::S4.profile();
        assert_eq!(s4.nodes, 1872);

        let s5 = SystemId::S5.profile();
        assert_eq!(s5.nodes, 520);
        assert!(!s5.has_environmental_logs);
        assert_eq!(s5.filesystem, FileSystemKind::Local);
    }

    #[test]
    fn table_row_contains_key_fields() {
        let row = SystemId::S1.profile().table_row();
        assert!(row.contains("S1"));
        assert!(row.contains("5600"));
        assert!(row.contains("Aries Dragonfly"));
        assert!(row.contains("Slurm"));
    }
}
