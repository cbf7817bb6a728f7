//! Interconnect fabrics and link-error vocabulary.
//!
//! The paper's case studies (Table V) repeatedly reference *Aries link
//! errors* as external indicators that are "distant from the failure time" —
//! i.e. usually benign — while failed interconnect failovers are cited as a
//! recovery weakness. We model just enough of the fabric to produce
//! realistic link-error events: errors carry a class (CRC, lane degrade,
//! failover).

/// The interconnect family of a system (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterconnectKind {
    /// Cray Aries in a Dragonfly topology (S1, S3, S4).
    AriesDragonfly,
    /// Cray Gemini in a 3-D torus (S2).
    GeminiTorus,
    /// Mellanox Infiniband fat-tree (S5).
    Infiniband,
}

impl InterconnectKind {
    /// Table I display name.
    pub fn name(self) -> &'static str {
        match self {
            InterconnectKind::AriesDragonfly => "Aries Dragonfly",
            InterconnectKind::GeminiTorus => "Gemini Torus",
            InterconnectKind::Infiniband => "Infiniband",
        }
    }
}

impl std::fmt::Display for InterconnectKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Classes of interconnect error events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkErrorKind {
    /// CRC error on a lane — common, usually recovered transparently.
    Crc,
    /// Lane degrade: link renegotiated at reduced width.
    LaneDegrade,
    /// Link inactive / down, triggering a route recompute.
    LinkDown,
    /// Failover to a redundant path; the paper cites *failed* failovers
    /// (ref. \[22\]) as a recovery pain point.
    Failover {
        /// Whether the failover succeeded.
        succeeded: bool,
    },
}

impl LinkErrorKind {
    /// Every error class (a succeeded failover before a failed one), in
    /// ordinal order: a variant's position here is its on-disk ordinal in
    /// the segment codec, so new variants are appended, never inserted or
    /// reordered.
    pub const ALL: [LinkErrorKind; 5] = [
        LinkErrorKind::Crc,
        LinkErrorKind::LaneDegrade,
        LinkErrorKind::LinkDown,
        LinkErrorKind::Failover { succeeded: true },
        LinkErrorKind::Failover { succeeded: false },
    ];

    /// Log fragment for rendering.
    pub fn as_log_fragment(self) -> &'static str {
        match self {
            LinkErrorKind::Crc => "lane CRC error",
            LinkErrorKind::LaneDegrade => "lane degrade: width reduced",
            LinkErrorKind::LinkDown => "link inactive",
            LinkErrorKind::Failover { succeeded: true } => "failover completed",
            LinkErrorKind::Failover { succeeded: false } => "failover FAILED",
        }
    }

    /// Whether this error by itself threatens node health (only failed
    /// failovers and persistent link-down states do; CRC/degrade are noise).
    pub fn is_severe(self) -> bool {
        matches!(
            self,
            LinkErrorKind::LinkDown | LinkErrorKind::Failover { succeeded: false }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_classification() {
        assert!(!LinkErrorKind::Crc.is_severe());
        assert!(!LinkErrorKind::LaneDegrade.is_severe());
        assert!(LinkErrorKind::LinkDown.is_severe());
        assert!(LinkErrorKind::Failover { succeeded: false }.is_severe());
        assert!(!LinkErrorKind::Failover { succeeded: true }.is_severe());
    }
}
