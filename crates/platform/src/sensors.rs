//! SEDC sensor model: kinds, operating ranges, thresholds and deviation
//! classification.
//!
//! Cray's System Environmental Data Collections (SEDC) samples hundreds of
//! sensors per cabinet. The paper's external analysis (Figs. 5–9, 11; Table
//! III) is built on *threshold deviations* logged by blade controllers (BC)
//! and cabinet controllers (CC): temperature, voltage, fan speed / air
//! velocity, current and power. Crucially, the paper finds most of these
//! deviations to be **benign** (Obs. 3): healthy blades routinely trip the
//! same thresholds as failing ones.
//!
//! This module defines the sensor vocabulary shared by the fault simulator
//! (which samples readings) and the diagnosis pipeline (which classifies
//! parsed warnings).

/// The kind of environmental sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SensorKind {
    /// CPU / board temperature in °C (Fig. 11 plots per-node CPU temps).
    Temperature,
    /// Supply voltage in volts.
    Voltage,
    /// Cabinet fan speed in RPM.
    FanSpeed,
    /// Cabinet air velocity in m/s (firmware reduces it under thermal load,
    /// §III-C).
    AirVelocity,
    /// Board current in amperes (ECB — electronic circuit breaker — faults
    /// relate to current monitoring).
    Current,
    /// Node power draw in watts.
    Power,
}

impl SensorKind {
    /// All sensor kinds, in ordinal order: a kind's position here is its
    /// on-disk ordinal in the segment codec, so new kinds are appended,
    /// never inserted or reordered.
    pub const ALL: [SensorKind; 6] = [
        SensorKind::Temperature,
        SensorKind::Voltage,
        SensorKind::FanSpeed,
        SensorKind::AirVelocity,
        SensorKind::Current,
        SensorKind::Power,
    ];

    /// SEDC mnemonic used in rendered log lines.
    pub fn mnemonic(self) -> &'static str {
        match self {
            SensorKind::Temperature => "TEMP",
            SensorKind::Voltage => "VOLT",
            SensorKind::FanSpeed => "FAN_RPM",
            SensorKind::AirVelocity => "AIR_VEL",
            SensorKind::Current => "CURRENT",
            SensorKind::Power => "POWER",
        }
    }

    /// Parses a mnemonic back into a kind.
    pub fn from_mnemonic(s: &str) -> Option<SensorKind> {
        SensorKind::ALL.into_iter().find(|k| k.mnemonic() == s)
    }

    /// Nominal operating range for this sensor kind: (low threshold, nominal
    /// value, high threshold). Readings outside [low, high] produce SEDC
    /// warnings. Values follow typical XC series operating envelopes.
    pub fn range(self) -> SensorRange {
        match self {
            SensorKind::Temperature => SensorRange::new(10.0, 40.0, 75.0),
            SensorKind::Voltage => SensorRange::new(11.4, 12.0, 12.6),
            SensorKind::FanSpeed => SensorRange::new(2000.0, 4800.0, 9000.0),
            SensorKind::AirVelocity => SensorRange::new(1.2, 3.0, 6.0),
            SensorKind::Current => SensorRange::new(1.0, 18.0, 40.0),
            SensorKind::Power => SensorRange::new(40.0, 280.0, 450.0),
        }
    }
}

impl std::fmt::Display for SensorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Operating envelope of a sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorRange {
    /// Minimum allowed reading; below this a `below minimum` SEDC warning is
    /// logged (the paper notes most warnings are *below-minimum* ones).
    pub low: f64,
    /// Nominal healthy reading.
    pub nominal: f64,
    /// Maximum allowed reading.
    pub high: f64,
}

impl SensorRange {
    /// Builds a range; panics if not `low <= nominal <= high` (programmer
    /// error).
    fn new(low: f64, nominal: f64, high: f64) -> SensorRange {
        assert!(
            low <= nominal && nominal <= high,
            "invalid sensor range {low} <= {nominal} <= {high}"
        );
        SensorRange { low, nominal, high }
    }

    /// Width of the healthy band.
    pub fn band(&self) -> f64 {
        self.high - self.low
    }
}

/// Outcome of classifying one sensor reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Deviation {
    /// Within the allowed envelope.
    Nominal,
    /// Below the minimum allowed threshold (most common benign warning,
    /// §III-C: warnings "predominantly contain warnings for temperature,
    /// voltage or velocity falling below the minimum allowed system
    /// threshold").
    BelowMinimum,
    /// Above the maximum allowed threshold.
    AboveMaximum,
}

impl Deviation {
    /// Every outcome, in ordinal order: a variant's position here is its on-disk
    /// ordinal in the segment codec, so new variants are appended, never
    /// inserted or reordered.
    pub const ALL: [Deviation; 3] = [
        Deviation::Nominal,
        Deviation::BelowMinimum,
        Deviation::AboveMaximum,
    ];

    /// Log text fragment.
    pub fn as_str(self) -> &'static str {
        match self {
            Deviation::Nominal => "nominal",
            Deviation::BelowMinimum => "below minimum threshold",
            Deviation::AboveMaximum => "above maximum threshold",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_well_formed() {
        for kind in SensorKind::ALL {
            let r = kind.range();
            assert!(r.low < r.nominal, "{kind:?}");
            assert!(r.nominal < r.high, "{kind:?}");
            assert!(r.band() > 0.0);
        }
    }

    #[test]
    fn mnemonic_round_trip() {
        for kind in SensorKind::ALL {
            assert_eq!(SensorKind::from_mnemonic(kind.mnemonic()), Some(kind));
        }
        assert_eq!(SensorKind::from_mnemonic("BOGUS"), None);
    }

    #[test]
    #[should_panic]
    fn invalid_range_panics() {
        SensorRange::new(10.0, 5.0, 20.0);
    }
}
