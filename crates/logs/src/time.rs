//! Simulated time.
//!
//! All generated logs carry timestamps derived from [`SimTime`], a count of
//! milliseconds since the simulation epoch (fixed at 2016-01-01T00:00:00, in
//! the middle of the paper's 2014–2016 log window). Using simulated rather
//! than wall-clock time makes every experiment bit-for-bit reproducible.
//!
//! Timestamps render in an ISO-8601-like syslog format
//! (`2016-03-04T12:33:01.123`) and parse back exactly; the calendar
//! conversion uses Howard Hinnant's `civil_from_days` algorithm so no
//! external date crate is needed.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Milliseconds in a second.
pub const MILLIS_PER_SEC: u64 = 1_000;
/// Milliseconds in a minute.
pub const MILLIS_PER_MIN: u64 = 60 * MILLIS_PER_SEC;
/// Milliseconds in an hour.
pub const MILLIS_PER_HOUR: u64 = 60 * MILLIS_PER_MIN;
/// Milliseconds in a day.
pub const MILLIS_PER_DAY: u64 = 24 * MILLIS_PER_HOUR;
/// Milliseconds in a (7-day) week.
pub const MILLIS_PER_WEEK: u64 = 7 * MILLIS_PER_DAY;

/// Days from 1970-01-01 to the simulation epoch 2016-01-01 (16801 days).
const EPOCH_DAYS_FROM_UNIX: i64 = 16_801;

/// Days from the epoch to 10000-01-01: the longest horizon whose every
/// instant renders as a four-digit-year timestamp.
const MAX_HORIZON_DAYS: u64 = 2_916_096;

/// A point in simulated time: milliseconds since 2016-01-01T00:00:00.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Span of `n` milliseconds.
    pub const fn from_millis(n: u64) -> SimDuration {
        SimDuration(n)
    }

    /// Span of `n` seconds.
    pub const fn from_secs(n: u64) -> SimDuration {
        SimDuration(n * MILLIS_PER_SEC)
    }

    /// Span of `n` minutes.
    pub const fn from_mins(n: u64) -> SimDuration {
        SimDuration(n * MILLIS_PER_MIN)
    }

    /// Span of `n` hours.
    pub const fn from_hours(n: u64) -> SimDuration {
        SimDuration(n * MILLIS_PER_HOUR)
    }

    /// Span of `n` days.
    pub const fn from_days(n: u64) -> SimDuration {
        SimDuration(n * MILLIS_PER_DAY)
    }

    /// A simulation horizon of `n` days from the epoch, or `None` when it
    /// would end after 9999-12-31T23:59:59.999, the last instant the
    /// 23-character log timestamp can express (2,916,096 days; a larger
    /// `n` would also overflow [`SimDuration::from_days`]).
    pub const fn horizon_days(n: u64) -> Option<SimDuration> {
        if n > MAX_HORIZON_DAYS {
            None
        } else {
            Some(SimDuration::from_days(n))
        }
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Span in fractional seconds.
    fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_SEC as f64
    }

    /// Span in fractional minutes (the unit of the paper's MTBF figures).
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_MIN as f64
    }

    /// Span in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_HOUR as f64
    }
}

impl fmt::Display for SimDuration {
    /// Renders as the most natural unit: `450ms`, `12.5s`, `3.2min`, `5.1h`,
    /// `2.3d`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms < MILLIS_PER_SEC {
            write!(f, "{ms}ms")
        } else if ms < MILLIS_PER_MIN {
            write!(f, "{:.1}s", self.as_secs_f64())
        } else if ms < MILLIS_PER_HOUR {
            write!(f, "{:.1}min", self.as_mins_f64())
        } else if ms < MILLIS_PER_DAY {
            write!(f, "{:.1}h", self.as_hours_f64())
        } else {
            write!(f, "{:.1}d", ms as f64 / MILLIS_PER_DAY as f64)
        }
    }
}

impl SimTime {
    /// The simulation epoch, 2016-01-01T00:00:00.000.
    pub const EPOCH: SimTime = SimTime(0);

    /// Time `millis` ms after the epoch.
    pub const fn from_millis(millis: u64) -> SimTime {
        SimTime(millis)
    }

    /// Raw milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Which simulated day (0-based) this instant falls on.
    pub fn day_index(self) -> u64 {
        self.0 / MILLIS_PER_DAY
    }

    /// Hour of day, 0..24.
    pub fn hour_of_day(self) -> u32 {
        ((self.0 % MILLIS_PER_DAY) / MILLIS_PER_HOUR) as u32
    }

    /// Absolute difference between two instants.
    pub fn abs_diff(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.abs_diff(other.0))
    }

    /// Duration since an earlier instant; saturates to zero if `earlier` is
    /// actually later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating backwards step.
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }

    /// Breaks the instant into calendar components.
    fn to_civil(self) -> CivilTime {
        let days = (self.0 / MILLIS_PER_DAY) as i64 + EPOCH_DAYS_FROM_UNIX;
        let (year, month, day) = civil_from_days(days);
        let rem = self.0 % MILLIS_PER_DAY;
        CivilTime {
            year,
            month,
            day,
            hour: (rem / MILLIS_PER_HOUR) as u8,
            minute: ((rem % MILLIS_PER_HOUR) / MILLIS_PER_MIN) as u8,
            second: ((rem % MILLIS_PER_MIN) / MILLIS_PER_SEC) as u8,
            millisecond: (rem % MILLIS_PER_SEC) as u16,
        }
    }

    /// Parses the canonical timestamp format produced by `Display`
    /// (`2016-03-04T12:33:01.123`).
    pub fn parse(s: &str) -> Option<SimTime> {
        let b: &[u8; 23] = s.as_bytes().try_into().ok()?;
        if b[4] != b'-' || b[7] != b'-' || b[10] != b'T' {
            return None;
        }
        if b[13] != b':' || b[16] != b':' || b[19] != b'.' {
            return None;
        }
        // Fixed-width fields of ASCII digits only (no sign, no padding):
        // plain digit arithmetic, on the per-line hot path of every parser.
        let num = |range: std::ops::Range<usize>| -> Option<u64> {
            b[range].iter().try_fold(0u64, |acc, &c| {
                let digit = c.wrapping_sub(b'0');
                (digit < 10).then(|| acc * 10 + digit as u64)
            })
        };
        let year = num(0..4)? as i64;
        let month = num(5..7)? as u8;
        let day = num(8..10)? as u8;
        if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return None;
        }
        let days = days_from_civil(year, month, day) - EPOCH_DAYS_FROM_UNIX;
        if days < 0 {
            return None;
        }
        let hour = num(11..13)?;
        let minute = num(14..16)?;
        let second = num(17..19)?;
        let milli = num(20..23)?;
        if hour > 23 || minute > 59 || second > 59 {
            return None;
        }
        Some(SimTime(
            days as u64 * MILLIS_PER_DAY
                + hour * MILLIS_PER_HOUR
                + minute * MILLIS_PER_MIN
                + second * MILLIS_PER_SEC
                + milli,
        ))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds on negative spans; use [`SimTime::since`] when
    /// ordering is uncertain.
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl fmt::Display for SimTime {
    /// `2016-03-04T12:33:01.123`, built in one buffer and written once
    /// (every simulated log line starts with one). The year takes at least
    /// four digits, as `{:04}` would; a year past 9999 widens the stamp.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.to_civil();
        // Up to 20 year digits (never before the 2016 epoch, so no sign),
        // then the fixed `-MM-DDTHH:MM:SS.mmm`.
        let mut buf = *b"00000000000000000000-00-00T00:00:00.000";
        let mut start = 20;
        let mut year = c.year as u64;
        while year > 0 || start > 16 {
            start -= 1;
            buf[start] = b'0' + (year % 10) as u8;
            year /= 10;
        }
        let mut put = |at: usize, value: u16, width: usize| {
            let mut value = value;
            for slot in buf[at..at + width].iter_mut().rev() {
                *slot = b'0' + (value % 10) as u8;
                value /= 10;
            }
        };
        put(21, c.month.into(), 2);
        put(24, c.day.into(), 2);
        put(27, c.hour.into(), 2);
        put(30, c.minute.into(), 2);
        put(33, c.second.into(), 2);
        put(36, c.millisecond, 3);
        f.write_str(std::str::from_utf8(&buf[start..]).expect("ASCII digits and separators"))
    }
}

/// Calendar decomposition of a [`SimTime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CivilTime {
    /// Calendar year (e.g. 2016).
    year: i64,
    /// Month 1..=12.
    month: u8,
    /// Day of month 1..=31.
    day: u8,
    /// Hour 0..=23.
    hour: u8,
    /// Minute 0..=59.
    minute: u8,
    /// Second 0..=59.
    second: u8,
    /// Millisecond 0..=999.
    millisecond: u16,
}

/// Days since 1970-01-01 for a civil date (Hinnant's `days_from_civil`).
fn days_from_civil(y: i64, m: u8, d: u8) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m as i64 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Civil date for days since 1970-01-01 (Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_renders_as_2016() {
        assert_eq!(SimTime::EPOCH.to_string(), "2016-01-01T00:00:00.000");
    }

    #[test]
    fn leap_year_2016_has_feb_29() {
        // Jan has 31 days: day index 31 = Feb 1; Feb 29 exists in 2016.
        let feb29 = SimTime::from_millis((31 + 28) * MILLIS_PER_DAY);
        let c = feb29.to_civil();
        assert_eq!((c.year, c.month, c.day), (2016, 2, 29));
    }

    #[test]
    fn display_parse_round_trip() {
        for ms in [
            0u64,
            1,
            999,
            MILLIS_PER_SEC,
            MILLIS_PER_DAY - 1,
            MILLIS_PER_DAY,
            37 * MILLIS_PER_DAY + 5 * MILLIS_PER_HOUR + 17 * MILLIS_PER_MIN + 3_456,
            366 * MILLIS_PER_DAY, // into 2017
        ] {
            let t = SimTime::from_millis(ms);
            let s = t.to_string();
            assert_eq!(SimTime::parse(&s), Some(t), "round-trip of {s}");
        }
    }

    #[test]
    fn the_longest_horizon_ends_on_the_last_four_digit_year_instant() {
        let end = SimDuration::horizon_days(MAX_HORIZON_DAYS).unwrap();
        let last = SimTime::from_millis(end.as_millis() - 1);
        assert_eq!(last.to_string(), "9999-12-31T23:59:59.999");
        assert_eq!(SimTime::parse("9999-12-31T23:59:59.999"), Some(last));
        assert_eq!(
            (last + SimDuration::from_millis(1)).to_string(),
            "10000-01-01T00:00:00.000"
        );
        assert_eq!(SimDuration::horizon_days(MAX_HORIZON_DAYS + 1), None);
        assert_eq!(SimDuration::horizon_days(213_503_982_336), None);
        assert_eq!(SimDuration::horizon_days(u64::MAX), None);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "2016-01-01",
            "2016-01-01 00:00:00.000",
            "2016-13-01T00:00:00.000",
            "2016-01-01T25:00:00.000",
            "2016-01-01T00:61:00.000",
            "x016-01-01T00:00:00.000",
            "2015-12-31T23:59:59.999", // before epoch
        ] {
            assert_eq!(SimTime::parse(bad), None, "should reject {bad:?}");
        }
    }

    #[test]
    fn day_hour_indexing() {
        let t = SimTime::from_millis(9 * MILLIS_PER_DAY + 13 * MILLIS_PER_HOUR);
        assert_eq!(t.day_index(), 9);
        assert_eq!(t.hour_of_day(), 13);
    }

    #[test]
    fn duration_constructors_and_units() {
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2000);
        assert_eq!(SimDuration::from_mins(3).as_mins_f64(), 3.0);
        assert_eq!(SimDuration::from_hours(2).as_hours_f64(), 2.0);
    }

    #[test]
    fn duration_display_units() {
        assert_eq!(SimDuration::from_millis(450).to_string(), "450ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.0s");
        assert_eq!(SimDuration::from_mins(90).to_string(), "1.5h");
        assert_eq!(SimDuration::from_days(3).to_string(), "3.0d");
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::EPOCH + SimDuration::from_mins(5);
        assert_eq!((t - SimTime::EPOCH).as_mins_f64(), 5.0);
        assert_eq!(t.since(SimTime::EPOCH), SimDuration::from_mins(5));
        assert_eq!(SimTime::EPOCH.since(t), SimDuration::ZERO);
        assert_eq!(t.abs_diff(SimTime::EPOCH), SimDuration::from_mins(5));
        assert_eq!(SimTime::EPOCH.abs_diff(t), SimDuration::from_mins(5));
        assert_eq!(t.saturating_sub(SimDuration::from_hours(1)), SimTime::EPOCH);
    }

    #[test]
    fn civil_conversion_against_known_dates() {
        // 2016-01-01 is a Friday, 16801 days after the Unix epoch.
        assert_eq!(days_from_civil(2016, 1, 1), 16_801);
        assert_eq!(civil_from_days(16_801), (2016, 1, 1));
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(
            civil_from_days(days_from_civil(2016, 12, 31)),
            (2016, 12, 31)
        );
    }
}
