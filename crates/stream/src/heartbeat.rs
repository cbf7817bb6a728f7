//! Periodic machine-readable engine snapshots ("heartbeats").
//!
//! A live monitor is only debuggable if its internal state is visible
//! while it runs: `hpc-watch --heartbeat-jsonl <path>` appends one record
//! every `--heartbeat-secs`, plus a last record with `"final": true` on the
//! drain path, each flushed immediately so a reader (or a post-mortem)
//! always sees the newest state. `hpc-fleetd` serves the same engine
//! state over HTTP (`/v1/systems/{id}`, `/window`).
//!
//! The schema is flat on purpose — `jq` one-liners and dashboard scrapers
//! should not need path expressions:
//!
//! ```json
//! {"v": 1, "seq": 3, "uptime_ms": 15000, "final": false,
//!  "watermark_lag_ms": 0, "merger_buffered": 12,
//!  "window_events": 345, "window_peak": 400, "window_evicted": 120,
//!  "lines": 10000, "events": 9000, "late_events": 0, "skipped_lines": 2,
//!  "alerts": 4, "alerts_outstanding": 2, "alerts_expired": 1,
//!  "failures": 3, "predicted_failures": 2, "missed_failures": 1,
//!  "follow_quarantined": 1, "follow_quarantined_sources": ["erd"],
//!  "follow_io_errors": 0, "follow_rotations": 1,
//!  "follow_recoveries": 0, "follow_invalid_utf8": 0}
//! ```
//!
//! The `follow_*` fields appear only in `--follow` mode. `v` is the
//! heartbeat schema version; additive changes keep it, breaking changes
//! bump it.

use std::io::Write;

use hpc_logs::event::LogSource;
use hpc_telemetry::json::JsonValue;

use crate::engine::StreamStats;
use crate::follow::FollowStats;

/// Heartbeat schema version emitted in every record.
pub const HEARTBEAT_VERSION: u64 = 1;

/// Follow-mode fields of a heartbeat: cumulative [`FollowStats`] plus the
/// currently quarantined source set. Built via
/// [`crate::follow::FollowDir::health`] so every consumer — periodic
/// beat, drain-path final record, fleetd snapshot — samples the same
/// state; `follow_quarantined` is derived from the set, never counted
/// separately, so a count/set disagreement is unrepresentable.
#[derive(Debug, Clone)]
pub struct FollowHealth {
    /// Cumulative tailer degradation counters.
    pub stats: FollowStats,
    /// Sources currently in error backoff, in [`LogSource::ALL`] order.
    pub quarantined_sources: Vec<LogSource>,
}

impl FollowHealth {
    /// Number of sources currently in error backoff.
    pub fn quarantined(&self) -> usize {
        self.quarantined_sources.len()
    }
}

/// Renders one heartbeat as a single JSON line (no trailing newline).
///
/// `seq` numbers records from 0 within one process run; `uptime_ms` is
/// wall time since the monitor started; `last` marks the drain-path
/// record written after [`crate::engine::StreamEngine::finish`].
fn heartbeat_line(
    seq: u64,
    uptime_ms: u64,
    last: bool,
    stats: &StreamStats,
    outstanding_alerts: usize,
    follow: Option<&FollowHealth>,
) -> String {
    let n = |v: u64| JsonValue::Number(v as f64);
    let mut fields = vec![
        ("v".to_string(), n(HEARTBEAT_VERSION)),
        ("seq".to_string(), n(seq)),
        ("uptime_ms".to_string(), n(uptime_ms)),
        ("final".to_string(), JsonValue::Bool(last)),
        (
            "watermark_lag_ms".to_string(),
            n(stats.watermark_lag.as_millis()),
        ),
        (
            "merger_buffered".to_string(),
            n(stats.merger_buffered as u64),
        ),
        ("window_events".to_string(), n(stats.window_events as u64)),
        ("window_peak".to_string(), n(stats.window_peak as u64)),
        ("window_evicted".to_string(), n(stats.window_evicted)),
        ("lines".to_string(), n(stats.lines)),
        ("events".to_string(), n(stats.events)),
        ("late_events".to_string(), n(stats.late_events)),
        ("skipped_lines".to_string(), n(stats.skipped_lines)),
        ("alerts".to_string(), n(stats.alerts)),
        (
            "alerts_outstanding".to_string(),
            n(outstanding_alerts as u64),
        ),
        ("alerts_expired".to_string(), n(stats.expired_alerts)),
        ("failures".to_string(), n(stats.failures)),
        (
            "predicted_failures".to_string(),
            n(stats.predicted_failures),
        ),
        ("missed_failures".to_string(), n(stats.missed_failures)),
    ];
    if let Some(f) = follow {
        fields.extend([
            ("follow_quarantined".to_string(), n(f.quarantined() as u64)),
            (
                "follow_quarantined_sources".to_string(),
                JsonValue::Array(
                    f.quarantined_sources
                        .iter()
                        .map(|s| JsonValue::String(s.key().to_string()))
                        .collect(),
                ),
            ),
            ("follow_io_errors".to_string(), n(f.stats.io_errors)),
            ("follow_rotations".to_string(), n(f.stats.rotations)),
            ("follow_recoveries".to_string(), n(f.stats.recoveries)),
            ("follow_invalid_utf8".to_string(), n(f.stats.invalid_utf8)),
        ]);
    }
    JsonValue::Object(fields).to_string()
}

/// Sequenced heartbeat emission with the **single-final invariant**: a
/// stream of records contains exactly one `"final": true` record, and it
/// is the last line ever written.
///
/// The invariant is enforced here, at the emit layer, rather than in the
/// caller's control flow: if a SIGINT/SIGTERM drain races the EOF drain
/// (both paths legitimately try to write the closing record), the second
/// final — and any stray periodic beat scheduled after the final — is
/// silently dropped. Every accepted record is flushed immediately so the
/// newest state survives any exit.
#[derive(Debug)]
pub struct HeartbeatWriter<W: Write> {
    out: W,
    seq: u64,
    final_written: bool,
}

impl<W: Write> HeartbeatWriter<W> {
    /// Wraps `out`; records are appended one JSON line at a time.
    pub fn new(out: W) -> HeartbeatWriter<W> {
        HeartbeatWriter {
            out,
            seq: 0,
            final_written: false,
        }
    }

    /// Emits one heartbeat unless the final record has already been
    /// written; returns whether a line was actually written. Passing
    /// `last = true` writes the final record and seals the writer.
    pub fn beat(
        &mut self,
        uptime_ms: u64,
        last: bool,
        stats: &StreamStats,
        outstanding_alerts: usize,
        follow: Option<&FollowHealth>,
    ) -> bool {
        if self.final_written {
            return false;
        }
        let line = heartbeat_line(self.seq, uptime_ms, last, stats, outstanding_alerts, follow);
        let _ = writeln!(self.out, "{line}");
        let _ = self.out.flush();
        self.seq += 1;
        if last {
            self.final_written = true;
        }
        true
    }

    /// Records emitted so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_logs::time::SimDuration;
    use hpc_telemetry::json;

    fn stats() -> StreamStats {
        StreamStats {
            lines: 100,
            skipped_lines: 2,
            events: 90,
            late_events: 1,
            alerts: 4,
            failures: 3,
            predicted_failures: 2,
            missed_failures: 1,
            expired_alerts: 1,
            merger_buffered: 12,
            window_events: 345,
            window_peak: 400,
            window_evicted: 120,
            watermark_lag: SimDuration::from_mins(1),
        }
    }

    #[test]
    fn line_is_single_line_json_with_flat_fields() {
        let line = heartbeat_line(3, 15_000, false, &stats(), 2, None);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("v").unwrap().as_number(), Some(1.0));
        assert_eq!(v.get("seq").unwrap().as_number(), Some(3.0));
        assert_eq!(v.get("final"), Some(&JsonValue::Bool(false)));
        assert_eq!(
            v.get("watermark_lag_ms").unwrap().as_number(),
            Some(60_000.0)
        );
        assert_eq!(v.get("alerts_outstanding").unwrap().as_number(), Some(2.0));
        assert_eq!(v.get("window_events").unwrap().as_number(), Some(345.0));
        assert!(v.get("follow_quarantined").is_none());
    }

    #[test]
    fn follow_fields_appear_only_in_follow_mode() {
        let follow = FollowHealth {
            stats: FollowStats {
                io_errors: 5,
                invalid_utf8: 1,
                rotations: 2,
                quarantines: 1,
                recoveries: 1,
            },
            quarantined_sources: vec![LogSource::Erd],
        };
        let line = heartbeat_line(0, 0, true, &stats(), 0, Some(&follow));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("final"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("follow_quarantined").unwrap().as_number(), Some(1.0));
        let sources = v
            .get("follow_quarantined_sources")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(sources, &[JsonValue::String("erd".to_string())]);
        assert_eq!(v.get("follow_io_errors").unwrap().as_number(), Some(5.0));
        assert_eq!(v.get("follow_rotations").unwrap().as_number(), Some(2.0));
    }

    /// The single-final invariant: even when a signal-drain races the EOF
    /// drain (both calling `beat(..., last=true)`) and a stray periodic
    /// beat follows, exactly one final record exists and it is the last
    /// line.
    #[test]
    fn writer_emits_exactly_one_final_even_when_drains_race() {
        let mut hb = HeartbeatWriter::new(Vec::new());
        assert!(hb.beat(1_000, false, &stats(), 0, None));
        assert!(hb.beat(2_000, false, &stats(), 1, None));
        // EOF drain writes the final record ...
        assert!(hb.beat(3_000, true, &stats(), 0, None));
        assert!(hb.final_written);
        // ... then the signal drain tries again, and a periodic beat fires.
        assert!(!hb.beat(3_001, true, &stats(), 0, None));
        assert!(!hb.beat(3_002, false, &stats(), 0, None));
        assert_eq!(hb.seq(), 3);

        let text = String::from_utf8(hb.out.clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let finals: Vec<bool> = lines
            .iter()
            .map(|l| json::parse(l).unwrap().get("final") == Some(&JsonValue::Bool(true)))
            .collect();
        assert_eq!(finals, [false, false, true], "one final, and it is last");
        // Sequence numbers stay dense across the suppressed calls.
        for (i, l) in lines.iter().enumerate() {
            let v = json::parse(l).unwrap();
            assert_eq!(v.get("seq").unwrap().as_number(), Some(i as f64));
        }
    }

    #[test]
    fn writer_seals_even_if_the_first_record_is_final() {
        let mut hb = HeartbeatWriter::new(Vec::new());
        assert!(hb.beat(0, true, &stats(), 0, None));
        assert!(!hb.beat(1, false, &stats(), 0, None));
        let text = String::from_utf8(hb.out.clone()).unwrap();
        assert_eq!(text.lines().count(), 1);
    }
}
