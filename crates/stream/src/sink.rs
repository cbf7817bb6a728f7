//! Pluggable alert sinks.
//!
//! The engine emits alerts and finalized failures as they settle; sinks
//! decide what to do with them. Two stock implementations: a one-line text
//! sink for an operator terminal, and a JSONL sink for downstream tooling
//! (`jq`, dashboards). JSON is emitted by hand — records are flat (`type`,
//! `time`, `time_ms`, `node`, `cname`, then `backed_by_external` for an
//! alert or `terminal` / `predicted` / `lead_mins` for a failure) and stay
//! greppable.

use std::io::Write;

use hpc_diagnosis::detection::DetectedFailure;
use hpc_diagnosis::prediction::Alert;
use hpc_logs::time::SimDuration;

/// Receiver of online diagnosis output.
pub trait AlertSink {
    /// A raised (debounced, optionally externally-gated) alert.
    fn alert(&mut self, alert: &Alert);

    /// A finalized failure. `lead` is the achieved lead time when an
    /// outstanding alert predicted it.
    fn failure(&mut self, failure: &DetectedFailure, lead: Option<SimDuration>);

    /// Flushes buffered output (called on shutdown).
    fn flush(&mut self);
}

/// Human-oriented one-line-per-record sink.
pub struct TextSink<W: Write> {
    out: W,
}

impl<W: Write> TextSink<W> {
    /// Text sink writing to `out`.
    pub fn new(out: W) -> TextSink<W> {
        TextSink { out }
    }
}

impl<W: Write> AlertSink for TextSink<W> {
    fn alert(&mut self, alert: &Alert) {
        let backing = if alert.backed_by_external {
            "externally-backed"
        } else {
            "internal-only"
        };
        let _ = writeln!(
            self.out,
            "{} ALERT   {} ({backing})",
            alert.time,
            alert.node.cname()
        );
    }

    fn failure(&mut self, failure: &DetectedFailure, lead: Option<SimDuration>) {
        let predicted = match lead {
            Some(l) => format!("predicted, lead {l}"),
            None => "unpredicted".to_string(),
        };
        let _ = writeln!(
            self.out,
            "{} FAILURE {} {:?} ({predicted})",
            failure.time,
            failure.node.cname(),
            failure.terminal
        );
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Machine-oriented JSON-lines sink.
pub struct JsonlSink<W: Write> {
    out: W,
}

impl<W: Write> JsonlSink<W> {
    /// JSONL sink writing to `out`.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink { out }
    }
}

impl<W: Write> AlertSink for JsonlSink<W> {
    fn alert(&mut self, alert: &Alert) {
        let _ = writeln!(
            self.out,
            "{{\"type\":\"alert\",\"time\":\"{}\",\"time_ms\":{},\"node\":{},\"cname\":\"{}\",\"backed_by_external\":{}}}",
            alert.time,
            alert.time.as_millis(),
            alert.node.0,
            alert.node.cname(),
            alert.backed_by_external
        );
    }

    fn failure(&mut self, failure: &DetectedFailure, lead: Option<SimDuration>) {
        let lead_mins = match lead {
            Some(l) => format!("{:.3}", l.as_mins_f64()),
            None => "null".to_string(),
        };
        let _ = writeln!(
            self.out,
            "{{\"type\":\"failure\",\"time\":\"{}\",\"time_ms\":{},\"node\":{},\"cname\":\"{}\",\"terminal\":\"{:?}\",\"predicted\":{},\"lead_mins\":{lead_mins}}}",
            failure.time,
            failure.time.as_millis(),
            failure.node.0,
            failure.node.cname(),
            failure.terminal,
            lead.is_some()
        );
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_diagnosis::detection::TerminalKind;
    use hpc_logs::time::SimTime;
    use hpc_platform::NodeId;

    fn sample_alert() -> Alert {
        Alert {
            node: NodeId(7),
            time: SimTime::from_millis(61_000),
            backed_by_external: true,
        }
    }

    fn sample_failure() -> DetectedFailure {
        DetectedFailure {
            node: NodeId(7),
            time: SimTime::from_millis(3_600_000),
            terminal: TerminalKind::SchedulerDown,
        }
    }

    #[test]
    fn jsonl_records_are_one_line_and_well_formed() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            sink.alert(&sample_alert());
            sink.failure(&sample_failure(), Some(SimDuration::from_mins(59)));
            sink.failure(&sample_failure(), None);
            sink.flush();
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(lines[0].contains("\"type\":\"alert\""));
        assert!(lines[0].contains("\"time_ms\":61000"));
        assert!(lines[0].contains("\"backed_by_external\":true"));
        assert!(lines[1].contains("\"predicted\":true"));
        assert!(lines[1].contains("\"lead_mins\":59.000"));
        assert!(lines[2].contains("\"predicted\":false"));
        assert!(lines[2].contains("\"lead_mins\":null"));
        // The cname is the operator-facing identifier.
        assert!(lines[0].contains(&format!("\"cname\":\"{}\"", NodeId(7).cname())));
    }

    #[test]
    fn text_records_are_readable_one_liners() {
        let mut buf = Vec::new();
        {
            let mut sink = TextSink::new(&mut buf);
            sink.alert(&sample_alert());
            sink.failure(&sample_failure(), None);
            sink.flush();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("ALERT"));
        assert!(text.contains("FAILURE"));
        assert!(text.contains("unpredicted"));
    }
}
