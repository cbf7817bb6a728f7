//! Pluggable alert sinks, and the one form of each record they write.
//!
//! The engine emits alerts and finalized failures as they settle; sinks
//! decide what to do with them. Each record has exactly one JSON form
//! ([`alert_json`], [`failure_json`]) and one text form ([`alert_text`],
//! [`failure_text`]). The two stock sinks — a one-line text sink for an
//! operator terminal and a JSONL sink for downstream tooling (`jq`,
//! dashboards) — write through them, and so do `hpc-watch`'s flight
//! recorder and `hpc-fleetd`'s `/alerts`, `/failures` and `/report`. The
//! JSON records are flat (`type`, `time`, `time_ms`, `node`, `cname`, then
//! `backed_by_external` for an alert or `terminal` / `predicted` /
//! `lead_mins` for a failure) and stay greppable.

use std::io::Write;

use hpc_diagnosis::detection::DetectedFailure;
use hpc_diagnosis::prediction::Alert;
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::NodeId;
use hpc_telemetry::json::JsonValue;

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

/// The JSON record of `alert`: one `--alerts-jsonl` line, one `/alerts`
/// entry.
pub fn alert_json(alert: &Alert) -> JsonValue {
    let tail = [(
        "backed_by_external",
        JsonValue::Bool(alert.backed_by_external),
    )];
    record("alert", alert.time, alert.node, tail)
}

/// The JSON record of `failure`, predicted with `lead` or missed (`None`):
/// one `--alerts-jsonl` line, one `/failures` entry.
pub fn failure_json(failure: &DetectedFailure, lead: Option<SimDuration>) -> JsonValue {
    let terminal = JsonValue::String(format!("{:?}", failure.terminal));
    let lead_mins = lead.map_or(JsonValue::Null, |l| JsonValue::Number(l.as_mins_f64()));
    let tail = [
        ("terminal", terminal),
        ("predicted", JsonValue::Bool(lead.is_some())),
        ("lead_mins", lead_mins),
    ];
    record("failure", failure.time, failure.node, tail)
}

/// The fields every record starts with, then `tail`.
fn record<const N: usize>(
    kind: &str,
    time: SimTime,
    node: NodeId,
    tail: [(&str, JsonValue); N],
) -> JsonValue {
    let head = [
        ("type", JsonValue::String(kind.to_string())),
        ("time", JsonValue::String(time.to_string())),
        ("time_ms", JsonValue::Number(time.as_millis() as f64)),
        ("node", JsonValue::Number(node.0 as f64)),
        ("cname", JsonValue::String(node.cname().to_string())),
    ];
    JsonValue::Object(
        head.into_iter()
            .chain(tail)
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The words of the text `ALERT` line that follow its time.
pub fn alert_text(alert: &Alert) -> String {
    let backing = if alert.backed_by_external {
        "externally-backed"
    } else {
        "internal-only"
    };
    format!("{} ({backing})", alert.node.cname())
}

/// The words of the text `FAILURE` line that follow its time.
pub fn failure_text(failure: &DetectedFailure, lead: Option<SimDuration>) -> String {
    let (cname, terminal) = (failure.node.cname(), failure.terminal);
    match lead {
        Some(l) => format!("{cname} {terminal:?} (predicted, lead {l})"),
        None => format!("{cname} {terminal:?} (unpredicted)"),
    }
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
        let _ = writeln!(self.out, "{} ALERT   {}", alert.time, alert_text(alert));
    }

    fn failure(&mut self, failure: &DetectedFailure, lead: Option<SimDuration>) {
        let text = failure_text(failure, lead);
        let _ = writeln!(self.out, "{} FAILURE {text}", failure.time);
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
        let _ = writeln!(self.out, "{}", alert_json(alert));
    }

    fn failure(&mut self, failure: &DetectedFailure, lead: Option<SimDuration>) {
        let _ = writeln!(self.out, "{}", failure_json(failure, lead));
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
        // Keys in their documented order; the cname is the operator-facing
        // identifier.
        let head = |kind: &str, t: SimTime| {
            format!(
                "{{\"type\":\"{kind}\",\"time\":\"{t}\",\"time_ms\":{},\"node\":7,\"cname\":\"{}\"",
                t.as_millis(),
                NodeId(7).cname()
            )
        };
        let (a, f) = (sample_alert().time, sample_failure().time);
        assert_eq!(lines[0], head("alert", a) + ",\"backed_by_external\":true}");
        assert_eq!(
            lines[1],
            head("failure", f)
                + ",\"terminal\":\"SchedulerDown\",\"predicted\":true,\"lead_mins\":59}"
        );
        assert_eq!(
            lines[2],
            head("failure", f)
                + ",\"terminal\":\"SchedulerDown\",\"predicted\":false,\"lead_mins\":null}"
        );
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
        let cname = NodeId(7).cname();
        assert_eq!(
            text,
            format!(
                "{} ALERT   {cname} (externally-backed)\n{} FAILURE {cname} SchedulerDown (unpredicted)\n",
                sample_alert().time,
                sample_failure().time
            )
        );
        let lead = SimDuration::from_mins(59);
        assert_eq!(
            failure_text(&sample_failure(), Some(lead)),
            format!("{cname} SchedulerDown (predicted, lead {lead})")
        );
    }
}
