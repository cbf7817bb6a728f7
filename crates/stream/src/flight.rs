//! Flight recorder: a bounded ring buffer of recent engine state
//! transitions, dumped on demand when something goes wrong.
//!
//! A long-running monitor (`hpc-watch`) cannot keep a
//! full event log, but when it panics — or an operator sends `SIGUSR1` —
//! the last few hundred transitions (alerts raised, failures finalized,
//! quarantine flips, watermark stalls, shutdown signals) are exactly what
//! the post-mortem needs. [`FlightRecorder`] retains a fixed number of
//! entries, overwriting the oldest; [`install_global`] publishes one
//! recorder for signal handlers and the panic hook
//! ([`install_panic_hook`]) to dump without threading it through every
//! call site.
//!
//! Entries deliberately store preformatted text, not structured state:
//! the dump path must be allocation-light and must never itself fail.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One recorded transition.
#[derive(Debug, Clone)]
struct FlightEntry {
    /// Monotonic sequence number over the recorder's lifetime (not reset
    /// by eviction, so gaps in a dump reveal overwritten history).
    seq: u64,
    /// Milliseconds since the recorder was created.
    at_ms: u64,
    /// Short machine-greppable category (`alert`, `failure`, `signal`,
    /// `quarantine`, `heartbeat`, …).
    kind: &'static str,
    /// Human-readable detail.
    detail: String,
}

/// Bounded ring of recent transitions.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    next_seq: u64,
    started: Instant,
    entries: VecDeque<FlightEntry>,
}

impl FlightRecorder {
    /// Recorder retaining the most recent `capacity` entries (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            next_seq: 0,
            started: Instant::now(),
            entries: VecDeque::new(),
        }
    }

    /// Appends one transition, evicting the oldest entry when full.
    fn record(&mut self, kind: &'static str, detail: impl Into<String>) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(FlightEntry {
            seq: self.next_seq,
            at_ms: self.started.elapsed().as_millis() as u64,
            kind,
            detail: detail.into(),
        });
        self.next_seq += 1;
    }

    /// Retained entry count.
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entries overwritten by the ring so far.
    fn overwritten(&self) -> u64 {
        self.next_seq - self.entries.len() as u64
    }

    /// Writes the retained transitions as text, oldest first, framed by
    /// header/footer lines so a dump is recognisable mid-stderr.
    fn dump(&self, w: &mut dyn Write) -> io::Result<()> {
        writeln!(
            w,
            "--- flight recorder: {} of {} transitions retained ({} overwritten) ---",
            self.len(),
            self.capacity,
            self.overwritten(),
        )?;
        for e in &self.entries {
            writeln!(
                w,
                "#{:<6} +{:>8}ms {:<10} {}",
                e.seq, e.at_ms, e.kind, e.detail
            )?;
        }
        writeln!(w, "--- end flight recorder ---")
    }
}

fn global() -> &'static OnceLock<Arc<Mutex<FlightRecorder>>> {
    static GLOBAL: OnceLock<Arc<Mutex<FlightRecorder>>> = OnceLock::new();
    &GLOBAL
}

/// Publishes `recorder` as the process-wide flight recorder used by
/// [`dump_global`] and the panic hook. First call wins; returns whether
/// this call installed it.
pub fn install_global(recorder: Arc<Mutex<FlightRecorder>>) -> bool {
    global().set(recorder).is_ok()
}

/// Dumps the global recorder (if installed) to `w`. Never panics: a
/// poisoned lock still dumps — the recorder holds plain data.
pub fn dump_global(w: &mut dyn Write) {
    if let Some(rec) = global().get() {
        let rec = rec.lock().unwrap_or_else(|e| e.into_inner());
        let _ = rec.dump(w);
    }
}

/// Records into the global recorder, if one is installed.
pub fn record_global(kind: &'static str, detail: impl Into<String>) {
    if let Some(rec) = global().get() {
        rec.lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(kind, detail);
    }
}

/// Chains a panic hook that dumps the global flight recorder to stderr
/// before the previous hook (usually the default backtrace printer) runs,
/// so the last recorded transitions always accompany a crash report.
pub fn install_panic_hook() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let mut err = std::io::stderr().lock();
        dump_global(&mut err);
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_keeps_sequence() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5 {
            r.record("t", format!("event {i}"));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.overwritten(), 2);
        let seqs: Vec<u64> = r.entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
        assert!(r.entries[0].detail.contains("event 2"));
    }

    #[test]
    fn dump_frames_entries() {
        let mut r = FlightRecorder::new(8);
        r.record("alert", "node c0-0c0s3n1");
        r.record("signal", "SIGTERM");
        let mut out = Vec::new();
        r.dump(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("--- flight recorder: 2 of 8"), "{text}");
        assert!(text.contains("alert"), "{text}");
        assert!(text.contains("SIGTERM"), "{text}");
        assert!(
            text.trim_end().ends_with("--- end flight recorder ---"),
            "{text}"
        );
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = FlightRecorder::new(0);
        r.record("t", "a");
        r.record("t", "b");
        assert_eq!(r.len(), 1);
        assert_eq!(r.entries[0].detail, "b");
    }
}
