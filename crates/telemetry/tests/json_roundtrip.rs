//! JSON sink round-trip: serialize → parse → identical totals.

use hpc_telemetry::{Registry, Snapshot};

fn populated_registry() -> Registry {
    let r = Registry::new();
    r.counter("ingest.lines").add(123_456);
    r.counter("ingest.skipped_lines").add(7);
    r.counter("core.detect.failures").add(42);
    r.gauge("core.ingest.threads").set(4.0);
    r.gauge("faultsim.wall_us_per_sim_day").set(1234.5);
    let h = r.histogram("core.ingest.parse.time_us");
    for v in [0u64, 1, 2, 3, 900, 1023, 1024, 50_000, 1_000_000] {
        h.record(v);
    }
    r
}

#[test]
fn snapshot_round_trips_through_json() {
    let snap = populated_registry().snapshot();
    let json = snap.to_json();
    let back = Snapshot::from_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
    assert_eq!(back, snap, "via:\n{json}");
}

#[test]
fn recorder_output_parses_with_same_totals() {
    let snap = populated_registry().snapshot();
    let back = Snapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(back.counter("ingest.lines"), Some(123_456));
    assert_eq!(back.counter("ingest.skipped_lines"), Some(7));
    assert_eq!(back.gauge("faultsim.wall_us_per_sim_day"), Some(1234.5));
    let h = back.histogram("core.ingest.parse.time_us").unwrap();
    assert_eq!(h.count, 9);
    assert_eq!(h.sum, 1_052_953);
    assert_eq!(h.min, 0);
    assert_eq!(h.max, 1_000_000);
    assert_eq!(h.buckets.iter().map(|b| b.count).sum::<u64>(), 9);
}

#[test]
fn bucket_boundaries_survive_round_trip() {
    let r = Registry::new();
    let h = r.histogram("boundaries.time_us");
    // One sample on each side of the 1024 boundary.
    h.record(1023);
    h.record(1024);
    let snap = r.snapshot();
    let back = Snapshot::from_json(&snap.to_json()).unwrap();
    let hs = back.histogram("boundaries.time_us").unwrap();
    assert_eq!(hs.buckets.len(), 2);
    assert_eq!((hs.buckets[0].lo, hs.buckets[0].hi), (512, 1023));
    assert_eq!((hs.buckets[1].lo, hs.buckets[1].hi), (1024, 2047));
}

#[test]
fn empty_snapshot_round_trips() {
    let snap = Registry::new().snapshot();
    let back = Snapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(back, snap);
}
