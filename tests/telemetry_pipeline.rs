//! Telemetry integration: a full simulate→diagnose run populates the
//! global registry with every pipeline stage and with counts that agree
//! with the `Diagnosis` the pipeline returned.
//!
//! The registry is process-global, so this file keeps everything in one
//! test (integration-test files run their tests concurrently).

use hpc_node_failures::diagnosis::{external, lead_time, root_cause, Diagnosis, DiagnosisConfig};
use hpc_node_failures::faultsim::Scenario;
use hpc_node_failures::platform::SystemId;
use hpc_node_failures::telemetry;

#[test]
fn pipeline_run_populates_all_stage_metrics() {
    telemetry::reset();
    let out = Scenario::new(SystemId::S1, 1, 2, 77).run();
    let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
    // Exercise the instrumented analysis modules too.
    let _ = root_cause::classify_all(&d);
    let _ = lead_time::lead_times(&d);
    let _ = external::nvf_correspondence(&d);

    let snap = telemetry::snapshot();

    // Every stage shows up with a nonzero wall time.
    for stage in [
        "faultsim.run",
        "faultsim.workload",
        "faultsim.inject",
        "faultsim.finalize",
        "faultsim.render",
        "sched.workload.generate",
        "core.from_archive",
        "core.ingest.parse",
        "core.ingest.parse.console",
        "core.ingest.parse.controller",
        "core.ingest.parse.erd",
        "core.ingest.parse.scheduler",
        "core.ingest.read",
        "core.ingest.chunk",
        "core.ingest.stitch.console",
        "core.ingest.stitch.controller",
        "core.ingest.stitch.erd",
        "core.ingest.stitch.scheduler",
        "core.ingest.merge",
        "core.detect",
        "core.swo.partition",
        "core.store.index",
        "core.root_cause.classify_all",
        "core.lead_time.compute",
        "core.external.correspondence",
    ] {
        let h = snap
            .histogram(&format!("{stage}.time_us"))
            .unwrap_or_else(|| panic!("missing stage histogram {stage}.time_us"));
        assert!(h.count >= 1, "{stage} never ran");
    }
    // Stage durations are nonzero at pipeline granularity (sub-microsecond
    // leaf stages may legitimately round to 0, the top spans may not).
    for stage in ["faultsim.run", "core.from_archive"] {
        let h = snap.histogram(&format!("{stage}.time_us")).unwrap();
        assert!(h.sum > 0, "{stage} took 0us");
    }

    // Ingest counts agree with what the pipeline returned.
    assert_eq!(snap.counter("ingest.events"), Some(d.events().len() as u64));
    assert_eq!(snap.counter("ingest.skipped_lines"), Some(d.skipped_lines));
    assert_eq!(
        snap.counter("ingest.lines"),
        Some(out.archive.total_lines())
    );
    // The store indexed every merged event, and the analyses above
    // answered through it: indexed queries touch no more events than the
    // full scans they replaced would have.
    assert_eq!(
        snap.gauge("core.store.events"),
        Some(d.events().len() as f64)
    );
    assert!(snap.counter("core.store.queries").unwrap() >= 1);
    assert!(
        snap.counter("core.store.events.indexed").unwrap()
            <= snap.counter("core.store.events.scanned").unwrap()
    );
    // The memory ledger's first two rows: the event array and the heap the
    // indexes over it hold.
    assert_eq!(
        snap.gauge("core.store.events_bytes"),
        Some((std::mem::size_of_val(d.events())) as f64)
    );
    assert!(snap.gauge("core.store.index_bytes").unwrap() > 0.0);
    // The pool handed the merge at least one sorted run per source, a clean
    // archive gave no worker anything to sort, and the merge moved stretches
    // of events, not single ones.
    let runs = snap.counter("core.ingest.runs").unwrap();
    let moves = snap.counter("core.ingest.merge.moves").unwrap();
    assert!(runs >= 4, "{runs} runs");
    assert_eq!(snap.counter("core.ingest.chunks_sorted"), None);
    assert!(runs <= moves && moves < d.events().len() as u64 / 2);

    // Per-source lines sum to the total.
    let per_source: u64 = ["console", "controller", "erd", "scheduler"]
        .iter()
        .map(|s| snap.counter(&format!("ingest.{s}.lines")).unwrap())
        .sum();
    assert_eq!(per_source, out.archive.total_lines());

    // Simulator-side counters agree with ground truth.
    assert_eq!(
        snap.counter("faultsim.failures_injected"),
        Some(out.truth.failures.len() as u64)
    );
    assert_eq!(
        snap.counter("faultsim.rendered_lines"),
        Some(out.archive.total_lines())
    );
    assert_eq!(
        snap.counter("sched.jobs_generated"),
        Some(out.timeline.jobs().len() as u64)
    );
    assert!(snap.gauge("faultsim.wall_us_per_sim_day").unwrap() > 0.0);
    // The gauge reports the real ingest pool width (machine-sized unless
    // overridden), not the old hard-coded one-thread-per-source 4.
    assert_eq!(
        snap.gauge("core.ingest.threads"),
        Some(Diagnosis::ingest_threads(&DiagnosisConfig::default()) as f64)
    );
    assert!(snap.counter("core.ingest.chunk.calls").unwrap() >= 1);
    // Every pull of the pool's queue records its lock wait apart from the
    // read it then does.
    assert_eq!(
        snap.histogram("core.ingest.read.wait_us").unwrap().count,
        snap.counter("core.ingest.read.calls").unwrap()
    );

    // The per-family event counters cover the whole injected population.
    let family_total: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("faultsim.events."))
        .map(|(_, v)| v)
        .sum();
    assert!(family_total > 0, "no family events recorded");

    // The detection stage agrees with the diagnosis (detect runs before
    // SWO partitioning, so compare against regular + swallowed failures).
    assert_eq!(
        snap.counter("core.detect.failures"),
        Some((d.failures.len() + d.swo_failures.len()) as u64)
    );

    // And the whole registry survives a JSON round trip.
    let back = telemetry::Snapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(back, snap);

    // The on-disk path adds the block reader's ledger: every byte of the
    // four files went through it, in at least one block per file, and a
    // clean archive never takes the lossy fallback.
    let dir = std::env::temp_dir().join(format!("hpc-telemetry-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    hpc_node_failures::logs::fs::save_archive(&out.archive, &dir).unwrap();
    let from_dir = Diagnosis::from_dir(&dir, DiagnosisConfig::default()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(from_dir.events(), d.events());
    let snap = telemetry::snapshot();
    assert!(snap.histogram("core.from_dir.time_us").unwrap().count >= 1);
    assert!(snap.counter("core.ingest.blocks").unwrap() >= 4);
    assert_eq!(
        snap.counter("core.ingest.bytes"),
        Some(out.archive.total_bytes())
    );
    assert_eq!(snap.counter("core.ingest.lossy_blocks"), None);
    assert_eq!(snap.counter("core.ingest.dropped.invalid_utf8"), None);
    assert_eq!(
        snap.counter("ingest.lines"),
        Some(2 * out.archive.total_lines())
    );
    assert_eq!(snap.counter("core.ingest.chunks_sorted"), None);

    // Reordered and skewed lines are what make a worker sort its chunk.
    use hpc_node_failures::faultsim::chaos::{ChaosFeed, ChaosSpec, Intensity};
    let hostile = ChaosFeed::corrupt(&out.archive, &ChaosSpec::mixed(Intensity::Heavy, 3));
    hostile.write_dir(&dir).unwrap();
    Diagnosis::from_dir(&dir, DiagnosisConfig::default()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let sorted = telemetry::snapshot().counter("core.ingest.chunks_sorted");
    assert!(sorted.is_some_and(|n| n > 0), "{sorted:?} chunks sorted");
}
