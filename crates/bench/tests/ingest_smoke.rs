//! CI bench smoke: the ingest pool must not be slower than the same code
//! with one worker, in memory (`from_archive`) and — what `hpc-diagnose`
//! runs — off disk (`from_dir`, where the pool also overlaps reading with
//! parsing). Not a precision benchmark (that's `hpc-sysbench`) — a
//! release-mode guard against regressions that would make the pool pure
//! overhead. The same archive after heavy chaos must also cost about what
//! its clean twin costs *per line*: disorder is sorted chunk by chunk on the
//! pool, not as one whole-stream sort behind it. The timing assertions only
//! run in release builds on machines with at least two cores; a debug
//! `cargo test --workspace` still executes the ingest paths but skips the
//! comparison.

use std::time::{Duration, Instant};

use hpc_diagnosis::{Diagnosis, DiagnosisConfig};
use hpc_faultsim::chaos::{ChaosFeed, ChaosSpec, Intensity};
use hpc_faultsim::Scenario;
use hpc_platform::SystemId;

fn best_of(runs: usize, mut f: impl FnMut()) -> Duration {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .expect("runs > 0")
}

/// Best-of-five wall time of `ingest` under the one-worker and the
/// machine-wide configuration, after one warm-up of each (allocator, page
/// cache, lazy statics).
fn sequential_and_pooled(ingest: impl Fn(DiagnosisConfig)) -> (Duration, Duration) {
    let sequential_config = DiagnosisConfig {
        parallel_ingest: false,
        ..DiagnosisConfig::default()
    };
    let pooled_config = DiagnosisConfig::default();
    ingest(sequential_config);
    ingest(pooled_config);
    (
        best_of(5, || ingest(sequential_config)),
        best_of(5, || ingest(pooled_config)),
    )
}

// One test, so the timed comparisons never share the cores.
#[test]
fn pooled_ingest_not_slower_than_sequential() {
    // Telemetry-shaped (ERD-heavy) like a production archive: ~150k lines,
    // a dozen blocks on disk.
    let mut scenario = Scenario::new(SystemId::S1, 2, 5, 1);
    scenario.config.telemetry_blades = 24;
    scenario.config.telemetry_interval_mins = 5;
    let out = scenario.run();
    let dir = std::env::temp_dir().join(format!("hpc-bench-ingest-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    hpc_logs::fs::save_archive(&out.archive, &dir).unwrap();

    let threads = Diagnosis::ingest_threads(&DiagnosisConfig::default());
    let (mem_seq, mem_pool) = sequential_and_pooled(|config| {
        Diagnosis::from_archive(&out.archive, config);
    });
    let (dir_seq, dir_pool) = sequential_and_pooled(|config| {
        Diagnosis::from_dir(&dir, config).unwrap();
    });
    std::fs::remove_dir_all(&dir).unwrap();

    // The hostile twin: every per-line pathology, no dropout (which removes
    // lines rather than disturbing them), so the two differ in line count by
    // the duplicates and garbage only and compare per line.
    let spec = ChaosSpec {
        dropout: 0.0,
        ..ChaosSpec::mixed(Intensity::Heavy, 7)
    };
    let feed = ChaosFeed::corrupt(&out.archive, &spec);
    feed.write_dir(&dir).unwrap();
    Diagnosis::from_dir(&dir, DiagnosisConfig::default()).unwrap();
    let chaos_pool = best_of(5, || {
        Diagnosis::from_dir(&dir, DiagnosisConfig::default()).unwrap();
    });
    std::fs::remove_dir_all(&dir).unwrap();
    let per_line = |t: Duration, lines: u64| t.as_secs_f64() / lines as f64;
    let chaos_cost =
        per_line(chaos_pool, feed.ledger().lines_out) / per_line(dir_pool, feed.ledger().lines_in);
    eprintln!(
        "ingest smoke ({threads} threads): from_archive sequential {mem_seq:?}, pooled \
         {mem_pool:?}; from_dir sequential {dir_seq:?}, pooled {dir_pool:?}, heavy chaos \
         {chaos_pool:?} ({chaos_cost:.2}x per line)"
    );
    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the timing assertions");
        return;
    }
    // "Not slower" with headroom for scheduler jitter on shared CI runners;
    // a real regression (pool slower than one thread) blows well past this.
    assert!(
        mem_pool <= mem_seq * 3 / 2,
        "pooled from_archive ({mem_pool:?}) slower than sequential ({mem_seq:?})"
    );
    if threads >= 2 {
        // Parsing is most of ingest and spreads over the pool, and the file
        // reads hide behind it: off disk the pool has to win outright.
        assert!(
            dir_pool <= dir_seq,
            "pooled from_dir ({dir_pool:?}) slower than sequential ({dir_seq:?})"
        );
        // A whole-stream sort behind the pool made this ~1.6x.
        assert!(
            chaos_cost <= 1.35,
            "a heavy-chaos line costs {chaos_cost:.2}x a clean one through from_dir"
        );
    }
}
