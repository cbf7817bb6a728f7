//! CI analysis smoke for the EventStore query layer, two guards:
//!
//! 1. **Semantics** — the store-backed full report on the golden scenario
//!    (S1, 2 cabinets, 7 days, seed 42) must be byte-identical to
//!    `testdata/golden-report-s1-2c-7d-seed42.txt`, which was captured
//!    from the seed (pre-store, full-scan) code on the same scenario.
//! 2. **Performance** — the indexed fault→failure correspondence must not
//!    be slower than the pre-refactor shape (full event scan with an
//!    O(failures) `fails_within` scan per fault). Release builds only;
//!    a debug `cargo test --workspace` still exercises both paths.

use std::time::{Duration, Instant};

use hpc_diagnosis::external::{nhf_correspondence, nvf_correspondence};
use hpc_diagnosis::jobs::JobLog;
use hpc_diagnosis::report;
use hpc_diagnosis::windows::FAILURE_HORIZON;
use hpc_diagnosis::{Diagnosis, DiagnosisConfig};
use hpc_faultsim::Scenario;
use hpc_logs::event::{ControllerDetail, Payload};
use hpc_logs::time::SimDuration;
use hpc_platform::SystemId;

fn golden_diagnosis() -> Diagnosis {
    let out = Scenario::new(SystemId::S1, 2, 7, 42).run();
    Diagnosis::from_archive(&out.archive, DiagnosisConfig::default())
}

#[test]
fn store_backed_report_matches_seed_golden() {
    let d = golden_diagnosis();
    let jobs = JobLog::from_diagnosis(&d);
    let got = report::full_report(&d, &jobs);
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../testdata/golden-report-s1-2c-7d-seed42.txt"
    );
    let want = std::fs::read_to_string(golden_path).expect("golden report fixture");
    assert_eq!(
        got, want,
        "store-backed report diverged from the seed-path golden capture"
    );
}

fn best_of(runs: usize, mut f: impl FnMut() -> usize) -> (Duration, usize) {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            let x = f();
            (t.elapsed(), x)
        })
        .min()
        .expect("runs > 0")
}

#[test]
fn indexed_correspondence_not_slower_than_scan() {
    let out = Scenario::new(SystemId::S1, 2, 14, 11).run();
    let d = Diagnosis::from_archive(&out.archive, DiagnosisConfig::default());
    let horizon = FAILURE_HORIZON;

    let store_path = || {
        let a = nvf_correspondence(&d);
        let b = nhf_correspondence(&d);
        a.followed_by_failure + b.followed_by_failure
    };
    let scan_path = || {
        let mut followed = 0;
        for e in d.events() {
            let node = match &e.payload {
                Payload::Controller {
                    detail: ControllerDetail::NodeVoltageFault { node },
                    ..
                }
                | Payload::Controller {
                    detail: ControllerDetail::NodeHeartbeatFault { node },
                    ..
                } => *node,
                _ => continue,
            };
            let from = e.time.saturating_sub(SimDuration::from_mins(2));
            if d.failures
                .iter()
                .any(|f| f.node == node && f.time >= from && f.time <= e.time + horizon)
            {
                followed += 1;
            }
        }
        followed
    };

    // Warm both paths and pin the agreed answer.
    let (_, want) = best_of(1, scan_path);
    let (_, got) = best_of(1, store_path);
    assert_eq!(got, want, "indexed and scan correspondences disagree");

    let (scan, _) = best_of(3, scan_path);
    let (store, _) = best_of(3, store_path);
    eprintln!("analysis smoke: scan {scan:?}, store {store:?}");
    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the timing assertion");
        return;
    }
    // Generous margin for noisy shared runners; a real regression (the
    // index slower than a full scan) blows well past this.
    assert!(
        store <= scan * 3 / 2,
        "store-backed correspondence ({store:?}) slower than scan path ({scan:?})"
    );
}
