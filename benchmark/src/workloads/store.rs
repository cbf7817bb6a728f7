//! `store_mixed`: the segment store written, reopened and queried in one
//! closed loop.
//!
//! The loop runs whole rounds of 1 `save_store` into an empty directory,
//! 5 validated `Store::open` and the next 120 planner queries of the
//! seeded list, so the shares of the three operations are the same in
//! every run whatever its length. Queries run on one store opened during
//! set-up; their answers are checked against the in-memory `EventStore`
//! verbs after the clock stops.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hpc_diagnosis::segment::{self, Manifest, Store};
use hpc_diagnosis::{Diagnosis, DiagnosisConfig, EventStore};
use hpc_platform::system::SchedulerKind;

use crate::inputs::count_lines;
use crate::mix::{self, Answer, Domain, Query, QUERY_LIST};
use crate::outcome::{peak_rss_mb, repeated_setup, timed_ms, Outcome};
use crate::Ctx;

const OPENS_PER_ROUND: usize = 5;
const QUERIES_PER_ROUND: usize = 120;
/// Rounds a run holds at least (1,200 queries make ten rounds).
const MIN_ROUNDS: usize = 2;

/// Everything the store operations need, built from the archive the way
/// `hpc-diagnose --save-store` builds it.
pub struct StoreBed {
    pub diagnosis: Diagnosis,
    pub lines: u64,
    pub scheduler: SchedulerKind,
    pub store_dir: PathBuf,
    pub scratch_dir: PathBuf,
    pub manifest: Manifest,
}

impl StoreBed {
    pub fn build(archive: &Path, work: &Path) -> StoreBed {
        let diagnosis = Diagnosis::from_dir(archive, DiagnosisConfig::default())
            .expect("archive directory is readable");
        let lines = count_lines(archive).expect("archive directory is readable");
        let scheduler = hpc_logs::fs::detect_scheduler(archive);
        let store_dir = work.join("store");
        clear(&store_dir);
        let manifest = diagnosis
            .save_store(&store_dir, SOURCE, lines, scheduler)
            .expect("work directory is writable");
        StoreBed {
            diagnosis,
            lines,
            scheduler,
            store_dir,
            scratch_dir: work.join("store-scratch"),
            manifest,
        }
    }

    /// `save_store` into `dir`, which must be empty.
    pub fn save_into_empty(&self, dir: &Path) -> Manifest {
        self.diagnosis
            .save_store(dir, SOURCE, self.lines, self.scheduler)
            .expect("work directory is writable")
    }

    pub fn open(&self) -> Store {
        Store::open(&self.store_dir).expect("store just written opens")
    }
}

/// Provenance string of the manifests the benchmark writes.
const SOURCE: &str = "hpc-sysbench";

/// Empties `dir` (never inside a timer).
pub fn clear(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("work directory is writable");
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();

    let ((bed, store, queries), setup_s) = repeated_setup(|| {
        let bed = StoreBed::build(&ctx.archive(), &ctx.work);
        let store = bed.open();
        let queries = mix::query_mix(ctx.seed, &Domain::of(&bed.diagnosis), QUERY_LIST);
        // Warm-up: one of each operation, one query of each kind.
        clear(&bed.scratch_dir);
        bed.save_into_empty(&bed.scratch_dir);
        let mut seen = Vec::new();
        for q in &queries {
            if !seen.contains(&q.kind) {
                seen.push(q.kind);
                q.run(&store, bed.scheduler).expect("warm-up query");
            }
        }
        (bed, store, queries)
    });

    let mut save_ms = Vec::new();
    let mut open_ms = Vec::new();
    let mut query_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    // First answer of each distinct list entry; later passes must repeat it.
    let mut answers: BTreeMap<usize, Answer> = BTreeMap::new();
    let mut next = 0usize;
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < ctx.seconds {
        rounds += 1;
        clear(&bed.scratch_dir);
        let (manifest, ms) = timed_ms(|| bed.save_into_empty(&bed.scratch_dir));
        out.attempted += 1;
        if manifest.fingerprint != bed.manifest.fingerprint {
            out.fail(1, || "save_store wrote a different fingerprint".to_string());
        }
        save_ms.push(ms);
        for _ in 0..OPENS_PER_ROUND {
            let (opened, ms) = timed_ms(|| Store::open(&bed.scratch_dir));
            out.attempted += 1;
            match opened {
                Ok(s) if s.manifest().events == bed.manifest.events => {}
                Ok(_) => out.fail(1, || "reopened store holds another event count".to_string()),
                Err(e) => out.fail(1, || format!("Store::open: {e}")),
            }
            open_ms.push(ms);
        }
        for _ in 0..QUERIES_PER_ROUND {
            let index = next % queries.len();
            next += 1;
            let (answer, ms) = timed_ms(|| queries[index].run(&store, bed.scheduler));
            out.attempted += 1;
            query_ms
                .entry(queries[index].kind.key())
                .or_default()
                .push(ms);
            match answer {
                Err(e) => out.fail(1, || format!("query {index}: {e}")),
                Ok(a) => match answers.get(&index) {
                    Some(first) if *first != a => {
                        out.fail(1, || format!("query {index} changed its answer"))
                    }
                    Some(_) => {}
                    None => {
                        answers.insert(index, a);
                    }
                },
            }
        }
    }
    out.set("peak_rss_mb", peak_rss_mb());

    verify_answers(&mut out, &bed, &queries, &answers);

    let busy_s = (save_ms.iter().sum::<f64>()
        + open_ms.iter().sum::<f64>()
        + query_ms.values().flatten().sum::<f64>())
        / 1e3;
    out.set("setup_s", setup_s);
    out.set(
        "throughput_per_s",
        (save_ms.len() + open_ms.len() + next) as f64 / busy_s,
    );
    out.set("rounds", rounds as f64);
    out.set("events", bed.manifest.events as f64);
    out.samples.insert("save_ms".to_string(), save_ms);
    out.samples.insert("open_ms".to_string(), open_ms);
    let all = query_ms.values().flatten().copied().collect();
    for (kind, ms) in query_ms {
        out.samples.insert(format!("query_ms.{kind}"), ms);
    }
    out.set_latency(all, ctx.spec.tail_permille);
    out
}

/// Every distinct query that ran must equal the in-memory verb on the
/// fully loaded store.
pub fn verify_answers(
    out: &mut Outcome,
    bed: &StoreBed,
    queries: &[Query],
    answers: &BTreeMap<usize, Answer>,
) {
    let opened = match segment::open_store(&bed.store_dir) {
        Ok(o) => o,
        Err(e) => return out.fail(answers.len() as u64, || format!("open_store: {e}")),
    };
    let reference = EventStore::build(opened.events, &opened.failures);
    if reference.events() != bed.diagnosis.events() {
        out.fail(1, || {
            "loaded store differs from the diagnosis it was saved from".to_string()
        });
    }
    for (&index, answer) in answers {
        let q = &queries[index];
        if q.reference(&reference, bed.scheduler) != *answer {
            out.fail(1, || {
                format!(
                    "query {index} ({:?}) differs from the in-memory verb",
                    q.kind
                )
            });
        }
    }
}
