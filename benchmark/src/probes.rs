//! The traced run: per-layer numbers for one workload's input.
//!
//! Every call into a layer's public function is wrapped in a span of the
//! benchmark's own [`Tracer`]; a layer's figure is the median self time
//! of its spans. The run has two parts:
//!
//! 1. the workload's own operation, a fixed sequence with every operation
//!    run three ways back to back — the real entry point, the span-wrapped
//!    code with the tracer off, and with it on — which gives
//!    `trace_overhead_pct` (median of on / off, minus one) and
//!    `trace_reconcile_pct` (median of an operation's leaf self times over
//!    the real entry point's time);
//! 2. the layer probes, the same for every workload, over whatever can be
//!    derived from the workload's archive: its lines, parsed streams,
//!    diagnosis, segment store, merged feed, snapshot and server.
//!
//! Spans are written as `trace.json` into the work directory at the end.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hpc_diagnosis::jobs::JobLog;
use hpc_diagnosis::root_cause::CauseBreakdown;
use hpc_diagnosis::segment::Store;
use hpc_diagnosis::{
    advisor, detection, lead_time, report, Diagnosis, DiagnosisConfig, EventStore,
};
use hpc_fleet::http::{parse_request, Parse};
use hpc_fleet::server::route;
use hpc_fleet::snapshot::{SnapshotSlot, SystemSnapshot};
use hpc_logs::archive::merge_by_time;
use hpc_logs::chunk::{chunk_lines_for, chunk_spans, parse_chunk, stitch};
use hpc_logs::event::{LogEvent, LogSource};
use hpc_logs::fs::LineBatches;
use hpc_logs::parse::LogParser;
use hpc_stream::{AlertSink, FollowDir, JsonlSink, StreamConfig, StreamEngine, StreamMerger};

use crate::catalogue::{self, Kind};
use crate::inputs::{dir_bytes, read_feed, FEED_FILE, STREAM_QUERIES, STREAM_ROUTES};
use crate::mix::{self, Domain, Query, QueryKind, Request, Route, SYSTEM};
use crate::outcome::{timed_ms, Outcome};
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::batch;
use crate::workloads::fleet::{FleetBed, ReplyLedger};
use crate::workloads::follow::{self, LINES_PER_TICK};
use crate::workloads::store::{self, StoreBed};
use crate::Ctx;

/// Repetitions of a probe that takes tens of milliseconds or more.
const HEAVY_REPS: usize = 3;
/// Repetitions of a batch or catch-up operation in part 1, per variant.
const OP_REPS: usize = 5;
/// Repetitions of a probe in the microsecond range.
const LIGHT_REPS: usize = 30;
/// Queries probed per planner kind, and requests per route.
const PER_KIND: usize = 20;
/// Lines per `LineBatches` batch: the size `Diagnosis::from_dir` reads.
const BATCH_LINES: usize = 1 << 16;
/// Ticks of the probes' short paced phase (two seconds).
const PACED_TICKS: usize = 80;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What the decomposed pipeline leaves behind for the later probes.
struct Pipeline {
    lines: [Vec<String>; 4],
    skipped: u64,
    diagnosis: Diagnosis,
    jobs: JobLog,
    report: String,
}

/// `hpc-diagnose`'s work as a sequence of layer calls on one thread, each
/// in its span: read, parse per source, merge, `from_events`, job log,
/// report.
fn decomposed_diagnose(archive: &Path, t: &mut Tracer) -> Pipeline {
    t.next_op();
    t.span("op.diagnose", |t| {
        let scheduler = hpc_logs::fs::detect_scheduler(archive);
        let lines = t.span("logs.fs.read", |_| {
            LogSource::ALL.map(|source| {
                let path = archive.join(hpc_logs::fs::source_path(source, scheduler));
                match LineBatches::open(&path, BATCH_LINES) {
                    Ok(batches) => batches.flatten().collect::<Vec<String>>(),
                    Err(_) => Vec::new(),
                }
            })
        });
        let mut skipped = 0;
        let per_source: Vec<Vec<LogEvent>> = LogSource::ALL
            .into_iter()
            .zip(&lines)
            .map(|(source, lines)| {
                let (events, sk) = t.span(&format!("logs.parse.{}", source.key()), |_| {
                    LogParser::parse_stream(source, lines.iter().map(String::as_str))
                });
                skipped += sk;
                events
            })
            .collect();
        let events = t.span("logs.archive.merge", |_| merge_by_time(per_source));
        let diagnosis = t.span("core.pipeline.from_events", |_| {
            Diagnosis::from_events(events, skipped, DiagnosisConfig::default())
        });
        let jobs = t.span("core.jobs.joblog", |_| JobLog::from_diagnosis(&diagnosis));
        let report = t.span("core.report.full_report", |_| {
            report::full_report(&diagnosis, &jobs)
        });
        Pipeline {
            lines,
            skipped,
            diagnosis,
            jobs,
            report,
        }
    })
}

/// The three series of the workload's own operation, index-aligned: entry
/// `i` of each is the same operation run three ways, back to back.
struct OpSeries {
    /// Real entry point, no spans, milliseconds per operation.
    real_ms: Vec<f64>,
    /// Span-wrapped code, tracer off.
    plain_ms: Vec<f64>,
    /// Span-wrapped code, tracer on.
    traced_ms: Vec<f64>,
}

/// Median of `a[i] / b[i]`: one disturbed operation moves one ratio, not
/// the result.
fn median_ratio(a: &[f64], b: &[f64]) -> f64 {
    let ratios: Vec<f64> = a.iter().zip(b).map(|(x, y)| x / y.max(1e-9)).collect();
    stats::median(&ratios)
}

/// Runs operations `0..n` twice each, once under a tracer that is off
/// and once under `t`, alternating which goes first so that neither side
/// always finds the caches warm. `op` opens its own spans and returns the
/// milliseconds it took. Returns the (off, on) series.
fn plain_and_traced(
    t: &mut Tracer,
    n: usize,
    mut op: impl FnMut(&mut Tracer, usize) -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let mut off = Tracer::new(false);
    let (mut plain, mut traced) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        if i % 2 == 0 {
            plain.push(op(&mut off, i));
            traced.push(op(t, i));
        } else {
            traced.push(op(t, i));
            plain.push(op(&mut off, i));
        }
    }
    (plain, traced)
}

fn batch_series(ctx: &Ctx, t: &mut Tracer, out: &mut Outcome) -> OpSeries {
    let archive = ctx.archive();
    let reference = batch::reference_report(&archive, ctx.spec.chaos);
    let mut off = Tracer::new(false);
    let mut series = OpSeries {
        real_ms: Vec::new(),
        plain_ms: Vec::new(),
        traced_ms: Vec::new(),
    };
    let mut failed = 0;
    // One warm-up, then the three variants per repetition in rotating
    // order, so that no variant always runs first.
    batch::diagnose(&archive, DiagnosisConfig::default());
    for rep in 0..OP_REPS {
        for variant in (0..3).map(|v| (v + rep) % 3) {
            let (text, ms) = match variant {
                0 => timed_ms(|| batch::diagnose(&archive, DiagnosisConfig::default())),
                1 => timed_ms(|| decomposed_diagnose(&archive, &mut off).report),
                _ => timed_ms(|| decomposed_diagnose(&archive, t).report),
            };
            failed += (text != reference) as u64;
            [
                &mut series.real_ms,
                &mut series.plain_ms,
                &mut series.traced_ms,
            ][variant]
                .push(ms);
        }
    }
    out.attempted += 3 * OP_REPS as u64;
    if failed > 0 {
        out.fail(failed, || {
            "report differs from the sequential reference".to_string()
        });
    }
    series
}

fn store_series(ctx: &Ctx, bed: &StoreBed, t: &mut Tracer, out: &mut Outcome) -> OpSeries {
    let store = bed.open();
    let queries = mix::query_mix(ctx.seed, &Domain::of(&bed.diagnosis), 240);
    let mut answers = BTreeMap::new();
    let mut failed = 0;
    let (plain_ms, traced_ms) = plain_and_traced(t, queries.len(), |t, i| {
        let q = &queries[i];
        t.next_op();
        let span = format!("op.query.{}", q.kind.key());
        let (answer, ms) = timed_ms(|| t.span(&span, |_| q.run(&store, bed.scheduler)));
        match answer {
            Ok(a) => {
                answers.insert(i, a);
            }
            Err(_) => failed += 1,
        }
        ms
    });
    out.attempted += 2 * queries.len() as u64;
    if failed > 0 {
        out.fail(failed, || "planner query failed".to_string());
    }
    store::verify_answers(out, bed, &queries, &answers);
    OpSeries {
        real_ms: plain_ms.clone(),
        plain_ms,
        traced_ms,
    }
}

/// Catch-up with a span per `poll_into` call and one for `finish`.
fn traced_catch_up(dir: &Path, t: &mut Tracer) -> StreamEngine {
    t.next_op();
    t.span("op.catch_up", |t| {
        let mut follow = FollowDir::new(dir);
        let mut engine = StreamEngine::new(StreamConfig::default());
        engine.add_sink(Box::new(JsonlSink::new(std::io::sink())));
        while t.span("stream.follow.poll_into", |_| follow.poll_into(&mut engine)) > 0 {}
        t.span("stream.engine.finish", |_| engine.finish());
        engine
    })
}

fn follow_series(ctx: &Ctx, t: &mut Tracer, out: &mut Outcome) -> OpSeries {
    let archive = ctx.archive();
    let reference =
        follow::StreamResult::of(&follow::replay(&ctx.work.join(FEED_FILE), usize::MAX));
    let mut failed = 0;
    let (plain_ms, traced_ms) = plain_and_traced(t, OP_REPS, |t, _| {
        let (engine, ms) = timed_ms(|| traced_catch_up(&archive, t));
        failed += (follow::StreamResult::of(&engine) != reference) as u64;
        ms
    });
    out.attempted += 2 * OP_REPS as u64;
    if failed > 0 {
        out.fail(failed, || {
            "catch-up differs from the in-memory replay".to_string()
        });
    }
    OpSeries {
        real_ms: plain_ms.clone(),
        plain_ms,
        traced_ms,
    }
}

fn fleet_series(ctx: &Ctx, bed: &mut FleetBed, t: &mut Tracer, out: &mut Outcome) -> OpSeries {
    let requests = mix::route_mix(ctx.seed, &bed.domain, 600);
    let mut ledger = ReplyLedger::default();
    let mut failures = Vec::new();
    let (plain_ms, traced_ms) = plain_and_traced(t, requests.len(), |t, i| {
        let r = &requests[i];
        t.next_op();
        let (wire, span) = (r.wire(), format!("op.request.{}", r.route.key()));
        let (reply, ms) = timed_ms(|| t.span(&span, |_| bed.client.request(&wire)));
        failures.extend(match reply {
            Ok(reply) => ledger.record(r, reply),
            Err(e) => Some(format!("{}: {e}", r.target)),
        });
        ms
    });
    out.attempted += 2 * requests.len() as u64;
    failures.extend(ledger.verify(&bed.snapshot));
    for why in failures {
        out.fail(1, || why);
    }
    OpSeries {
        real_ms: plain_ms.clone(),
        plain_ms,
        traced_ms,
    }
}

/// `parse_chunk` over `lines` on `threads` scoped workers pulling chunk
/// indices from one cursor, then `stitch`: the pooled parse of
/// `Diagnosis::from_dir`, through the chunk layer's public functions.
fn pooled_parse(source: LogSource, lines: &[String], threads: usize) -> usize {
    let spans: Vec<_> = chunk_spans(lines.len(), chunk_lines_for(lines.len(), threads)).collect();
    let next = AtomicUsize::new(0);
    let mut parsed = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(spans.len()).max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(span) = spans.get(i) else { break };
                        let chunk = &lines[span.clone()];
                        local.push((i, parse_chunk(source, chunk.iter().map(String::as_str))));
                    }
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("chunk worker"))
            .collect::<Vec<_>>()
    });
    parsed.sort_by_key(|(i, _)| *i);
    stitch(parsed.into_iter().map(|(_, chunk)| chunk))
        .events
        .len()
}

/// Median self time per span name, in nanoseconds.
struct SelfTimes(BTreeMap<String, Vec<u64>>);

impl SelfTimes {
    fn median_ns(&self, span: &str) -> Option<f64> {
        let v: Vec<f64> = self.0.get(span)?.iter().map(|&n| n as f64).collect();
        Some(stats::median(&v))
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut t = Tracer::new(true);
    let archive = ctx.archive();
    let feed_path = ctx.work.join(FEED_FILE);

    // --- part 1: the workload's own operation --------------------------
    let store_bed = StoreBed::build(&archive, &ctx.work);
    let mut fleet_bed = FleetBed::start(&archive, &store_bed);
    let series = match ctx.spec.kind {
        Kind::Batch => batch_series(ctx, &mut t, &mut out),
        Kind::Store => store_series(ctx, &store_bed, &mut t, &mut out),
        Kind::Follow => follow_series(ctx, &mut t, &mut out),
        Kind::Fleet => fleet_series(ctx, &mut fleet_bed, &mut t, &mut out),
    };
    // Traced operation `i` carries op id `i + 1`: the tracer is fresh.
    let leaf_ms: Vec<f64> = t
        .leaf_self_ns_by_op()
        .values()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    out.set(
        "trace_overhead_pct",
        (median_ratio(&series.traced_ms, &series.plain_ms) - 1.0) * 100.0,
    );
    out.set(
        "trace_reconcile_pct",
        median_ratio(&leaf_ms, &series.real_ms) * 100.0,
    );
    out.samples.insert("op_real_ms".to_string(), series.real_ms);
    out.samples
        .insert("op_plain_ms".to_string(), series.plain_ms);
    out.samples
        .insert("op_traced_ms".to_string(), series.traced_ms);

    // --- part 2: layer probes -------------------------------------------
    // hpc-logs and the pipeline, through the decomposed diagnose.
    let mut pipeline = decomposed_diagnose(&archive, &mut t);
    for _ in 1..HEAVY_REPS {
        pipeline = decomposed_diagnose(&archive, &mut t);
    }
    let Pipeline {
        lines,
        skipped,
        diagnosis,
        jobs,
        ..
    } = &pipeline;
    let total_lines: usize = lines.iter().map(Vec::len).sum();
    out.set("logs.parse.skipped_lines", *skipped as f64);

    let (largest, largest_lines) = LogSource::ALL
        .into_iter()
        .zip(lines)
        .max_by_key(|(_, l)| l.len())
        .expect("four sources");
    for _ in 0..HEAVY_REPS {
        t.span("logs.chunk.pool", |_| {
            pooled_parse(largest, largest_lines, nproc())
        });
    }

    let loaded = hpc_logs::fs::load_archive(&archive).expect("archive directory is readable");
    let resaved = ctx.work.join("archive-resaved");
    for _ in 0..HEAVY_REPS {
        let _ = std::fs::remove_dir_all(&resaved);
        t.span("logs.fs.save_archive", |_| {
            hpc_logs::fs::save_archive(&loaded, &resaved).expect("work directory is writable")
        });
    }
    drop(loaded);

    let sequential = DiagnosisConfig {
        parallel_ingest: false,
        ..DiagnosisConfig::default()
    };
    let mut program_spans = Vec::new();
    for _ in 0..HEAVY_REPS {
        hpc_telemetry::reset();
        t.span("core.pipeline.from_dir_seq", |_| {
            Diagnosis::from_dir(&archive, sequential).expect("archive directory is readable")
        });
        program_spans = hpc_telemetry::snapshot().spans;
        t.span("core.detection.detect", |_| {
            detection::detect_failures(diagnosis.events())
        });
        let events = diagnosis.events().to_vec();
        t.span("core.store.build", |_| {
            EventStore::build(events, &diagnosis.failures)
        });
        t.span("core.report.summary", |_| {
            report::render_summary(diagnosis, jobs)
        });
        t.span("core.root_cause.breakdown", |_| {
            CauseBreakdown::compute(diagnosis)
        });
        t.span("core.lead_time.lead_times", |_| {
            lead_time::summarize(&lead_time::lead_times(diagnosis))
        });
        t.span("core.report.case_studies", |_| {
            report::case_studies(diagnosis, jobs)
        });
        t.span("core.advisor.advise", |_| advisor::advise(diagnosis, jobs));
    }

    // Segment store and planner.
    for _ in 0..HEAVY_REPS {
        store::clear(&store_bed.scratch_dir);
        t.span("core.segment.write", |_| {
            store_bed.save_into_empty(&store_bed.scratch_dir)
        });
        t.span("core.segment.load", |_| {
            Store::open(&store_bed.store_dir)
                .and_then(Store::load)
                .expect("store just written loads")
        });
    }
    for _ in 0..LIGHT_REPS {
        t.span("core.segment.open", |_| store_bed.open());
    }
    let store_bytes = dir_bytes(&store_bed.store_dir).expect("store directory is readable");
    out.set("core.segment.store_bytes", store_bytes as f64);
    out.set(
        "core.segment.bytes_per_event",
        store_bytes as f64 / store_bed.manifest.events.max(1) as f64,
    );
    let store = store_bed.open();
    let domain = Domain::of(&store_bed.diagnosis);
    let counter = |name: &str| hpc_telemetry::counter(name).get();
    let (mut tail_decoded, mut tail_returned) = (0u64, 0u64);
    for kind in QueryKind::ALL {
        let mut rng = Rng::new(ctx.seed, STREAM_QUERIES + 100 + kind as u64);
        let queries: Vec<Query> = (0..PER_KIND)
            .map(|_| Query::draw(kind, &domain, &mut rng))
            .collect();
        let before = (
            counter("core.segment.rows_decoded"),
            counter("core.segment.segments_pruned"),
        );
        let mut returned = 0;
        for q in &queries {
            let answer = t.span(&format!("probe.query.{}", kind.key()), |_| {
                q.run(&store, store_bed.scheduler)
            });
            returned += answer.expect("probe query").rows();
        }
        let decoded = counter("core.segment.rows_decoded") - before.0;
        let pruned = counter("core.segment.segments_pruned") - before.1;
        out.set(
            &format!("core.query.{}.rows_decoded_per_query", kind.key()),
            decoded as f64 / PER_KIND as f64,
        );
        out.set(
            &format!("core.query.{}.segments_pruned_per_query", kind.key()),
            pruned as f64 / PER_KIND as f64,
        );
        if matches!(kind, QueryKind::TailNode | QueryKind::TailWindow) {
            tail_decoded += decoded;
            tail_returned += returned;
        }
    }
    out.set(
        "core.query.rows_decoded_per_row_returned",
        tail_decoded as f64 / tail_returned.max(1) as f64,
    );

    // Stream path.
    let feed: Vec<(LogSource, String)> = read_feed(&feed_path)
        .expect("feed file is readable")
        .collect();
    let watermark = StreamConfig::default().watermark;
    let mut replayed = None;
    for _ in 0..HEAVY_REPS {
        t.span("stream.merger", |_| {
            let mut merger = StreamMerger::new(watermark);
            let mut released = Vec::new();
            for (source, line) in &feed {
                merger.push_line(*source, line);
                released.clear();
                merger.poll(&mut released);
            }
            merger.finish();
            merger.poll(&mut released)
        });
        replayed = Some(t.span("stream.engine.replay", |_| {
            let mut engine = StreamEngine::new(StreamConfig::default());
            for (source, line) in &feed {
                engine.push_line(*source, line);
            }
            engine.finish();
            engine
        }));
        t.span("stream.follow.catch_up", |_| follow::catch_up(&archive));
    }
    let replayed = replayed.expect("HEAVY_REPS > 0");
    let stream_stats = replayed.stats();
    out.set("stream.engine.alerts", stream_stats.alerts as f64);
    out.set("stream.engine.failures", stream_stats.failures as f64);
    out.set("stream.engine.late_events", stream_stats.late_events as f64);
    out.set(
        "stream.window.peak_retained",
        stream_stats.window_peak as f64,
    );
    for _ in 0..HEAVY_REPS {
        t.span("stream.sink.jsonl", |_| {
            let mut sink = JsonlSink::new(Vec::with_capacity(1 << 20));
            for alert in replayed.alerts() {
                sink.alert(alert);
            }
        });
    }
    let ticks = PACED_TICKS.min(feed.len() / LINES_PER_TICK).max(1);
    let paced = follow::paced(
        &feed_path,
        &ctx.work.join("followed"),
        store_bed.scheduler,
        ctx.work.join("alerts.jsonl"),
        ticks,
    );
    out.attempted += ticks as u64;
    if paced.undrained > 0 {
        out.fail(paced.undrained as u64, || {
            "paced ticks not consumed".to_string()
        });
    }
    out.set(
        "stream.follow.polls_per_tick",
        paced.polls as f64 / ticks as f64,
    );
    let late_us: Vec<f64> = paced.late.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    out.set(
        "stream.follow.generator_late_p90_us",
        stats::percentile(&late_us, 900),
    );
    out.samples
        .insert("probe_tick_lag_ms".to_string(), paced.lag_ms);
    drop(feed);

    // fleetd, in process and over the socket.
    let mut last_snapshot = None;
    for _ in 0..LIGHT_REPS {
        last_snapshot = Some(t.span("fleetd.snapshot.capture", |_| {
            SystemSnapshot::capture(SYSTEM, 1, true, &replayed, None, &[])
        }));
    }
    for _ in 0..HEAVY_REPS {
        let fresh = SystemSnapshot::capture(SYSTEM, 1, true, &replayed, None, &[]);
        t.span("fleetd.snapshot.report_render", |_| fresh.report().len());
    }
    let slot = Arc::new(SnapshotSlot::new(SYSTEM));
    slot.publish(last_snapshot.expect("LIGHT_REPS > 0"));
    let fleet = FleetBed::fleet(&slot, &store_bed.store_dir);
    let (mut body_bytes, mut write_ns) = (0usize, 0u64);
    for kind in Route::ALL {
        let mut rng = Rng::new(ctx.seed, STREAM_ROUTES + 100 + kind as u64);
        for _ in 0..PER_KIND {
            let request = Request::draw(kind, &fleet_bed.domain, &mut rng);
            let wire = request.wire();
            let parsed = t.span("fleetd.http.parse", |_| parse_request(&wire));
            let Parse::Complete(parsed, _) = parsed else {
                out.fail(1, || format!("{} does not parse", request.target));
                continue;
            };
            let response = t.span(&format!("fleetd.server.route.{}", kind.key()), |_| {
                route(&parsed, &fleet)
            });
            let before = t.spans().len();
            let bytes = t.span("fleetd.http.write", |_| response.write_to(false));
            body_bytes += bytes.len();
            write_ns += t.spans()[before].duration_ns();
            let reply = t.span(&format!("fleetd.route.{}", kind.key()), |_| {
                fleet_bed.client.request(&wire)
            });
            out.attempted += 1;
            match reply {
                Ok(reply) if reply.status == 200 && response.status == 200 => {}
                Ok(reply) => out.fail(1, || {
                    format!(
                        "{}: status {} / {}",
                        request.target, reply.status, response.status
                    )
                }),
                Err(e) => out.fail(1, || format!("{}: {e}", request.target)),
            }
        }
    }
    out.set(
        "fleetd.http.write_us_per_kb",
        write_ns as f64 / 1e3 / (body_bytes as f64 / 1024.0),
    );
    for _ in 0..LIGHT_REPS {
        t.span("telemetry.snapshot_json", |_| {
            hpc_telemetry::snapshot().to_json().len()
        });
    }

    // --- metrics from the spans -----------------------------------------
    let selfs = SelfTimes(t.self_times_by_name());
    let mut from_span = |metric: &str, span: &str, per_ns: f64| match selfs.median_ns(span) {
        Some(ns) => out.set(metric, ns / per_ns),
        None => out.fail(1, || format!("no span recorded for {metric}")),
    };
    const MS: f64 = 1e6;
    const US: f64 = 1e3;
    // A span `x` measured in milliseconds is metric `x_ms`, likewise `_us`.
    for span in [
        "logs.fs.read",
        "logs.chunk.pool",
        "logs.archive.merge",
        "logs.fs.save_archive",
        "core.pipeline.from_dir_seq",
        "core.detection.detect",
        "core.store.build",
        "core.pipeline.from_events",
        "core.jobs.joblog",
        "core.report.summary",
        "core.root_cause.breakdown",
        "core.lead_time.lead_times",
        "core.report.case_studies",
        "core.advisor.advise",
        "core.report.full_report",
        "core.segment.write",
        "core.segment.open",
        "core.segment.load",
        "fleetd.snapshot.report_render",
    ] {
        from_span(&format!("{span}_ms"), span, MS);
    }
    for source in LogSource::ALL {
        let span = format!("logs.parse.{}", source.key());
        from_span(&format!("{span}_ms"), &span, MS);
    }
    for span in [
        "fleetd.http.parse",
        "fleetd.snapshot.capture",
        "telemetry.snapshot_json",
    ] {
        from_span(&format!("{span}_us"), span, US);
    }
    for kind in catalogue::QUERY_KINDS {
        from_span(
            &format!("core.query.{kind}.p50_us"),
            &format!("probe.query.{kind}"),
            US,
        );
    }
    from_span(
        "stream.sink.jsonl_us_per_alert",
        "stream.sink.jsonl",
        US * replayed.alerts().len().max(1) as f64,
    );
    for r in catalogue::ROUTES {
        let in_process = format!("fleetd.server.route.{r}");
        from_span(&format!("{in_process}_us"), &in_process, US);
        from_span(
            &format!("fleetd.route.{r}.p50_us"),
            &format!("fleetd.route.{r}"),
            US,
        );
    }
    let get = |out: &Outcome, name: &str| out.metrics.get(name).copied().unwrap_or(f64::NAN);
    for r in catalogue::ROUTES {
        let socket = get(&out, &format!("fleetd.route.{r}.p50_us"))
            - get(&out, &format!("fleetd.server.route.{r}_us"));
        out.set(&format!("fleetd.route.{r}.socket_us"), socket);
    }
    let parse_ms: f64 = LogSource::ALL
        .iter()
        .map(|s| get(&out, &format!("logs.parse.{}_ms", s.key())))
        .sum();
    out.set(
        "logs.parse.lines_per_s",
        total_lines as f64 / (parse_ms / 1e3),
    );
    let largest_ms = get(&out, &format!("logs.parse.{}_ms", largest.key()));
    out.set(
        "logs.chunk.pool_speedup_x",
        largest_ms / get(&out, "logs.chunk.pool_ms"),
    );
    out.set(
        "core.report.us_per_failure",
        get(&out, "core.report.full_report_ms") * 1e3 / diagnosis.failures.len().max(1) as f64,
    );
    let per_s = |span: &str| feed_lines_per_s(&selfs, span, stream_stats.lines);
    let (replay, catch_up) = (
        per_s("stream.engine.replay"),
        per_s("stream.follow.catch_up"),
    );
    out.set("stream.merger.lines_per_s", per_s("stream.merger"));
    out.set("stream.engine.replay_lines_per_s", replay);
    out.set("stream.follow.catchup_lines_per_s", catch_up);
    out.set(
        "stream.follow.read_share_pct",
        (1.0 - catch_up / replay) * 100.0,
    );

    cross_check(&program_spans, &selfs);

    let trace_path = ctx.work.join(crate::TRACE_FILE);
    match std::fs::File::create(&trace_path) {
        Ok(f) => {
            if let Err(e) = t.write_json(std::io::BufWriter::new(f)) {
                out.fail(1, || format!("trace.json: {e}"));
            }
        }
        Err(e) => out.fail(1, || format!("trace.json: {e}")),
    }
    out.set("trace_spans", t.spans().len() as f64);
    out
}

fn feed_lines_per_s(selfs: &SelfTimes, span: &str, lines: u64) -> f64 {
    selfs
        .median_ns(span)
        .map_or(f64::NAN, |ns| lines as f64 / (ns / 1e9))
}

/// Diagnostic: the program's own retained span tree for the last sequential
/// `Diagnosis::from_dir` (`hpc_telemetry::snapshot()`) next to the
/// benchmark's outside timings of the same layers. The program's
/// `core.ingest.parse` covers reading and parsing the four files. A pair
/// more than 20% apart is flagged; nothing is asserted.
fn cross_check(program: &[hpc_telemetry::SpanNode], selfs: &SelfTimes) {
    let outside_us = |spans: &[&str]| -> Option<f64> {
        spans
            .iter()
            .map(|s| selfs.median_ns(s).map(|ns| ns / 1e3))
            .sum()
    };
    let parse: Vec<String> = LogSource::ALL
        .iter()
        .map(|s| format!("logs.parse.{}", s.key()))
        .chain(["logs.fs.read".to_string()])
        .collect();
    let parse: Vec<&str> = parse.iter().map(String::as_str).collect();
    eprintln!("trace cross-check: benchmark spans outside vs the program's own spans inside");
    for (label, outside, inside) in [
        (
            "from_dir",
            &["core.pipeline.from_dir_seq"][..],
            "core.from_dir",
        ),
        ("read + parse", &parse[..], "core.ingest.parse"),
        ("merge", &["logs.archive.merge"][..], "core.ingest.merge"),
        ("detect", &["core.detection.detect"][..], "core.detect"),
    ] {
        let in_us: f64 = program
            .iter()
            .filter(|n| n.name == inside)
            .map(|n| n.wall_us as f64)
            .sum();
        let Some(out_us) = outside_us(outside).filter(|_| in_us > 0.0) else {
            eprintln!("  {label:<14} vs {inside:<18} not recorded");
            continue;
        };
        let apart = (out_us - in_us).abs() / in_us;
        eprintln!(
            "  {label:<14} {out_us:>10.0} us   {inside:<18} {in_us:>10.0} us   {:>5.1}% apart{}",
            apart * 100.0,
            if apart > 0.20 { "  DIFFERS" } else { "" }
        );
    }
}
