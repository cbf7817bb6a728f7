//! The benchmark's contract in one place: the six workloads, the
//! end-to-end metrics with their bounds, and the per-layer metrics with
//! the end-to-end number each is expected to move. `BENCHMARK.json` is a
//! rendering of this file (`hpc-sysbench describe`); a unit test keeps
//! the two equal.

use hpc_telemetry::json::JsonValue;

/// Scenario behind a workload's archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// S1, 2 cabinets, 14 days, `telemetry_blades = 24`,
    /// `telemetry_interval_mins = 5`: ~425k lines / 37 MB, ~130 failures.
    /// Lines per failure is high, as on a production machine.
    Telemetry,
    /// S1, 8 cabinets, 60 days, defaults: ~158k lines / 16 MB, ~500
    /// failures, ~57k jobs. Failure-dense.
    Failures,
}

/// What the timed operations of a workload are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Batch,
    Store,
    Follow,
    Fleet,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub kind: Kind,
    pub shape: Shape,
    /// Archive passed through `ChaosFeed::corrupt` (see `inputs::chaos_spec`).
    pub chaos: bool,
    /// Percentile `latency_tail_ms` reports, in tenths of a percent. Fixed
    /// per workload, at what a default-length run supports, so that a run
    /// with a few more samples does not switch percentile.
    pub tail_permille: u32,
    /// One line for `BENCHMARK.json` (at most 200 characters).
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "batch_telemetry",
        kind: Kind::Batch,
        shape: Shape::Telemetry,
        chaos: false,
        tail_permille: 500,
        why: "Production-shaped archive (425k lines, ~130 failures): read, split, parse, merge and index are ~90% of archive-to-report time, so any ingest-path change shows here and analysis changes do not.",
    },
    WorkloadSpec {
        name: "batch_failures",
        kind: Kind::Batch,
        shape: Shape::Failures,
        chaos: false,
        tail_permille: 500,
        why: "Failure-dense archive (158k lines, ~500 failures, 57k jobs): case studies and advisories are ~85% of archive-to-report time, so analysis changes show here and parser work predicts no change.",
    },
    WorkloadSpec {
        name: "batch_chaos",
        kind: Kind::Batch,
        shape: Shape::Telemetry,
        chaos: true,
        tail_permille: 500,
        why: "The batch_telemetry archive after heavy mixed corruption (lossy UTF-8, torn lines, reorder, duplicates): a clean-path shortcut that costs the hostile ingest path shows here.",
    },
    WorkloadSpec {
        name: "store_mixed",
        kind: Kind::Store,
        shape: Shape::Telemetry,
        chaos: false,
        tail_permille: 950,
        why: "Segment store written, reopened and queried in one loop; the mix spans manifest-only, time-column-only and full-decode plans, so a change that helps one tier and hurts another or the writer shows.",
    },
    WorkloadSpec {
        name: "follow_paced",
        kind: Kind::Follow,
        shape: Shape::Failures,
        chaos: false,
        tail_permille: 900,
        why: "Stream path used two ways: lines appended open-loop at 20k lines/s, far below capacity (per-tick lag), and a full backlog drained (catch-up); batching that helps one and costs the other shows.",
    },
    WorkloadSpec {
        name: "fleet_api",
        kind: Kind::Fleet,
        shape: Shape::Failures,
        chaos: false,
        tail_permille: 950,
        why: "HTTP parse, route, snapshot JSON rendering and store passthrough over one keep-alive connection, weighted toward routes where the program does at least 0.2 ms of work, not toward loopback latency.",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn key(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
    /// What is measured, and for a per-layer metric which end-to-end
    /// metric it should move on which workload.
    pub what: String,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64, what: &str) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
        what: what.to_string(),
    }
}

/// The end-to-end metrics. Every workload reports every one of them, so
/// each is defined by what the workload's user waits for.
pub fn end_to_end() -> Vec<MetricSpec> {
    use Better::*;
    vec![
        e2e(
            "latency_p50_ms",
            "ms",
            Lower,
            BOUND_LATENCY_P50,
            "median latency of the workload's operation: batch_* archive dir on disk -> full report string; store_mixed one planner query of the mix; follow_paced tick due -> tick's lines consumed by the engine; fleet_api one HTTP request",
        ),
        e2e(
            "latency_tail_ms",
            "ms",
            Lower,
            BOUND_LATENCY_TAIL,
            "the same series at a tail percentile fixed per workload: p95 on store_mixed and fleet_api (the median of the full-decode tail kind, 10% of either mix), p90 on follow_paced; a batch_* run holds 13-50 operations, which leaves ten samples beyond the median only",
        ),
        e2e(
            "throughput_per_s",
            "1/s",
            Higher,
            BOUND_THROUGHPUT,
            "work per second: batch_* log lines diagnosed (lines / median operation); store_mixed saves + opens + queries over their summed time; follow_paced lines / median catch-up of the full backlog; fleet_api requests over their summed time",
        ),
        e2e(
            "peak_rss_mb",
            "MB",
            Lower,
            BOUND_PEAK_RSS,
            "VmHWM of the workload's child process after the last timed operation and before verification; the scenario generator runs in the parent process",
        ),
        e2e(
            "setup_s",
            "s",
            Lower,
            BOUND_SETUP,
            "median of three set-ups: scenario generation, archive write, and everything the child does before its first timed operation (ingest for the store, snapshot replay, server start, warm-up operation)",
        ),
    ]
}

// Bounds follow what two sets of runs on this sandbox can resolve (see
// README.md, "How the bounds were set"): a spin loop's own median drifts
// by +-5% between ten-second windows here.
pub const BOUND_LATENCY_P50: f64 = 0.25;
pub const BOUND_LATENCY_TAIL: f64 = 0.25;
pub const BOUND_THROUGHPUT: f64 = 0.25;
pub const BOUND_PEAK_RSS: f64 = 0.25;
pub const BOUND_SETUP: f64 = 0.25;

/// Planner query kinds of the `store_mixed` mix.
pub const QUERY_KINDS: [&str; 6] = [
    "count_class",
    "count_window",
    "count_node_window",
    "hist_class_day",
    "tail_node",
    "tail_window",
];

/// fleetd routes of the `fleet_api` mix.
pub const ROUTES: [&str; 8] = [
    "report",
    "window",
    "alerts",
    "failures",
    "query_count_window",
    "query_tail_node",
    "metrics",
    "systems",
];

/// The per-layer metrics, measured only with `--trace 1`. Each names
/// the end-to-end metric it should move ("->") and where it should do
/// little ("no effect").
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::*;
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better, what: &str| {
        out.push(MetricSpec {
            name: name.to_string(),
            unit,
            better,
            bound: None,
            what: what.to_string(),
        });
    };

    const INGEST: &str = "-> latency_p50_ms, throughput_per_s on batch_telemetry, batch_chaos; no effect on batch_failures (all of ingest ~12%)";
    add(
        "logs.fs.read_ms",
        "ms",
        Lower,
        &format!("LineBatches::open drained over the four files, no parse; {INGEST}"),
    );
    for source in ["console", "controller", "erd", "scheduler"] {
        add(
            &format!("logs.parse.{source}_ms"),
            "ms",
            Lower,
            &format!("LogParser::parse_stream over the {source} lines; {INGEST}"),
        );
    }
    add(
        "logs.parse.lines_per_s",
        "1/s",
        Higher,
        &format!("lines of all sources / summed parse_stream time; {INGEST}"),
    );
    add(
        "logs.parse.skipped_lines",
        "count",
        Lower,
        "lines no parser recognised (0 on clean archives, >0 on batch_chaos)",
    );
    add(
        "logs.chunk.pool_ms",
        "ms",
        Lower,
        &format!("parse_chunk on nproc threads + stitch over the largest source; {INGEST}"),
    );
    add(
        "logs.chunk.pool_speedup_x",
        "x",
        Higher,
        "parse_stream time / pooled time on the largest source: what the ingest pool can overlap",
    );
    add(
        "logs.archive.merge_ms",
        "ms",
        Lower,
        &format!("merge_by_time over the four parsed streams; {INGEST}"),
    );
    add(
        "logs.fs.save_archive_ms",
        "ms",
        Lower,
        "save_archive of the loaded archive; -> setup_s on every workload",
    );

    const ANALYSIS: &str = "-> latency_p50_ms, throughput_per_s on batch_failures (case_studies + advise ~85%); no effect on batch_telemetry (~7%)";
    add("core.pipeline.from_dir_seq_ms", "ms", Lower, "Diagnosis::from_dir with parallel_ingest off: read + parse + merge + from_events on one thread");
    add(
        "core.detection.detect_ms",
        "ms",
        Lower,
        &format!("detect_failures over the merged events; {INGEST}"),
    );
    add(
        "core.store.build_ms",
        "ms",
        Lower,
        "EventStore::build; -> latency_p50_ms on batch_telemetry (~8%)",
    );
    add(
        "core.pipeline.from_events_ms",
        "ms",
        Lower,
        "Diagnosis::from_events (detection, SWO partition, index build)",
    );
    add(
        "core.jobs.joblog_ms",
        "ms",
        Lower,
        &format!("JobLog::from_diagnosis; {ANALYSIS}"),
    );
    add(
        "core.report.summary_ms",
        "ms",
        Lower,
        &format!("report::render_summary; {ANALYSIS}"),
    );
    add(
        "core.root_cause.breakdown_ms",
        "ms",
        Lower,
        &format!("CauseBreakdown::compute; {ANALYSIS}"),
    );
    add(
        "core.lead_time.lead_times_ms",
        "ms",
        Lower,
        &format!("lead_times + summarize; {ANALYSIS}"),
    );
    add(
        "core.report.case_studies_ms",
        "ms",
        Lower,
        &format!("report::case_studies; {ANALYSIS}"),
    );
    add(
        "core.advisor.advise_ms",
        "ms",
        Lower,
        &format!("advisor::advise; {ANALYSIS}"),
    );
    add(
        "core.report.full_report_ms",
        "ms",
        Lower,
        &format!("report::full_report; {ANALYSIS}"),
    );
    add(
        "core.report.us_per_failure",
        "us",
        Lower,
        "full_report time / detected failures",
    );

    const STORE: &str = "-> throughput_per_s on store_mixed; no effect on batch_*";
    add(
        "core.segment.write_ms",
        "ms",
        Lower,
        &format!("Diagnosis::save_store into an empty dir; {STORE}, setup_s on fleet_api"),
    );
    add(
        "core.segment.open_ms",
        "ms",
        Lower,
        &format!("validated segment::Store::open, no row decode; {STORE}"),
    );
    add(
        "core.segment.load_ms",
        "ms",
        Lower,
        "Store::load: every row decoded once",
    );
    add(
        "core.segment.store_bytes",
        "bytes",
        Lower,
        "bytes of the store directory",
    );
    add(
        "core.segment.bytes_per_event",
        "bytes",
        Lower,
        "store directory bytes / events (exact)",
    );
    for kind in QUERY_KINDS {
        let moves = match kind {
            "count_class" => "the bypass kind: manifest only, should stay ~0",
            "tail_node" | "count_node_window" | "hist_class_day" => "-> latency_tail_ms, throughput_per_s on store_mixed (full decode); through /query -> fleet_api",
            _ => "-> latency_p50_ms on store_mixed (time column only)",
        };
        add(
            &format!("core.query.{kind}.p50_us"),
            "us",
            Lower,
            &format!("median planner time of {kind}; {moves}"),
        );
        add(
            &format!("core.query.{kind}.rows_decoded_per_query"),
            "count",
            Lower,
            &format!("core.segment.rows_decoded delta per {kind} query (exact with one client)"),
        );
        add(
            &format!("core.query.{kind}.segments_pruned_per_query"),
            "count",
            Higher,
            &format!("core.segment.segments_pruned delta per {kind} query (exact)"),
        );
    }
    add(
        "core.query.rows_decoded_per_row_returned",
        "ratio",
        Lower,
        "rows decoded / rows returned over the tail kinds: the work a full-decode plan wastes",
    );

    const STREAM: &str = "-> throughput_per_s, latency_p50_ms on follow_paced, setup_s on fleet_api; no effect on batch_*, store_mixed";
    add(
        "stream.merger.lines_per_s",
        "1/s",
        Higher,
        &format!("StreamMerger::push_line + poll alone over the merged lines; {STREAM}"),
    );
    add(
        "stream.engine.replay_lines_per_s",
        "1/s",
        Higher,
        &format!("in-memory merged lines -> StreamEngine::push_line -> finish; {STREAM}"),
    );
    add(
        "stream.follow.catchup_lines_per_s",
        "1/s",
        Higher,
        &format!("fresh FollowDir + engine over the fully written dir to finish; {STREAM}"),
    );
    add(
        "stream.follow.read_share_pct",
        "%",
        Lower,
        "1 - replay wall / catch-up wall: the file-tailing share of catch-up",
    );
    add(
        "stream.sink.jsonl_us_per_alert",
        "us",
        Lower,
        "JsonlSink::alert into a buffer, per alert",
    );
    add(
        "stream.follow.polls_per_tick",
        "count",
        Lower,
        "poll_into calls per 25 ms tick in a two-second paced phase at 20k lines/s",
    );
    add("stream.follow.generator_late_p90_us", "us", Lower, "how long after its due time the open-loop generator had a tick appended, p90 of 80 ticks (lateness is inside the lag, not hidden)");
    add(
        "stream.engine.alerts",
        "count",
        Lower,
        "alerts raised over the full replay (exact per seed)",
    );
    add(
        "stream.engine.failures",
        "count",
        Lower,
        "failures finalised over the full replay (exact per seed)",
    );
    add(
        "stream.engine.late_events",
        "count",
        Lower,
        "events dropped behind the watermark over the full replay",
    );
    add(
        "stream.window.peak_retained",
        "count",
        Lower,
        "peak events retained in the sliding window",
    );

    const FLEET: &str = "-> throughput_per_s, latency_p50_ms on fleet_api; no effect elsewhere";
    add(
        "fleetd.http.parse_us",
        "us",
        Lower,
        &format!("parse_request over the mix's request bytes; {FLEET}"),
    );
    for route in ROUTES {
        let share = match route {
            "query_tail_node" => "~75% of mean request time, sets latency_tail_ms",
            "query_count_window" => "~10% of mean request time",
            "alerts" | "failures" => "JSON rendering, ~15% of mean request time with its twin",
            _ => "small body: visible here only, the socket hides it",
        };
        add(
            &format!("fleetd.server.route.{route}_us"),
            "us",
            Lower,
            &format!("server::route in process, no socket; {share}; {FLEET}"),
        );
    }
    add(
        "fleetd.http.write_us_per_kb",
        "us",
        Lower,
        &format!("Response::write_to per KiB of body; {FLEET}"),
    );
    add(
        "fleetd.snapshot.capture_us",
        "us",
        Lower,
        "SystemSnapshot::capture of the finished engine; -> setup_s on fleet_api",
    );
    add(
        "fleetd.snapshot.report_render_ms",
        "ms",
        Lower,
        "first report() after a publish (cached afterwards)",
    );
    for route in ROUTES {
        add(
            &format!("fleetd.route.{route}.p50_us"),
            "us",
            Lower,
            &format!("median over the loopback socket; {FLEET}"),
        );
        add(
            &format!("fleetd.route.{route}.socket_us"),
            "us",
            Lower,
            "socket p50 - in-process route time: loopback, framing and the client",
        );
    }
    add("telemetry.snapshot_json_us", "us", Lower, "hpc_telemetry::snapshot().to_json(), the /metrics body; -> throughput_per_s on fleet_api (5% of requests)");
    add(
        "faultsim.scenario.run_ms",
        "ms",
        Lower,
        "Scenario::run in the parent; -> setup_s on every workload",
    );
    add(
        "faultsim.chaos.corrupt_ms",
        "ms",
        Lower,
        "ChaosFeed::corrupt of the archive; -> setup_s on batch_chaos",
    );
    add(
        "trace_overhead_pct",
        "%",
        Lower,
        "median over operations of (span-wrapped operation with the tracer on / the same with it off), minus one",
    );
    add("trace_reconcile_pct", "%", Higher, "median over operations of (sum of the traced operation's leaf-span self times / the real entry point run next to it); below 100 on batch_* means the pooled entry point costs more than its layers called one after another");
    out
}

fn metric_json(m: &MetricSpec) -> JsonValue {
    let mut fields = vec![
        ("name".to_string(), JsonValue::String(m.name.clone())),
        ("unit".to_string(), JsonValue::String(m.unit.to_string())),
        (
            "better".to_string(),
            JsonValue::String(m.better.key().to_string()),
        ),
    ];
    if let Some(b) = m.bound {
        fields.push(("bound".to_string(), JsonValue::Number(b)));
    }
    JsonValue::Object(fields)
}

/// Seconds one contract run measures.
pub const RUN_SECONDS: u64 = 12;

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> JsonValue {
    let strings = |items: &[&str]| {
        JsonValue::Array(
            items
                .iter()
                .map(|s| JsonValue::String(s.to_string()))
                .collect(),
        )
    };
    JsonValue::Object(vec![
        (
            "command".to_string(),
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".to_string(), strings(&["benchmark"])),
        (
            "run_seconds".to_string(),
            JsonValue::Number(RUN_SECONDS as f64),
        ),
        (
            "workloads".to_string(),
            JsonValue::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        JsonValue::Object(vec![
                            ("name".to_string(), JsonValue::String(w.name.to_string())),
                            ("why".to_string(), JsonValue::String(w.why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".to_string(),
            JsonValue::Array(end_to_end().iter().map(metric_json).collect()),
        ),
        (
            "per_layer".to_string(),
            JsonValue::Array(per_layer().iter().map(metric_json).collect()),
        ),
    ])
}

/// The metric catalogue as Markdown tables, for `README.md`.
pub fn markdown() -> String {
    let mut s = String::from(
        "| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|\n",
    );
    for m in end_to_end() {
        s.push_str(&format!(
            "| `{}` | {} | {} | {:.0}% | {} |\n",
            m.name,
            m.unit,
            m.better.key(),
            m.bound.expect("end-to-end metrics carry a bound") * 100.0,
            m.what
        ));
    }
    s.push_str("\n| per-layer metric | unit | better | what it measures; what it should move |\n|---|---|---|---|\n");
    for m in per_layer() {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.key(),
            m.what
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_stays_inside_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .chain(e2e.iter().chain(&layers).map(|m| m.name.clone()))
        {
            assert!(name_ok(&name), "{name}");
            assert!(seen.insert(name.clone()), "duplicate name {name}");
        }
        for m in e2e.iter().chain(&layers) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &e2e {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(e2e.iter().all(|m| m.bound <= setup.bound));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn committed_benchmark_json_is_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let committed = hpc_telemetry::json::parse(&text).expect("valid JSON");
        assert_eq!(committed, benchmark_json());
    }
}
