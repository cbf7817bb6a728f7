//! End-to-end tests of the CLI binaries: `hpc-simulate` writes a log tree,
//! `hpc-diagnose` analyses it.

use std::ffi::OsString;
use std::path::PathBuf;
use std::process::Command;
#[cfg(unix)]
use std::{ffi::OsStr, os::unix::ffi::OsStrExt};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpc-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn simulate_then_diagnose_round_trips() {
    let dir = tmpdir("roundtrip");
    let sim = Command::new(env!("CARGO_BIN_EXE_hpc-simulate"))
        .args([dir.to_str().unwrap(), "S1", "1", "2", "99"])
        .output()
        .expect("run hpc-simulate");
    assert!(sim.status.success(), "simulate failed: {sim:?}");
    let stderr = String::from_utf8_lossy(&sim.stderr);
    assert!(stderr.contains("wrote"), "missing summary: {stderr}");

    let diag = Command::new(env!("CARGO_BIN_EXE_hpc-diagnose"))
        .arg(dir.to_str().unwrap())
        .output()
        .expect("run hpc-diagnose");
    assert!(diag.status.success(), "diagnose failed: {diag:?}");
    let stdout = String::from_utf8_lossy(&diag.stdout);
    for section in [
        "=== summary ===",
        "=== root-cause breakdown ===",
        "=== lead-time analysis ===",
        "=== case studies ===",
        "=== advisories ===",
        "skipped lines: 0",
    ] {
        assert!(
            stdout.contains(section),
            "missing {section:?} in:\n{stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn telemetry_json_flag_writes_valid_report() {
    let dir = tmpdir("telemetry");
    let sim_json = dir.join("sim-telemetry.json");
    let diag_json = dir.join("diag-telemetry.json");
    let sim = Command::new(env!("CARGO_BIN_EXE_hpc-simulate"))
        .args([
            dir.to_str().unwrap(),
            "S1",
            "1",
            "2",
            "99",
            "--telemetry-json",
            sim_json.to_str().unwrap(),
        ])
        .output()
        .expect("run hpc-simulate");
    assert!(sim.status.success(), "simulate failed: {sim:?}");
    let stderr = String::from_utf8_lossy(&sim.stderr);
    assert!(stderr.contains("--- telemetry ---"), "no table: {stderr}");
    assert!(stderr.contains("faultsim.run"), "no stage rows: {stderr}");

    let diag = Command::new(env!("CARGO_BIN_EXE_hpc-diagnose"))
        .args([
            dir.to_str().unwrap(),
            "--telemetry-json",
            diag_json.to_str().unwrap(),
        ])
        .env("HPC_TRACE", "1")
        .output()
        .expect("run hpc-diagnose");
    assert!(diag.status.success(), "diagnose failed: {diag:?}");
    let stderr = String::from_utf8_lossy(&diag.stderr);
    assert!(stderr.contains("[trace]"), "HPC_TRACE trace: {stderr}");
    assert!(
        stderr.contains("> core.from_dir"),
        "trace names stages: {stderr}"
    );
    // Telemetry is stderr-only: stdout stays machine-diffable report text.
    let stdout = String::from_utf8_lossy(&diag.stdout);
    assert!(!stdout.contains("[trace]"), "trace leaked to stdout");
    assert!(!stdout.contains("--- telemetry ---"), "table on stdout");

    for (path, stage) in [
        (&sim_json, "faultsim.run.time_us"),
        (&diag_json, "core.from_dir.time_us"),
    ] {
        let text = std::fs::read_to_string(path).expect("telemetry JSON written");
        let snap = hpc_node_failures::telemetry::Snapshot::from_json(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let h = snap.histogram(stage).expect(stage);
        assert!(h.sum > 0, "{stage} has zero duration");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn diagnose_prints_nested_profile_table() {
    let dir = tmpdir("profile");
    let sim = Command::new(env!("CARGO_BIN_EXE_hpc-simulate"))
        .args([dir.to_str().unwrap(), "S1", "1", "2", "99"])
        .output()
        .expect("run hpc-simulate");
    assert!(sim.status.success(), "simulate failed: {sim:?}");

    let diag = Command::new(env!("CARGO_BIN_EXE_hpc-diagnose"))
        .arg(dir.to_str().unwrap())
        .output()
        .expect("run hpc-diagnose");
    assert!(diag.status.success(), "diagnose failed: {diag:?}");
    let stderr = String::from_utf8_lossy(&diag.stderr);
    let profile = stderr
        .split("--- profile ---")
        .nth(1)
        .expect("profile table after the telemetry table");
    // The span tree nests: ingest under the pipeline root, the per-stream
    // parsers one level deeper, each with its own self time.
    assert!(profile.contains("\ncore.from_dir"), "{profile}");
    assert!(profile.contains("\n  core.ingest.parse"), "{profile}");
    assert!(
        profile.contains("\n    core.ingest.parse.console"),
        "{profile}"
    );
    assert!(profile.contains(" self"), "{profile}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// SIGTERM mid-stream must still produce every exit artefact: drained
/// summary, telemetry JSON, and a heartbeat file whose last record is
/// marked final — the flush contract of the drain path.
#[cfg(unix)]
#[test]
fn watch_sigterm_flushes_heartbeat_and_telemetry() {
    use std::io::Write;
    use std::process::Stdio;
    use std::time::Duration;

    let dir = tmpdir("sigterm-flush");
    let sim = Command::new(env!("CARGO_BIN_EXE_hpc-simulate"))
        .args([dir.to_str().unwrap(), "S1", "1", "1", "99"])
        .output()
        .expect("run hpc-simulate");
    assert!(sim.status.success(), "simulate failed: {sim:?}");
    let console = dir.join("p0-directory").join("console");
    let lines = std::fs::read_to_string(&console).expect("console stream");

    // A FIFO keeps stdin open so hpc-watch idles mid-stream instead of
    // draining on EOF; only the signal can end the run.
    let fifo = dir.join("watch-fifo");
    assert!(Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("mkfifo")
        .success());
    let writer = {
        let fifo = fifo.clone();
        std::thread::spawn(move || {
            // Blocks until hpc-watch opens the read side.
            let mut w = std::fs::OpenOptions::new().write(true).open(&fifo).unwrap();
            for line in lines.lines().take(500) {
                writeln!(w, "{line}").unwrap();
            }
            // Hold the FIFO open past the SIGTERM so EOF never happens.
            std::thread::sleep(Duration::from_secs(8));
        })
    };

    let heartbeat = dir.join("heartbeat.jsonl");
    let telemetry = dir.join("watch-telemetry.json");
    let stdin = std::fs::File::open(&fifo).expect("open fifo read side");
    let child = Command::new(env!("CARGO_BIN_EXE_hpc-watch"))
        .args([
            "--stdin",
            "--quiet",
            "--heartbeat-jsonl",
            heartbeat.to_str().unwrap(),
            "--heartbeat-secs",
            "1",
            "--telemetry-json",
            telemetry.to_str().unwrap(),
        ])
        .stdin(Stdio::from(stdin))
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hpc-watch");

    // Let it ingest and emit at least one periodic heartbeat, then TERM.
    std::thread::sleep(Duration::from_millis(2500));
    assert!(Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill")
        .success());
    let out = child.wait_with_output().expect("wait for hpc-watch");
    assert!(out.status.success(), "drain exit nonzero: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("signal received"), "{stderr}");
    assert!(stderr.contains("hpc-watch:"), "{stderr}");

    // Heartbeat file: >= 2 records (one periodic + the final), every line
    // well-formed flat JSON, last one marked final.
    let hb = std::fs::read_to_string(&heartbeat).expect("heartbeat flushed");
    let records: Vec<&str> = hb.lines().collect();
    assert!(records.len() >= 2, "want periodic + final records: {hb}");
    for line in &records {
        let v = hpc_node_failures::telemetry::json::parse(line)
            .unwrap_or_else(|e| panic!("bad heartbeat line {line}: {e}"));
        assert_eq!(v.get("v").unwrap().as_number(), Some(1.0));
        assert!(v.get("lines").unwrap().as_number().unwrap() >= 0.0);
    }
    let last = hpc_node_failures::telemetry::json::parse(records.last().unwrap()).unwrap();
    assert_eq!(
        last.get("final"),
        Some(&hpc_node_failures::telemetry::json::JsonValue::Bool(true)),
        "last heartbeat not final: {hb}"
    );

    // Telemetry JSON flushed on the same path.
    let text = std::fs::read_to_string(&telemetry).expect("telemetry flushed on signal");
    let snap = hpc_node_failures::telemetry::Snapshot::from_json(&text).expect("telemetry parses");

    // The final heartbeat and the telemetry snapshot are two exports of
    // the same drained engine — every shared counter must agree exactly.
    // This is the contract fleetd snapshots inherit: no field is sampled
    // on a different schedule than its telemetry twin.
    for (hb_field, counter) in [
        ("lines", "stream.lines"),
        ("events", "stream.events"),
        ("late_events", "stream.late_events"),
        ("skipped_lines", "stream.skipped_lines"),
        ("alerts", "stream.alerts"),
        ("alerts_expired", "stream.alerts.expired"),
        ("failures", "stream.failures"),
        ("predicted_failures", "stream.failures.predicted"),
        ("missed_failures", "stream.failures.missed"),
    ] {
        let hb_val = last.get(hb_field).unwrap().as_number().unwrap() as u64;
        let tel_val = snap.counter(counter).unwrap_or(0);
        assert_eq!(
            hb_val, tel_val,
            "final heartbeat `{hb_field}` disagrees with telemetry `{counter}`"
        );
    }

    writer.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn diagnose_rejects_missing_directory() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpc-diagnose"))
        .arg("/nonexistent/hpc-logs-dir")
        .output()
        .expect("run hpc-diagnose");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot read log directory"),
        "want a one-line error, got:\n{stderr}"
    );
}

#[test]
fn diagnose_rejects_file_as_directory() {
    let dir = tmpdir("file-not-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "some log line\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hpc-diagnose"))
        .arg(file.to_str().unwrap())
        .output()
        .expect("run hpc-diagnose");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot read log directory"),
        "want a one-line error, got:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn watch_follow_rejects_missing_directory_promptly() {
    // Regression: --follow on a nonexistent directory used to poll it in a
    // silent infinite loop. It must now fail fast with one clear line.
    let out = Command::new(env!("CARGO_BIN_EXE_hpc-watch"))
        .args(["--follow", "/nonexistent/hpc-logs-dir", "--quiet"])
        .output()
        .expect("run hpc-watch");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot read log directory"),
        "want a one-line error, got:\n{stderr}"
    );
}

/// An unwritable output path must be a one-line failure at startup, not a
/// panic (or a lost artefact) after the run. `blocker/x` where `blocker`
/// is a regular file yields ENOTDIR, which fails even for root.
fn blocker_path(dir: &std::path::Path, name: &str) -> String {
    let blocker = dir.join("blocker");
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(&blocker, "not a directory\n").unwrap();
    blocker.join(name).to_str().unwrap().to_string()
}

#[test]
fn diagnose_fails_fast_on_unwritable_outputs() {
    let dir = tmpdir("diag-unwritable");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = blocker_path(&dir, "out.json");
    for flags in [
        vec!["--telemetry-json", bad.as_str()],
        vec!["--save-store", bad.as_str()],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hpc-diagnose"))
            .arg(dir.to_str().unwrap())
            .args(&flags)
            .output()
            .expect("run hpc-diagnose");
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("cannot write"),
            "{flags:?}: want a one-line error, got:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The probes must not outlive a run that fails after them: an empty log
/// directory is refused once both output paths were found writable.
#[test]
fn diagnose_failing_after_the_probes_leaves_no_empty_outputs() {
    let dir = tmpdir("diag-probe-cleanup");
    let logs = dir.join("logs");
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let sim = Command::new(env!("CARGO_BIN_EXE_hpc-simulate"))
        .args([logs.to_str().unwrap(), "S1", "1", "1", "7"])
        .output()
        .expect("run hpc-simulate");
    assert!(sim.status.success(), "simulate failed: {sim:?}");
    let diagnose = |logs: &std::path::Path, store: &std::path::Path, json: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_hpc-diagnose"))
            .arg(logs)
            .arg("--save-store")
            .arg(store)
            .arg("--telemetry-json")
            .arg(json)
            .output()
            .expect("run hpc-diagnose")
    };
    let count = |store: &std::path::Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_hpc-query"))
            .arg(store)
            .arg("count")
            .output()
            .expect("run hpc-query count");
        assert!(out.status.success(), "count failed: {out:?}");
        out.stdout
    };
    let good = dir.join("good-store");
    let saved = diagnose(&logs, &good, &dir.join("good.json"));
    assert!(saved.status.success(), "save-store failed: {saved:?}");
    let before = count(&good);

    for store in [dir.join("fresh-store"), good.clone()] {
        let json = dir.join("failed.json");
        let failed = diagnose(&empty, &store, &json);
        assert_eq!(failed.status.code(), Some(1), "{failed:?}");
        assert!(
            String::from_utf8_lossy(&failed.stderr).contains("no log lines found"),
            "{failed:?}"
        );
        assert!(!json.exists(), "probe left {}", json.display());
        if store == good {
            assert_eq!(count(&good), before, "a failed run damaged the store");
        } else {
            assert!(
                !store.join("MANIFEST.json").exists(),
                "probe left a manifest"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn watch_fails_fast_on_unwritable_outputs() {
    let dir = tmpdir("watch-unwritable");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = blocker_path(&dir, "out.jsonl");
    for (flag, want) in [
        ("--telemetry-json", "cannot write"),
        ("--flight-file", "cannot write"),
        ("--heartbeat-jsonl", "cannot open"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hpc-watch"))
            .args(["--stdin", "--quiet", flag, bad.as_str()])
            .stdin(std::process::Stdio::null())
            .output()
            .expect("run hpc-watch");
        assert_eq!(out.status.code(), Some(1), "{flag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(want),
            "{flag}: want a one-line error, got:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A simulated archive as one timestamp-merged feed (ties keep file
/// order), written twice under `dir`: as is, and with one non-UTF-8 line
/// after line 1,000. Returns `(clean, hostile)`.
fn merged_feeds(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    let sim = Command::new(env!("CARGO_BIN_EXE_hpc-simulate"))
        .args([dir.to_str().unwrap(), "S1", "1", "2", "99"])
        .output()
        .expect("run hpc-simulate");
    assert!(sim.status.success(), "simulate failed: {sim:?}");
    let mut lines = Vec::new();
    for file in [
        "p0-directory/console",
        "controller/controller.log",
        "erd/event-20160101",
        "scheduler/slurmctld.log",
    ] {
        let text = std::fs::read_to_string(dir.join(file)).expect(file);
        lines.extend(text.lines().map(str::to_string));
    }
    // Every line opens with a 23-character timestamp; the sort is stable.
    lines.sort_by(|a, b| a[..23].cmp(&b[..23]));
    assert!(lines.len() > 2_000, "feed too short: {}", lines.len());
    let mut clean = Vec::new();
    let mut hostile = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if i == 1_000 {
            hostile.extend_from_slice(b"\xff\xfe torn by a dying node\n");
        }
        for feed in [&mut clean, &mut hostile] {
            feed.extend_from_slice(line.as_bytes());
            feed.push(b'\n');
        }
    }
    let paths = (dir.join("feed-clean"), dir.join("feed-hostile"));
    std::fs::write(&paths.0, clean).unwrap();
    std::fs::write(&paths.1, hostile).unwrap();
    paths
}

/// One bad byte on stdin used to end ingest silently (`lines()` errors on
/// a non-UTF-8 line and the loop broke on the first error): everything
/// after line 1,000 was dropped, exit 0, no warning.
#[test]
fn diagnose_stdin_ingests_past_a_non_utf8_line() {
    let dir = tmpdir("stdin-utf8-diagnose");
    let (clean, hostile) = merged_feeds(&dir);
    let run = |feed: &PathBuf| {
        let out = Command::new(env!("CARGO_BIN_EXE_hpc-diagnose"))
            .arg("--stdin")
            .stdin(std::fs::File::open(feed).unwrap())
            .output()
            .expect("run hpc-diagnose");
        assert!(out.status.success(), "diagnose failed: {out:?}");
        (
            String::from_utf8(out.stdout).unwrap(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (want, clean_err) = run(&clean);
    let (got, hostile_err) = run(&hostile);
    assert!(!want.contains("failures: 0\n"), "nothing to lose:\n{want}");
    assert!(!clean_err.contains("degraded ingest"), "{clean_err}");
    // The bad line is one more skipped line; nothing else may differ.
    assert_eq!(got, want.replace("skipped lines: 0", "skipped lines: 1"));
    assert!(
        hostile_err.contains("degraded ingest: 1 invalid-UTF-8 lines sanitised"),
        "{hostile_err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn watch_stdin_alerts_past_a_non_utf8_line() {
    let dir = tmpdir("stdin-utf8-watch");
    let (clean, hostile) = merged_feeds(&dir);
    let run = |feed: &PathBuf, tag: &str| {
        let alerts = dir.join(format!("alerts-{tag}.jsonl"));
        let out = Command::new(env!("CARGO_BIN_EXE_hpc-watch"))
            .args(["--stdin", "--quiet", "--alerts-jsonl"])
            .arg(&alerts)
            .stdin(std::fs::File::open(feed).unwrap())
            .output()
            .expect("run hpc-watch");
        assert!(out.status.success(), "watch failed: {out:?}");
        (
            std::fs::read_to_string(&alerts).unwrap(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (want, clean_err) = run(&clean, "clean");
    let (got, hostile_err) = run(&hostile, "hostile");
    let late = want.lines().filter(|l| l.contains("2016-01-02T")).count();
    assert!(late > 0, "no alert past the bad line to lose:\n{want}");
    assert!(!clean_err.contains("invalid-utf8"), "{clean_err}");
    assert_eq!(got, want);
    assert!(
        hostile_err.contains("stdin degradation: 1 invalid-utf8 lines sanitised"),
        "{hostile_err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn simulate_fails_fast_on_unwritable_telemetry_json() {
    let dir = tmpdir("sim-unwritable");
    let bad = blocker_path(&dir, "out.json");
    let logs = dir.join("logs");
    let out = Command::new(env!("CARGO_BIN_EXE_hpc-simulate"))
        .args([logs.to_str().unwrap(), "S1", "1", "1", "7"])
        .args(["--telemetry-json", bad.as_str()])
        .output()
        .expect("run hpc-simulate");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot write"), "got:\n{stderr}");
    assert!(!stderr.contains("simulating"), "refused before any work");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The rehosted batch path: `--save-store` then `--from-store` must emit a
/// byte-identical report, and `hpc-query` must answer over the same store.
#[test]
fn save_store_then_from_store_report_is_byte_identical() {
    let dir = tmpdir("store-roundtrip");
    let store = dir.join("store");
    let sim = Command::new(env!("CARGO_BIN_EXE_hpc-simulate"))
        .args([dir.to_str().unwrap(), "S1", "1", "2", "99"])
        .output()
        .expect("run hpc-simulate");
    assert!(sim.status.success(), "simulate failed: {sim:?}");

    let first = Command::new(env!("CARGO_BIN_EXE_hpc-diagnose"))
        .args([
            dir.to_str().unwrap(),
            "--save-store",
            store.to_str().unwrap(),
        ])
        .output()
        .expect("run hpc-diagnose --save-store");
    assert!(first.status.success(), "save-store failed: {first:?}");
    assert!(
        String::from_utf8_lossy(&first.stderr).contains("segment store written"),
        "no save confirmation: {first:?}"
    );
    assert!(store.join("MANIFEST.json").is_file());

    let second = Command::new(env!("CARGO_BIN_EXE_hpc-diagnose"))
        .args(["--from-store", store.to_str().unwrap()])
        .output()
        .expect("run hpc-diagnose --from-store");
    assert!(second.status.success(), "from-store failed: {second:?}");
    assert_eq!(
        first.stdout, second.stdout,
        "reopened report differs from the ingest report"
    );

    // hpc-query answers over the same store, text and JSON.
    let count = Command::new(env!("CARGO_BIN_EXE_hpc-query"))
        .args([store.to_str().unwrap(), "count"])
        .output()
        .expect("run hpc-query count");
    assert!(count.status.success(), "count failed: {count:?}");
    let n: u64 = String::from_utf8_lossy(&count.stdout)
        .trim()
        .parse()
        .expect("count prints a number");
    assert!(n > 0, "empty store");
    let hist = Command::new(env!("CARGO_BIN_EXE_hpc-query"))
        .args([
            store.to_str().unwrap(),
            "histogram",
            "--by",
            "class",
            "--json",
        ])
        .output()
        .expect("run hpc-query histogram");
    assert!(hist.status.success(), "histogram failed: {hist:?}");
    hpc_node_failures::telemetry::json::parse(String::from_utf8_lossy(&hist.stdout).trim())
        .expect("histogram --json parses");

    // A flipped byte in a segment body must be a one-line exit-1 error for
    // both consumers of the store — never a panic, never a wrong answer.
    let seg = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "col"))
        .expect("a segment file");
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&seg, &bytes).unwrap();
    for cmd in [
        Command::new(env!("CARGO_BIN_EXE_hpc-query"))
            .args([store.to_str().unwrap(), "count"])
            .output()
            .expect("run hpc-query on corrupt store"),
        Command::new(env!("CARGO_BIN_EXE_hpc-diagnose"))
            .args(["--from-store", store.to_str().unwrap()])
            .output()
            .expect("run hpc-diagnose on corrupt store"),
    ] {
        assert_eq!(cmd.status.code(), Some(1), "{cmd:?}");
        let stderr = String::from_utf8_lossy(&cmd.stderr);
        assert!(
            stderr.contains("corrupt segment store"),
            "want a clean corruption error, got:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_rejects_missing_store_and_bad_args() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpc-query"))
        .args(["/nonexistent/hpc-store", "count"])
        .output()
        .expect("run hpc-query");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot read"),
        "{out:?}"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_hpc-query"))
        .args(["/tmp", "frobnicate"])
        .output()
        .expect("run hpc-query");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown verb"),
        "{out:?}"
    );
}

#[test]
fn simulate_rejects_bad_system() {
    let dir = tmpdir("badsys");
    let out = Command::new(env!("CARGO_BIN_EXE_hpc-simulate"))
        .args([dir.to_str().unwrap(), "S9"])
        .output()
        .expect("run hpc-simulate");
    assert!(!out.status.success());
}

#[test]
fn simulate_usage_without_args() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpc-simulate"))
        .output()
        .expect("run hpc-simulate");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// The command-line contract of every root binary: a bad invocation is the
/// usage line and exit 2 — never a panic, never a silently adjusted value.
#[test]
fn bad_command_lines_exit_2_with_usage() {
    let table: [(&str, &[&[&str]]); 4] = [
        (
            env!("CARGO_BIN_EXE_hpc-simulate"),
            &[
                &[],
                &["out", "--frobnicate"],
                &["out", "--telemetry-json"],
                &["out", "S1", "many"],
                // Regressions: zero cabinets panicked inside the topology
                // RNG, and 2^32 + 1 truncated to one cabinet.
                &["out", "S1", "0", "1", "1"],
                &["out", "S1", "4294967297"],
                // Past the last four-digit-year timestamp; this count of
                // days in milliseconds wrapped to about 1.4 days and ran.
                &["out", "S1", "1", "213503982336", "42"],
            ],
        ),
        (
            env!("CARGO_BIN_EXE_hpc-diagnose"),
            &[&[], &["--frobnicate"], &["logs", "--save-store"]],
        ),
        (
            env!("CARGO_BIN_EXE_hpc-watch"),
            &[
                &[],
                &["--stdin", "--frobnicate"],
                &["--stdin", "--poll-ms"],
                &["--stdin", "--poll-ms", "soon"],
            ],
        ),
        (
            env!("CARGO_BIN_EXE_hpc-query"),
            &[
                &[],
                &["store", "count", "--frobnicate", "1"],
                &["store", "count", "--class"],
                &["store", "tail", "-n", "few"],
            ],
        ),
    ];
    for (bin, cases) in table {
        let mut cases: Vec<Vec<OsString>> = (cases.iter())
            .map(|args| args.iter().map(Into::into).collect())
            .collect();
        // Regression: an argument that is not valid Unicode panicked inside
        // `std::env::args` (exit 101) before the binary saw it.
        #[cfg(unix)]
        cases.push(vec![OsStr::from_bytes(b"\xff").into()]);
        for args in cases {
            let out = Command::new(bin)
                .args(&args)
                .stdin(std::process::Stdio::null())
                .output()
                .expect("run binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
            assert!(stderr.contains("usage"), "{bin} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        }
    }
}
