//! What the benchmark prints: the contract's result line, one table per
//! run, and the `all`, `repeat` and `spread` drivers.

use std::collections::BTreeMap;

use hpc_telemetry::json::JsonValue;

use crate::catalogue::{self, Better, MetricSpec, WorkloadSpec, WORKLOADS};
use crate::outcome::Outcome;
use crate::{out_root, run_workload, stats};

fn specs(trace: bool) -> Vec<MetricSpec> {
    if trace {
        catalogue::per_layer()
    } else {
        catalogue::end_to_end()
    }
}

/// The result object of one run: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every end-to-end metric (untraced)
/// or every per-layer metric (traced).
pub fn contract_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let mut metrics = Vec::new();
    for spec in specs(trace) {
        let value = outcome
            .metrics
            .get(&spec.name)
            .copied()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
        metrics.push((
            spec.name.clone(),
            JsonValue::Object(vec![
                ("value".to_string(), JsonValue::Number(value)),
                ("unit".to_string(), JsonValue::String(spec.unit.to_string())),
            ]),
        ));
    }
    Ok(JsonValue::Object(vec![
        ("correct".to_string(), JsonValue::Bool(outcome.failed == 0)),
        (
            "attempted".to_string(),
            JsonValue::Number(outcome.attempted.max(1) as f64),
        ),
        (
            "failed".to_string(),
            JsonValue::Number(outcome.failed as f64),
        ),
        ("metrics".to_string(), JsonValue::Object(metrics)),
    ])
    .to_string())
}

fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if a >= 1e5 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

/// Samples behind an end-to-end metric in `outcome`.
fn sample_count(outcome: &Outcome, metric: &str) -> usize {
    let series = match metric {
        "latency_p50_ms" | "latency_tail_ms" => "latency_ms",
        _ => return 1,
    };
    outcome.samples.get(series).map_or(0, Vec::len)
}

/// Every metric of one run by name, with unit, direction, sample count
/// and bound.
pub fn run_table(spec: &WorkloadSpec, outcome: &Outcome, trace: bool) -> String {
    let mut s = format!(
        "--- {} ({}): {} operations, {} failed ---\n",
        spec.name,
        if trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    for e in &outcome.errors {
        s.push_str(&format!("  FAILED: {e}\n"));
    }
    for m in specs(trace) {
        let Some(v) = outcome.metrics.get(&m.name) else {
            s.push_str(&format!("  {:<46} not measured\n", m.name));
            continue;
        };
        let mut line = format!(
            "  {:<46} {:>14} {:<6} {:<6}",
            m.name,
            fmt_value(*v),
            m.unit,
            m.better.key()
        );
        if let Some(bound) = m.bound {
            let mut label = String::new();
            if m.name == "latency_tail_ms" {
                if let Some(p) = outcome.metrics.get("latency_tail_permille") {
                    label = format!(" ({})", stats::permille_label(*p as u32));
                }
            }
            line.push_str(&format!(
                " n={:<6} bound {:.0}%{label}",
                sample_count(outcome, &m.name),
                bound * 100.0
            ));
        }
        s.push_str(line.trim_end());
        s.push('\n');
    }
    s
}

/// Worsening of `b` against `a` as a share of `a` (negative = better).
fn worsening(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match spec.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

fn run_set(seed: u64, seconds: f64, trace: bool) -> Result<Vec<Outcome>, String> {
    WORKLOADS
        .iter()
        .map(|spec| {
            let outcome = run_workload(spec, seed, seconds, trace)?;
            eprint!("{}", run_table(spec, &outcome, trace));
            Ok(outcome)
        })
        .collect()
}

/// Every workload untraced, then traced; all metrics printed and the raw
/// samples written to `benchmark/out/sysbench.json`.
pub fn all(seed: u64, seconds: f64) -> Result<(), String> {
    let untraced = run_set(seed, seconds, false)?;
    let traced = run_set(seed, seconds, true)?;
    let doc = JsonValue::Object(
        WORKLOADS
            .iter()
            .zip(untraced.iter().zip(&traced))
            .map(|(spec, (u, t))| {
                (
                    spec.name.to_string(),
                    JsonValue::Object(vec![
                        ("untraced".to_string(), u.to_json()),
                        ("traced".to_string(), t.to_json()),
                    ]),
                )
            })
            .collect(),
    );
    let path = out_root().join("sysbench.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;

    // The matrix a reader wants: metric rows, workload columns.
    for (trace, set) in [(false, &untraced), (true, &traced)] {
        println!(
            "\n{} metrics, seed {seed}, {seconds} s per run",
            if trace { "per-layer" } else { "end-to-end" }
        );
        print!("{:<46} {:<6}", "metric", "unit");
        for w in &WORKLOADS {
            print!(" {:>15}", w.name);
        }
        println!();
        for m in specs(trace) {
            print!("{:<46} {:<6}", m.name, m.unit);
            for o in set.iter() {
                let v = o
                    .metrics
                    .get(&m.name)
                    .map_or("-".to_string(), |v| fmt_value(*v));
                print!(" {v:>15}");
            }
            println!();
        }
    }
    println!("\nraw samples: {}", path.display());
    match untraced
        .iter()
        .chain(&traced)
        .map(|o| o.failed)
        .sum::<u64>()
    {
        0 => Ok(()),
        n => Err(format!("{n} operations failed")),
    }
}

/// Runs `spec` untraced once per seed; returns each end-to-end metric's
/// values in run order and the operations that failed.
fn sample(
    spec: &'static WorkloadSpec,
    seeds: impl Iterator<Item = u64>,
    seconds: f64,
) -> Result<(BTreeMap<String, Vec<f64>>, u64), String> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut failed = 0;
    for seed in seeds {
        let outcome = run_workload(spec, seed, seconds, false)?;
        failed += outcome.failed;
        for e in &outcome.errors {
            eprintln!("{} seed {seed}: FAILED: {e}", spec.name);
        }
        for m in catalogue::end_to_end() {
            let v = outcome
                .metrics
                .get(&m.name)
                .ok_or_else(|| format!("{}: {} was not measured", spec.name, m.name))?;
            values.entry(m.name).or_default().push(*v);
        }
        eprintln!("{} seed {seed} done", spec.name);
    }
    Ok((values, failed))
}

/// Two untraced sets of the same code and seed, back to back, `runs`
/// runs per workload in each: per metric and workload both medians, how
/// much worse the worse one is, and the bound. Fails when a pair falls
/// outside its bound. One run per set is the harness's unit but not a
/// steady one here: single ten-second runs of the same code differ by up
/// to 25% on this sandbox, their medians over a few runs by a few percent.
pub fn repeat(seed: u64, seconds: f64, runs: usize) -> Result<(), String> {
    let mut sets = Vec::new();
    let mut failed = 0;
    for _ in 0..2 {
        let mut set = Vec::new();
        for spec in &WORKLOADS {
            let (values, f) = sample(spec, std::iter::repeat_n(seed, runs), seconds)?;
            failed += f;
            set.push(values);
        }
        sets.push(set);
    }
    println!(
        "\n{:<16} {:<18} {:>14} {:>14} {:>8} {:>6}   (medians of {runs} runs)",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    let mut outside = 0;
    for (i, spec) in WORKLOADS.iter().enumerate() {
        for m in catalogue::end_to_end() {
            let (x, y) = (
                stats::median(&sets[0][i][&m.name]),
                stats::median(&sets[1][i][&m.name]),
            );
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            // Either order may be the worse one: the two sets are the
            // same code, so the check is symmetric.
            let w = worsening(&m, x, y).max(worsening(&m, y, x));
            let verdict = if w > bound {
                outside += 1;
                "  OUTSIDE"
            } else {
                ""
            };
            println!(
                "{:<16} {:<18} {:>14} {:>14} {:>7.1}% {:>5.0}%{verdict}",
                spec.name,
                m.name,
                fmt_value(x),
                fmt_value(y),
                w * 100.0,
                bound * 100.0
            );
        }
    }
    match (outside, failed) {
        (0, 0) => Ok(()),
        (o, f) => Err(format!(
            "{o} pairs outside their bound, {f} operations failed"
        )),
    }
}

/// `runs` seeds per workload: per end-to-end metric the median and the
/// quartile spread as a share of it, next to the bound. This is the
/// steadiness check an accepted benchmark has to pass (spread within the
/// bound; a third of it leaves room).
pub fn spread(runs: usize, seconds: f64) -> Result<(), String> {
    let mut over = 0;
    let mut failed = 0;
    println!(
        "{:<16} {:<18} {:>14} {:>8} {:>6}",
        "workload", "metric", "median", "spread", "bound"
    );
    for spec in &WORKLOADS {
        let (values, f) = sample(spec, 1..=runs as u64, seconds)?;
        failed += f;
        for m in catalogue::end_to_end() {
            let v = &values[&m.name];
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let s = stats::spread(v);
            let verdict = if m.name == "setup_s" {
                ""
            } else if s > bound {
                over += 1;
                "  OVER BOUND"
            } else if s > bound / 3.0 {
                "  over a third"
            } else {
                ""
            };
            println!(
                "{:<16} {:<18} {:>14} {:>7.1}% {:>5.0}%{verdict}",
                spec.name,
                m.name,
                fmt_value(stats::median(v)),
                s * 100.0,
                bound * 100.0
            );
        }
    }
    match (over, failed) {
        (0, 0) => Ok(()),
        (o, f) => Err(format!(
            "{o} spreads over their bound, {f} operations failed"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_metric() {
        let mut o = Outcome {
            attempted: 9,
            ..Outcome::default()
        };
        for m in catalogue::end_to_end() {
            o.set(&m.name, 1.25);
        }
        o.set("not_in_the_catalogue", 3.0);
        let doc = hpc_telemetry::json::parse(&contract_line(&o, false).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), catalogue::end_to_end().len());
        assert_eq!(
            metrics[0].1.get("unit").and_then(JsonValue::as_str),
            Some("ms")
        );
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn contract_line_refuses_a_missing_metric() {
        let o = Outcome::default();
        assert!(contract_line(&o, false)
            .unwrap_err()
            .contains("latency_p50_ms"));
    }

    #[test]
    fn worsening_follows_the_direction() {
        let lower = &catalogue::end_to_end()[0];
        let higher = catalogue::end_to_end()
            .into_iter()
            .find(|m| m.better == Better::Higher)
            .unwrap();
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(&higher, 10.0, 12.0) < 0.0);
    }
}
