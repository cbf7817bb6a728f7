//! Renderings of a registry [`Snapshot`] for humans: [`summary_table`] is
//! the per-stage table the binaries print on stderr, [`profile_table`] the
//! indented span profile under it. The machine-readable form is
//! [`Snapshot::to_json`].

use crate::registry::Snapshot;
use crate::span::fmt_us;

/// Renders rows as a table whose column widths are all sized from the
/// content (header included): the first column is left-aligned, the rest
/// right-aligned. Fixed widths misaligned as soon as a metric name like
/// `core.ingest.dropped.invalid_utf8` or a large call count outgrew them.
fn align_table<const N: usize>(header: [&str; N], rows: &[[String; N]]) -> String {
    let mut widths = header.map(str::len);
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let push_row = |out: &mut String, cells: &[&str]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            if i == 0 {
                out.push_str(&format!("{cell:<w$}", w = widths[0]));
            } else {
                out.push_str(&format!("{cell:>w$}", w = widths[i]));
            }
        }
        // No trailing padding after the last column.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    let mut out = String::new();
    push_row(&mut out, &header);
    for row in rows {
        let cells: Vec<&str> = row.iter().map(String::as_str).collect();
        push_row(&mut out, &cells);
    }
    out
}

/// One line per instrumented stage (each `<stage>.time_us` histogram):
/// call count, total and mean wall time. Stages are listed in name order,
/// which groups them by crate prefix. Columns are sized from the snapshot
/// content, so arbitrarily long stage names stay aligned.
pub fn summary_table(snapshot: &Snapshot) -> String {
    let rows: Vec<[String; 4]> = snapshot
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            let stage = name.strip_suffix(".time_us")?;
            Some([
                stage.to_string(),
                h.count.to_string(),
                fmt_us(h.sum),
                fmt_us(h.mean() as u64),
            ])
        })
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    align_table(["stage", "calls", "total", "mean"], &rows)
}

/// Indented profile of the retained span tree: one row per unique span
/// path with invocation count, cumulative wall time and self time (wall
/// minus completed children). Children are indented under their parent in
/// first-entered order; empty when no spans ran.
pub fn profile_table(snapshot: &Snapshot) -> String {
    let nodes = &snapshot.spans;
    if nodes.is_empty() {
        return String::new();
    }
    // Pre-order is guaranteed, so each node's depth is its parent's + 1.
    let mut depth = vec![0usize; nodes.len()];
    let rows: Vec<[String; 4]> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            if let Some(p) = n.parent {
                depth[i] = depth[p] + 1;
            }
            [
                format!("{:indent$}{}", "", n.name, indent = depth[i] * 2),
                n.calls.to_string(),
                fmt_us(n.wall_us),
                fmt_us(crate::span::self_us(nodes, i)),
            ]
        })
        .collect();
    align_table(["span", "calls", "wall", "self"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("ingest.lines".into(), 120);
        s.counters.insert("core.detect.calls".into(), 1);
        s.gauges.insert("core.ingest.threads".into(), 4.0);
        s.histograms.insert(
            "core.detect.time_us".into(),
            HistogramSnapshot {
                count: 2,
                sum: 3000,
                min: 1000,
                max: 2000,
                buckets: vec![],
            },
        );
        s
    }

    #[test]
    fn table_lists_stages_with_mean() {
        let t = summary_table(&sample());
        assert!(t.contains("core.detect"), "{t}");
        assert!(t.contains("3.0ms"), "{t}");
        assert!(t.contains("1.5ms"), "{t}");
        assert!(!t.contains("time_us"), "suffix stripped: {t}");
    }

    #[test]
    fn recorders_write_through() {
        let snap = sample();
        let parsed = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed.counter("ingest.lines"), Some(120));
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(summary_table(&Snapshot::default()), "");
        assert_eq!(profile_table(&Snapshot::default()), "");
    }

    /// Column positions must come from the snapshot, not fixed widths: a
    /// stage name longer than the old 5-char floor and a call count wider
    /// than the old 7-char column both have to stay aligned.
    #[test]
    fn table_columns_size_from_content() {
        let mut s = Snapshot::default();
        s.histograms.insert(
            "core.ingest.dropped.invalid_utf8.time_us".into(),
            HistogramSnapshot {
                count: 123_456_789,
                sum: 1_000,
                min: 0,
                max: 10,
                buckets: vec![],
            },
        );
        s.histograms.insert(
            "a.time_us".into(),
            HistogramSnapshot {
                count: 1,
                sum: 5,
                min: 5,
                max: 5,
                buckets: vec![],
            },
        );
        let t = summary_table(&s);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3, "{t}");
        // Right-aligned numeric columns end at the same offset on the rows
        // that carry the widest values; every row fits the same grid.
        let header_calls_end = lines[0].find("calls").unwrap() + "calls".len();
        let wide_row = lines
            .iter()
            .find(|l| l.starts_with("core.ingest.dropped.invalid_utf8"))
            .unwrap();
        assert!(
            wide_row.find("123456789").unwrap() + "123456789".len() == header_calls_end,
            "calls column misaligned:\n{t}"
        );
        let narrow_row = lines.iter().find(|l| l.starts_with("a ")).unwrap();
        assert_eq!(
            narrow_row.find('1').unwrap() + 1,
            header_calls_end,
            "narrow row not right-aligned to the widened column:\n{t}"
        );
    }

    #[test]
    fn profile_table_indents_children_and_reports_self_time() {
        use crate::span::SpanNode;
        let s = Snapshot {
            spans: vec![
                SpanNode {
                    name: "core.from_dir".into(),
                    parent: None,
                    wall_us: 10_000,
                    calls: 1,
                },
                SpanNode {
                    name: "core.ingest.parse".into(),
                    parent: Some(0),
                    wall_us: 6_000,
                    calls: 4,
                },
                SpanNode {
                    name: "core.ingest.parse.console".into(),
                    parent: Some(1),
                    wall_us: 2_500,
                    calls: 4,
                },
                SpanNode {
                    name: "core.detect".into(),
                    parent: Some(0),
                    wall_us: 1_000,
                    calls: 1,
                },
            ],
            ..Snapshot::default()
        };
        let t = profile_table(&s);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5, "{t}");
        assert!(lines[1].starts_with("core.from_dir"), "{t}");
        assert!(lines[2].starts_with("  core.ingest.parse"), "{t}");
        assert!(lines[3].starts_with("    core.ingest.parse.console"), "{t}");
        assert!(lines[4].starts_with("  core.detect"), "{t}");
        // self(from_dir) = 10ms - (6ms + 1ms) = 3ms; self(parse) = 3.5ms.
        assert!(lines[1].ends_with("3.0ms"), "{t}");
        assert!(lines[2].ends_with("3.5ms"), "{t}");
        // Leaf self == wall.
        assert!(lines[3].contains("2.5ms"), "{t}");
    }
}
