//! Profile diffing: align two runs' span trees and attribute the
//! wall-clock (and metric) delta to span paths.
//!
//! The output answers "where did the time go": every span path present in
//! either run gets a before/after row, sorted by **self-time regression**
//! (largest slowdown first), and the headline `attributed` ratio states
//! how much of the end-to-end wall-clock delta the span tree accounts for
//! — on a well-instrumented single-engine run (span coverage ≈ 100%, the
//! E12 gate) this is ≥ 95%, so a regression can always be pinned to a
//! path instead of "somewhere".

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ipcl_trace::json::write_json_string;

use crate::profile::ProfileDoc;

/// Before/after comparison of one span path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpanDelta {
    /// The span path (present in at least one of the two runs).
    pub path: Vec<String>,
    /// `total_us` before / after (0 when the path is absent from a run).
    pub total_before_us: u64,
    /// See `total_before_us`.
    pub total_after_us: u64,
    /// `self_us` before / after.
    pub self_before_us: u64,
    /// See `self_before_us`.
    pub self_after_us: u64,
    /// Span count before / after.
    pub count_before: u64,
    /// See `count_before`.
    pub count_after: u64,
}

impl SpanDelta {
    /// Change in total time (positive = regression).
    pub fn total_delta_us(&self) -> i64 {
        self.total_after_us as i64 - self.total_before_us as i64
    }

    /// Change in self time (positive = regression).
    pub fn self_delta_us(&self) -> i64 {
        self.self_after_us as i64 - self.self_before_us as i64
    }

    /// Relative change of the self time (`after/before - 1`; infinite for
    /// a path new in the after run).
    pub fn self_ratio(&self) -> f64 {
        if self.self_before_us == 0 {
            if self.self_after_us == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.self_after_us as f64 / self.self_before_us as f64 - 1.0
        }
    }

    fn path_string(&self) -> String {
        self.path.join(" / ")
    }
}

/// Before/after comparison of one counter or gauge.
#[derive(Clone, PartialEq, Debug)]
pub struct MetricDelta {
    /// Metric name.
    pub name: String,
    /// Value before (0 when absent).
    pub before: f64,
    /// Value after (0 when absent).
    pub after: f64,
}

impl MetricDelta {
    /// Absolute change.
    pub fn delta(&self) -> f64 {
        self.after - self.before
    }
}

/// The aligned diff of two profile documents.
#[derive(Clone, PartialEq, Debug)]
pub struct ProfileDiff {
    /// Wall-clock change, after minus before, microseconds.
    pub wall_delta_us: i64,
    /// Per-path rows, sorted by self-time regression (largest first, ties
    /// by path).
    pub spans: Vec<SpanDelta>,
    /// Counter rows, sorted by absolute change (largest first).
    pub counters: Vec<MetricDelta>,
    /// Gauge rows, same order.
    pub gauges: Vec<MetricDelta>,
    /// Fraction of the wall-clock delta attributed to span paths: the sum
    /// of the root spans' total deltas over the wall delta. 1.0 when both
    /// deltas are zero.
    pub attributed: f64,
}

fn metric_rows(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> Vec<MetricDelta> {
    let mut names: Vec<&String> = before.keys().chain(after.keys()).collect();
    names.sort();
    names.dedup();
    let mut rows: Vec<MetricDelta> = names
        .into_iter()
        .map(|name| MetricDelta {
            name: name.clone(),
            before: before.get(name).copied().unwrap_or(0.0),
            after: after.get(name).copied().unwrap_or(0.0),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.delta()
            .abs()
            .partial_cmp(&a.delta().abs())
            .expect("finite metrics")
            .then_with(|| a.name.cmp(&b.name))
    });
    rows
}

impl ProfileDiff {
    /// Aligns `after` against `before` and computes every row.
    pub fn compute(before: &ProfileDoc, after: &ProfileDoc) -> ProfileDiff {
        let mut paths: Vec<&Vec<String>> = before
            .spans
            .iter()
            .map(|s| &s.path)
            .chain(after.spans.iter().map(|s| &s.path))
            .collect();
        paths.sort();
        paths.dedup();

        let mut spans: Vec<SpanDelta> = paths
            .into_iter()
            .map(|path| {
                let b = before.span(path);
                let a = after.span(path);
                SpanDelta {
                    path: path.clone(),
                    total_before_us: b.map_or(0, |s| s.total_us),
                    total_after_us: a.map_or(0, |s| s.total_us),
                    self_before_us: b.map_or(0, |s| s.self_us),
                    self_after_us: a.map_or(0, |s| s.self_us),
                    count_before: b.map_or(0, |s| s.count),
                    count_after: a.map_or(0, |s| s.count),
                }
            })
            .collect();
        spans.sort_by(|a, b| {
            b.self_delta_us()
                .cmp(&a.self_delta_us())
                .then_with(|| a.path.cmp(&b.path))
        });

        let wall_delta_us = after.wall_us as i64 - before.wall_us as i64;
        let root_delta_us: i64 = spans
            .iter()
            .filter(|s| s.path.len() == 1)
            .map(SpanDelta::total_delta_us)
            .sum();
        let attributed = if wall_delta_us == 0 {
            if root_delta_us == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            root_delta_us as f64 / wall_delta_us as f64
        };

        ProfileDiff {
            wall_delta_us,
            spans,
            counters: metric_rows(&before.counters, &after.counters),
            gauges: metric_rows(&before.gauges, &after.gauges),
            attributed,
        }
    }

    /// The span rows regressing beyond the gate: self time grew by more
    /// than `threshold` (relative, e.g. `0.10` = +10%) *and* by at least
    /// `min_us` (absolute floor, so a 2 µs path cannot trip a 10% gate
    /// with measurement noise).
    pub fn regressions(&self, threshold: f64, min_us: u64) -> Vec<&SpanDelta> {
        self.spans
            .iter()
            .filter(|s| s.self_delta_us() >= min_us.max(1) as i64 && s.self_ratio() > threshold)
            .collect()
    }

    /// Whether every span row is identical before and after (the empty
    /// diff of two runs of the same artifact).
    pub fn is_empty(&self) -> bool {
        self.wall_delta_us == 0
            && self.spans.iter().all(|s| {
                s.total_delta_us() == 0 && s.self_delta_us() == 0 && s.count_before == s.count_after
            })
            && self.counters.iter().all(|m| m.delta() == 0.0)
            && self.gauges.iter().all(|m| m.delta() == 0.0)
    }

    /// Human-readable rendering: the headline attribution, then one row
    /// per span path (skipping unchanged rows), then the metric deltas
    /// (top `max_metrics` by absolute change).
    pub fn render(&self, max_metrics: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wall delta {:+.3} ms, {:.1}% attributed to span paths",
            self.wall_delta_us as f64 / 1_000.0,
            self.attributed * 100.0
        );
        let changed: Vec<&SpanDelta> = self
            .spans
            .iter()
            .filter(|s| s.total_delta_us() != 0 || s.self_delta_us() != 0)
            .collect();
        if !changed.is_empty() {
            let _ = writeln!(
                out,
                "  {:<52} {:>12} {:>12} {:>9}",
                "span", "self Δms", "total Δms", "self ×"
            );
            for span in changed {
                let ratio = span.self_ratio();
                let _ = writeln!(
                    out,
                    "  {:<52} {:>+12.3} {:>+12.3} {:>9}",
                    span.path_string(),
                    span.self_delta_us() as f64 / 1_000.0,
                    span.total_delta_us() as f64 / 1_000.0,
                    if ratio.is_infinite() {
                        "new".to_owned()
                    } else {
                        format!("{:+.1}%", ratio * 100.0)
                    },
                );
            }
        }
        let metrics: Vec<&MetricDelta> = self
            .counters
            .iter()
            .chain(&self.gauges)
            .filter(|m| m.delta() != 0.0)
            .take(max_metrics)
            .collect();
        if !metrics.is_empty() {
            let _ = writeln!(out, "  metrics:");
            for metric in metrics {
                let _ = writeln!(
                    out,
                    "    {:<50} {:>14.3} -> {:>14.3} ({:+.3})",
                    metric.name,
                    metric.before,
                    metric.after,
                    metric.delta()
                );
            }
        }
        out
    }

    /// Machine-readable rendering of the full diff.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"wall_delta_us\": {},\n  \"attributed\": {:.6},\n  \"spans\": [",
            self.wall_delta_us, self.attributed
        );
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"path\": [");
            for (j, seg) in span.path.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_json_string(&mut out, seg);
            }
            let _ = write!(
                out,
                "], \"self_before_us\": {}, \"self_after_us\": {}, \"total_before_us\": {}, \
                 \"total_after_us\": {}, \"count_before\": {}, \"count_after\": {}}}",
                span.self_before_us,
                span.self_after_us,
                span.total_before_us,
                span.total_after_us,
                span.count_before,
                span.count_after
            );
        }
        out.push_str("\n  ],\n  \"metrics\": [");
        for (i, metric) in self.counters.iter().chain(&self.gauges).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            write_json_string(&mut out, &metric.name);
            let _ = write!(
                out,
                ", \"before\": {}, \"after\": {}}}",
                metric.before, metric.after
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileSpan;

    fn doc(spans: &[(&[&str], u64, u64, u64)], wall_us: u64) -> ProfileDoc {
        ProfileDoc {
            wall_us,
            root_span_us: spans
                .iter()
                .filter(|(path, ..)| path.len() == 1)
                .map(|&(_, total, _, _)| total)
                .sum(),
            spans: spans
                .iter()
                .map(|&(path, total_us, self_us, count)| ProfileSpan {
                    path: path.iter().map(|s| (*s).to_owned()).collect(),
                    total_us,
                    self_us,
                    count,
                })
                .collect(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    #[test]
    fn injected_regression_is_reported_first_and_attributed() {
        let before = doc(
            &[
                (&["check"], 1000, 100, 1),
                (&["check", "encode"], 400, 400, 1),
                (&["check", "solve"], 500, 500, 10),
            ],
            1000,
        );
        // The solve path doubles (+500 µs); everything else unchanged.
        let after = doc(
            &[
                (&["check"], 1500, 100, 1),
                (&["check", "encode"], 400, 400, 1),
                (&["check", "solve"], 1000, 1000, 10),
            ],
            1500,
        );
        let diff = ProfileDiff::compute(&before, &after);
        assert_eq!(diff.wall_delta_us, 500);
        assert_eq!(diff.spans[0].path, ["check", "solve"]);
        assert_eq!(diff.spans[0].self_delta_us(), 500);
        assert_eq!(diff.spans[0].self_ratio(), 1.0);
        assert_eq!(diff.attributed, 1.0, "the root span carries the full delta");
        let regressions = diff.regressions(0.10, 50);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].path, ["check", "solve"]);
        assert!(diff.render(10).contains("check / solve"));
    }

    #[test]
    fn identical_runs_produce_an_empty_diff() {
        let run = doc(&[(&["check"], 1000, 1000, 1)], 1000);
        let diff = ProfileDiff::compute(&run, &run.clone());
        assert!(diff.is_empty());
        assert!(diff.regressions(0.0, 0).is_empty());
        assert_eq!(diff.attributed, 1.0);
    }

    #[test]
    fn threshold_gate_respects_relative_and_absolute_floors() {
        let before = doc(
            &[(&["a"], 100, 100, 1), (&["b"], 10_000, 10_000, 1)],
            10_100,
        );
        let after = doc(
            &[(&["a"], 200, 200, 1), (&["b"], 10_500, 10_500, 1)],
            10_700,
        );
        let diff = ProfileDiff::compute(&before, &after);
        // a: +100 µs (+100%), b: +500 µs (+5%).
        assert_eq!(
            diff.regressions(0.10, 1).len(),
            1,
            "b is inside the 10% gate"
        );
        assert_eq!(
            diff.regressions(0.10, 200).len(),
            0,
            "a is under the 200 µs floor"
        );
        assert_eq!(diff.regressions(0.04, 1).len(), 2, "a 4% gate catches both");
    }

    #[test]
    fn paths_absent_from_one_run_align_against_zero() {
        let before = doc(&[(&["a"], 100, 100, 1)], 100);
        let after = doc(&[(&["c"], 300, 300, 2)], 300);
        let diff = ProfileDiff::compute(&before, &after);
        let gone = diff.spans.iter().find(|s| s.path == ["a"]).unwrap();
        assert_eq!(gone.self_delta_us(), -100);
        let new = diff.spans.iter().find(|s| s.path == ["c"]).unwrap();
        assert_eq!(new.self_delta_us(), 300);
        assert!(new.self_ratio().is_infinite());
        assert_eq!(
            diff.spans[0].path,
            ["c"],
            "the new path is the biggest regression"
        );
    }

    #[test]
    fn diff_json_parses_back() {
        let before = doc(&[(&["a"], 100, 100, 1)], 100);
        let after = doc(&[(&["a"], 150, 150, 1)], 150);
        let diff = ProfileDiff::compute(&before, &after);
        let doc = ipcl_trace::json::Json::parse(&diff.to_json()).expect("diff JSON parses");
        assert_eq!(doc.get("wall_delta_us").unwrap().as_f64(), Some(50.0));
    }
}
