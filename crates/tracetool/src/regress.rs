//! The performance-regression gate: compare a current `BENCH_*.json`
//! run against a committed baseline, metric by metric, under per-metric
//! tolerances.
//!
//! Entries are aligned by their identity fields ([`BenchEntry::id`]), so
//! a sweep that adds points is fine, but every baseline entry, and every
//! checked metric of it, must reappear in the current run. A metric
//! regresses when its relative change past the baseline is **strictly**
//! greater than the tolerance: a metric sitting exactly on the boundary
//! passes, which keeps the gate's behaviour exact and testable. A zero
//! tolerance means exact: any change, up or down, is flagged.

use std::fmt::Write as _;

use ipcl_trace::json::{write_json_string, Json};

use crate::benchfile::{BenchEntry, BenchFile};

/// Tolerance configuration for [`check`].
#[derive(Clone, PartialEq, Debug)]
pub struct Tolerances {
    /// Relative tolerance for metrics without a per-metric entry
    /// (0.25 = +25% allowed).
    pub default_rel: f64,
    /// Per-metric overrides. A name matches a metric either exactly or as
    /// a `_`-separated suffix (`"ms"` covers `solve_ms` and `total_ms`);
    /// exact beats suffix, longer suffix beats shorter.
    pub per_metric: Vec<(String, f64)>,
    /// Identity fields excluded from entry alignment (fields a gate
    /// chooses not to pin).
    pub ignore_fields: Vec<String>,
    /// Metrics never checked (noisy or informational).
    pub ignore_metrics: Vec<String>,
    /// Numeric fields that are sweep parameters, not measurements: they
    /// join the entry identity (e.g. `depth`) and are never
    /// tolerance-checked.
    pub id_metrics: Vec<String>,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            default_rel: 0.25,
            per_metric: Vec::new(),
            ignore_fields: Vec::new(),
            ignore_metrics: Vec::new(),
            id_metrics: Vec::new(),
        }
    }
}

impl Tolerances {
    /// Parses a tolerance config document:
    ///
    /// ```json
    /// {
    ///   "default_rel": 0.25,
    ///   "per_metric": {"ms": 1.0, "clauses": 0.0},
    ///   "ignore_fields": ["winner"],
    ///   "ignore_metrics": ["speedup"],
    ///   "id_metrics": ["depth"]
    /// }
    /// ```
    pub fn parse(text: &str) -> Result<Tolerances, String> {
        let doc = Json::parse(text)?;
        let mut tolerances = Tolerances::default();
        if let Some(v) = doc.get("default_rel").and_then(Json::as_f64) {
            tolerances.default_rel = v;
        }
        if let Some(members) = doc.get("per_metric").and_then(Json::as_object) {
            for (name, value) in members {
                let v = value
                    .as_f64()
                    .ok_or_else(|| format!("per_metric.{name} is not a number"))?;
                tolerances.per_metric.push((name.clone(), v));
            }
        }
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(|v| v.as_str().map(str::to_owned))
                        .collect()
                })
                .unwrap_or_default()
        };
        tolerances.ignore_fields = names("ignore_fields");
        tolerances.ignore_metrics = names("ignore_metrics");
        tolerances.id_metrics = names("id_metrics");
        Ok(tolerances)
    }

    /// The tolerance applied to `metric`: an exact per-metric entry if
    /// present, else the longest matching `_`-suffix entry, else the
    /// default.
    pub fn tolerance_for(&self, metric: &str) -> f64 {
        if let Some((_, v)) = self.per_metric.iter().find(|(name, _)| name == metric) {
            return *v;
        }
        self.per_metric
            .iter()
            .filter(|(name, _)| {
                metric
                    .strip_suffix(name.as_str())
                    .is_some_and(|head| head.ends_with('_'))
            })
            .max_by_key(|(name, _)| name.len())
            .map(|(_, v)| *v)
            .unwrap_or(self.default_rel)
    }

    fn checks(&self, metric: &str) -> bool {
        !self.ignore_metrics.iter().any(|m| m == metric)
            && !self.id_metrics.iter().any(|m| m == metric)
    }
}

/// One metric of one entry that moved past its tolerance (or, under a
/// zero tolerance, moved at all).
#[derive(Clone, PartialEq, Debug)]
pub struct Regression {
    /// The entry's identity (`key=value,...`).
    pub entry: String,
    /// The regressed metric.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Relative change, `(current - baseline) / baseline`.
    pub rel_change: f64,
    /// The tolerance it exceeded.
    pub tolerance: f64,
}

/// The outcome of one baseline-vs-current comparison.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RegressReport {
    /// Experiment id both files belong to.
    pub experiment: String,
    /// Metrics that moved past tolerance, worst relative change first.
    pub regressions: Vec<Regression>,
    /// (entry, metric) pairs compared.
    pub checked: usize,
    /// Baseline entry ids with no counterpart in the current run.
    pub missing: Vec<String>,
    /// Checked baseline metrics absent from their matched current entry,
    /// as `(entry id, metric)`.
    pub missing_metrics: Vec<(String, String)>,
}

impl RegressReport {
    /// True when the gate passes: nothing regressed and every baseline
    /// entry and checked metric was matched.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty() && self.missing_metrics.is_empty()
    }

    /// A human-readable summary, one line per finding.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        let _ = writeln!(
            out,
            "regress {}: {} ({} checks, {} regressions, {} missing entries, {} missing metrics)",
            self.experiment,
            verdict,
            self.checked,
            self.regressions.len(),
            self.missing.len(),
            self.missing_metrics.len()
        );
        for r in &self.regressions {
            let (verdict, allowed) = if r.tolerance == 0.0 {
                ("CHANGED", ", must be exact".to_owned())
            } else {
                (
                    "REGRESSED",
                    format!(" > {:.1}% allowed", r.tolerance * 100.0),
                )
            };
            let _ = writeln!(
                out,
                "  {verdict} {} [{}]: {} -> {} ({:+.1}%{allowed})",
                r.metric,
                r.entry,
                r.baseline,
                r.current,
                r.rel_change * 100.0,
            );
        }
        for entry in &self.missing {
            let _ = writeln!(out, "  MISSING baseline entry [{entry}]");
        }
        for (entry, metric) in &self.missing_metrics {
            let _ = writeln!(out, "  MISSING baseline metric {metric} [{entry}]");
        }
        out
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"experiment\": ");
        write_json_string(&mut out, &self.experiment);
        let _ = write!(
            out,
            ",\n  \"passed\": {},\n  \"checked\": {},\n  \"regressions\": [",
            self.passed(),
            self.checked
        );
        for (i, r) in self.regressions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"entry\": ");
            write_json_string(&mut out, &r.entry);
            out.push_str(", \"metric\": ");
            write_json_string(&mut out, &r.metric);
            let _ = write!(
                out,
                ", \"baseline\": {}, \"current\": {}, \"rel_change\": {:.6}, \"tolerance\": {}}}",
                r.baseline, r.current, r.rel_change, r.tolerance
            );
        }
        if !self.regressions.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"missing\": [");
        for (i, entry) in self.missing.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(&mut out, entry);
        }
        out.push_str("],\n  \"missing_metrics\": [");
        for (i, (entry, metric)) in self.missing_metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"entry\": ");
            write_json_string(&mut out, entry);
            out.push_str(", \"metric\": ");
            write_json_string(&mut out, metric);
            out.push('}');
        }
        out.push_str("]\n}\n");
        out
    }
}

fn entry_with_id<'a>(
    entries: &'a [BenchEntry],
    tolerances: &Tolerances,
    id: &str,
) -> Option<&'a BenchEntry> {
    entries
        .iter()
        .find(|e| e.id(&tolerances.ignore_fields, &tolerances.id_metrics) == id)
}

/// Compares `current` against `baseline` under `tolerances`.
///
/// Every baseline entry must reappear in the current run (extra current
/// entries are ignored — sweeps may grow), and so must each of its
/// non-ignored metrics. Each such metric regresses when
/// `(current - baseline) / baseline` is strictly greater than its
/// tolerance; a zero baseline regresses only if the current value is
/// positive and the tolerance is finite. Under a zero tolerance, any
/// change of the value, in either direction, is a regression.
pub fn check(baseline: &BenchFile, current: &BenchFile, tolerances: &Tolerances) -> RegressReport {
    let mut report = RegressReport {
        experiment: baseline.experiment.clone(),
        ..RegressReport::default()
    };
    for base_entry in &baseline.entries {
        let id = base_entry.id(&tolerances.ignore_fields, &tolerances.id_metrics);
        let Some(cur_entry) = entry_with_id(&current.entries, tolerances, &id) else {
            report.missing.push(id);
            continue;
        };
        for (metric, &base_value) in &base_entry.metrics {
            if !tolerances.checks(metric) {
                continue;
            }
            let Some(&cur_value) = cur_entry.metrics.get(metric) else {
                report.missing_metrics.push((id.clone(), metric.clone()));
                continue;
            };
            report.checked += 1;
            let tolerance = tolerances.tolerance_for(metric);
            let rel_change = if base_value != 0.0 {
                (cur_value - base_value) / base_value.abs()
            } else if cur_value != 0.0 {
                f64::INFINITY.copysign(cur_value)
            } else {
                0.0
            };
            let regressed = if tolerance == 0.0 {
                cur_value != base_value
            } else {
                rel_change > tolerance
            };
            if regressed {
                report.regressions.push(Regression {
                    entry: id.clone(),
                    metric: metric.clone(),
                    baseline: base_value,
                    current: cur_value,
                    rel_change,
                    tolerance,
                });
            }
        }
    }
    report
        .regressions
        .sort_by(|a, b| b.rel_change.total_cmp(&a.rel_change));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(entries_json: &str) -> BenchFile {
        BenchFile::parse(&format!(
            "{{\"schema_version\": 1, \"experiment\": \"test\", \"smoke\": false, \
             \"commit\": null, \"entries\": {entries_json}}}"
        ))
        .unwrap()
    }

    #[test]
    fn flags_only_metrics_strictly_past_tolerance() {
        let baseline = bench(r#"[{"w": "a", "solve_ms": 100, "clauses": 1000}]"#);
        // solve_ms exactly on the +50% boundary passes; clauses +10% with
        // a 0 tolerance fails.
        let current = bench(r#"[{"w": "a", "solve_ms": 150, "clauses": 1100}]"#);
        let tolerances = Tolerances {
            default_rel: 0.5,
            per_metric: vec![("clauses".to_owned(), 0.0)],
            ..Tolerances::default()
        };
        let report = check(&baseline, &current, &tolerances);
        assert_eq!(report.checked, 2);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "clauses");
        assert!(!report.passed());

        // One microsecond past the boundary trips the gate.
        let just_over = bench(r#"[{"w": "a", "solve_ms": 150.001, "clauses": 1000}]"#);
        let report = check(&baseline, &just_over, &tolerances);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "solve_ms");

        // A zero tolerance means exact: a counter that falls is flagged
        // too, and renders as a change.
        let fewer = bench(r#"[{"w": "a", "solve_ms": 100, "clauses": 900}]"#);
        let report = check(&baseline, &fewer, &tolerances);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "clauses");
        assert_eq!(report.regressions[0].rel_change, -0.1);
        assert!(!report.passed());
        assert!(
            report
                .render()
                .contains("CHANGED clauses [w=a]: 1000 -> 900"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn suffix_tolerances_cover_metric_families() {
        let tolerances = Tolerances {
            default_rel: 0.1,
            per_metric: vec![
                ("ms".to_owned(), 1.0),
                ("total_ms".to_owned(), 2.0),
                ("clauses".to_owned(), 0.0),
            ],
            ..Tolerances::default()
        };
        assert_eq!(tolerances.tolerance_for("ms"), 1.0); // exact
        assert_eq!(tolerances.tolerance_for("solve_ms"), 1.0); // suffix
        assert_eq!(tolerances.tolerance_for("total_ms"), 2.0); // exact beats shorter suffix
        assert_eq!(tolerances.tolerance_for("grand_total_ms"), 2.0); // longest suffix
        assert_eq!(tolerances.tolerance_for("rooms"), 0.1); // 'ms' is not a _-suffix here
        assert_eq!(tolerances.tolerance_for("conflicts"), 0.1); // default
    }

    #[test]
    fn missing_entries_fail_and_extra_entries_are_ignored() {
        let baseline = bench(r#"[{"w": "a", "ms": 10}, {"w": "b", "ms": 10}]"#);
        let current = bench(r#"[{"w": "a", "ms": 10}, {"w": "c", "ms": 999}]"#);
        let report = check(&baseline, &current, &Tolerances::default());
        assert_eq!(report.missing, vec!["w=b".to_owned()]);
        assert!(report.regressions.is_empty());
        assert!(!report.passed());
    }

    #[test]
    fn missing_metrics_fail_unless_ignored() {
        let baseline = bench(r#"[{"w": "a", "ms": 10, "clauses": 5}]"#);
        let current = bench(r#"[{"w": "a", "ms": 10, "conflicts": 3}]"#);
        let report = check(&baseline, &current, &Tolerances::default());
        assert_eq!(
            report.missing_metrics,
            vec![("w=a".to_owned(), "clauses".to_owned())]
        );
        assert_eq!(report.checked, 1);
        assert!(!report.passed());
        assert!(report
            .render()
            .contains("MISSING baseline metric clauses [w=a]"));
        let json = Json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(
            json.get("missing_metrics")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            1
        );
        let tolerances = Tolerances {
            ignore_metrics: vec!["clauses".to_owned()],
            ..Tolerances::default()
        };
        assert!(check(&baseline, &current, &tolerances).passed());
    }

    #[test]
    fn ignored_fields_align_nondeterministic_entries() {
        let baseline = bench(r#"[{"w": "a", "winner": "pdr", "ms": 10}]"#);
        let current = bench(r#"[{"w": "a", "winner": "kind", "ms": 10}]"#);
        let strict = check(&baseline, &current, &Tolerances::default());
        assert!(!strict.passed(), "winner mismatch breaks alignment");
        let tolerances = Tolerances {
            ignore_fields: vec!["winner".to_owned()],
            ..Tolerances::default()
        };
        let report = check(&baseline, &current, &tolerances);
        assert!(report.passed());
        assert_eq!(report.checked, 1);
    }

    #[test]
    fn numeric_sweep_parameters_can_join_the_identity() {
        // Without id_metrics, both depths collapse onto one id and the
        // depth-8 row aligns against the depth-1 row.
        let baseline = bench(
            r#"[{"mode": "incremental", "depth": 1, "ms": 1},
                {"mode": "incremental", "depth": 8, "ms": 100}]"#,
        );
        let tolerances = Tolerances {
            id_metrics: vec!["depth".to_owned()],
            ..Tolerances::default()
        };
        let report = check(&baseline, &baseline.clone(), &tolerances);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.checked, 2, "depth itself is identity, not a metric");

        // A regression at one depth is pinned to that depth's entry.
        let slower = bench(
            r#"[{"mode": "incremental", "depth": 1, "ms": 1},
                {"mode": "incremental", "depth": 8, "ms": 300}]"#,
        );
        let report = check(&baseline, &slower, &tolerances);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].entry, "depth=8,mode=incremental");
    }

    #[test]
    fn improvements_and_zero_baselines_behave() {
        let baseline = bench(r#"[{"w": "a", "ms": 100, "errors": 0}]"#);
        let faster = bench(r#"[{"w": "a", "ms": 1, "errors": 0}]"#);
        assert!(check(&baseline, &faster, &Tolerances::default()).passed());
        let erroring = bench(r#"[{"w": "a", "ms": 100, "errors": 1}]"#);
        let report = check(&baseline, &erroring, &Tolerances::default());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "errors");
        assert!(report.regressions[0].rel_change.is_infinite());
    }

    #[test]
    fn report_renders_and_serializes() {
        let baseline = bench(r#"[{"w": "a", "ms": 100}]"#);
        let current = bench(r#"[{"w": "a", "ms": 300}]"#);
        let report = check(&baseline, &current, &Tolerances::default());
        let text = report.render();
        assert!(text.contains("FAIL"));
        assert!(text.contains("REGRESSED ms"));
        let json = Json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(json.get("passed").unwrap().as_bool(), Some(false));
        assert_eq!(
            json.get("regressions").unwrap().as_array().unwrap().len(),
            1
        );
        let parsed = Tolerances::parse(
            r#"{"default_rel": 0.5, "per_metric": {"ms": 1.0},
                "ignore_fields": ["winner"], "ignore_metrics": ["speedup"]}"#,
        )
        .unwrap();
        assert_eq!(parsed.default_rel, 0.5);
        assert_eq!(parsed.tolerance_for("solve_ms"), 1.0);
        assert!(!parsed.checks("speedup"));
    }
}
