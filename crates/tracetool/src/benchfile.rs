//! The parsed form of a `BENCH_*.json` experiment artifact: the v1 header
//! object every experiment binary emits (`ipcl_bench::emit_bench_json`):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "experiment": "bmc_depth",
//!   "smoke": true,
//!   "commit": "abc123...",        // or null
//!   "entries": [ { ... one measurement point ... }, ... ]
//! }
//! ```

use std::collections::BTreeMap;

use ipcl_trace::json::Json;

/// One measurement point of an experiment run, split into its identity
/// fields (strings/bools — workload, engine, mode, …) and its numeric
/// metrics (times, counts, ratios). Array-valued fields are dropped.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct BenchEntry {
    /// String- and bool-valued fields (bools as `"true"`/`"false"`),
    /// minus the `"experiment"` tag carried in the file header.
    pub fields: BTreeMap<String, String>,
    /// Numeric fields.
    pub metrics: BTreeMap<String, f64>,
}

impl BenchEntry {
    /// The entry's identity: its non-numeric fields as `key=value`, sorted
    /// by key, skipping any key in `ignore` (fields a gate chooses not to
    /// pin), plus any metric named in `numeric_ids`
    /// — the sweep parameters (`depth`, …) that distinguish points but
    /// parse as numbers.
    pub fn id(&self, ignore: &[String], numeric_ids: &[String]) -> String {
        let mut parts: Vec<String> = self
            .fields
            .iter()
            .filter(|(key, _)| !ignore.iter().any(|i| i == *key))
            .map(|(key, value)| format!("{key}={value}"))
            .chain(
                self.metrics
                    .iter()
                    .filter(|(key, _)| numeric_ids.iter().any(|i| i == *key))
                    .map(|(key, value)| format!("{key}={value}")),
            )
            .collect();
        parts.sort();
        parts.join(",")
    }
}

/// One parsed `BENCH_*.json` file.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct BenchFile {
    /// Experiment id (`bmc_depth`, `pdr_vs_kinduction`, …).
    pub experiment: String,
    /// Whether the run was a CI smoke (shrunk sweep).
    pub smoke: bool,
    /// Commit hash the run came from, when the environment provided one.
    pub commit: Option<String>,
    /// The measurement points.
    pub entries: Vec<BenchEntry>,
}

fn parse_entry(value: &Json) -> Option<BenchEntry> {
    let members = value.as_object()?;
    let mut entry = BenchEntry::default();
    for (key, value) in members {
        if let Some(v) = value.as_f64() {
            entry.metrics.insert(key.clone(), v);
        } else if let Some(b) = value.as_bool() {
            entry.fields.insert(key.clone(), b.to_string());
        } else if let Some(s) = value.as_str().filter(|_| key != "experiment") {
            entry.fields.insert(key.clone(), s.to_owned());
        }
        // Arrays, nulls, nested objects and the experiment tag are dropped.
    }
    Some(entry)
}

impl BenchFile {
    /// Parses a `BENCH_*.json` document with a v1 header.
    pub fn parse(text: &str) -> Result<BenchFile, String> {
        let doc = Json::parse(text)?;
        match doc.get("schema_version").and_then(Json::as_u64) {
            Some(1) => {}
            other => return Err(format!("BENCH header has schema_version {other:?}, not 1")),
        }
        Ok(BenchFile {
            experiment: doc
                .get("experiment")
                .and_then(Json::as_str)
                .ok_or("BENCH header without experiment")?
                .to_owned(),
            smoke: doc.get("smoke").and_then(Json::as_bool).unwrap_or(false),
            commit: doc.get("commit").and_then(Json::as_str).map(str::to_owned),
            entries: doc
                .get("entries")
                .and_then(Json::as_array)
                .ok_or("BENCH header without entries")?
                .iter()
                .filter_map(parse_entry)
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_v1_header_files() {
        let file = BenchFile::parse(
            r#"{
              "schema_version": 1,
              "experiment": "bmc_depth",
              "smoke": true,
              "commit": "abc123",
              "entries": [
                {"experiment": "bmc_depth", "mode": "incremental", "depth": 4,
                 "solve_ms": 1.25, "clauses": 900, "per_frame": [1, 2]}
              ]
            }"#,
        )
        .unwrap();
        assert_eq!(file.experiment, "bmc_depth");
        assert!(file.smoke);
        assert_eq!(file.commit.as_deref(), Some("abc123"));
        assert_eq!(file.entries.len(), 1);
        let entry = &file.entries[0];
        assert_eq!(entry.id(&[], &[]), "mode=incremental");
        assert_eq!(
            entry.id(&[], &["depth".to_owned()]),
            "depth=4,mode=incremental",
            "sweep parameters can join the identity"
        );
        assert_eq!(entry.metrics["depth"], 4.0);
        assert_eq!(entry.metrics["solve_ms"], 1.25);
        assert!(
            !entry.metrics.contains_key("per_frame"),
            "arrays are dropped"
        );
    }

    #[test]
    fn rejects_files_without_a_v1_header() {
        let bare = r#"[{"experiment": "pdr_vs_kinduction", "ms": 77.0}]"#;
        assert!(BenchFile::parse(bare).is_err());
        let v2 = r#"{"schema_version": 2, "experiment": "x", "entries": []}"#;
        assert!(BenchFile::parse(v2).unwrap_err().contains("schema_version"));
    }
}
