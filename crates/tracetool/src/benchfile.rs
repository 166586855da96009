//! The parsed form of a `BENCH_*.json` experiment artifact.
//!
//! Since the shared-header satellite of ISSUE 7, every experiment binary
//! emits one object (`ipcl_bench::emit_bench_json`):
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
//!
//! Earlier commits' artifacts were a bare JSON array of entries; those
//! parse as `schema_version` 0 with the experiment name recovered from
//! the entries' own `"experiment"` field, so `tracetool regress` ingests
//! the whole history uniformly.

use std::collections::BTreeMap;

use crate::json::Json;

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
    /// Header schema version (0 for pre-header bare-array files).
    pub schema_version: u64,
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
        match value {
            Json::Num(v) => {
                entry.metrics.insert(key.clone(), *v);
            }
            Json::Str(s) if key != "experiment" => {
                entry.fields.insert(key.clone(), s.clone());
            }
            Json::Bool(b) => {
                entry.fields.insert(key.clone(), b.to_string());
            }
            _ => {} // arrays, nulls, nested objects, the experiment tag
        }
    }
    Some(entry)
}

impl BenchFile {
    /// Parses a `BENCH_*.json` document — the v1 header object or a
    /// legacy bare array.
    pub fn parse(text: &str) -> Result<BenchFile, String> {
        let doc = Json::parse(text)?;
        let (header, raw_entries) = match &doc {
            Json::Obj(_) => {
                let entries = doc
                    .get("entries")
                    .and_then(Json::as_array)
                    .ok_or("BENCH header without entries")?;
                (Some(&doc), entries)
            }
            Json::Arr(items) => (None, items.as_slice()),
            _ => return Err("BENCH file is neither an object nor an array".to_owned()),
        };
        let entries: Vec<BenchEntry> = raw_entries.iter().filter_map(parse_entry).collect();
        let experiment = header
            .and_then(|h| h.get("experiment"))
            .and_then(Json::as_str)
            .map(str::to_owned)
            .or_else(|| {
                // Legacy files tag each entry instead.
                raw_entries
                    .first()
                    .and_then(|e| e.get("experiment"))
                    .and_then(Json::as_str)
                    .map(str::to_owned)
            })
            .ok_or("cannot determine the experiment id")?;
        Ok(BenchFile {
            schema_version: header
                .and_then(|h| h.get("schema_version"))
                .and_then(Json::as_u64)
                .unwrap_or(0),
            experiment,
            smoke: header
                .and_then(|h| h.get("smoke"))
                .and_then(Json::as_bool)
                .unwrap_or(false),
            commit: header
                .and_then(|h| h.get("commit"))
                .and_then(Json::as_str)
                .map(str::to_owned),
            entries,
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
        assert_eq!(file.schema_version, 1);
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
    fn parses_legacy_bare_arrays_as_schema_zero() {
        let file = BenchFile::parse(
            r#"[
              {"experiment": "pdr_vs_kinduction", "workload": "deep-chain-16",
               "engine": "pdr", "phase_saving": true, "ms": 77.0, "winner": "pdr"}
            ]"#,
        )
        .unwrap();
        assert_eq!(file.schema_version, 0);
        assert_eq!(file.experiment, "pdr_vs_kinduction");
        assert!(!file.smoke);
        assert_eq!(file.commit, None);
        let entry = &file.entries[0];
        assert_eq!(
            entry.id(&["winner".to_owned()], &[]),
            "engine=pdr,phase_saving=true,workload=deep-chain-16"
        );
    }
}
