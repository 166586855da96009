//! The parsed form of a `profile.json` artifact (and its in-process
//! equivalent built straight from a [`TraceSnapshot`]), the common input
//! of the [`crate::diff`] machinery.

use std::collections::BTreeMap;

use ipcl_trace::json::Json;
use ipcl_trace::TraceSnapshot;

/// One span path of a profile document.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProfileSpan {
    /// Span path from a root span down.
    pub path: Vec<String>,
    /// Total wall time at this exact path, microseconds.
    pub total_us: u64,
    /// Total minus the children's total — time in the span itself.
    pub self_us: u64,
    /// Completed spans at this path.
    pub count: u64,
}

/// A parsed `profile.json`: the span tree plus the run's unified metrics.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ProfileDoc {
    /// Microseconds from tracer creation to the snapshot.
    pub wall_us: u64,
    /// Total of the root spans (may exceed `wall_us` with concurrent threads).
    pub root_span_us: u64,
    /// The flattened span tree, in path order.
    pub spans: Vec<ProfileSpan>,
    /// Counters (exact integers, held as `f64` alongside the gauges).
    pub counters: BTreeMap<String, f64>,
    /// Gauges.
    pub gauges: BTreeMap<String, f64>,
}

impl ProfileDoc {
    /// Parses the output of [`ipcl_trace::report::profile_json`].
    pub fn parse(text: &str) -> Result<ProfileDoc, String> {
        let doc = Json::parse(text)?;
        let wall_us = doc
            .get("wall_us")
            .and_then(Json::as_u64)
            .ok_or("profile.json: missing wall_us")?;
        let root_span_us = doc
            .get("root_span_us")
            .and_then(Json::as_u64)
            .ok_or("profile.json: missing root_span_us")?;
        let mut spans = Vec::new();
        for span in doc
            .get("spans")
            .and_then(Json::as_array)
            .ok_or("profile.json: missing spans")?
        {
            let path = span
                .get("path")
                .and_then(Json::as_array)
                .ok_or("span without path")?
                .iter()
                .map(|seg| {
                    seg.as_str()
                        .map(str::to_owned)
                        .ok_or("non-string path segment")
                })
                .collect::<Result<Vec<_>, _>>()?;
            spans.push(ProfileSpan {
                path,
                total_us: span
                    .get("total_us")
                    .and_then(Json::as_u64)
                    .ok_or("span without total_us")?,
                self_us: span
                    .get("self_us")
                    .and_then(Json::as_u64)
                    .ok_or("span without self_us")?,
                count: span
                    .get("count")
                    .and_then(Json::as_u64)
                    .ok_or("span without count")?,
            });
        }
        let numbers = |key: &str| -> Result<BTreeMap<String, f64>, String> {
            let mut out = BTreeMap::new();
            if let Some(members) = doc.get(key).and_then(Json::as_object) {
                for (name, value) in members {
                    if let Some(v) = value.as_f64() {
                        out.insert(name.clone(), v);
                    }
                }
            }
            Ok(out)
        };
        Ok(ProfileDoc {
            wall_us,
            root_span_us,
            spans,
            counters: numbers("counters")?,
            gauges: numbers("gauges")?,
        })
    }

    /// Builds the document straight from a snapshot (no JSON round-trip),
    /// for in-process diffing and tests.
    pub fn from_snapshot(snapshot: &TraceSnapshot) -> ProfileDoc {
        ProfileDoc {
            wall_us: snapshot.wall_us,
            root_span_us: snapshot.root_span_us(),
            spans: snapshot
                .spans
                .iter()
                .map(|span| ProfileSpan {
                    path: span.path.clone(),
                    total_us: span.total_us,
                    self_us: snapshot.self_us(&span.path),
                    count: span.count,
                })
                .collect(),
            counters: snapshot
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v as f64))
                .collect(),
            gauges: snapshot.gauges.clone(),
        }
    }

    /// The span at exactly `path`, if present.
    pub fn span(&self, path: &[String]) -> Option<&ProfileSpan> {
        self.spans.iter().find(|s| s.path == path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_trace::{report, MetricSink, TraceConfig, Tracer};

    #[test]
    fn parse_round_trips_from_snapshot_through_profile_json() {
        let tracer = Tracer::new(TraceConfig::enabled());
        {
            let _outer = tracer.span("solve");
            let _inner = tracer.span("propagate");
            tracer.counter("sat.conflicts", 12);
            tracer.gauge("depth", 3.5);
        }
        let snapshot = tracer.snapshot().unwrap();
        let parsed = ProfileDoc::parse(&report::profile_json(&snapshot)).expect("parses");
        assert_eq!(parsed, ProfileDoc::from_snapshot(&snapshot));
        assert_eq!(parsed.counters["sat.conflicts"], 12.0);
        assert_eq!(parsed.gauges["depth"], 3.5);
        let root = parsed.span(&["solve".to_owned()]).unwrap();
        assert_eq!(root.count, 1);
        assert!(root.total_us >= root.self_us);
    }
}
