//! Rendering and re-parsing of trace artifacts.
//!
//! Three output shapes, all derived from a [`TraceSnapshot`]:
//!
//! * [`events_jsonl`] — the event log as JSON Lines (`trace.jsonl`), one
//!   flat object per event;
//! * [`profile_json`] — the span tree, counters and gauges as one JSON
//!   document (`profile.json`);
//! * [`render_profile`] — a human-readable profile summary (self/total
//!   time per span path, hot counters, gauges).
//!
//! The inverse direction — [`parse_jsonl`] and [`reconstruct_spans`] —
//! re-reads a JSONL dump and replays each thread's `span_enter`/`span_exit`
//! events through a stack machine, recovering the per-thread span nesting
//! post-hoc. This is what the round-trip acceptance test exercises across
//! engine runs on concurrent threads.
//!
//! Writing and parsing go through [`crate::json`], the workspace's one
//! JSON module.

use crate::json::{write_json_string, write_json_value, Json};
use crate::{Event, TraceSnapshot, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn write_event_json(out: &mut String, event: &Event) {
    out.push('{');
    out.push_str("\"seq\":");
    let _ = write!(out, "{}", event.seq);
    out.push_str(",\"thread\":");
    let _ = write!(out, "{}", event.thread);
    out.push_str(",\"t_us\":");
    let _ = write!(out, "{}", event.t_us);
    out.push_str(",\"kind\":");
    write_json_string(out, &event.kind);
    for (name, value) in &event.fields {
        out.push(',');
        write_json_string(out, name);
        out.push(':');
        write_json_value(out, value);
    }
    out.push('}');
}

/// Renders the snapshot's event log as JSON Lines (the `trace.jsonl`
/// artifact): one flat JSON object per event, fields inlined next to the
/// `seq`/`thread`/`t_us`/`kind` envelope.
pub fn events_jsonl(snapshot: &TraceSnapshot) -> String {
    let mut out = String::new();
    for event in &snapshot.events {
        write_event_json(&mut out, event);
        out.push('\n');
    }
    out
}

/// Renders the snapshot's profile tree, counters and gauges as one JSON
/// document (the `profile.json` artifact).
pub fn profile_json(snapshot: &TraceSnapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"wall_us\": ");
    let _ = write!(out, "{}", snapshot.wall_us);
    out.push_str(",\n  \"root_span_us\": ");
    let _ = write!(out, "{}", snapshot.root_span_us());
    out.push_str(",\n  \"dropped_events\": ");
    let _ = write!(out, "{}", snapshot.dropped_events);
    out.push_str(",\n  \"spans\": [");
    for (i, span) in snapshot.spans.iter().enumerate() {
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
            "], \"total_us\": {}, \"self_us\": {}, \"count\": {}}}",
            span.total_us,
            snapshot.self_us(&span.path),
            span.count
        );
    }
    out.push_str("\n  ],\n  \"counters\": {");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        write_json_string(&mut out, name);
        let _ = write!(out, ": {value}");
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, (name, value)) in snapshot.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        write_json_string(&mut out, name);
        if value.is_finite() {
            let _ = write!(out, ": {value}");
        } else {
            out.push_str(": null");
        }
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Renders a human-readable profile summary: one line per span path with
/// total/self time and call count, then hot counters and gauges.
pub fn render_profile(snapshot: &TraceSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: wall {:.3} ms, span tree {:.3} ms across {} paths ({} events, {} dropped)",
        snapshot.wall_us as f64 / 1_000.0,
        snapshot.root_span_us() as f64 / 1_000.0,
        snapshot.spans.len(),
        snapshot.events.len(),
        snapshot.dropped_events
    );
    if !snapshot.spans.is_empty() {
        let _ = writeln!(
            out,
            "  {:<52} {:>12} {:>12} {:>8}",
            "span", "total ms", "self ms", "count"
        );
        for span in &snapshot.spans {
            let indent = "  ".repeat(span.path.len() - 1);
            let label = format!("{indent}{}", span.path.last().expect("non-empty path"));
            let _ = writeln!(
                out,
                "  {:<52} {:>12.3} {:>12.3} {:>8}",
                label,
                span.total_us as f64 / 1_000.0,
                snapshot.self_us(&span.path) as f64 / 1_000.0,
                span.count
            );
        }
    }
    if !snapshot.counters.is_empty() {
        let _ = writeln!(out, "  counters:");
        let mut counters: Vec<_> = snapshot.counters.iter().collect();
        counters.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        for (name, value) in counters {
            let _ = writeln!(out, "    {name:<50} {value:>12}");
        }
    }
    if !snapshot.gauges.is_empty() {
        let _ = writeln!(out, "  gauges:");
        for (name, value) in &snapshot.gauges {
            let _ = writeln!(out, "    {name:<50} {value:>12.3}");
        }
    }
    out
}

/// Parses a `trace.jsonl` dump (as produced by [`events_jsonl`]) back into
/// events. Blank lines are skipped; any malformed line is an error.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| Json::parse(line).and_then(event_from_json))
        .collect()
}

/// Maps one parsed `trace.jsonl` line back to its [`Event`]: the envelope
/// members by name, every other member a field, in line order.
fn event_from_json(line: Json) -> Result<Event, String> {
    let Json::Obj(members) = line else {
        return Err("event line is not an object".to_owned());
    };
    let (mut seq, mut thread, mut t_us, mut kind) = (None, None, None, None);
    let mut fields = Vec::new();
    for (name, value) in members {
        match (name.as_str(), value) {
            ("seq", Json::U64(v)) => seq = Some(v),
            ("thread", Json::U64(v)) => thread = Some(v),
            ("t_us", Json::U64(v)) => t_us = Some(v),
            ("kind", Json::Str(s)) => kind = Some(s),
            (_, value) => {
                let value = match value {
                    Json::U64(v) => Value::U64(v),
                    Json::I64(v) => Value::I64(v),
                    Json::F64(v) => Value::F64(v),
                    Json::Bool(v) => Value::Bool(v),
                    Json::Str(v) => Value::Str(Cow::Owned(v)),
                    other => return Err(format!("field '{name}' is not a scalar: {other:?}")),
                };
                fields.push((Cow::Owned(name), value));
            }
        }
    }
    Ok(Event {
        seq: seq.ok_or("missing seq")?,
        thread: thread.ok_or("missing thread")?,
        t_us: t_us.ok_or("missing t_us")?,
        kind: Cow::Owned(kind.ok_or("missing kind")?),
        fields,
    })
}

/// One completed span recovered from an event stream by
/// [`reconstruct_spans`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReconstructedSpan {
    /// The thread the span ran on.
    pub thread: u64,
    /// Span path from the thread's outermost open span down.
    pub path: Vec<String>,
    /// Duration reported by the `span_exit` event, microseconds.
    pub us: u64,
}

/// Replays `span_enter`/`span_exit` events through a per-thread stack
/// machine, recovering each thread's span nesting. Events may arrive
/// interleaved across threads (as they do when engines run on several
/// threads); within a thread they are replayed in sequence-number order.
/// Fails on mismatched enter/exit pairs.
pub fn reconstruct_spans(events: &[Event]) -> Result<Vec<ReconstructedSpan>, String> {
    let mut by_thread: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for event in events {
        if event.kind == "span_enter" || event.kind == "span_exit" {
            by_thread.entry(event.thread).or_default().push(event);
        }
    }
    let mut spans = Vec::new();
    for (thread, mut events) in by_thread {
        events.sort_by_key(|e| e.seq);
        let mut stack: Vec<String> = Vec::new();
        for event in events {
            let Some(Value::Str(name)) = event.field("name") else {
                return Err(format!("span event without name: {event:?}"));
            };
            if event.kind == "span_enter" {
                stack.push(name.clone().into_owned());
            } else {
                let top = stack.pop().ok_or_else(|| {
                    format!("thread {thread}: span_exit '{name}' with empty stack")
                })?;
                if top != name.as_ref() {
                    return Err(format!(
                        "thread {thread}: span_exit '{name}' but top of stack is '{top}'"
                    ));
                }
                let mut path = stack.clone();
                path.push(top);
                let us = match event.field("us") {
                    Some(Value::U64(us)) => *us,
                    _ => return Err(format!("span_exit without us: {event:?}")),
                };
                spans.push(ReconstructedSpan { thread, path, us });
            }
        }
        if !stack.is_empty() {
            return Err(format!("thread {thread}: unclosed spans {stack:?}"));
        }
    }
    Ok(spans)
}

/// Writes `trace.jsonl` and `profile.json` under `dir` (creating it), and
/// returns the two paths.
pub fn write_artifacts(
    snapshot: &TraceSnapshot,
    dir: &std::path::Path,
) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let trace_path = dir.join("trace.jsonl");
    let profile_path = dir.join("profile.json");
    std::fs::write(&trace_path, events_jsonl(snapshot))?;
    std::fs::write(&profile_path, profile_json(snapshot))?;
    Ok((trace_path, profile_path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricSink, TraceConfig, Tracer};

    fn sample_snapshot() -> TraceSnapshot {
        let tracer = Tracer::new(TraceConfig::enabled());
        {
            let _outer = tracer.span("solve");
            tracer.event(
                "solver_restart",
                &[
                    ("conflicts", Value::U64(12)),
                    ("note", Value::Str("a \"q\"\n".into())),
                    ("max", Value::U64(u64::MAX)),
                    ("delta", Value::I64(-7)),
                    ("rate", Value::F64(0.25)),
                    ("forced", Value::Bool(false)),
                ],
            );
            let _inner = tracer.span("propagate");
            tracer.counter("sat.conflicts", 12);
            tracer.gauge("depth", 3.5);
        }
        tracer.snapshot().unwrap()
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let snapshot = sample_snapshot();
        let text = events_jsonl(&snapshot);
        let parsed = parse_jsonl(&text).expect("parse back");
        assert_eq!(parsed, snapshot.events);
    }

    #[test]
    fn reconstruct_recovers_nesting() {
        let snapshot = sample_snapshot();
        let events = parse_jsonl(&events_jsonl(&snapshot)).unwrap();
        let spans = reconstruct_spans(&events).expect("balanced spans");
        assert_eq!(spans.len(), 2);
        // Exits arrive innermost-first.
        assert_eq!(spans[0].path, ["solve", "propagate"]);
        assert_eq!(spans[1].path, ["solve"]);
        assert!(spans[1].us >= spans[0].us);
    }

    #[test]
    fn reconstruct_rejects_mismatched_exits() {
        let mut events = parse_jsonl(&events_jsonl(&sample_snapshot())).unwrap();
        // Drop one exit: the stack machine must notice.
        let exit_at = events
            .iter()
            .position(|e| e.kind == "span_exit")
            .expect("has an exit");
        events.remove(exit_at);
        assert!(reconstruct_spans(&events).is_err());
    }

    #[test]
    fn profile_json_and_summary_render() {
        let snapshot = sample_snapshot();
        let json = profile_json(&snapshot);
        assert!(json.contains("\"wall_us\""));
        assert!(json.contains("\"solve\", \"propagate\""));
        assert!(json.contains("\"sat.conflicts\": 12"));
        let human = render_profile(&snapshot);
        assert!(human.contains("solve"));
        assert!(human.contains("propagate"));
        assert!(human.contains("sat.conflicts"));
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let line =
            r#"{"seq":1,"thread":0,"t_us":5,"kind":"x","s":"a\t\"b\"é","n":-3,"f":1.5,"b":true}"#;
        let event = parse_jsonl(line).unwrap().remove(0);
        assert_eq!(event.field("s"), Some(&Value::Str("a\t\"b\"\u{e9}".into())));
        assert_eq!(event.field("n"), Some(&Value::I64(-3)));
        assert_eq!(event.field("f"), Some(&Value::F64(1.5)));
        assert_eq!(event.field("b"), Some(&Value::Bool(true)));
    }
}
