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
//! Everything here is hand-rolled: the workspace builds offline with no
//! serialisation crate, so this crate carries the workspace's JSON string
//! writer ([`write_json_string`], which every JSON-emitting crate uses) and
//! a small (flat-object) parser.

use crate::{Event, TraceSnapshot, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// JSON writing
// ---------------------------------------------------------------------------

/// Escapes `s` into `out` as a JSON string literal (with quotes). The one
/// JSON string writer of the workspace: every crate that emits JSON uses it.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_json_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) => {
            if v.is_finite() {
                let _ = write!(out, "{v}");
            } else {
                out.push_str("null");
            }
        }
        Value::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Str(v) => write_json_string(out, v),
    }
}

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

// ---------------------------------------------------------------------------
// JSONL parsing (flat objects, as produced by `events_jsonl`)
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(line: &'a str) -> Self {
        Parser {
            bytes: line.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.pos < self.bytes.len() && self.bytes[self.pos] == c {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {} of {:?}",
                c as char,
                self.pos,
                String::from_utf8_lossy(self.bytes)
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_owned());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".to_owned());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                b => {
                    // Re-sync on UTF-8 boundaries: collect the full code
                    // point starting at `b`.
                    let start = self.pos - 1;
                    let width = match b {
                        b if b < 0x80 => 1,
                        b if b >= 0xf0 => 4,
                        b if b >= 0xe0 => 3,
                        _ => 2,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + width)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos = start + width;
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(Cow::Owned(self.parse_string()?))),
            Some(b't') => {
                self.literal("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.literal("false")?;
                Ok(Value::Bool(false))
            }
            Some(_) => self.parse_number(),
            None => Err("unexpected end of line".to_owned()),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected literal {lit}"))
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if text.is_empty() {
            return Err(format!("expected number at byte {start}"));
        }
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|e| e.to_string())
    }
}

/// Parses one `trace.jsonl` line back into an [`Event`].
fn parse_event_line(line: &str) -> Result<Event, String> {
    let mut p = Parser::new(line);
    p.expect(b'{')?;
    let mut seq = None;
    let mut thread = None;
    let mut t_us = None;
    let mut kind = None;
    let mut fields = Vec::new();
    loop {
        if p.peek() == Some(b'}') {
            p.expect(b'}')?;
            break;
        }
        let name = p.parse_string()?;
        p.expect(b':')?;
        let value = p.parse_value()?;
        match (name.as_str(), &value) {
            ("seq", Value::U64(v)) => seq = Some(*v),
            ("thread", Value::U64(v)) => thread = Some(*v),
            ("t_us", Value::U64(v)) => t_us = Some(*v),
            ("kind", Value::Str(s)) => kind = Some(s.clone().into_owned()),
            _ => fields.push((Cow::Owned(name), value)),
        }
        match p.peek() {
            Some(b',') => p.expect(b',')?,
            Some(b'}') => {}
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
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

/// Parses a `trace.jsonl` dump (as produced by [`events_jsonl`]) back into
/// events. Blank lines are skipped; any malformed line is an error.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(parse_event_line)
        .collect()
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
        let event = parse_event_line(line).unwrap();
        assert_eq!(event.field("s"), Some(&Value::Str("a\t\"b\"\u{e9}".into())));
        assert_eq!(event.field("n"), Some(&Value::I64(-3)));
        assert_eq!(event.field("f"), Some(&Value::F64(1.5)));
        assert_eq!(event.field("b"), Some(&Value::Bool(true)));
    }
}
