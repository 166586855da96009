//! Export of trace artifacts into standard visualization formats.
//!
//! * [`chrome_trace`] — the Chrome Trace Event format (a `traceEvents`
//!   array of `B`/`E` duration events plus `i` instants), loadable by
//!   Perfetto / `chrome://tracing`. Span begin/end pairs are emitted per
//!   thread in sequence order and validated with a stack machine, so a
//!   malformed event stream is an error instead of a silently broken
//!   visualization.
//! * [`folded_stacks`] — the semicolon-separated folded-stack format
//!   consumed by `flamegraph.pl` / speedscope / inferno: one line per
//!   span path with its **self** time in microseconds (flamegraph
//!   renderers re-accumulate children onto parents, so emitting self
//!   time keeps totals exact).

use std::fmt::Write as _;

use ipcl_trace::json::{write_json_string, write_json_value};
use ipcl_trace::{Event, TraceSnapshot, Value};

/// One Chrome trace event line: the common envelope plus `ph`-specific
/// fields. `args` members come from the source event's typed fields.
fn write_chrome_event(
    out: &mut String,
    first: &mut bool,
    name: &str,
    ph: char,
    ts: u64,
    tid: u64,
    args: &[(&str, &Value)],
) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str("    {\"name\": ");
    write_json_string(out, name);
    let _ = write!(
        out,
        ", \"ph\": \"{ph}\", \"ts\": {ts}, \"pid\": 1, \"tid\": {tid}"
    );
    if ph == 'i' {
        // Thread-scoped instant: rendered as a marker on its own track.
        out.push_str(", \"s\": \"t\"");
    }
    if !args.is_empty() {
        out.push_str(", \"args\": {");
        for (i, (key, value)) in args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(out, key);
            out.push_str(": ");
            write_json_value(out, value);
        }
        out.push('}');
    }
    out.push('}');
}

/// Converts an event stream (as recorded by a [`ipcl_trace::Tracer`] or
/// re-parsed from `trace.jsonl`) into Chrome Trace Event JSON.
///
/// `span_enter` becomes a `B` (begin) and `span_exit` an `E` (end) event
/// on the source thread's track; every other event kind becomes a
/// thread-scoped instant (`i`) carrying its fields as `args`. Events are
/// grouped per thread and replayed in sequence-number order — the order
/// the thread recorded them — so begin/end nesting is exact even when
/// engines on several threads interleaved their streams.
///
/// # Errors
///
/// If any thread's `span_enter`/`span_exit` events do not pair up (a
/// truncated dump, or a trace whose event log overflowed and dropped
/// exits), with a message naming the thread and span.
pub fn chrome_trace(events: &[Event]) -> Result<String, String> {
    let mut threads: Vec<u64> = events.iter().map(|e| e.thread).collect();
    threads.sort_unstable();
    threads.dedup();

    let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    let mut first = true;
    for &thread in &threads {
        let mut thread_events: Vec<&Event> = events.iter().filter(|e| e.thread == thread).collect();
        thread_events.sort_by_key(|e| e.seq);
        // The begin/end stack machine: every E must close the innermost
        // open B of its thread.
        let mut stack: Vec<&str> = Vec::new();
        for event in thread_events {
            match event.kind.as_ref() {
                "span_enter" => {
                    let Some(Value::Str(name)) = event.field("name") else {
                        return Err(format!("span_enter without a name: {event:?}"));
                    };
                    stack.push(name.as_ref());
                    write_chrome_event(&mut out, &mut first, name, 'B', event.t_us, thread, &[]);
                }
                "span_exit" => {
                    let Some(Value::Str(name)) = event.field("name") else {
                        return Err(format!("span_exit without a name: {event:?}"));
                    };
                    match stack.pop() {
                        Some(top) if top == name.as_ref() => {}
                        Some(top) => {
                            return Err(format!(
                                "thread {thread}: span_exit '{name}' but '{top}' is open"
                            ));
                        }
                        None => {
                            return Err(format!(
                                "thread {thread}: span_exit '{name}' with no open span"
                            ));
                        }
                    }
                    write_chrome_event(&mut out, &mut first, name, 'E', event.t_us, thread, &[]);
                }
                kind => {
                    let args: Vec<(&str, &Value)> =
                        event.fields.iter().map(|(n, v)| (n.as_ref(), v)).collect();
                    write_chrome_event(&mut out, &mut first, kind, 'i', event.t_us, thread, &args);
                }
            }
        }
        if !stack.is_empty() {
            return Err(format!("thread {thread}: unclosed spans {stack:?}"));
        }
    }
    out.push_str("\n  ]\n}\n");
    Ok(out)
}

/// Renders the snapshot's span profile as folded stacks, one line per
/// span path: `root;child;leaf <self_us>`.
///
/// Self time (total minus children) is emitted, so a flamegraph
/// renderer's re-accumulated frame widths equal the profile's `total_us`
/// at every node; zero-self paths (pure parents) are skipped. Lines are
/// sorted by path, matching the snapshot's span order.
pub fn folded_stacks(snapshot: &TraceSnapshot) -> String {
    let mut out = String::new();
    for span in &snapshot.spans {
        let self_us = snapshot.self_us(&span.path);
        if self_us == 0 {
            continue;
        }
        let _ = writeln!(out, "{} {}", span.path.join(";"), self_us);
    }
    out
}

/// [`folded_stacks`] over an already-parsed `profile.json` — the CLI
/// path, where no live snapshot exists.
pub fn folded_stacks_from_profile(doc: &crate::profile::ProfileDoc) -> String {
    let mut out = String::new();
    for span in &doc.spans {
        if span.self_us == 0 {
            continue;
        }
        let _ = writeln!(out, "{} {}", span.path.join(";"), span.self_us);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileDoc;
    use ipcl_trace::json::Json;
    use ipcl_trace::{TraceConfig, Tracer};

    fn sample_snapshot() -> TraceSnapshot {
        let tracer = Tracer::new(TraceConfig::enabled());
        {
            let _outer = tracer.span("solve");
            tracer.event("solver_restart", &[("conflicts", Value::U64(7))]);
            {
                let _inner = tracer.span("propagate");
            }
            let _other = tracer.span("analyze");
        }
        tracer.snapshot().unwrap()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_paired_begin_end() {
        let snapshot = sample_snapshot();
        let text = chrome_trace(&snapshot.events).expect("balanced stream");
        let doc = Json::parse(&text).expect("chrome trace is valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let begins = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("B"))
            .count();
        let ends = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("E"))
            .count();
        assert_eq!(begins, 3);
        assert_eq!(begins, ends);
        let instant = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .expect("the restart event becomes an instant");
        assert_eq!(
            instant.get("name").unwrap().as_str(),
            Some("solver_restart")
        );
        assert_eq!(
            instant
                .get("args")
                .unwrap()
                .get("conflicts")
                .unwrap()
                .as_u64(),
            Some(7)
        );
    }

    #[test]
    fn chrome_trace_rejects_unbalanced_streams() {
        let mut events = sample_snapshot().events;
        let exit_at = events
            .iter()
            .position(|e| e.kind == "span_exit")
            .expect("has exits");
        events.remove(exit_at);
        assert!(chrome_trace(&events).is_err());
    }

    #[test]
    fn folded_stack_totals_equal_the_profile_totals() {
        let snapshot = sample_snapshot();
        let folded = folded_stacks(&snapshot);
        let total: u64 = folded
            .lines()
            .map(|line| line.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, snapshot.root_span_us());
        // Re-accumulating children under the root reproduces its total.
        let root_accumulated: u64 = folded
            .lines()
            .filter(|line| line.starts_with("solve"))
            .map(|line| line.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(
            root_accumulated,
            snapshot.span(&["solve"]).unwrap().total_us
        );
        // The profile-document path produces the same folded stacks.
        assert_eq!(
            folded_stacks_from_profile(&ProfileDoc::from_snapshot(&snapshot)),
            folded
        );
    }
}
