//! Live proof progress: render the engines' `heartbeat` events as an
//! in-flight status line.
//!
//! The engines (`ipcl-sat`, `ipcl-bmc`, `ipcl-pdr`, the portfolio)
//! emit rate-limited `heartbeat` events through their [`Tracer`] while
//! solving. [`Watcher::spawn`] polls the tracer's event log from a
//! background thread and redraws one status line on stderr — stdout
//! stays clean for the experiment's JSON. With tracing (or event
//! recording) disabled the engines emit nothing, the poll sees nothing,
//! and the watcher prints nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ipcl_trace::{Event, Tracer, Value};

fn field_text(event: &Event, name: &str) -> Option<String> {
    event.field(name).map(|value| match value {
        Value::U64(v) => v.to_string(),
        Value::I64(v) => v.to_string(),
        Value::F64(v) => format!("{v:.2}"),
        Value::Bool(v) => v.to_string(),
        Value::Str(v) => v.to_string(),
    })
}

/// Renders the freshest heartbeat per engine as one status line, e.g.
///
/// ```text
/// [12.3s] bmc depth=7/40 | pdr frame=4 queue=3 | sat conflicts=+812 restarts=+3
/// ```
///
/// The parallel PDR engine's heartbeats carry a `worker` field (the master
/// scheduler is worker 0, each solver thread its own id); those render as
/// one entry per worker:
///
/// ```text
/// [4.2s] pdr:w0 frame=6 queue=2 clauses=911 | pdr:w1 queue=3 solved=48 imported=12 exported=9
/// ```
///
/// Returns `None` when `events` holds no heartbeats yet.
pub fn progress_line(events: &[Event]) -> Option<String> {
    // Freshest heartbeat per engine (split per worker for the parallel
    // PDR engine), in first-seen order.
    let mut latest: BTreeMap<String, &Event> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    for event in events.iter().filter(|e| e.kind == "heartbeat") {
        let engine = field_text(event, "engine").unwrap_or_else(|| "?".to_owned());
        let key = match field_text(event, "worker") {
            Some(worker) if engine == "pdr" => format!("{engine}:w{worker}"),
            _ => engine,
        };
        if !latest.contains_key(&key) {
            order.push(key.clone());
        }
        latest.insert(key, event);
    }
    let newest = latest.values().map(|e| e.t_us).max()?;
    let mut out = format!("[{:.1}s]", newest as f64 / 1e6);
    for key in &order {
        let event = latest[key];
        let _ = write!(out, " {key}");
        let engine = key.split(':').next().unwrap_or(key);
        match engine {
            "bmc" => {
                if let (Some(depth), Some(max)) =
                    (field_text(event, "depth"), field_text(event, "max_depth"))
                {
                    let _ = write!(out, " depth={depth}/{max}");
                }
            }
            "pdr" => {
                // The master's beat carries frame/queue/clauses; a solver
                // worker's beat carries queue/solved and its clause-exchange
                // counters. Render whichever are present.
                for field in [
                    "frame", "queue", "clauses", "solved", "imported", "exported",
                ] {
                    if let Some(v) = field_text(event, field) {
                        let _ = write!(out, " {field}={v}");
                    }
                }
            }
            "sat" => {
                for field in ["conflicts", "restarts"] {
                    if let Some(v) = field_text(event, field) {
                        let _ = write!(out, " {field}=+{v}");
                    }
                }
            }
            "serve" => {
                // Worker-pool beats: queue shape plus the cache hit-rate.
                if let (Some(queued), Some(running), Some(done)) = (
                    field_text(event, "queued"),
                    field_text(event, "running"),
                    field_text(event, "done"),
                ) {
                    let _ = write!(out, " jobs {queued}q/{running}r/{done}d");
                }
                let hits = field_text(event, "hits").and_then(|v| v.parse::<u64>().ok());
                let misses = field_text(event, "misses").and_then(|v| v.parse::<u64>().ok());
                if let (Some(hits), Some(misses)) = (hits, misses) {
                    if hits + misses > 0 {
                        let rate = 100.0 * hits as f64 / (hits + misses) as f64;
                        let _ = write!(out, " hit-rate={rate:.0}%");
                    }
                }
            }
            _ => {
                if let Some(v) = field_text(event, "property") {
                    let _ = write!(out, " {v}");
                }
            }
        }
        out.push_str(" |");
    }
    out.pop();
    out.pop();
    Some(out)
}

/// A background thread redrawing the progress line while a traced run is
/// in flight. Created by experiment binaries under `--watch`.
pub struct Watcher {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Watcher {
    /// Spawns the poller. `tracer` is the (cheaply cloned) handle the
    /// engines write through; `interval` is the redraw period.
    pub fn spawn(tracer: Tracer, interval: Duration) -> Watcher {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut seq_floor = 0u64;
            let mut events: Vec<Event> = Vec::new();
            let mut last_line = String::new();
            let mut drew = false;
            while !stop_flag.load(Ordering::Relaxed) {
                thread::sleep(interval);
                let fresh = tracer.events_since(seq_floor);
                if let Some(last) = fresh.last() {
                    seq_floor = last.seq + 1;
                }
                events.extend(fresh);
                if let Some(line) = progress_line(&events) {
                    if line != last_line {
                        // \r + clear-to-end keeps the redraw on one line.
                        eprint!("\r\x1b[K{line}");
                        let _ = std::io::stderr().flush();
                        last_line = line;
                        drew = true;
                    }
                }
            }
            if drew {
                eprintln!();
            }
        });
        Watcher {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the poller and waits for its final redraw.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Watcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_trace::{TraceConfig, Tracer};

    #[test]
    fn progress_line_summarizes_the_freshest_heartbeat_per_engine() {
        let tracer = Tracer::new(TraceConfig::enabled());
        tracer.event(
            "heartbeat",
            &[
                ("engine", Value::from("bmc")),
                ("depth", Value::U64(3)),
                ("max_depth", Value::U64(40)),
            ],
        );
        tracer.event(
            "heartbeat",
            &[
                ("engine", Value::from("bmc")),
                ("depth", Value::U64(7)),
                ("max_depth", Value::U64(40)),
            ],
        );
        tracer.event(
            "heartbeat",
            &[
                ("engine", Value::from("sat")),
                ("conflicts", Value::U64(812)),
                ("restarts", Value::U64(3)),
            ],
        );
        tracer.event("solver_restart", &[("conflicts", Value::U64(9))]);
        let snapshot = tracer.snapshot().unwrap();
        let line = progress_line(&snapshot.events).expect("heartbeats present");
        assert!(
            line.contains("bmc depth=7/40"),
            "freshest beat wins: {line}"
        );
        assert!(!line.contains("depth=3"), "stale beat dropped: {line}");
        assert!(line.contains("sat conflicts=+812 restarts=+3"), "{line}");
    }

    #[test]
    fn progress_line_renders_server_queue_and_hit_rate() {
        let tracer = Tracer::new(TraceConfig::enabled());
        tracer.event(
            "heartbeat",
            &[
                ("engine", Value::from("serve")),
                ("queued", Value::U64(12)),
                ("running", Value::U64(2)),
                ("done", Value::U64(30)),
                ("hits", Value::U64(9)),
                ("misses", Value::U64(3)),
            ],
        );
        let snapshot = tracer.snapshot().unwrap();
        let line = progress_line(&snapshot.events).expect("heartbeats present");
        assert!(line.contains("serve jobs 12q/2r/30d"), "{line}");
        assert!(line.contains("hit-rate=75%"), "{line}");
    }

    #[test]
    fn progress_line_splits_parallel_pdr_heartbeats_per_worker() {
        let tracer = Tracer::new(TraceConfig::enabled());
        // The master scheduler's beat (worker 0) and two solver workers',
        // as tagged by `ipcl_trace::set_worker` in the parallel engine.
        tracer.event(
            "heartbeat",
            &[
                ("engine", Value::from("pdr")),
                ("frame", Value::U64(6)),
                ("queue", Value::U64(2)),
                ("worker", Value::U64(0)),
            ],
        );
        tracer.event(
            "heartbeat",
            &[
                ("engine", Value::from("pdr")),
                ("queue", Value::U64(3)),
                ("solved", Value::U64(40)),
                ("imported", Value::U64(12)),
                ("worker", Value::U64(1)),
            ],
        );
        tracer.event(
            "heartbeat",
            &[
                ("engine", Value::from("pdr")),
                ("queue", Value::U64(1)),
                ("solved", Value::U64(48)),
                ("worker", Value::U64(1)),
            ],
        );
        tracer.event(
            "heartbeat",
            &[
                ("engine", Value::from("pdr")),
                ("queue", Value::U64(5)),
                ("solved", Value::U64(39)),
                ("worker", Value::U64(2)),
            ],
        );
        let snapshot = tracer.snapshot().unwrap();
        let line = progress_line(&snapshot.events).expect("heartbeats present");
        assert!(line.contains("pdr:w0 frame=6 queue=2"), "{line}");
        assert!(
            line.contains("pdr:w1 queue=1 solved=48"),
            "freshest beat per worker wins: {line}"
        );
        assert!(!line.contains("solved=40"), "stale worker beat: {line}");
        assert!(line.contains("pdr:w2 queue=5 solved=39"), "{line}");
        // An untagged (sequential-engine) beat keeps its plain key.
        tracer.event(
            "heartbeat",
            &[("engine", Value::from("pdr")), ("frame", Value::U64(9))],
        );
        let snapshot = tracer.snapshot().unwrap();
        let line = progress_line(&snapshot.events).expect("heartbeats present");
        assert!(line.contains(" pdr frame=9"), "{line}");
    }

    #[test]
    fn progress_line_is_none_without_heartbeats() {
        let tracer = Tracer::new(TraceConfig::enabled());
        tracer.event("solver_restart", &[]);
        let snapshot = tracer.snapshot().unwrap();
        assert_eq!(progress_line(&snapshot.events), None);
        assert_eq!(progress_line(&[]), None);
    }

    #[test]
    fn watcher_drains_the_log_and_stops_cleanly() {
        let tracer = Tracer::new(TraceConfig::enabled());
        let watcher = Watcher::spawn(tracer.clone(), Duration::from_millis(1));
        tracer.event(
            "heartbeat",
            &[("engine", Value::from("pdr")), ("frame", Value::U64(2))],
        );
        thread::sleep(Duration::from_millis(10));
        watcher.stop();
    }

    #[test]
    fn watcher_on_a_disabled_tracer_sees_nothing() {
        let tracer = Tracer::disabled();
        let watcher = Watcher::spawn(tracer.clone(), Duration::from_millis(1));
        thread::sleep(Duration::from_millis(5));
        assert!(tracer.events_since(0).is_empty());
        watcher.stop();
    }
}
