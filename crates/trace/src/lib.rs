//! Structured observability for the solve stack: spans, events, metrics.
//!
//! Every engine in the workspace — the CDCL solver, BMC/k-induction, PDR,
//! the portfolio and the sequential checker — accepts a [`Tracer`].
//! A tracer is a cheap cloneable handle (engines, and threads, share one)
//! recording three kinds of data:
//!
//! * **Spans** ([`Tracer::span`]): scoped wall-clock timers forming a
//!   hierarchical profile tree (`bmc.check → bmc.encode → sat.solve` …).
//!   Nesting is tracked per thread, so runs on different threads each grow
//!   their own subtree; exit times merge into one thread-safe profile
//!   keyed by span path.
//! * **Events** ([`Tracer::event`]): a bounded, append-only structured log
//!   (solver restarts, learned-clause reductions, PDR obligation push/pop,
//!   portfolio verdicts, replay verdicts). Every event carries a
//!   sequence number from one atomic counter — strictly monotone per
//!   thread (and globally unique) — plus a thread id and a microsecond
//!   timestamp, so interleaved engine activity can be reconstructed
//!   post-hoc from the JSONL dump (see [`report`]).
//! * **Metrics** ([`MetricSink`]): typed counters and gauges unifying the
//!   engines' ad-hoc stats structs (`SolverStats`, `BmcStats`, `PdrStats`)
//!   behind one trait, so a run's hot counters land in the same artifact
//!   as its profile.
//!
//! # Zero cost when disabled
//!
//! [`Tracer::disabled`] (the default everywhere) is a `None` behind the
//! handle: every recording call is one branch — no clock reads, no
//! allocation, no thread-local access, no locks. The solve hot paths stay
//! exactly as fast as before the instrumentation (asserted by the
//! `zero_cost` integration test with a counting allocator, and by the E12
//! overhead experiment).
//!
//! # Artifacts
//!
//! [`Tracer::snapshot`] freezes the collected data into a
//! [`TraceSnapshot`]; [`report`] renders it as a human-readable profile
//! summary and as machine-readable `trace.jsonl` / `profile.json`
//! artifacts, and parses the JSONL back for post-hoc reconstruction.
//! [`json`] is the workspace's one JSON module: its string writer and
//! parser serve every crate that writes or reads JSON.

pub mod json;
pub mod report;

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Configuration of a [`Tracer`]. `Copy`, so it can ride along in the
/// engines' option structs (e.g. `SequentialOptions`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceConfig {
    /// Master switch. Off means [`Tracer::new`] returns the disabled
    /// (zero-cost) tracer regardless of the other fields.
    pub enabled: bool,
    /// Record structured events (the `trace.jsonl` stream).
    pub events: bool,
    /// Record span timings (the `profile.json` tree).
    pub profile: bool,
    /// Event-log bound: once reached, further events are counted as
    /// dropped instead of stored, so a pathological run cannot exhaust
    /// memory through its own diagnostics.
    pub max_events: usize,
}

impl TraceConfig {
    /// Everything off (the default of every engine).
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            events: false,
            profile: false,
            max_events: 0,
        }
    }

    /// Events and profiling on, with the default event bound.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            events: true,
            profile: true,
            max_events: 1 << 16,
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

/// A typed field value of an [`Event`]. Text is `Cow` so emission sites
/// with static strings pay no allocation.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// Unsigned counter-like value.
    U64(u64),
    /// Signed value.
    I64(i64),
    /// Floating-point value (milliseconds, ratios, …).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text (property names, verdicts, …).
    Str(Cow<'static, str>),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(Cow::Borrowed(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Cow::Owned(v))
    }
}

/// One structured event of the bounded log.
#[derive(Clone, PartialEq, Debug)]
pub struct Event {
    /// Sequence number from one atomic counter: globally unique and
    /// strictly monotone within each thread (a thread's later events always
    /// carry larger numbers than its earlier ones).
    pub seq: u64,
    /// Compact per-process thread id (assigned on first use, not the OS id).
    pub thread: u64,
    /// Microseconds since the tracer was created.
    pub t_us: u64,
    /// Event kind (`solver_restart`, `pdr_obligation`, `span_enter`, …).
    pub kind: Cow<'static, str>,
    /// Typed payload fields, in emission order.
    pub fields: Vec<(Cow<'static, str>, Value)>,
}

impl Event {
    /// The value of field `name`, if present.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields
            .iter()
            .find(|(n, _)| n.as_ref() == name)
            .map(|(_, v)| v)
    }
}

/// Typed metric consumer: the common vocabulary `SolverStats`, `BmcStats`
/// and `PdrStats` are unified behind (each implements an `emit` into a
/// `MetricSink`). [`Tracer`] is the standard sink; tests provide their own.
pub trait MetricSink {
    /// Adds `delta` to the counter `name` (creating it at zero).
    fn counter(&self, name: &str, delta: u64);
    /// Sets the gauge `name` to `value` (last write wins).
    fn gauge(&self, name: &str, value: f64);
}

/// Accumulated time of one span path.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct SpanStat {
    total_ns: u64,
    count: u64,
}

#[derive(Default)]
struct EventLog {
    events: Vec<Event>,
    dropped: u64,
}

struct Core {
    config: TraceConfig,
    epoch: Instant,
    seq: AtomicU64,
    events: Mutex<EventLog>,
    /// Profile tree, flattened: span path → accumulated stat. Paths merge
    /// across threads (the tree is re-nested by prefix at render time).
    profile: Mutex<BTreeMap<Vec<&'static str>, SpanStat>>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
}

static THREAD_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Per-thread span-profile buffer: span drops accumulate here without
/// touching the shared core (a PDR run closes thousands of `sat.solve`
/// spans — a global lock per close would eat the overhead budget). The
/// buffer merges into its core when the thread's outermost span closes,
/// when a span of a *different* core is recorded, and at thread exit (the
/// TLS destructor) — so a snapshot taken after a thread's root span has
/// closed (or the thread has been joined) sees its full profile.
struct LocalProfile {
    core: Weak<Core>,
    /// Cheap identity of `core` for the per-drop "same core?" check.
    core_ptr: *const Core,
    stats: BTreeMap<Vec<&'static str>, SpanStat>,
}

impl LocalProfile {
    fn flush(&mut self) {
        if self.stats.is_empty() {
            return;
        }
        if let Some(core) = self.core.upgrade() {
            let mut profile = core.profile.lock().expect("profile lock");
            for (path, stat) in std::mem::take(&mut self.stats) {
                let slot = profile.entry(path).or_default();
                slot.total_ns += stat.total_ns;
                slot.count += stat.count;
            }
        } else {
            // The tracer is gone; the measurements have no home.
            self.stats.clear();
        }
    }
}

impl Drop for LocalProfile {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    /// Compact per-process thread id, assigned on first traced activity.
    static THREAD_ID: u64 = THREAD_COUNTER.fetch_add(1, Ordering::Relaxed);
    /// Logical worker id of this thread (a worker pool's), stamped onto
    /// every recorded event as a trailing `worker` field. See
    /// [`set_worker`].
    static WORKER_ID: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
    /// The current span nesting of this thread (shared by all tracers; a
    /// guard only ever pops the name it pushed, so interleaved tracers
    /// stay consistent).
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// See [`LocalProfile`].
    static LOCAL_PROFILE: RefCell<Option<LocalProfile>> = const { RefCell::new(None) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// Declares the current thread a logical worker of a pool (`ipcl-serve`
/// tags its worker threads): until cleared with `set_worker(None)`, every
/// event this thread records (through any tracer) carries a trailing
/// `worker` field with the given id. Thread ids already distinguish event
/// streams, but they are assigned in first-use order and so differ run to
/// run; the worker id is the stable scheduler-level identity.
pub fn set_worker(id: Option<u64>) {
    WORKER_ID.with(|w| w.set(id));
}

fn worker_id() -> Option<u64> {
    WORKER_ID.with(|w| w.get())
}

/// A cheap cloneable tracing handle. See the crate docs.
#[derive(Clone, Default)]
pub struct Tracer {
    core: Option<Arc<Core>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.core {
            None => write!(f, "Tracer(disabled)"),
            Some(core) => write!(f, "Tracer({:?})", core.config),
        }
    }
}

impl Tracer {
    /// The zero-cost disabled tracer (every recording call is one branch).
    pub fn disabled() -> Self {
        Tracer { core: None }
    }

    /// Builds a tracer for `config` (disabled when `config.enabled` is off).
    pub fn new(config: TraceConfig) -> Self {
        if !config.enabled {
            return Tracer::disabled();
        }
        Tracer {
            core: Some(Arc::new(Core {
                config,
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                events: Mutex::new(EventLog::default()),
                profile: Mutex::new(BTreeMap::new()),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Whether any recording is active.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Opens a scoped wall-clock span; timing is recorded (and a
    /// `span_enter`/`span_exit` event pair emitted, when events are on)
    /// when the returned guard drops. Nesting is per thread.
    #[must_use = "a span measures until its guard is dropped"]
    pub fn span(&self, name: &'static str) -> Span {
        self.span_impl(name, true)
    }

    /// As [`Tracer::span`], but never emits `span_enter`/`span_exit`
    /// events — only the profile timing is recorded. For high-frequency
    /// spans (a PDR run issues thousands of `sat.solve` calls) where
    /// per-span events would dominate the event log and the overhead
    /// budget; the span still nests normally in the profile tree.
    #[must_use = "a span measures until its guard is dropped"]
    pub fn span_fast(&self, name: &'static str) -> Span {
        self.span_impl(name, false)
    }

    fn span_impl(&self, name: &'static str, with_events: bool) -> Span {
        let Some(core) = &self.core else {
            return Span { active: None };
        };
        let with_events = with_events && core.config.events;
        if !core.config.profile && !with_events {
            return Span { active: None };
        }
        SPAN_STACK.with(|stack| stack.borrow_mut().push(name));
        if with_events {
            self.push_event(
                core,
                "span_enter",
                &[("name", Value::Str(Cow::Borrowed(name)))],
            );
        }
        Span {
            active: Some(ActiveSpan {
                core: Arc::clone(core),
                name,
                start: Instant::now(),
                with_events,
            }),
        }
    }

    /// Records one structured event (bounded; see
    /// [`TraceConfig::max_events`]).
    pub fn event(&self, kind: &'static str, fields: &[(&'static str, Value)]) {
        let Some(core) = &self.core else { return };
        if !core.config.events {
            return;
        }
        self.push_event(core, kind, fields);
    }

    fn push_event(&self, core: &Core, kind: &'static str, fields: &[(&'static str, Value)]) {
        let fields: Vec<(Cow<'static, str>, Value)> = fields
            .iter()
            .map(|(n, v)| (Cow::Borrowed(*n), v.clone()))
            .collect();
        self.push_event_owned(core, kind, fields);
    }

    fn push_event_owned(
        &self,
        core: &Core,
        kind: &'static str,
        mut fields: Vec<(Cow<'static, str>, Value)>,
    ) {
        if let Some(worker) = worker_id() {
            fields.push((Cow::Borrowed("worker"), Value::U64(worker)));
        }
        let seq = core.seq.fetch_add(1, Ordering::Relaxed);
        let event = Event {
            seq,
            thread: thread_id(),
            t_us: core.epoch.elapsed().as_micros() as u64,
            kind: Cow::Borrowed(kind),
            fields,
        };
        let mut log = core.events.lock().expect("event log lock");
        if log.events.len() >= core.config.max_events {
            log.dropped += 1;
        } else {
            log.events.push(event);
        }
    }

    /// The number of events currently stored (0 for a disabled tracer).
    pub fn event_count(&self) -> usize {
        match &self.core {
            None => 0,
            Some(core) => core.events.lock().expect("event log lock").events.len(),
        }
    }

    /// Whether event recording is active (false for a disabled tracer and
    /// for a profile-only configuration).
    pub fn events_enabled(&self) -> bool {
        self.core.as_ref().is_some_and(|core| core.config.events)
    }

    /// Copies out the stored events with `seq >= seq_floor`, without
    /// freezing a full snapshot. This is the live-progress poll path (a
    /// `--watch` renderer calls it a few times per second): the caller
    /// tracks the highest sequence number it has seen and passes
    /// `last + 1`. Returns an empty vector for a disabled tracer.
    ///
    /// Sequence numbers are assigned before the log lock is taken, so a
    /// concurrent writer's event may briefly be missing from one poll and
    /// appear in the next with a smaller number than the floor — harmless
    /// for progress display, which only renders the latest beat per
    /// engine.
    pub fn events_since(&self, seq_floor: u64) -> Vec<Event> {
        match &self.core {
            None => Vec::new(),
            Some(core) => core
                .events
                .lock()
                .expect("event log lock")
                .events
                .iter()
                .filter(|event| event.seq >= seq_floor)
                .cloned()
                .collect(),
        }
    }

    /// Freezes the collected data. The tracer stays usable afterwards (the
    /// snapshot is a copy).
    pub fn snapshot(&self) -> Option<TraceSnapshot> {
        let core = self.core.as_ref()?;
        let log = core.events.lock().expect("event log lock");
        let profile = core.profile.lock().expect("profile lock");
        let spans = profile
            .iter()
            .map(|(path, stat)| SpanProfile {
                path: path.iter().map(|s| (*s).to_owned()).collect(),
                total_us: stat.total_ns / 1_000,
                count: stat.count,
            })
            .collect();
        Some(TraceSnapshot {
            config: core.config,
            wall_us: core.epoch.elapsed().as_micros() as u64,
            spans,
            counters: core.counters.lock().expect("counter lock").clone(),
            gauges: core.gauges.lock().expect("gauge lock").clone(),
            events: log.events.clone(),
            dropped_events: log.dropped,
        })
    }
}

impl MetricSink for Tracer {
    fn counter(&self, name: &str, delta: u64) {
        let Some(core) = &self.core else { return };
        let mut counters = core.counters.lock().expect("counter lock");
        match counters.get_mut(name) {
            Some(slot) => *slot += delta,
            None => {
                counters.insert(name.to_owned(), delta);
            }
        }
    }

    fn gauge(&self, name: &str, value: f64) {
        let Some(core) = &self.core else { return };
        let mut gauges = core.gauges.lock().expect("gauge lock");
        gauges.insert(name.to_owned(), value);
    }
}

/// Rate limiter for periodic `heartbeat` events emitted from inside the
/// engines' hot loops (BMC depth reached, PDR obligation-queue depth,
/// solver conflicts since the last beat), so a long-running proof is
/// observable while in flight instead of a silent black box.
///
/// Usage: hold one per engine run and guard the emission site with
/// [`Heartbeat::due`]. The first call after construction is always due
/// (every traced run emits at least one beat, however short), later calls
/// are due once per interval. When the tracer is disabled — or events are
/// off — `due` is a branch or two with **no clock read**, preserving the
/// zero-cost contract of the disabled path.
#[derive(Clone, Debug)]
pub struct Heartbeat {
    interval: Duration,
    last: Option<Instant>,
}

impl Heartbeat {
    /// A heartbeat firing at most once per `interval`.
    pub fn new(interval: Duration) -> Self {
        Heartbeat {
            interval,
            last: None,
        }
    }

    /// A heartbeat firing at most once per `ms` milliseconds.
    pub fn every_ms(ms: u64) -> Self {
        Heartbeat::new(Duration::from_millis(ms))
    }

    /// Whether a beat is due now. `false` (without reading the clock) when
    /// `tracer` does not record events; otherwise true on the first call
    /// and thereafter once per interval. A `true` return arms the next
    /// interval — call it only when about to emit.
    pub fn due(&mut self, tracer: &Tracer) -> bool {
        if !tracer.events_enabled() {
            return false;
        }
        let now = Instant::now();
        match self.last {
            Some(prev) if now.duration_since(prev) < self.interval => false,
            _ => {
                self.last = Some(now);
                true
            }
        }
    }
}

struct ActiveSpan {
    core: Arc<Core>,
    name: &'static str,
    start: Instant,
    with_events: bool,
}

/// Guard of one open span (see [`Tracer::span`]).
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let elapsed = active.start.elapsed();
        // Guards drop in LIFO order within a thread, so the top of the
        // stack is ours and the current stack *is* this span's full path.
        // Record before popping, looking the path up by slice so the steady
        // state (path already known) allocates nothing.
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            debug_assert_eq!(stack.last().copied(), Some(active.name));
            if active.core.config.profile {
                LOCAL_PROFILE.with(|lp| {
                    let mut lp = lp.borrow_mut();
                    let core_ptr = Arc::as_ptr(&active.core);
                    if lp.as_ref().is_none_or(|local| local.core_ptr != core_ptr) {
                        if let Some(old) = lp.as_mut() {
                            old.flush();
                        }
                        *lp = Some(LocalProfile {
                            core: Arc::downgrade(&active.core),
                            core_ptr,
                            stats: BTreeMap::new(),
                        });
                    }
                    let local = lp.as_mut().expect("just ensured");
                    // The stack still includes our own name, so it *is*
                    // this span's full path; the slice lookup keeps the
                    // steady state allocation-free.
                    match local.stats.get_mut(stack.as_slice()) {
                        Some(stat) => {
                            stat.total_ns += elapsed.as_nanos() as u64;
                            stat.count += 1;
                        }
                        None => {
                            local.stats.insert(
                                stack.clone(),
                                SpanStat {
                                    total_ns: elapsed.as_nanos() as u64,
                                    count: 1,
                                },
                            );
                        }
                    }
                    if stack.len() == 1 {
                        // Outermost span of this thread: publish.
                        local.flush();
                    }
                });
            }
            stack.pop();
        });
        if active.with_events {
            let tracer = Tracer {
                core: Some(Arc::clone(&active.core)),
            };
            tracer.push_event(
                &active.core,
                "span_exit",
                &[
                    ("name", Value::Str(Cow::Borrowed(active.name))),
                    ("us", Value::U64(elapsed.as_micros() as u64)),
                ],
            );
        }
    }
}

/// Accumulated timing of one span path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpanProfile {
    /// The span path from the thread's root span down (`["bmc.check",
    /// "bmc.solve", "sat.solve"]`).
    pub path: Vec<String>,
    /// Total wall time spent inside this exact path, microseconds.
    pub total_us: u64,
    /// Number of completed spans at this path.
    pub count: u64,
}

impl SpanProfile {
    /// The path rendered as `a / b / c`.
    pub fn path_string(&self) -> String {
        self.path.join(" / ")
    }
}

/// A frozen copy of everything a tracer collected.
#[derive(Clone, Debug)]
pub struct TraceSnapshot {
    /// The configuration the tracer ran with.
    pub config: TraceConfig,
    /// Microseconds from tracer creation to the snapshot.
    pub wall_us: u64,
    /// Flattened profile tree, sorted by path.
    pub spans: Vec<SpanProfile>,
    /// Accumulated counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// The bounded event log, in sequence order of arrival.
    pub events: Vec<Event>,
    /// Events discarded after [`TraceConfig::max_events`] was reached.
    pub dropped_events: u64,
}

impl TraceSnapshot {
    /// The profile entry at exactly `path`, if recorded. The lookup the
    /// export/diff consumers (`ipcl-tracetool`) lean on.
    pub fn span(&self, path: &[&str]) -> Option<&SpanProfile> {
        self.spans
            .iter()
            .find(|s| s.path.len() == path.len() && s.path.iter().zip(path).all(|(a, b)| a == b))
    }

    /// Total microseconds of the root spans (paths of length 1) — the
    /// portion of the run covered by the profile tree. With concurrent
    /// threads each contributing a root, this may exceed `wall_us`.
    pub fn root_span_us(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.path.len() == 1)
            .map(|s| s.total_us)
            .sum()
    }

    /// `total_us` minus the children's `total_us` of the span at `path` —
    /// the time spent in the span itself.
    pub fn self_us(&self, path: &[String]) -> u64 {
        let total = self
            .spans
            .iter()
            .find(|s| s.path == path)
            .map(|s| s.total_us)
            .unwrap_or(0);
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.path.len() == path.len() + 1 && s.path[..path.len()] == *path)
            .map(|s| s.total_us)
            .sum();
        total.saturating_sub(children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        {
            let _span = tracer.span("a");
            tracer.event("ev", &[("x", Value::U64(1))]);
            tracer.counter("c", 3);
            tracer.gauge("g", 1.0);
        }
        assert_eq!(tracer.event_count(), 0);
        assert!(tracer.snapshot().is_none());
    }

    #[test]
    fn worker_tag_is_appended_per_thread_and_cleared() {
        let tracer = Tracer::new(TraceConfig::enabled());
        tracer.event("untagged", &[("x", Value::U64(1))]);
        set_worker(Some(3));
        tracer.event("tagged", &[("x", Value::U64(2))]);
        set_worker(None);
        tracer.event("untagged_again", &[]);
        // Another thread's tag does not leak into this one.
        std::thread::scope(|scope| {
            let tracer = &tracer;
            scope.spawn(move || {
                set_worker(Some(7));
                tracer.event("other_thread", &[]);
            });
        });
        let snapshot = tracer.snapshot().unwrap();
        let field = |kind: &str| {
            snapshot
                .events
                .iter()
                .find(|e| e.kind == kind)
                .expect(kind)
                .field("worker")
                .cloned()
        };
        assert_eq!(field("untagged"), None);
        assert_eq!(field("tagged"), Some(Value::U64(3)));
        assert_eq!(field("untagged_again"), None);
        assert_eq!(field("other_thread"), Some(Value::U64(7)));
    }

    #[test]
    fn disabled_config_yields_disabled_tracer() {
        assert!(!Tracer::new(TraceConfig::disabled()).is_enabled());
        assert!(Tracer::new(TraceConfig::enabled()).is_enabled());
    }

    #[test]
    fn spans_nest_into_a_path_keyed_profile() {
        let tracer = Tracer::new(TraceConfig::enabled());
        {
            let _outer = tracer.span("outer");
            for _ in 0..3 {
                let _inner = tracer.span("inner");
            }
        }
        let snapshot = tracer.snapshot().unwrap();
        let outer = snapshot
            .spans
            .iter()
            .find(|s| s.path == ["outer"])
            .expect("outer span recorded");
        assert_eq!(outer.count, 1);
        let inner = snapshot
            .spans
            .iter()
            .find(|s| s.path == ["outer", "inner"])
            .expect("inner span nested under outer");
        assert_eq!(inner.count, 3);
        assert!(outer.total_us >= inner.total_us);
        assert_eq!(
            snapshot.self_us(&["outer".to_owned()]) + inner.total_us,
            outer.total_us
        );
    }

    #[test]
    fn events_are_bounded_and_count_drops() {
        let tracer = Tracer::new(TraceConfig {
            max_events: 4,
            ..TraceConfig::enabled()
        });
        for i in 0..10u64 {
            tracer.event("tick", &[("i", Value::U64(i))]);
        }
        let snapshot = tracer.snapshot().unwrap();
        assert_eq!(snapshot.events.len(), 4);
        assert_eq!(snapshot.dropped_events, 6);
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let tracer = Tracer::new(TraceConfig::enabled());
        tracer.counter("sat.conflicts", 2);
        tracer.counter("sat.conflicts", 3);
        tracer.gauge("depth", 1.0);
        tracer.gauge("depth", 7.0);
        let snapshot = tracer.snapshot().unwrap();
        assert_eq!(snapshot.counters["sat.conflicts"], 5);
        assert_eq!(snapshot.gauges["depth"], 7.0);
    }

    #[test]
    fn sequence_numbers_are_strictly_monotone_per_thread() {
        let tracer = Tracer::new(TraceConfig::enabled());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    for i in 0..200u64 {
                        tracer.event("tick", &[("t", Value::U64(t)), ("i", Value::U64(i))]);
                    }
                });
            }
        });
        let snapshot = tracer.snapshot().unwrap();
        assert_eq!(snapshot.events.len(), 800);
        let mut last: BTreeMap<u64, u64> = BTreeMap::new();
        let mut by_thread: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for event in &snapshot.events {
            by_thread.entry(event.thread).or_default().push(event.seq);
        }
        assert_eq!(by_thread.len(), 4, "four distinct thread ids");
        for (thread, seqs) in by_thread {
            for seq in seqs {
                if let Some(prev) = last.get(&thread) {
                    assert!(seq > *prev, "thread {thread}: {seq} after {prev}");
                }
                last.insert(thread, seq);
            }
        }
    }

    #[test]
    fn events_since_filters_by_sequence_number() {
        let tracer = Tracer::new(TraceConfig::enabled());
        for i in 0..5u64 {
            tracer.event("tick", &[("i", Value::U64(i))]);
        }
        let all = tracer.events_since(0);
        assert_eq!(all.len(), 5);
        let tail = tracer.events_since(all[3].seq);
        assert_eq!(tail.len(), 2);
        assert!(Tracer::disabled().events_since(0).is_empty());
    }

    #[test]
    fn snapshot_span_lookup_finds_exact_paths() {
        let tracer = Tracer::new(TraceConfig::enabled());
        {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
        }
        let snapshot = tracer.snapshot().unwrap();
        assert!(snapshot.span(&["outer"]).is_some());
        assert!(snapshot.span(&["outer", "inner"]).is_some());
        assert!(snapshot.span(&["inner"]).is_none());
    }

    #[test]
    fn heartbeat_fires_immediately_then_rate_limits() {
        let tracer = Tracer::new(TraceConfig::enabled());
        let mut beat = Heartbeat::new(Duration::from_secs(3600));
        assert!(beat.due(&tracer), "first call is always due");
        assert!(!beat.due(&tracer), "second call inside the interval");
        let mut eager = Heartbeat::new(Duration::ZERO);
        assert!(eager.due(&tracer));
        assert!(eager.due(&tracer), "zero interval is always due");
    }

    #[test]
    fn heartbeat_is_never_due_without_event_recording() {
        let mut beat = Heartbeat::every_ms(0);
        assert!(!beat.due(&Tracer::disabled()));
        let profile_only = Tracer::new(TraceConfig {
            events: false,
            ..TraceConfig::enabled()
        });
        assert!(!beat.due(&profile_only));
        assert!(beat.last.is_none(), "no clock read on the disabled path");
    }

    #[test]
    fn metric_sink_is_object_safe() {
        let tracer = Tracer::new(TraceConfig::enabled());
        let sink: &dyn MetricSink = &tracer;
        sink.counter("n", 1);
        sink.gauge("g", 0.5);
        assert_eq!(tracer.snapshot().unwrap().counters["n"], 1);
    }
}
