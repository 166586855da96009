//! The measurement machinery shared by every workload: the benchmark's own
//! spans, the closed-loop timed phase, set-up timing, the watchdog,
//! percentiles, peak RSS and the result line. Every time it reports is
//! scaled to the reference speed by the host-speed gauge (`gauge.rs`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::process;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::gauge::Gauge;

/// Longest a set-up or a tear-down may take before the watchdog gives the
/// run up.
const SETUP_DEADLINE: Duration = Duration::from_secs(30);

/// Longest one op, with its checks and layer calls, may take before the
/// watchdog gives the run up. The slowest op takes well under 0.1 s.
const OP_DEADLINE: Duration = Duration::from_secs(10);

/// Spans that split an op itself rather than re-measure a layer beneath
/// it: they are left out of an op's layer sum.
const OP_PARTS: [&str; 3] = ["serve.submit", "serve.wait", "serve.batch_submit"];

/// One timed call, recorded by the benchmark around a public entry point.
struct Span {
    op: usize,
    layer: &'static str,
    start: Duration,
    length: Duration,
}

impl Span {
    /// The call's time at the reference speed, in ms.
    fn scaled_ms(&self, gauge: &Gauge) -> f64 {
        self.length.as_secs_f64() * 1e3 * gauge.scale(self.start)
    }
}

/// The benchmark's own tracer: spans and counts kept in memory, keyed by
/// the op that caused them. A disabled tracer records nothing and only
/// calls through, so the untraced run times exactly the same code.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    op: usize,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// A tracer whose span starts count from `epoch`.
    fn new(enabled: bool, epoch: Instant) -> Spans {
        Spans {
            enabled,
            epoch,
            op: 0,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Spans {
        Spans::new(false, Instant::now())
    }

    /// Runs `f`, recording it as a span of `layer` when enabled.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let value = f();
        let length = start.elapsed();
        self.spans.push(Span {
            op: self.op,
            layer,
            start: start - self.epoch,
            length,
        });
        value
    }

    /// Adds `n` to the count `name` when enabled.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += n;
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }
}

/// What one op reports back to the phase loop.
pub struct Op {
    /// Host time of the op itself: the entry point's call, nothing else.
    pub time: Duration,
    /// Whether the op returned its known answer.
    pub correct: bool,
}

/// A workload after set-up: a fixed sequence of ops.
pub trait Workload {
    /// Number of ops in the timed phase.
    fn len(&self) -> usize;
    /// Runs op `index`: times the entry point, checks the answer, and with
    /// an enabled tracer times the per-layer calls on the same inputs.
    fn op(&mut self, index: usize, spans: &mut Spans) -> Op;
    /// A short label of op `index`'s input, for the span file.
    fn label(&self, index: usize) -> String;
    /// Counts read from the program at the end of a phase (serve's cache
    /// statistics); the checker workloads have none.
    fn finish(&mut self, _spans: &mut Spans) {}
    /// Peak RSS in MiB, when the workload reads it at a point of its own
    /// rather than at the end of the phase.
    fn peak_rss_mb(&self) -> Option<f64> {
        None
    }
}

/// The run's progress, shared with the watchdog thread.
struct Progress {
    /// When the step running now must have ended; `None` once the run is
    /// over.
    deadline: Option<Instant>,
    /// Ops the run attempts, over all its phases.
    planned: u64,
    done: u64,
    failed: u64,
}

/// Ends a run that stops making progress. A job lost with a panicking
/// server worker leaves `Client::wait` blocked for good, and an engine call
/// that never returns cannot be interrupted. If a step outlives its
/// deadline, the watchdog prints the result line, with every op not done
/// counted as failed and every metric at 0, and ends the process.
struct Watchdog {
    shared: Arc<(Mutex<Progress>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Starts watching a run of `planned` ops that reports `metrics`, with
    /// the first set-up under way.
    fn start(planned: u64, metrics: &'static [(&'static str, &'static str)]) -> Watchdog {
        let shared = Arc::new((
            Mutex::new(Progress {
                deadline: Some(Instant::now() + SETUP_DEADLINE),
                planned,
                done: 0,
                failed: 0,
            }),
            Condvar::new(),
        ));
        let watched = Arc::clone(&shared);
        let thread = thread::spawn(move || {
            let (progress, wake) = &*watched;
            let mut progress = progress.lock().expect("progress lock");
            while let Some(deadline) = progress.deadline {
                let now = Instant::now();
                if now < deadline {
                    progress = wake
                        .wait_timeout(progress, deadline - now)
                        .expect("progress lock")
                        .0;
                    continue;
                }
                let report = Report {
                    attempted: progress.planned,
                    failed: progress.planned - progress.done + progress.failed,
                    metrics: metrics
                        .iter()
                        .map(|&(name, unit)| (name, 0.0, unit))
                        .collect(),
                };
                println!("{}", report.to_json());
                eprintln!("ipcl-perfbench: a step outlived its deadline; the run is given up");
                process::exit(0);
            }
        });
        Watchdog {
            shared,
            thread: Some(thread),
        }
    }

    fn progress(&self) -> MutexGuard<'_, Progress> {
        self.shared.0.lock().expect("progress lock")
    }

    /// The next step must end within `budget`.
    fn arm(&self, budget: Duration) {
        self.progress().deadline = Some(Instant::now() + budget);
    }

    /// An op ended.
    fn done(&self, correct: bool) {
        let mut progress = self.progress();
        progress.done += 1;
        progress.failed += u64::from(!correct);
    }

    /// The run is over: the watchdog stands down.
    fn stop(mut self) {
        self.progress().deadline = None;
        self.shared.1.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The op times and failures of one timed phase.
struct Phase {
    /// Host time of each op, in ms.
    times_ms: Vec<f64>,
    /// When each op started, since the epoch.
    starts: Vec<Duration>,
    failed: u64,
}

impl Phase {
    /// Each op's time at the reference speed, in ms.
    fn scaled_ms(&self, gauge: &Gauge) -> Vec<f64> {
        self.times_ms
            .iter()
            .zip(&self.starts)
            .map(|(ms, &at)| ms * gauge.scale(at))
            .collect()
    }
}

/// Runs every op of `workload` once, in order, with a gauge sample after an
/// op whenever one is due.
fn run_phase(
    workload: &mut dyn Workload,
    spans: &mut Spans,
    gauge: &mut Gauge,
    watchdog: &Watchdog,
) -> Phase {
    let len = workload.len();
    let mut phase = Phase {
        times_ms: Vec::with_capacity(len),
        starts: Vec::with_capacity(len),
        failed: 0,
    };
    for index in 0..len {
        spans.op = index;
        watchdog.arm(OP_DEADLINE);
        let op_start = Instant::now();
        // A panic fails the op, and the run goes on.
        let op = panic::catch_unwind(AssertUnwindSafe(|| workload.op(index, spans)))
            .unwrap_or_else(|_| Op {
                time: op_start.elapsed(),
                correct: false,
            });
        phase.times_ms.push(op.time.as_secs_f64() * 1e3);
        phase.starts.push(op_start - spans.epoch);
        phase.failed += u64::from(!op.correct);
        watchdog.done(op.correct);
        gauge.tick();
    }
    watchdog.arm(SETUP_DEADLINE);
    workload.finish(spans);
    phase
}

/// The value at quantile `q` (nearest rank) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Keeps the calling thread, and every thread it starts from then on, on
/// one CPU: the last it may use. The gauge then reads the speed of the CPU
/// the ops run on. In `serve-mix` a request hops between four threads
/// (client, connection, worker, and back); on a KVM guest a hop to an idle
/// vCPU waits until the host runs it, and unpinned that workload slowed
/// down far more than the checker workloads whenever the host was busy.
pub fn pin_to_one_cpu() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        /// glibc's `cpu_set_t`: a mask of 1024 CPUs.
        #[repr(C)]
        struct CpuSet([u64; 16]);
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
        }
        let size = std::mem::size_of::<CpuSet>();
        let mut allowed = CpuSet([0; 16]);
        // SAFETY: `allowed` is a writable `cpu_set_t` of `size` bytes.
        if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
            return;
        }
        let Some(word) = allowed.0.iter().rposition(|&bits| bits != 0) else {
            return;
        };
        let mut last = CpuSet([0; 16]);
        last.0[word] = 1 << (63 - allowed.0[word].leading_zeros());
        // SAFETY: `last` is a readable `cpu_set_t` of `size` bytes.
        unsafe {
            sched_setaffinity(0, size, &last);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics every untraced run prints, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer that does not run on a workload reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("bmc.property_ms", "ms"),
    ("bmc.clauses", "count"),
    ("bmc.solve_calls", "count"),
    ("bmc.conflicts", "count"),
    ("bmc.propagations", "count"),
    ("bmc.depth", "count"),
    ("bitsim.sweep_ms", "ms"),
    ("rtl.replay_ms", "ms"),
    ("rtl.replays", "count"),
    ("bmc.stall_escape_ms", "ms"),
    ("pdr.property_ms", "ms"),
    ("pdr.clauses", "count"),
    ("pdr.solve_calls", "count"),
    ("pdr.conflicts", "count"),
    ("pdr.propagations", "count"),
    ("pdr.frames", "count"),
    ("pdr.validate_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.batch_submit_ms", "ms"),
    ("serve.presolved", "count"),
    ("serve.presolve_ratio", "ratio"),
    ("serve.cache_key_ms", "ms"),
    ("serve.revalidate_ms", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.revalidation_failures", "count"),
    ("serve.evictions", "count"),
    ("serve.hit_ratio", "ratio"),
    ("trace.op_ms_p50", "ms"),
    ("trace.layers_ms_p50", "ms"),
    ("trace.untraced_op_ms_p50", "ms"),
    ("trace.overhead_ms", "ms"),
    ("host.gauge_ms", "ms"),
];

/// The result line: the contract's four keys.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Runs one benchmark invocation of `ops` ops per phase: a set-up timed
/// from process start, the untraced timed phase, and with `trace` a traced
/// phase on a fresh set-up whose spans go to `span_file`. One gauge runs
/// from the end of the first set-up to the end of the run.
pub fn run<W: Workload>(
    process_start: Instant,
    ops: usize,
    trace: bool,
    span_file: Option<&Path>,
    mut setup: impl FnMut() -> W,
) -> Report {
    let (phases, metrics): (u64, &'static [_]) = if trace {
        (2, &PER_LAYER)
    } else {
        (1, &END_TO_END)
    };
    let watchdog = Watchdog::start(ops as u64 * phases, metrics);
    let mut workload = setup();
    let setup_end = process_start.elapsed();
    let mut gauge = Gauge::new(process_start);
    gauge.warm_up();
    let untraced = run_phase(
        &mut workload,
        &mut Spans::new(false, process_start),
        &mut gauge,
        &watchdog,
    );
    let attempted = workload.len() as u64;
    let peak_rss = workload.peak_rss_mb().unwrap_or_else(peak_rss_mb) - gauge.resident_mb();
    drop(workload);
    let untraced_ms = untraced.scaled_ms(&gauge);

    if !trace {
        watchdog.stop();
        let busy_s = untraced_ms.iter().sum::<f64>() / 1e3;
        return Report {
            attempted,
            failed: untraced.failed,
            metrics: vec![
                ("op_ms_p50", quantile(&untraced_ms, 0.5), "ms"),
                ("op_ms_p90", quantile(&untraced_ms, 0.9), "ms"),
                ("ops_per_s", untraced_ms.len() as f64 / busy_s, "1/s"),
                ("peak_rss_mb", peak_rss, "MiB"),
                (
                    "setup_s",
                    setup_end.as_secs_f64() * gauge.scale(setup_end),
                    "s",
                ),
            ],
        };
    }

    watchdog.arm(SETUP_DEADLINE);
    let mut workload = setup();
    let mut spans = Spans::new(true, process_start);
    let traced = run_phase(&mut workload, &mut spans, &mut gauge, &watchdog);
    let traced_ms = traced.scaled_ms(&gauge);
    let layer_ms = layer_sums(&spans, &gauge, workload.len());
    if let Some(path) = span_file {
        if let Err(error) = write_spans(path, &workload, &spans, &traced, &traced_ms, &layer_ms) {
            eprintln!(
                "ipcl-perfbench: could not write {}: {error}",
                path.display()
            );
        }
    }
    let traced_ops = workload.len();
    drop(workload);
    watchdog.stop();

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let ops = traced_ops as f64;
    for span in &spans.spans {
        let name = PER_LAYER
            .iter()
            .map(|(name, _)| *name)
            .find(|name| name.strip_suffix("_ms") == Some(span.layer));
        if let Some(name) = name {
            *values.entry(name).or_default() += span.scaled_ms(&gauge) / ops;
        }
    }
    for (name, count) in &spans.counts {
        values.insert(name, *count as f64);
    }
    let ratio = |num: &str, den: &str, values: &BTreeMap<&str, f64>| {
        let den = values.get(den).copied().unwrap_or(0.0);
        if den > 0.0 {
            values.get(num).copied().unwrap_or(0.0) / den
        } else {
            0.0
        }
    };
    values.insert(
        "serve.presolve_ratio",
        ratio("serve.presolved", "serve.batch_jobs", &values),
    );
    values.insert(
        "serve.hit_ratio",
        ratio("serve.hits", "serve.lookups", &values),
    );

    let traced_p50 = quantile(&traced_ms, 0.5);
    let untraced_p50 = quantile(&untraced_ms, 0.5);
    values.insert("trace.op_ms_p50", traced_p50);
    values.insert("trace.layers_ms_p50", quantile(&layer_ms, 0.5));
    values.insert("trace.untraced_op_ms_p50", untraced_p50);
    values.insert("trace.overhead_ms", traced_p50 - untraced_p50);
    values.insert("host.gauge_ms", gauge.median_ms());

    Report {
        attempted: attempted + traced_ops as u64,
        failed: untraced.failed + traced.failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
    }
}

/// Per op, the summed time at the reference speed of the layer calls that
/// re-measure its work.
fn layer_sums(spans: &Spans, gauge: &Gauge, ops: usize) -> Vec<f64> {
    let mut sums = vec![0.0; ops];
    for span in &spans.spans {
        if !OP_PARTS.contains(&span.layer) {
            sums[span.op] += span.scaled_ms(gauge);
        }
    }
    sums
}

/// Writes the traced run as JSON lines: one `op` row per op (its time
/// beside the sum of its layer calls, both at the reference speed, and the
/// gauge's scale factor), then every span as measured, in host time.
fn write_spans(
    path: &Path,
    workload: &dyn Workload,
    spans: &Spans,
    traced: &Phase,
    op_ms: &[f64],
    layer_ms: &[f64],
) -> std::io::Result<()> {
    let mut out = String::new();
    for (op, ((op_ms, layers_ms), host_ms)) in
        op_ms.iter().zip(layer_ms).zip(&traced.times_ms).enumerate()
    {
        writeln!(
            out,
            "{{\"op\": {op}, \"input\": \"{}\", \"op_ms\": {op_ms:.4}, \"layers_ms\": {layers_ms:.4}, \"scale\": {:.4}}}",
            workload.label(op),
            op_ms / host_ms
        )
        .expect("writing to a String cannot fail");
    }
    for span in &spans.spans {
        writeln!(
            out,
            "{{\"op\": {}, \"layer\": \"{}\", \"start_us\": {:.1}, \"us\": {:.1}}}",
            span.op,
            span.layer,
            span.start.as_secs_f64() * 1e6,
            span.length.as_secs_f64() * 1e6
        )
        .expect("writing to a String cannot fail");
    }
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, out)
}
