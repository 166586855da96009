//! Shared helpers for the experiment harness binaries and Criterion
//! benchmarks that regenerate the paper's figures and claims.
//!
//! Each experiment of `EXPERIMENTS.md` corresponds to one binary in
//! `src/bin/` (run with `cargo run -p ipcl-bench --bin <name>`); the
//! Criterion benchmarks in `benches/` cover the scaling/ablation studies.

use std::path::PathBuf;
use std::time::Duration;

use ipcl_core::fixpoint::derive_symbolic;
use ipcl_core::{ArchSpec, FunctionalSpec};
use ipcl_expr::{Cnf, Expr, Lit};
use ipcl_pipesim::{Machine, SimStats, WorkloadConfig};
use ipcl_trace::{report, TraceConfig, Tracer};
use ipcl_tracetool::Watcher;

/// Observability flags shared by the experiment binaries.
///
/// * `--trace <dir>` enables tracing and, at [`TraceArgs::finish`], writes
///   `trace.jsonl` (the structured event log) and `profile.json` (the span
///   profile + unified metrics) into `<dir>`;
/// * `--profile` enables tracing and prints the human-readable profile
///   summary to stderr (where it cannot corrupt the JSON on stdout);
/// * `--watch` enables tracing and redraws a live progress line on stderr
///   from the engines' `heartbeat` events while the run is in flight
///   ([`ipcl_tracetool::Watcher`]).
///
/// `--threads N` (a worker count; defaults to the host's available
/// parallelism) is exposed as [`TraceArgs::threads`] for the binaries that
/// size a worker pool.
///
/// Without any of the flags the returned tracer is the disabled
/// (zero-cost) one, so instrumented experiments measure the same code path
/// as before.
pub struct TraceArgs {
    /// Artifact directory of `--trace`, when given.
    pub dir: Option<PathBuf>,
    /// Whether `--profile` was given.
    pub profile: bool,
    /// Whether `--watch` was given.
    pub watch: bool,
    /// `--threads N`, defaulting to `std::thread::available_parallelism()`.
    /// `exp_serve_load` sizes the server's worker pool with it; the other
    /// experiments ignore it.
    pub threads: usize,
    tracer: Tracer,
    watcher: Option<Watcher>,
}

impl TraceArgs {
    /// Parses `--trace <dir>` / `--profile` / `--watch` / `--threads <N>`
    /// from the process arguments.
    pub fn from_env() -> TraceArgs {
        let args: Vec<String> = std::env::args().collect();
        let mut dir = None;
        let mut profile = false;
        let mut watch = false;
        let mut threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--trace" => {
                    dir = Some(PathBuf::from(args.get(i + 1).unwrap_or_else(|| {
                        panic!("--trace requires a directory argument")
                    })));
                    i += 1;
                }
                "--profile" => profile = true,
                "--watch" => watch = true,
                "--threads" => {
                    threads = args
                        .get(i + 1)
                        .and_then(|n| n.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| panic!("--threads requires a count ≥ 1"));
                    i += 1;
                }
                _ => {}
            }
            i += 1;
        }
        let tracer = if dir.is_some() || profile || watch {
            Tracer::new(TraceConfig::enabled())
        } else {
            Tracer::disabled()
        };
        let watcher = watch.then(|| Watcher::spawn(tracer.clone(), Duration::from_millis(100)));
        TraceArgs {
            dir,
            profile,
            watch,
            threads,
            tracer,
            watcher,
        }
    }

    /// The tracer to thread into the engines (disabled when no flag given).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Stops the watcher, writes the requested artifacts and prints the
    /// profile summary.
    ///
    /// # Panics
    ///
    /// When the `--trace` directory cannot be written.
    pub fn finish(mut self) {
        if let Some(watcher) = self.watcher.take() {
            watcher.stop();
        }
        let Some(snapshot) = self.tracer.snapshot() else {
            return;
        };
        if let Some(dir) = &self.dir {
            let (trace_path, profile_path) =
                report::write_artifacts(&snapshot, dir).expect("trace artifacts are writable");
            eprintln!(
                "trace artifacts: {} and {}",
                trace_path.display(),
                profile_path.display()
            );
        }
        if self.profile {
            eprint!("{}", report::render_profile(&snapshot));
        }
    }
}

/// Prints a `BENCH_*.json` document — the shared v1 header object wrapping
/// the experiment's measurement entries — to stdout.
///
/// Every experiment binary routes its output through this helper so the
/// artifacts carry a uniform schema for `ipcl-tracetool regress`:
/// `schema_version`, the experiment id, whether this was a `--smoke` run,
/// and the commit under measurement (`IPCL_COMMIT`, else the `GITHUB_SHA`
/// CI provides, else `null`).
///
/// `entries` are pre-rendered JSON objects, one per measurement point.
pub fn emit_bench_json(experiment: &str, smoke: bool, entries: &[String]) {
    let commit = std::env::var("IPCL_COMMIT")
        .or_else(|_| std::env::var("GITHUB_SHA"))
        .ok()
        .filter(|sha| !sha.is_empty() && sha.chars().all(|c| c.is_ascii_alphanumeric()));
    println!("{{");
    println!("\"schema_version\": 1,");
    println!("\"experiment\": \"{experiment}\",");
    println!("\"smoke\": {smoke},");
    match commit {
        Some(sha) => println!("\"commit\": \"{sha}\","),
        None => println!("\"commit\": null,"),
    }
    println!("\"entries\": [");
    println!("{}", entries.join(",\n"));
    println!("]");
    println!("}}");
}

/// The pigeonhole principle `PHP(n, n−1)` as CNF: `n` pigeons into `n − 1`
/// holes, unsatisfiable, and exponentially hard for resolution — the
/// classic pure-CDCL stress instance of the E11 solver experiment.
pub fn pigeonhole_cnf(pigeons: u32) -> Cnf {
    let holes = pigeons - 1;
    let var = |i: u32, j: u32| i * holes + j;
    let mut cnf = Cnf::new(pigeons * holes);
    for i in 0..pigeons {
        cnf.add_clause((0..holes).map(|j| Lit::positive(var(i, j))));
    }
    for j in 0..holes {
        for i1 in 0..pigeons {
            for i2 in (i1 + 1)..pigeons {
                cnf.add_clause([Lit::negative(var(i1, j)), Lit::negative(var(i2, j))]);
            }
        }
    }
    cnf
}

/// Median of a set of repeat timings, in whatever unit they were taken.
///
/// # Panics
///
/// On an empty or NaN-containing input.
pub fn median_ms(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times[times.len() / 2]
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table header with separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// The bug-injection matrix used by the assertion and property-checking
/// experiments: `(label, stage prefix, extra stall condition over the pool)`.
///
/// Each entry yields an over-conservative specification via
/// [`FunctionalSpec::augmented`]; deriving an interlock from it produces an
/// implementation with exactly one injected performance bug.
pub fn performance_bug_matrix(spec: &FunctionalSpec) -> Vec<(String, String, Expr)> {
    let pool = spec.pool();
    let mut bugs = Vec::new();
    if let Some(wait) = pool.lookup("op_is_wait") {
        bugs.push((
            "stall-exec-on-wait".to_owned(),
            spec.stages()
                .iter()
                .find(|s| s.stage.stage > 1)
                .map(|s| s.stage.prefix())
                .unwrap_or_default(),
            Expr::var(wait),
        ));
    }
    // Completion stages stall whenever *any* pipe requests the bus (ignoring
    // who won the grant).
    for stage in spec.stages() {
        if stage.rules.iter().any(|r| r.label == "completion-bus-lost") {
            if let Some(req) = pool.lookup(&format!("{}.req", stage.stage.pipe)) {
                bugs.push((
                    format!("stall-{}-on-any-request", stage.stage.prefix()),
                    stage.stage.prefix(),
                    Expr::var(req),
                ));
            }
        }
    }
    // Intermediate stages stall whenever they merely hold a valid
    // instruction (their `rtm` flag), regardless of whether the downstream
    // stage is free — the "no bubble collapse" class of performance bug.
    //
    // (Issue stages are deliberately not used here: a spurious stall of a
    // lock-step issue group is *mutually justified* by the lock-step rules
    // and therefore does not violate the per-stage Figure-3 performance
    // specification — see the cyclic-control caveat in DESIGN.md. Those bugs
    // are caught by comparison against the derived maximal assignment, which
    // the simulation experiments perform.)
    for stage in spec.stages() {
        let is_intermediate =
            stage.stage.stage > 1 && !stage.rules.iter().any(|r| r.label == "completion-bus-lost");
        if is_intermediate {
            if let Some(rtm) = pool.lookup(&stage.stage.rtm()) {
                bugs.push((
                    format!("stall-{}-whenever-valid", stage.stage.prefix()),
                    stage.stage.prefix(),
                    Expr::var(rtm),
                ));
            }
        }
    }
    bugs
}

/// Derives an over-conservative interlock implementation containing the given
/// injected bug.
pub fn buggy_implementation(
    spec: &FunctionalSpec,
    stage_prefix: &str,
    condition: Expr,
) -> std::collections::BTreeMap<ipcl_expr::VarId, Expr> {
    let stage = spec
        .stages()
        .iter()
        .find(|s| s.stage.prefix() == stage_prefix)
        .expect("bug matrix references declared stages")
        .stage
        .clone();
    let augmented = spec
        .augmented(&stage, "injected-performance-bug", condition)
        .expect("augmentation is well-formed");
    derive_symbolic(&augmented).moe
}

/// Runs one simulation of the example architecture and returns its
/// statistics.
pub fn simulate(
    arch: &ArchSpec,
    policy: Box<dyn ipcl_pipesim::InterlockPolicy>,
    packets: usize,
    dependence: f64,
    utilisation: f64,
    seed: u64,
) -> SimStats {
    let program = WorkloadConfig::for_arch(arch, utilisation)
        .with_packets(packets)
        .with_dependence_bias(dependence)
        .generate(seed);
    let mut machine = Machine::new(arch, policy).expect("architecture is well-formed");
    machine.run_program(&program, (packets as u64) * 200 + 10_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_checker::{check_moe_expressions, Engine, SpecDirection};
    use ipcl_pipesim::MaximalInterlock;

    #[test]
    fn bug_matrix_produces_performance_only_bugs() {
        let spec = ArchSpec::paper_example().functional_spec().unwrap();
        let bugs = performance_bug_matrix(&spec);
        assert!(bugs.len() >= 4);
        for (label, stage, condition) in bugs {
            let implementation = buggy_implementation(&spec, &stage, condition);
            let report = check_moe_expressions(&spec, &implementation, Engine::Bdd);
            assert!(
                report.holds_direction(SpecDirection::Functional),
                "{label} must stay functionally correct"
            );
            assert!(
                !report.holds_direction(SpecDirection::Performance),
                "{label} must violate the performance spec"
            );
        }
    }

    #[test]
    fn simulate_helper_runs() {
        let arch = ArchSpec::paper_example();
        let stats = simulate(&arch, Box::new(MaximalInterlock), 100, 0.4, 0.8, 1);
        assert!(stats.ops_completed > 0);
        assert_eq!(stats.hazards.total(), 0);
    }
}
