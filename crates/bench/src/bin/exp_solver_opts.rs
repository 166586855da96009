//! Experiment E11: a counter pin on the CDCL solver.
//!
//! Three workloads, each run under the default [`ipcl_sat::SolverConfig`],
//! cover the three regimes the repository's engines live in:
//!
//! * `pigeonhole(n)` — a pure CDCL stress test (one hard UNSAT call);
//! * `deep_pipeline(n)` PDR proof — thousands of tiny incremental
//!   consecution queries against one solver, the regime the persistent
//!   level-0 scheme targets;
//! * E9-style incremental BMC depth sweep on the registered paper example
//!   — repeated re-solves under assumptions with clause addition between
//!   calls.
//!
//! Emits a `BENCH_*.json` document, one entry per workload, with the
//! medianized time and the solver's deterministic counters; BMC rows
//! include the final depth's isolated solve counts (`last_depth_*`, via
//! `SolverStats::delta`). CI's counter gate compares the `--smoke`
//! entries with `baselines/BENCH_solver_opts.json` exactly, so any change
//! to the search shows up there. Every entry keeps `"config":
//! "optimized"`, the name the committed baseline rows carry. `--smoke`
//! shrinks the sweep; `--trace <dir>` / `--profile` / `--watch` enable
//! the `ipcl-trace` observability layer (see [`ipcl_bench::TraceArgs`]).

use std::time::Instant;

use ipcl_bench::{emit_bench_json, pigeonhole_cnf, TraceArgs};
use ipcl_bmc::{check_properties, BmcOptions, Latency, PropertyKind, SequentialProperty};
use ipcl_core::example::ExampleArch;
use ipcl_pdr::deep::deep_pipeline;
use ipcl_pdr::{check_property_pdr, PdrOptions, PdrOutcome};
use ipcl_sat::{SatResult, Solver};
use ipcl_synth::{synthesize_interlock_with, SynthesisOptions};
use ipcl_trace::Tracer;

fn median_ms(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times[times.len() / 2]
}

/// One measured point: medianized wall-clock plus the counters that
/// explain it.
struct Point {
    ms: f64,
    detail: String,
}

fn run_pigeonhole(pigeons: u32, repeats: usize, tracer: &Tracer) -> Point {
    let cnf = pigeonhole_cnf(pigeons);
    let mut times = Vec::new();
    let mut detail = String::new();
    for _ in 0..repeats {
        let mut solver = Solver::from_cnf(&cnf);
        solver.set_tracer(tracer.clone());
        let start = Instant::now();
        let result = solver.solve();
        times.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(result, SatResult::Unsat, "pigeonhole must be UNSAT");
        let stats = solver.stats();
        detail = format!(
            "\"conflicts\": {}, \"minimized_literals\": {}, \"reductions\": {}",
            stats.conflicts, stats.minimized_literals, stats.reductions
        );
    }
    Point {
        ms: median_ms(times),
        detail,
    }
}

fn run_deep_pdr(depth: usize, repeats: usize, tracer: &Tracer) -> Point {
    let (spec, netlist) = deep_pipeline(depth);
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Performance, Latency::Combinational);
    let options = PdrOptions::default();
    let mut times = Vec::new();
    let mut detail = String::new();
    for _ in 0..repeats {
        let start = Instant::now();
        let result = check_property_pdr(&spec, &netlist, &property, &options, None, tracer)
            .expect("netlist elaborates");
        times.push(start.elapsed().as_secs_f64() * 1e3);
        let PdrOutcome::Proved { .. } = result.outcome else {
            panic!(
                "deep_pipeline({depth}) must be proved, got {:?}",
                result.outcome
            );
        };
        assert!(result.validation.expect("every proof is validated").ok());
        detail = format!(
            "\"solve_calls\": {}, \"obligations\": {}, \"conflicts\": {}, \"propagations\": {}",
            result.stats.solve_calls,
            result.stats.obligations,
            result.stats.conflicts,
            result.stats.propagations
        );
    }
    Point {
        ms: median_ms(times),
        detail,
    }
}

fn run_bmc_sweep(depth: usize, repeats: usize, tracer: &Tracer) -> Point {
    let spec = ExampleArch::new().functional_spec();
    let synthesized = synthesize_interlock_with(
        &spec,
        SynthesisOptions {
            registered_outputs: true,
            reset_value: true,
            ..Default::default()
        },
    );
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Combined, Latency::Registered);
    let options = BmcOptions {
        max_depth: depth,
        induction: false,
        ..Default::default()
    };
    let mut times = Vec::new();
    let mut detail = String::new();
    for _ in 0..repeats {
        let start = Instant::now();
        let result = check_properties(
            &spec,
            synthesized.netlist(),
            std::slice::from_ref(&property),
            &options,
            None,
            tracer,
        )
        .expect("netlist elaborates")
        .remove(0);
        times.push(start.elapsed().as_secs_f64() * 1e3);
        assert!(
            !result.outcome.is_falsified(),
            "the registered example holds at every depth"
        );
        detail = format!(
            concat!(
                "\"solve_calls\": {}, \"clauses\": {}, \"conflicts\": {}, ",
                "\"propagations\": {}, \"last_depth_conflicts\": {}, ",
                "\"last_depth_propagations\": {}"
            ),
            result.stats.solve_calls,
            result.stats.base_clauses,
            result.stats.conflicts,
            result.stats.propagations,
            result.stats.last_depth_conflicts,
            result.stats.last_depth_propagations
        );
    }
    Point {
        ms: median_ms(times),
        detail,
    }
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let repeats = if smoke { 1 } else { 3 };
    let trace = TraceArgs::from_env();
    let tracer = trace.tracer();

    // Sizes chosen so the full run's slowest point stays within seconds.
    let points: Vec<(&str, Point)> = if smoke {
        vec![
            ("pigeonhole-7", run_pigeonhole(7, repeats, tracer)),
            ("deep-pipeline-8-pdr", run_deep_pdr(8, repeats, tracer)),
            ("bmc-depth-8-incremental", run_bmc_sweep(8, repeats, tracer)),
        ]
    } else {
        vec![
            ("pigeonhole-8", run_pigeonhole(8, repeats, tracer)),
            ("pigeonhole-9", run_pigeonhole(9, repeats, tracer)),
            ("deep-pipeline-12-pdr", run_deep_pdr(12, repeats, tracer)),
            ("deep-pipeline-16-pdr", run_deep_pdr(16, repeats, tracer)),
            (
                "bmc-depth-20-incremental",
                run_bmc_sweep(20, repeats, tracer),
            ),
        ]
    };

    let entries: Vec<String> = points
        .iter()
        .map(|(name, point)| {
            eprintln!("{name}: {:.3} ms", point.ms);
            format!(
                concat!(
                    "  {{\"experiment\": \"solver_opts\", \"workload\": \"{}\", ",
                    "\"config\": \"optimized\", \"ms\": {:.3}, {}}}"
                ),
                name, point.ms, point.detail
            )
        })
        .collect();
    emit_bench_json("solver_opts", smoke, &entries);
    trace.finish();
}
