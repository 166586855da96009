//! Experiment E9: BMC scaling with unroll depth k.
//!
//! Sweeps the unroll depth of a falsification-free BMC run (the combined
//! specification at registered latency, which holds at every depth) on the
//! registered paper-example interlock, in both solver modes:
//!
//! * `incremental` — one solver shared across depths, property activation
//!   via assumptions, learned clauses retained;
//! * `scratch` — a fresh unrolling and solver per depth.
//!
//! Emits a `BENCH_*.json` document (one entry per `(mode, depth)` point)
//! with wall-clock solve time, clause counts and CDCL statistics —
//! cumulative over the run *and* the per-depth delta of the final depth's
//! base solve (isolated from the incremental stream via
//! `SolverStats::delta`) — to seed the benchmarking trajectory of the
//! repository. The incremental path should be measurably faster and its
//! advantage should grow with depth.
//!
//! `--smoke` shrinks the depth sweep for CI; `--trace <dir>` /
//! `--profile` / `--watch` enable the `ipcl-trace` observability layer
//! (see [`ipcl_bench::TraceArgs`]).

use std::time::Instant;

use ipcl_bench::{emit_bench_json, TraceArgs};
use ipcl_bmc::{check_properties, BmcOptions, Latency, PropertyKind, SequentialProperty};
use ipcl_core::example::ExampleArch;
use ipcl_synth::{synthesize_interlock_with, SynthesisOptions};

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let trace = TraceArgs::from_env();
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
    let properties = std::slice::from_ref(&property);

    // One warm-up run so first-touch allocation noise stays out of depth 1.
    let _ = check_properties(
        &spec,
        synthesized.netlist(),
        properties,
        &BmcOptions::with_depth(2),
        None,
        &ipcl_trace::Tracer::disabled(),
    );

    let depths: &[usize] = if smoke {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 4, 6, 8, 12, 16, 24, 32]
    };
    let mut entries = Vec::new();
    let mut incremental_total = 0.0f64;
    let mut scratch_total = 0.0f64;
    for &depth in depths {
        for (mode, incremental) in [("incremental", true), ("scratch", false)] {
            let options = BmcOptions {
                max_depth: depth,
                incremental,
                induction: false,
                ..Default::default()
            };
            // Median of three runs keeps scheduler noise out of the trend.
            let mut times = Vec::new();
            let mut last_stats = None;
            for _ in 0..3 {
                let start = Instant::now();
                let result = check_properties(
                    &spec,
                    synthesized.netlist(),
                    properties,
                    &options,
                    None,
                    trace.tracer(),
                )
                .expect("netlist elaborates")
                .remove(0);
                times.push(start.elapsed().as_secs_f64() * 1e3);
                assert!(
                    !result.outcome.is_falsified(),
                    "combined/registered property holds at every depth"
                );
                last_stats = Some(result.stats);
            }
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            let median_ms = times[1];
            let stats = last_stats.expect("three runs completed");
            if incremental {
                incremental_total += median_ms;
            } else {
                scratch_total += median_ms;
            }
            entries.push(format!(
                concat!(
                    "  {{\"experiment\": \"bmc_depth\", \"mode\": \"{}\", \"depth\": {}, ",
                    "\"solve_ms\": {:.3}, \"clauses\": {}, \"solve_calls\": {}, ",
                    "\"conflicts\": {}, \"propagations\": {}, ",
                    "\"last_depth_conflicts\": {}, \"last_depth_propagations\": {}}}"
                ),
                mode,
                depth,
                median_ms,
                stats.base_clauses,
                stats.solve_calls,
                stats.conflicts,
                stats.propagations,
                stats.last_depth_conflicts,
                stats.last_depth_propagations,
            ));
        }
    }
    emit_bench_json("bmc_depth", smoke, &entries);
    eprintln!(
        "total solve time: incremental {incremental_total:.1} ms, scratch {scratch_total:.1} ms \
         ({:.2}x)",
        scratch_total / incremental_total.max(1e-9)
    );
    assert!(
        incremental_total < scratch_total,
        "incremental BMC must beat from-scratch re-encoding across the sweep"
    );
    trace.finish();
}
