//! Experiment E10: PDR versus k-induction (and the portfolio).
//!
//! Two workload families, each swept across sizes:
//!
//! * **registered synthetic architectures** — `ArchSpec::synthetic(pipes,
//!   depth)` with registered `moe` outputs, checked with the combined
//!   specification at registered latency. Both engines prove these quickly;
//!   the sweep measures how their encoding/search overheads scale with
//!   architecture size.
//! * **deep wait-state chains** — `ipcl_pdr::deep::deep_pipeline(n)`, the
//!   workload class k-induction cannot decide below the chain depth.
//!   k-induction is given a bound of `n − 3` frames (so it runs to the
//!   bound and returns *unknown*), while PDR proves the property outright
//!   — asserted by this binary.
//!
//! Each `(workload, engine)` point runs with SAT phase saving on and off
//! (`"phase_saving"`). Off is PDR's default ([`PdrOptions::default`]) and
//! on is k-induction's.
//!
//! Emits a `BENCH_*.json` document on stdout (one entry per point);
//! `--smoke` shrinks the sweep for CI. Rows of both engines carry their
//! `solve_calls`; PDR rows also carry the obligation-queue shape
//! (`max_queue_depth`, `frame_obligations`).
//! `--trace <dir>` / `--profile` / `--watch` enable the `ipcl-trace`
//! observability layer (see [`ipcl_bench::TraceArgs`]).

use std::time::Instant;

use ipcl_bench::{emit_bench_json, median_ms, TraceArgs};
use ipcl_bmc::{
    check_properties, Binding, BmcOptions, BmcOutcome, Latency, PropertyKind, SequentialProperty,
};
use ipcl_checker::{check_property_job, ProofStrategy, SequentialOptions};
use ipcl_core::{ArchSpec, FunctionalSpec};
use ipcl_pdr::deep::deep_pipeline;
use ipcl_pdr::{check_property_pdr, PdrOptions};
use ipcl_rtl::Netlist;
use ipcl_synth::{synthesize_interlock_with, SynthesisOptions};

struct Workload {
    name: String,
    spec: FunctionalSpec,
    netlist: Netlist,
    property: SequentialProperty,
    /// Depth bound handed to k-induction.
    k_bound: usize,
    /// Whether k-induction is expected to prove the property within the
    /// bound (deep chains: no).
    k_inductive: bool,
}

fn registered_synthetic(pipes: u32, depth: u32) -> Workload {
    let spec = ArchSpec::synthetic(pipes, depth)
        .functional_spec()
        .expect("synthetic architectures are well-formed");
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
    Workload {
        name: format!("synthetic-{pipes}x{depth}-registered"),
        spec,
        netlist: synthesized.netlist().clone(),
        property,
        k_bound: 8,
        k_inductive: true,
    }
}

fn deep_chain(depth: usize) -> Workload {
    let (spec, netlist) = deep_pipeline(depth);
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Performance, Latency::Combinational);
    Workload {
        name: format!("deep-chain-{depth}"),
        spec,
        netlist,
        property,
        // Stay below the chain depth: k-induction must run to the bound and
        // give up, which is exactly the cost being measured.
        k_bound: depth.saturating_sub(3),
        k_inductive: false,
    }
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let repeats = if smoke { 1 } else { 3 };
    let trace = TraceArgs::from_env();

    let mut workloads = Vec::new();
    if smoke {
        for (pipes, depth) in [(1, 3), (2, 3)] {
            workloads.push(registered_synthetic(pipes, depth));
        }
        for depth in [5usize, 8] {
            workloads.push(deep_chain(depth));
        }
    } else {
        for (pipes, depth) in [(1, 3), (2, 3), (2, 4), (3, 4), (4, 4)] {
            workloads.push(registered_synthetic(pipes, depth));
        }
        for depth in [6usize, 9, 12, 16] {
            workloads.push(deep_chain(depth));
        }
    }

    let mut entries: Vec<String> = Vec::new();
    for workload in &workloads {
        let properties = std::slice::from_ref(&workload.property);
        for phase_saving in [true, false] {
            let solver = ipcl_sat::SolverConfig {
                phase_saving,
                ..Default::default()
            };
            // ---- k-induction.
            let bmc_options = BmcOptions {
                max_depth: workload.k_bound,
                solver,
                ..Default::default()
            };
            let mut times = Vec::new();
            let mut verdict = String::new();
            let mut solve_calls = 0usize;
            let mut conflicts = 0u64;
            for _ in 0..repeats {
                let start = Instant::now();
                let result = check_properties(
                    &Binding::new(&workload.spec, &workload.netlist).with_run(None, trace.tracer()),
                    properties,
                    &bmc_options,
                    None,
                )
                .expect("netlist elaborates")
                .0
                .remove(0);
                times.push(start.elapsed().as_secs_f64() * 1e3);
                verdict = match &result.outcome {
                    BmcOutcome::Proved { induction_depth } => format!("proved@k={induction_depth}"),
                    BmcOutcome::Falsified(_) => "falsified".to_owned(),
                    BmcOutcome::Unknown { depth_checked } => format!("unknown@{depth_checked}"),
                };
                assert_eq!(
                    result.outcome.is_proved(),
                    workload.k_inductive,
                    "{}: unexpected k-induction verdict {verdict}",
                    workload.name
                );
                solve_calls = result.stats.solve_calls;
                conflicts = result.stats.conflicts;
            }
            entries.push(format!(
                concat!(
                    "  {{\"experiment\": \"pdr_vs_kinduction\", \"workload\": \"{}\", ",
                    "\"engine\": \"kinduction\", \"phase_saving\": {}, \"verdict\": \"{}\", ",
                    "\"ms\": {:.3}, \"solve_calls\": {}, \"conflicts\": {}}}"
                ),
                workload.name,
                phase_saving,
                verdict,
                median_ms(times),
                solve_calls,
                conflicts,
            ));

            // ---- PDR.
            let pdr_options = PdrOptions { solver };
            let mut times = Vec::new();
            let mut verdict = String::new();
            let mut solve_calls = 0u64;
            let mut clauses = 0usize;
            let mut obligations = 0u64;
            let mut conflicts = 0u64;
            let mut max_queue_depth = 0usize;
            let mut frame_obligations = Vec::new();
            for _ in 0..repeats {
                let start = Instant::now();
                let pdr = check_property_pdr(
                    &Binding::new(&workload.spec, &workload.netlist).with_run(None, trace.tracer()),
                    &workload.property,
                    &pdr_options,
                )
                .expect("netlist elaborates");
                times.push(start.elapsed().as_secs_f64() * 1e3);
                let (
                    BmcOutcome::Proved {
                        induction_depth: fixpoint_frame,
                    },
                    Some(certificate),
                ) = (&pdr.result.outcome, &pdr.certificate)
                else {
                    panic!(
                        "{}: PDR must prove, got {:?}",
                        workload.name, pdr.result.outcome
                    );
                };
                assert!(
                    pdr.validation.expect("every proof is validated").ok(),
                    "{}: certificate failed validation",
                    workload.name
                );
                verdict = format!(
                    "proved@F{fixpoint_frame} ({} clauses)",
                    certificate.clauses.len()
                );
                solve_calls = pdr.stats.solve_calls;
                clauses = pdr.stats.clauses;
                obligations = pdr.stats.obligations;
                conflicts = pdr.stats.conflicts;
                max_queue_depth = pdr.stats.max_queue_depth;
                frame_obligations = pdr.stats.obligations_per_frame.clone();
            }
            entries.push(format!(
                concat!(
                    "  {{\"experiment\": \"pdr_vs_kinduction\", \"workload\": \"{}\", ",
                    "\"engine\": \"pdr\", \"phase_saving\": {}, \"verdict\": \"{}\", ",
                    "\"ms\": {:.3}, \"solve_calls\": {}, \"clauses\": {}, \"obligations\": {}, ",
                    "\"conflicts\": {}, \"max_queue_depth\": {}, \"frame_obligations\": [{}]}}"
                ),
                workload.name,
                phase_saving,
                verdict,
                median_ms(times),
                solve_calls,
                clauses,
                obligations,
                conflicts,
                max_queue_depth,
                frame_obligations
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
            ));
        }

        // ---- Portfolio (default options, so its PDR runs turn phase saving
        // off; the row keeps `"phase_saving": true`, its k-induction run's
        // setting and the baseline's identity): the verdict must match the
        // stronger engine's, and the deep chains must be decided by PDR,
        // which is what a certificate in the answer says.
        let options = SequentialOptions {
            strategy: ProofStrategy::Portfolio,
            bmc: BmcOptions {
                max_depth: workload.k_bound,
                ..Default::default()
            },
            ..Default::default()
        };
        let start = Instant::now();
        let (result, certificate) = check_property_job(
            &workload.spec,
            &workload.netlist,
            &workload.property,
            &options,
            None,
            trace.tracer(),
        )
        .expect("netlist elaborates");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(
            result.outcome.is_proved(),
            "{}: the portfolio must prove every correct workload",
            workload.name
        );
        assert!(
            workload.k_inductive || certificate.is_some(),
            "{}: only PDR can prove a deep chain",
            workload.name
        );
        entries.push(format!(
            concat!(
                "  {{\"experiment\": \"pdr_vs_kinduction\", \"workload\": \"{}\", ",
                "\"engine\": \"portfolio\", \"phase_saving\": true, \"verdict\": \"proved\", ",
                "\"winner\": \"{}\", \"ms\": {:.3}}}"
            ),
            workload.name,
            if certificate.is_some() {
                "pdr"
            } else {
                "kinduction"
            },
            ms,
        ));
    }

    emit_bench_json("pdr_vs_kinduction", smoke, &entries);
    eprintln!(
        "{} workloads × (kinduction, pdr) × (phase saving on/off) + portfolio: {} points",
        workloads.len(),
        entries.len()
    );
    trace.finish();
}
