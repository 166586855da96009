//! Experiment E12: the observability layer's overhead and fidelity.
//!
//! Two measurements on the `deep_pipeline(16)` workload (the deepest
//! deep-chain of E10 — thousands of sub-millisecond SAT queries, the
//! regime where per-query instrumentation is most expensive):
//!
//! * **overhead** — the PDR engine with
//!   `Tracer::disabled()` vs. `TraceConfig::enabled()`, timed min-of-N
//!   interleaved (minimum, not median: tracing cost is a strict additive
//!   overhead, so the minimum is the cleanest estimator under scheduler
//!   noise). The full run asserts overhead < 5%; `--smoke` relaxes the
//!   gate to reporting only — one smoke iteration cannot beat jitter.
//! * **fidelity** — one fully traced portfolio run (k-induction, then
//!   PDR). The span tree must cover ≥ 95% of the traced wall-clock, and
//!   `trace.jsonl` must round-trip: serialised events parse back
//!   ([`ipcl_trace::report::parse_jsonl`]) equal to the snapshot's, and
//!   the span events reconstruct into a well-nested tree
//!   ([`ipcl_trace::report::reconstruct_spans`]) with the engine spans
//!   under `portfolio.check`.
//!
//! Emits a `BENCH_*.json` document with both timings and the derived
//! overhead ratio before any gate asserts, so a failed gate still leaves
//! the document behind. `--trace <dir>` / `--profile` emit the portfolio
//! run's artifacts.

use std::time::Instant;

use ipcl_bench::{emit_bench_json, TraceArgs};
use ipcl_bmc::{BmcOptions, Latency, PropertyKind, SequentialProperty};
use ipcl_checker::{check_property_job, ProofStrategy, SequentialOptions};
use ipcl_pdr::deep::deep_pipeline;
use ipcl_pdr::{check_property_pdr, PdrOptions};
use ipcl_trace::{report, TraceConfig, Tracer};

const CHAIN_DEPTH: usize = 16;

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let repeats = if smoke { 2 } else { 7 };
    let trace = TraceArgs::from_env();

    let (spec, netlist) = deep_pipeline(CHAIN_DEPTH);
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Performance, Latency::Combinational);
    let portfolio_options = SequentialOptions {
        strategy: ProofStrategy::Portfolio,
        bmc: BmcOptions {
            max_depth: CHAIN_DEPTH.saturating_sub(3),
            ..Default::default()
        },
        ..Default::default()
    };
    let pdr_options = PdrOptions::default();

    // ---- Overhead: single-threaded PDR, disabled vs. enabled tracer.
    let run_pdr = |tracer: &Tracer| {
        let start = Instant::now();
        let result = check_property_pdr(&spec, &netlist, &property, &pdr_options, None, tracer)
            .expect("netlist elaborates");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(
            result.outcome.is_proved(),
            "deep-chain-{CHAIN_DEPTH} must be proved, got {:?}",
            result.outcome
        );
        ms
    };

    // Warm-up: fault in the encoder/solver allocations once.
    run_pdr(&Tracer::disabled());

    // Min-of-N per configuration, interleaved so slow-clock drift (thermal,
    // scheduler) hits both configurations alike.
    let mut disabled_ms = f64::INFINITY;
    let mut enabled_ms = f64::INFINITY;
    for _ in 0..repeats {
        disabled_ms = disabled_ms.min(run_pdr(&Tracer::disabled()));
        enabled_ms = enabled_ms.min(run_pdr(&Tracer::new(TraceConfig::enabled())));
    }
    let overhead = enabled_ms / disabled_ms.max(1e-9) - 1.0;

    // ---- Fidelity: one fully traced portfolio run.
    let tracer = Tracer::new(TraceConfig::enabled());
    let portfolio_start = Instant::now();
    let (result, _) = check_property_job(
        &spec,
        &netlist,
        &property,
        &portfolio_options,
        None,
        &tracer,
    )
    .expect("netlist elaborates");
    let portfolio_ms = portfolio_start.elapsed().as_secs_f64() * 1e3;
    assert!(
        result.outcome.is_proved(),
        "deep-chain-{CHAIN_DEPTH} must be proved, got {:?}",
        result.outcome
    );
    let snapshot = tracer
        .snapshot()
        .expect("enabled tracer must produce a snapshot");

    // Span coverage: the share of the traced wall-clock under the root
    // span, portfolio.check.
    let portfolio_us = snapshot
        .spans
        .iter()
        .find(|s| s.path == ["portfolio.check"])
        .map(|s| s.total_us)
        .expect("the portfolio span is recorded");
    let wall_us = snapshot.wall_us.max(1);
    let coverage = portfolio_us as f64 / wall_us as f64;

    let entries = vec![format!(
        concat!(
            "  {{\"experiment\": \"trace_overhead\", \"workload\": \"deep-chain-{}\", ",
            "\"disabled_ms\": {:.3}, \"enabled_ms\": {:.3}, \"overhead\": {:.4}, ",
            "\"portfolio_ms\": {:.3}, \"span_coverage\": {:.4}, \"events\": {}, ",
            "\"dropped_events\": {}}}"
        ),
        CHAIN_DEPTH,
        disabled_ms,
        enabled_ms,
        overhead,
        portfolio_ms,
        coverage,
        snapshot.events.len(),
        snapshot.dropped_events,
    )];
    emit_bench_json("trace_overhead", smoke, &entries);
    eprintln!(
        "deep-chain-{CHAIN_DEPTH} PDR: disabled {disabled_ms:.2} ms, \
         enabled {enabled_ms:.2} ms ({:+.2}%); traced portfolio {portfolio_ms:.2} ms, \
         span coverage {:.1}%",
        overhead * 100.0,
        coverage * 100.0
    );

    if trace.dir.is_some() || trace.profile {
        // The E12 artifacts come from the measured enabled run, not from a
        // separate tracer: re-emit through TraceArgs' tracer only when the
        // user asked for artifacts of *this* binary's own run.
        if let Some(dir) = &trace.dir {
            let (trace_path, profile_path) =
                report::write_artifacts(&snapshot, dir).expect("trace artifacts are writable");
            eprintln!(
                "trace artifacts: {} and {}",
                trace_path.display(),
                profile_path.display()
            );
        }
        if trace.profile {
            eprint!("{}", report::render_profile(&snapshot));
        }
    }

    // ---- Fidelity gates: the span tree covers >= 95% of the traced
    // wall-clock, serialised JSONL parses back to the identical events,
    // and the span events reconstruct into a well-nested per-thread tree.
    assert!(
        coverage >= 0.95,
        "span tree covers {:.1}% of traced wall time, need >= 95%",
        coverage * 100.0
    );
    let jsonl = report::events_jsonl(&snapshot);
    let parsed = report::parse_jsonl(&jsonl).expect("trace.jsonl parses");
    assert_eq!(
        parsed, snapshot.events,
        "trace.jsonl must round-trip through the parser"
    );
    let reconstructed = report::reconstruct_spans(&parsed).expect("span events nest correctly");
    assert!(
        reconstructed
            .iter()
            .any(|s| s.path == ["portfolio.check", "pdr.check", "pdr.propagate"]),
        "the reconstructed tree must contain the engine's nested spans"
    );

    // ---- Overhead gate. One smoke iteration cannot out-vote scheduler
    // jitter on a sub-100ms run, so the gate only arms on the full run.
    if !smoke {
        assert!(
            overhead < 0.05,
            "tracing overhead {:.2}% exceeds the 5% budget \
             (disabled {disabled_ms:.2} ms, enabled {enabled_ms:.2} ms)",
            overhead * 100.0
        );
    }
}
