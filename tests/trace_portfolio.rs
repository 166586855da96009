//! Integration tests of the observability layer (ISSUE 6): a fully traced
//! portfolio check (k-induction, then PDR) of the `deep_pipeline(16)`
//! workload, alone and next to two engine runs on threads the test spawns.
//!
//! The acceptance criteria exercised here:
//!
//! * the span profile covers ≥ 95% of the traced wall-clock;
//! * `trace.jsonl` round-trips through the report renderer (serialise →
//!   parse → identical events);
//! * span nesting reconstructs into a well-nested per-thread tree from the
//!   JSONL alone, with three threads recording under one tracer;
//! * sequence numbers are strictly monotone per thread;
//! * the unified metrics cover all three stat families (solver, PDR,
//!   encoder) plus the satellite obligation-queue statistics;
//! * the checker-level `SequentialOptions::trace` plumbing produces a
//!   snapshot with replayable structure on a falsified design.

use ipcl::checker::{
    check_netlist_sequential_with, check_property_job, Latency, ProofStrategy, SequentialOptions,
    TraceConfig, Tracer,
};
use ipcl::core::example::ExampleArch;
use ipcl::core::FunctionalSpec;
use ipcl::pdr::deep::deep_pipeline;
use ipcl::pdr::{check_property_pdr, PdrOptions};
use ipcl::pipesim::BrokenVariant;
use ipcl::rtl::Netlist;
use ipcl::synth::synthesize_broken_interlock;
use ipcl::trace::{report, TraceSnapshot};
use ipcl_bmc::{check_properties, BmcOptions, PropertyKind, SequentialProperty};

/// The deep-chain-16 stage-0 performance property, which only PDR proves.
fn deep_chain() -> (FunctionalSpec, Netlist, SequentialProperty) {
    let (spec, netlist) = deep_pipeline(16);
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Performance, Latency::Combinational);
    (spec, netlist, property)
}

/// One portfolio check of the deep chain on the calling thread.
fn portfolio(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
    tracer: &Tracer,
) {
    let options = SequentialOptions {
        strategy: ProofStrategy::Portfolio,
        bmc: BmcOptions::with_depth(13),
        ..Default::default()
    };
    let (result, certificate) = check_property_job(spec, netlist, property, &options, None, tracer)
        .expect("netlist elaborates");
    assert!(result.outcome.is_proved());
    assert!(certificate.is_some(), "only PDR can prove deep-chain-16");
}

/// One traced portfolio check of the deep chain.
fn traced_portfolio_snapshot() -> TraceSnapshot {
    let (spec, netlist, property) = deep_chain();
    let tracer = Tracer::new(TraceConfig::enabled());
    portfolio(&spec, &netlist, &property, &tracer);
    tracer.snapshot().expect("enabled tracer yields a snapshot")
}

/// Three threads under one tracer: the portfolio check on this thread,
/// and a PDR run and a k-induction run of the same property on two
/// threads spawned here.
fn traced_concurrent_snapshot() -> TraceSnapshot {
    let (spec, netlist, property) = deep_chain();
    let tracer = Tracer::new(TraceConfig::enabled());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let result = check_property_pdr(
                &spec,
                &netlist,
                &property,
                &PdrOptions::default(),
                None,
                &tracer,
            )
            .expect("netlist elaborates");
            assert!(result.outcome.is_proved());
        });
        scope.spawn(|| {
            let properties = std::slice::from_ref(&property);
            check_properties(
                &spec,
                &netlist,
                properties,
                &BmcOptions::with_depth(13),
                None,
                &tracer,
            )
            .expect("netlist elaborates");
        });
        portfolio(&spec, &netlist, &property, &tracer);
    });
    tracer.snapshot().expect("enabled tracer yields a snapshot")
}

#[test]
fn traced_portfolio_covers_wall_time_and_round_trips() {
    let snapshot = traced_portfolio_snapshot();

    // ---- Span coverage: the portfolio.check span must account for >= 95%
    // of everything the tracer saw.
    let portfolio_us = snapshot
        .spans
        .iter()
        .find(|s| s.path == ["portfolio.check"])
        .map(|s| s.total_us)
        .expect("the portfolio span is profiled");
    let coverage = portfolio_us as f64 / snapshot.wall_us.max(1) as f64;
    assert!(
        coverage >= 0.95,
        "span tree covers {:.1}% of wall time",
        coverage * 100.0
    );

    // Both engines' spans are present, nested under the portfolio's.
    for path in [
        vec!["portfolio.check", "bmc.check"],
        vec!["portfolio.check", "bmc.check", "bmc.encode"],
        vec!["portfolio.check", "pdr.check"],
        vec!["portfolio.check", "pdr.check", "pdr.generalize"],
        vec!["portfolio.check", "pdr.check", "pdr.propagate"],
        vec!["portfolio.check", "pdr.check", "pdr.validate"],
    ] {
        assert!(
            snapshot.spans.iter().any(|s| s.path == path),
            "missing span path {path:?}"
        );
    }

    // ---- Round-trip: events → JSONL → parse → identical events.
    let jsonl = report::events_jsonl(&snapshot);
    let parsed = report::parse_jsonl(&jsonl).expect("trace.jsonl parses");
    assert_eq!(parsed, snapshot.events);

    // The profile JSON renders and mentions the portfolio span.
    let profile = report::profile_json(&snapshot);
    assert!(profile.contains("portfolio.check"));
    assert!(report::render_profile(&snapshot).contains("pdr.generalize"));
}

#[test]
fn traced_portfolio_spans_nest_per_thread_and_seqs_are_monotone() {
    let snapshot = traced_concurrent_snapshot();

    // ---- Well-nested span reconstruction from the JSONL alone, with three
    // threads recording at once: enter/exit pairs must balance per thread.
    let jsonl = report::events_jsonl(&snapshot);
    let parsed = report::parse_jsonl(&jsonl).expect("trace.jsonl parses");
    let reconstructed =
        report::reconstruct_spans(&parsed).expect("span events are well-nested per thread");
    assert!(
        reconstructed
            .iter()
            .any(|s| s.path == ["portfolio.check", "pdr.check", "pdr.propagate"]),
        "the caller thread's portfolio spans reconstruct"
    );
    assert!(
        reconstructed
            .iter()
            .any(|s| s.path == ["pdr.check", "pdr.propagate"]),
        "the PDR thread's nested spans reconstruct"
    );
    assert!(
        reconstructed.iter().any(|s| s.path == ["bmc.check"]),
        "the k-induction thread's span reconstructs"
    );
    // The three runs recorded on distinct threads.
    let threads: std::collections::BTreeSet<u64> = reconstructed.iter().map(|s| s.thread).collect();
    assert!(
        threads.len() >= 3,
        "caller + two spawned threads, got threads {threads:?}"
    );

    // ---- Sequence numbers: strictly monotone per thread (and globally
    // unique, since they are drawn from one atomic counter).
    let mut last_by_thread = std::collections::BTreeMap::new();
    let mut all_seqs = std::collections::BTreeSet::new();
    for event in &snapshot.events {
        if let Some(prev) = last_by_thread.insert(event.thread, event.seq) {
            assert!(
                event.seq > prev,
                "thread {} seq went {} -> {}",
                event.thread,
                prev,
                event.seq
            );
        }
        assert!(all_seqs.insert(event.seq), "duplicate seq {}", event.seq);
    }

    // ---- The event log carries the portfolio verdict and the per-frame
    // obligation traffic.
    let kinds: std::collections::BTreeSet<&str> =
        snapshot.events.iter().map(|e| e.kind.as_ref()).collect();
    for kind in ["portfolio_verdict", "pdr_obligation", "bmc_depth"] {
        assert!(kinds.contains(kind), "missing event kind {kind}: {kinds:?}");
    }

    // ---- Unified metrics: all three stat families report through the one
    // sink, including the satellite queue statistics.
    for counter in ["sat.conflicts", "pdr.obligations", "unroll.pdr.gates"] {
        assert!(
            snapshot.counters.contains_key(counter),
            "missing counter {counter}"
        );
    }
    assert!(
        snapshot
            .gauges
            .get("pdr.max_queue_depth")
            .copied()
            .unwrap_or(0.0)
            >= 1.0,
        "the PDR obligation queue must have been non-trivial"
    );
}

#[test]
fn sequential_checker_trace_config_produces_snapshot_with_replays() {
    // The checker-level plumbing: a falsified design traced end-to-end
    // through `SequentialOptions::trace` yields replay_verdict events and a
    // checker-rooted span tree; with the default (disabled) config the
    // report carries no snapshot.
    let spec = ExampleArch::new().functional_spec();
    let broken = synthesize_broken_interlock(&spec, BrokenVariant::IgnoreScoreboard);

    let options = SequentialOptions {
        strategy: ProofStrategy::Portfolio,
        trace: TraceConfig::enabled(),
        ..Default::default()
    };
    let report = check_netlist_sequential_with(&spec, broken.netlist(), &options).unwrap();
    assert!(report.falsified());
    let snapshot = report.trace.as_ref().expect("tracing was enabled");
    assert!(
        snapshot
            .spans
            .iter()
            .any(|s| s.path == ["checker.sequential"]),
        "the checker's root span is profiled"
    );
    let replays: Vec<_> = snapshot
        .events
        .iter()
        .filter(|e| e.kind == "replay_verdict")
        .collect();
    assert!(!replays.is_empty(), "falsifications emit replay verdicts");
    for event in replays {
        assert_eq!(
            event.field("reproduced"),
            Some(&ipcl::trace::Value::Bool(true))
        );
    }

    let untraced =
        check_netlist_sequential_with(&spec, broken.netlist(), &SequentialOptions::default())
            .unwrap();
    assert!(untraced.trace.is_none(), "tracing defaults to off");
}
