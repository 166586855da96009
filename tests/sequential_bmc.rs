//! Integration tests of the sequential verification flow (ISSUE 1):
//! `pipesim::BrokenVariant` bug classes synthesized to netlists, falsified
//! by BMC with minimal-length simulator-replayable counterexamples; correct
//! implementations proved by k-induction — on the paper's example
//! architecture and on the FirePath-like configuration.

use ipcl::checker::{
    check_netlist_sequential_with, BmcOptions, BmcOutcome, Latency, PropertyKind, SequentialOptions,
};
use ipcl::core::example::ExampleArch;
use ipcl::core::{ArchSpec, FunctionalSpec};
use ipcl::pipesim::BrokenVariant;
use ipcl::rtl::Netlist;
use ipcl::synth::{
    synthesize_broken_interlock, synthesize_interlock, synthesize_interlock_with, SynthesisOptions,
};

fn example_spec() -> FunctionalSpec {
    ExampleArch::new().functional_spec()
}

/// k-induction with depth bound `k`, every other option at its default.
fn with_depth(k: usize) -> SequentialOptions {
    SequentialOptions {
        bmc: BmcOptions::with_depth(k),
        ..Default::default()
    }
}

/// Asserts that every counterexample in the report replays through the
/// simulator (the checker asserts this internally; re-doing it here makes
/// the integration contract explicit) and returns the minimal trace length.
fn assert_replayable_and_minimal_length(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    report: &ipcl::checker::SequentialReport,
) -> usize {
    let counterexamples = report.counterexamples();
    assert!(!counterexamples.is_empty(), "expected a falsification");
    let mut min_length = usize::MAX;
    for result in counterexamples {
        let cex = result.outcome.counterexample().unwrap();
        let replay = cex.replay(spec, netlist, &result.property).unwrap();
        assert!(
            replay.violation_reproduced,
            "{} did not replay:\n{}",
            result.property.name,
            cex.render()
        );
        min_length = min_length.min(cex.length());
    }
    min_length
}

/// The wrong-reset bug (registered outputs resetting to "stalled"): BMC
/// falsifies it with the minimal one-cycle trace, and the injected
/// `BadResetValues` policy netlist (flags forced high out of reset) is
/// falsified with the minimal two-cycle trace (quiet reset frame, then the
/// hazard the forced flags ignore).
#[test]
fn bmc_finds_wrong_reset_with_minimal_counterexample() {
    let spec = example_spec();

    // Performance-direction reset bug: stalled out of reset.
    let wrong_reset = synthesize_interlock_with(
        &spec,
        SynthesisOptions {
            registered_outputs: true,
            reset_value: false,
            ..Default::default()
        },
    );
    let options = SequentialOptions {
        latency: Some(Latency::Combinational),
        ..with_depth(4)
    };
    let report = check_netlist_sequential_with(&spec, wrong_reset.netlist(), &options).unwrap();
    assert!(report.falsified());
    assert!(!report.reset.ok(), "the static reset check agrees");
    let min_length = assert_replayable_and_minimal_length(&spec, wrong_reset.netlist(), &report);
    assert_eq!(min_length, 1, "reset bug is visible in the reset frame");

    // Functional-direction reset bug: moe flags forced high after reset
    // (pipesim's BadResetValues), invisible at cycle 0 (quiet) but caught at
    // cycle 1.
    let forced = synthesize_broken_interlock(&spec, BrokenVariant::BadResetValues { cycles: 2 });
    let report = check_netlist_sequential_with(&spec, forced.netlist(), &with_depth(6)).unwrap();
    assert!(report.falsified());
    let functional_falsified: Vec<_> = report
        .counterexamples()
        .into_iter()
        .filter(|r| matches!(r.property.kind, PropertyKind::Functional))
        .collect();
    assert!(
        !functional_falsified.is_empty(),
        "forcing flags high misses required stalls"
    );
    let min_length = assert_replayable_and_minimal_length(&spec, forced.netlist(), &report);
    assert_eq!(min_length, 2, "quiet reset frame, hazard at cycle 1");
}

/// The late-stall bug (registered outputs lag the hazard by one cycle):
/// falsified against the combinational-latency functional property with a
/// minimal two-cycle trace.
#[test]
fn bmc_finds_late_stall_with_minimal_counterexample() {
    let spec = example_spec();
    let late = synthesize_interlock_with(
        &spec,
        SynthesisOptions {
            registered_outputs: true,
            reset_value: true,
            ..Default::default()
        },
    );
    let options = SequentialOptions {
        latency: Some(Latency::Combinational),
        ..with_depth(4)
    };
    let report = check_netlist_sequential_with(&spec, late.netlist(), &options).unwrap();
    assert!(report.falsified());
    let min_length = assert_replayable_and_minimal_length(&spec, late.netlist(), &report);
    assert_eq!(
        min_length, 2,
        "the stall cannot arrive before cycle 1: hazard at 1, flags still answering for quiet 0"
    );
}

/// Every `BrokenVariant` synthesized to a netlist is falsified by BMC with a
/// replayable counterexample (the ISSUE acceptance criterion).
#[test]
fn bmc_falsifies_every_broken_variant_with_replayable_traces() {
    let spec = example_spec();
    for variant in [
        BrokenVariant::IgnoreScoreboard,
        BrokenVariant::IgnoreCompletionGrant,
        BrokenVariant::BadResetValues { cycles: 2 },
    ] {
        let broken = synthesize_broken_interlock(&spec, variant);
        let report =
            check_netlist_sequential_with(&spec, broken.netlist(), &with_depth(6)).unwrap();
        assert!(report.falsified(), "{variant:?} must be falsified");
        let min_length = assert_replayable_and_minimal_length(&spec, broken.netlist(), &report);
        // All three bugs need one event frame after the quiet reset frame.
        assert_eq!(min_length, 2, "{variant:?}");
        // The dropped-stall variants miss stalls (functional violations).
        if !matches!(variant, BrokenVariant::BadResetValues { .. }) {
            assert!(
                report
                    .counterexamples()
                    .iter()
                    .any(|r| matches!(r.property.kind, PropertyKind::Functional)),
                "{variant:?} must miss a required stall"
            );
        }
    }
}

/// k-induction proves the synthesized paper-example interlock correct — the
/// combinational form at combinational latency, the registered form at
/// registered latency — including deadlock freedom and reset correctness.
#[test]
fn k_induction_proves_example_interlocks() {
    let spec = example_spec();

    let combinational = synthesize_interlock(&spec);
    let report =
        check_netlist_sequential_with(&spec, combinational.netlist(), &with_depth(8)).unwrap();
    assert_eq!(report.latency, Latency::Combinational);
    assert!(report.proved(), "combinational: {:?}", summaries(&report));
    assert!(report.stall_escape.iter().all(|s| s.escapable));

    let registered = synthesize_interlock_with(
        &spec,
        SynthesisOptions {
            registered_outputs: true,
            reset_value: true,
            ..Default::default()
        },
    );
    let report =
        check_netlist_sequential_with(&spec, registered.netlist(), &with_depth(8)).unwrap();
    assert_eq!(report.latency, Latency::Registered);
    assert!(report.proved(), "registered: {:?}", summaries(&report));
    assert!(report.reset.ok());
}

/// The FirePath-like architecture (24 stages, bit-level scoreboard) is also
/// proved by k-induction, demonstrating the engine scales past the paper
/// example.
#[test]
fn k_induction_proves_firepath_like_interlock() {
    let spec = ArchSpec::firepath_like().functional_spec().unwrap();
    let synthesized = synthesize_interlock(&spec);
    let options = SequentialOptions {
        // 24 stages × 2 directions: no deadlock pass here (covered by the
        // example-arch test) and a small depth bound; induction closes at
        // depth 0 for a correct combinational netlist.
        deadlock: false,
        ..with_depth(3)
    };
    let report = check_netlist_sequential_with(&spec, synthesized.netlist(), &options).unwrap();
    assert_eq!(report.results.len(), 48);
    assert!(
        report.results.iter().all(|r| r.outcome.is_proved()),
        "{:?}",
        summaries(&report)
    );
}

/// The incremental solver makes deep falsification-free runs cheaper than
/// re-encoding from scratch (the bench quantifies this; here we only assert
/// both modes agree on verdict and trace length).
#[test]
fn incremental_and_scratch_modes_agree() {
    let spec = example_spec();
    let late = synthesize_interlock_with(
        &spec,
        SynthesisOptions {
            registered_outputs: true,
            reset_value: true,
            ..Default::default()
        },
    );
    let base = SequentialOptions {
        latency: Some(Latency::Combinational),
        deadlock: false,
        ..with_depth(4)
    };
    let incremental = check_netlist_sequential_with(&spec, late.netlist(), &base).unwrap();
    let mut scratch_options = base;
    scratch_options.bmc.incremental = false;
    let scratch = check_netlist_sequential_with(&spec, late.netlist(), &scratch_options).unwrap();
    let lengths = |report: &ipcl::checker::SequentialReport| -> Vec<(String, usize)> {
        let mut v: Vec<(String, usize)> = report
            .counterexamples()
            .iter()
            .map(|r| {
                (
                    r.property.name.clone(),
                    r.outcome.counterexample().unwrap().length(),
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(lengths(&incremental), lengths(&scratch));
}

fn summaries(report: &ipcl::checker::SequentialReport) -> Vec<(String, String)> {
    report
        .results
        .iter()
        .map(|r| {
            let outcome = match &r.outcome {
                BmcOutcome::Falsified(cex) => format!("falsified@{}", cex.length()),
                BmcOutcome::Proved { induction_depth } => format!("proved@k={induction_depth}"),
                BmcOutcome::Unknown { depth_checked } => format!("unknown@{depth_checked}"),
            };
            (r.property.name.clone(), outcome)
        })
        .collect()
}

// ---- Error paths: a netlist that does not elaborate, and one that lacks
// every `moe` output as well.

use std::sync::atomic::AtomicBool;

use ipcl::bmc::{check_properties, check_stall_escape, Binding};
use ipcl::checker::{
    check_property_job, BmcError, BmcResult, PdrOptions, PdrResult, ProofStrategy,
    SequentialProperty,
};
use ipcl::pdr::check_property_pdr;
use ipcl::serve::{process_job, JobRequest, ProofCache, PropertyRequest};
use ipcl::trace::Tracer;

/// `netlist` plus a register nothing drives, so it does not elaborate.
fn with_dangling_register(netlist: &Netlist) -> Netlist {
    let mut netlist = netlist.clone();
    netlist.register("dangling", false);
    netlist
}

/// One k-induction run over `properties`, untraced.
fn bmc_run(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    properties: &[SequentialProperty],
) -> Result<Vec<BmcResult>, BmcError> {
    check_properties(
        &Binding::new(spec, netlist),
        properties,
        &BmcOptions::default(),
        None,
    )
    .map(|(results, _)| results)
}

/// One PDR run on `property`, untraced.
fn pdr_run(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
) -> Result<PdrResult, BmcError> {
    check_property_pdr(
        &Binding::new(spec, netlist),
        property,
        &PdrOptions::default(),
    )
}

/// Each entry point's error on `netlist`, labelled: the checker's two entry
/// points and `process_job`'s wire answer under every strategy, then
/// k-induction over the portfolio and over `long.3/functional` alone, PDR
/// and the stall-escape check.
fn error_texts(spec: &FunctionalSpec, netlist: &Netlist) -> Vec<(String, String)> {
    let property =
        SequentialProperty::for_stage(spec, 1, PropertyKind::Functional, Latency::Combinational);
    let mut texts = Vec::new();
    for strategy in [
        ProofStrategy::KInduction,
        ProofStrategy::Pdr,
        ProofStrategy::Portfolio,
    ] {
        let options = SequentialOptions {
            strategy,
            ..Default::default()
        };
        let error = check_netlist_sequential_with(spec, netlist, &options).unwrap_err();
        texts.push((format!("{strategy:?} sequential"), error.to_string()));
        let error = check_property_job(
            spec,
            netlist,
            &property,
            &options,
            None,
            &Tracer::disabled(),
        )
        .unwrap_err();
        texts.push((format!("{strategy:?} job"), error.to_string()));
        let job = JobRequest {
            spec: spec.clone(),
            netlist: netlist.clone(),
            property: PropertyRequest {
                stage_index: 1,
                kind: PropertyKind::Functional,
                latency: None,
            },
            strategy,
            threads: 1,
        };
        let cache = ProofCache::new(None);
        let outcome = process_job(&job, &AtomicBool::new(false), &cache, &Tracer::disabled());
        assert!(cache.is_empty(), "an error is not cached");
        texts.push((
            format!("{strategy:?} process_job"),
            outcome.to_json_string(),
        ));
    }
    let portfolio = SequentialProperty::both_directions(spec, Latency::Combinational);
    let error = bmc_run(spec, netlist, &portfolio).unwrap_err();
    texts.push(("bmc portfolio".into(), error.to_string()));
    let error = bmc_run(spec, netlist, std::slice::from_ref(&property)).unwrap_err();
    texts.push(("bmc one".into(), error.to_string()));
    let error = pdr_run(spec, netlist, &property).unwrap_err();
    texts.push(("pdr".into(), error.to_string()));
    let error = check_stall_escape(spec, netlist, 2).unwrap_err();
    texts.push(("stall escape".into(), error.to_string()));
    texts
}

/// A netlist that does not elaborate is an `Rtl` error wherever it is
/// checked. One that also lacks every `moe` output is a `MissingSignals`
/// error first: every missing flag in stage order for the whole-design
/// checks, sorted for a k-induction property list, and the property's own
/// flag for a one-property check.
#[test]
fn netlist_errors_reach_every_entry_point() {
    let spec = example_spec();
    let synthesized = synthesize_interlock(&spec);
    // The expected answers, given the whole-design error, the one-property
    // error and the property-list error.
    let expect = |design: &str, one: &str, list: &str| {
        let wire = format!(
            "{{\"property\": \"long.3/functional\", \"verdict\": \"error\", \
             \"detail\": \"{one}\", \"cached\": false}}"
        );
        let mut expected = Vec::new();
        for strategy in ["KInduction", "Pdr", "Portfolio"] {
            expected.push((format!("{strategy} sequential"), design.to_owned()));
            expected.push((format!("{strategy} job"), one.to_owned()));
            expected.push((format!("{strategy} process_job"), wire.clone()));
        }
        for (label, text) in [
            ("bmc portfolio", list),
            ("bmc one", one),
            ("pdr", one),
            ("stall escape", design),
        ] {
            expected.push((label.to_owned(), text.to_owned()));
        }
        expected
    };

    let unelaborated = with_dangling_register(synthesized.netlist());
    let rtl = "netlist error: register 'dangling' has no next-state connection";
    assert_eq!(error_texts(&spec, &unelaborated), expect(rtl, rtl, rtl));
    // An empty property list needs no unrolling: it decides nothing and
    // reports no error.
    assert!(bmc_run(&spec, &unelaborated, &[]).unwrap().is_empty());

    let moe_less = with_dangling_register(&Netlist::new("moe_less"));
    let missing = |names: &str| format!("netlist misses moe signals: {names}");
    assert_eq!(
        error_texts(&spec, &moe_less),
        expect(
            &missing("long.4.moe, long.3.moe, long.2.moe, long.1.moe, short.2.moe, short.1.moe"),
            &missing("long.3.moe"),
            &missing("long.1.moe, long.2.moe, long.3.moe, long.4.moe, short.1.moe, short.2.moe"),
        )
    );
}
