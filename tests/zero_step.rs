//! Zero-step proofs first: k-induction asks every property its zero-step
//! query (the step at k = 0 on a free state) before any base query, and
//! answers the stall-escape check on the same free unrolling. That must
//! not change an answer:
//!
//! * **Pinned answers.** `zero_step_answers.txt` holds every property's
//!   verdict, induction depth and trace length, computed before the
//!   zero-step queries existed, for the paper example, FirePath-like and
//!   synthetic 3×4: the correct interlocks at both synthesis latencies,
//!   four `BrokenVariant`s and a registered synthesis with wrong reset
//!   values, checked at both property latencies with 0–2 quiet cycles
//!   under k-induction and the portfolio. A line reads `P<k>` (proved at
//!   induction depth k), `F<n>` (falsified by an n-frame trace) or `U<d>`
//!   (unknown, checked to depth d) per property, in portfolio order. The
//!   quiet-cycle hold regenerated three lines: with two quiet cycles a
//!   quiet 4-frame trace violates the functional properties of
//!   `BadResetValues { cycles: 1 }` at registered latency, and a passed
//!   step waits for the base case to pass `quiet_cycles − 1` more depths,
//!   so the `Registered q2 kinduction` lines of that variant read `F4`
//!   there for the paper example, FirePath-like and synthetic 3×4.
//! * **Base-only runs** (`induction: false`) ask no zero-step query, so
//!   they prove nothing, and every k-induction proof with 0–3 quiet cycles
//!   survives base-only bounded model checking under the same quiet
//!   cycles.
//! * **Cancellation** is polled before the zero-step queries: a cancelled
//!   run asks no query.

use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;

use ipcl::bmc::{check_properties, Binding};
use ipcl::checker::{
    check_netlist_sequential_with, check_property_job, BmcOptions, BmcOutcome, Latency,
    ProofStrategy, SequentialOptions, SequentialProperty, Tracer,
};
use ipcl::core::example::ExampleArch;
use ipcl::core::{ArchSpec, FunctionalSpec};
use ipcl::pipesim::BrokenVariant;
use ipcl::rtl::Netlist;
use ipcl::synth::{synthesize_broken_interlock, synthesize_interlock_with, SynthesisOptions};

/// The pinned answers.
const PINNED: &str = include_str!("zero_step_answers.txt");

/// The designs of one architecture: the correct interlocks with
/// combinational and registered outputs, a registered one with wrong reset
/// values, and four `BrokenVariant`s.
fn designs_of(arch: &str, spec: &FunctionalSpec) -> Vec<(String, FunctionalSpec, Netlist)> {
    let mut designs = Vec::new();
    for (label, registered_outputs, reset_value) in [
        ("correct-comb", false, true),
        ("correct-reg", true, true),
        ("reset-false-reg", true, false),
    ] {
        let options = SynthesisOptions {
            registered_outputs,
            reset_value,
            ..Default::default()
        };
        let netlist = synthesize_interlock_with(spec, options).netlist().clone();
        designs.push((format!("{arch} {label}"), spec.clone(), netlist));
    }
    for variant in [
        BrokenVariant::IgnoreScoreboard,
        BrokenVariant::IgnoreCompletionGrant,
        BrokenVariant::BadResetValues { cycles: 1 },
        BrokenVariant::BadResetValues { cycles: 2 },
    ] {
        let netlist = synthesize_broken_interlock(spec, variant).netlist().clone();
        designs.push((format!("{arch} {variant:?}"), spec.clone(), netlist));
    }
    designs
}

/// The paper example, FirePath-like and synthetic 3×4 designs.
fn designs() -> Vec<(String, FunctionalSpec, Netlist)> {
    let mut designs = designs_of("paper", &ExampleArch::new().functional_spec());
    let firepath = ArchSpec::firepath_like().functional_spec().unwrap();
    designs.extend(designs_of("firepath", &firepath));
    let synthetic = ArchSpec::synthetic(3, 4).functional_spec().unwrap();
    designs.extend(designs_of("synthetic-3x4", &synthetic));
    designs
}

/// A property's answer: verdict, induction depth or trace length.
fn code(outcome: &BmcOutcome) -> String {
    match outcome {
        BmcOutcome::Proved { induction_depth } => format!("P{induction_depth}"),
        BmcOutcome::Falsified(cex) => format!("F{}", cex.length()),
        BmcOutcome::Unknown { depth_checked } => format!("U{depth_checked}"),
    }
}

fn strategy_name(strategy: ProofStrategy) -> &'static str {
    match strategy {
        ProofStrategy::KInduction => "kinduction",
        ProofStrategy::Pdr => "pdr",
        ProofStrategy::Portfolio => "portfolio",
    }
}

#[test]
fn every_answer_matches_the_pinned_table() {
    let mut table = String::new();
    for (name, spec, netlist) in designs() {
        let mut header = true;
        for latency in [Latency::Combinational, Latency::Registered] {
            for quiet_cycles in 0..=2 {
                for strategy in [ProofStrategy::KInduction, ProofStrategy::Portfolio] {
                    let options = SequentialOptions {
                        strategy,
                        latency: Some(latency),
                        bmc: BmcOptions {
                            quiet_cycles,
                            ..Default::default()
                        },
                        ..Default::default()
                    };
                    let report = check_netlist_sequential_with(&spec, &netlist, &options).unwrap();
                    if header {
                        let names: Vec<&str> = report
                            .results
                            .iter()
                            .map(|r| r.property.name.as_str())
                            .collect();
                        writeln!(table, "# {name}: {}", names.join(" ")).unwrap();
                        header = false;
                    }
                    let codes: Vec<String> =
                        report.results.iter().map(|r| code(&r.outcome)).collect();
                    writeln!(
                        table,
                        "{name} | {latency:?} q{quiet_cycles} {} | {}",
                        strategy_name(strategy),
                        codes.join(" ")
                    )
                    .unwrap();
                }
            }
        }
    }
    let pinned: Vec<&str> = PINNED.lines().collect();
    let computed: Vec<&str> = table.lines().collect();
    for (line, (pinned, computed)) in pinned.iter().zip(&computed).enumerate() {
        assert_eq!(computed, pinned, "line {} of the pinned table", line + 1);
    }
    assert_eq!(computed.len(), pinned.len(), "table length");
    // The table is worth pinning: it holds proofs beyond k = 0.
    assert!(PINNED.contains(" P1") && PINNED.contains(" P2"));
}

#[test]
fn base_only_runs_prove_nothing() {
    let options = BmcOptions {
        induction: false,
        ..Default::default()
    };
    for (name, spec, netlist) in designs() {
        for latency in [Latency::Combinational, Latency::Registered] {
            let properties = SequentialProperty::both_directions(&spec, latency);
            let binding = Binding::new(&spec, &netlist);
            let (results, _) = check_properties(&binding, &properties, &options, Some(2)).unwrap();
            for result in results {
                assert!(
                    !result.outcome.is_proved(),
                    "{name} {}: {:?}",
                    result.property.name,
                    result.outcome
                );
                // One base query per depth checked, and no other.
                let depths = match result.outcome {
                    BmcOutcome::Falsified(cex) => cex.length(),
                    _ => options.max_depth + 1,
                } - latency.first_instance();
                assert_eq!(result.stats.solve_calls, depths, "{name}");
            }
        }
    }
}

#[test]
fn every_k_induction_proof_survives_base_only_bmc() {
    for (name, spec, netlist) in designs() {
        for latency in [Latency::Combinational, Latency::Registered] {
            let properties = SequentialProperty::both_directions(&spec, latency);
            let binding = Binding::new(&spec, &netlist);
            for quiet_cycles in 0..=3 {
                let options = BmcOptions {
                    quiet_cycles,
                    ..BmcOptions::with_depth(10)
                };
                let base_only = BmcOptions {
                    induction: false,
                    ..options
                };
                let (proofs, _) = check_properties(&binding, &properties, &options, None).unwrap();
                let (bounded, _) =
                    check_properties(&binding, &properties, &base_only, None).unwrap();
                for (proof, bounded) in proofs.iter().zip(&bounded) {
                    if let (BmcOutcome::Proved { .. }, Some(cex)) =
                        (&proof.outcome, bounded.outcome.counterexample())
                    {
                        panic!(
                            "{name} {latency:?} q{quiet_cycles} {}: k-induction answers {}, \
                             but a quiet {}-frame trace violates it",
                            proof.property.name,
                            code(&proof.outcome),
                            cex.length()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_cancelled_check_asks_no_query() {
    let cancel = AtomicBool::new(true);
    for (name, spec, netlist) in designs() {
        for strategy in [ProofStrategy::KInduction, ProofStrategy::Portfolio] {
            let options = SequentialOptions {
                strategy,
                ..Default::default()
            };
            let latency = Binding::new(&spec, &netlist).latency();
            for property in SequentialProperty::both_directions(&spec, latency) {
                let (result, certificate) = check_property_job(
                    &spec,
                    &netlist,
                    &property,
                    &options,
                    Some(&cancel),
                    &Tracer::disabled(),
                )
                .unwrap();
                assert!(
                    matches!(result.outcome, BmcOutcome::Unknown { .. }),
                    "{name} {}: {:?}",
                    property.name,
                    result.outcome
                );
                assert_eq!(result.stats.solve_calls, 0, "{name} {}", property.name);
                assert!(certificate.is_none());
            }
        }
    }
}
