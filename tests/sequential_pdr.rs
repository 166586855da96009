//! Integration tests of the PDR engine and portfolio checker (ISSUE 2).
//!
//! The exhaustive matrix: every `pipesim::BrokenVariant` synthesized to a
//! netlist is falsified by **both** the BMC and PDR strategies (and by the
//! portfolio) with simulator-replayable counterexamples; every unbroken
//! preset — the paper example, the FirePath-like configuration and a
//! synthetic scaling point — is proved by PDR with a validated
//! inductive-invariant certificate. Plus the acceptance criterion of the
//! issue: a correct property that defeats k-induction for every `k ≤ 10`
//! but that PDR proves outright.

use ipcl::checker::{
    check_netlist_sequential, check_netlist_sequential_with, Engine, Latency, ProofStrategy,
    SequentialOptions, SequentialReport,
};
use ipcl::core::example::ExampleArch;
use ipcl::core::{ArchSpec, FunctionalSpec};
use ipcl::pdr::deep::deep_pipeline;
use ipcl::pdr::{check_property_pdr, PdrOptions, PdrOutcome};
use ipcl::pipesim::BrokenVariant;
use ipcl::rtl::Netlist;
use ipcl::synth::{synthesize_broken_interlock, synthesize_interlock};
use ipcl_bmc::{check_property, BmcOptions, BmcOutcome, PropertyKind, SequentialProperty};

fn example_spec() -> FunctionalSpec {
    ExampleArch::new().functional_spec()
}

fn assert_replayable(spec: &FunctionalSpec, netlist: &Netlist, report: &SequentialReport) {
    let counterexamples = report.counterexamples();
    assert!(!counterexamples.is_empty(), "expected a falsification");
    for result in counterexamples {
        let cex = result.outcome.counterexample().unwrap();
        let replay = cex.replay(spec, netlist, &result.property).unwrap();
        assert!(
            replay.violation_reproduced,
            "{} did not replay:\n{}",
            result.property.name,
            cex.render()
        );
    }
}

/// Every broken variant × every sequential strategy: falsified with
/// replayable traces. (BMC with `Engine::Bmc` is already covered by
/// `sequential_bmc.rs`; here the same bugs must fall to PDR and to the
/// portfolio.)
#[test]
fn every_broken_variant_is_falsified_by_bmc_pdr_and_portfolio() {
    let spec = example_spec();
    for variant in [
        BrokenVariant::IgnoreScoreboard,
        BrokenVariant::IgnoreCompletionGrant,
        BrokenVariant::BadResetValues { cycles: 2 },
    ] {
        let broken = synthesize_broken_interlock(&spec, variant);
        for strategy in [
            ProofStrategy::KInduction,
            ProofStrategy::Pdr,
            ProofStrategy::Portfolio,
        ] {
            let options = SequentialOptions {
                strategy,
                bmc: BmcOptions::with_depth(6),
                deadlock: false,
                ..Default::default()
            };
            let report = check_netlist_sequential_with(&spec, broken.netlist(), &options).unwrap();
            assert!(
                report.falsified(),
                "{variant:?} must be falsified by {strategy:?}"
            );
            assert_replayable(&spec, broken.netlist(), &report);
        }
    }
}

/// Every unbroken preset is proved by PDR, and every proved property ships
/// a certificate that passed the independent initiation/consecution/safety
/// validation (the engine panics on a failing certificate, so presence in
/// the report implies validation succeeded; re-validate one explicitly to
/// keep the contract visible).
#[test]
fn every_unbroken_preset_is_proved_by_pdr_with_validated_certificates() {
    let presets: Vec<(&str, FunctionalSpec)> = vec![
        (
            "paper_example",
            ArchSpec::paper_example().functional_spec().unwrap(),
        ),
        (
            "firepath_like",
            ArchSpec::firepath_like().functional_spec().unwrap(),
        ),
        (
            "synthetic(3,4)",
            ArchSpec::synthetic(3, 4).functional_spec().unwrap(),
        ),
    ];
    for (name, spec) in presets {
        let synthesized = synthesize_interlock(&spec);
        let options = SequentialOptions {
            deadlock: false,
            ..SequentialOptions::from(Engine::Pdr)
        };
        let report = check_netlist_sequential_with(&spec, synthesized.netlist(), &options).unwrap();
        assert!(
            report.results.iter().all(|r| r.outcome.is_proved()),
            "{name}: not all properties proved"
        );
        assert_eq!(
            report.certificates.len(),
            report.results.len(),
            "{name}: every proof carries a certificate"
        );
        // Spot re-validation, from the report's data alone.
        let (property_name, certificate) = report.certificates.iter().next().unwrap();
        let property = report
            .results
            .iter()
            .find(|r| &r.property.name == property_name)
            .map(|r| r.property.clone())
            .unwrap();
        let check = certificate
            .validate(&spec, synthesized.netlist(), &property)
            .unwrap();
        assert!(check.ok(), "{name}: {check}");
    }
}

/// The ISSUE acceptance criterion: a correct-interlock property where
/// k-induction fails for all k ≤ 10 while PDR proves it with a validated,
/// non-trivial certificate — and the portfolio returns that proof.
#[test]
fn pdr_proves_where_k_induction_fails_for_all_k_up_to_10() {
    let (spec, netlist) = deep_pipeline(13);
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Performance, Latency::Combinational);

    // k-induction: stuck at every k ≤ 10.
    let bmc = check_property(&spec, &netlist, &property, &BmcOptions::with_depth(10)).unwrap();
    let BmcOutcome::Unknown { depth_checked } = bmc.outcome else {
        panic!(
            "k-induction must not decide the deep chain: {:?}",
            bmc.outcome
        );
    };
    assert_eq!(depth_checked, 10);

    // PDR: unbounded proof with a real (non-trivial) invariant.
    let pdr = check_property_pdr(&spec, &netlist, &property, &PdrOptions::default()).unwrap();
    let PdrOutcome::Proved { certificate, .. } = &pdr.outcome else {
        panic!("PDR must prove the deep chain: {:?}", pdr.outcome);
    };
    assert!(!certificate.is_trivial());
    assert!(pdr.validation.unwrap().ok());
    let check = certificate.validate(&spec, &netlist, &property).unwrap();
    assert!(check.ok(), "{check}");

    // The full sequential flow with Engine::Portfolio agrees.
    let options = SequentialOptions {
        deadlock: false,
        bmc: BmcOptions::with_depth(6),
        ..SequentialOptions::from(Engine::Portfolio)
    };
    let report = check_netlist_sequential_with(&spec, &netlist, &options).unwrap();
    assert!(report.proved(), "{:?}", report.results);
    assert!(report.certificates.contains_key(&property.name));
}

/// Determinism across the new solver heuristics (ISSUE 3): two runs with
/// the same `SolverConfig` — including variants that stress the heap,
/// minimization, aggressive database reduction and both restart schedules
/// — produce byte-identical verdicts, counterexample traces and
/// certificates.
#[test]
fn solver_config_variants_are_deterministic() {
    use ipcl::sat::{RestartStrategy, SolverConfig};

    let spec = example_spec();
    let correct = synthesize_interlock(&spec);
    let broken = synthesize_broken_interlock(&spec, BrokenVariant::IgnoreScoreboard);
    let (deep_spec, deep_netlist) = deep_pipeline(8);
    let deep_property = SequentialProperty::for_stage(
        &deep_spec,
        0,
        PropertyKind::Performance,
        Latency::Combinational,
    );

    let variants = [
        ("optimized", SolverConfig::default()),
        (
            "stress-reduction",
            SolverConfig {
                reduce_base: 1,
                restart: RestartStrategy::Luby { unit: 1 },
                ..SolverConfig::default()
            },
        ),
        ("baseline", SolverConfig::baseline()),
    ];
    for (name, solver) in variants {
        // PDR proof of the deep chain: identical certificate text.
        let pdr_options = PdrOptions {
            solver,
            ..PdrOptions::default()
        };
        let renders: Vec<String> = (0..2)
            .map(|_| {
                let result =
                    check_property_pdr(&deep_spec, &deep_netlist, &deep_property, &pdr_options)
                        .unwrap();
                let PdrOutcome::Proved { certificate, .. } = &result.outcome else {
                    panic!("{name}: deep chain must be proved");
                };
                certificate.render()
            })
            .collect();
        assert_eq!(renders[0], renders[1], "{name}: certificates diverge");

        // Full sequential runs: identical verdicts and traces.
        let options = SequentialOptions {
            bmc: BmcOptions {
                solver,
                ..BmcOptions::with_depth(6)
            },
            pdr: pdr_options,
            deadlock: false,
            strategy: ProofStrategy::KInduction,
            ..Default::default()
        };
        let reports: Vec<SequentialReport> = (0..2)
            .map(|_| check_netlist_sequential_with(&spec, broken.netlist(), &options).unwrap())
            .collect();
        assert!(reports[0].falsified(), "{name}: bug must be found");
        let traces: Vec<Vec<String>> = reports
            .iter()
            .map(|report| {
                report
                    .results
                    .iter()
                    .map(|r| match r.outcome.counterexample() {
                        Some(cex) => format!("{}: {}", r.property.name, cex.render()),
                        None => format!("{}: clean", r.property.name),
                    })
                    .collect()
            })
            .collect();
        assert_eq!(traces[0], traces[1], "{name}: traces diverge");

        let proved: Vec<Vec<bool>> = (0..2)
            .map(|_| {
                check_netlist_sequential_with(&spec, correct.netlist(), &options)
                    .unwrap()
                    .results
                    .iter()
                    .map(|r| r.outcome.is_proved())
                    .collect()
            })
            .collect();
        assert_eq!(proved[0], proved[1], "{name}: proof verdicts diverge");
        assert!(proved[0].iter().all(|&p| p), "{name}: must prove correct");
    }
}

/// `Engine::Pdr` and `Engine::Bmc` agree on the paper example end to end
/// (proved properties, reset verdicts, stall-escape verdicts).
#[test]
fn pdr_and_k_induction_agree_on_the_paper_example() {
    let spec = example_spec();
    let synthesized = synthesize_interlock(&spec);
    let bmc = check_netlist_sequential(&spec, synthesized.netlist(), Engine::Bmc { k: 6 }).unwrap();
    let pdr = check_netlist_sequential(&spec, synthesized.netlist(), Engine::Pdr).unwrap();
    assert_eq!(bmc.proved(), pdr.proved());
    assert_eq!(bmc.results.len(), pdr.results.len());
    for (b, p) in bmc.results.iter().zip(&pdr.results) {
        assert_eq!(
            b.outcome.is_proved(),
            p.outcome.is_proved(),
            "{} vs {}",
            b.property.name,
            p.property.name
        );
    }
}
