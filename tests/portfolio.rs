//! The portfolio strategy runs k-induction over the whole property list,
//! then PDR on each property it leaves open, on the caller's thread.
//!
//! * **Reproducible.** The same check gives the same report every time:
//!   verdicts, stats, counterexample renders and certificates.
//! * **One thread.** A traced check records every span and event on the
//!   caller's thread.
//! * **Agreement.** Both engines decide the unconditional property, so the
//!   portfolio's verdict on every property is PDR's.
//! * **Who decides.** A falsification within the depth bound is
//!   k-induction's, with its trace and no certificate; a property
//!   k-induction leaves open gets PDR's certified proof; once the cancel
//!   flag is set, no PDR run starts.

use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;

use ipcl::bmc::{check_properties, Binding};
use ipcl::checker::{
    check_netlist_sequential_with, check_property_job, BmcOptions, BmcOutcome, Latency,
    ProofStrategy, PropertyKind, SequentialOptions, SequentialProperty, SequentialReport,
    TraceConfig, Tracer,
};
use ipcl::core::example::ExampleArch;
use ipcl::core::{ArchSpec, FunctionalSpec};
use ipcl::pdr::deep::deep_pipeline;
use ipcl::pipesim::BrokenVariant;
use ipcl::rtl::Netlist;
use ipcl::synth::{synthesize_broken_interlock, synthesize_interlock_with, SynthesisOptions};

fn options(strategy: ProofStrategy) -> SequentialOptions {
    SequentialOptions {
        strategy,
        deadlock: false,
        ..Default::default()
    }
}

/// The paper example with each `BrokenVariant` synthesized in.
fn broken_variants() -> Vec<(String, FunctionalSpec, Netlist)> {
    let spec = ExampleArch::new().functional_spec();
    [
        BrokenVariant::IgnoreScoreboard,
        BrokenVariant::IgnoreCompletionGrant,
        BrokenVariant::BadResetValues { cycles: 2 },
    ]
    .into_iter()
    .map(|variant| {
        let netlist = synthesize_broken_interlock(&spec, variant)
            .netlist()
            .clone();
        (format!("paper {variant:?}"), spec.clone(), netlist)
    })
    .collect()
}

/// A correct interlock of `arch`, with plain or registered `moe` outputs.
fn preset(name: &str, arch: ArchSpec, registered: bool) -> (String, FunctionalSpec, Netlist) {
    let spec = arch.functional_spec().unwrap();
    let options = SynthesisOptions {
        registered_outputs: registered,
        reset_value: true,
        ..Default::default()
    };
    let netlist = synthesize_interlock_with(&spec, options).netlist().clone();
    (format!("{name} registered={registered}"), spec, netlist)
}

/// What a report says about its properties, as text.
fn render(report: &SequentialReport) -> String {
    let mut out = String::new();
    for result in &report.results {
        let name = &result.property.name;
        writeln!(out, "{name}: {:?} {:?}", result.outcome, result.stats).unwrap();
        if let Some(cex) = result.outcome.counterexample() {
            writeln!(out, "{}", cex.render()).unwrap();
        }
    }
    for (name, certificate) in &report.certificates {
        writeln!(out, "certificate {name}:\n{}", certificate.render()).unwrap();
    }
    out
}

#[test]
fn portfolio_reports_are_reproducible() {
    let mut designs = broken_variants();
    designs.push(preset("firepath", ArchSpec::firepath_like(), true));
    for (name, spec, netlist) in designs {
        let runs: Vec<String> = (0..3)
            .map(|_| {
                let options = options(ProofStrategy::Portfolio);
                render(&check_netlist_sequential_with(&spec, &netlist, &options).unwrap())
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{name}: runs 1 and 2 differ");
        assert_eq!(runs[0], runs[2], "{name}: runs 1 and 3 differ");
    }
}

#[test]
fn a_traced_portfolio_check_stays_on_the_callers_thread() {
    let (deep_spec, deep_netlist) = deep_pipeline(12);
    let (_, spec, netlist) = preset("firepath", ArchSpec::firepath_like(), true);
    for (spec, netlist) in [(&spec, &netlist), (&deep_spec, &deep_netlist)] {
        let options = SequentialOptions {
            strategy: ProofStrategy::Portfolio,
            trace: TraceConfig::enabled(),
            ..Default::default()
        };
        let report = check_netlist_sequential_with(spec, netlist, &options).unwrap();
        let snapshot = report.trace.expect("tracing was enabled");
        // A span opened on any other thread would root its own tree.
        for span in &snapshot.spans {
            assert_eq!(span.path[0], "checker.sequential", "{:?}", span.path);
        }
        // The first event is the checker's own span, on the caller's thread.
        let first = &snapshot.events[0];
        assert_eq!(first.kind, "span_enter");
        assert_eq!(
            first.field("name"),
            Some(&ipcl::trace::Value::from("checker.sequential"))
        );
        for event in &snapshot.events {
            assert_eq!(event.thread, first.thread, "{event:?}");
        }
        assert!(
            snapshot.spans.iter().any(|s| s.path.len() > 2
                && s.path[1] == "portfolio.check"
                && s.path[2] == "bmc.check"),
            "the engines nest under the portfolio span"
        );
    }
}

#[test]
fn portfolio_verdicts_equal_pdr_verdicts() {
    let mut designs = broken_variants();
    for registered in [false, true] {
        designs.push(preset("paper", ArchSpec::paper_example(), registered));
        designs.push(preset("firepath", ArchSpec::firepath_like(), registered));
        designs.push(preset(
            "synthetic-2x3",
            ArchSpec::synthetic(2, 3),
            registered,
        ));
    }
    for depth in 8..=12 {
        let (spec, netlist) = deep_pipeline(depth);
        designs.push((format!("deep_pipeline({depth})"), spec, netlist));
    }
    let verdicts = |spec, netlist, strategy| -> Vec<(String, &'static str)> {
        check_netlist_sequential_with(spec, netlist, &options(strategy))
            .unwrap()
            .results
            .into_iter()
            .map(|r| {
                let verdict = if r.outcome.is_proved() {
                    "proved"
                } else if r.outcome.is_falsified() {
                    "falsified"
                } else {
                    "unknown"
                };
                (r.property.name, verdict)
            })
            .collect()
    };
    let mut checked = 0;
    for (name, spec, netlist) in &designs {
        let pdr = verdicts(spec, netlist, ProofStrategy::Pdr);
        let portfolio = verdicts(spec, netlist, ProofStrategy::Portfolio);
        assert_eq!(portfolio, pdr, "{name}");
        assert!(pdr.iter().all(|(_, v)| *v != "unknown"), "{name}: {pdr:?}");
        checked += pdr.len();
    }
    assert_eq!(designs.len(), 14);
    assert!(checked > 100, "{checked} properties");
}

#[test]
fn portfolio_falsifications_carry_k_inductions_trace() {
    let spec = ExampleArch::new().functional_spec();
    let broken = synthesize_broken_interlock(&spec, BrokenVariant::IgnoreScoreboard);
    let netlist = broken.netlist();
    let portfolio = options(ProofStrategy::Portfolio);
    let report = check_netlist_sequential_with(&spec, netlist, &portfolio).unwrap();
    // k-induction alone, at the portfolio's quiet_cycles: the trace render
    // of each property it falsifies.
    let k_induction = |properties: &[SequentialProperty]| -> Vec<Option<String>> {
        let options = BmcOptions {
            quiet_cycles: 0,
            ..BmcOptions::default()
        };
        check_properties(&Binding::new(&spec, netlist), properties, &options, None)
            .unwrap()
            .0
            .iter()
            .map(|result| result.outcome.counterexample().map(|cex| cex.render()))
            .collect()
    };
    let alone = k_induction(&SequentialProperty::both_directions(&spec, report.latency));
    assert_eq!(report.results.len(), alone.len());
    let mut falsified = 0;
    for (result, alone) in report.results.iter().zip(alone) {
        let name = &result.property.name;
        let Some(cex) = result.outcome.counterexample() else {
            assert!(result.outcome.is_proved(), "{name}: no verdict");
            continue;
        };
        falsified += 1;
        assert!(!report.certificates.contains_key(name), "{name}");
        assert_eq!(Some(cex.render()), alone, "{name}");

        // One property through the job entry point: k-induction's trace
        // for that property alone, and no certificate.
        let (job, certificate) = check_property_job(
            &spec,
            netlist,
            &result.property,
            &portfolio,
            None,
            &Tracer::disabled(),
        )
        .unwrap();
        assert!(certificate.is_none(), "{name}");
        assert_eq!(
            job.outcome.counterexample().map(|cex| cex.render()),
            k_induction(std::slice::from_ref(&result.property)).remove(0),
            "{name}"
        );
    }
    assert!(falsified > 0);
}

/// The deep-chain-12 stage-0 performance property, which k-induction
/// cannot prove at depth 6.
fn deep_chain_property() -> (FunctionalSpec, Netlist, SequentialProperty) {
    let (spec, netlist) = deep_pipeline(12);
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Performance, Latency::Combinational);
    (spec, netlist, property)
}

#[test]
fn portfolio_proves_a_deep_chain_with_a_certificate() {
    let (spec, netlist, property) = deep_chain_property();
    let check = |strategy| {
        let options = SequentialOptions {
            bmc: BmcOptions::with_depth(6),
            ..options(strategy)
        };
        check_property_job(
            &spec,
            &netlist,
            &property,
            &options,
            None,
            &Tracer::disabled(),
        )
        .unwrap()
    };
    let (alone, _) = check(ProofStrategy::KInduction);
    assert!(matches!(alone.outcome, BmcOutcome::Unknown { .. }));
    let (result, certificate) = check(ProofStrategy::Portfolio);
    assert!(result.outcome.is_proved(), "{:?}", result.outcome);
    assert!(!certificate.expect("PDR proved it").is_trivial());
}

#[test]
fn a_cancelled_portfolio_starts_no_pdr_run() {
    let (spec, netlist, _) = deep_chain_property();
    let options = SequentialOptions {
        bmc: BmcOptions::with_depth(6),
        ..options(ProofStrategy::Portfolio)
    };
    let cancel = AtomicBool::new(true);
    let tracer = Tracer::new(TraceConfig::enabled());
    for property in SequentialProperty::both_directions(&spec, Latency::Combinational) {
        let (result, certificate) =
            check_property_job(&spec, &netlist, &property, &options, Some(&cancel), &tracer)
                .unwrap();
        assert!(
            matches!(result.outcome, BmcOutcome::Unknown { .. }),
            "{}: {:?}",
            property.name,
            result.outcome
        );
        assert!(certificate.is_none(), "{}", property.name);
    }
    let snapshot = tracer.snapshot().expect("tracing was enabled");
    assert!(snapshot.spans.iter().any(|s| s.path == ["portfolio.check"]));
    assert!(
        snapshot
            .spans
            .iter()
            .all(|s| !s.path.iter().any(|name| name == "pdr.check")),
        "a cancelled portfolio ran PDR"
    );
}
