//! The portfolio strategy runs k-induction over the whole property list,
//! then PDR on each property it leaves open, on the caller's thread.
//!
//! * **Reproducible.** The same check gives the same report every time:
//!   verdicts, stats, counterexample renders and certificates.
//! * **One thread.** A traced check records every span and event on the
//!   caller's thread.
//! * **Agreement.** Both engines decide the unconditional property, so the
//!   portfolio's verdict on every property is PDR's.

use std::fmt::Write as _;

use ipcl::checker::{
    check_netlist_sequential_with, Engine, ProofStrategy, SequentialOptions, SequentialReport,
    TraceConfig,
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
            trace: TraceConfig::enabled(),
            ..SequentialOptions::from(Engine::Portfolio)
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
