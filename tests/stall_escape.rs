//! The stall-escape check's fast path: under k-induction and the
//! portfolio, the checker answers it with one query on k-induction's free
//! unrolling ("some stage stays stalled throughout the window") and runs
//! the per-stage check only when that query is satisfiable. Its reports
//! must equal the per-stage check's (`check_stall_escape`) field by field,
//! stuck states included, for every design and window.

use ipcl::bmc::check_stall_escape;
use ipcl::checker::{check_netlist_sequential_with, BmcOptions, ProofStrategy, SequentialOptions};
use ipcl::core::example::ExampleArch;
use ipcl::core::{ArchSpec, FunctionalSpec};
use ipcl::pdr::deep::deep_pipeline;
use ipcl::pipesim::BrokenVariant;
use ipcl::rtl::Netlist;
use ipcl::synth::{synthesize_broken_interlock, synthesize_interlock_with, SynthesisOptions};

/// The correct interlocks of `spec` at both synthesis latencies, a
/// registered one with wrong reset values, and the `BrokenVariant`s.
fn designs_of(arch: &str, spec: &FunctionalSpec) -> Vec<(String, FunctionalSpec, Netlist)> {
    let mut designs = Vec::new();
    for (registered_outputs, reset_value) in [(false, true), (true, true), (true, false)] {
        let options = SynthesisOptions {
            registered_outputs,
            reset_value,
            ..Default::default()
        };
        let netlist = synthesize_interlock_with(spec, options).netlist().clone();
        let name = format!("{arch} registered={registered_outputs} reset={reset_value}");
        designs.push((name, spec.clone(), netlist));
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

/// The paper example with a hand-built interlock in which only the last
/// stage can stay stalled: every other `moe` is constant high, and the
/// last one is a register that keeps its value, so a state with it low
/// never escapes.
fn only_the_last_stage_sticks() -> (String, FunctionalSpec, Netlist) {
    let spec = ExampleArch::new().functional_spec();
    let mut netlist = Netlist::new("last_stage_sticks");
    let (last, others) = spec.stages().split_last().expect("stages");
    for stage in others {
        let name = spec.pool().name_or_fallback(stage.moe);
        let moe = netlist.constant(&name, true);
        netlist.mark_output(moe);
    }
    let name = spec.pool().name_or_fallback(last.moe);
    let stuck = netlist.register(&name, true);
    netlist.connect_register(stuck, stuck).unwrap();
    netlist.mark_output(stuck);
    ("last stage sticks".to_owned(), spec, netlist)
}

fn designs() -> Vec<(String, FunctionalSpec, Netlist)> {
    let mut designs = designs_of("paper", &ExampleArch::new().functional_spec());
    let firepath = ArchSpec::firepath_like().functional_spec().unwrap();
    designs.extend(designs_of("firepath", &firepath));
    let synthetic = ArchSpec::synthetic(3, 4).functional_spec().unwrap();
    designs.extend(designs_of("synthetic-3x4", &synthetic));
    for depth in 4..=14 {
        let (spec, netlist) = deep_pipeline(depth);
        designs.push((format!("deep_pipeline({depth})"), spec, netlist));
    }
    designs.push(only_the_last_stage_sticks());
    designs
}

#[test]
fn the_checkers_stall_escape_reports_equal_the_per_stage_check() {
    let mut stuck = 0;
    for (name, spec, netlist) in designs() {
        for escape_cycles in 1..=3 {
            let expected = check_stall_escape(&spec, &netlist, escape_cycles).unwrap();
            stuck += expected.iter().filter(|report| !report.escapable).count();
            for strategy in [ProofStrategy::KInduction, ProofStrategy::Portfolio] {
                let options = SequentialOptions {
                    strategy,
                    // Deep enough for k-induction to decide every deep chain,
                    // so the portfolio starts no PDR run.
                    bmc: BmcOptions::with_depth(16),
                    escape_cycles,
                    ..Default::default()
                };
                let report = check_netlist_sequential_with(&spec, &netlist, &options).unwrap();
                assert_eq!(
                    report.stall_escape, expected,
                    "{name}, {strategy:?}, {escape_cycles} cycles"
                );
            }
        }
    }
    assert!(stuck > 0, "some design can stay stalled");
}
