//! Differential tests of the shared k-induction run: deciding a property
//! list together over one pair of unrollings (`ipcl_bmc::check_properties`)
//! must give every property exactly what deciding it alone gives — the same
//! verdict, induction depth, trace length or checked depth — and every
//! trace must replay through the simulator. The lane fuzzer
//! (`ipcl_bmc::fuzz`) is checked against the same exhaustive run: whatever
//! it falsifies, bounded model checking falsifies too, with a trace no
//! longer than the fuzz's.

use ipcl::bmc::{
    check_properties, fuzz, BmcOptions, BmcOutcome, Latency, SequentialProperty, FUZZ_SEED,
};
use ipcl::core::example::ExampleArch;
use ipcl::core::{ArchSpec, FunctionalSpec};
use ipcl::pdr::deep::deep_pipeline;
use ipcl::pipesim::BrokenVariant;
use ipcl::rtl::Netlist;
use ipcl::synth::{synthesize_broken_interlock, synthesize_interlock_with, SynthesisOptions};
use ipcl::trace::Tracer;

/// What a property's outcome says, without the trace contents (the
/// solvers' models may legitimately differ between runs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Answer {
    Proved { induction_depth: usize },
    Falsified { length: usize },
    Unknown { depth_checked: usize },
}

fn answer(outcome: &BmcOutcome) -> Answer {
    match outcome {
        BmcOutcome::Proved { induction_depth } => Answer::Proved {
            induction_depth: *induction_depth,
        },
        BmcOutcome::Falsified(cex) => Answer::Falsified {
            length: cex.length(),
        },
        BmcOutcome::Unknown { depth_checked } => Answer::Unknown {
            depth_checked: *depth_checked,
        },
    }
}

/// Checks `properties` together and one by one, asserts the answers agree
/// and every trace replays, and returns the shared answers.
fn assert_shared_matches_alone(
    label: &str,
    spec: &FunctionalSpec,
    netlist: &Netlist,
    properties: &[SequentialProperty],
    options: &BmcOptions,
) -> Vec<Answer> {
    let tracer = Tracer::disabled();
    let shared = check_properties(spec, netlist, properties, options, None, &tracer).unwrap();
    assert_eq!(shared.len(), properties.len(), "{label}");
    let mut answers = Vec::new();
    for (property, together) in properties.iter().zip(&shared) {
        let alone = check_properties(
            spec,
            netlist,
            std::slice::from_ref(property),
            options,
            None,
            &tracer,
        )
        .unwrap()
        .pop()
        .unwrap();
        assert_eq!(together.property.name, property.name, "{label}");
        assert_eq!(
            answer(&together.outcome),
            answer(&alone.outcome),
            "{label}: {} ({:?})",
            property.name,
            property.latency
        );
        assert_eq!(
            together.stats.depth_reached, alone.stats.depth_reached,
            "{label}: {}",
            property.name
        );
        for result in [together, &alone] {
            if let BmcOutcome::Falsified(cex) = &result.outcome {
                let replay = cex.replay(spec, netlist, property).unwrap();
                assert!(
                    replay.violation_reproduced,
                    "{label}: {} did not replay:\n{}",
                    property.name,
                    cex.render()
                );
            }
        }
        answers.push(answer(&together.outcome));
    }
    answers
}

/// The option sets every design is checked under: both quiet-cycle
/// disciplines, with and without induction (`induction: false` is the
/// base-only sweep `ipcl-serve` runs on a batch).
fn option_sets(max_depth: usize) -> Vec<BmcOptions> {
    let mut sets = Vec::new();
    for quiet_cycles in [0, 1] {
        for induction in [true, false] {
            sets.push(BmcOptions {
                max_depth,
                quiet_cycles,
                induction,
                ..BmcOptions::default()
            });
        }
    }
    sets
}

/// The paper example and two synthetic shapes.
fn specs() -> Vec<(String, FunctionalSpec)> {
    let mut specs = vec![("paper".to_owned(), ExampleArch::new().functional_spec())];
    for (pipes, depth) in [(1, 3), (2, 2)] {
        let spec = ArchSpec::synthetic(pipes, depth)
            .functional_spec()
            .expect("synthetic architectures are well-formed");
        specs.push((format!("synthetic-{pipes}x{depth}"), spec));
    }
    specs
}

/// Correct combinational and registered interlocks plus the
/// `BrokenVariant` matrix.
fn designs(spec: &FunctionalSpec) -> Vec<(String, Netlist)> {
    let mut designs = Vec::new();
    for registered in [false, true] {
        let options = SynthesisOptions {
            registered_outputs: registered,
            reset_value: true,
            ..Default::default()
        };
        let netlist = synthesize_interlock_with(spec, options).netlist().clone();
        designs.push((format!("correct registered={registered}"), netlist));
    }
    for variant in [
        BrokenVariant::IgnoreScoreboard,
        BrokenVariant::IgnoreCompletionGrant,
        BrokenVariant::BadResetValues { cycles: 2 },
    ] {
        let netlist = synthesize_broken_interlock(spec, variant).netlist().clone();
        designs.push((format!("{variant:?}"), netlist));
    }
    designs
}

#[test]
fn shared_run_matches_single_property_runs_on_the_variant_matrix() {
    let mut falsified = 0;
    let mut proved = 0;
    for (arch, spec) in specs() {
        for (design, netlist) in designs(&spec) {
            for latency in [Latency::Combinational, Latency::Registered] {
                let properties = SequentialProperty::both_directions(&spec, latency);
                for options in option_sets(6) {
                    let label = format!(
                        "{arch} {design} {latency:?} quiet={} induction={}",
                        options.quiet_cycles, options.induction
                    );
                    for answer in
                        assert_shared_matches_alone(&label, &spec, &netlist, &properties, &options)
                    {
                        match answer {
                            Answer::Falsified { .. } => falsified += 1,
                            Answer::Proved { .. } => proved += 1,
                            Answer::Unknown { .. } => {}
                        }
                    }
                }
            }
        }
    }
    // The matrix exercises both verdicts, not just one.
    assert!(
        falsified > 0 && proved > 0,
        "{falsified} falsified, {proved} proved"
    );
}

/// Functional properties at combinational latency interleaved with
/// performance properties at registered latency: different first
/// instances, so the properties join the lockstep at different depths.
fn mixed_latencies(spec: &FunctionalSpec) -> Vec<SequentialProperty> {
    let combinational = SequentialProperty::both_directions(spec, Latency::Combinational);
    let registered = SequentialProperty::both_directions(spec, Latency::Registered);
    let half = combinational.len() / 2;
    combinational[..half]
        .iter()
        .zip(&registered[half..])
        .flat_map(|(c, r)| [r.clone(), c.clone()])
        .collect()
}

#[test]
fn shared_run_matches_single_property_runs_on_mixed_latencies() {
    for (arch, spec) in specs() {
        for (design, netlist) in designs(&spec) {
            let mixed = mixed_latencies(&spec);
            for options in option_sets(6) {
                let label = format!(
                    "{arch} {design} mixed quiet={} induction={}",
                    options.quiet_cycles, options.induction
                );
                assert_shared_matches_alone(&label, &spec, &netlist, &mixed, &options);
            }
        }
    }
}

#[test]
fn fuzz_candidates_replay_and_bounded_model_checking_confirms_them() {
    const CYCLES: u64 = 200;
    let tracer = Tracer::disabled();
    for (arch, spec) in specs() {
        for (design, netlist) in designs(&spec) {
            let broken = !design.starts_with("correct");
            let own_latency = Latency::detect(&spec, &netlist);
            let lists = [
                (
                    "combinational",
                    SequentialProperty::both_directions(&spec, Latency::Combinational),
                ),
                (
                    "registered",
                    SequentialProperty::both_directions(&spec, Latency::Registered),
                ),
                ("mixed", mixed_latencies(&spec)),
            ];
            for (list, properties) in lists {
                let label = format!("{arch} {design} {list}");
                let candidates = fuzz(&spec, &netlist, &properties, CYCLES, FUZZ_SEED).unwrap();
                assert_eq!(candidates.len(), properties.len(), "{label}");
                assert_eq!(
                    candidates,
                    fuzz(&spec, &netlist, &properties, CYCLES, FUZZ_SEED).unwrap(),
                    "{label}: the same seed must give the same candidates"
                );
                if broken {
                    assert!(
                        candidates.iter().any(Option::is_some),
                        "{label}: no candidate in {CYCLES} cycles"
                    );
                } else if properties.iter().all(|p| p.latency == own_latency) {
                    assert!(
                        candidates.iter().all(Option::is_none),
                        "{label}: a correct design at its own latency has no violation"
                    );
                }
                for (property, candidate) in properties.iter().zip(&candidates) {
                    let Some(cex) = candidate else { continue };
                    assert_eq!(cex.property, property.name, "{label}");
                    assert_eq!(cex.violation_frame, cex.length() - 1, "{label}");
                    let replay = cex.replay(&spec, &netlist, property).unwrap();
                    assert!(
                        replay.violation_reproduced,
                        "{label}: {} did not replay:\n{}",
                        property.name,
                        cex.render()
                    );
                    let options = BmcOptions {
                        max_depth: cex.length() - 1,
                        quiet_cycles: 0,
                        induction: false,
                        ..BmcOptions::default()
                    };
                    let exhaustive = check_properties(
                        &spec,
                        &netlist,
                        std::slice::from_ref(property),
                        &options,
                        None,
                        &tracer,
                    )
                    .unwrap()
                    .pop()
                    .unwrap();
                    match &exhaustive.outcome {
                        BmcOutcome::Falsified(minimal) => assert!(
                            minimal.length() <= cex.length(),
                            "{label}: {} minimal trace {} > fuzz trace {}",
                            property.name,
                            minimal.length(),
                            cex.length()
                        ),
                        other => panic!(
                            "{label}: fuzz falsified {} but BMC says {other:?}",
                            property.name
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn shared_run_matches_single_property_runs_on_deep_chains() {
    // Deep wait-state chains need deep induction (k grows with the chain)
    // and are undecided under a shallow bound.
    let mut deepest_k = 0;
    let mut unknown = 0;
    for n in 4..=8 {
        let (spec, netlist) = deep_pipeline(n);
        let latency = Latency::detect(&spec, &netlist);
        let properties = SequentialProperty::both_directions(&spec, latency);
        for max_depth in [3, 10] {
            for options in option_sets(max_depth) {
                let label = format!(
                    "deep_pipeline({n}) max_depth={max_depth} quiet={} induction={}",
                    options.quiet_cycles, options.induction
                );
                for answer in
                    assert_shared_matches_alone(&label, &spec, &netlist, &properties, &options)
                {
                    match answer {
                        Answer::Proved { induction_depth } => {
                            deepest_k = deepest_k.max(induction_depth)
                        }
                        Answer::Unknown { .. } => unknown += 1,
                        Answer::Falsified { .. } => {}
                    }
                }
            }
        }
    }
    assert!(deepest_k >= 5, "deepest induction depth {deepest_k}");
    assert!(unknown > 0, "a shallow bound leaves deep chains undecided");
}

#[test]
fn an_empty_property_list_decides_nothing() {
    let spec = ExampleArch::new().functional_spec();
    let netlist = synthesize_interlock_with(&spec, SynthesisOptions::default())
        .netlist()
        .clone();
    let results = check_properties(
        &spec,
        &netlist,
        &[],
        &BmcOptions::default(),
        None,
        &Tracer::disabled(),
    )
    .unwrap();
    assert!(results.is_empty());
}
