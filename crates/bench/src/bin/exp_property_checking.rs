//! Experiment E6 (Results): exhaustive property checking of injected bugs.
//!
//! Builds a matrix of interlock implementations — the derived one, a set of
//! over-conservative variants (performance bugs) and under-constrained
//! variants (functional bugs), plus a registered implementation with wrong
//! reset values — and checks each against the functional and performance
//! specifications with both the BDD and the SAT engine. Property checking
//! finds every injected bug, including those a simulation run can miss.
//!
//! The run is a check: it exits non-zero unless both engines agree row by
//! row, every verdict and reset count is the expected one, and every
//! printed witness falsifies its implication under [`Expr::eval`].

use std::collections::BTreeMap;

use ipcl_bench::{buggy_implementation, performance_bug_matrix};
use ipcl_checker::{
    check_moe_expressions, check_netlist, check_reset_values, Engine, SpecDirection,
};
use ipcl_core::fixpoint::derive_symbolic;
use ipcl_core::{ArchSpec, FunctionalSpec};
use ipcl_expr::{Assignment, Expr, VarId};
use ipcl_synth::{synthesize_interlock_with, SynthesisOptions};

/// Whether `witness` falsifies the `direction` implication of the stage
/// with prefix `stage` under [`Expr::eval`]: every specification variable
/// takes its witness value (unset ones are false), except that each `moe`
/// takes its value in `implementation`, evaluated until the values settle
/// (one round per stage suffices for the acyclic implementations here).
fn falsifies(
    spec: &FunctionalSpec,
    implementation: &BTreeMap<VarId, Expr>,
    stage: &str,
    direction: SpecDirection,
    witness: &Assignment,
) -> bool {
    let mut env = Assignment::new();
    for var in spec.pool().ids() {
        env.set(var, witness.get_or_false(var));
    }
    for _ in 0..=spec.stages().len() {
        for (&moe, expr) in implementation {
            let value = expr.eval(&env).expect("every variable is set");
            env.set(moe, value);
        }
    }
    let stage = spec
        .stages()
        .iter()
        .find(|s| s.stage.prefix() == stage)
        .expect("witness stages are declared");
    let stalled = Expr::not(Expr::var(stage.moe));
    let implication = match direction {
        SpecDirection::Performance => Expr::implies(stalled, stage.condition()),
        _ => Expr::implies(stage.condition(), stalled),
    };
    implication.eval(&env) == Ok(false)
}

fn main() {
    let spec = ArchSpec::paper_example()
        .functional_spec()
        .expect("valid architecture");

    // The implementations: the derived (correct) interlock, injected
    // performance bugs (over-conservative interlocks) and injected
    // functional bugs (missing stalls), each with the direction whose
    // witness its row prints.
    let mut implementations = vec![(
        "derived-maximal".to_owned(),
        derive_symbolic(&spec).moe,
        SpecDirection::Functional,
    )];
    for (label, stage, condition) in performance_bug_matrix(&spec) {
        let implementation = buggy_implementation(&spec, &stage, condition);
        implementations.push((label, implementation, SpecDirection::Performance));
    }
    let mut missing_completion = derive_symbolic(&spec).moe;
    let long4 = spec
        .moe_var(&ipcl_core::model::StageRef::new("long", 4))
        .expect("long.4 exists");
    missing_completion.insert(long4, Expr::TRUE);
    implementations.push((
        "ignore-completion-grant".to_owned(),
        missing_completion,
        SpecDirection::Functional,
    ));
    let mut missing_scoreboard = derive_symbolic(&spec).moe;
    let long1 = spec
        .moe_var(&ipcl_core::model::StageRef::new("long", 1))
        .expect("long.1 exists");
    let outstanding = spec
        .pool()
        .lookup("long.1.operand_outstanding")
        .expect("abstract operand signal");
    let original = missing_scoreboard[&long1].clone();
    missing_scoreboard.insert(long1, Expr::or([original, Expr::var(outstanding)]));
    implementations.push((
        "ignore-scoreboard".to_owned(),
        missing_scoreboard,
        SpecDirection::Functional,
    ));

    println!("# Exhaustive property checking of injected bugs\n");
    ipcl_bench::header(&[
        "implementation",
        "engine",
        "functional spec",
        "performance spec",
        "counterexample",
    ]);
    // Per engine, each row's (functional, performance) verdict.
    let mut verdicts = Vec::new();
    for engine in Engine::ALL {
        let mut rows = Vec::new();
        for (label, implementation, direction) in &implementations {
            let report = check_moe_expressions(&spec, implementation, engine);
            let violations = match direction {
                SpecDirection::Performance => report.performance_violations(),
                _ => report.functional_violations(),
            };
            let verdict = (
                report.holds_direction(SpecDirection::Functional),
                report.holds_direction(SpecDirection::Performance),
            );
            ipcl_bench::row(&[
                label.clone(),
                engine.name().into(),
                holds(verdict.0),
                holds(verdict.1),
                violations
                    .first()
                    .map(|(stage, w)| format!("{stage}: {}", w.display_with(spec.pool())))
                    .unwrap_or_else(|| "-".into()),
            ]);
            if let Some((stage, witness)) = violations.first() {
                assert!(
                    falsifies(&spec, implementation, stage, *direction, witness),
                    "{label} ({}): the witness does not falsify {stage}'s {direction:?} implication",
                    engine.name()
                );
            }
            rows.push(verdict);
        }
        verdicts.push(rows);
    }

    // Reset-value bug in a registered (synthesised) implementation.
    println!("\n## Reset-value checks of registered implementations\n");
    ipcl_bench::header(&["implementation", "registers examined", "wrong reset values"]);
    let mut wrong_reset_values = Vec::new();
    for (label, reset_value) in [("correct-reset", true), ("wrong-reset", false)] {
        let synthesized = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value,
                ..Default::default()
            },
        );
        let report = check_reset_values(&spec, synthesized.netlist());
        ipcl_bench::row(&[
            label.into(),
            report.examined.to_string(),
            report.mismatches.len().to_string(),
        ]);
        wrong_reset_values.push(report.mismatches.len());
    }

    // Combinational synthesised netlist equivalence (E8 cross-check).
    let synthesized = ipcl_synth::synthesize_interlock(&spec);
    let netlist_report =
        check_netlist(&spec, synthesized.netlist(), Engine::Bdd).expect("outputs present");
    println!(
        "\nsynthesised combinational netlist equivalent to the combined spec: {}",
        netlist_report.holds()
    );

    // The table's claims: both engines agree row by row, every injected
    // bug is found in the direction it breaks, and only the reset bug has
    // wrong reset values.
    assert_eq!(verdicts[0], verdicts[1], "the BDD and SAT columns disagree");
    // (functional, performance): derived-maximal, the five conservative
    // variants, the two broken ones.
    let expected = [
        (true, true),
        (true, false),
        (true, false),
        (true, false),
        (true, false),
        (true, false),
        (false, false),
        (false, false),
    ];
    assert_eq!(verdicts[0], expected, "(functional, performance) per row");
    assert_eq!(wrong_reset_values, [0, 6]);
    assert!(netlist_report.holds());
}
fn holds(value: bool) -> String {
    if value {
        "holds".into()
    } else {
        "VIOLATED".into()
    }
}
