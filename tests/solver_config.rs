//! Property-based tests of the solver heuristics and the encoding: every
//! [`SolverConfig`] point of the matrix must agree with brute force on
//! random CNFs (monolithic *and* incremental streams), and the SAT
//! engine's satisfiability answers must agree with the BDD engine's on the
//! paper-example properties the sequential engines actually solve.

use proptest::prelude::*;

use ipcl::bdd::BddManager;
use ipcl::bmc::{Latency, PropertyKind, SequentialProperty};
use ipcl::core::example::ExampleArch;
use ipcl::expr::{Cnf, Expr, Lit};
use ipcl::sat::{is_satisfiable, SatResult, Solver, SolverConfig};

/// The named configuration points of the matrix: the default, database
/// reduction and restarts firing as often as they can, and phase saving
/// off.
fn config_matrix() -> Vec<(&'static str, SolverConfig)> {
    let default = SolverConfig::default();
    vec![
        ("default", default),
        (
            "reduce-aggressively",
            SolverConfig {
                reduce_base: 1,
                restart_unit: 1,
                ..default
            },
        ),
        (
            "no-phase-saving",
            SolverConfig {
                phase_saving: false,
                ..default
            },
        ),
    ]
}

/// A random clause set over up to 8 variables (small enough for brute
/// force, wide enough to hit units, binaries and ternaries).
fn arbitrary_clauses() -> impl Strategy<Value = (u32, Vec<Vec<(u32, bool)>>)> {
    let clause = proptest::collection::vec((0u32..8, any::<bool>()), 1..=3);
    (2u32..=8, proptest::collection::vec(clause, 1..=24)).prop_map(|(num_vars, clauses)| {
        // Fold the 0..8 literal universe onto the drawn variable count.
        let clauses = clauses
            .into_iter()
            .map(|clause| clause.into_iter().map(|(v, s)| (v % num_vars, s)).collect())
            .collect();
        (num_vars, clauses)
    })
}

fn build_cnf(num_vars: u32, clauses: &[Vec<(u32, bool)>]) -> Cnf {
    let mut cnf = Cnf::new(num_vars);
    for clause in clauses {
        cnf.add_clause(clause.iter().map(|&(v, s)| Lit::new(v, s)));
    }
    cnf
}

fn brute_force_sat(cnf: &Cnf) -> bool {
    (0u64..(1 << cnf.num_vars)).any(|mask| cnf.eval(|v| mask & (1 << v) != 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the configuration — database reduction and restarts firing
    /// constantly, or phase saving off — the verdict matches brute force
    /// and every model satisfies the formula.
    #[test]
    fn every_config_agrees_with_brute_force(input in arbitrary_clauses()) {
        let (num_vars, clauses) = input;
        let cnf = build_cnf(num_vars, &clauses);
        let expected = brute_force_sat(&cnf);
        for (name, config) in config_matrix() {
            let mut solver = Solver::from_cnf_with_config(&cnf, config);
            let result = solver.solve();
            prop_assert!(
                result.is_sat() == expected,
                "config {} disagrees with brute force on {}",
                name,
                cnf.to_dimacs()
            );
            if let SatResult::Sat(model) = result {
                prop_assert!(cnf.eval(|v| model[v as usize]), "config {} returned a bad model", name);
            }
        }
    }

    /// The incremental contract under every configuration: interleaved
    /// clause addition, assumption queries and re-solves give the same
    /// verdict stream as brute force over the clauses added so far.
    #[test]
    fn incremental_streams_match_brute_force(input in arbitrary_clauses(),
                                             assume_var in 0u32..8, assume_sign in any::<bool>()) {
        let (num_vars, clauses) = input;
        let assumption = Lit::new(assume_var % num_vars, assume_sign);
        for (name, config) in config_matrix() {
            let mut solver = Solver::with_config(num_vars as usize, config);
            let mut so_far = Cnf::new(num_vars);
            for clause in &clauses {
                let lits: Vec<Lit> = clause.iter().map(|&(v, s)| Lit::new(v, s)).collect();
                so_far.add_clause(lits.clone());
                solver.add_clause(lits);

                let expected_plain = brute_force_sat(&so_far);
                prop_assert!(
                    solver.solve().is_sat() == expected_plain,
                    "config {}: plain re-solve diverged on {}",
                    name,
                    so_far.to_dimacs()
                );

                let mut assumed = so_far.clone();
                assumed.add_clause([assumption]);
                prop_assert!(
                    solver.solve_under_assumptions(&[assumption]).is_sat()
                        == brute_force_sat(&assumed),
                    "config {}: assumption query diverged on {}",
                    name,
                    so_far.to_dimacs()
                );
            }
        }
    }

}

/// The SAT engine against the BDD engine on the expressions the
/// sequential engines encode: every property direction of the paper
/// example, at both latency classes, and its negation (the refutation
/// form), decided by [`is_satisfiable`] through the one encoder.
#[test]
fn sat_agrees_with_bdd_on_paper_example_properties() {
    let spec = ExampleArch::new().functional_spec();
    for latency in [Latency::Combinational, Latency::Registered] {
        for stage in 0..spec.stages().len() {
            for kind in PropertyKind::ALL {
                let property = SequentialProperty::for_stage(&spec, stage, kind, latency);
                for expr in [property.ok.clone(), Expr::not(property.ok.clone())] {
                    let mut manager = BddManager::new();
                    let bdd = manager.from_expr(&expr);
                    assert_eq!(
                        is_satisfiable(&expr),
                        !manager.is_contradiction(bdd),
                        "{} ({latency:?}): engines disagree",
                        property.name
                    );
                }
            }
        }
    }
}
