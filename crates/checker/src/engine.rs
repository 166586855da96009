//! Validity, implication and equivalence engines (BDD- and SAT-backed).

use ipcl_bdd::BddManager;
use ipcl_expr::{Assignment, Expr};

/// Which exhaustive engine answers a query.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// Reduced ordered binary decision diagrams (`ipcl-bdd`). Canonical, also
    /// yields model counts; the default.
    #[default]
    Bdd,
    /// Conflict-driven clause learning SAT (`ipcl-sat`). Usually faster on
    /// large, irregular formulas.
    Sat,
}

impl Engine {
    /// Both engines, for ablation experiments.
    pub const ALL: [Engine; 2] = [Engine::Bdd, Engine::Sat];

    /// Short name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Bdd => "bdd",
            Engine::Sat => "sat",
        }
    }
}

/// Outcome of a validity query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The formula is valid (true under every assignment).
    Valid,
    /// The formula is falsifiable; the assignment is a witness of `¬formula`.
    CounterExample(Assignment),
}

impl CheckOutcome {
    /// Whether the query was valid.
    pub fn is_valid(&self) -> bool {
        matches!(self, CheckOutcome::Valid)
    }

    /// The counterexample, if any.
    pub fn counterexample(&self) -> Option<&Assignment> {
        match self {
            CheckOutcome::Valid => None,
            CheckOutcome::CounterExample(a) => Some(a),
        }
    }
}

/// Decides whether `formula` is valid, returning a counterexample when not.
pub fn check_validity(formula: &Expr, engine: Engine) -> CheckOutcome {
    // A model of the negation refutes the formula.
    let negated = Expr::not(formula.clone());
    let model = match engine {
        Engine::Bdd => {
            let mut manager = BddManager::new();
            let f = manager.from_expr(&negated);
            manager.any_model(f)
        }
        // Encoded by the one gate encoder straight into the solver.
        Engine::Sat => ipcl_sat::satisfying_assignment(&negated),
    };
    match model {
        None => CheckOutcome::Valid,
        Some(model) => CheckOutcome::CounterExample(model),
    }
}

/// Decides whether `antecedent → consequent` is valid.
pub fn check_implication(antecedent: &Expr, consequent: &Expr, engine: Engine) -> CheckOutcome {
    check_validity(
        &Expr::implies(antecedent.clone(), consequent.clone()),
        engine,
    )
}

/// Decides whether two formulas denote the same function.
pub fn check_equivalence(left: &Expr, right: &Expr, engine: Engine) -> CheckOutcome {
    check_validity(&Expr::iff(left.clone(), right.clone()), engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_expr::{parse_expr, VarPool};

    fn parse(text: &str) -> (Expr, VarPool) {
        let mut pool = VarPool::new();
        let e = parse_expr(text, &mut pool).unwrap();
        (e, pool)
    }

    #[test]
    fn both_engines_agree_on_validity() {
        let cases = [
            ("a | !a", true),
            ("a & !a", false),
            ("(a -> b) & (b -> c) -> (a -> c)", true),
            ("a -> a & b", false),
            ("(a & b) | (!a & b) | !b", true),
        ];
        for (text, expected_valid) in cases {
            let (expr, _) = parse(text);
            for engine in Engine::ALL {
                let outcome = check_validity(&expr, engine);
                assert_eq!(outcome.is_valid(), expected_valid, "{text} with {engine:?}");
            }
        }
    }

    #[test]
    fn counterexamples_falsify_the_formula() {
        let (expr, _) = parse("a -> a & b");
        for engine in Engine::ALL {
            let outcome = check_validity(&expr, engine);
            let model = outcome.counterexample().expect("falsifiable").clone();
            // The model satisfies the negation of the formula.
            assert!(
                Expr::not(expr.clone()).eval_with(|v| model.get_or_false(v)),
                "{engine:?}"
            );
        }
    }

    #[test]
    fn implication_and_equivalence_helpers() {
        let (stronger, mut pool) = parse("a & b");
        let weaker = parse_expr("a | b", &mut pool).unwrap();
        for engine in Engine::ALL {
            assert!(check_implication(&stronger, &weaker, engine).is_valid());
            assert!(!check_implication(&weaker, &stronger, engine).is_valid());
            assert!(!check_equivalence(&stronger, &weaker, engine).is_valid());
            assert!(check_equivalence(&stronger, &stronger, engine).is_valid());
        }
    }

    #[test]
    fn engine_names() {
        assert_eq!(Engine::Bdd.name(), "bdd");
        assert_eq!(Engine::Sat.name(), "sat");
        assert_eq!(Engine::default(), Engine::Bdd);
    }
}
