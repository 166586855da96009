//! CNF satisfiability solving for interlock property checking.
//!
//! `ipcl-sat` provides a conflict-driven clause-learning (CDCL) SAT solver
//! over the clauses of `ipcl-expr`'s one Tseitin encoder,
//! [`GateEncoder`], which writes straight into a [`Solver`] through its
//! [`ClauseSink`]. It is the second exhaustive engine of the workspace
//! (next to `ipcl-bdd`); the property checker in `ipcl-checker` answers
//! validity and implication queries by checking the *negation* for
//! unsatisfiability ([`is_valid`], [`satisfying_assignment`]). BMC,
//! k-induction, PDR and certificate validation all run this one solver;
//! [`SolverConfig`] sets its phase saving, reduction base and restart
//! unit.
//!
//! [`GateEncoder`]: ipcl_expr::GateEncoder
//! [`ClauseSink`]: ipcl_expr::ClauseSink
//!
//! # Example
//!
//! ```
//! use ipcl_expr::{Cnf, Lit};
//! use ipcl_sat::{SatResult, Solver};
//!
//! // (x0 ∨ x1) ∧ ¬x0 ∧ ¬x1 is unsatisfiable.
//! let mut cnf = Cnf::new(2);
//! cnf.add_clause([Lit::positive(0), Lit::positive(1)]);
//! cnf.add_clause([Lit::negative(0)]);
//! cnf.add_clause([Lit::negative(1)]);
//! assert_eq!(Solver::from_cnf(&cnf).solve(), SatResult::Unsat);
//! ```

pub mod solver;

pub use solver::{SatResult, Solver, SolverConfig, SolverStats, HEARTBEAT_MS};

use std::collections::BTreeMap;

use ipcl_expr::{Assignment, Expr, GateEncoder, Lit, VarId};

/// Checks whether `expr` is valid (true under every assignment) by refuting
/// its negation with the CDCL solver.
///
/// # Example
///
/// ```
/// use ipcl_expr::{parse_expr, VarPool};
///
/// let mut pool = VarPool::new();
/// let e = parse_expr("a | !a", &mut pool)?;
/// assert!(ipcl_sat::is_valid(&e));
/// # Ok::<(), ipcl_expr::ParseError>(())
/// ```
pub fn is_valid(expr: &Expr) -> bool {
    let negated = Expr::not(expr.clone());
    !is_satisfiable(&negated)
}

/// Checks whether `expr` has at least one satisfying assignment.
pub fn is_satisfiable(expr: &Expr) -> bool {
    solve(expr).0.is_sat()
}

/// Returns a satisfying assignment of `expr` over its specification
/// variables, or `None` when unsatisfiable.
pub fn satisfying_assignment(expr: &Expr) -> Option<Assignment> {
    let (SatResult::Sat(model), vars) = solve(expr) else {
        return None;
    };
    let mut env = Assignment::new();
    for (var, lit) in vars {
        env.set(var, model[lit.var() as usize]);
    }
    Some(env)
}

/// Encodes `expr` straight into a fresh solver, asserts it and solves.
/// Returns the answer with the literal of each specification variable.
fn solve(expr: &Expr) -> (SatResult, BTreeMap<VarId, Lit>) {
    let mut gates = GateEncoder::new(Solver::new(0));
    let mut vars = BTreeMap::new();
    let root = gates.encode(expr, &mut |gates, var| {
        *vars.entry(var).or_insert_with(|| gates.fresh_lit())
    });
    gates.add_clause(&[root]);
    (gates.sink_mut().solve(), vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_expr::{parse_expr, VarPool};

    #[test]
    fn validity_helpers() {
        let mut pool = VarPool::new();
        let taut = parse_expr("(a -> b) -> (!b -> !a)", &mut pool).unwrap();
        assert!(is_valid(&taut));
        let sat_not_valid = parse_expr("a & b", &mut pool).unwrap();
        assert!(!is_valid(&sat_not_valid));
        assert!(is_satisfiable(&sat_not_valid));
        let unsat = parse_expr("a & !a", &mut pool).unwrap();
        assert!(!is_satisfiable(&unsat));
        assert!(satisfying_assignment(&unsat).is_none());
        let model = satisfying_assignment(&sat_not_valid).unwrap();
        assert!(sat_not_valid.eval(&model).unwrap());
    }
}
