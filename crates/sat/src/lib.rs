//! CNF satisfiability solving for interlock property checking.
//!
//! `ipcl-sat` provides a conflict-driven clause-learning (CDCL) SAT solver
//! over the [`Cnf`] formulas produced by `ipcl-expr`'s Tseitin encoder. It is
//! the second exhaustive engine of the workspace (next to `ipcl-bdd`); the
//! property checker in `ipcl-checker` answers validity and implication
//! queries by checking the *negation* for unsatisfiability.
//!
//! # Example
//!
//! ```
//! use ipcl_expr::{parse_expr, TseitinEncoder, VarPool};
//! use ipcl_sat::{SatResult, Solver};
//!
//! let mut pool = VarPool::new();
//! // Validity of (a -> b) & a -> b  ⇔  unsatisfiability of its negation.
//! let negated = parse_expr("!((a -> b) & a -> b)", &mut pool)?;
//! let mut enc = TseitinEncoder::new();
//! let root = enc.encode(&negated);
//! enc.assert_literal(root);
//! let mut solver = Solver::from_cnf(enc.cnf());
//! assert_eq!(solver.solve(), SatResult::Unsat);
//! # Ok::<(), ipcl_expr::ParseError>(())
//! ```

pub mod solver;

pub use solver::{RestartStrategy, SatResult, Solver, SolverConfig, SolverStats, HEARTBEAT_MS};

use ipcl_expr::{Expr, TseitinEncoder};

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
///
/// Uses the polarity-aware Plaisted–Greenbaum encoding
/// ([`TseitinEncoder::assert_expr`]): the root occurs only positively, so
/// roughly half the definitional clauses of the full Tseitin encoding are
/// emitted.
pub fn is_satisfiable(expr: &Expr) -> bool {
    let mut enc = TseitinEncoder::new();
    enc.assert_expr(expr);
    let mut solver = Solver::from_cnf(enc.cnf());
    matches!(solver.solve(), SatResult::Sat(_))
}

/// Returns a satisfying assignment of `expr` over its specification
/// variables, or `None` when unsatisfiable.
pub fn satisfying_assignment(expr: &Expr) -> Option<ipcl_expr::Assignment> {
    let mut enc = TseitinEncoder::new();
    enc.assert_expr(expr);
    let var_map = enc.var_map().clone();
    let mut solver = Solver::from_cnf(enc.cnf());
    match solver.solve() {
        SatResult::Sat(model) => {
            let mut env = ipcl_expr::Assignment::new();
            for (spec_var, cnf_var) in var_map {
                env.set(spec_var, model[cnf_var as usize]);
            }
            Some(env)
        }
        SatResult::Unsat => None,
    }
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
