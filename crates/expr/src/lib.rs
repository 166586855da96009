//! Boolean expression substrate for interlocked pipeline control specifications.
//!
//! This crate provides the expression language every other `ipcl` crate is built
//! on: a boolean [`Expr`] AST over interned [`VarId`] variables, evaluation under
//! [`Assignment`]s, structural simplification, substitution and cofactoring,
//! polarity/monotonicity analysis, the workspace's one Tseitin encoder
//! ([`GateEncoder`]: hash-consed gates written into a [`ClauseSink`], and
//! the one walk from an [`Expr`] to CNF) and a small textual specification
//! language (parser and pretty printer).
//!
//! The paper's functional specifications are conjunctions of implications
//! `F_i(¬moe) → ¬moe_i` where each `F_i` is built from conjunction and
//! disjunction only, hence *monotone*. The [`polarity`] module provides the
//! syntactic check for this precondition, and [`Expr::eval_with`] is the
//! evaluation primitive the fixed-point engine in `ipcl-core` iterates.
//!
//! # Example
//!
//! ```
//! use ipcl_expr::{Expr, VarPool, Assignment};
//!
//! let mut pool = VarPool::new();
//! let stall = pool.var("long.2.rtm");
//! let blocked = pool.var("long.3.moe");
//! // long.2.rtm ∧ ¬long.3.moe  → the stage must not move
//! let cond = Expr::and([Expr::var(stall), Expr::not(Expr::var(blocked))]);
//!
//! let mut env = Assignment::new();
//! env.set(stall, true);
//! env.set(blocked, false);
//! assert_eq!(cond.eval(&env), Ok(true));
//! ```

pub mod cnf;
pub mod display;
pub mod env;
pub mod expr;
pub mod parser;
pub mod polarity;
pub mod simplify;
pub mod vars;

pub use cnf::{Clause, ClauseSink, Cnf, GateEncoder, Lit};
pub use env::{Assignment, EvalError};
pub use expr::{semantically_equal, semantically_implies, Expr};
pub use parser::{parse_expr, ParseError};
pub use polarity::{polarity_map, Polarity};
pub use vars::{VarId, VarPool};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_roundtrip() {
        let mut pool = VarPool::new();
        let e = parse_expr("a & !b -> c | false", &mut pool).unwrap();
        let printed = e.display(&pool).to_string();
        let reparsed = parse_expr(&printed, &mut pool).unwrap();
        assert!(expr::semantically_equal(&e, &reparsed));
    }
}
