//! Bit-parallel evaluation of boolean expressions over `u64` words.
//!
//! The lane fuzzer (`ipcl_bmc::fuzz`) evaluates specification expressions
//! — sequential properties over stall conditions and `moe` flags — against
//! simulator words: every variable is looked up as a 64-lane word and the
//! connectives apply bitwise, so one evaluation decides the expression in
//! all 64 scenarios.

use ipcl_expr::{Expr, VarId};

use crate::program::broadcast;

/// Evaluates `expr` over 64 lanes at once: `lookup` supplies each
/// variable's word, and bit `i` of the result is the expression's value
/// under lane `i`'s valuation — bit-for-bit what 64 calls of
/// [`ipcl_expr::Expr::eval_with`] would produce.
pub fn eval_expr_word<F: Fn(VarId) -> u64 + Copy>(expr: &Expr, lookup: F) -> u64 {
    match expr {
        Expr::Const(b) => broadcast(*b),
        Expr::Var(var) => lookup(*var),
        Expr::Not(e) => !eval_expr_word(e, lookup),
        Expr::And(ops) => ops
            .iter()
            .fold(u64::MAX, |acc, e| acc & eval_expr_word(e, lookup)),
        Expr::Or(ops) => ops
            .iter()
            .fold(0u64, |acc, e| acc | eval_expr_word(e, lookup)),
        Expr::Implies(lhs, rhs) => !eval_expr_word(lhs, lookup) | eval_expr_word(rhs, lookup),
        Expr::Iff(lhs, rhs) => !(eval_expr_word(lhs, lookup) ^ eval_expr_word(rhs, lookup)),
        Expr::Xor(lhs, rhs) => eval_expr_word(lhs, lookup) ^ eval_expr_word(rhs, lookup),
        Expr::Ite(cond, then, els) => {
            let cond = eval_expr_word(cond, lookup);
            (cond & eval_expr_word(then, lookup)) | (!cond & eval_expr_word(els, lookup))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_expr::VarPool;

    #[test]
    fn word_eval_matches_scalar_eval_lane_by_lane() {
        let mut pool = VarPool::new();
        let a = pool.var("a");
        let b = pool.var("b");
        let c = pool.var("c");
        let exprs = [
            Expr::implies(
                Expr::and([Expr::var(a), Expr::var(b)]),
                Expr::not(Expr::var(c)),
            ),
            Expr::iff(Expr::var(a), Expr::or([Expr::var(b), Expr::var(c)])),
            Expr::xor(
                Expr::var(a),
                Expr::ite(Expr::var(b), Expr::var(c), Expr::TRUE),
            ),
            Expr::and([]),
            Expr::or([]),
        ];
        let words = [
            (a, 0xF0F0_1234_5678_9ABC_u64),
            (b, 0xCC33_AA55_00FF_1357),
            (c, 0x0123_4567_89AB_CDEF),
        ];
        let word_of = |v: VarId| {
            words
                .iter()
                .find(|(w, _)| *w == v)
                .map(|(_, x)| *x)
                .unwrap_or(0)
        };
        for expr in &exprs {
            let word = eval_expr_word(expr, word_of);
            for lane in 0..64 {
                let scalar = expr.eval_with(|v| (word_of(v) >> lane) & 1 == 1);
                assert_eq!(
                    (word >> lane) & 1 == 1,
                    scalar,
                    "lane {lane} of {expr:?} diverged"
                );
            }
        }
    }
}
