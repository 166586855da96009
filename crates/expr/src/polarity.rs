//! Polarity and monotonicity analysis.
//!
//! The derivation in the paper requires each stalling condition `F_i` to be
//! *monotone* in the negated `moe` flags: `F_i` is built from conjunction and
//! disjunction only, so making more inputs true can only make the output true.
//! This module provides the syntactic check (occurrence polarity) and a
//! semantic check (exhaustive, for small formulas) that `ipcl-core` uses to
//! validate specification preconditions before running the fixed point.

use std::collections::BTreeMap;

use crate::expr::Expr;
use crate::vars::VarId;

/// Occurrence polarity of a variable within an expression.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Polarity {
    /// The variable only occurs under an even number of negations.
    Positive,
    /// The variable only occurs under an odd number of negations.
    Negative,
    /// The variable occurs with both polarities.
    Mixed,
}

impl Polarity {
    fn join(self, other: Polarity) -> Polarity {
        if self == other {
            self
        } else {
            Polarity::Mixed
        }
    }

    /// Whether this polarity is compatible with monotone (non-decreasing)
    /// dependence on the variable.
    pub fn is_monotone_increasing(self) -> bool {
        matches!(self, Polarity::Positive)
    }
}

/// Computes the occurrence polarity of every variable in `expr`.
///
/// The expression is desugared first, so implications and bi-implications are
/// accounted for correctly (the antecedent of an implication is a negative
/// position; both sides of a bi-implication are mixed unless trivial).
///
/// # Example
///
/// ```
/// use ipcl_expr::{parse_expr, polarity_map, Polarity, VarPool};
///
/// let mut pool = VarPool::new();
/// let e = parse_expr("a & !b -> c", &mut pool).unwrap();
/// let map = polarity_map(&e);
/// assert_eq!(map[&pool.lookup("a").unwrap()], Polarity::Negative);
/// assert_eq!(map[&pool.lookup("b").unwrap()], Polarity::Positive);
/// assert_eq!(map[&pool.lookup("c").unwrap()], Polarity::Positive);
/// ```
pub fn polarity_map(expr: &Expr) -> BTreeMap<VarId, Polarity> {
    let mut map = BTreeMap::new();
    walk(&expr.desugar(), false, &mut map);
    map
}

fn walk(expr: &Expr, negated: bool, map: &mut BTreeMap<VarId, Polarity>) {
    match expr {
        Expr::Const(_) => {}
        Expr::Var(v) => {
            let p = if negated {
                Polarity::Negative
            } else {
                Polarity::Positive
            };
            map.entry(*v)
                .and_modify(|existing| *existing = existing.join(p))
                .or_insert(p);
        }
        Expr::Not(inner) => walk(inner, !negated, map),
        Expr::And(ops) | Expr::Or(ops) => {
            for op in ops {
                walk(op, negated, map);
            }
        }
        // Desugared expressions no longer contain these, but handle them for
        // robustness when callers skip desugaring.
        Expr::Implies(l, r) => {
            walk(l, !negated, map);
            walk(r, negated, map);
        }
        Expr::Iff(l, r) | Expr::Xor(l, r) => {
            walk(l, negated, map);
            walk(l, !negated, map);
            walk(r, negated, map);
            walk(r, !negated, map);
        }
        Expr::Ite(c, t, e) => {
            walk(c, negated, map);
            walk(c, !negated, map);
            walk(t, negated, map);
            walk(e, negated, map);
        }
    }
}

/// Syntactic monotonicity: `expr` mentions each of `vars` only positively.
///
/// This is the precondition established in Section 3.1 of the paper for the
/// stalling conditions `F_i` viewed as functions of the negated `moe` flags.
pub fn is_syntactically_monotone<'a, I>(expr: &Expr, vars: I) -> bool
where
    I: IntoIterator<Item = &'a VarId>,
{
    let map = polarity_map(expr);
    vars.into_iter().all(|v| {
        map.get(v)
            .map(|p| p.is_monotone_increasing())
            // A variable that does not occur is trivially monotone.
            .unwrap_or(true)
    })
}

/// Semantic monotonicity in a single variable, checked exhaustively over the
/// other variables of the expression.
///
/// # Panics
///
/// Panics if the expression has more than 22 variables (the check is
/// exponential and intended for specification-sized formulas and tests).
pub fn is_semantically_monotone_in(expr: &Expr, var: VarId) -> bool {
    let mut others: Vec<VarId> = expr.vars().into_iter().filter(|&v| v != var).collect();
    others.sort_unstable();
    assert!(
        others.len() <= 22,
        "semantic monotonicity check is exponential; got {} variables",
        others.len()
    );
    for mask in 0u64..(1u64 << others.len()) {
        let base = |v: VarId| {
            others
                .iter()
                .position(|&x| x == v)
                .map(|pos| mask & (1 << pos) != 0)
                .unwrap_or(false)
        };
        let low = expr.eval_with(|v| if v == var { false } else { base(v) });
        let high = expr.eval_with(|v| if v == var { true } else { base(v) });
        if low && !high {
            return false;
        }
    }
    true
}

/// Semantic monotonicity in every variable of `vars`.
pub fn is_semantically_monotone<'a, I>(expr: &Expr, vars: I) -> bool
where
    I: IntoIterator<Item = &'a VarId>,
{
    vars.into_iter()
        .all(|&v| is_semantically_monotone_in(expr, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::VarPool;

    fn vars3() -> (VarPool, VarId, VarId, VarId) {
        let mut pool = VarPool::new();
        let a = pool.var("a");
        let b = pool.var("b");
        let c = pool.var("c");
        (pool, a, b, c)
    }

    #[test]
    fn pure_and_or_is_positive() {
        let (_, a, b, c) = vars3();
        let e = Expr::or([Expr::and([Expr::var(a), Expr::var(b)]), Expr::var(c)]);
        let map = polarity_map(&e);
        assert!(map.values().all(|p| *p == Polarity::Positive));
        assert!(is_syntactically_monotone(&e, &[a, b, c]));
        assert!(is_semantically_monotone(&e, &[a, b, c]));
    }

    #[test]
    fn negation_flips_polarity() {
        let (_, a, b, _) = vars3();
        let e = Expr::and([Expr::var(a), Expr::not(Expr::var(b))]);
        let map = polarity_map(&e);
        assert_eq!(map[&a], Polarity::Positive);
        assert_eq!(map[&b], Polarity::Negative);
        assert!(!is_syntactically_monotone(&e, &[b]));
        assert!(is_syntactically_monotone(&e, &[a]));
        assert!(!is_semantically_monotone_in(&e, b));
    }

    #[test]
    fn implication_antecedent_is_negative() {
        let (_, a, b, _) = vars3();
        let e = Expr::implies(Expr::var(a), Expr::var(b));
        let map = polarity_map(&e);
        assert_eq!(map[&a], Polarity::Negative);
        assert_eq!(map[&b], Polarity::Positive);
    }

    #[test]
    fn iff_is_mixed() {
        let (_, a, b, _) = vars3();
        let e = Expr::iff(Expr::var(a), Expr::var(b));
        let map = polarity_map(&e);
        assert_eq!(map[&a], Polarity::Mixed);
        assert_eq!(map[&b], Polarity::Mixed);
        assert!(!is_semantically_monotone_in(&e, a));
    }

    #[test]
    fn xor_is_not_monotone_semantically() {
        let (_, a, b, _) = vars3();
        let e = Expr::xor(Expr::var(a), Expr::var(b));
        assert!(!is_semantically_monotone_in(&e, a));
        assert!(!is_semantically_monotone_in(&e, b));
    }

    #[test]
    fn unused_variable_is_trivially_monotone() {
        let (_, a, b, c) = vars3();
        let e = Expr::and([Expr::var(a), Expr::var(b)]);
        assert!(is_syntactically_monotone(&e, &[c]));
        assert!(is_semantically_monotone_in(&e, c));
    }

    #[test]
    fn syntactic_monotone_implies_semantic_on_samples() {
        // a & (b | !c) : monotone in a and b syntactically and semantically.
        let (_, a, b, c) = vars3();
        let e = Expr::and([
            Expr::var(a),
            Expr::or([Expr::var(b), Expr::not(Expr::var(c))]),
        ]);
        assert!(is_syntactically_monotone(&e, &[a, b]));
        assert!(is_semantically_monotone(&e, &[a, b]));
        // Semantic check can accept cases the syntactic check rejects:
        // (a & !a) is constant false, monotone in a semantically.
        let weird = Expr::And(vec![Expr::var(a), Expr::Not(Expr::var(a).into())]);
        assert!(!is_syntactically_monotone(&weird, &[a]));
        assert!(is_semantically_monotone_in(&weird, a));
    }

    #[test]
    fn ite_polarity_conservative() {
        let (_, a, b, c) = vars3();
        let e = Expr::ite(Expr::var(a), Expr::var(b), Expr::var(c));
        let map = polarity_map(&e);
        assert_eq!(map[&a], Polarity::Mixed);
        assert_eq!(map[&b], Polarity::Positive);
        assert_eq!(map[&c], Polarity::Positive);
    }
}
