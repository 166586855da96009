//! Conjunctive normal form and the Tseitin encoding.
//!
//! [`GateEncoder`] is the workspace's one Tseitin encoder: hash-consed
//! AND/XOR/MUX gates over a [`ClauseSink`], and the one walk from an
//! [`Expr`] to a literal over them. The sequential engines build their
//! time-frame unrollings on it, and `ipcl-sat` answers validity queries
//! by encoding the *negation* of the query with it and checking
//! unsatisfiability.

use std::collections::HashMap;
use std::fmt;

use crate::expr::Expr;
use crate::vars::VarId;

/// A literal: a CNF variable index with a sign.
///
/// CNF variables are separate from specification [`VarId`]s because the
/// Tseitin encoding introduces fresh definition variables; the caller of
/// [`GateEncoder::encode`] keeps the mapping.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lit {
    code: u32,
}

impl Lit {
    /// Creates a literal for CNF variable `var` (0-based) with polarity
    /// `positive`.
    pub fn new(var: u32, positive: bool) -> Lit {
        Lit {
            code: var << 1 | u32::from(!positive),
        }
    }

    /// Positive literal of `var`.
    pub fn positive(var: u32) -> Lit {
        Lit::new(var, true)
    }

    /// Negative literal of `var`.
    pub fn negative(var: u32) -> Lit {
        Lit::new(var, false)
    }

    /// The CNF variable index.
    pub fn var(self) -> u32 {
        self.code >> 1
    }

    /// Whether the literal is positive.
    pub fn is_positive(self) -> bool {
        self.code & 1 == 0
    }

    /// The complementary literal.
    pub fn negated(self) -> Lit {
        Lit {
            code: self.code ^ 1,
        }
    }

    /// Dense code useful for indexing watch lists (`2*var + sign`).
    pub fn code(self) -> usize {
        self.code as usize
    }

    /// Evaluates the literal under a total valuation of CNF variables.
    pub fn eval(self, value_of: impl Fn(u32) -> bool) -> bool {
        value_of(self.var()) == self.is_positive()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "x{}", self.var())
        } else {
            write!(f, "-x{}", self.var())
        }
    }
}

/// A clause: a disjunction of literals.
pub type Clause = Vec<Lit>;

/// A formula in conjunctive normal form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cnf {
    /// Number of CNF variables; all literals reference variables below this.
    pub num_vars: u32,
    /// The clauses. An empty clause makes the formula unsatisfiable.
    pub clauses: Vec<Clause>,
}

impl Cnf {
    /// Creates an empty (trivially satisfiable) formula over `num_vars`
    /// variables.
    pub fn new(num_vars: u32) -> Cnf {
        Cnf {
            num_vars,
            clauses: Vec::new(),
        }
    }

    /// Allocates a fresh CNF variable and returns its index.
    pub fn fresh_var(&mut self) -> u32 {
        let v = self.num_vars;
        self.num_vars += 1;
        v
    }

    /// Adds a clause. Literals referencing unknown variables grow the
    /// variable count.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, literals: I) {
        let clause: Clause = literals.into_iter().collect();
        for lit in &clause {
            if lit.var() >= self.num_vars {
                self.num_vars = lit.var() + 1;
            }
        }
        self.clauses.push(clause);
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the formula has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Evaluates the formula under a total valuation.
    pub fn eval(&self, value_of: impl Fn(u32) -> bool + Copy) -> bool {
        self.clauses
            .iter()
            .all(|clause| clause.iter().any(|lit| lit.eval(value_of)))
    }

    /// Renders the formula in DIMACS format.
    pub fn to_dimacs(&self) -> String {
        let mut out = format!("p cnf {} {}\n", self.num_vars, self.clauses.len());
        for clause in &self.clauses {
            for lit in clause {
                let v = lit.var() as i64 + 1;
                let signed = if lit.is_positive() { v } else { -v };
                out.push_str(&signed.to_string());
                out.push(' ');
            }
            out.push_str("0\n");
        }
        out
    }
}

/// Where an encoder writes its formula: fresh variables and clauses, in
/// order. [`Cnf`] keeps the formula itself; `ipcl_sat::Solver` takes it
/// straight into the solver that decides it, so a clause is built once
/// and never copied.
pub trait ClauseSink {
    /// Allocates a fresh variable and returns its index.
    fn new_var(&mut self) -> u32;

    /// Adds the clause `literals` (a disjunction).
    fn add_clause(&mut self, literals: &[Lit]);
}

impl ClauseSink for Cnf {
    fn new_var(&mut self) -> u32 {
        self.fresh_var()
    }

    fn add_clause(&mut self, literals: &[Lit]) {
        Cnf::add_clause(self, literals.iter().copied());
    }
}

/// The one Tseitin encoder: gate definitions over fresh literals, written
/// once into the clause sink `S`, with constant folding and **structural
/// hashing** (a gate over the same operand literals is defined once, so
/// the repeated stall conditions of an interlock specification, and the
/// property instances and cubes the sequential engines encode again and
/// again over one unrolling, cost no duplicate definitional clauses).
///
/// Every gate is defined in both directions, so its literal may be
/// asserted, negated or assumed freely. [`GateEncoder::new`] spends the
/// first variable on a literal that is constrained true; constants fold
/// into it.
///
/// # Example
///
/// ```
/// use std::collections::BTreeMap;
///
/// use ipcl_expr::{parse_expr, Cnf, GateEncoder, VarPool};
///
/// let mut pool = VarPool::new();
/// let e = parse_expr("a & !a", &mut pool)?;
/// let mut gates = GateEncoder::new(Cnf::new(0));
/// let mut vars = BTreeMap::new();
/// let root = gates.encode(&e, &mut |gates, var| {
///     *vars.entry(var).or_insert_with(|| gates.fresh_lit())
/// });
/// // `a & !a` folds to the constant false: no gate is defined.
/// assert_eq!(root, gates.const_true().negated());
/// assert_eq!(gates.gates(), 0);
/// # Ok::<(), ipcl_expr::ParseError>(())
/// ```
#[derive(Clone, Debug)]
pub struct GateEncoder<S = Cnf> {
    sink: S,
    const_true: Lit,
    /// Conjunctions, keyed by their sorted, deduplicated operands and
    /// looked up by slice.
    and_gates: HashMap<Vec<Lit>, Lit>,
    /// Exclusive ors, keyed by the ordered pair of positive literals.
    xor_gates: HashMap<(Lit, Lit), Lit>,
    /// Multiplexers, keyed by `(sel, high, low)`.
    mux_gates: HashMap<(Lit, Lit, Lit), Lit>,
    /// Reused operand list of conjunctions, so a cache hit allocates
    /// nothing.
    operands: Vec<Lit>,
    /// Reused long clause of a conjunction's definition.
    clause: Vec<Lit>,
    /// Operand stack of [`GateEncoder::encode`], reused across calls.
    stack: Vec<Lit>,
    gates: u64,
    cache_hits: u64,
}

impl<S: ClauseSink> GateEncoder<S> {
    /// An encoder writing into `sink`, which gets one variable and one
    /// unit clause: the constant-true literal.
    pub fn new(mut sink: S) -> Self {
        let const_true = Lit::positive(sink.new_var());
        sink.add_clause(&[const_true]);
        GateEncoder {
            sink,
            const_true,
            and_gates: HashMap::new(),
            xor_gates: HashMap::new(),
            mux_gates: HashMap::new(),
            operands: Vec::new(),
            clause: Vec::new(),
            stack: Vec::new(),
            gates: 0,
            cache_hits: 0,
        }
    }

    /// The sink the formula goes into.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the sink (to solve, when it is a solver).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// A literal that is constrained true in every model.
    pub fn const_true(&self) -> Lit {
        self.const_true
    }

    /// Distinct gates defined so far (cache misses across and/xor/mux).
    pub fn gates(&self) -> u64 {
        self.gates
    }

    /// Gate definitions answered from the structural-hashing cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Allocates a fresh unconstrained literal.
    pub fn fresh_lit(&mut self) -> Lit {
        Lit::positive(self.sink.new_var())
    }

    /// Adds a clause (environment constraints, activation literals, …).
    pub fn add_clause(&mut self, literals: &[Lit]) {
        self.sink.add_clause(literals);
    }

    /// Defines `g ↔ AND(operands)` over a fresh literal `g`.
    ///
    /// Constant operands are folded, duplicates removed and complementary
    /// pairs collapse to `false`; structurally identical conjunctions
    /// share one definition.
    pub fn define_and(&mut self, operands: impl IntoIterator<Item = Lit>) -> Lit {
        self.operands.clear();
        self.operands.extend(operands);
        self.and_of_operands()
    }

    /// [`GateEncoder::define_and`] of the reused list `self.operands`,
    /// which it folds, sorts and deduplicates in place.
    fn and_of_operands(&mut self) -> Lit {
        let (t, f) = (self.const_true, self.const_true.negated());
        let ops = &mut self.operands;
        if ops.contains(&f) {
            return f;
        }
        ops.retain(|&lit| lit != t);
        ops.sort_unstable();
        ops.dedup();
        if ops
            .windows(2)
            .any(|w| w[0].var() == w[1].var() && w[0] != w[1])
        {
            // x ∧ … ∧ ¬x is false.
            return f;
        }
        match ops.len() {
            0 => t,
            1 => ops[0],
            _ => {
                if let Some(&g) = self.and_gates.get(ops.as_slice()) {
                    self.cache_hits += 1;
                    return g;
                }
                self.gates += 1;
                let g = Lit::positive(self.sink.new_var());
                for &lit in ops.iter() {
                    self.sink.add_clause(&[g.negated(), lit]);
                }
                self.clause.clear();
                self.clause.extend(ops.iter().map(|l| l.negated()));
                self.clause.push(g);
                self.sink.add_clause(&self.clause);
                self.and_gates.insert(ops.clone(), g);
                g
            }
        }
    }

    /// Defines `g ↔ (a ⊕ b)` over a fresh literal `g`, with constant
    /// folding and structural hashing (the operand pair is normalized by
    /// literal code, and `a ⊕ b = ¬a ⊕ ¬b = ¬(¬a ⊕ b)` reuse one gate).
    pub fn define_xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.const_true {
            return b.negated();
        }
        if a == self.const_true.negated() {
            return b;
        }
        if b == self.const_true {
            return a.negated();
        }
        if b == self.const_true.negated() {
            return a;
        }
        if a == b {
            return self.const_true.negated();
        }
        if a == b.negated() {
            return self.const_true;
        }
        // Normalize to positive literals of the two variables; each
        // negation flips the result's sign.
        let flip = !a.is_positive() ^ !b.is_positive();
        let (mut x, mut y) = (Lit::positive(a.var()), Lit::positive(b.var()));
        if y.code() < x.code() {
            std::mem::swap(&mut x, &mut y);
        }
        let g = match self.xor_gates.get(&(x, y)) {
            Some(&g) => {
                self.cache_hits += 1;
                g
            }
            None => {
                self.gates += 1;
                let g = self.fresh_lit();
                self.sink.add_clause(&[g.negated(), x, y]);
                self.sink
                    .add_clause(&[g.negated(), x.negated(), y.negated()]);
                self.sink.add_clause(&[g, x.negated(), y]);
                self.sink.add_clause(&[g, x, y.negated()]);
                self.xor_gates.insert((x, y), g);
                g
            }
        };
        if flip {
            g.negated()
        } else {
            g
        }
    }

    /// Defines `g ↔ if sel { high } else { low }` over a fresh literal `g`,
    /// with constant folding and structural hashing.
    pub fn define_mux(&mut self, sel: Lit, high: Lit, low: Lit) -> Lit {
        if sel == self.const_true {
            return high;
        }
        if sel == self.const_true.negated() {
            return low;
        }
        if high == low {
            return high;
        }
        if let Some(&g) = self.mux_gates.get(&(sel, high, low)) {
            self.cache_hits += 1;
            return g;
        }
        self.gates += 1;
        let g = self.fresh_lit();
        self.sink.add_clause(&[sel.negated(), high.negated(), g]);
        self.sink.add_clause(&[sel.negated(), high, g.negated()]);
        self.sink.add_clause(&[sel, low.negated(), g]);
        self.sink.add_clause(&[sel, low, g.negated()]);
        // Redundant but propagation-strengthening: if both branches agree the
        // output is known without the select.
        self.sink.add_clause(&[high.negated(), low.negated(), g]);
        self.sink.add_clause(&[high, low, g.negated()]);
        self.mux_gates.insert((sel, high, low), g);
        g
    }

    /// Encodes `expr` bottom-up over the gates, returning the literal that
    /// is true iff the expression is. `var` gives the literal of each
    /// specification variable, in walk order (left to right, children
    /// before their gate); it may allocate literals and clauses through
    /// the encoder it is handed.
    pub fn encode<F>(&mut self, expr: &Expr, var: &mut F) -> Lit
    where
        F: FnMut(&mut Self, VarId) -> Lit,
    {
        match expr {
            Expr::Const(true) => self.const_true,
            Expr::Const(false) => self.const_true.negated(),
            Expr::Var(v) => var(self, *v),
            Expr::Not(e) => self.encode(e, var).negated(),
            Expr::And(ops) | Expr::Or(ops) => {
                // Or is the negated conjunction of negated operands.
                let or = matches!(expr, Expr::Or(_));
                let base = self.stack.len();
                for op in ops {
                    let lit = self.encode(op, var);
                    self.stack.push(if or { lit.negated() } else { lit });
                }
                self.operands.clear();
                self.operands.extend_from_slice(&self.stack[base..]);
                self.stack.truncate(base);
                let g = self.and_of_operands();
                if or {
                    g.negated()
                } else {
                    g
                }
            }
            Expr::Implies(l, r) => {
                let l = self.encode(l, var);
                let r = self.encode(r, var);
                self.define_and([l, r.negated()]).negated()
            }
            Expr::Iff(l, r) => {
                let l = self.encode(l, var);
                let r = self.encode(r, var);
                self.define_xor(l, r).negated()
            }
            Expr::Xor(l, r) => {
                let l = self.encode(l, var);
                let r = self.encode(r, var);
                self.define_xor(l, r)
            }
            Expr::Ite(c, t, e) => {
                let c = self.encode(c, var);
                let t = self.encode(t, var);
                let e = self.encode(e, var);
                self.define_mux(c, t, e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::parser::parse_expr;
    use crate::vars::VarPool;

    #[test]
    fn literal_encoding() {
        let p = Lit::positive(3);
        let n = Lit::negative(3);
        assert_eq!(p.var(), 3);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(p.negated(), n);
        assert_eq!(n.negated(), p);
        assert_eq!(p.code(), 6);
        assert_eq!(n.code(), 7);
        assert_eq!(p.to_string(), "x3");
        assert_eq!(n.to_string(), "-x3");
        assert!(p.eval(|_| true));
        assert!(!p.eval(|_| false));
        assert!(n.eval(|_| false));
    }

    #[test]
    fn cnf_basics() {
        let mut cnf = Cnf::new(0);
        assert!(cnf.is_empty());
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        cnf.add_clause([Lit::positive(a), Lit::negative(b)]);
        cnf.add_clause([Lit::positive(b)]);
        assert_eq!(cnf.num_vars, 2);
        assert_eq!(cnf.len(), 2);
        assert!(cnf.eval(|_| true));
        assert!(!cnf.eval(|v| v == b));
        let dimacs = cnf.to_dimacs();
        assert!(dimacs.starts_with("p cnf 2 2"));
        assert!(dimacs.contains("1 -2 0"));
    }

    #[test]
    fn add_clause_grows_num_vars() {
        let mut cnf = Cnf::new(0);
        cnf.add_clause([Lit::positive(9)]);
        assert_eq!(cnf.num_vars, 10);
    }

    /// Encodes `expr` into a [`Cnf`], mapping each specification variable
    /// to a fresh literal on first use. Returns the encoder, the root
    /// literal and the variable map.
    fn encode(expr: &Expr) -> (GateEncoder, Lit, BTreeMap<VarId, Lit>) {
        let mut gates = GateEncoder::new(Cnf::new(0));
        let mut vars = BTreeMap::new();
        let root = gates.encode(expr, &mut |gates, var| {
            *vars.entry(var).or_insert_with(|| gates.fresh_lit())
        });
        (gates, root, vars)
    }

    /// Brute-force check: asserting the root literal (or its negation) is
    /// equisatisfiable with the expression (or its negation), and
    /// projections onto the original variables agree.
    fn check_equisatisfiable(text: &str) {
        let mut pool = VarPool::new();
        let expr = parse_expr(text, &mut pool).unwrap();
        let spec_vars: Vec<_> = expr.vars().into_iter().collect();
        for asserted in [true, false] {
            let (mut gates, root, vars) = encode(&expr);
            gates.add_clause(&[if asserted { root } else { root.negated() }]);
            let cnf = gates.sink();
            // Auxiliary variables: the constant and the gates.
            let aux: Vec<u32> = (0..cnf.num_vars)
                .filter(|&v| !vars.values().any(|lit| lit.var() == v))
                .collect();
            assert!(aux.len() <= 16, "too many aux vars for brute force");

            // For every assignment of the original variables: the expression
            // has the asserted value iff the CNF has a model extending it.
            for mask in 0u64..(1 << spec_vars.len()) {
                let spec_val = |v: VarId| {
                    let pos = spec_vars.iter().position(|&x| x == v).unwrap();
                    mask & (1 << pos) != 0
                };
                let expected = expr.eval_with(spec_val) == asserted;
                let sat = (0u64..(1 << aux.len())).any(|aux_mask| {
                    cnf.eval(|v| match vars.iter().find(|(_, lit)| lit.var() == v) {
                        Some((&spec, _)) => spec_val(spec),
                        None => {
                            let pos = aux.iter().position(|&x| x == v).unwrap();
                            aux_mask & (1 << pos) != 0
                        }
                    })
                });
                assert_eq!(
                    expected, sat,
                    "disagreement on {text} (asserted {asserted}) with mask {mask:b}"
                );
            }
        }
    }

    #[test]
    fn tseitin_equisatisfiable_small_formulas() {
        for text in [
            "a",
            "!a",
            "a & b",
            "a | b",
            "a -> b",
            "a <-> b",
            "a ^ b",
            "if a then b else c",
            "a & !a",
            "(a | b) & (!a | c)",
            "a & b -> !c | a",
            "!(a & b) | !(a | b)",
            "((a -> b) -> a) -> a",
            "!(if a ^ b then a <-> c else !(b | c))",
        ] {
            check_equisatisfiable(text);
        }
    }

    #[test]
    fn constants_encode_correctly() {
        let (mut gates, t, _) = encode(&Expr::TRUE);
        assert_eq!(t, gates.const_true());
        gates.add_clause(&[t]);
        assert!(gates.sink().eval(|_| true));

        let (mut gates, f, _) = encode(&Expr::FALSE);
        assert_eq!(f, gates.const_true().negated());
        gates.add_clause(&[f]);
        // Forced true and asserted false: unsatisfiable for every valuation
        // of its single variable.
        let cnf = gates.sink();
        assert_eq!(cnf.num_vars, 1);
        assert!(!cnf.eval(|_| true) && !cnf.eval(|_| false));
    }

    #[test]
    fn var_map_is_stable() {
        let mut pool = VarPool::new();
        let e = parse_expr("a & b & a", &mut pool).unwrap();
        let (gates, _, vars) = encode(&e);
        assert_eq!(vars.len(), 2);
        // The constant, the two variables and one conjunction.
        assert_eq!(gates.sink().num_vars, 4);
    }

    #[test]
    fn structural_hashing_shares_repeated_subterms() {
        let mut pool = VarPool::new();
        // The conjunction appears on both sides of the implication: one
        // `a & b` gate, one for the disjunction, one for the implication.
        let e = parse_expr("(a & b) -> (a & b) | c", &mut pool).unwrap();
        let mut gates = GateEncoder::new(Cnf::new(0));
        let mut vars = BTreeMap::new();
        let mut var =
            |gates: &mut GateEncoder, v| *vars.entry(v).or_insert_with(|| gates.fresh_lit());
        let first = gates.encode(&e, &mut var);
        assert_eq!(gates.gates(), 3, "a & b must be hash-consed");
        assert_eq!(gates.cache_hits(), 1);
        let (clauses, num_vars) = (gates.sink().len(), gates.sink().num_vars);
        // Re-encoding is free: same literal, no new clauses or variables.
        let second = gates.encode(&e, &mut var);
        assert_eq!(first, second);
        assert_eq!(gates.sink().len(), clauses);
        assert_eq!(gates.sink().num_vars, num_vars);
        assert_eq!(gates.gates(), 3);
    }

    #[test]
    fn gate_definitions_are_hash_consed_and_folded() {
        let mut gates = GateEncoder::new(Cnf::new(0));
        let a = gates.fresh_lit();
        let b = gates.fresh_lit();
        let g1 = gates.define_and([a, b]);
        let clauses = gates.sink().len();
        // Same conjunction (any operand order): same literal, no new clauses.
        assert_eq!(gates.define_and([b, a]), g1);
        assert_eq!(gates.sink().len(), clauses);
        // XOR is sign-normalized: ¬a ⊕ b reuses the a ⊕ b gate, negated.
        let x = gates.define_xor(a, b);
        assert_eq!(gates.define_xor(a.negated(), b), x.negated());
        assert_eq!(gates.define_xor(b, a), x);
        // Constants fold instead of spending gates.
        let t = gates.const_true();
        assert_eq!(gates.define_and([a, t]), a);
        assert_eq!(gates.define_and([a, a.negated()]), t.negated());
        assert_eq!(gates.define_xor(a, t), a.negated());
        assert_eq!(gates.define_mux(t, a, b), a);
        assert_eq!(gates.define_mux(a, b, b), b);
        let m = gates.define_mux(a, b, x);
        assert_eq!(gates.define_mux(a, b, x), m);
        assert_eq!(gates.gates(), 3);
        assert_eq!(gates.cache_hits(), 4);
    }
}
