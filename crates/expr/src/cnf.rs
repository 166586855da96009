//! Conjunctive normal form and the Tseitin encoding.
//!
//! The SAT engine in `ipcl-sat` consumes [`Cnf`] formulas. Validity and
//! implication queries over specification expressions are answered by encoding
//! the *negation* of the query with [`TseitinEncoder`] and checking
//! unsatisfiability.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use crate::expr::Expr;
use crate::polarity::Polarity;
use crate::vars::VarId;

/// A literal: a CNF variable index with a sign.
///
/// CNF variables are separate from specification [`VarId`]s because the
/// Tseitin encoding introduces fresh definition variables; the encoder keeps
/// the mapping.
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

/// Needed encoding directions of a gate, as a bitmask: [`POS`] are the
/// `g → f` clauses (sound where the subformula occurs positively),
/// [`NEG`] the `f → g` clauses (negative occurrences).
const POS: u8 = 0b01;
const NEG: u8 = 0b10;
const BOTH: u8 = POS | NEG;

fn flip(need: u8) -> u8 {
    ((need & POS) << 1) | ((need & NEG) >> 1)
}

fn polarity_mask(polarity: Polarity) -> u8 {
    match polarity {
        Polarity::Positive => POS,
        Polarity::Negative => NEG,
        Polarity::Mixed => BOTH,
    }
}

/// A hash-consed gate: its definition literal and the directions whose
/// clauses have been emitted so far.
#[derive(Clone, Copy, Debug)]
struct GateEntry {
    lit: Lit,
    emitted: u8,
}

/// Structural-hashing effectiveness counters of a [`TseitinEncoder`]
/// (shared-gate reuse is the encoder's whole performance story, so the
/// observability layer surfaces these as `encode.*` metrics).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EncodeStats {
    /// Distinct gates allocated (cache misses).
    pub gates: u64,
    /// Gate lookups answered from the structural-hashing cache.
    pub cache_hits: u64,
}

/// The hash-consed gates of a [`TseitinEncoder`], one table per
/// connective, keyed on the *already-encoded child literals* (bottom-up
/// hash-consing). Keying on child literals instead of on subexpression
/// trees keeps every cache probe O(arity) — no deep clones, no repeated
/// subtree hashing — and shares gates even across structurally different
/// spellings that encode to the same operands (associativity-flattened or
/// reordered conjunctions, say).
#[derive(Clone, Debug, Default)]
struct Gates {
    /// The literals of `false` and `true`.
    constants: [Option<Lit>; 2],
    /// Sorted, deduplicated operands, looked up by slice.
    and: HashMap<Vec<Lit>, GateEntry>,
    /// Sorted, deduplicated operands, looked up by slice.
    or: HashMap<Vec<Lit>, GateEntry>,
    implies: HashMap<(Lit, Lit), GateEntry>,
    /// Operands normalized by literal order (commutative).
    iff: HashMap<(Lit, Lit), GateEntry>,
    /// Operands normalized by literal order (commutative).
    xor: HashMap<(Lit, Lit), GateEntry>,
    ite: HashMap<(Lit, Lit, Lit), GateEntry>,
}

/// Tseitin encoder translating [`Expr`]s into [`Cnf`] with a stable mapping
/// from specification variables to CNF variables.
///
/// The encoder performs **structural hashing**: every distinct subterm is
/// encoded once and shared (a hash-consed subterm → literal cache), so
/// repeated subformulas — ubiquitous in interlock specifications, where the
/// same stall conditions appear in several rules — cost no duplicate
/// definitional clauses.
///
/// Two encoding disciplines are offered:
///
/// * [`TseitinEncoder::encode`] emits the full biconditional definition of
///   every gate, so the returned literal may be used with either sign;
/// * [`TseitinEncoder::encode_with_polarity`] /
///   [`TseitinEncoder::assert_expr`] perform the polarity-aware
///   **Plaisted–Greenbaum** encoding, emitting only the implication
///   direction each occurrence needs (per the same occurrence-polarity
///   notion as [`crate::polarity`]) — roughly half the definitional
///   clauses for and/or-heavy formulas, equisatisfiable as long as the
///   returned literal is only used with the declared polarity.
///
/// # Example
///
/// ```
/// use ipcl_expr::{parse_expr, TseitinEncoder, VarPool};
///
/// let mut pool = VarPool::new();
/// let e = parse_expr("a & !a", &mut pool)?;
/// let mut enc = TseitinEncoder::new();
/// let root = enc.encode(&e);
/// enc.assert_literal(root);
/// // The encoded formula is unsatisfiable because `a & !a` is.
/// assert!(enc.cnf().clauses.len() >= 3);
/// # Ok::<(), ipcl_expr::ParseError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct TseitinEncoder {
    cnf: Cnf,
    var_map: std::collections::BTreeMap<VarId, u32>,
    /// Hash-consed gates (gate nodes and constants only; variables go
    /// through `var_map`).
    gates: Gates,
    stats: EncodeStats,
}

impl TseitinEncoder {
    /// Creates an encoder with an empty formula.
    pub fn new() -> Self {
        Self::default()
    }

    /// The CNF variable representing specification variable `var`,
    /// allocating one on first use.
    pub fn cnf_var(&mut self, var: VarId) -> u32 {
        if let Some(&v) = self.var_map.get(&var) {
            return v;
        }
        let v = self.cnf.fresh_var();
        self.var_map.insert(var, v);
        v
    }

    /// The mapping from specification variables to CNF variables built so far.
    pub fn var_map(&self) -> &std::collections::BTreeMap<VarId, u32> {
        &self.var_map
    }

    /// Encodes `expr`, returning the literal that is true iff the expression
    /// is true. Clauses defining intermediate gates are added to the formula;
    /// structurally identical subterms share one definition. The literal
    /// carries the full biconditional definition, so it may be asserted,
    /// negated or assumed freely.
    pub fn encode(&mut self, expr: &Expr) -> Lit {
        self.ensure(expr, BOTH)
    }

    /// Plaisted–Greenbaum: encodes `expr` for occurrences of the given
    /// `polarity` only. The returned literal is sound *only* under that
    /// polarity — e.g. after `encode_with_polarity(e, Polarity::Positive)`
    /// the literal may be asserted or assumed true (forcing `e`), but its
    /// negation is unconstrained. Use [`Polarity::Mixed`] (or
    /// [`TseitinEncoder::encode`]) when both signs are needed.
    pub fn encode_with_polarity(&mut self, expr: &Expr, polarity: Polarity) -> Lit {
        self.ensure(expr, polarity_mask(polarity))
    }

    /// Asserts `expr` with the positive-polarity Plaisted–Greenbaum
    /// encoding: the standard satisfiability query, at roughly half the
    /// definitional clauses of the full Tseitin encoding.
    pub fn assert_expr(&mut self, expr: &Expr) {
        let root = self.encode_with_polarity(expr, Polarity::Positive);
        self.assert_literal(root);
    }

    /// Adds a unit clause forcing `lit` to be true.
    pub fn assert_literal(&mut self, lit: Lit) {
        self.cnf.add_clause([lit]);
    }

    /// Consumes the encoder, returning the formula.
    pub fn into_cnf(self) -> Cnf {
        self.cnf
    }

    /// Borrows the formula built so far.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Structural-hashing counters accumulated so far.
    pub fn stats(&self) -> EncodeStats {
        self.stats
    }

    /// The shared literal of the constant `b` (a variable forced to that
    /// value by one unit clause, valid in both directions).
    fn constant(&mut self, b: bool) -> Lit {
        if let Some(lit) = self.gates.constants[usize::from(b)] {
            self.stats.cache_hits += 1;
            return lit;
        }
        let lit = Lit::positive(self.cnf.fresh_var());
        self.cnf.add_clause([Lit::new(lit.var(), b)]);
        self.gates.constants[usize::from(b)] = Some(lit);
        self.stats.gates += 1;
        lit
    }

    /// Looks up (or allocates) the gate `key` in the table `table` picks,
    /// returning its literal and the subset of `need` whose clauses still
    /// have to be emitted. A hit allocates nothing.
    fn gate<K, Q>(
        &mut self,
        table: impl FnOnce(&mut Gates) -> &mut HashMap<K, GateEntry>,
        key: &Q,
        need: u8,
    ) -> (Lit, u8)
    where
        K: Borrow<Q> + Eq + Hash,
        Q: ToOwned<Owned = K> + Eq + Hash + ?Sized,
    {
        let table = table(&mut self.gates);
        if let Some(entry) = table.get_mut(key) {
            self.stats.cache_hits += 1;
            let missing = need & !entry.emitted;
            entry.emitted |= missing;
            return (entry.lit, missing);
        }
        self.stats.gates += 1;
        let lit = Lit::positive(self.cnf.fresh_var());
        table.insert(key.to_owned(), GateEntry { lit, emitted: need });
        (lit, need)
    }

    /// Encodes `expr` bottom-up: children first, then the gate keyed on
    /// their literals, emitting the clauses of any still-missing
    /// direction in `need`. Children are encoded with the polarity their
    /// occurrence position demands (same for and/or/ite branches, flipped
    /// under negation and implication antecedents, both for iff/xor and
    /// ite conditions); when the gate itself is fully cached the child
    /// walk is a pure cache-hit traversal.
    fn ensure(&mut self, expr: &Expr, need: u8) -> Lit {
        match expr {
            Expr::Var(v) => Lit::positive(self.cnf_var(*v)),
            Expr::Not(e) => self.ensure(e, flip(need)).negated(),
            Expr::Const(b) => self.constant(*b),
            Expr::And(ops) => {
                let mut lits: Vec<Lit> = ops.iter().map(|op| self.ensure(op, need)).collect();
                lits.sort_unstable();
                lits.dedup();
                match lits.len() {
                    0 => self.constant(true),
                    1 => lits[0],
                    _ => {
                        let (g, missing) = self.gate(|gates| &mut gates.and, lits.as_slice(), need);
                        if missing & POS != 0 {
                            // g → each operand.
                            for &lit in &lits {
                                self.cnf.add_clause([g.negated(), lit]);
                            }
                        }
                        if missing & NEG != 0 {
                            // All operands → g.
                            let mut clause: Clause = lits.iter().map(|l| l.negated()).collect();
                            clause.push(g);
                            self.cnf.add_clause(clause);
                        }
                        g
                    }
                }
            }
            Expr::Or(ops) => {
                let mut lits: Vec<Lit> = ops.iter().map(|op| self.ensure(op, need)).collect();
                lits.sort_unstable();
                lits.dedup();
                match lits.len() {
                    0 => self.constant(false),
                    1 => lits[0],
                    _ => {
                        let (g, missing) = self.gate(|gates| &mut gates.or, lits.as_slice(), need);
                        if missing & POS != 0 {
                            // g → some operand.
                            let mut clause: Clause = lits.clone();
                            clause.insert(0, g.negated());
                            self.cnf.add_clause(clause);
                        }
                        if missing & NEG != 0 {
                            // Each operand → g.
                            for &lit in &lits {
                                self.cnf.add_clause([lit.negated(), g]);
                            }
                        }
                        g
                    }
                }
            }
            Expr::Implies(l, r) => {
                let l = self.ensure(l, flip(need));
                let r = self.ensure(r, need);
                let (g, missing) = self.gate(|gates| &mut gates.implies, &(l, r), need);
                if missing & POS != 0 {
                    self.cnf.add_clause([g.negated(), l.negated(), r]);
                }
                if missing & NEG != 0 {
                    self.cnf.add_clause([g, l]);
                    self.cnf.add_clause([g, r.negated()]);
                }
                g
            }
            Expr::Iff(l, r) => {
                let mut a = self.ensure(l, BOTH);
                let mut b = self.ensure(r, BOTH);
                if b < a {
                    std::mem::swap(&mut a, &mut b);
                }
                let (g, missing) = self.gate(|gates| &mut gates.iff, &(a, b), need);
                if missing & POS != 0 {
                    self.cnf.add_clause([g.negated(), a.negated(), b]);
                    self.cnf.add_clause([g.negated(), a, b.negated()]);
                }
                if missing & NEG != 0 {
                    self.cnf.add_clause([g, a, b]);
                    self.cnf.add_clause([g, a.negated(), b.negated()]);
                }
                g
            }
            Expr::Xor(l, r) => {
                let mut a = self.ensure(l, BOTH);
                let mut b = self.ensure(r, BOTH);
                if b < a {
                    std::mem::swap(&mut a, &mut b);
                }
                let (g, missing) = self.gate(|gates| &mut gates.xor, &(a, b), need);
                if missing & POS != 0 {
                    self.cnf.add_clause([g.negated(), a, b]);
                    self.cnf.add_clause([g.negated(), a.negated(), b.negated()]);
                }
                if missing & NEG != 0 {
                    self.cnf.add_clause([g, a.negated(), b]);
                    self.cnf.add_clause([g, a, b.negated()]);
                }
                g
            }
            Expr::Ite(c, t, e) => {
                let c = self.ensure(c, BOTH);
                let t = self.ensure(t, need);
                let e = self.ensure(e, need);
                let (g, missing) = self.gate(|gates| &mut gates.ite, &(c, t, e), need);
                if missing & POS != 0 {
                    self.cnf.add_clause([g.negated(), c.negated(), t]);
                    self.cnf.add_clause([g.negated(), c, e]);
                }
                if missing & NEG != 0 {
                    self.cnf.add_clause([g, c.negated(), t.negated()]);
                    self.cnf.add_clause([g, c, e.negated()]);
                }
                g
            }
        }
    }
}

#[cfg(test)]
mod tests {
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

    /// Brute-force check: the Tseitin encoding is equisatisfiable with the
    /// original expression, and projections onto the original variables agree.
    fn check_equisatisfiable(text: &str) {
        let mut pool = VarPool::new();
        let expr = parse_expr(text, &mut pool).unwrap();
        let mut enc = TseitinEncoder::new();
        let root = enc.encode(&expr);
        enc.assert_literal(root);
        let var_map = enc.var_map().clone();
        let cnf = enc.into_cnf();

        let spec_vars: Vec<_> = expr.vars().into_iter().collect();

        // For every assignment of the original variables: expr is true  iff
        // the CNF has a model extending that assignment.
        for mask in 0u64..(1 << spec_vars.len()) {
            let spec_val = |v: crate::VarId| {
                let pos = spec_vars.iter().position(|&x| x == v).unwrap();
                mask & (1 << pos) != 0
            };
            let expr_value = expr.eval_with(spec_val);

            // Enumerate auxiliary variables (those not mapped from spec vars).
            let aux: Vec<u32> = (0..cnf.num_vars)
                .filter(|v| !var_map.values().any(|mv| mv == v))
                .collect();
            assert!(aux.len() <= 16, "too many aux vars for brute force");
            let mut sat = false;
            for aux_mask in 0u64..(1 << aux.len()) {
                let value_of = |v: u32| {
                    if let Some((spec, _)) = var_map.iter().find(|(_, &mv)| mv == v) {
                        spec_val(*spec)
                    } else {
                        let pos = aux.iter().position(|&x| x == v).unwrap();
                        aux_mask & (1 << pos) != 0
                    }
                };
                if cnf.eval(value_of) {
                    sat = true;
                    break;
                }
            }
            assert_eq!(expr_value, sat, "disagreement on {text} with mask {mask:b}");
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
        ] {
            check_equisatisfiable(text);
        }
    }

    #[test]
    fn constants_encode_correctly() {
        let mut enc = TseitinEncoder::new();
        let t = enc.encode(&Expr::TRUE);
        enc.assert_literal(t);
        let cnf = enc.cnf().clone();
        assert!(cnf.eval(|_| true) || cnf.eval(|_| false));

        let mut enc = TseitinEncoder::new();
        let f = enc.encode(&Expr::FALSE);
        enc.assert_literal(f);
        let cnf = enc.into_cnf();
        // Forced false and asserted true: unsatisfiable for every valuation
        // of its single variable.
        assert!(!cnf.eval(|_| true) && !cnf.eval(|_| false));
    }

    #[test]
    fn var_map_is_stable() {
        let mut pool = VarPool::new();
        let e = parse_expr("a & b & a", &mut pool).unwrap();
        let mut enc = TseitinEncoder::new();
        enc.encode(&e);
        assert_eq!(enc.var_map().len(), 2);
    }

    #[test]
    fn structural_hashing_shares_repeated_subterms() {
        let mut pool = VarPool::new();
        // The conjunction appears on both sides of the implication: one gate.
        let e = parse_expr("(a & b) -> (a & b) & c", &mut pool).unwrap();
        let mut enc = TseitinEncoder::new();
        let first = enc.encode(&e);
        let clauses = enc.cnf().len();
        let vars = enc.cnf().num_vars;
        // Re-encoding is free: same literal, no new clauses or variables.
        let second = enc.encode(&e);
        assert_eq!(first, second);
        assert_eq!(enc.cnf().len(), clauses);
        assert_eq!(enc.cnf().num_vars, vars);

        // Without sharing, `a & b` would be defined twice; with it, one
        // `a & b` gate, one `(a & b) & c` gate, one implication gate.
        let shared = parse_expr("(a & b) -> (a & b)", &mut pool).unwrap();
        let mut enc = TseitinEncoder::new();
        enc.encode(&shared);
        let num_gates = enc.cnf().num_vars - 2; // minus the two variables
        assert_eq!(num_gates, 2, "a & b must be hash-consed");
    }

    /// Brute-force satisfiability of a CNF (for the small test formulas).
    fn cnf_satisfiable(cnf: &Cnf) -> bool {
        assert!(cnf.num_vars <= 22, "too many variables for brute force");
        (0u64..(1 << cnf.num_vars)).any(|mask| cnf.eval(|v| mask & (1 << v) != 0))
    }

    /// The Plaisted–Greenbaum encoding (root asserted positively) and the
    /// full Tseitin encoding must be equisatisfiable, and PG must never
    /// emit more clauses.
    fn check_pg_equisatisfiable(expr: &Expr) {
        let mut full = TseitinEncoder::new();
        let root = full.encode(expr);
        full.assert_literal(root);
        let full = full.into_cnf();

        let mut pg = TseitinEncoder::new();
        pg.assert_expr(expr);
        let pg = pg.into_cnf();

        assert!(
            pg.len() <= full.len(),
            "PG emitted more clauses ({}) than full Tseitin ({}) for {expr:?}",
            pg.len(),
            full.len()
        );
        assert_eq!(
            cnf_satisfiable(&full),
            cnf_satisfiable(&pg),
            "PG and full Tseitin disagree on {expr:?}"
        );
    }

    #[test]
    fn plaisted_greenbaum_equisatisfiable_small_formulas() {
        let mut pool = VarPool::new();
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
            let expr = parse_expr(text, &mut pool).unwrap();
            check_pg_equisatisfiable(&expr);
        }
    }

    /// A deterministic random expression over `vars` variables.
    fn random_expr(rng: &mut impl rand::Rng, vars: u32, depth: u32) -> Expr {
        if depth == 0 || rng.random_range(0..6) == 0 {
            let v = VarId(rng.random_range(0..vars));
            return if rng.random_bool(0.5) {
                Expr::Var(v)
            } else {
                Expr::Not(Expr::Var(v).into())
            };
        }
        let sub = |rng: &mut _| random_expr(rng, vars, depth - 1);
        match rng.random_range(0..7) {
            0 => Expr::And(vec![sub(rng), sub(rng)]),
            1 => Expr::Or(vec![sub(rng), sub(rng)]),
            2 => Expr::Implies(sub(rng).into(), sub(rng).into()),
            3 => Expr::Iff(sub(rng).into(), sub(rng).into()),
            4 => Expr::Xor(sub(rng).into(), sub(rng).into()),
            5 => Expr::Ite(sub(rng).into(), sub(rng).into(), sub(rng).into()),
            _ => Expr::Not(sub(rng).into()),
        }
    }

    #[test]
    fn plaisted_greenbaum_equisatisfiable_random_formulas() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(0x7E17);
        for _ in 0..150 {
            let expr = random_expr(&mut rng, 4, 3);
            check_pg_equisatisfiable(&expr);
        }
    }

    #[test]
    fn polarity_negative_encoding_supports_refutation() {
        // Encoding with Negative polarity constrains the f → g direction:
        // asserting ¬g then forces ¬f, the shape of a validity query.
        let mut pool = VarPool::new();
        let tautology = parse_expr("a | !a", &mut pool).unwrap();
        let mut enc = TseitinEncoder::new();
        let root = enc.encode_with_polarity(&tautology, Polarity::Negative);
        enc.assert_literal(root.negated());
        assert!(!cnf_satisfiable(enc.cnf()), "¬(a | !a) must be unsat");

        let satisfiable = parse_expr("a & b", &mut pool).unwrap();
        let mut enc = TseitinEncoder::new();
        let root = enc.encode_with_polarity(&satisfiable, Polarity::Negative);
        enc.assert_literal(root.negated());
        assert!(cnf_satisfiable(enc.cnf()), "¬(a & b) must be sat");
    }
}
