//! The BDD manager: node store, unique table and boolean operations.

use std::collections::HashMap;

use ipcl_expr::{Assignment, Expr, VarId};

/// Handle to a BDD node owned by a [`BddManager`].
///
/// The two terminals are [`BddRef::FALSE`] and [`BddRef::TRUE`]; every other
/// handle refers to a decision node. Handles are only meaningful for the
/// manager that created them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BddRef(pub(crate) u32);

impl BddRef {
    /// The constant-false terminal.
    pub const FALSE: BddRef = BddRef(0);
    /// The constant-true terminal.
    pub const TRUE: BddRef = BddRef(1);

    /// Whether this handle is one of the two terminals.
    pub fn is_terminal(self) -> bool {
        self.0 < 2
    }

    /// Raw index into the manager's node store (mostly useful for debugging
    /// and DOT export).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One decision node: branch variable (as a level) plus low/high children.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Node {
    level: u32,
    low: BddRef,
    high: BddRef,
}

/// Binary operations memoised in the apply cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Op {
    And,
    Or,
    Xor,
}

/// Size statistics of a manager, reported by [`BddManager::stats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BddStats {
    /// Total allocated nodes, including the two terminals.
    pub nodes: usize,
    /// Number of distinct variables registered with the manager.
    pub variables: usize,
    /// Entries currently held in the apply cache.
    pub cache_entries: usize,
}

/// A reduced ordered BDD manager.
///
/// Variables are [`VarId`]s from `ipcl-expr`; the manager assigns each
/// variable a *level* (its position in the global ordering) the first time it
/// is seen, or according to an explicit order given via
/// [`BddManager::with_order`].
#[derive(Clone, Debug)]
pub struct BddManager {
    nodes: Vec<Node>,
    unique: HashMap<(u32, BddRef, BddRef), BddRef>,
    apply_cache: HashMap<(Op, BddRef, BddRef), BddRef>,
    not_cache: HashMap<BddRef, BddRef>,
    /// level -> variable
    order: Vec<VarId>,
    /// variable -> level
    level_of: HashMap<VarId, u32>,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates a manager with an empty variable order; variables are assigned
    /// levels in first-use order.
    pub fn new() -> Self {
        BddManager {
            // Index 0 and 1 are the terminals; their node contents are never
            // inspected, but keeping real entries keeps indexing simple.
            nodes: vec![
                Node {
                    level: u32::MAX,
                    low: BddRef::FALSE,
                    high: BddRef::FALSE,
                },
                Node {
                    level: u32::MAX,
                    low: BddRef::TRUE,
                    high: BddRef::TRUE,
                },
            ],
            unique: HashMap::new(),
            apply_cache: HashMap::new(),
            not_cache: HashMap::new(),
            order: Vec::new(),
            level_of: HashMap::new(),
        }
    }

    /// Creates a manager with an explicit variable order (first = topmost).
    pub fn with_order<I: IntoIterator<Item = VarId>>(order: I) -> Self {
        let mut mgr = Self::new();
        for v in order {
            mgr.level_for(v);
        }
        mgr
    }

    /// The current variable order, topmost level first.
    pub fn order(&self) -> &[VarId] {
        &self.order
    }

    /// Size statistics for benchmarking and regression tests.
    pub fn stats(&self) -> BddStats {
        BddStats {
            nodes: self.nodes.len(),
            variables: self.order.len(),
            cache_entries: self.apply_cache.len() + self.not_cache.len(),
        }
    }

    /// The constant-true function.
    pub fn constant(&self, value: bool) -> BddRef {
        if value {
            BddRef::TRUE
        } else {
            BddRef::FALSE
        }
    }

    fn level_for(&mut self, var: VarId) -> u32 {
        if let Some(&level) = self.level_of.get(&var) {
            return level;
        }
        let level = self.order.len() as u32;
        self.order.push(var);
        self.level_of.insert(var, level);
        level
    }

    /// The variable at `level`, if any.
    pub fn var_at_level(&self, level: u32) -> Option<VarId> {
        self.order.get(level as usize).copied()
    }

    /// The projection function of `var` (a BDD that is true iff `var` is).
    pub fn var(&mut self, var: VarId) -> BddRef {
        let level = self.level_for(var);
        self.mk(level, BddRef::FALSE, BddRef::TRUE)
    }

    fn mk(&mut self, level: u32, low: BddRef, high: BddRef) -> BddRef {
        if low == high {
            return low;
        }
        if let Some(&existing) = self.unique.get(&(level, low, high)) {
            return existing;
        }
        let id = BddRef(self.nodes.len() as u32);
        self.nodes.push(Node { level, low, high });
        self.unique.insert((level, low, high), id);
        id
    }

    fn node(&self, f: BddRef) -> Node {
        self.nodes[f.index()]
    }

    /// Level of the topmost decision variable of `f` (`u32::MAX` for
    /// terminals).
    fn level(&self, f: BddRef) -> u32 {
        if f.is_terminal() {
            u32::MAX
        } else {
            self.node(f).level
        }
    }

    /// Negation.
    pub fn not(&mut self, f: BddRef) -> BddRef {
        match f {
            BddRef::FALSE => BddRef::TRUE,
            BddRef::TRUE => BddRef::FALSE,
            _ => {
                if let Some(&cached) = self.not_cache.get(&f) {
                    return cached;
                }
                let n = self.node(f);
                let low = self.not(n.low);
                let high = self.not(n.high);
                let result = self.mk(n.level, low, high);
                self.not_cache.insert(f, result);
                result
            }
        }
    }

    /// Conjunction.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.apply(Op::And, f, g)
    }

    /// Disjunction.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.apply(Op::Or, f, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.apply(Op::Xor, f, g)
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: BddRef, g: BddRef) -> BddRef {
        let nf = self.not(f);
        self.or(nf, g)
    }

    /// Bi-implication `f ↔ g`.
    pub fn iff(&mut self, f: BddRef, g: BddRef) -> BddRef {
        let x = self.xor(f, g);
        self.not(x)
    }

    /// If-then-else `ite(f, g, h)`.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
        // ite(f,g,h) = (f & g) | (!f & h)
        let fg = self.and(f, g);
        let nf = self.not(f);
        let nfh = self.and(nf, h);
        self.or(fg, nfh)
    }

    fn apply(&mut self, op: Op, f: BddRef, g: BddRef) -> BddRef {
        if let Some(result) = terminal_case(op, f, g) {
            return result;
        }
        // Normalise commutative operand order for better cache hit rates.
        let (f, g) = if f <= g { (f, g) } else { (g, f) };
        if let Some(&cached) = self.apply_cache.get(&(op, f, g)) {
            return cached;
        }
        let (lf, lg) = (self.level(f), self.level(g));
        let level = lf.min(lg);
        let (f_low, f_high) = if lf == level {
            let n = self.node(f);
            (n.low, n.high)
        } else {
            (f, f)
        };
        let (g_low, g_high) = if lg == level {
            let n = self.node(g);
            (n.low, n.high)
        } else {
            (g, g)
        };
        let low = self.apply(op, f_low, g_low);
        let high = self.apply(op, f_high, g_high);
        let result = self.mk(level, low, high);
        self.apply_cache.insert((op, f, g), result);
        result
    }

    /// Restriction `f[var := value]`.
    pub fn restrict(&mut self, f: BddRef, var: VarId, value: bool) -> BddRef {
        let Some(&level) = self.level_of.get(&var) else {
            return f;
        };
        self.restrict_level(f, level, value)
    }

    fn restrict_level(&mut self, f: BddRef, level: u32, value: bool) -> BddRef {
        if f.is_terminal() {
            return f;
        }
        let n = self.node(f);
        if n.level > level {
            return f;
        }
        if n.level == level {
            return if value { n.high } else { n.low };
        }
        let low = self.restrict_level(n.low, level, value);
        let high = self.restrict_level(n.high, level, value);
        self.mk(n.level, low, high)
    }

    /// Functional composition `f[var := g]`.
    pub fn compose(&mut self, f: BddRef, var: VarId, g: BddRef) -> BddRef {
        let high = self.restrict(f, var, true);
        let low = self.restrict(f, var, false);
        self.ite(g, high, low)
    }

    /// Existential quantification over `vars`.
    pub fn exists<I: IntoIterator<Item = VarId>>(&mut self, f: BddRef, vars: I) -> BddRef {
        let mut result = f;
        for var in vars {
            let high = self.restrict(result, var, true);
            let low = self.restrict(result, var, false);
            result = self.or(high, low);
        }
        result
    }

    /// Universal quantification over `vars`.
    pub fn forall<I: IntoIterator<Item = VarId>>(&mut self, f: BddRef, vars: I) -> BddRef {
        let mut result = f;
        for var in vars {
            let high = self.restrict(result, var, true);
            let low = self.restrict(result, var, false);
            result = self.and(high, low);
        }
        result
    }

    /// Builds the BDD of an `ipcl-expr` expression.
    ///
    /// Variables encountered for the first time are appended to the order; to
    /// control ordering, construct the manager via [`BddManager::with_order`]
    /// or pre-register variables with [`BddManager::var`].
    pub fn from_expr(&mut self, expr: &Expr) -> BddRef {
        match expr {
            Expr::Const(b) => self.constant(*b),
            Expr::Var(v) => self.var(*v),
            Expr::Not(e) => {
                let inner = self.from_expr(e);
                self.not(inner)
            }
            Expr::And(ops) => {
                let mut acc = BddRef::TRUE;
                for op in ops {
                    let operand = self.from_expr(op);
                    acc = self.and(acc, operand);
                    if acc == BddRef::FALSE {
                        break;
                    }
                }
                acc
            }
            Expr::Or(ops) => {
                let mut acc = BddRef::FALSE;
                for op in ops {
                    let operand = self.from_expr(op);
                    acc = self.or(acc, operand);
                    if acc == BddRef::TRUE {
                        break;
                    }
                }
                acc
            }
            Expr::Implies(l, r) => {
                let l = self.from_expr(l);
                let r = self.from_expr(r);
                self.implies(l, r)
            }
            Expr::Iff(l, r) => {
                let l = self.from_expr(l);
                let r = self.from_expr(r);
                self.iff(l, r)
            }
            Expr::Xor(l, r) => {
                let l = self.from_expr(l);
                let r = self.from_expr(r);
                self.xor(l, r)
            }
            Expr::Ite(c, t, e) => {
                let c = self.from_expr(c);
                let t = self.from_expr(t);
                let e = self.from_expr(e);
                self.ite(c, t, e)
            }
        }
    }

    /// Evaluates `f` under a (partial) assignment; unassigned variables read
    /// as `false`, matching hardware reset semantics.
    pub fn eval(&self, f: BddRef, env: &Assignment) -> bool {
        let mut cursor = f;
        while !cursor.is_terminal() {
            let n = self.node(cursor);
            let var = self.order[n.level as usize];
            cursor = if env.get_or_false(var) { n.high } else { n.low };
        }
        cursor == BddRef::TRUE
    }

    /// Whether `f` is the constant-true function.
    pub fn is_tautology(&self, f: BddRef) -> bool {
        f == BddRef::TRUE
    }

    /// Whether `f` is the constant-false function.
    pub fn is_contradiction(&self, f: BddRef) -> bool {
        f == BddRef::FALSE
    }

    /// Whether `f → g` is valid.
    pub fn implication_holds(&mut self, f: BddRef, g: BddRef) -> bool {
        let imp = self.implies(f, g);
        self.is_tautology(imp)
    }

    /// Whether `f` and `g` denote the same function.
    pub fn equivalent(&self, f: BddRef, g: BddRef) -> bool {
        // Canonicity of ROBDDs: same function ⇔ same node.
        f == g
    }

    /// The set of variables `f` actually depends on.
    pub fn support(&self, f: BddRef) -> Vec<VarId> {
        let mut levels = std::collections::BTreeSet::new();
        let mut stack = vec![f];
        let mut seen = std::collections::HashSet::new();
        while let Some(node) = stack.pop() {
            if node.is_terminal() || !seen.insert(node) {
                continue;
            }
            let n = self.node(node);
            levels.insert(n.level);
            stack.push(n.low);
            stack.push(n.high);
        }
        levels
            .into_iter()
            .map(|level| self.order[level as usize])
            .collect()
    }

    /// Number of decision nodes reachable from `f` (excluding terminals).
    pub fn size(&self, f: BddRef) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        let mut count = 0;
        while let Some(node) = stack.pop() {
            if node.is_terminal() || !seen.insert(node) {
                continue;
            }
            count += 1;
            let n = self.node(node);
            stack.push(n.low);
            stack.push(n.high);
        }
        count
    }

    /// Internal accessor used by the analysis and DOT modules.
    pub(crate) fn children(&self, f: BddRef) -> Option<(u32, BddRef, BddRef)> {
        if f.is_terminal() {
            None
        } else {
            let n = self.node(f);
            Some((n.level, n.low, n.high))
        }
    }

    /// Clears the operation caches (the unique table and nodes are kept).
    pub fn clear_caches(&mut self) {
        self.apply_cache.clear();
        self.not_cache.clear();
    }
}

fn terminal_case(op: Op, f: BddRef, g: BddRef) -> Option<BddRef> {
    match op {
        Op::And => {
            if f == BddRef::FALSE || g == BddRef::FALSE {
                Some(BddRef::FALSE)
            } else if f == BddRef::TRUE {
                Some(g)
            } else if g == BddRef::TRUE || f == g {
                Some(f)
            } else {
                None
            }
        }
        Op::Or => {
            if f == BddRef::TRUE || g == BddRef::TRUE {
                Some(BddRef::TRUE)
            } else if f == BddRef::FALSE {
                Some(g)
            } else if g == BddRef::FALSE || f == g {
                Some(f)
            } else {
                None
            }
        }
        Op::Xor => {
            if f == g {
                Some(BddRef::FALSE)
            } else if f == BddRef::FALSE {
                Some(g)
            } else if g == BddRef::FALSE {
                Some(f)
            } else if f == BddRef::TRUE && g == BddRef::TRUE {
                Some(BddRef::FALSE)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_expr::{parse_expr, VarPool};

    fn mgr_abc() -> (BddManager, VarId, VarId, VarId) {
        let mut pool = VarPool::new();
        let a = pool.var("a");
        let b = pool.var("b");
        let c = pool.var("c");
        (BddManager::with_order([a, b, c]), a, b, c)
    }

    #[test]
    fn terminals() {
        let mgr = BddManager::new();
        assert!(mgr.is_tautology(BddRef::TRUE));
        assert!(mgr.is_contradiction(BddRef::FALSE));
        assert!(BddRef::TRUE.is_terminal());
        assert_eq!(mgr.constant(true), BddRef::TRUE);
        assert_eq!(mgr.constant(false), BddRef::FALSE);
    }

    #[test]
    fn hash_consing_shares_nodes() {
        let (mut mgr, a, _, _) = mgr_abc();
        let f = mgr.var(a);
        let g = mgr.var(a);
        assert_eq!(f, g);
        assert_eq!(mgr.size(f), 1);
    }

    #[test]
    fn basic_laws() {
        let (mut mgr, a, b, _) = mgr_abc();
        let va = mgr.var(a);
        let vb = mgr.var(b);
        let na = mgr.not(va);

        let contradiction = mgr.and(va, na);
        assert!(mgr.is_contradiction(contradiction));
        let excluded_middle = mgr.or(va, na);
        assert!(mgr.is_tautology(excluded_middle));

        let ab = mgr.and(va, vb);
        let ba = mgr.and(vb, va);
        assert!(mgr.equivalent(ab, ba));

        let double_neg = mgr.not(na);
        assert_eq!(double_neg, va);

        // De Morgan
        let nab = mgr.not(ab);
        let nb = mgr.not(vb);
        let or_n = mgr.or(na, nb);
        assert!(mgr.equivalent(nab, or_n));
    }

    #[test]
    fn xor_iff_ite() {
        let (mut mgr, a, b, c) = mgr_abc();
        let (va, vb, vc) = (mgr.var(a), mgr.var(b), mgr.var(c));
        let x = mgr.xor(va, vb);
        let i = mgr.iff(va, vb);
        let ni = mgr.not(i);
        assert!(mgr.equivalent(x, ni));
        let ite = mgr.ite(va, vb, vc);
        // Check by evaluation on all 8 assignments.
        for mask in 0..8u32 {
            let env = Assignment::from_pairs([
                (a, mask & 1 != 0),
                (b, mask & 2 != 0),
                (c, mask & 4 != 0),
            ]);
            let expected = if mask & 1 != 0 {
                mask & 2 != 0
            } else {
                mask & 4 != 0
            };
            assert_eq!(mgr.eval(ite, &env), expected);
        }
    }

    #[test]
    fn restrict_and_compose() {
        let (mut mgr, a, b, c) = mgr_abc();
        let (va, vb, vc) = (mgr.var(a), mgr.var(b), mgr.var(c));
        let ab = mgr.and(va, vb);
        let restricted = mgr.restrict(ab, a, true);
        assert!(mgr.equivalent(restricted, vb));
        let restricted_false = mgr.restrict(ab, a, false);
        assert!(mgr.is_contradiction(restricted_false));
        // Compose b := c in (a & b) gives (a & c).
        let composed = mgr.compose(ab, b, vc);
        let ac = mgr.and(va, vc);
        assert!(mgr.equivalent(composed, ac));
        // Restricting an unknown variable is a no-op.
        let mut pool = VarPool::new();
        pool.var("a");
        pool.var("b");
        pool.var("c");
        let unknown = pool.var("zzz");
        assert_eq!(mgr.restrict(ab, unknown, true), ab);
    }

    #[test]
    fn quantification() {
        let (mut mgr, a, b, _) = mgr_abc();
        let (va, vb) = (mgr.var(a), mgr.var(b));
        let ab = mgr.and(va, vb);
        let exists_a = mgr.exists(ab, [a]);
        assert!(mgr.equivalent(exists_a, vb));
        let forall_a = mgr.forall(ab, [a]);
        assert!(mgr.is_contradiction(forall_a));
        let aob = mgr.or(va, vb);
        let forall_both = mgr.forall(aob, [a, b]);
        assert!(mgr.is_contradiction(forall_both));
        let exists_both = mgr.exists(aob, [a, b]);
        assert!(mgr.is_tautology(exists_both));
    }

    #[test]
    fn from_expr_agrees_with_eval() {
        let mut pool = VarPool::new();
        let texts = [
            "a & b | !c",
            "(a -> b) & (b -> c) -> (a -> c)",
            "a <-> b ^ c",
            "if a then b else c",
            "a & !a",
        ];
        for text in texts {
            let e = parse_expr(text, &mut pool).unwrap();
            let mut mgr = BddManager::new();
            let f = mgr.from_expr(&e);
            let vars: Vec<VarId> = e.vars().into_iter().collect();
            for mask in 0u32..(1 << vars.len()) {
                let env: Assignment = vars
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, mask & (1 << i) != 0))
                    .collect();
                let expected = e.eval_with(|v| {
                    vars.iter()
                        .position(|&x| x == v)
                        .map(|i| mask & (1 << i) != 0)
                        .unwrap_or(false)
                });
                assert_eq!(mgr.eval(f, &env), expected, "{text} mask {mask:b}");
            }
        }
    }

    #[test]
    fn implication_and_equivalence_checks() {
        let mut pool = VarPool::new();
        let stronger = parse_expr("a & b", &mut pool).unwrap();
        let weaker = parse_expr("a | b", &mut pool).unwrap();
        let mut mgr = BddManager::new();
        let s = mgr.from_expr(&stronger);
        let w = mgr.from_expr(&weaker);
        assert!(mgr.implication_holds(s, w));
        assert!(!mgr.implication_holds(w, s));
        assert!(!mgr.equivalent(s, w));
    }

    #[test]
    fn support_and_size() {
        let (mut mgr, a, b, c) = mgr_abc();
        let (va, vb) = (mgr.var(a), mgr.var(b));
        let f = mgr.and(va, vb);
        assert_eq!(mgr.support(f), vec![a, b]);
        assert_eq!(mgr.size(f), 2);
        assert_eq!(mgr.support(BddRef::TRUE), vec![]);
        assert_eq!(mgr.size(BddRef::FALSE), 0);
        // c is registered but not in the support of f.
        assert!(!mgr.support(f).contains(&c));
    }

    #[test]
    fn stats_and_cache_clear() {
        let (mut mgr, a, b, _) = mgr_abc();
        let (va, vb) = (mgr.var(a), mgr.var(b));
        let _ = mgr.and(va, vb);
        let stats = mgr.stats();
        assert!(stats.nodes >= 4);
        assert_eq!(stats.variables, 3);
        mgr.clear_caches();
        assert_eq!(mgr.stats().cache_entries, 0);
    }

    #[test]
    fn reduction_eliminates_redundant_tests() {
        let (mut mgr, a, b, _) = mgr_abc();
        let va = mgr.var(a);
        let vb = mgr.var(b);
        // (a & b) | (a & !b) == a ; the BDD must collapse to the single node a.
        let nb = mgr.not(vb);
        let left = mgr.and(va, vb);
        let right = mgr.and(va, nb);
        let f = mgr.or(left, right);
        assert_eq!(f, va);
    }

    #[test]
    fn with_order_respects_given_order() {
        let mut pool = VarPool::new();
        let x = pool.var("x");
        let y = pool.var("y");
        let mgr = BddManager::with_order([y, x]);
        assert_eq!(mgr.order(), &[y, x]);
        assert_eq!(mgr.var_at_level(0), Some(y));
        assert_eq!(mgr.var_at_level(1), Some(x));
        assert_eq!(mgr.var_at_level(2), None);
    }
}
