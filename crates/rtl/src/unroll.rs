//! Symbolic time-frame unrolling of netlists into CNF.
//!
//! Bounded model checking asks "is there an input sequence of length *k*
//! driving the circuit into a bad state?". To answer it with a SAT solver,
//! the sequential netlist is *unrolled*: each signal gets one CNF literal per
//! time frame, combinational gates are encoded with their Tseitin clauses in
//! every frame, and each register's frame-*t* literal is the frame-*t−1*
//! literal of its next-state signal. Frame 0 registers either take their
//! reset values ([`InitialState::Reset`], the BMC base case) or are left
//! unconstrained ([`InitialState::Free`], the k-induction step case).
//!
//! The [`Unroller`] borrows the caller's netlist and its elaboration order
//! ([`Netlist::elaborate`]), so a check that unrolls one netlist several
//! times elaborates it once. It writes every variable and clause once, into
//! a [`ClauseSink`]: a [`Cnf`] when the formula itself is wanted
//! ([`Unroller::new`]), or the incremental SAT solver that decides it
//! ([`Unroller::with_sink`]). It is *incremental*: frames are appended one
//! at a time and the formula only ever grows, so a BMC loop keeps all
//! learned clauses from shallower depths.
//!
//! # Example
//!
//! ```
//! use ipcl_rtl::{Netlist, unroll::{InitialState, Unroller}};
//!
//! let mut n = Netlist::new("toggler");
//! let t = n.register("t", false);
//! let nt = n.not_gate("nt", t);
//! n.connect_register(t, nt)?;
//!
//! let order = n.elaborate()?;
//! let mut unroller = Unroller::new(&n, &order, InitialState::Reset);
//! unroller.add_frame();
//! unroller.add_frame();
//! // Frame 0 is the reset frame; the register literal of frame 1 is the
//! // frame-0 literal of its next-state cone.
//! assert_eq!(unroller.num_frames(), 2);
//! assert_eq!(unroller.lit(1, t), unroller.lit(0, nt));
//! // The formula went into a `Cnf`: the constant-true unit, then the
//! // inverter, which needs no clause of its own.
//! assert_eq!(unroller.cnf().len(), 1);
//! # Ok::<(), ipcl_rtl::RtlError>(())
//! ```

use std::collections::HashMap;

use ipcl_expr::{ClauseSink, Cnf, Lit};

use crate::netlist::{Gate, Netlist, SignalId, SignalKind};

/// Encode-path counters of an [`Unroller`]: how much work the unrolling
/// did and how much the structural-hashing cache saved (surfaced as
/// `unroll.*` metrics by the observability layer).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct UnrollStats {
    /// Time frames appended.
    pub frames: u64,
    /// Distinct gates defined (cache misses across and/xor/mux).
    pub gates: u64,
    /// Gate definitions answered from the structural-hashing cache.
    pub cache_hits: u64,
}

/// How frame-0 registers are constrained.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InitialState {
    /// Registers take their declared reset values (paths start at reset —
    /// the bounded-model-checking base case).
    Reset,
    /// Registers are unconstrained (paths start anywhere — the inductive
    /// step case).
    Free,
}

/// Incremental time-frame unroller of a borrowed netlist, writing into the
/// clause sink `S`. See the module docs for the encoding.
#[derive(Clone, Debug)]
pub struct Unroller<'n, S = Cnf> {
    netlist: &'n Netlist,
    /// Topological order of combinational wires from elaboration.
    order: &'n [SignalId],
    /// The registers, in [`Netlist::registers`] order.
    registers: Vec<SignalId>,
    initial: InitialState,
    sink: S,
    /// `frames[t][signal.index()]` is the literal of the signal in frame `t`.
    frames: Vec<Vec<Lit>>,
    const_true: Lit,
    /// Structural-hashing caches: normalized gate shape → definition
    /// literal. Hit whenever the same function over the same frame
    /// literals is requested again — duplicate gates inside one frame,
    /// and the repeated property-instance/cube encodings BMC and PDR
    /// issue over a fixed unrolling — so the duplicate definitional
    /// clauses are never emitted. Conjunctions are keyed by their sorted,
    /// deduplicated operands and looked up by slice.
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
    stats: UnrollStats,
}

impl<'n> Unroller<'n, Cnf> {
    /// Builds an unroller for `netlist`, whose elaboration order is
    /// `order`, with no frames yet, writing into a fresh [`Cnf`] (see
    /// [`Unroller::cnf`]).
    pub fn new(netlist: &'n Netlist, order: &'n [SignalId], initial: InitialState) -> Self {
        Unroller::with_sink(netlist, order, initial, Cnf::new(0))
    }

    /// The formula built so far.
    pub fn cnf(&self) -> &Cnf {
        &self.sink
    }
}

impl<'n, S: ClauseSink> Unroller<'n, S> {
    /// Builds an unroller for `netlist` with no frames yet, writing every
    /// variable and clause into `sink`. `order` is the netlist's evaluation
    /// order of combinational wires, as [`Netlist::elaborate`] returns it:
    /// elaboration also checks that every register is connected.
    pub fn with_sink(
        netlist: &'n Netlist,
        order: &'n [SignalId],
        initial: InitialState,
        mut sink: S,
    ) -> Self {
        let const_true = Lit::positive(sink.new_var());
        sink.add_clause(&[const_true]);
        Unroller {
            netlist,
            order,
            registers: netlist.registers(),
            initial,
            sink,
            frames: Vec::new(),
            const_true,
            and_gates: HashMap::new(),
            xor_gates: HashMap::new(),
            mux_gates: HashMap::new(),
            operands: Vec::new(),
            clause: Vec::new(),
            stats: UnrollStats::default(),
        }
    }

    /// The unrolled netlist.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Number of frames added so far.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Encode-path counters accumulated so far.
    pub fn stats(&self) -> UnrollStats {
        self.stats
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

    /// The literal of `signal` in `frame`.
    ///
    /// # Panics
    ///
    /// Panics if the frame has not been added or the signal is foreign.
    pub fn lit(&self, frame: usize, signal: SignalId) -> Lit {
        self.frames[frame][signal.index()]
    }

    /// Allocates a fresh unconstrained literal (for property encodings that
    /// need auxiliary variables, e.g. specification inputs the netlist does
    /// not implement).
    pub fn fresh_lit(&mut self) -> Lit {
        Lit::positive(self.sink.new_var())
    }

    /// Adds a clause to the unrolling (environment constraints, property
    /// activation literals, …).
    pub fn add_clause(&mut self, literals: &[Lit]) {
        self.sink.add_clause(literals);
    }

    /// Appends one time frame and returns its index.
    ///
    /// Inputs get fresh literals; registers take their reset-value constant
    /// (frame 0, [`InitialState::Reset`]), a fresh literal (frame 0,
    /// [`InitialState::Free`]) or the previous frame's next-state literal;
    /// gates are Tseitin-encoded on top.
    pub fn add_frame(&mut self) -> usize {
        let frame = self.frames.len();
        let netlist = self.netlist;
        let mut lits = vec![self.const_true; netlist.len()];
        // Sources first: inputs and register outputs.
        for (id, signal) in netlist.iter() {
            match &signal.kind {
                SignalKind::Input => lits[id.index()] = self.fresh_lit(),
                SignalKind::Register { init, next } => {
                    lits[id.index()] = if frame == 0 {
                        match self.initial {
                            InitialState::Reset => {
                                if *init {
                                    self.const_true
                                } else {
                                    self.const_true.negated()
                                }
                            }
                            InitialState::Free => self.fresh_lit(),
                        }
                    } else {
                        let next = next.expect("elaboration checked connections");
                        self.frames[frame - 1][next.index()]
                    };
                }
                SignalKind::Wire(_) => {}
            }
        }
        // Then wires in topological order.
        for &id in self.order {
            let SignalKind::Wire(gate) = &netlist.signal(id).kind else {
                unreachable!("evaluation order contains only wires");
            };
            lits[id.index()] = self.encode_gate(gate, &lits);
        }
        self.frames.push(lits);
        self.stats.frames += 1;
        frame
    }

    fn encode_gate(&mut self, gate: &Gate, lits: &[Lit]) -> Lit {
        match gate {
            Gate::Const(true) => self.const_true,
            Gate::Const(false) => self.const_true.negated(),
            Gate::Buf(a) => lits[a.index()],
            Gate::Not(a) => lits[a.index()].negated(),
            Gate::And(ops) => {
                self.operands.clear();
                self.operands.extend(ops.iter().map(|s| lits[s.index()]));
                self.and_of_operands()
            }
            Gate::Or(ops) => {
                self.operands.clear();
                self.operands
                    .extend(ops.iter().map(|s| lits[s.index()].negated()));
                self.and_of_operands().negated()
            }
            Gate::Xor(a, b) => self.define_xor(lits[a.index()], lits[b.index()]),
            Gate::Mux { sel, high, low } => {
                self.define_mux(lits[sel.index()], lits[high.index()], lits[low.index()])
            }
        }
    }

    /// Defines `g ↔ AND(operands)` over a fresh literal `g` (public so
    /// property encoders can build formulas over frame literals).
    ///
    /// Constant operands are folded, duplicates removed and complementary
    /// pairs collapse to `false`; structurally identical conjunctions
    /// share one definition through the gate cache.
    pub fn define_and(&mut self, operands: &[Lit]) -> Lit {
        self.operands.clear();
        self.operands.extend_from_slice(operands);
        self.and_of_operands()
    }

    /// [`Unroller::define_and`] of the reused list `self.operands`,
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
                    self.stats.cache_hits += 1;
                    return g;
                }
                self.stats.gates += 1;
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
                self.stats.cache_hits += 1;
                g
            }
            None => {
                self.stats.gates += 1;
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
            self.stats.cache_hits += 1;
            return g;
        }
        self.stats.gates += 1;
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

    /// Defines a fresh literal true iff the register states of two frames
    /// differ — the building block of loop-free (simple) path constraints
    /// for k-induction. Returns `None` for stateless netlists.
    pub fn state_difference(&mut self, frame_a: usize, frame_b: usize) -> Option<Lit> {
        if self.registers.is_empty() {
            return None;
        }
        // diff ↔ OR(la ⊕ lb) ↔ ¬AND(¬(la ⊕ lb)), with every xor defined
        // before the conjunction.
        self.operands.clear();
        for index in 0..self.registers.len() {
            let register = self.registers[index];
            let (la, lb) = (self.lit(frame_a, register), self.lit(frame_b, register));
            let differ = self.define_xor(la, lb);
            self.operands.push(differ.negated());
        }
        Some(self.and_of_operands().negated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use ipcl_sat::{SatResult, Solver};

    /// Two-bit counter with an enable input.
    fn counter() -> (Netlist, SignalId, SignalId, SignalId) {
        let mut n = Netlist::new("counter2");
        let enable = n.input("enable");
        let bit0 = n.register("bit0", false);
        let bit1 = n.register("bit1", false);
        let flip0 = n.xor_gate("flip0", bit0, enable);
        let carry = n.and_gate("carry", [bit0, enable]);
        let flip1 = n.xor_gate("flip1", bit1, carry);
        n.connect_register(bit0, flip0).unwrap();
        n.connect_register(bit1, flip1).unwrap();
        (n, enable, bit0, bit1)
    }

    fn model_of(unroller: &Unroller) -> Vec<bool> {
        let mut solver = Solver::from_cnf(unroller.cnf());
        match solver.solve() {
            SatResult::Sat(model) => model,
            SatResult::Unsat => panic!("unrolling must be satisfiable"),
        }
    }

    fn lit_value(model: &[bool], lit: Lit) -> bool {
        model[lit.var() as usize] == lit.is_positive()
    }

    #[test]
    fn reset_unrolling_matches_simulation() {
        let (n, enable, bit0, bit1) = counter();
        let order = n.elaborate().unwrap();
        let mut unroller = Unroller::new(&n, &order, InitialState::Reset);
        for _ in 0..5 {
            let frame = unroller.add_frame();
            // Force enable high in every frame.
            let enable_lit = unroller.lit(frame, enable);
            unroller.add_clause(&[enable_lit]);
        }
        let model = model_of(&unroller);

        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input(enable, true);
        for frame in 0..5 {
            assert_eq!(
                lit_value(&model, unroller.lit(frame, bit0)),
                sim.value(bit0),
                "bit0 frame {frame}"
            );
            assert_eq!(
                lit_value(&model, unroller.lit(frame, bit1)),
                sim.value(bit1),
                "bit1 frame {frame}"
            );
            sim.step();
        }
    }

    #[test]
    fn reset_state_is_forced() {
        let (n, _, bit0, _) = counter();
        let order = n.elaborate().unwrap();
        let mut unroller = Unroller::new(&n, &order, InitialState::Reset);
        unroller.add_frame();
        // bit0 resets to false: asserting it true at frame 0 is unsat.
        let bit0_lit = unroller.lit(0, bit0);
        let mut solver = Solver::from_cnf(unroller.cnf());
        assert_eq!(
            solver.solve_under_assumptions(&[bit0_lit]),
            SatResult::Unsat
        );
        assert!(solver
            .solve_under_assumptions(&[bit0_lit.negated()])
            .is_sat());
    }

    #[test]
    fn free_initial_state_is_unconstrained() {
        let (n, _, bit0, bit1) = counter();
        let order = n.elaborate().unwrap();
        let mut unroller = Unroller::new(&n, &order, InitialState::Free);
        unroller.add_frame();
        let mut solver = Solver::from_cnf(unroller.cnf());
        // Any initial state is reachable in the free encoding.
        for (v0, v1) in [(false, false), (true, false), (false, true), (true, true)] {
            let assumptions = [
                if v0 {
                    unroller.lit(0, bit0)
                } else {
                    unroller.lit(0, bit0).negated()
                },
                if v1 {
                    unroller.lit(0, bit1)
                } else {
                    unroller.lit(0, bit1).negated()
                },
            ];
            assert!(solver.solve_under_assumptions(&assumptions).is_sat());
        }
    }

    #[test]
    fn registers_tie_to_previous_frame() {
        let mut n = Netlist::new("chain");
        let input = n.input("in");
        let r = n.register("r", false);
        n.connect_register(r, input).unwrap();
        let order = n.elaborate().unwrap();
        let mut unroller = Unroller::new(&n, &order, InitialState::Reset);
        unroller.add_frame();
        unroller.add_frame();
        assert_eq!(unroller.lit(1, r), unroller.lit(0, input));
    }

    #[test]
    fn state_difference_distinguishes_states() {
        let (n, enable, _, _) = counter();
        let order = n.elaborate().unwrap();
        let mut unroller = Unroller::new(&n, &order, InitialState::Reset);
        unroller.add_frame();
        unroller.add_frame();
        let enable_lit = unroller.lit(0, enable);
        let diff = unroller.state_difference(0, 1).unwrap();
        let mut solver = Solver::from_cnf(unroller.cnf());
        // With enable high the counter advances: states differ.
        assert_eq!(
            solver.solve_under_assumptions(&[enable_lit, diff.negated()]),
            SatResult::Unsat
        );
        // With enable low the state repeats: difference is unsatisfiable.
        assert_eq!(
            solver.solve_under_assumptions(&[enable_lit.negated(), diff]),
            SatResult::Unsat
        );
    }

    #[test]
    fn gate_definitions_are_hash_consed() {
        let (n, enable, bit0, _) = counter();
        let order = n.elaborate().unwrap();
        let mut unroller = Unroller::new(&n, &order, InitialState::Reset);
        unroller.add_frame();
        let a = unroller.lit(0, enable);
        let b = unroller.lit(0, bit0);
        let g1 = unroller.define_and(&[a, b]);
        let clauses = unroller.cnf().len();
        // Same conjunction (any operand order): same literal, no new clauses.
        assert_eq!(unroller.define_and(&[b, a]), g1);
        assert_eq!(unroller.cnf().len(), clauses);
        // XOR is sign-normalized: ¬a ⊕ b reuses the a ⊕ b gate, negated.
        let x = unroller.define_xor(a, b);
        assert_eq!(unroller.define_xor(a.negated(), b), x.negated());
        assert_eq!(unroller.define_xor(b, a), x);
        // Constants fold instead of spending gates.
        let t = unroller.const_true();
        assert_eq!(unroller.define_and(&[a, t]), a);
        assert_eq!(unroller.define_and(&[a, a.negated()]), t.negated());
        assert_eq!(unroller.define_xor(a, t), a.negated());
        assert_eq!(unroller.define_mux(t, a, b), a);
        assert_eq!(unroller.define_mux(a, b, b), b);
    }

    #[test]
    fn stateless_netlists_have_no_state_difference() {
        let mut n = Netlist::new("comb");
        let a = n.input("a");
        let b = n.not_gate("b", a);
        n.mark_output(b);
        let order = n.elaborate().unwrap();
        let mut unroller = Unroller::new(&n, &order, InitialState::Reset);
        unroller.add_frame();
        unroller.add_frame();
        assert!(unroller.state_difference(0, 1).is_none());
    }

    #[test]
    fn all_gate_kinds_encode_consistently() {
        // A netlist exercising every gate, checked against simulation for
        // all four input combinations in one frame.
        let mut n = Netlist::new("gates");
        let a = n.input("a");
        let b = n.input("b");
        let t = n.constant("t", true);
        let f = n.constant("f", false);
        let and = n.and_gate("and", [a, b, t]);
        let or = n.or_gate("or", [a, b, f]);
        let xor = n.xor_gate("xor", a, b);
        let mux = n.mux_gate("mux", a, b, xor);
        let buf = n.buf_gate("buf", mux);
        let outputs = [and, or, xor, mux, buf];

        let order = n.elaborate().unwrap();
        let mut unroller = Unroller::new(&n, &order, InitialState::Reset);
        unroller.add_frame();
        let mut solver = Solver::from_cnf(unroller.cnf());
        let mut sim = Simulator::new(&n).unwrap();
        for mask in 0..4u8 {
            let va = mask & 1 != 0;
            let vb = mask & 2 != 0;
            sim.set_input(a, va);
            sim.set_input(b, vb);
            let assumptions = [
                if va {
                    unroller.lit(0, a)
                } else {
                    unroller.lit(0, a).negated()
                },
                if vb {
                    unroller.lit(0, b)
                } else {
                    unroller.lit(0, b).negated()
                },
            ];
            match solver.solve_under_assumptions(&assumptions) {
                SatResult::Sat(model) => {
                    for &out in &outputs {
                        let lit = unroller.lit(0, out);
                        let value = model[lit.var() as usize] == lit.is_positive();
                        assert_eq!(value, sim.value(out), "{} mask {mask}", n.signal(out).name);
                    }
                }
                SatResult::Unsat => panic!("frame must be satisfiable"),
            }
        }
    }
}
