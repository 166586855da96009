//! Time-frame unrolling of the bound netlist, and property-instance
//! encoding over it.
//!
//! Bounded model checking asks "is there an input sequence of length *k*
//! driving the circuit into a bad state?". To answer it with a SAT solver,
//! the sequential netlist is *unrolled*: each signal gets one literal per
//! time frame, combinational gates are defined in every frame by
//! `ipcl-expr`'s one Tseitin encoder ([`GateEncoder`]), and each
//! register's frame-*t* literal is the frame-*t−1* literal of its
//! next-state signal. Frame 0 registers either take their reset values
//! ([`InitialState::Reset`], the BMC base case) or are left unconstrained
//! ([`InitialState::Free`], the k-induction step case). The unrolling is
//! *incremental*: frames are appended one at a time and the formula only
//! ever grows, so a BMC loop keeps all learned clauses from shallower
//! depths.
//!
//! Both sequential engines — bounded model checking / k-induction
//! ([`crate::engine`]) and the IC3/PDR engine of `ipcl-pdr` — and PDR's
//! certificate validation need the same plumbing on top:
//!
//! * mapping a specification variable to the netlist signal that
//!   implements it, through the check's [`Binding`] (or to a cached
//!   auxiliary literal when the netlist does not implement it);
//! * encoding a property instance with the `moe` variables sampled at one
//!   frame and the environment sampled [`crate::Latency::offset`] frames
//!   earlier;
//! * decoding a solver model back into per-frame input valuations that
//!   replay through [`ipcl_rtl::Simulator`].
//!
//! [`FrameEncoder`] packages both over the binding's netlist, in the
//! binding's elaboration order. It writes every variable and clause once,
//! into its [`ClauseSink`]: a [`Cnf`](ipcl_expr::Cnf) when the formula
//! itself is wanted, or the [`ipcl_sat::Solver`] that answers the
//! engines' queries, so nothing is copied between the encoding and the
//! search.

use std::collections::BTreeMap;

use ipcl_expr::{ClauseSink, GateEncoder, Lit, VarId};
use ipcl_rtl::{Gate, RtlError, SignalId, SignalKind};
use ipcl_trace::MetricSink;

use crate::binding::Binding;
use crate::property::SequentialProperty;

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

/// An incremental time-frame unrolling of a [`Binding`]'s netlist plus the
/// property-encoding state shared by the BMC and PDR engines: auxiliary
/// literals for unimplemented specification variables, and the
/// quiet-cycle discipline for reset-rooted unrollings.
///
/// # Example
///
/// ```
/// use ipcl_bmc::{Binding, FrameEncoder, InitialState};
/// use ipcl_core::FunctionalSpecBuilder;
/// use ipcl_expr::Cnf;
/// use ipcl_rtl::Netlist;
///
/// let mut n = Netlist::new("toggler");
/// let t = n.register("t", false);
/// let nt = n.not_gate("nt", t);
/// n.connect_register(t, nt)?;
///
/// let spec = FunctionalSpecBuilder::new().build()?;
/// let binding = Binding::new(&spec, &n);
/// let mut enc = FrameEncoder::new(&binding, InitialState::Reset, 0, Cnf::new(0))?;
/// enc.ensure_frames(2);
/// // Frame 0 is the reset frame; the register literal of frame 1 is the
/// // frame-0 literal of its next-state cone.
/// assert_eq!(enc.num_frames(), 2);
/// assert_eq!(enc.lit(1, t), enc.lit(0, nt));
/// // The formula went into a `Cnf`: the constant-true unit, then the
/// // inverter, which needs no clause of its own.
/// assert_eq!(enc.sink().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct FrameEncoder<'n, S> {
    gates: GateEncoder<S>,
    binding: &'n Binding<'n>,
    /// Topological order of combinational wires from elaboration.
    order: &'n [SignalId],
    /// The registers, in [`ipcl_rtl::Netlist::registers`] order.
    registers: Vec<SignalId>,
    initial: InitialState,
    /// `frames[t][signal.index()]` is the literal of the signal in frame `t`.
    frames: Vec<Vec<Lit>>,
    /// Auxiliary literals for spec variables the netlist does not implement,
    /// keyed by `(frame, var)`.
    aux: BTreeMap<(usize, VarId), Lit>,
    quiet_cycles: usize,
    /// Reused operand list of [`FrameEncoder::state_difference`].
    differences: Vec<Lit>,
}

impl<'n, S: ClauseSink> FrameEncoder<'n, S> {
    /// Builds an encoder over an unrolling of `binding`'s netlist with no
    /// frames yet, writing into `sink`. `quiet_cycles` leading frames have
    /// their inputs forced to zero (only honoured for
    /// [`InitialState::Reset`] unrollings: the post-reset environment of an
    /// interlocked pipeline is quiet, so constraining the first frame(s)
    /// rules out counterfeit "hazard at reset" traces).
    ///
    /// # Errors
    ///
    /// The [`RtlError`] of netlist elaboration ([`Binding::elaboration`]).
    pub fn new(
        binding: &'n Binding<'n>,
        initial: InitialState,
        quiet_cycles: usize,
        sink: S,
    ) -> Result<Self, RtlError> {
        let order = binding.elaboration()?;
        Ok(FrameEncoder {
            gates: GateEncoder::new(sink),
            binding,
            order,
            registers: binding.netlist().registers(),
            initial,
            frames: Vec::new(),
            aux: BTreeMap::new(),
            quiet_cycles: if initial == InitialState::Reset {
                quiet_cycles
            } else {
                0
            },
            differences: Vec::new(),
        })
    }

    /// The check's binding.
    pub fn binding(&self) -> &'n Binding<'n> {
        self.binding
    }

    /// The sink the formula goes into.
    pub fn sink(&self) -> &S {
        self.gates.sink()
    }

    /// Mutable access to the sink (to solve, when it is a solver).
    pub fn sink_mut(&mut self) -> &mut S {
        self.gates.sink_mut()
    }

    /// Allocates a fresh unconstrained literal (activation literals, …).
    pub fn fresh_lit(&mut self) -> Lit {
        self.gates.fresh_lit()
    }

    /// Adds a clause to the unrolling (environment constraints, property
    /// activation literals, …).
    pub fn add_clause(&mut self, literals: &[Lit]) {
        self.gates.add_clause(literals);
    }

    /// Defines `g ↔ AND(operands)` over the frame literals (see
    /// [`GateEncoder::define_and`]).
    pub fn define_and(&mut self, operands: impl IntoIterator<Item = Lit>) -> Lit {
        self.gates.define_and(operands)
    }

    /// Number of frames added so far.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// The literal of `signal` in `frame`.
    ///
    /// # Panics
    ///
    /// Panics if the frame has not been added or the signal is foreign.
    pub fn lit(&self, frame: usize, signal: SignalId) -> Lit {
        self.frames[frame][signal.index()]
    }

    /// Appends frames until `frames` exist, forcing quiet-cycle inputs low.
    pub fn ensure_frames(&mut self, frames: usize) {
        while self.frames.len() < frames {
            let frame = self.add_frame();
            if frame < self.quiet_cycles {
                for input in self.binding.netlist().inputs() {
                    let lit = self.lit(frame, input);
                    self.add_clause(&[lit.negated()]);
                }
            }
        }
    }

    /// Appends one time frame and returns its index.
    ///
    /// Inputs get fresh literals; registers take their reset-value constant
    /// (frame 0, [`InitialState::Reset`]), a fresh literal (frame 0,
    /// [`InitialState::Free`]) or the previous frame's next-state literal;
    /// gates are defined on top.
    fn add_frame(&mut self) -> usize {
        let frame = self.frames.len();
        let netlist = self.binding.netlist();
        let const_true = self.gates.const_true();
        let mut lits = vec![const_true; netlist.len()];
        // Sources first: inputs and register outputs.
        for (id, signal) in netlist.iter() {
            match &signal.kind {
                SignalKind::Input => lits[id.index()] = self.fresh_lit(),
                SignalKind::Register { init, next } => {
                    lits[id.index()] = if frame == 0 {
                        match self.initial {
                            InitialState::Reset => {
                                if *init {
                                    const_true
                                } else {
                                    const_true.negated()
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
        let gates = &mut self.gates;
        for &id in self.order {
            let SignalKind::Wire(gate) = &netlist.signal(id).kind else {
                unreachable!("evaluation order contains only wires");
            };
            lits[id.index()] = match gate {
                Gate::Const(true) => const_true,
                Gate::Const(false) => const_true.negated(),
                Gate::Buf(a) => lits[a.index()],
                Gate::Not(a) => lits[a.index()].negated(),
                Gate::And(ops) => gates.define_and(ops.iter().map(|s| lits[s.index()])),
                Gate::Or(ops) => gates
                    .define_and(ops.iter().map(|s| lits[s.index()].negated()))
                    .negated(),
                Gate::Xor(a, b) => gates.define_xor(lits[a.index()], lits[b.index()]),
                Gate::Mux { sel, high, low } => {
                    gates.define_mux(lits[sel.index()], lits[high.index()], lits[low.index()])
                }
            };
        }
        self.frames.push(lits);
        frame
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
        self.differences.clear();
        for &register in &self.registers {
            let (la, lb) = (
                self.frames[frame_a][register.index()],
                self.frames[frame_b][register.index()],
            );
            let differ = self.gates.define_xor(la, lb);
            self.differences.push(differ.negated());
        }
        Some(
            self.gates
                .define_and(self.differences.iter().copied())
                .negated(),
        )
    }

    /// Encodes the property instance whose `moe` sample is `moe_frame`,
    /// returning the literal of `ok` at that instance: `moe` variables at
    /// `moe_frame`, everything else [`crate::Latency::offset`] frames
    /// earlier. Each specification variable is the netlist signal that
    /// implements it, or an auxiliary literal cached per frame (which
    /// respects the quiet-cycle constraint like a real input). Frames up to
    /// `moe_frame` must already exist (see [`FrameEncoder::ensure_frames`]).
    pub fn encode_instance(&mut self, property: &SequentialProperty, moe_frame: usize) -> Lit {
        let env_frame = moe_frame - property.latency.offset();
        let FrameEncoder {
            gates,
            binding,
            frames,
            aux,
            quiet_cycles,
            ..
        } = self;
        gates.encode(&property.ok, &mut |gates, var| {
            let frame = if binding.is_moe(var) {
                moe_frame
            } else {
                env_frame
            };
            if let Some(signal) = binding.signal(var) {
                return frames[frame][signal.index()];
            }
            *aux.entry((frame, var)).or_insert_with(|| {
                let lit = gates.fresh_lit();
                if frame < *quiet_cycles {
                    gates.add_clause(&[lit.negated()]);
                }
                lit
            })
        })
    }

    /// Emits the unrolling's counters `unroll.<label>.{frames,gates,
    /// cache_hits}`: frames appended, gates defined and gate definitions
    /// answered from the structural-hashing cache.
    pub fn emit(&self, sink: &dyn MetricSink, label: &str) {
        sink.counter(&format!("unroll.{label}.frames"), self.frames.len() as u64);
        sink.counter(&format!("unroll.{label}.gates"), self.gates.gates());
        sink.counter(
            &format!("unroll.{label}.cache_hits"),
            self.gates.cache_hits(),
        );
    }

    /// Decodes one frame of a model into an input valuation: every primary
    /// input, every specification environment variable the netlist
    /// implements as a non-input signal (the replay evaluates the property's
    /// environment from the recorded frames, not from the simulator), and
    /// every auxiliary variable of the frame.
    pub fn decode_frame(&self, model: &[bool], frame: usize) -> BTreeMap<String, bool> {
        let lit_value = |lit: Lit| model[lit.var() as usize] == lit.is_positive();
        let netlist = self.binding.netlist();
        let mut values = BTreeMap::new();
        for input in netlist.inputs() {
            let name = netlist.signal(input).name.clone();
            values.insert(name, lit_value(self.lit(frame, input)));
        }
        for &var in self.binding.env() {
            if let Some(signal) = self.binding.signal(var) {
                let name = &netlist.signal(signal).name;
                if !values.contains_key(name) {
                    values.insert(name.clone(), lit_value(self.lit(frame, signal)));
                }
            }
        }
        for (&(aux_frame, var), &lit) in &self.aux {
            if aux_frame == frame {
                let name = self.binding.spec().pool().name_or_fallback(var);
                values.insert(name, lit_value(lit));
            }
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::{Latency, PropertyKind};
    use ipcl_core::example::ExampleArch;
    use ipcl_core::{FunctionalSpec, FunctionalSpecBuilder};
    use ipcl_expr::Cnf;
    use ipcl_rtl::{Netlist, Simulator};
    use ipcl_sat::{SatResult, Solver};
    use ipcl_synth::synthesize_interlock;

    #[test]
    fn instance_encoding_is_satisfiable_and_decodes_every_input() {
        let spec = ExampleArch::new().functional_spec();
        let synthesized = synthesize_interlock(&spec);
        let netlist = synthesized.netlist();
        let binding = Binding::new(&spec, netlist);
        let mut enc = FrameEncoder::new(&binding, InitialState::Reset, 0, Cnf::new(0)).unwrap();
        enc.ensure_frames(2);
        let property =
            SequentialProperty::for_stage(&spec, 0, PropertyKind::Combined, Latency::Combinational);
        let ok = enc.encode_instance(&property, 1);
        let mut solver = Solver::from_cnf(enc.sink());
        // The derived interlock satisfies the combined property: `ok` is
        // forced, its negation is unsatisfiable.
        assert!(solver.solve_under_assumptions(&[ok]).is_sat());
        assert_eq!(
            solver.solve_under_assumptions(&[ok.negated()]),
            SatResult::Unsat
        );
        if let SatResult::Sat(model) = solver.solve_under_assumptions(&[ok]) {
            let frames: Vec<_> = (0..2)
                .map(|frame| enc.decode_frame(&model, frame))
                .collect();
            assert_eq!(frames.len(), 2);
            for input in netlist.inputs() {
                let name = &netlist.signal(input).name;
                assert!(frames[0].contains_key(name), "{name} missing from trace");
            }
        }
    }

    #[test]
    fn quiet_cycles_force_inputs_low_in_reset_unrollings_only() {
        let spec = ExampleArch::new().functional_spec();
        let synthesized = synthesize_interlock(&spec);
        let netlist = synthesized.netlist();
        let binding = Binding::new(&spec, netlist);
        let mut reset = FrameEncoder::new(&binding, InitialState::Reset, 1, Cnf::new(0)).unwrap();
        reset.ensure_frames(1);
        let input = netlist.inputs()[0];
        let lit = reset.lit(0, input);
        let mut solver = Solver::from_cnf(reset.sink());
        assert_eq!(solver.solve_under_assumptions(&[lit]), SatResult::Unsat);

        // A free unrolling ignores quiet cycles (the induction step must
        // consider arbitrary environments).
        let mut free = FrameEncoder::new(&binding, InitialState::Free, 1, Cnf::new(0)).unwrap();
        free.ensure_frames(1);
        let free_lit = free.lit(0, input);
        let mut solver = Solver::from_cnf(free.sink());
        assert!(solver.solve_under_assumptions(&[free_lit]).is_sat());
    }

    /// A specification with no stages: binds no signal, so an encoder over
    /// it is the bare unrolling of the netlist.
    fn no_spec() -> FunctionalSpec {
        FunctionalSpecBuilder::new().build().unwrap()
    }

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

    fn lit_value(model: &[bool], lit: Lit) -> bool {
        model[lit.var() as usize] == lit.is_positive()
    }

    /// The literal asserting that `lit` has `value`.
    fn with_value(lit: Lit, value: bool) -> Lit {
        if value {
            lit
        } else {
            lit.negated()
        }
    }

    #[test]
    fn reset_unrolling_matches_simulation() {
        let (n, enable, bit0, bit1) = counter();
        let spec = no_spec();
        let binding = Binding::new(&spec, &n);
        let mut enc = FrameEncoder::new(&binding, InitialState::Reset, 0, Cnf::new(0)).unwrap();
        for frame in 0..5 {
            enc.ensure_frames(frame + 1);
            // Force enable high in every frame.
            let enable_lit = enc.lit(frame, enable);
            enc.add_clause(&[enable_lit]);
        }
        let SatResult::Sat(model) = Solver::from_cnf(enc.sink()).solve() else {
            panic!("unrolling must be satisfiable");
        };

        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input(enable, true);
        for frame in 0..5 {
            for bit in [bit0, bit1] {
                let value = lit_value(&model, enc.lit(frame, bit));
                assert_eq!(value, sim.value(bit), "{bit:?} frame {frame}");
            }
            sim.step();
        }
    }

    #[test]
    fn reset_state_is_forced() {
        let (n, _, bit0, _) = counter();
        let spec = no_spec();
        let binding = Binding::new(&spec, &n);
        let mut enc = FrameEncoder::new(&binding, InitialState::Reset, 0, Cnf::new(0)).unwrap();
        enc.ensure_frames(1);
        // bit0 resets to false: asserting it true at frame 0 is unsat.
        let bit0_lit = enc.lit(0, bit0);
        let mut solver = Solver::from_cnf(enc.sink());
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
        let spec = no_spec();
        let binding = Binding::new(&spec, &n);
        let mut enc = FrameEncoder::new(&binding, InitialState::Free, 0, Cnf::new(0)).unwrap();
        enc.ensure_frames(1);
        let mut solver = Solver::from_cnf(enc.sink());
        // Any initial state is reachable in the free encoding.
        for (v0, v1) in [(false, false), (true, false), (false, true), (true, true)] {
            let assumptions = [
                with_value(enc.lit(0, bit0), v0),
                with_value(enc.lit(0, bit1), v1),
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
        let spec = no_spec();
        let binding = Binding::new(&spec, &n);
        let mut enc = FrameEncoder::new(&binding, InitialState::Reset, 0, Cnf::new(0)).unwrap();
        enc.ensure_frames(2);
        assert_eq!(enc.lit(1, r), enc.lit(0, input));
    }

    #[test]
    fn state_difference_distinguishes_states() {
        let (n, enable, _, _) = counter();
        let spec = no_spec();
        let binding = Binding::new(&spec, &n);
        let mut enc = FrameEncoder::new(&binding, InitialState::Reset, 0, Cnf::new(0)).unwrap();
        enc.ensure_frames(2);
        let enable_lit = enc.lit(0, enable);
        let diff = enc.state_difference(0, 1).unwrap();
        let mut solver = Solver::from_cnf(enc.sink());
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
    fn stateless_netlists_have_no_state_difference() {
        let mut n = Netlist::new("comb");
        let a = n.input("a");
        let b = n.not_gate("b", a);
        n.mark_output(b);
        let spec = no_spec();
        let binding = Binding::new(&spec, &n);
        let mut enc = FrameEncoder::new(&binding, InitialState::Reset, 0, Cnf::new(0)).unwrap();
        enc.ensure_frames(2);
        assert!(enc.state_difference(0, 1).is_none());
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

        let spec = no_spec();
        let binding = Binding::new(&spec, &n);
        let mut enc = FrameEncoder::new(&binding, InitialState::Reset, 0, Cnf::new(0)).unwrap();
        enc.ensure_frames(1);
        let mut solver = Solver::from_cnf(enc.sink());
        let mut sim = Simulator::new(&n).unwrap();
        for mask in 0..4u8 {
            let (va, vb) = (mask & 1 != 0, mask & 2 != 0);
            sim.set_input(a, va);
            sim.set_input(b, vb);
            let assumptions = [with_value(enc.lit(0, a), va), with_value(enc.lit(0, b), vb)];
            let SatResult::Sat(model) = solver.solve_under_assumptions(&assumptions) else {
                panic!("frame must be satisfiable");
            };
            for &out in &outputs {
                let value = lit_value(&model, enc.lit(0, out));
                assert_eq!(value, sim.value(out), "{} mask {mask}", n.signal(out).name);
            }
        }
    }
}
