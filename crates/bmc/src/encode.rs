//! Shared property-instance encoding over unrolled netlists.
//!
//! Both sequential engines — bounded model checking / k-induction
//! ([`crate::engine`]) and the IC3/PDR engine of `ipcl-pdr` — need the same
//! plumbing between a [`SequentialProperty`] and a time-frame unrolling:
//!
//! * mapping a specification variable to the netlist signal that
//!   implements it, through the check's [`Binding`] (or to a cached
//!   auxiliary literal when the netlist does not implement it);
//! * Tseitin-encoding a property instance with the `moe` variables sampled
//!   at one frame and the environment sampled [`crate::Latency::offset`]
//!   frames earlier;
//! * decoding a solver model back into per-frame input valuations that
//!   replay through [`ipcl_rtl::Simulator`].
//!
//! [`FrameEncoder`] packages that plumbing around an [`Unroller`] of the
//! binding's netlist, in the binding's elaboration order. It writes every
//! clause once, into its [`ClauseSink`]: the engines give it the
//! [`ipcl_sat::Solver`] that answers their queries, so nothing is copied
//! between the encoding and the search.

use std::collections::BTreeMap;

use ipcl_expr::{ClauseSink, Expr, Lit, VarId};
use ipcl_rtl::{InitialState, RtlError, Unroller};

use crate::binding::Binding;
use crate::property::SequentialProperty;

/// An [`Unroller`] plus the property-encoding state shared by the BMC and
/// PDR engines: the check's [`Binding`], auxiliary literals for
/// unimplemented specification variables, and the quiet-cycle discipline
/// for reset-rooted unrollings.
pub struct FrameEncoder<'n, S> {
    unroller: Unroller<'n, S>,
    binding: &'n Binding<'n>,
    /// Auxiliary literals for spec variables the netlist does not implement,
    /// keyed by `(frame, var)`.
    aux: BTreeMap<(usize, VarId), Lit>,
    quiet_cycles: usize,
    /// Operand stack of [`FrameEncoder::encode_expr`], reused across calls.
    operands: Vec<Lit>,
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
            unroller: Unroller::with_sink(binding.netlist(), order, initial, sink),
            binding,
            aux: BTreeMap::new(),
            quiet_cycles: if initial == InitialState::Reset {
                quiet_cycles
            } else {
                0
            },
            operands: Vec::new(),
        })
    }

    /// The check's binding.
    pub fn binding(&self) -> &'n Binding<'n> {
        self.binding
    }

    /// The underlying unroller.
    pub fn unroller(&self) -> &Unroller<'n, S> {
        &self.unroller
    }

    /// Mutable access to the underlying unroller (for engine-specific
    /// clauses: activation literals, loop-free path constraints, …).
    pub fn unroller_mut(&mut self) -> &mut Unroller<'n, S> {
        &mut self.unroller
    }

    /// The sink the formula goes into.
    pub fn sink(&self) -> &S {
        self.unroller.sink()
    }

    /// Mutable access to the sink (to solve, when it is a solver).
    pub fn sink_mut(&mut self) -> &mut S {
        self.unroller.sink_mut()
    }

    /// Appends frames until `frames` exist, forcing quiet-cycle inputs low.
    pub fn ensure_frames(&mut self, frames: usize) {
        let netlist = self.unroller.netlist();
        while self.unroller.num_frames() < frames {
            let frame = self.unroller.add_frame();
            if frame < self.quiet_cycles {
                for input in netlist.inputs() {
                    let lit = self.unroller.lit(frame, input);
                    self.unroller.add_clause(&[lit.negated()]);
                }
            }
        }
    }

    /// The literal of spec variable `var` at `frame`: the netlist signal
    /// that implements it, a cached auxiliary literal otherwise.
    pub fn var_lit(&mut self, frame: usize, var: VarId) -> Lit {
        if let Some(signal) = self.binding.signal(var) {
            return self.unroller.lit(frame, signal);
        }
        if let Some(&lit) = self.aux.get(&(frame, var)) {
            return lit;
        }
        let lit = self.unroller.fresh_lit();
        // Auxiliary environment variables respect the quiet-cycle constraint
        // like real inputs.
        if frame < self.quiet_cycles {
            self.unroller.add_clause(&[lit.negated()]);
        }
        self.aux.insert((frame, var), lit);
        lit
    }

    /// Tseitin-encodes `expr` over the literals of a property instance:
    /// `moe` variables at `moe_frame`, everything else at `env_frame`.
    pub fn encode_expr(&mut self, expr: &Expr, env_frame: usize, moe_frame: usize) -> Lit {
        match expr {
            Expr::Const(true) => self.unroller.const_true(),
            Expr::Const(false) => self.unroller.const_true().negated(),
            Expr::Var(var) => {
                let frame = if self.binding.is_moe(*var) {
                    moe_frame
                } else {
                    env_frame
                };
                self.var_lit(frame, *var)
            }
            Expr::Not(e) => self.encode_expr(e, env_frame, moe_frame).negated(),
            Expr::And(ops) | Expr::Or(ops) => {
                // Or is the negated conjunction of negated operands.
                let or = matches!(expr, Expr::Or(_));
                let base = self.operands.len();
                for op in ops {
                    let lit = self.encode_expr(op, env_frame, moe_frame);
                    self.operands.push(if or { lit.negated() } else { lit });
                }
                let g = self.unroller.define_and(&self.operands[base..]);
                self.operands.truncate(base);
                if or {
                    g.negated()
                } else {
                    g
                }
            }
            Expr::Implies(l, r) => {
                let l = self.encode_expr(l, env_frame, moe_frame);
                let r = self.encode_expr(r, env_frame, moe_frame);
                self.unroller.define_and(&[l, r.negated()]).negated()
            }
            Expr::Iff(l, r) => {
                let l = self.encode_expr(l, env_frame, moe_frame);
                let r = self.encode_expr(r, env_frame, moe_frame);
                self.unroller.define_xor(l, r).negated()
            }
            Expr::Xor(l, r) => {
                let l = self.encode_expr(l, env_frame, moe_frame);
                let r = self.encode_expr(r, env_frame, moe_frame);
                self.unroller.define_xor(l, r)
            }
            Expr::Ite(c, t, e) => {
                let c = self.encode_expr(c, env_frame, moe_frame);
                let t = self.encode_expr(t, env_frame, moe_frame);
                let e = self.encode_expr(e, env_frame, moe_frame);
                self.unroller.define_mux(c, t, e)
            }
        }
    }

    /// Encodes the property instance whose `moe` sample is `moe_frame`,
    /// returning the literal of `ok` at that instance. Frames up to
    /// `moe_frame` must already exist (see [`FrameEncoder::ensure_frames`]).
    pub fn encode_instance(&mut self, property: &SequentialProperty, moe_frame: usize) -> Lit {
        let env_frame = moe_frame - property.latency.offset();
        self.encode_expr(&property.ok, env_frame, moe_frame)
    }

    /// Decodes one frame of a model into an input valuation: every primary
    /// input, every specification environment variable the netlist
    /// implements as a non-input signal (the replay evaluates the property's
    /// environment from the recorded frames, not from the simulator), and
    /// every auxiliary variable of the frame.
    pub fn decode_frame(&self, model: &[bool], frame: usize) -> BTreeMap<String, bool> {
        let lit_value = |lit: Lit| model[lit.var() as usize] == lit.is_positive();
        let netlist = self.unroller.netlist();
        let mut values = BTreeMap::new();
        for input in netlist.inputs() {
            let name = netlist.signal(input).name.clone();
            values.insert(name, lit_value(self.unroller.lit(frame, input)));
        }
        for &var in self.binding.env() {
            if let Some(signal) = self.binding.signal(var) {
                let name = &netlist.signal(signal).name;
                if !values.contains_key(name) {
                    values.insert(name.clone(), lit_value(self.unroller.lit(frame, signal)));
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
    use ipcl_expr::Cnf;
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
        let lit = reset.unroller().lit(0, input);
        let mut solver = Solver::from_cnf(reset.sink());
        assert_eq!(solver.solve_under_assumptions(&[lit]), SatResult::Unsat);

        // A free unrolling ignores quiet cycles (the induction step must
        // consider arbitrary environments).
        let mut free = FrameEncoder::new(&binding, InitialState::Free, 1, Cnf::new(0)).unwrap();
        free.ensure_frames(1);
        let free_lit = free.unroller().lit(0, input);
        let mut solver = Solver::from_cnf(free.sink());
        assert!(solver.solve_under_assumptions(&[free_lit]).is_sat());
    }
}
