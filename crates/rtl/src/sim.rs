//! Cycle-accurate two-phase simulation of netlists.

use crate::netlist::{Gate, Netlist, RtlError, SignalId, SignalKind};

/// A cycle-accurate simulator for one borrowed [`Netlist`].
///
/// Semantics per [`Simulator::step`]:
///
/// 1. combinational wires settle given the current inputs and register
///    outputs (phase 1),
/// 2. every register samples its next-state input simultaneously (phase 2),
/// 3. the cycle counter advances.
///
/// Inputs keep their value until changed. After construction (and after
/// [`Simulator::reset`]) registers hold their reset values and the
/// combinational network is already settled.
#[derive(Clone, Debug)]
pub struct Simulator<'n> {
    netlist: &'n Netlist,
    eval_order: Vec<SignalId>,
    values: Vec<bool>,
    cycle: u64,
}

impl<'n> Simulator<'n> {
    /// Builds a simulator, elaborating the netlist.
    ///
    /// # Errors
    ///
    /// Propagates [`RtlError`]s from [`Netlist::elaborate`] (unconnected
    /// registers, combinational cycles).
    pub fn new(netlist: &'n Netlist) -> Result<Self, RtlError> {
        let eval_order = netlist.elaborate()?;
        let mut sim = Simulator {
            netlist,
            eval_order,
            values: vec![false; netlist.len()],
            cycle: 0,
        };
        sim.reset();
        Ok(sim)
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// The number of completed cycles since construction or the last reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Applies the synchronous reset: registers take their init values,
    /// inputs are cleared to zero and the combinational network settles.
    pub fn reset(&mut self) {
        for (id, signal) in self.netlist.iter() {
            self.values[id.index()] = match &signal.kind {
                SignalKind::Register { init, .. } => *init,
                _ => false,
            };
        }
        self.cycle = 0;
        self.settle();
    }

    /// Drives a primary input. The new value is visible to combinational
    /// logic immediately.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not a primary input of the netlist.
    pub fn set_input(&mut self, input: SignalId, value: bool) {
        assert!(
            matches!(self.netlist.signal(input).kind, SignalKind::Input),
            "signal '{}' is not a primary input",
            self.netlist.signal(input).name
        );
        self.values[input.index()] = value;
        self.settle();
    }

    /// Drives a batch of primary inputs, settling the combinational
    /// network **once** at the end — driving `k` inputs through
    /// [`Simulator::set_input`] costs `k` settles, through here exactly
    /// one. This is the path every per-cycle drive loop (counterexample
    /// replay, random falsification, differential oracles) should take.
    ///
    /// # Panics
    ///
    /// Panics if any driven signal is not a primary input of the netlist.
    pub fn set_inputs<I: IntoIterator<Item = (SignalId, bool)>>(&mut self, inputs: I) {
        for (input, value) in inputs {
            assert!(
                matches!(self.netlist.signal(input).kind, SignalKind::Input),
                "signal '{}' is not a primary input",
                self.netlist.signal(input).name
            );
            self.values[input.index()] = value;
        }
        self.settle();
    }

    /// Current value of any signal (input, wire or register output).
    pub fn value(&self, signal: SignalId) -> bool {
        self.values[signal.index()]
    }

    /// Current value of a signal looked up by name.
    pub fn value_by_name(&self, name: &str) -> Option<bool> {
        self.netlist.find(name).map(|id| self.value(id))
    }

    /// Re-evaluates all combinational wires in topological order.
    fn settle(&mut self) {
        for index in 0..self.eval_order.len() {
            let id = self.eval_order[index];
            if let SignalKind::Wire(gate) = &self.netlist.signal(id).kind {
                let value = self.eval_gate(gate);
                self.values[id.index()] = value;
            }
        }
    }

    fn eval_gate(&self, gate: &Gate) -> bool {
        match gate {
            Gate::Const(b) => *b,
            Gate::Buf(a) => self.values[a.index()],
            Gate::Not(a) => !self.values[a.index()],
            Gate::And(ops) => ops.iter().all(|s| self.values[s.index()]),
            Gate::Or(ops) => ops.iter().any(|s| self.values[s.index()]),
            Gate::Xor(a, b) => self.values[a.index()] != self.values[b.index()],
            Gate::Mux { sel, high, low } => {
                if self.values[sel.index()] {
                    self.values[high.index()]
                } else {
                    self.values[low.index()]
                }
            }
        }
    }

    /// Advances one clock cycle (combinational settle, then simultaneous
    /// register update, then settle again for the new state).
    pub fn step(&mut self) {
        self.settle();
        // Sample all register next inputs before updating any register.
        let mut sampled: Vec<(SignalId, bool)> = Vec::new();
        for (id, signal) in self.netlist.iter() {
            if let SignalKind::Register {
                next: Some(next), ..
            } = signal.kind
            {
                sampled.push((id, self.values[next.index()]));
            }
        }
        for (id, value) in sampled {
            self.values[id.index()] = value;
        }
        self.cycle += 1;
        self.settle();
    }

    /// Runs `cycles` steps.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    #[test]
    fn combinational_logic_settles_immediately() {
        let mut n = Netlist::new("comb");
        let a = n.input("a");
        let b = n.input("b");
        let and = n.and_gate("and", [a, b]);
        let or = n.or_gate("or", [a, b]);
        let xor = n.xor_gate("xor", a, b);
        let nota = n.not_gate("nota", a);
        let mux = n.mux_gate("mux", a, b, nota);
        let cst = n.constant("one", true);
        let mut sim = Simulator::new(&n).unwrap();
        assert!(!sim.value(and));
        assert!(sim.value(cst));
        sim.set_input(a, true);
        sim.set_input(b, false);
        assert!(!sim.value(and));
        assert!(sim.value(or));
        assert!(sim.value(xor));
        assert!(!sim.value(nota));
        assert!(!sim.value(mux));
        sim.set_input(b, true);
        assert!(sim.value(and));
        assert!(!sim.value(xor));
        assert_eq!(sim.value_by_name("and"), Some(true));
        assert_eq!(sim.value_by_name("nonexistent"), None);
    }

    #[test]
    fn registers_update_simultaneously() {
        // Swap network: r1 <= r2, r2 <= r1. With r1=1, r2=0 initially the
        // values must exchange every cycle, which only works if sampling is
        // simultaneous.
        let mut n = Netlist::new("swap");
        let r1 = n.register("r1", true);
        let r2 = n.register("r2", false);
        n.connect_register(r1, r2).unwrap();
        n.connect_register(r2, r1).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        assert_eq!((sim.value(r1), sim.value(r2)), (true, false));
        sim.step();
        assert_eq!((sim.value(r1), sim.value(r2)), (false, true));
        sim.step();
        assert_eq!((sim.value(r1), sim.value(r2)), (true, false));
        assert_eq!(sim.cycle(), 2);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut n = Netlist::new("reset");
        let r = n.register("r", false);
        let nr = n.not_gate("nr", r);
        n.connect_register(r, nr).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        sim.run(3);
        assert_eq!(sim.cycle(), 3);
        assert!(sim.value(r));
        sim.reset();
        assert_eq!(sim.cycle(), 0);
        assert!(!sim.value(r));
    }

    #[test]
    fn register_init_values_respected() {
        let mut n = Netlist::new("init");
        let high = n.register("high", true);
        let low = n.register("low", false);
        n.connect_register(high, high).unwrap();
        n.connect_register(low, low).unwrap();
        let sim = Simulator::new(&n).unwrap();
        assert!(sim.value(high));
        assert!(!sim.value(low));
    }

    #[test]
    fn batched_set_inputs_matches_sequential_sets() {
        let mut n = Netlist::new("m");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let and = n.and_gate("and", [a, b]);
        let out = n.or_gate("out", [and, c]);
        let mut one_by_one = Simulator::new(&n).unwrap();
        one_by_one.set_input(a, true);
        one_by_one.set_input(b, true);
        one_by_one.set_input(c, false);
        let mut batched = Simulator::new(&n).unwrap();
        batched.set_inputs([(a, true), (b, true), (c, false)]);
        for id in [a, b, c, and, out] {
            assert_eq!(batched.value(id), one_by_one.value(id));
        }
        assert!(batched.value(out));
    }

    #[test]
    #[should_panic(expected = "not a primary input")]
    fn batched_driving_a_wire_panics() {
        let mut n = Netlist::new("m");
        let a = n.input("a");
        let w = n.not_gate("w", a);
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_inputs([(a, true), (w, true)]);
    }

    #[test]
    #[should_panic(expected = "not a primary input")]
    fn driving_a_wire_panics() {
        let mut n = Netlist::new("m");
        let a = n.input("a");
        let w = n.not_gate("w", a);
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input(w, true);
    }

    #[test]
    fn pipeline_register_chain_delays_input() {
        let mut n = Netlist::new("chain");
        let input = n.input("in");
        let s1 = n.register("s1", false);
        let s2 = n.register("s2", false);
        let s3 = n.register("s3", false);
        n.connect_register(s1, input).unwrap();
        n.connect_register(s2, s1).unwrap();
        n.connect_register(s3, s2).unwrap();
        n.mark_output(s3);
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input(input, true);
        sim.step();
        sim.set_input(input, false);
        assert!(sim.value(s1));
        assert!(!sim.value(s3));
        sim.step();
        assert!(sim.value(s2));
        sim.step();
        assert!(sim.value(s3));
        sim.step();
        assert!(!sim.value(s3));
    }
}
