//! Netlist construction: signals, gates and registers.

use std::collections::HashMap;
use std::fmt;

/// Handle to a signal in a [`Netlist`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Index of the signal in its netlist.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A combinational gate driving a wire.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Gate {
    /// Constant driver.
    Const(bool),
    /// Buffer (identity).
    Buf(SignalId),
    /// Inverter.
    Not(SignalId),
    /// N-ary AND.
    And(Vec<SignalId>),
    /// N-ary OR.
    Or(Vec<SignalId>),
    /// Two-input XOR.
    Xor(SignalId, SignalId),
    /// Multiplexer: `if sel { high } else { low }`.
    Mux {
        /// Select input.
        sel: SignalId,
        /// Value when `sel` is high.
        high: SignalId,
        /// Value when `sel` is low.
        low: SignalId,
    },
}

impl Gate {
    /// The input signals of the gate, in operand order.
    pub fn inputs(&self) -> impl Iterator<Item = SignalId> + '_ {
        let (fixed, ops): ([Option<SignalId>; 3], &[SignalId]) = match self {
            Gate::Const(_) => ([None; 3], &[]),
            Gate::Buf(a) | Gate::Not(a) => ([Some(*a), None, None], &[]),
            Gate::And(ops) | Gate::Or(ops) => ([None; 3], ops),
            Gate::Xor(a, b) => ([Some(*a), Some(*b), None], &[]),
            Gate::Mux { sel, high, low } => ([Some(*sel), Some(*high), Some(*low)], &[]),
        };
        fixed.into_iter().flatten().chain(ops.iter().copied())
    }
}

/// What drives a signal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SignalKind {
    /// Primary input, driven by the testbench/simulator user.
    Input,
    /// Combinational wire driven by a gate.
    Wire(Gate),
    /// Register output with a reset value; `next` is the signal sampled at
    /// every clock edge (unconnected until [`Netlist::connect_register`]).
    Register {
        /// Value after reset.
        init: bool,
        /// Signal sampled into the register each cycle.
        next: Option<SignalId>,
    },
}

/// A named signal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Signal {
    /// Signal name as it appears in emitted Verilog and traces.
    pub name: String,
    /// What drives it.
    pub kind: SignalKind,
}

/// Errors reported while building or elaborating a netlist.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RtlError {
    /// A signal name was used twice.
    DuplicateName(String),
    /// [`Netlist::connect_register`] was called on a non-register signal.
    NotARegister(String),
    /// A register's next-state input was never connected.
    UnconnectedRegister(String),
    /// The combinational logic contains a cycle through the named signal.
    CombinationalCycle(String),
    /// A signal id referenced a different netlist.
    UnknownSignal(SignalId),
}

impl fmt::Display for RtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlError::DuplicateName(name) => write!(f, "duplicate signal name '{name}'"),
            RtlError::NotARegister(name) => write!(f, "signal '{name}' is not a register"),
            RtlError::UnconnectedRegister(name) => {
                write!(f, "register '{name}' has no next-state connection")
            }
            RtlError::CombinationalCycle(name) => {
                write!(f, "combinational cycle through signal '{name}'")
            }
            RtlError::UnknownSignal(id) => write!(f, "unknown signal {id}"),
        }
    }
}

impl std::error::Error for RtlError {}

/// A synchronous netlist: inputs, combinational gates and registers sharing a
/// single implicit clock and synchronous reset.
///
/// See the crate-level example for typical usage.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    signals: Vec<Signal>,
    names: HashMap<String, SignalId>,
    outputs: Vec<SignalId>,
}

impl Netlist {
    /// Creates an empty netlist named `name` (the emitted Verilog module
    /// name).
    pub fn new(name: &str) -> Self {
        Netlist {
            name: name.to_owned(),
            ..Default::default()
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn add_signal(&mut self, name: &str, kind: SignalKind) -> SignalId {
        // Disambiguate duplicate names rather than erroring: generated logic
        // frequently re-uses rule names, and the suffix keeps Verilog legal.
        let unique_name = if self.names.contains_key(name) {
            let mut i = 1;
            loop {
                let candidate = format!("{name}_{i}");
                if !self.names.contains_key(&candidate) {
                    break candidate;
                }
                i += 1;
            }
        } else {
            name.to_owned()
        };
        let id = SignalId(self.signals.len() as u32);
        self.names.insert(unique_name.clone(), id);
        self.signals.push(Signal {
            name: unique_name,
            kind,
        });
        id
    }

    /// Declares a primary input.
    pub fn input(&mut self, name: &str) -> SignalId {
        self.add_signal(name, SignalKind::Input)
    }

    /// Declares a register with the given reset value. Connect its next-state
    /// input later with [`Netlist::connect_register`].
    pub fn register(&mut self, name: &str, init: bool) -> SignalId {
        self.add_signal(name, SignalKind::Register { init, next: None })
    }

    /// Connects the next-state input of `register` to `next`.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::NotARegister`] if `register` is not a register and
    /// [`RtlError::UnknownSignal`] if either id is out of range.
    pub fn connect_register(&mut self, register: SignalId, next: SignalId) -> Result<(), RtlError> {
        if next.index() >= self.signals.len() {
            return Err(RtlError::UnknownSignal(next));
        }
        let signal = self
            .signals
            .get_mut(register.index())
            .ok_or(RtlError::UnknownSignal(register))?;
        match &mut signal.kind {
            SignalKind::Register { next: slot, .. } => {
                *slot = Some(next);
                Ok(())
            }
            _ => Err(RtlError::NotARegister(signal.name.clone())),
        }
    }

    /// Adds a wire driven by an arbitrary gate.
    pub fn wire(&mut self, name: &str, gate: Gate) -> SignalId {
        self.add_signal(name, SignalKind::Wire(gate))
    }

    /// Constant driver.
    pub fn constant(&mut self, name: &str, value: bool) -> SignalId {
        self.wire(name, Gate::Const(value))
    }

    /// Buffer (identity) gate.
    pub fn buf_gate(&mut self, name: &str, a: SignalId) -> SignalId {
        self.wire(name, Gate::Buf(a))
    }

    /// Inverter.
    pub fn not_gate(&mut self, name: &str, a: SignalId) -> SignalId {
        self.wire(name, Gate::Not(a))
    }

    /// N-ary AND gate.
    pub fn and_gate<I: IntoIterator<Item = SignalId>>(
        &mut self,
        name: &str,
        inputs: I,
    ) -> SignalId {
        self.wire(name, Gate::And(inputs.into_iter().collect()))
    }

    /// N-ary OR gate.
    pub fn or_gate<I: IntoIterator<Item = SignalId>>(&mut self, name: &str, inputs: I) -> SignalId {
        self.wire(name, Gate::Or(inputs.into_iter().collect()))
    }

    /// Two-input XOR gate.
    pub fn xor_gate(&mut self, name: &str, a: SignalId, b: SignalId) -> SignalId {
        self.wire(name, Gate::Xor(a, b))
    }

    /// Multiplexer gate.
    pub fn mux_gate(
        &mut self,
        name: &str,
        sel: SignalId,
        high: SignalId,
        low: SignalId,
    ) -> SignalId {
        self.wire(name, Gate::Mux { sel, high, low })
    }

    /// Marks a signal as a module output (it is kept in emitted Verilog and
    /// recorded by default in traces).
    pub fn mark_output(&mut self, signal: SignalId) {
        if !self.outputs.contains(&signal) {
            self.outputs.push(signal);
        }
    }

    /// The declared outputs, in declaration order.
    pub fn outputs(&self) -> &[SignalId] {
        &self.outputs
    }

    /// Number of signals.
    pub fn len(&self) -> usize {
        self.signals.len()
    }

    /// Whether the netlist has no signals.
    pub fn is_empty(&self) -> bool {
        self.signals.is_empty()
    }

    /// The signal record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.index()]
    }

    /// Looks a signal up by name.
    pub fn find(&self, name: &str) -> Option<SignalId> {
        self.names.get(name).copied()
    }

    /// Iterates over all `(id, signal)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SignalId, &Signal)> + '_ {
        self.signals
            .iter()
            .enumerate()
            .map(|(i, s)| (SignalId(i as u32), s))
    }

    /// All register signals.
    pub fn registers(&self) -> Vec<SignalId> {
        self.iter()
            .filter(|(_, s)| matches!(s.kind, SignalKind::Register { .. }))
            .map(|(id, _)| id)
            .collect()
    }

    /// All primary inputs.
    pub fn inputs(&self) -> Vec<SignalId> {
        self.iter()
            .filter(|(_, s)| matches!(s.kind, SignalKind::Input))
            .map(|(id, _)| id)
            .collect()
    }

    /// Validates the netlist and returns a topological evaluation order of
    /// the combinational wires.
    ///
    /// # Errors
    ///
    /// * [`RtlError::UnconnectedRegister`] if a register has no next input.
    /// * [`RtlError::CombinationalCycle`] if the gates form a cycle.
    pub fn elaborate(&self) -> Result<Vec<SignalId>, RtlError> {
        for (_, signal) in self.iter() {
            if let SignalKind::Register { next: None, .. } = signal.kind {
                return Err(RtlError::UnconnectedRegister(signal.name.clone()));
            }
        }
        // Kahn's algorithm over combinational wires only; inputs and register
        // outputs are sources. The readers of signal `s` are
        // `dependents[start[s]..start[s + 1]]`, in one flat array, in id
        // order.
        let is_wire = |id: SignalId| matches!(self.signals[id.index()].kind, SignalKind::Wire(_));
        let gates = || {
            self.iter().filter_map(|(id, signal)| match &signal.kind {
                SignalKind::Wire(gate) => Some((id, gate)),
                _ => None,
            })
        };
        let mut in_degree: Vec<u32> = vec![0; self.signals.len()];
        let mut start: Vec<usize> = vec![0; self.signals.len() + 1];
        for (_, gate) in gates() {
            for input in gate.inputs() {
                start[input.index() + 1] += 1;
            }
        }
        for index in 1..start.len() {
            start[index] += start[index - 1];
        }
        // Fill with `start[s]` as the write cursor of `s`; afterwards it is
        // the end of `s`'s run, so shifting by one restores the starts.
        let mut dependents = vec![SignalId(0); start[self.signals.len()]];
        for (id, gate) in gates() {
            for input in gate.inputs() {
                if is_wire(input) {
                    in_degree[id.index()] += 1;
                }
                dependents[start[input.index()]] = id;
                start[input.index()] += 1;
            }
        }
        start.rotate_right(1);
        start[0] = 0;
        let mut ready: Vec<SignalId> = gates()
            .filter(|(id, _)| in_degree[id.index()] == 0)
            .map(|(id, _)| id)
            .collect();
        let mut order = Vec::new();
        while let Some(id) = ready.pop() {
            order.push(id);
            for &dependent in &dependents[start[id.index()]..start[id.index() + 1]] {
                if is_wire(dependent) {
                    in_degree[dependent.index()] -= 1;
                    if in_degree[dependent.index()] == 0 {
                        ready.push(dependent);
                    }
                }
            }
        }
        if order.len() != gates().count() {
            // Some wire was never released: it is on a cycle.
            let stuck = gates()
                .find(|(id, _)| !order.contains(id))
                .map(|(id, _)| self.signal(id).name.clone())
                .unwrap_or_default();
            return Err(RtlError::CombinationalCycle(stuck));
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let mut n = Netlist::new("m");
        let a = n.input("a");
        let b = n.input("b");
        let g = n.and_gate("g", [a, b]);
        n.mark_output(g);
        n.mark_output(g);
        assert_eq!(n.name(), "m");
        assert_eq!(n.len(), 3);
        assert_eq!(n.find("g"), Some(g));
        assert_eq!(n.find("missing"), None);
        assert_eq!(n.outputs(), &[g]);
        assert_eq!(n.inputs(), vec![a, b]);
        assert!(n.registers().is_empty());
        assert_eq!(n.signal(g).name, "g");
        assert!(!n.is_empty());
    }

    #[test]
    fn duplicate_names_are_disambiguated() {
        let mut n = Netlist::new("m");
        let first = n.input("x");
        let second = n.input("x");
        assert_ne!(first, second);
        assert_eq!(n.signal(second).name, "x_1");
        let third = n.input("x");
        assert_eq!(n.signal(third).name, "x_2");
    }

    #[test]
    fn connect_register_errors() {
        let mut n = Netlist::new("m");
        let a = n.input("a");
        let r = n.register("r", false);
        assert_eq!(
            n.connect_register(a, r),
            Err(RtlError::NotARegister("a".into()))
        );
        assert_eq!(
            n.connect_register(SignalId(99), a),
            Err(RtlError::UnknownSignal(SignalId(99)))
        );
        assert_eq!(
            n.connect_register(r, SignalId(99)),
            Err(RtlError::UnknownSignal(SignalId(99)))
        );
        assert_eq!(n.connect_register(r, a), Ok(()));
    }

    #[test]
    fn elaborate_detects_unconnected_register() {
        let mut n = Netlist::new("m");
        let _ = n.register("r", true);
        match n.elaborate() {
            Err(RtlError::UnconnectedRegister(name)) => assert_eq!(name, "r"),
            other => panic!("expected unconnected register, got {other:?}"),
        }
    }

    #[test]
    fn elaborate_detects_combinational_cycle() {
        let mut n = Netlist::new("m");
        let a = n.input("a");
        // w1 depends on w2 and vice versa.
        let w1 = n.wire("w1", Gate::And(vec![a]));
        let w2 = n.or_gate("w2", [w1, a]);
        // Rewire w1 to close the loop by rebuilding: emulate by adding a
        // buffer cycle.
        let w3 = n.buf_gate("w3", w2);
        // Manually create the cycle: w4 -> w5 -> w4.
        let w4 = n.wire("w4", Gate::Buf(SignalId(n.len() as u32 + 1)));
        let w5 = n.buf_gate("w5", w4);
        let _ = w3;
        let _ = w5;
        match n.elaborate() {
            Err(RtlError::CombinationalCycle(_)) => {}
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn elaborate_orders_wires_topologically() {
        let mut n = Netlist::new("m");
        let a = n.input("a");
        let b = n.input("b");
        let and = n.and_gate("and", [a, b]);
        let not = n.not_gate("not", and);
        let or = n.or_gate("or", [not, a]);
        let order = n.elaborate().unwrap();
        let pos = |id: SignalId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(and) < pos(not));
        assert!(pos(not) < pos(or));
    }

    #[test]
    fn gate_inputs() {
        let a = SignalId(0);
        let b = SignalId(1);
        let c = SignalId(2);
        let inputs = |gate: Gate| gate.inputs().collect::<Vec<_>>();
        assert!(inputs(Gate::Const(true)).is_empty());
        assert_eq!(inputs(Gate::Buf(a)), vec![a]);
        assert_eq!(inputs(Gate::Not(a)), vec![a]);
        assert_eq!(inputs(Gate::And(vec![a, b])), vec![a, b]);
        assert_eq!(inputs(Gate::Or(vec![a, b])), vec![a, b]);
        assert_eq!(inputs(Gate::Xor(a, b)), vec![a, b]);
        assert_eq!(
            inputs(Gate::Mux {
                sel: a,
                high: b,
                low: c
            }),
            vec![a, b, c]
        );
    }

    #[test]
    fn error_display() {
        assert!(RtlError::DuplicateName("x".into())
            .to_string()
            .contains("x"));
        assert!(RtlError::UnconnectedRegister("r".into())
            .to_string()
            .contains("r"));
        assert!(RtlError::CombinationalCycle("w".into())
            .to_string()
            .contains("w"));
        assert!(RtlError::UnknownSignal(SignalId(5))
            .to_string()
            .contains("s5"));
        assert!(RtlError::NotARegister("a".into()).to_string().contains("a"));
    }
}
