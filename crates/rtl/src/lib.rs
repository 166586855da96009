//! Register-transfer-level netlists and cycle-accurate simulation.
//!
//! `ipcl-rtl` is the hardware substrate of the workspace: the synthesised
//! interlock controllers produced by `ipcl-synth` are netlists of this crate,
//! the sequential engines of `ipcl-bmc` unroll them (`FrameEncoder`) and
//! replay their counterexamples on its simulator, and the property checker
//! extracts boolean expressions from netlists to compare an implementation
//! against its specification.
//!
//! A [`Netlist`] contains input ports, combinational gates and registers.
//! [`Simulator`] evaluates it cycle by cycle with two-phase semantics
//! (combinational settle, then simultaneous register update),
//! [`Netlist::to_verilog`] emits synthesisable Verilog and
//! [`Netlist::signal_expr`] recovers the boolean function of any signal in
//! terms of inputs and register outputs.
//!
//! # Example
//!
//! ```
//! use ipcl_rtl::{Netlist, Simulator};
//!
//! let mut netlist = Netlist::new("toggler");
//! let toggle = netlist.register("toggle", false);
//! let inverted = netlist.not_gate("next_toggle", toggle);
//! netlist.connect_register(toggle, inverted)?;
//! netlist.mark_output(toggle);
//!
//! let mut sim = Simulator::new(&netlist)?;
//! assert_eq!(sim.value(toggle), false);
//! sim.step();
//! assert_eq!(sim.value(toggle), true);
//! sim.step();
//! assert_eq!(sim.value(toggle), false);
//! # Ok::<(), ipcl_rtl::RtlError>(())
//! ```

pub mod digest;
pub mod extract;
pub mod netlist;
pub mod sim;
pub mod verilog;

pub use digest::{sha256_hex, structural_digest};
pub use netlist::{Gate, Netlist, RtlError, Signal, SignalId, SignalKind};
pub use sim::Simulator;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_example_counter() {
        // Two-bit counter out of registers and gates.
        let mut n = Netlist::new("counter2");
        let bit0 = n.register("bit0", false);
        let bit1 = n.register("bit1", false);
        let next0 = n.not_gate("next0", bit0);
        let carry = bit0;
        let next1 = n.xor_gate("next1", bit1, carry);
        n.connect_register(bit0, next0).unwrap();
        n.connect_register(bit1, next1).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        let mut seen = Vec::new();
        for _ in 0..5 {
            seen.push((sim.value(bit1), sim.value(bit0)));
            sim.step();
        }
        assert_eq!(
            seen,
            vec![
                (false, false),
                (false, true),
                (true, false),
                (true, true),
                (false, false)
            ]
        );
    }
}
