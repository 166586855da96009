//! Compiled bit-parallel netlist simulation: 64 scenarios per instruction.
//!
//! The interpreted [`ipcl_rtl::Simulator`] walks the gate graph once per
//! evaluated scenario — fine as a differential oracle, far too slow as a
//! fuzzing front end. This crate compiles an elaborated [`Netlist`] into a
//! *levelized straight-line program* ([`Program`]): one instruction per
//! gate, emitted in topological order, operating on packed `u64` words
//! where bit `i` of every word is scenario `i`'s value of that signal. One
//! pass over the instruction stream therefore advances **64 independent
//! scenarios** — the classic emulation-engine move of compiling a circuit
//! into an instruction stream, with the SIMD width of an ordinary machine
//! word.
//!
//! [`BitSimulator`] wraps a program with the two-phase step semantics of
//! the interpreter (combinational settle, simultaneous double-buffered
//! register update), per-lane reset ([`BitSimulator::reset_lanes`]),
//! per-lane input injection and per-lane output extraction, so a sweep
//! driver can retire and restart scenarios lane by lane.
//!
//! **Oracle discipline.** The interpreter stays authoritative: the lane
//! fuzzer (`ipcl_bmc::fuzz`) extracts each violating lane into a standard
//! counterexample, and its callers (the sequential checker, the serve
//! batch pre-solver) replay it gate-by-gate through
//! [`ipcl_rtl::Simulator`] before reporting anything. The differential
//! test suite (`tests/differential.rs`) additionally asserts bit-identical
//! per-cycle values across all 64 lanes on random netlists and the full
//! bug-injection matrix.
//!
//! # Example
//!
//! ```
//! use ipcl_bitsim::BitSimulator;
//! use ipcl_rtl::Netlist;
//!
//! let mut netlist = Netlist::new("toggler");
//! let toggle = netlist.register("toggle", false);
//! let inverted = netlist.not_gate("next_toggle", toggle);
//! netlist.connect_register(toggle, inverted)?;
//!
//! let mut sim = BitSimulator::new(&netlist)?;
//! assert_eq!(sim.value_word(toggle), 0);        // all 64 lanes low
//! sim.step();
//! assert_eq!(sim.value_word(toggle), u64::MAX); // all 64 lanes high
//! # Ok::<(), ipcl_rtl::RtlError>(())
//! ```

pub mod program;
pub mod sim;
pub mod words;

pub use program::{broadcast, Instr, Op, Program, RegSlot, LANES};
pub use sim::BitSimulator;
pub use words::eval_expr_word;
