//! `ipcl` — verification of interlocked pipeline control logic.
//!
//! This is the umbrella crate of the `ipcl` workspace, a reproduction of
//! *“Achieving Maximum Performance: A Method for the Verification of
//! Interlocked Pipeline Control Logic”* (Eder & Barrett, DAC 2002). It
//! re-exports every sub-crate under one namespace so applications can depend
//! on a single crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`expr`] | `ipcl-expr` | boolean expressions, parser, CNF, polarity |
//! | [`bdd`] | `ipcl-bdd` | ROBDD package |
//! | [`sat`] | `ipcl-sat` | CDCL SAT solver |
//! | [`rtl`] | `ipcl-rtl` | netlists, simulation, Verilog emission |
//! | [`bitsim`] | `ipcl-bitsim` | compiled bit-parallel simulation: 64 scenarios per levelized instruction pass |
//! | [`core`] | `ipcl-core` | interlock specifications and the fixed-point derivation |
//! | [`pipesim`] | `ipcl-pipesim` | cycle-accurate pipeline simulator and workloads |
//! | [`assertgen`] | `ipcl-assertgen` | SVA/PSL assertion generation and runtime monitors |
//! | [`synth`] | `ipcl-synth` | interlock RTL synthesis from the specification |
//! | [`checker`] | `ipcl-checker` | BDD/SAT property checking, the sequential strategies (k-induction, PDR, their portfolio) and reset checks |
//! | [`bmc`] | `ipcl-bmc` | bounded model checking and k-induction over netlists |
//! | [`pdr`] | `ipcl-pdr` | IC3/PDR with certified invariants |
//! | [`trace`] | `ipcl-trace` | structured tracing, metrics, and profiling of the solve stack |
//! | [`tracetool`] | `ipcl-tracetool` | trace export (Perfetto/flamegraph), profile diffing, perf-regression gate |
//! | [`serve`] | `ipcl-serve` | verification-as-a-service: job-queue server with a revalidating structural-hash proof cache |
//!
//! # Quick start
//!
//! ```
//! use ipcl::core::example::ExampleArch;
//! use ipcl::core::fixpoint::derive_symbolic;
//! use ipcl::checker::{check_derived_implementation, Engine};
//!
//! // Figure 2: the functional specification of the example architecture.
//! let spec = ExampleArch::new().functional_spec();
//! // Section 3: derive the maximum-performance assignment by fixed point.
//! let derivation = derive_symbolic(&spec);
//! assert_eq!(derivation.moe.len(), 6);
//! // The derived interlock provably satisfies the combined specification.
//! assert!(check_derived_implementation(&spec, Engine::Bdd).holds());
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios (performance-bug
//! hunting in simulation, exhaustive property checking, interlock synthesis,
//! and the FirePath-like case study) and `EXPERIMENTS.md` for the experiment
//! harness reproducing the paper's figures and claims.

pub use ipcl_assertgen as assertgen;
pub use ipcl_bdd as bdd;
pub use ipcl_bitsim as bitsim;
pub use ipcl_bmc as bmc;
pub use ipcl_checker as checker;
pub use ipcl_core as core;
pub use ipcl_expr as expr;
pub use ipcl_pdr as pdr;
pub use ipcl_pipesim as pipesim;
pub use ipcl_rtl as rtl;
pub use ipcl_sat as sat;
pub use ipcl_serve as serve;
pub use ipcl_synth as synth;
pub use ipcl_trace as trace;
pub use ipcl_tracetool as tracetool;

/// The `README.md` examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
