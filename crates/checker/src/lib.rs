//! Property checking of interlock implementations against their
//! specifications.
//!
//! Simulation with assertions (the `ipcl-assertgen` monitors) is only as good
//! as the stimulus; the paper's Results section recommends exhaustive
//! property checking instead. This crate provides that engine:
//!
//! * [`engine`] answers validity / implication / equivalence queries over
//!   specification expressions, with either the BDD package (`ipcl-bdd`) or
//!   the CDCL SAT solver (`ipcl-sat`) as a backend ([`Engine`]);
//! * [`implementation`] checks a concrete interlock implementation — given as
//!   closed-form `moe` expressions or as an `ipcl-rtl` netlist — against the
//!   functional, performance and combined specifications, producing
//!   counterexample assignments (unnecessary-stall or missed-stall
//!   witnesses);
//! * [`sequential`] decides the properties over input sequences with the
//!   [`ProofStrategy`] the caller picks — k-induction (`ipcl-bmc`), PDR
//!   (`ipcl-pdr`), or the portfolio, which this crate runs itself:
//!   k-induction, then PDR on what it leaves open — proves every stall
//!   escapable and checks the reset values of registered implementations;
//!   every trace it reports replays through the interpreted simulator.
//!
//! # Example
//!
//! ```
//! use ipcl_checker::{engine::Engine, implementation::check_derived_implementation};
//! use ipcl_core::example::ExampleArch;
//!
//! let spec = ExampleArch::new().functional_spec();
//! // The derived maximum-performance implementation satisfies the combined
//! // specification — exhaustively, not just on simulated cycles.
//! let report = check_derived_implementation(&spec, Engine::Bdd);
//! assert!(report.holds());
//! ```

pub mod engine;
pub mod implementation;
pub mod sequential;

pub use engine::{CheckOutcome, Engine};
pub use implementation::{
    check_derived_implementation, check_moe_expressions, check_netlist, ImplementationReport,
    SpecDirection, StageVerdict,
};
pub use sequential::{
    check_netlist_sequential, check_netlist_sequential_with, check_property_job,
    check_reset_values, ProofStrategy, ResetReport, SequentialOptions, SequentialReport,
};
// The BMC/PDR vocabulary types, so callers of the sequential checker need
// not depend on `ipcl-bmc` / `ipcl-pdr` directly.
pub use ipcl_bmc::{
    BmcError, BmcOptions, BmcOutcome, BmcResult, Counterexample, Latency, PropertyKind,
    SequentialProperty, StallEscapeReport,
};
pub use ipcl_pdr::{
    Certificate, CertificateCheck, PdrOptions, PdrOutcome, PdrResult, StateLiteral,
};
// Observability vocabulary, so callers can configure tracing on
// `SequentialOptions` and consume the snapshot without naming `ipcl-trace`.
pub use ipcl_trace::{TraceConfig, TraceSnapshot, Tracer};

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_core::example::ExampleArch;

    #[test]
    fn crate_example_runs() {
        let spec = ExampleArch::new().functional_spec();
        for engine in [Engine::Bdd, Engine::Sat] {
            assert!(check_derived_implementation(&spec, engine).holds());
        }
    }
}
