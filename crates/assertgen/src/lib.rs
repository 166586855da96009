//! Testbench assertion generation from interlock specifications.
//!
//! The paper's first practical payoff is that the derived performance
//! specification "can be included into a testbench in the form of an
//! assertion". This crate provides both halves of that flow:
//!
//! * [`sva`] renders the functional, performance and combined specifications
//!   as SystemVerilog assertion (SVA) properties and as PSL assertions, ready
//!   to be bound to the RTL signals of the design under verification;
//! * [`monitor`] provides runtime monitors that evaluate the same assertions
//!   over per-cycle signal snapshots — the form used with `ipcl-pipesim`'s
//!   observer hook.
//!
//! # Example
//!
//! ```
//! use ipcl_assertgen::{AssertionKind, sva::SvaGenerator};
//! use ipcl_core::example::ExampleArch;
//!
//! let spec = ExampleArch::new().functional_spec();
//! let sva = SvaGenerator::new(&spec).render_module(AssertionKind::Performance);
//! assert!(sva.contains("assert property"));
//! assert!(sva.contains("perf_long_1_moe"));
//! ```

pub mod monitor;
pub mod sva;

pub use monitor::{MonitorReport, SpecMonitor, Violation, ViolationKind};
pub use sva::SvaGenerator;

/// Which direction of the specification an assertion checks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AssertionKind {
    /// `condition → ¬moe`: a violation is a missed stall (functional bug).
    Functional,
    /// `¬moe → condition`: a violation is an unnecessary stall (performance
    /// bug).
    Performance,
    /// `condition ↔ ¬moe`: both directions.
    Combined,
}

impl AssertionKind {
    /// All kinds, in the order the paper introduces them.
    pub const ALL: [AssertionKind; 3] = [
        AssertionKind::Functional,
        AssertionKind::Performance,
        AssertionKind::Combined,
    ];

    /// Short prefix used in generated assertion labels.
    pub fn prefix(self) -> &'static str {
        match self {
            AssertionKind::Functional => "func",
            AssertionKind::Performance => "perf",
            AssertionKind::Combined => "comb",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_prefixes_are_distinct() {
        let prefixes: Vec<&str> = AssertionKind::ALL.iter().map(|k| k.prefix()).collect();
        let mut deduped = prefixes.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), prefixes.len());
    }
}
