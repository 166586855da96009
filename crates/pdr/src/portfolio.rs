//! The portfolio checker: k-induction first, then PDR on what it leaves
//! open.
//!
//! BMC finds counterexamples fast (and minimal) but proves only what some
//! depth within its bound makes inductive; PDR proves unboundedly but its
//! traces are not minimal. [`check_portfolio`] runs one
//! [`ipcl_bmc::check_properties`] run over the whole property list, then
//! [`check_property_pdr`] on each property that run left unknown, in list
//! order, all on the caller's thread. So a bug within the depth bound gets
//! BMC's minimal trace, a property k-induction proves costs no PDR run, a
//! deep one still gets a certified PDR proof, and the same input always
//! gives the same result.
//!
//! Both engines decide the *unconditional* property (any input sequence
//! from reset): the k-induction run's `quiet_cycles` is forced to zero,
//! because PDR has no quiet-cycle discipline. A portfolio counterexample
//! may therefore be shorter than the default k-induction engine's (it may
//! exercise a noisy reset frame), but it replays all the same.

use std::sync::atomic::{AtomicBool, Ordering};

use ipcl_bmc::{check_properties, BmcError, BmcOptions, BmcOutcome, BmcResult, Counterexample};
use ipcl_bmc::{Netlist, SequentialProperty};
use ipcl_core::FunctionalSpec;
use ipcl_trace::{Tracer, Value};

use crate::certificate::Certificate;
use crate::engine::{check_property_pdr, PdrOptions, PdrOutcome, PdrResult};

/// Which engine decided a portfolio property.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortfolioWinner {
    /// The k-induction run decided it.
    Bmc,
    /// PDR decided it after k-induction left it open.
    Pdr,
}

/// One property's result of a [`check_portfolio`] run.
#[derive(Clone, Debug)]
pub struct PortfolioResult {
    /// The property that was checked.
    pub property: SequentialProperty,
    /// The engine that decided the property (`None` when neither did).
    pub winner: Option<PortfolioWinner>,
    /// The k-induction result; the report when neither engine decided.
    pub bmc: BmcResult,
    /// The PDR result, present when k-induction left the property open
    /// and the run was not cancelled before PDR started.
    pub pdr: Option<PdrResult>,
}

impl PortfolioResult {
    /// Whether the deciding verdict is a proof.
    pub fn is_proved(&self) -> bool {
        self.bmc.outcome.is_proved() || self.pdr.as_ref().is_some_and(|r| r.outcome.is_proved())
    }

    /// Whether the deciding verdict is a falsification.
    pub fn is_falsified(&self) -> bool {
        self.counterexample().is_some()
    }

    /// The deciding counterexample, if any.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        self.bmc
            .outcome
            .counterexample()
            .or_else(|| self.pdr.as_ref()?.outcome.counterexample())
    }

    /// The inductive-invariant certificate, when the proof came from PDR.
    /// (A k-induction proof carries no certificate; its witness is the
    /// unsatisfiability of the step case.)
    pub fn certificate(&self) -> Option<&Certificate> {
        self.pdr.as_ref()?.outcome.certificate()
    }
}

/// Decides every property of `properties` with one k-induction run over
/// the whole list, then a PDR run on each property it left unknown, in
/// list order. Results come back in `properties` order.
///
/// See the module docs for the semantics (`quiet_cycles` is forced to
/// zero so both engines decide the same unconditional property). `cancel`
/// is polled by both engines; once it is set no further PDR run starts,
/// and the remaining properties report k-induction's unknown.
///
/// Traced under one `portfolio.check` span with the engines' `bmc.check`
/// and `pdr.check` spans nested under it, a start `heartbeat` and one
/// `portfolio_verdict` event per property.
///
/// # Errors
///
/// As [`ipcl_bmc::check_properties`].
pub fn check_portfolio(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    properties: &[SequentialProperty],
    bmc_options: &BmcOptions,
    pdr_options: &PdrOptions,
    cancel: Option<&AtomicBool>,
    tracer: &Tracer,
) -> Result<Vec<PortfolioResult>, BmcError> {
    let _span = tracer.span("portfolio.check");
    // Announce the run on the live-progress feed; the engines' own
    // `heartbeat` events (engine = "bmc" / "pdr" / "sat") take over.
    tracer.event(
        "heartbeat",
        &[
            ("engine", Value::from("portfolio")),
            ("properties", Value::U64(properties.len() as u64)),
        ],
    );

    // Align k-induction with PDR's unconditional semantics.
    let bmc_options = BmcOptions {
        quiet_cycles: 0,
        ..*bmc_options
    };
    let bmc_results = check_properties(spec, netlist, properties, &bmc_options, cancel, tracer)?;
    let mut results = Vec::with_capacity(bmc_results.len());
    for bmc in bmc_results {
        let (winner, pdr) = match bmc.outcome {
            BmcOutcome::Unknown { .. } if !cancel.is_some_and(|f| f.load(Ordering::Relaxed)) => {
                let pdr =
                    check_property_pdr(spec, netlist, &bmc.property, pdr_options, cancel, tracer)?;
                let decided = !matches!(pdr.outcome, PdrOutcome::Unknown { .. });
                (decided.then_some(PortfolioWinner::Pdr), Some(pdr))
            }
            BmcOutcome::Unknown { .. } => (None, None),
            _ => (Some(PortfolioWinner::Bmc), None),
        };
        let result = PortfolioResult {
            property: bmc.property.clone(),
            winner,
            bmc,
            pdr,
        };
        if tracer.is_enabled() {
            let verdict = if result.is_proved() {
                "proved"
            } else if result.is_falsified() {
                "falsified"
            } else {
                "unknown"
            };
            let winner = match result.winner {
                Some(PortfolioWinner::Bmc) => "bmc",
                Some(PortfolioWinner::Pdr) => "pdr",
                None => "none",
            };
            tracer.event(
                "portfolio_verdict",
                &[
                    ("property", Value::from(result.property.name.clone())),
                    ("winner", Value::from(winner)),
                    ("verdict", Value::from(verdict)),
                ],
            );
        }
        results.push(result);
    }
    Ok(results)
}
