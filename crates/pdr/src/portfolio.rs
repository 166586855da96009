//! The portfolio checker: BMC falsification racing PDR proof.
//!
//! BMC finds counterexamples fast (and minimal) but can only prove up to
//! its unrolling bound via k-induction; PDR proves unboundedly but its
//! traces are not minimal. The portfolio runs both engines on scoped
//! threads against the same property, cooperatively cancelling the loser
//! through the engines' `cancel` flags once either has a *definitive*
//! verdict (falsified or proved) — so buggy designs get BMC-speed
//! falsification and correct designs get PDR-strength proofs, whichever
//! is available first. Cancellation is polled *between* SAT queries
//! (BMC: per depth; PDR: per obligation), not inside one, so the race's
//! wall-clock is the winner's time plus the loser's single in-flight
//! query — tight for the small queries interlock controllers generate.
//!
//! Both engines are run on the *unconditional* property semantics (any
//! input sequence from reset): the BMC racer's `quiet_cycles` is forced to
//! zero, because PDR has no quiet-cycle discipline and two engines racing
//! on different questions could otherwise disagree. Consequently a
//! portfolio counterexample may be shorter than the default BMC engine's
//! (it may exercise a noisy reset frame), but it replays all the same.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use ipcl_bmc::{
    check_property_traced, BmcError, BmcOptions, BmcOutcome, BmcResult, Counterexample,
};
use ipcl_bmc::{Netlist, SequentialProperty};
use ipcl_core::FunctionalSpec;
use ipcl_trace::{Tracer, Value};

use crate::certificate::Certificate;
use crate::engine::{check_property_pdr_traced, PdrOptions, PdrOutcome, PdrResult};

/// Which engine produced the portfolio's verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortfolioWinner {
    /// The BMC / k-induction racer finished first.
    Bmc,
    /// The PDR racer finished first.
    Pdr,
}

/// Result of racing both engines on one property.
#[derive(Clone, Debug)]
pub struct PortfolioResult {
    /// The property that was checked.
    pub property: SequentialProperty,
    /// The engine whose definitive verdict won the race (`None` when both
    /// came back unknown).
    pub winner: Option<PortfolioWinner>,
    /// The BMC racer's result.
    pub bmc: BmcResult,
    /// The PDR racer's result.
    pub pdr: PdrResult,
}

impl PortfolioResult {
    /// Whether the winning verdict is a proof.
    pub fn is_proved(&self) -> bool {
        match self.winner {
            Some(PortfolioWinner::Bmc) => self.bmc.outcome.is_proved(),
            Some(PortfolioWinner::Pdr) => self.pdr.outcome.is_proved(),
            None => false,
        }
    }

    /// Whether the winning verdict is a falsification.
    pub fn is_falsified(&self) -> bool {
        self.counterexample().is_some()
    }

    /// The winning counterexample, if any.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self.winner {
            Some(PortfolioWinner::Bmc) => self.bmc.outcome.counterexample(),
            Some(PortfolioWinner::Pdr) => self.pdr.outcome.counterexample(),
            None => None,
        }
    }

    /// The inductive-invariant certificate, when the proof came from PDR.
    /// (A k-induction proof carries no certificate; its witness is the
    /// unsatisfiability of the step case.)
    pub fn certificate(&self) -> Option<&Certificate> {
        match self.winner {
            Some(PortfolioWinner::Pdr) => self.pdr.outcome.certificate(),
            _ => None,
        }
    }
}

fn verdict_name(proved: bool) -> &'static str {
    if proved {
        "proved"
    } else {
        "falsified"
    }
}

fn bmc_definitive(result: &Result<BmcResult, BmcError>) -> bool {
    matches!(
        result,
        Ok(BmcResult {
            outcome: BmcOutcome::Falsified(_) | BmcOutcome::Proved { .. },
            ..
        })
    )
}

fn pdr_definitive(result: &Result<PdrResult, BmcError>) -> bool {
    matches!(
        result,
        Ok(PdrResult {
            outcome: PdrOutcome::Falsified(_) | PdrOutcome::Proved { .. },
            ..
        })
    )
}

/// Races BMC falsification (with k-induction) against a PDR proof on two
/// scoped threads; the first definitive verdict cancels the other engine.
///
/// See the module docs for the exact semantics (`quiet_cycles` is forced
/// to zero so both racers decide the same unconditional property).
///
/// # Errors
///
/// As [`ipcl_bmc::check_property`]; if either racer errors, the error is
/// propagated (both racers validate the same netlist, so they fail
/// together).
pub fn check_property_portfolio(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
    bmc_options: &BmcOptions,
    pdr_options: &PdrOptions,
) -> Result<PortfolioResult, BmcError> {
    check_property_portfolio_traced(
        spec,
        netlist,
        property,
        bmc_options,
        pdr_options,
        &Tracer::disabled(),
    )
}

/// [`check_property_portfolio`] with a [`Tracer`]: the race itself runs
/// under a `portfolio.race` span on the caller's thread, each racer opens
/// its own engine span (`bmc.check` / `pdr.check`) on its scoped thread,
/// and the cancellation handshake is logged as `portfolio_cancel` /
/// `portfolio_verdict` events — so one trace interleaves both engines'
/// event streams, distinguishable by thread id.
///
/// # Errors
///
/// As [`check_property_portfolio`].
pub fn check_property_portfolio_traced(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
    bmc_options: &BmcOptions,
    pdr_options: &PdrOptions,
    tracer: &Tracer,
) -> Result<PortfolioResult, BmcError> {
    check_property_portfolio_with_cancel(
        spec,
        netlist,
        property,
        bmc_options,
        pdr_options,
        None,
        tracer,
    )
}

/// [`check_property_portfolio_traced`] with an **external** cancellation
/// flag: when the caller raises `external_cancel`, both racers stop at
/// their next poll point and the race returns with whatever (possibly
/// `Unknown`) results are in hand. This is the job-cancellation hook of
/// `ipcl-serve` — the same cooperative machinery the race itself uses to
/// cancel the losing engine, re-exposed to the job owner: a poller thread
/// forwards the external flag into the race's internal one, so neither
/// engine knows about the extra layer.
///
/// # Errors
///
/// As [`check_property_portfolio`].
pub fn check_property_portfolio_with_cancel(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
    bmc_options: &BmcOptions,
    pdr_options: &PdrOptions,
    external_cancel: Option<&AtomicBool>,
    tracer: &Tracer,
) -> Result<PortfolioResult, BmcError> {
    let _span = tracer.span("portfolio.race");
    // Announce the race on the live-progress feed; the racers' own
    // `heartbeat` events (engine = "bmc" / "pdr" / "sat") take over from
    // here, and `portfolio_cancel` / `portfolio_verdict` close it out.
    tracer.event(
        "heartbeat",
        &[
            ("engine", Value::from("portfolio")),
            ("property", Value::Str(property.name.clone().into())),
        ],
    );

    // Align the BMC racer with PDR's unconditional semantics.
    let bmc_options = BmcOptions {
        quiet_cycles: 0,
        ..*bmc_options
    };

    let cancel = AtomicBool::new(false);
    let finish_order = AtomicUsize::new(0);

    let (bmc, bmc_stamp, pdr, pdr_stamp) = std::thread::scope(|scope| {
        // Forward the owner's cancellation into the race's internal flag.
        // The poller exits as soon as the internal flag is set — by the
        // owner (via this thread), by the winning racer, or by the final
        // store below once both racers have returned.
        if let Some(external) = external_cancel {
            scope.spawn(|| {
                while !cancel.load(Ordering::Relaxed) {
                    if external.load(Ordering::Relaxed) {
                        cancel.store(true, Ordering::Relaxed);
                        tracer.event("portfolio_cancel", &[("engine", Value::from("external"))]);
                        break;
                    }
                    std::thread::park_timeout(std::time::Duration::from_millis(2));
                }
            });
        }
        let bmc_handle = scope.spawn(|| {
            let result =
                check_property_traced(spec, netlist, property, &bmc_options, Some(&cancel), tracer);
            let stamp = finish_order.fetch_add(1, Ordering::SeqCst);
            if bmc_definitive(&result) {
                cancel.store(true, Ordering::Relaxed);
                tracer.event("portfolio_cancel", &[("engine", Value::from("bmc"))]);
            }
            (result, stamp)
        });
        let pdr_handle = scope.spawn(|| {
            let result = check_property_pdr_traced(
                spec,
                netlist,
                property,
                pdr_options,
                Some(&cancel),
                tracer,
            );
            let stamp = finish_order.fetch_add(1, Ordering::SeqCst);
            if pdr_definitive(&result) {
                cancel.store(true, Ordering::Relaxed);
                tracer.event("portfolio_cancel", &[("engine", Value::from("pdr"))]);
            }
            (result, stamp)
        });
        let (bmc, bmc_stamp) = bmc_handle.join().expect("BMC racer thread panicked");
        let (pdr, pdr_stamp) = pdr_handle.join().expect("PDR racer thread panicked");
        // Release the external-cancel poller (both racers may have come
        // back Unknown without anyone setting the flag).
        cancel.store(true, Ordering::Relaxed);
        (bmc, bmc_stamp, pdr, pdr_stamp)
    });

    let bmc = bmc?;
    let pdr = pdr?;

    let bmc_def = matches!(
        bmc.outcome,
        BmcOutcome::Falsified(_) | BmcOutcome::Proved { .. }
    );
    let pdr_def = matches!(
        pdr.outcome,
        PdrOutcome::Falsified(_) | PdrOutcome::Proved { .. }
    );
    let winner = match (bmc_def, pdr_def) {
        (true, true) => {
            // Both engines decided the same unconditional property: a
            // proved/falsified split would mean one of them is unsound.
            assert_eq!(
                bmc.outcome.is_proved(),
                pdr.outcome.is_proved(),
                "BMC and PDR disagree on {}",
                property.name
            );
            if bmc_stamp < pdr_stamp {
                Some(PortfolioWinner::Bmc)
            } else {
                Some(PortfolioWinner::Pdr)
            }
        }
        (true, false) => Some(PortfolioWinner::Bmc),
        (false, true) => Some(PortfolioWinner::Pdr),
        (false, false) => None,
    };

    if tracer.is_enabled() {
        let (winner_name, verdict) = match winner {
            Some(PortfolioWinner::Bmc) => ("bmc", verdict_name(bmc.outcome.is_proved())),
            Some(PortfolioWinner::Pdr) => ("pdr", verdict_name(pdr.outcome.is_proved())),
            None => ("none", "unknown"),
        };
        tracer.event(
            "portfolio_verdict",
            &[
                ("winner", Value::from(winner_name)),
                ("verdict", Value::from(verdict)),
            ],
        );
    }

    Ok(PortfolioResult {
        property: property.clone(),
        winner,
        bmc,
        pdr,
    })
}
