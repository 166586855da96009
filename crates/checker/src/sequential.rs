//! Sequential checks: BMC/k-induction and PDR property checking, stall
//! escape and reset values.
//!
//! The paper's case study reports finding "incorrect initialisation values of
//! control signals". [`check_reset_values`] detects exactly that class of
//! bug in registered interlock implementations: immediately after reset the
//! pipeline is empty, so the maximum-performance assignment is *everything
//! may move*; any `moe` register that resets to a different value either
//! stalls unnecessarily out of reset or (worse) reports a busy stage as free.
//!
//! [`check_netlist_sequential`] is the exhaustive sequential engine: it
//! builds the functional/performance property portfolio for the netlist's
//! latency class, proves or falsifies every property with the configured
//! [`ProofStrategy`] — k-induction (`ipcl-bmc`), IC3/PDR with certified
//! inductive invariants (`ipcl-pdr`), or k-induction followed by PDR on
//! what it leaves open — proves every stall state escapable, and folds in
//! the reset check. Counterexamples replay deterministically through the
//! simulator and PDR certificates pass independent SAT validation before a
//! verdict is reported. k-induction decides the whole portfolio in one
//! [`ipcl_bmc::check_properties`] run over one shared pair of unrollings;
//! its base case finds shallow bugs with a minimal trace. PDR checks the
//! properties one after another. Every strategy runs on the caller's
//! thread. No strategy runs a random sweep first: a sweep decides no
//! verdict the engines do not. The lane fuzzer ([`ipcl_bmc::fuzz`]) stays
//! a library function for callers that want a quick, unsound smoke signal.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use ipcl_bmc::{
    check_properties, check_stall_escape_traced, BmcError, BmcOptions, BmcOutcome, BmcResult,
    BmcStats, Latency, SequentialProperty, StallEscapeReport,
};
use ipcl_core::fixpoint::derive_concrete;
use ipcl_core::FunctionalSpec;
use ipcl_expr::Assignment;
use ipcl_pdr::{check_property_pdr, Certificate, PdrOptions, PdrOutcome, PdrResult};
use ipcl_rtl::{Netlist, SignalKind};
use ipcl_trace::{TraceConfig, TraceSnapshot, Tracer, Value};

/// Result of a reset-value check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResetReport {
    /// `(moe signal name, expected reset value, actual reset value)` for each
    /// mismatching register.
    pub mismatches: Vec<(String, bool, bool)>,
    /// Number of registered `moe` outputs examined.
    pub examined: usize,
}

impl ResetReport {
    /// Whether every examined reset value was correct.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Checks the reset values of a registered interlock implementation.
///
/// `moe` outputs implemented as plain wires are ignored (they have no reset
/// value of their own); registered outputs are compared against the derived
/// maximum-performance value for the empty (post-reset) environment.
pub fn check_reset_values(spec: &FunctionalSpec, netlist: &Netlist) -> ResetReport {
    let expected = derive_concrete(spec, &Assignment::new());
    let mut mismatches = Vec::new();
    let mut examined = 0;
    for stage in spec.stages() {
        let name = spec.pool().name_or_fallback(stage.moe);
        let Some(signal) = netlist.find(&name) else {
            continue;
        };
        if let SignalKind::Register { init, .. } = netlist.signal(signal).kind {
            examined += 1;
            let expected_value = expected.get(stage.moe).unwrap_or(true);
            if init != expected_value {
                mismatches.push((name, expected_value, init));
            }
        }
    }
    ResetReport {
        mismatches,
        examined,
    }
}

/// Which proof engine decides each property of the sequential portfolio.
///
/// The strategies differ in one semantic detail besides strength: the
/// k-induction base cases honour [`BmcOptions::quiet_cycles`] (the
/// post-reset environment is assumed quiet, ruling out counterfeit
/// "hazard at reset" traces), while PDR — and therefore the portfolio,
/// which runs its k-induction with `quiet_cycles` forced to 0 — decides
/// the property **unconditionally**, over every input sequence from reset.
/// A design that is only correct under the quiet-reset assumption is
/// proved by [`ProofStrategy::KInduction`] and falsified (with a
/// noisy-reset trace) by the other two; that trace is a real execution of
/// the netlist, just one the quiet-cycle discipline chooses to exclude.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProofStrategy {
    /// BMC falsification with a k-induction proof attempt per depth
    /// (`ipcl-bmc`); bounded by [`BmcOptions::max_depth`]. The default.
    #[default]
    KInduction,
    /// IC3/PDR (`ipcl-pdr`): unbounded proofs with certified inductive
    /// invariants; counterexamples are replayable but not minimal-length.
    /// Ignores [`BmcOptions::quiet_cycles`] (see the enum docs).
    Pdr,
    /// k-induction over the whole property list, then PDR on each
    /// property it leaves open, in list order. k-induction runs with
    /// `quiet_cycles = 0` (see the enum docs), so the verdicts are PDR's,
    /// and a falsification within [`BmcOptions::max_depth`] comes with
    /// k-induction's minimal trace. Only the properties PDR decided carry
    /// a certificate.
    Portfolio,
}

/// Options of [`check_netlist_sequential`].
#[derive(Clone, Copy, Debug)]
pub struct SequentialOptions {
    /// Which engine proves/falsifies each property. Note the quiet-cycle
    /// caveat on [`ProofStrategy`]: only [`ProofStrategy::KInduction`]
    /// honours [`BmcOptions::quiet_cycles`].
    pub strategy: ProofStrategy,
    /// BMC / k-induction knobs (depth bound, quiet cycles, incrementality,
    /// and the CDCL heuristics via [`BmcOptions::solver`] — phase saving,
    /// reduction base, restart unit).
    pub bmc: BmcOptions,
    /// PDR knobs (frame budget and the CDCL heuristics via
    /// [`PdrOptions::solver`]).
    pub pdr: PdrOptions,
    /// Ignored: every strategy runs on the caller's thread. Kept for
    /// source compatibility with callers that set it.
    pub threads: usize,
    /// Property latency. `None` auto-detects from the netlist
    /// ([`Latency::Registered`] when the `moe` outputs are registers).
    pub latency: Option<Latency>,
    /// Length, in cycles, of a random lane sweep ([`ipcl_bmc::fuzz`]) for
    /// callers that run one next to the check. The checker itself runs no
    /// sweep under any strategy, so this decides no verdict and no trace.
    pub prepass_cycles: u64,
    /// Ignored: every strategy checks the properties on the caller's
    /// thread, in order. Kept for source compatibility with callers that
    /// set it.
    pub parallel: bool,
    /// Run the per-stage stall-escape (deadlock/livelock) proof.
    pub deadlock: bool,
    /// Window of the stall-escape check, in quiet cycles.
    pub escape_cycles: usize,
    /// Observability configuration. Disabled by default (and zero-cost when
    /// disabled); when enabled, [`SequentialReport::trace`] carries the
    /// frozen profile tree, metrics and event log of the whole run.
    pub trace: TraceConfig,
}

impl Default for SequentialOptions {
    fn default() -> Self {
        SequentialOptions {
            strategy: ProofStrategy::default(),
            bmc: BmcOptions::default(),
            pdr: PdrOptions::default(),
            threads: 1,
            latency: None,
            prepass_cycles: 200,
            parallel: true,
            deadlock: true,
            escape_cycles: 2,
            trace: TraceConfig::disabled(),
        }
    }
}

/// Result of a full sequential verification run.
#[derive(Clone, Debug)]
pub struct SequentialReport {
    /// The latency class the properties were checked at.
    pub latency: Latency,
    /// One result per property, in portfolio order. Properties decided by
    /// PDR are folded into the BMC vocabulary (`Proved`'s depth is the PDR
    /// fixpoint frame).
    pub results: Vec<BmcResult>,
    /// Validated inductive-invariant certificates, keyed by property name —
    /// one per property that PDR proved (empty under
    /// [`ProofStrategy::KInduction`], and absent for portfolio properties
    /// k-induction decided).
    pub certificates: BTreeMap<String, Certificate>,
    /// The static reset-value check.
    pub reset: ResetReport,
    /// Per-stage stall-escape proofs (empty when disabled).
    pub stall_escape: Vec<StallEscapeReport>,
    /// The frozen observability snapshot — profile tree, unified metrics
    /// and the structured event log — when [`SequentialOptions::trace`] was
    /// enabled; `None` otherwise. Render it with `ipcl_trace::report`.
    pub trace: Option<TraceSnapshot>,
}

impl SequentialReport {
    /// Whether the implementation is *proved* sequentially correct: every
    /// property proved (by k-induction or PDR, whichever the strategy ran),
    /// reset values right and every stall escapable. (`Unknown` outcomes
    /// count as not proved.)
    pub fn proved(&self) -> bool {
        self.results.iter().all(|r| r.outcome.is_proved())
            && self.reset.ok()
            && self.stall_escape.iter().all(|s| s.escapable)
    }

    /// Whether any property was falsified (a definite bug with a trace).
    pub fn falsified(&self) -> bool {
        self.results.iter().any(|r| r.outcome.is_falsified())
    }

    /// The falsified properties with their counterexamples.
    pub fn counterexamples(&self) -> Vec<&BmcResult> {
        self.results
            .iter()
            .filter(|r| r.outcome.is_falsified())
            .collect()
    }
}

/// Exhaustive sequential verification of a netlist implementation against
/// the specification: a proof or a falsification per stage and direction,
/// stall-escape proofs and the reset check. See the module docs.
///
/// Every returned counterexample has been replayed through
/// [`ipcl_rtl::Simulator`] and reproduced its violation (this is asserted
/// internally), so traces can be handed to an RTL debugger as-is.
///
/// # Errors
///
/// [`BmcError::MissingSignals`] when the netlist lacks `moe` outputs,
/// [`BmcError::Rtl`] when it does not elaborate.
pub fn check_netlist_sequential(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    strategy: ProofStrategy,
) -> Result<SequentialReport, BmcError> {
    let options = SequentialOptions {
        strategy,
        ..Default::default()
    };
    check_netlist_sequential_with(spec, netlist, &options)
}

/// As [`check_netlist_sequential`], with explicit options.
pub fn check_netlist_sequential_with(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    options: &SequentialOptions,
) -> Result<SequentialReport, BmcError> {
    let missing = ipcl_bmc::missing_moe_signals(spec, netlist);
    if !missing.is_empty() {
        return Err(BmcError::MissingSignals(missing));
    }

    let tracer = Tracer::new(options.trace);
    let run_span = tracer.span("checker.sequential");

    let latency = options
        .latency
        .unwrap_or_else(|| Latency::detect(spec, netlist));

    let properties = SequentialProperty::both_directions(spec, latency);
    let checked = check_with_strategy(spec, netlist, &properties, options, None, &tracer)?;
    let mut certificates = BTreeMap::new();
    let mut results = Vec::with_capacity(checked.len());
    for (result, certificate) in checked {
        if let Some(certificate) = certificate {
            certificates.insert(result.property.name.clone(), certificate);
        }
        results.push(result);
    }

    // Counterexamples must replay: a trace that does not reproduce through
    // the simulator would mean the CNF encoding or the compiled simulator
    // diverged from the netlist semantics, which is a checker bug, not a
    // property verdict.
    for result in &results {
        if let BmcOutcome::Falsified(cex) = &result.outcome {
            let _replay_span = tracer.span("checker.replay");
            let replay = cex
                .replay(spec, netlist, &result.property)
                .map_err(BmcError::Rtl)?;
            if tracer.is_enabled() {
                tracer.event(
                    "replay_verdict",
                    &[
                        ("property", Value::from(result.property.name.clone())),
                        ("length", Value::from(cex.length() as u64)),
                        ("reproduced", Value::from(replay.violation_reproduced)),
                    ],
                );
            }
            assert!(
                replay.violation_reproduced,
                "counterexample for {} failed to replay:\n{}",
                result.property.name,
                cex.render()
            );
        }
    }

    let stall_escape = if options.deadlock {
        let _span = tracer.span("checker.stall_escape");
        check_stall_escape_traced(spec, netlist, options.escape_cycles, &tracer)?
    } else {
        Vec::new()
    };

    drop(run_span);
    Ok(SequentialReport {
        latency,
        results,
        certificates,
        reset: check_reset_values(spec, netlist),
        stall_escape,
        trace: tracer.snapshot(),
    })
}

/// The job-oriented single-property entry point: decides `property` with
/// the configured [`ProofStrategy`], with an optional **cancellation
/// token** the owner can raise at any time — the engines poll it between
/// SAT queries (BMC: per depth; PDR: per obligation; the portfolio starts
/// no PDR run once it is set), so a cancelled job returns promptly with an
/// `Unknown` outcome rather than being killed mid-query.
///
/// This is what a job server (`ipcl-serve`) schedules onto its worker
/// pool: one call per queued (netlist, property) pair, one token per job.
/// It is the one-property case of the dispatch
/// [`check_netlist_sequential_with`] runs over the whole portfolio, which
/// gives every property the verdict this function gives it (under
/// k-induction, from one shared [`ipcl_bmc::check_properties`] run).
///
/// Returns the folded [`BmcResult`] plus the validated certificate when
/// the proof came from PDR.
///
/// # Errors
///
/// As [`check_netlist_sequential`].
///
/// # Panics
///
/// Like the full checker, on a PDR certificate that fails its independent
/// validation (an engine bug, not a verdict).
pub fn check_property_job(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
    options: &SequentialOptions,
    cancel: Option<&AtomicBool>,
    tracer: &Tracer,
) -> Result<(BmcResult, Option<Certificate>), BmcError> {
    let properties = std::slice::from_ref(property);
    let mut checked = check_with_strategy(spec, netlist, properties, options, cancel, tracer)?;
    Ok(checked.remove(0))
}

/// Decides `properties` with the configured [`ProofStrategy`], in order,
/// on the caller's thread: one [`ipcl_bmc::check_properties`] run under
/// k-induction, one [`ipcl_pdr::check_property_pdr`] run per property
/// under PDR.
///
/// The portfolio runs k-induction over the whole list at
/// `quiet_cycles: 0`, then PDR on each property it left unknown, unless
/// `cancel` is set by then; a property neither engine decides keeps
/// k-induction's unknown. It is traced under one `portfolio.check` span
/// around the engines' own spans, with a start `heartbeat` and a
/// `portfolio_verdict` event per property naming the engine that decided
/// it (`winner`: `bmc`, `pdr` or `none`).
fn check_with_strategy(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    properties: &[SequentialProperty],
    options: &SequentialOptions,
    cancel: Option<&AtomicBool>,
    tracer: &Tracer,
) -> Result<Vec<(BmcResult, Option<Certificate>)>, BmcError> {
    let run_pdr = |property: &SequentialProperty| {
        check_property_pdr(spec, netlist, property, &options.pdr, cancel, tracer)
    };
    Ok(match options.strategy {
        ProofStrategy::KInduction => {
            check_properties(spec, netlist, properties, &options.bmc, cancel, tracer)?
                .into_iter()
                .map(|result| (result, None))
                .collect()
        }
        ProofStrategy::Pdr => properties
            .iter()
            .map(|property| run_pdr(property).map(fold_pdr_result))
            .collect::<Result<_, _>>()?,
        ProofStrategy::Portfolio => {
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
            let bmc = BmcOptions {
                quiet_cycles: 0,
                ..options.bmc
            };
            let mut checked = Vec::with_capacity(properties.len());
            for result in check_properties(spec, netlist, properties, &bmc, cancel, tracer)? {
                let (winner, (result, certificate)) = match result.outcome {
                    BmcOutcome::Unknown { .. }
                        if !cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) =>
                    {
                        let pdr = run_pdr(&result.property)?;
                        if matches!(pdr.outcome, PdrOutcome::Unknown { .. }) {
                            ("none", (result, None))
                        } else {
                            ("pdr", fold_pdr_result(pdr))
                        }
                    }
                    BmcOutcome::Unknown { .. } => ("none", (result, None)),
                    _ => ("bmc", (result, None)),
                };
                if tracer.is_enabled() {
                    let verdict = if result.outcome.is_proved() {
                        "proved"
                    } else if result.outcome.is_falsified() {
                        "falsified"
                    } else {
                        "unknown"
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
                checked.push((result, certificate));
            }
            checked
        }
    })
}

/// Maps a [`PdrResult`] into the report's [`BmcResult`] vocabulary.
///
/// A PDR proof whose certificate fails the independent validation is an
/// engine bug, not a verdict — like a counterexample that fails to replay,
/// it panics rather than being reported as "proved".
fn fold_pdr_result(result: PdrResult) -> (BmcResult, Option<Certificate>) {
    if let Some(check) = &result.validation {
        assert!(
            check.ok(),
            "certificate for {} failed independent validation ({check}):\n{}",
            result.property.name,
            result
                .outcome
                .certificate()
                .map(|c| c.render())
                .unwrap_or_default()
        );
    }
    let stats = BmcStats {
        depth_reached: result.stats.frames,
        solve_calls: result.stats.solve_calls as usize,
        base_clauses: result.stats.clauses,
        induction_clauses: 0,
        conflicts: result.stats.conflicts,
        propagations: result.stats.propagations,
        last_depth_conflicts: 0,
        last_depth_propagations: 0,
    };
    match result.outcome {
        PdrOutcome::Proved {
            certificate,
            fixpoint_frame,
        } => (
            BmcResult {
                property: result.property,
                outcome: BmcOutcome::Proved {
                    induction_depth: fixpoint_frame,
                },
                stats,
            },
            Some(certificate),
        ),
        PdrOutcome::Falsified(cex) => (
            BmcResult {
                property: result.property,
                outcome: BmcOutcome::Falsified(cex),
                stats,
            },
            None,
        ),
        PdrOutcome::Unknown { frames_explored } => (
            BmcResult {
                property: result.property,
                outcome: BmcOutcome::Unknown {
                    depth_checked: frames_explored,
                },
                stats,
            },
            None,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_core::example::ExampleArch;
    use ipcl_synth::{synthesize_interlock, synthesize_interlock_with, SynthesisOptions};

    /// k-induction with depth bound `k`, every other option at its default.
    fn with_depth(k: usize) -> SequentialOptions {
        SequentialOptions {
            bmc: BmcOptions::with_depth(k),
            ..Default::default()
        }
    }

    #[test]
    fn correct_reset_values_pass() {
        let spec = ExampleArch::new().functional_spec();
        let synthesized = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: true,
                ..Default::default()
            },
        );
        let report = check_reset_values(&spec, synthesized.netlist());
        assert_eq!(report.examined, 6);
        assert!(report.ok());
    }

    #[test]
    fn incorrect_reset_values_are_reported() {
        let spec = ExampleArch::new().functional_spec();
        let synthesized = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: false,
                ..Default::default()
            },
        );
        let report = check_reset_values(&spec, synthesized.netlist());
        assert_eq!(report.examined, 6);
        assert_eq!(report.mismatches.len(), 6);
        assert!(report
            .mismatches
            .iter()
            .all(|(_, expected, actual)| *expected && !*actual));
    }

    #[test]
    fn combinational_outputs_are_skipped_by_reset_check() {
        let spec = ExampleArch::new().functional_spec();
        let synthesized = synthesize_interlock(&spec);
        let report = check_reset_values(&spec, synthesized.netlist());
        assert_eq!(report.examined, 0);
        assert!(report.ok());
    }

    #[test]
    fn sequential_check_proves_correct_implementations() {
        let spec = ExampleArch::new().functional_spec();
        // Combinational synthesis: proved at combinational latency.
        let combinational = synthesize_interlock(&spec);
        let report =
            check_netlist_sequential_with(&spec, combinational.netlist(), &with_depth(6)).unwrap();
        assert_eq!(report.latency, Latency::Combinational);
        assert!(report.proved(), "{:?}", report.results);
        assert!(!report.falsified());

        // Registered synthesis with correct reset: proved at the
        // auto-detected registered latency.
        let registered = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: true,
                ..Default::default()
            },
        );
        let report =
            check_netlist_sequential_with(&spec, registered.netlist(), &with_depth(6)).unwrap();
        assert_eq!(report.latency, Latency::Registered);
        assert!(report.proved(), "{:?}", report.results);
    }

    #[test]
    fn sequential_check_falsifies_wrong_reset_with_replayable_trace() {
        let spec = ExampleArch::new().functional_spec();
        let buggy = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: false,
                ..Default::default()
            },
        );
        // Force combinational latency: the wrong-reset stall must answer for
        // the cycle it occurs in.
        let options = SequentialOptions {
            latency: Some(Latency::Combinational),
            ..with_depth(4)
        };
        let report = check_netlist_sequential_with(&spec, buggy.netlist(), &options).unwrap();
        assert!(report.falsified());
        assert!(!report.reset.ok());
        // At least one stage produces the minimal one-cycle trace (stalled
        // out of reset with a quiet environment).
        assert!(report.counterexamples().iter().any(|r| r
            .outcome
            .counterexample()
            .unwrap()
            .length()
            == 1));
    }

    #[test]
    fn pdr_engine_proves_with_certificates() {
        let spec = ExampleArch::new().functional_spec();
        let registered = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: true,
                ..Default::default()
            },
        );
        let report =
            check_netlist_sequential(&spec, registered.netlist(), ProofStrategy::Pdr).unwrap();
        assert_eq!(report.latency, Latency::Registered);
        assert!(report.proved(), "{:?}", report.results);
        // Every proved property carries a certificate (independently
        // validated inside the engine).
        for result in &report.results {
            assert!(
                report.certificates.contains_key(&result.property.name),
                "{} has no certificate",
                result.property.name
            );
        }
    }

    #[test]
    fn portfolio_engine_falsifies_wrong_reset_with_replayable_trace() {
        let spec = ExampleArch::new().functional_spec();
        let buggy = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: false,
                ..Default::default()
            },
        );
        let options = SequentialOptions {
            latency: Some(Latency::Combinational),
            strategy: ProofStrategy::Portfolio,
            ..Default::default()
        };
        let report = check_netlist_sequential_with(&spec, buggy.netlist(), &options).unwrap();
        // Replayability is asserted inside check_netlist_sequential_with for
        // every counterexample, whichever engine produced it.
        assert!(report.falsified());
        assert!(!report.reset.ok());
    }

    #[test]
    fn sequential_check_rejects_netlists_without_moe_outputs() {
        let spec = ExampleArch::new().functional_spec();
        let empty = Netlist::new("empty");
        let err = check_netlist_sequential(&spec, &empty, ProofStrategy::default()).unwrap_err();
        assert!(matches!(err, BmcError::MissingSignals(ref names) if names.len() == 6));
    }
}
