//! The bounded-model-checking and k-induction engine.
//!
//! Following Bryant & German's reduction of processor correctness to
//! propositional SAT, a sequential property over an `ipcl-rtl` netlist is
//! decided by *time-frame unrolling* (see [`ipcl_rtl::unroll`]):
//!
//! * **Falsification (BMC).** Starting from the reset state, frames are
//!   appended one at a time; at each depth the negated property instance of
//!   the newest frame is activated *as a solver assumption* and the
//!   incremental CDCL solver is asked for a model. A model is decoded into a
//!   replayable [`Counterexample`]; because depths are explored in order the
//!   first hit is a minimal-length trace.
//! * **Proof (k-induction).** A second, initial-state-free unrolling asserts
//!   the property for `k` consecutive instances, constrains the path to be
//!   loop-free (pairwise-distinct register states) and asks whether instance
//!   `k+1` can still fail. An UNSAT answer, combined with the base cases
//!   already checked, proves the property for **all** cycles — reset
//!   correctness and "no spurious stall reachable from reset" become
//!   theorems instead of sampled claims.
//!
//! Both unrollings keep one [`ipcl_sat::Solver`] each across depths, so
//! learned clauses from depth *d* accelerate depth *d+1*; the
//! `incremental: false` option re-encodes the base cases from scratch at
//! every depth and exists to quantify that speedup (see the `bmc` bench and
//! `exp_bmc_depth`). [`check_properties`] runs both for a whole property
//! list at once: the unrolled transition relation is the same formula for
//! every property, so it is encoded once and each property adds only its
//! instance literals.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use ipcl_core::FunctionalSpec;
use ipcl_expr::Lit;
use ipcl_rtl::{InitialState, Netlist, RtlError};
use ipcl_sat::{SatResult, Solver, SolverConfig, SolverStats};
use ipcl_trace::{Heartbeat, MetricSink, Tracer, Value};

use crate::binding::Binding;
use crate::encode::FrameEncoder;
use crate::property::SequentialProperty;
use crate::trace::Counterexample;

/// Errors reported by the BMC engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BmcError {
    /// The netlist failed to elaborate.
    Rtl(RtlError),
    /// The netlist does not implement these specification `moe` signals.
    MissingSignals(Vec<String>),
}

impl fmt::Display for BmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BmcError::Rtl(e) => write!(f, "netlist error: {e}"),
            BmcError::MissingSignals(names) => {
                write!(f, "netlist misses moe signals: {}", names.join(", "))
            }
        }
    }
}

impl std::error::Error for BmcError {}

impl From<RtlError> for BmcError {
    fn from(e: RtlError) -> Self {
        BmcError::Rtl(e)
    }
}

/// Knobs of one BMC / k-induction run.
#[derive(Clone, Copy, Debug)]
pub struct BmcOptions {
    /// Maximum unroll depth (frames − 1): the `k` of k-induction.
    /// [`BmcOptions::with_depth`] sets it.
    pub max_depth: usize,
    /// Number of leading frames whose inputs are forced to zero. The
    /// post-reset environment of an interlocked pipeline is quiet (the
    /// pipeline is empty, nothing requests), so constraining the first
    /// frame(s) rules out counterfeit "hazard at reset" traces while still
    /// letting bugs that need an event-then-wait pattern surface later.
    pub quiet_cycles: usize,
    /// Reuse one incremental solver across depths (the default). `false`
    /// re-encodes and re-solves the base cases from scratch at every depth
    /// — kept for the ablation benchmark.
    pub incremental: bool,
    /// Attempt a k-induction proof after each passed base depth.
    pub induction: bool,
    /// Heuristic configuration of the CDCL solvers: phase saving, the
    /// learned-clause reduction base and the Luby restart unit (see
    /// [`ipcl_sat::SolverConfig`]). The E10 phase-saving ablation sets it.
    pub solver: SolverConfig,
}

impl Default for BmcOptions {
    fn default() -> Self {
        BmcOptions {
            max_depth: 10,
            quiet_cycles: 1,
            incremental: true,
            induction: true,
            solver: SolverConfig::default(),
        }
    }
}

impl BmcOptions {
    /// Options with an explicit depth bound.
    pub fn with_depth(max_depth: usize) -> Self {
        BmcOptions {
            max_depth,
            ..Default::default()
        }
    }
}

/// Statistics of one property's own queries. The solvers of a
/// [`check_properties`] run are shared, so the counts sum per-query
/// [`ipcl_sat::SolverStats::delta`]s.
#[derive(Clone, Copy, Debug, Default)]
pub struct BmcStats {
    /// Deepest base frame encoded.
    pub depth_reached: usize,
    /// SAT queries issued for this property (base + induction).
    pub solve_calls: usize,
    /// Clauses in the shared base solver at this property's last base query.
    pub base_clauses: usize,
    /// Clauses in the shared step solver at this property's last step query.
    pub induction_clauses: usize,
    /// Conflicts of this property's queries, across both solvers.
    pub conflicts: u64,
    /// Non-binary propagations of this property's queries, both solvers.
    pub propagations: u64,
    /// Conflicts of the **deepest base-case solve alone** (a
    /// [`ipcl_sat::SolverStats::delta`] over the incremental stream, not
    /// the cumulative count).
    pub last_depth_conflicts: u64,
    /// Propagations of the deepest base-case solve alone.
    pub last_depth_propagations: u64,
}

/// The verdict of one property run.
#[derive(Clone, Debug)]
pub enum BmcOutcome {
    /// The property fails; the trace is minimal-length and replayable.
    Falsified(Counterexample),
    /// The property holds on **all** cycles, proved by k-induction at the
    /// given depth.
    Proved {
        /// The `k` at which the inductive step became unsatisfiable.
        induction_depth: usize,
    },
    /// No violation up to `depth_checked`, but no inductive proof either.
    Unknown {
        /// Deepest base case that passed.
        depth_checked: usize,
    },
}

impl BmcOutcome {
    /// Whether the outcome is a proof.
    pub fn is_proved(&self) -> bool {
        matches!(self, BmcOutcome::Proved { .. })
    }

    /// Whether the outcome is a falsification.
    pub fn is_falsified(&self) -> bool {
        matches!(self, BmcOutcome::Falsified(_))
    }

    /// The counterexample, if falsified.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            BmcOutcome::Falsified(cex) => Some(cex),
            _ => None,
        }
    }
}

/// Result of checking one property.
#[derive(Clone, Debug)]
pub struct BmcResult {
    /// The property that was checked.
    pub property: SequentialProperty,
    /// The verdict.
    pub outcome: BmcOutcome,
    /// Search statistics.
    pub stats: BmcStats,
}

/// One unrolling (reset-rooted or free) encoded straight into its
/// incremental solver. The property/trace plumbing lives in the shared
/// [`FrameEncoder`] (also used by `ipcl-pdr`).
struct Run<'n> {
    enc: FrameEncoder<'n, Solver>,
}

impl<'n> Run<'n> {
    fn new(
        netlist: &'n Netlist,
        binding: &'n Binding,
        initial: InitialState,
        options: &BmcOptions,
        tracer: &Tracer,
    ) -> Result<Self, RtlError> {
        let _setup = tracer.span("bmc.setup");
        let mut solver = Solver::with_config(0, options.solver);
        solver.set_tracer(tracer.clone());
        let enc = FrameEncoder::new(netlist, binding, initial, options.quiet_cycles, solver)?;
        Ok(Run { enc })
    }

    fn solver(&self) -> &Solver {
        self.enc.sink()
    }

    /// Solves under `assumptions` (the solver takes in the clauses encoded
    /// since the last query first). Returns the answer with the
    /// solver-stat delta of this query alone.
    fn solve(&mut self, assumptions: &[Lit]) -> (SatResult, SolverStats) {
        let solver = self.enc.sink_mut();
        let before = solver.stats();
        let result = solver.solve_under_assumptions(assumptions);
        (result, solver.stats().delta(&before))
    }

    /// Folds the solver totals and the unrolling's structural-hashing
    /// counters (`unroll.<label>.*`) into the metrics.
    fn emit(&self, tracer: &Tracer, label: &str) {
        if tracer.is_enabled() {
            self.solver().stats().emit(tracer, "sat");
            let u = self.enc.unroller().stats();
            tracer.counter(&format!("unroll.{label}.frames"), u.frames);
            tracer.counter(&format!("unroll.{label}.gates"), u.gates);
            tracer.counter(&format!("unroll.{label}.cache_hits"), u.cache_hits);
        }
    }
}

/// Validates that every `moe` signal the property portfolio mentions exists
/// in the netlist.
pub fn missing_moe_signals(spec: &FunctionalSpec, netlist: &Netlist) -> Vec<String> {
    Binding::new(spec, netlist).missing_moe(spec, None)
}

/// As [`missing_moe_signals`], restricted to the stage one `property` talks
/// about — the prologue check shared by the BMC and PDR engines, over the
/// run's [`Binding`].
pub fn missing_property_signals(
    spec: &FunctionalSpec,
    binding: &Binding,
    property: &SequentialProperty,
) -> Vec<String> {
    binding.missing_moe(spec, Some(&property.stage))
}

/// One property's progress through a [`check_properties`] run.
#[derive(Default)]
struct Track {
    stats: BmcStats,
    outcome: Option<BmcOutcome>,
    /// Switches on the property's assumed `ok` instances (clauses
    /// `¬act ∨ ok`) in the shared step solver: they hold for this property
    /// only, so they can never be unit clauses there.
    activation: Option<Lit>,
}

impl Track {
    /// Folds one query's solver-stat delta into the property's stats.
    fn record(&mut self, delta: SolverStats) {
        self.stats.solve_calls += 1;
        self.stats.conflicts += delta.conflicts;
        self.stats.propagations += delta.propagations;
    }
}

/// Decides every property of `properties` over one pair of unrollings of
/// `netlist` — reset-rooted for the base cases, free for the inductive
/// steps — each with one incremental solver, walked depth by depth in
/// lockstep. At depth `d` every open property asks exactly the queries it
/// asks alone: the base query ¬ok(d), then (if that is unsatisfiable and
/// [`BmcOptions::induction`] is on) the step query with `k = d − first
/// instance`. So each property keeps its verdict, induction depth and
/// minimal trace length. Results come back in `properties` order; to
/// check one property, pass `std::slice::from_ref(&property)`.
///
/// A counterexample is of minimal length and replays deterministically
/// through [`ipcl_rtl::Simulator`] (see [`Counterexample::replay`]). The
/// run polls `cancel` between depths and, once it is set, returns every
/// open property as [`BmcOutcome::Unknown`].
///
/// Traced under one `bmc.check` span (frames under `bmc.encode`, queries
/// under `sat.solve`), with a `bmc_depth` event per base query and each
/// unrolling's `unroll.{base,induction}.*` counters emitted once.
///
/// # Errors
///
/// [`BmcError::MissingSignals`] if a property's stage has no `moe` signal
/// in the netlist; [`BmcError::Rtl`] if the netlist does not elaborate.
pub fn check_properties(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    properties: &[SequentialProperty],
    options: &BmcOptions,
    cancel: Option<&AtomicBool>,
    tracer: &Tracer,
) -> Result<Vec<BmcResult>, BmcError> {
    let _span = tracer.span("bmc.check");
    let binding = Binding::new(spec, netlist);
    let mut missing: Vec<String> = properties
        .iter()
        .flat_map(|property| missing_property_signals(spec, &binding, property))
        .collect();
    missing.sort();
    missing.dedup();
    if !missing.is_empty() {
        return Err(BmcError::MissingSignals(missing));
    }

    // The depths each property is checked at.
    let window = |property: &SequentialProperty| {
        let first = property.latency.first_instance();
        first..=options.max_depth.max(first)
    };
    let (Some(start), Some(end)) = (
        properties.iter().map(|p| *window(p).start()).min(),
        properties.iter().map(|p| *window(p).end()).max(),
    ) else {
        return Ok(Vec::new());
    };

    let mut tracks: Vec<Track> = properties.iter().map(|_| Track::default()).collect();
    let mut base = Run::new(netlist, &binding, InitialState::Reset, options, tracer)?;
    let mut step: Option<Run> = None;
    // Live-progress beats, once per depth at most (rate-limited): a deep
    // unrolling announces how far it has come while still running.
    let mut heartbeat = Heartbeat::every_ms(ipcl_sat::HEARTBEAT_MS);

    for depth in start..=end {
        if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed))
            || tracks.iter().all(|track| track.outcome.is_some())
        {
            break;
        }
        if heartbeat.due(tracer) {
            let solve_calls: usize = tracks.iter().map(|t| t.stats.solve_calls).sum();
            tracer.event(
                "heartbeat",
                &[
                    ("engine", Value::from("bmc")),
                    ("depth", Value::U64(depth as u64)),
                    ("max_depth", Value::U64(options.max_depth as u64)),
                    ("solve_calls", Value::U64(solve_calls as u64)),
                ],
            );
        }
        if !options.incremental && depth > start {
            // The scratch ablation: a fresh reset-rooted unrolling per depth.
            base.emit(tracer, "base");
            base = Run::new(netlist, &binding, InitialState::Reset, options, tracer)?;
        }

        for (property, track) in properties.iter().zip(&mut tracks) {
            if track.outcome.is_some() || !window(property).contains(&depth) {
                continue;
            }
            track.stats.depth_reached = depth;

            // ---- Base case: a reset-rooted violation at exactly this depth?
            {
                let _encode = tracer.span("bmc.encode");
                base.enc.ensure_frames(depth + 1);
            }
            let ok = {
                let _instance = tracer.span_fast("bmc.instance");
                base.enc.encode_instance(property, depth)
            };
            let (result, delta) = base.solve(&[ok.negated()]);
            track.record(delta);
            track.stats.base_clauses = base.solver().num_clauses();
            track.stats.last_depth_conflicts = delta.conflicts;
            track.stats.last_depth_propagations = delta.propagations + delta.binary_propagations;
            if tracer.is_enabled() {
                tracer.event(
                    "bmc_depth",
                    &[
                        ("property", Value::from(property.name.clone())),
                        ("depth", Value::U64(depth as u64)),
                        ("sat", Value::Bool(result.is_sat())),
                        ("conflicts", Value::U64(delta.conflicts)),
                        (
                            "propagations",
                            Value::U64(track.stats.last_depth_propagations),
                        ),
                    ],
                );
            }
            if let SatResult::Sat(model) = result {
                let _decode = tracer.span("bmc.decode");
                track.outcome = Some(BmcOutcome::Falsified(Counterexample {
                    property: property.name.clone(),
                    frames: base.enc.decode_trace(spec, &model, depth + 1),
                    violation_frame: depth,
                }));
                continue;
            }
            if !options.induction {
                continue;
            }

            // ---- Inductive step: k = depth − first instance.
            let run = match step.as_mut() {
                Some(run) => run,
                None => step.insert(Run::new(
                    netlist,
                    &binding,
                    InitialState::Free,
                    options,
                    tracer,
                )?),
            };
            // Loop-free path: each new state differs from all earlier ones.
            for frame in run.enc.unroller().num_frames()..=depth {
                {
                    let _encode = tracer.span("bmc.encode");
                    run.enc.ensure_frames(frame + 1);
                }
                let _loop_free = tracer.span("bmc.loop_free");
                for earlier in 0..frame {
                    if let Some(diff) = run.enc.unroller_mut().state_difference(earlier, frame) {
                        run.enc.unroller_mut().add_clause(&[diff]);
                    }
                }
            }
            // Soundness: a loop-free constraint on a frame beyond `depth`
            // could make a falsifiable step unsatisfiable — a false proof.
            // Lockstep grows the free unrolling only after every step query
            // of the previous depth.
            debug_assert_eq!(run.enc.unroller().num_frames(), depth + 1);
            let ok = {
                let _instance = tracer.span_fast("bmc.instance");
                run.enc.encode_instance(property, depth)
            };
            let activation = *track
                .activation
                .get_or_insert_with(|| run.enc.unroller_mut().fresh_lit());
            let (result, delta) = run.solve(&[activation, ok.negated()]);
            track.record(delta);
            track.stats.induction_clauses = run.solver().num_clauses();
            if result == SatResult::Unsat {
                track.outcome = Some(BmcOutcome::Proved {
                    induction_depth: depth - property.latency.first_instance(),
                });
            } else {
                // The step failed: assume this instance and deepen.
                run.enc
                    .unroller_mut()
                    .add_clause(&[activation.negated(), ok]);
            }
        }
    }

    base.emit(tracer, "base");
    if let Some(run) = &step {
        run.emit(tracer, "induction");
    }
    Ok(properties
        .iter()
        .zip(tracks)
        .map(|(property, track)| BmcResult {
            property: property.clone(),
            outcome: track.outcome.unwrap_or(BmcOutcome::Unknown {
                depth_checked: track.stats.depth_reached,
            }),
            stats: track.stats,
        })
        .collect())
}

/// Report of a per-stage stall-escape (deadlock/livelock) check.
#[derive(Clone, Debug)]
pub struct StallEscapeReport {
    /// The stage prefix.
    pub stage: String,
    /// `true` when **every** state (reachable or not) in which the stage is
    /// stalled reaches a non-stalled state within `escape_cycles` quiet
    /// cycles — i.e. a stall can always be released by the environment going
    /// idle, so no deadlock or livelock is possible.
    pub escapable: bool,
    /// When not escapable: a register-state valuation from which the stage
    /// stays stalled throughout the window (a *potential* deadlock — it may
    /// or may not be reachable from reset).
    pub stuck_state: Option<BTreeMap<String, bool>>,
}

/// Proves (or refutes) that every stall of every stage is escapable under a
/// quiet environment.
///
/// The check unrolls `escape_cycles + 1` frames from a **free** initial
/// state, forces all inputs low and asks the solver for a path on which the
/// stage's `moe` stays low throughout. UNSAT means even the worst
/// adversarial state un-stalls once the environment goes idle — which in
/// particular proves there is *some* environment input escaping every stall
/// state, the paper's no-deadlock obligation.
///
/// # Errors
///
/// As [`check_properties`].
pub fn check_stall_escape(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    escape_cycles: usize,
) -> Result<Vec<StallEscapeReport>, BmcError> {
    check_stall_escape_traced(spec, netlist, escape_cycles, &Tracer::disabled())
}

/// As [`check_stall_escape`], with an observability handle: unroller
/// construction under `bmc.setup`, the frames and quiet-environment
/// constraints under `bmc.encode`, the per-stage queries under the
/// solver's `sat.solve` and stuck-state decoding under `bmc.decode`.
///
/// # Errors
///
/// As [`check_properties`].
pub fn check_stall_escape_traced(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    escape_cycles: usize,
    tracer: &Tracer,
) -> Result<Vec<StallEscapeReport>, BmcError> {
    let binding = Binding::new(spec, netlist);
    let missing = binding.missing_moe(spec, None);
    if !missing.is_empty() {
        return Err(BmcError::MissingSignals(missing));
    }
    let escape_cycles = escape_cycles.max(1);

    // One shared unrolling and solver for every stage: the circuit and the
    // quiet-environment constraints are identical across stages, so only the
    // per-stage "stalled throughout" literals vary — exactly the use case of
    // solving under assumptions (learned clauses carry over between stages).
    let mut run = Run::new(
        netlist,
        &binding,
        InitialState::Free,
        &BmcOptions::default(),
        tracer,
    )?;
    {
        let _encode = tracer.span("bmc.encode");
        run.enc.ensure_frames(escape_cycles + 1);
        let inputs = netlist.inputs();
        for frame in 0..=escape_cycles {
            for &input in &inputs {
                let lit = run.enc.unroller().lit(frame, input);
                run.enc.unroller_mut().add_clause(&[lit.negated()]);
            }
        }
    }

    let mut reports = Vec::new();
    for stage in spec.stages() {
        let signal = binding
            .signal(stage.moe)
            .expect("missing signals checked above");
        // Stalled (¬moe) at every frame of the window.
        let stalled: Vec<Lit> = (0..=escape_cycles)
            .map(|frame| run.enc.unroller().lit(frame, signal).negated())
            .collect();
        let report = match run.solve(&stalled).0 {
            SatResult::Unsat => StallEscapeReport {
                stage: stage.stage.prefix(),
                escapable: true,
                stuck_state: None,
            },
            SatResult::Sat(model) => {
                let _decode = tracer.span("bmc.decode");
                let lit_value = |lit: Lit| model[lit.var() as usize] == lit.is_positive();
                let unroller = run.enc.unroller();
                let stuck = netlist
                    .registers()
                    .into_iter()
                    .map(|r| {
                        (
                            netlist.signal(r).name.clone(),
                            lit_value(unroller.lit(0, r)),
                        )
                    })
                    .collect();
                StallEscapeReport {
                    stage: stage.stage.prefix(),
                    escapable: false,
                    stuck_state: Some(stuck),
                }
            }
        };
        reports.push(report);
    }
    Ok(reports)
}
