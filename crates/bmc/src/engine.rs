//! The bounded-model-checking and k-induction engine.
//!
//! Following Bryant & German's reduction of processor correctness to
//! propositional SAT, a sequential property over an `ipcl-rtl` netlist is
//! decided by *time-frame unrolling* (see [`crate::encode`]):
//!
//! * **Zero-step proof.** The paper decides each interlock property with
//!   one validity check per stage and direction. On a netlist that check
//!   is the *zero-step query*: can the property instance fail in *any*
//!   state, under any input? It is the k-induction step at k = 0, asked on
//!   an initial-state-free unrolling before any loop-free constraint
//!   exists. UNSAT proves the property for every cycle at once, with no
//!   reset-rooted query at all; a correct interlock is proved this way.
//! * **Falsification (BMC).** Starting from the reset state, frames are
//!   appended one at a time; at each depth the negated property instance of
//!   the newest frame is activated *as a solver assumption* and the
//!   incremental CDCL solver is asked for a model. A model is decoded into a
//!   replayable [`Counterexample`]; because depths are explored in order the
//!   first hit is a minimal-length trace.
//! * **Proof (k-induction).** The free unrolling asserts the property for
//!   `k` consecutive instances, constrains the path to be loop-free
//!   (pairwise-distinct register states) and asks whether instance `k+1`
//!   can still fail. An UNSAT answer, combined with the base cases already
//!   checked, proves the property for **all** cycles — reset correctness
//!   and "no spurious stall reachable from reset" become theorems instead
//!   of sampled claims.
//! * **Stall escape.** Before its first loop-free constraint, the same free
//!   unrolling also answers the stall-escape check with one query (see
//!   [`check_properties`]); only a possible deadlock falls back to
//!   [`check_stall_escape_in`]'s per-stage queries.
//!
//! Both unrollings keep one [`ipcl_sat::Solver`] each across depths, so
//! learned clauses from depth *d* accelerate depth *d+1*; the
//! `incremental: false` option re-encodes the base cases from scratch at
//! every depth and exists to quantify that speedup (see the `bmc` bench and
//! `exp_bmc_depth`). The reset-rooted unrolling is built only once a
//! property is left open by its zero-step query. [`check_properties`] runs
//! both for a whole property list at once: the unrolled transition
//! relation is the same formula for every property, so it is encoded once
//! and each property adds only its instance literals.

use std::collections::BTreeMap;
use std::fmt;

use ipcl_core::FunctionalSpec;
use ipcl_expr::Lit;
use ipcl_rtl::{Netlist, RtlError};
use ipcl_sat::{SatResult, Solver, SolverConfig, SolverStats};
use ipcl_trace::{Heartbeat, Value};

use crate::binding::Binding;
use crate::encode::{FrameEncoder, InitialState};
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
    /// With two or more, a step that passes at depth `d` proves the
    /// property only once the base case has passed depth
    /// `d + quiet_cycles − 1` (see [`check_properties`]), so the base case
    /// may run up to `quiet_cycles − 1` depths past `max_depth`.
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
/// [`ipcl_sat::SolverStats::delta`]s. A property its zero-step query
/// proves asked no base query: its `depth_reached`, `base_clauses` and
/// `last_depth_*` fields are 0.
#[derive(Clone, Copy, Debug, Default)]
pub struct BmcStats {
    /// Deepest base frame encoded (0 when no base query ran).
    pub depth_reached: usize,
    /// SAT queries issued for this property: the zero-step query, the base
    /// queries and the induction steps.
    pub solve_calls: usize,
    /// Clauses in the shared base solver at this property's last base query
    /// (0 when no base query ran).
    pub base_clauses: usize,
    /// Clauses in the shared step solver at this property's last zero-step
    /// or step query.
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
        binding: &'n Binding<'n>,
        initial: InitialState,
        options: &BmcOptions,
    ) -> Result<Self, RtlError> {
        let tracer = binding.tracer();
        let _setup = tracer.span("bmc.setup");
        let mut solver = Solver::with_config(0, options.solver);
        solver.set_tracer(tracer.clone());
        let enc = FrameEncoder::new(binding, initial, options.quiet_cycles, solver)?;
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
    fn emit(&self, label: &str) {
        let tracer = self.enc.binding().tracer();
        if tracer.is_enabled() {
            self.solver().stats().emit(tracer, "sat");
            self.enc.emit(tracer, label);
        }
    }
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
    /// A passed step held for its base case: the induction depth it will
    /// answer, and the last depth the base case must pass first.
    held: Option<(usize, usize)>,
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
/// `binding`'s netlist — free for the zero-step queries and the inductive
/// steps, reset-rooted for the base cases — each with one incremental
/// solver. Results come back in `properties` order; to check one property,
/// pass `std::slice::from_ref(&property)`.
///
/// The run goes in three phases:
///
/// 1. **Zero-step queries.** With [`BmcOptions::induction`] on, the free
///    unrolling first asks every property whether its first instance can
///    fail at all, from any state. UNSAT answers
///    [`BmcOutcome::Proved`] with `induction_depth` 0, and that property
///    asks no base query.
/// 2. **Stall escape.** With `escape_cycles` given, the free unrolling is
///    grown to `escape_cycles + 1` frames (at least 2), its inputs are
///    forced low under one activation literal, and one query asks whether
///    some stage stays stalled throughout the window. UNSAT proves every
///    stage escapable; SAT falls back to [`check_stall_escape_in`] on its
///    own unrolling, so a stuck state is the one that check reports. The
///    reports come back beside the results, one per stage.
/// 3. **Lockstep.** The properties left open walk the depths together. At
///    depth `d` every open property asks exactly the queries it asks
///    alone: the base query ¬ok(d), then (if that is unsatisfiable and
///    induction is on) the step query with `k = d − first instance`, over
///    frames `0..=d` made loop-free depth by depth. At depth 0 the step
///    query is the zero-step query, which is not asked again. The
///    reset-rooted unrolling is built at the first base query.
///
/// A step that is unsatisfiable at depth `d` answers
/// [`BmcOutcome::Proved`] only once the base case has passed depth
/// `d + q − 1`, with `q` = [`BmcOptions::quiet_cycles`]; until then the
/// property asks base queries alone, past `max_depth` if need be. The
/// loop-free step covers a shortest quiet violation at `n ≥ d + q`: its
/// repeated state lies in frames `≥ q`, so cutting the loop keeps the
/// quiet prefix and leaves a shorter quiet violation. Shorter ones are
/// what the held base queries check. With `q ≤ 1` the base case has
/// already passed `d + q − 1`, so nothing is held.
///
/// So each property keeps the verdict, induction depth and minimal trace
/// length it has alone. A counterexample replays deterministically through
/// [`ipcl_rtl::Simulator`] (see [`Counterexample::replay`]). The run polls
/// the binding's cancellation token before the zero-step queries and
/// between depths and, once it is set, returns every open property as
/// [`BmcOutcome::Unknown`]; the stall-escape check is not cancelled.
///
/// Traced into the binding's tracer under one `bmc.check` span: the
/// zero-step queries under `bmc.zero_step`, the stall-escape check under
/// `bmc.stall_escape`, frames under `bmc.encode`, queries under
/// `sat.solve`, with a `bmc_depth` event per base query and each
/// unrolling's `unroll.{base,induction}.*` counters emitted once.
///
/// # Errors
///
/// [`BmcError::MissingSignals`] if a property's stage (or, with
/// `escape_cycles`, any stage) has no `moe` signal in the netlist;
/// [`BmcError::Rtl`] if the netlist does not elaborate.
pub fn check_properties(
    binding: &Binding,
    properties: &[SequentialProperty],
    options: &BmcOptions,
    escape_cycles: Option<usize>,
) -> Result<(Vec<BmcResult>, Option<Vec<StallEscapeReport>>), BmcError> {
    let tracer = binding.tracer();
    let _span = tracer.span("bmc.check");
    binding.require_moe(Some(properties))?;

    let mut tracks: Vec<Track> = properties.iter().map(|_| Track::default()).collect();
    let mut step: Option<Run> = None;
    // A cancelled run asks no query: the token is polled here as before
    // each depth.
    let induction = options.induction && !binding.cancelled();
    if induction && !properties.is_empty() {
        let _zero_step = tracer.span("bmc.zero_step");
        let run = step.insert(Run::new(binding, InitialState::Free, options)?);
        {
            let _encode = tracer.span("bmc.encode");
            let first = properties.iter().map(|p| p.latency.first_instance());
            run.enc.ensure_frames(first.max().unwrap_or(0) + 1);
        }
        for (property, track) in properties.iter().zip(&mut tracks) {
            let ok = {
                let _instance = tracer.span_fast("bmc.instance");
                run.enc
                    .encode_instance(property, property.latency.first_instance())
            };
            let (result, delta) = run.solve(&[ok.negated()]);
            track.record(delta);
            track.stats.induction_clauses = run.solver().num_clauses();
            if result == SatResult::Unsat {
                track.outcome = Some(BmcOutcome::Proved { induction_depth: 0 });
            }
        }
    }

    let stall_escape = match escape_cycles {
        Some(cycles) => {
            let _stall = tracer.span("bmc.stall_escape");
            let run = match step.as_mut() {
                Some(run) => run,
                None => step.insert(Run::new(binding, InitialState::Free, options)?),
            };
            Some(stall_escape_on(binding, run, cycles)?)
        }
        None => None,
    };

    // The depths each open property is checked at.
    let window = |property: &SequentialProperty| {
        let first = property.latency.first_instance();
        first..=options.max_depth.max(first)
    };
    let open = || {
        properties
            .iter()
            .zip(&tracks)
            .filter(|(_, track)| track.outcome.is_none())
            .map(|(property, _)| window(property))
    };
    // With no property open, `start > end`: the lockstep has no depth. A
    // held step moves `end` up to the last base depth it waits for.
    let start = open().map(|depths| *depths.start()).min().unwrap_or(1);
    let mut end = open().map(|depths| *depths.end()).max().unwrap_or(0);
    let mut base: Option<Run> = None;
    // Frames `0..loop_free` of the free unrolling carry their loop-free
    // constraints. The zero-step and stall-escape queries create frames
    // ahead of the lockstep; each gets its constraints only at the depth
    // that reaches it, because a loop-free constraint on a frame beyond
    // `depth` could make a falsifiable step unsatisfiable — a false proof.
    let mut loop_free = 0;
    // Live-progress beats, once per depth at most (rate-limited): a deep
    // unrolling announces how far it has come while still running.
    let mut heartbeat = Heartbeat::every_ms(ipcl_sat::HEARTBEAT_MS);

    let mut depth = start;
    while depth <= end {
        if binding.cancelled() || tracks.iter().all(|track| track.outcome.is_some()) {
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
            if let Some(run) = base.take() {
                run.emit("base");
            }
        }

        for (property, track) in properties.iter().zip(&mut tracks) {
            let checked = track.held.is_some() || window(property).contains(&depth);
            if track.outcome.is_some() || !checked {
                continue;
            }
            track.stats.depth_reached = depth;

            // ---- Base case: a reset-rooted violation at exactly this depth?
            let base = match base.as_mut() {
                Some(run) => run,
                None => base.insert(Run::new(binding, InitialState::Reset, options)?),
            };
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
                    frames: (0..=depth)
                        .map(|f| base.enc.decode_frame(&model, f))
                        .collect(),
                    violation_frame: depth,
                }));
                continue;
            }
            if let Some((induction_depth, until)) = track.held {
                if depth == until {
                    track.outcome = Some(BmcOutcome::Proved { induction_depth });
                }
                continue;
            }
            if !induction {
                continue;
            }

            // ---- Inductive step: k = depth − first instance.
            let run = step.as_mut().expect("the zero-step queries built it");
            // Loop-free path: each state of frames 0..=depth differs from
            // all earlier ones.
            while loop_free <= depth {
                let frame = loop_free;
                {
                    let _encode = tracer.span("bmc.encode");
                    run.enc.ensure_frames(frame + 1);
                }
                let _loop_free = tracer.span("bmc.loop_free");
                for earlier in 0..frame {
                    if let Some(diff) = run.enc.state_difference(earlier, frame) {
                        run.enc.add_clause(&[diff]);
                    }
                }
                loop_free += 1;
            }
            debug_assert_eq!(loop_free, depth + 1);
            let ok = {
                let _instance = tracer.span_fast("bmc.instance");
                run.enc.encode_instance(property, depth)
            };
            let activation = *track.activation.get_or_insert_with(|| run.enc.fresh_lit());
            // At depth 0 no earlier frame exists, so the step query is the
            // zero-step query, which failed.
            if depth > 0 {
                let (result, delta) = run.solve(&[activation, ok.negated()]);
                track.record(delta);
                track.stats.induction_clauses = run.solver().num_clauses();
                if result == SatResult::Unsat {
                    let induction_depth = depth - property.latency.first_instance();
                    let until = depth + options.quiet_cycles.saturating_sub(1);
                    if until == depth {
                        track.outcome = Some(BmcOutcome::Proved { induction_depth });
                    } else {
                        track.held = Some((induction_depth, until));
                        end = end.max(until);
                    }
                    continue;
                }
            }
            // The step failed: assume this instance and deepen.
            run.enc.add_clause(&[activation.negated(), ok]);
        }
        depth += 1;
    }

    if let Some(run) = &base {
        run.emit("base");
    }
    if let Some(run) = &step {
        run.emit("induction");
    }
    let results = properties
        .iter()
        .zip(tracks)
        .map(|(property, track)| BmcResult {
            property: property.clone(),
            outcome: track.outcome.unwrap_or(BmcOutcome::Unknown {
                depth_checked: track.stats.depth_reached,
            }),
            stats: track.stats,
        })
        .collect();
    Ok((results, stall_escape))
}

/// The stall-escape check of [`check_properties`], on its free unrolling
/// `run` before any loop-free constraint: one query whether some stage
/// stays stalled throughout `escape_cycles` quiet cycles. Its quiet
/// environment holds under an activation literal, retired after the
/// query. On SAT, [`check_stall_escape_in`] finds the stuck stages.
fn stall_escape_on(
    binding: &Binding,
    run: &mut Run,
    escape_cycles: usize,
) -> Result<Vec<StallEscapeReport>, BmcError> {
    binding.require_moe(None)?;
    let escape_cycles = escape_cycles.max(1);
    let (netlist, tracer) = (binding.netlist(), binding.tracer());
    let stages = binding.spec().stages();
    let quiet = run.enc.fresh_lit();
    let stuck = {
        let _encode = tracer.span("bmc.encode");
        run.enc.ensure_frames(escape_cycles + 1);
        let inputs = netlist.inputs();
        for frame in 0..=escape_cycles {
            for &input in &inputs {
                let lit = run.enc.lit(frame, input);
                run.enc.add_clause(&[quiet.negated(), lit.negated()]);
            }
        }
        // Some stage is stalled (¬moe) at every frame of the window.
        let stalled: Vec<Lit> = stages
            .iter()
            .map(|stage| {
                let signal = binding
                    .signal(stage.moe)
                    .expect("missing signals checked above");
                let window: Vec<Lit> = (0..=escape_cycles)
                    .map(|frame| run.enc.lit(frame, signal).negated())
                    .collect();
                run.enc.define_and(window)
            })
            .collect();
        run.enc
            .define_and(stalled.iter().map(|lit| lit.negated()))
            .negated()
    };
    let (result, _) = run.solve(&[quiet, stuck]);
    run.enc.add_clause(&[quiet.negated()]);
    if result != SatResult::Unsat {
        return check_stall_escape_in(binding, escape_cycles);
    }
    Ok(stages
        .iter()
        .map(|stage| StallEscapeReport {
            stage: stage.stage.prefix(),
            escapable: true,
            stuck_state: None,
        })
        .collect())
}

/// Report of a per-stage stall-escape (deadlock/livelock) check.
#[derive(Clone, Debug, PartialEq, Eq)]
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
/// The check unrolls `escape_cycles + 1` frames (at least 2) from a
/// **free** initial state, forces all inputs low and asks the solver, stage
/// by stage, for a path on which the stage's `moe` stays low throughout.
/// UNSAT means even the worst adversarial state un-stalls once the
/// environment goes idle — which in particular proves there is *some*
/// environment input escaping every stall state, the paper's no-deadlock
/// obligation. The reports come in stage order.
///
/// A [`check_properties`] run given `escape_cycles` answers the same check
/// with one query on its own free unrolling, and calls this one only when
/// some stage may stay stalled.
///
/// # Errors
///
/// As [`check_properties`].
pub fn check_stall_escape(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    escape_cycles: usize,
) -> Result<Vec<StallEscapeReport>, BmcError> {
    check_stall_escape_in(&Binding::new(spec, netlist), escape_cycles)
}

/// As [`check_stall_escape`], over the check's `binding`, on an unrolling
/// and solver of its own (the checker's path under PDR, and
/// [`check_properties`]' fallback when its one query finds a stage that may
/// stay stalled), traced into the binding's tracer: encoder construction
/// under `bmc.setup`, the frames and quiet-environment constraints under
/// `bmc.encode`, the per-stage queries under the solver's `sat.solve` and
/// stuck-state decoding under `bmc.decode`.
///
/// # Errors
///
/// As [`check_properties`].
pub fn check_stall_escape_in(
    binding: &Binding,
    escape_cycles: usize,
) -> Result<Vec<StallEscapeReport>, BmcError> {
    binding.require_moe(None)?;
    let escape_cycles = escape_cycles.max(1);

    // One shared unrolling and solver for every stage: the circuit and the
    // quiet-environment constraints are identical across stages, so only the
    // per-stage "stalled throughout" literals vary — exactly the use case of
    // solving under assumptions (learned clauses carry over between stages).
    let (netlist, tracer) = (binding.netlist(), binding.tracer());
    let mut run = Run::new(binding, InitialState::Free, &BmcOptions::default())?;
    {
        let _encode = tracer.span("bmc.encode");
        run.enc.ensure_frames(escape_cycles + 1);
        let inputs = netlist.inputs();
        for frame in 0..=escape_cycles {
            for &input in &inputs {
                let lit = run.enc.lit(frame, input);
                run.enc.add_clause(&[lit.negated()]);
            }
        }
    }

    let mut reports = Vec::new();
    for stage in binding.spec().stages() {
        let signal = binding
            .signal(stage.moe)
            .expect("missing signals checked above");
        // Stalled (¬moe) at every frame of the window.
        let stalled: Vec<Lit> = (0..=escape_cycles)
            .map(|frame| run.enc.lit(frame, signal).negated())
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
                let stuck = netlist
                    .registers()
                    .into_iter()
                    .map(|r| (netlist.signal(r).name.clone(), lit_value(run.enc.lit(0, r))))
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
