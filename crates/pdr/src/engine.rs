//! The IC3 / property-directed reachability engine.
//!
//! Where k-induction strengthens a property by brute unrolling depth, PDR
//! strengthens it clause by clause (Bradley's IC3, in the incremental-SAT
//! formulation of Eén/Mishchenko/Brayton): a *trailing sequence* of frames
//! `F_1 ⊇ F_2 ⊇ … ⊇ F_K` over-approximates the states reachable in at most
//! 1, 2, …, K steps. Whenever a state in `F_K` can violate the property, it
//! becomes a *proof obligation*: either an initial state can reach it — a
//! concrete counterexample trace — or a *relative induction* query blocks a
//! generalisation of it, adding one clause to a frame. Generalisation
//! reads the query's UNSAT core ([`ipcl_sat::Solver::failed_assumptions`]):
//! cube literals whose primed copy the refutation did not use are cut
//! before any literal-dropping query runs. When a propagation
//! pass makes two adjacent frames equal, that frame is an inductive
//! invariant: the property is proved **for every cycle, with no unrolling
//! bound**, and the invariant is returned as an explicit
//! [`Certificate`] that [`Certificate::validate`] re-checks independently.
//!
//! ## Encoding
//!
//! One two-frame [`FrameEncoder`] unrolling (free initial state) provides
//! the transition relation: frame-0 registers are the pre-state `s`,
//! frame-1 registers its successor `s'`. All PDR-specific constraints are
//! added under *activation literals* so a single incremental
//! [`ipcl_sat::Solver`] answers every query by assumptions:
//!
//! * the reset state, under `act_init` (assumed when the left-hand side of
//!   a query is `F_0 = Init`);
//! * each frame clause under its frame's `act[k]` — frames are
//!   delta-encoded (a clause is stored at the highest frame it holds at),
//!   so the query "under `F_k`" assumes `act[k..=K]`;
//! * the negated property under the assumption `¬ok`, sampled over the
//!   window `[0, latency.offset()]` (so a registered-latency "bad state"
//!   is a state from which the next `moe` sample answers wrongly for the
//!   current environment).
//!
//! Unlike the BMC base case, PDR has no quiet-cycle discipline: it decides
//! the property *unconditionally* — over every input sequence from reset —
//! which is also what the k-induction step case assumes; the checker's
//! portfolio strategy runs k-induction with `quiet_cycles = 0`, so both
//! engines decide the same property there.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicBool, Ordering};

use ipcl_bmc::{Binding, BmcError, Counterexample, FrameEncoder, SequentialProperty};
use ipcl_core::FunctionalSpec;
use ipcl_expr::Lit;
use ipcl_rtl::{InitialState, Netlist, SignalId, SignalKind};
use ipcl_sat::{SatResult, Solver, SolverConfig};
use ipcl_trace::{Heartbeat, MetricSink, Tracer, Value};

use crate::certificate::{Certificate, CertificateCheck, StateLiteral};

/// Knobs of one PDR run.
#[derive(Clone, Copy, Debug)]
pub struct PdrOptions {
    /// Maximum number of frames before giving up with
    /// [`PdrOutcome::Unknown`]. The state spaces of interlock controllers
    /// are small, so running out of frames indicates a diverging
    /// abstraction rather than a hard problem.
    pub max_frames: usize,
    /// Heuristic configuration of the CDCL solver: phase saving, the
    /// learned-clause reduction base and the Luby restart unit (see
    /// [`ipcl_sat::SolverConfig`]). PDR leans hardest on the incremental
    /// hot paths: every consecution/generalisation query is one
    /// `solve_under_assumptions` call against the same solver.
    pub solver: SolverConfig,
}

impl Default for PdrOptions {
    fn default() -> Self {
        PdrOptions {
            max_frames: 64,
            solver: SolverConfig::default(),
        }
    }
}

/// Search statistics of one PDR run.
#[derive(Clone, Debug, Default)]
pub struct PdrStats {
    /// Frames opened (the final `K`).
    pub frames: usize,
    /// Frame clauses learned (before propagation dedup).
    pub clauses: usize,
    /// Proof obligations processed.
    pub obligations: u64,
    /// SAT queries issued.
    pub solve_calls: u64,
    /// Literals removed from blocked cubes, by the UNSAT core or by
    /// generalisation's drop queries.
    pub generalization_drops: u64,
    /// Conflicts in the underlying CDCL solver.
    pub conflicts: u64,
    /// Propagations in the underlying CDCL solver.
    pub propagations: u64,
    /// Maximum length the proof-obligation queue ever reached.
    pub max_queue_depth: usize,
    /// Obligations processed per frame: `obligations_per_frame[k]` counts
    /// pops whose consecution query ran against `F_{k-1}`. Skewed
    /// distributions indicate one frame dominating the search.
    pub obligations_per_frame: Vec<u64>,
}

impl PdrStats {
    /// Emits the run's counters as `<prefix>.*` and the queue shape as
    /// gauges into `sink` (the [`MetricSink`] unification shared with
    /// `SolverStats` and `BmcStats`).
    pub fn emit(&self, sink: &dyn MetricSink, prefix: &str) {
        sink.counter(&format!("{prefix}.clauses"), self.clauses as u64);
        sink.counter(&format!("{prefix}.obligations"), self.obligations);
        sink.counter(&format!("{prefix}.solve_calls"), self.solve_calls);
        sink.counter(
            &format!("{prefix}.generalization_drops"),
            self.generalization_drops,
        );
        sink.gauge(&format!("{prefix}.frames"), self.frames as f64);
        sink.gauge(
            &format!("{prefix}.max_queue_depth"),
            self.max_queue_depth as f64,
        );
    }
}

/// The verdict of one PDR run.
#[derive(Clone, Debug)]
pub enum PdrOutcome {
    /// The property holds on every cycle; the certificate is the inductive
    /// invariant that proves it.
    Proved {
        /// The invariant (see [`PdrResult::validation`]).
        certificate: Certificate,
        /// The frame at which the trailing sequence closed.
        fixpoint_frame: usize,
    },
    /// The property fails; the trace is simulator-replayable (but, unlike
    /// BMC's, not necessarily of minimal length).
    Falsified(Counterexample),
    /// Frame budget exhausted or run cancelled.
    Unknown {
        /// Frames explored before giving up.
        frames_explored: usize,
    },
}

impl PdrOutcome {
    /// Whether the outcome is a proof.
    pub fn is_proved(&self) -> bool {
        matches!(self, PdrOutcome::Proved { .. })
    }

    /// Whether the outcome is a falsification.
    pub fn is_falsified(&self) -> bool {
        matches!(self, PdrOutcome::Falsified(_))
    }

    /// The counterexample, if falsified.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            PdrOutcome::Falsified(cex) => Some(cex),
            _ => None,
        }
    }

    /// The certificate, if proved.
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            PdrOutcome::Proved { certificate, .. } => Some(certificate),
            _ => None,
        }
    }
}

/// Result of checking one property with PDR.
#[derive(Clone, Debug)]
pub struct PdrResult {
    /// The property that was checked.
    pub property: SequentialProperty,
    /// The verdict.
    pub outcome: PdrOutcome,
    /// The independent certificate validation (`Some` exactly when the
    /// outcome is a proof).
    pub validation: Option<CertificateCheck>,
    /// Search statistics.
    pub stats: PdrStats,
}

/// A cube over the register state: `(register index, value)` pairs sorted
/// by index. Trace cubes are total (one entry per register); blocked cubes
/// shrink under generalisation.
type Cube = Vec<(usize, bool)>;

/// One entry of the proof-obligation arena. The parent chain reconstructs
/// counterexample traces: `step_inputs` is the input valuation driving this
/// obligation's state into its parent's state in one cycle.
struct Obligation {
    cube: Cube,
    parent: Option<usize>,
    step_inputs: BTreeMap<String, bool>,
}

enum BlockOutcome {
    Blocked,
    Counterexample(Counterexample),
    Cancelled,
}

/// One PDR search: the encoder, writing into its incremental solver, and
/// the trailing frame sequence over it.
struct Pdr<'a> {
    spec: &'a FunctionalSpec,
    property: &'a SequentialProperty,
    max_frames: usize,
    enc: FrameEncoder<'a, Solver>,
    /// The registers (state variables), in [`Netlist::registers`] order.
    regs: Vec<SignalId>,
    /// Reset value per register.
    reg_init: Vec<bool>,
    /// Frame-0 literal per register (the pre-state `s`).
    reg0: Vec<Lit>,
    /// Frame-1 literal per register (the post-state `s'`).
    reg1: Vec<Lit>,
    /// Assumption literal of the negated property window.
    bad: Lit,
    /// Activation literal of the reset-state constraints (`F_0`).
    act_init: Lit,
    /// `act[k]` activates the clauses stored at frame `k` (`act[0]` is a
    /// placeholder; `F_0` is `act_init`).
    act: Vec<Lit>,
    /// Delta-encoded frame clauses: `frame_cubes[k]` holds the cubes whose
    /// negations are stored at frame `k`.
    frame_cubes: Vec<Vec<Cube>>,
    stats: PdrStats,
    tracer: Tracer,
    /// Live-progress beats (rate-limited), checked per obligation pop and
    /// per frame open — a deep proof reports its frontier while running.
    heartbeat: Heartbeat,
}

impl<'a> Pdr<'a> {
    fn new(
        spec: &'a FunctionalSpec,
        netlist: &'a Netlist,
        binding: &'a Binding,
        property: &'a SequentialProperty,
        options: &PdrOptions,
        tracer: &Tracer,
    ) -> Result<Self, BmcError> {
        let _encode = tracer.span("pdr.encode");
        let mut solver = Solver::with_config(0, options.solver);
        solver.set_tracer(tracer.clone());
        let mut enc = FrameEncoder::new(netlist, binding, InitialState::Free, 0, solver)?;
        // Two frames: the transition `s → s'` and (for registered latency)
        // the property window.
        enc.ensure_frames(2);
        let offset = property.latency.offset();
        let bad = enc.encode_instance(property, offset).negated();

        let regs = netlist.registers();
        let reg_init: Vec<bool> = regs
            .iter()
            .map(|&r| match netlist.signal(r).kind {
                SignalKind::Register { init, .. } => init,
                _ => unreachable!("registers() yields registers"),
            })
            .collect();
        let reg0: Vec<Lit> = regs.iter().map(|&r| enc.unroller().lit(0, r)).collect();
        let reg1: Vec<Lit> = regs.iter().map(|&r| enc.unroller().lit(1, r)).collect();

        // F_0 = Init: each register at its reset value, under `act_init`.
        let act_init = enc.unroller_mut().fresh_lit();
        for (index, &lit) in reg0.iter().enumerate() {
            let lit = if reg_init[index] { lit } else { lit.negated() };
            enc.unroller_mut().add_clause(&[act_init.negated(), lit]);
        }

        let placeholder = act_init; // never assumed via `act[0]`
        Ok(Pdr {
            spec,
            property,
            max_frames: options.max_frames,
            enc,
            regs,
            reg_init,
            reg0,
            reg1,
            bad,
            act_init,
            act: vec![placeholder],
            frame_cubes: vec![Vec::new()],
            stats: PdrStats::default(),
            tracer: tracer.clone(),
            heartbeat: Heartbeat::every_ms(ipcl_sat::HEARTBEAT_MS),
        })
    }

    /// Number of the top frame.
    fn top(&self) -> usize {
        self.act.len() - 1
    }

    /// Opens frame `K+1` (initially unconstrained).
    fn push_frame(&mut self) {
        let act = self.enc.unroller_mut().fresh_lit();
        self.act.push(act);
        self.frame_cubes.push(Vec::new());
    }

    /// The solver the encoding goes into.
    fn solver(&self) -> &Solver {
        self.enc.sink()
    }

    fn solve(&mut self, assumptions: &[Lit]) -> SatResult {
        self.stats.solve_calls += 1;
        self.enc.sink_mut().solve_under_assumptions(assumptions)
    }

    /// Assumptions activating the clauses of `F_k`.
    fn frame_assumptions(&self, k: usize) -> Vec<Lit> {
        if k == 0 {
            vec![self.act_init]
        } else {
            self.act[k..].to_vec()
        }
    }

    /// The literal of `cube[i]` at frame 0 (`prime = false`) or 1.
    fn cube_lit(&self, entry: (usize, bool), prime: bool) -> Lit {
        let (index, value) = entry;
        let lit = if prime {
            self.reg1[index]
        } else {
            self.reg0[index]
        };
        if value {
            lit
        } else {
            lit.negated()
        }
    }

    /// The total register cube of a model's frame 0.
    fn state_cube(&self, model: &[bool]) -> Cube {
        self.reg0
            .iter()
            .enumerate()
            .map(|(index, lit)| (index, model[lit.var() as usize] == lit.is_positive()))
            .collect()
    }

    /// Whether the cube contains the reset state.
    fn intersects_init(&self, cube: &Cube) -> bool {
        meets_init(cube, &self.reg_init)
    }

    /// Stores the clause `¬cube` at frame `k` and encodes it under `act[k]`.
    fn add_frame_clause(&mut self, cube: Cube, k: usize) {
        debug_assert!(
            !self.intersects_init(&cube),
            "frame lemma ¬{cube:?} must exclude the reset state"
        );
        let mut clause = vec![self.act[k].negated()];
        clause.extend(
            cube.iter()
                .map(|&entry| self.cube_lit(entry, false).negated()),
        );
        self.enc.unroller_mut().add_clause(&clause);
        self.frame_cubes[k].push(cube);
        self.stats.clauses += 1;
    }

    /// The relative-induction query `F_{k-1} ∧ ¬cube ∧ T ∧ cube'`.
    ///
    /// UNSAT means no `F_{k-1}`-state outside the cube reaches the cube in
    /// one step — together with initiation, the cube is unreachable within
    /// `k` steps and `¬cube` may join `F_k`. The answer is then the cube
    /// cut to the literals whose primed copy is in the solver's UNSAT core
    /// ([`cut_to_core`]): the query stays UNSAT for the cut cube, which
    /// still excludes the reset state, so it may be blocked instead. SAT
    /// yields the model, whose frame 0 is a predecessor state (a new proof
    /// obligation).
    fn consecution(&mut self, cube: &Cube, k: usize) -> Result<Cube, Vec<bool>> {
        // ¬cube over frame 0 is a disjunction: encode it once under a
        // throw-away activation literal, assume it for this query, then
        // permanently disable it.
        let tmp = self.enc.unroller_mut().fresh_lit();
        let mut clause = vec![tmp.negated()];
        clause.extend(
            cube.iter()
                .map(|&entry| self.cube_lit(entry, false).negated()),
        );
        self.enc.unroller_mut().add_clause(&clause);

        let mut assumptions = self.frame_assumptions(k - 1);
        assumptions.push(tmp);
        assumptions.extend(cube.iter().map(|&entry| self.cube_lit(entry, true)));
        let result = match self.solve(&assumptions) {
            SatResult::Unsat => {
                let core = self.solver().failed_assumptions();
                Ok(cut_to_core(
                    cube,
                    |entry| core.contains(&self.cube_lit(entry, true)),
                    &self.reg_init,
                ))
            }
            SatResult::Sat(model) => Err(model),
        };
        self.enc.unroller_mut().add_clause(&[tmp.negated()]);
        result
    }

    /// Shrinks a blocked cube by literal dropping: each literal whose
    /// removal keeps both initiation (the cube still excludes the reset
    /// state) and consecution (the relative-induction query stays UNSAT)
    /// is dropped, and the UNSAT answer's core cuts the rest of the cube
    /// down with it. The result blocks exponentially many states instead
    /// of one.
    fn generalize(&mut self, cube: Cube, k: usize) -> Cube {
        let _span = self.tracer.span_fast("pdr.generalize");
        let mut current = cube.clone();
        for &entry in &cube {
            if current.len() == 1 {
                break;
            }
            let candidate: Cube = current.iter().copied().filter(|&e| e != entry).collect();
            if candidate.len() == current.len() {
                continue; // already dropped
            }
            if self.intersects_init(&candidate) {
                continue; // initiation would break
            }
            if let Ok(cut) = self.consecution(&candidate, k) {
                self.stats.generalization_drops += (current.len() - cut.len()) as u64;
                current = cut;
            }
        }
        current
    }

    /// Whether `cube` is subsumed by a clause already stored at frame ≥ `k`
    /// (i.e. already excluded from `F_k`). Cubes are sorted by register
    /// index, so subsumption is a linear merge.
    fn is_blocked(&self, cube: &Cube, k: usize) -> bool {
        self.frame_cubes[k..]
            .iter()
            .flatten()
            .any(|blocked| subsumes(blocked, cube))
    }

    /// The invariant at a fixpoint frame `k`: every clause stored at frames
    /// above `k` (delta encoding: that conjunction *is* `F_{k+1} = F_k`).
    /// The same cube can be blocked at several frames above the fixpoint,
    /// so the clause list is deduplicated for the certificate.
    fn certificate(&self, fixpoint: usize) -> Certificate {
        let mut cubes: Vec<&Cube> = self.frame_cubes[fixpoint + 1..].iter().flatten().collect();
        cubes.sort();
        cubes.dedup();
        let netlist = self.enc.unroller().netlist();
        let clauses = cubes
            .into_iter()
            .map(|cube| {
                cube.iter()
                    .map(|&(index, value)| StateLiteral {
                        register: netlist.signal(self.regs[index]).name.clone(),
                        positive: !value,
                    })
                    .collect()
            })
            .collect();
        Certificate {
            property: self.property.name.clone(),
            clauses,
        }
    }

    /// Decodes the property window (frames `0..=offset`) of a bad-state
    /// model.
    fn window(&self, model: &[bool]) -> Vec<BTreeMap<String, bool>> {
        (0..=self.property.latency.offset())
            .map(|frame| self.enc.decode_frame(self.spec, model, frame))
            .collect()
    }

    /// Blocks the bad cube at the top frame, recursively discharging the
    /// proof obligations it spawns. `window` is the decoded input window of
    /// the bad-state model (the tail of any counterexample trace).
    fn block(
        &mut self,
        root: Cube,
        window: Vec<BTreeMap<String, bool>>,
        cancel: Option<&AtomicBool>,
    ) -> BlockOutcome {
        let top = self.top();
        let mut arena: Vec<Obligation> = vec![Obligation {
            cube: root,
            parent: None,
            step_inputs: BTreeMap::new(),
        }];
        // Min-heap on (frame, arena index): deepest-from-reset obligations
        // first, FIFO within a frame.
        let mut queue: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
        queue.push(Reverse((top, 0)));
        self.note_push(top, queue.len());

        while let Some(Reverse((k, index))) = queue.pop() {
            if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
                return BlockOutcome::Cancelled;
            }
            self.note_pop(k, queue.len());
            if k == 0 {
                // Defensive: obligations at frame 0 are initial states and
                // are caught at creation time by the initiation check.
                return BlockOutcome::Counterexample(self.trace(&arena, index, None, &window));
            }
            let cube = arena[index].cube.clone();
            if self.is_blocked(&cube, k) {
                // Already excluded from F_k by a stronger clause; keep
                // pushing the obligation towards the top frame.
                if k < top {
                    queue.push(Reverse((k + 1, index)));
                    self.note_push(k + 1, queue.len());
                }
                continue;
            }
            match self.consecution(&cube, k) {
                Ok(cut) => {
                    self.stats.generalization_drops += (cube.len() - cut.len()) as u64;
                    let lemma = self.generalize(cut, k);
                    self.add_frame_clause(lemma, k);
                    if k < top {
                        queue.push(Reverse((k + 1, index)));
                        self.note_push(k + 1, queue.len());
                    }
                }
                Err(model) => {
                    let predecessor = self.state_cube(&model);
                    let step_inputs = self.enc.decode_frame(self.spec, &model, 0);
                    if self.intersects_init(&predecessor) {
                        // The predecessor is the reset state: the obligation
                        // chain is a concrete trace.
                        return BlockOutcome::Counterexample(self.trace(
                            &arena,
                            index,
                            Some(step_inputs),
                            &window,
                        ));
                    }
                    arena.push(Obligation {
                        cube: predecessor,
                        parent: Some(index),
                        step_inputs,
                    });
                    queue.push(Reverse((k - 1, arena.len() - 1)));
                    queue.push(Reverse((k, index)));
                    self.note_push(k - 1, queue.len() - 1);
                    self.note_push(k, queue.len());
                }
            }
        }
        BlockOutcome::Blocked
    }
    /// Records an obligation entering the queue at `frame`, with the
    /// queue length right after the push.
    fn note_push(&mut self, frame: usize, queue_len: usize) {
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(queue_len);
        self.tracer.event(
            "pdr_obligation",
            &[
                ("action", Value::from("push")),
                ("frame", Value::U64(frame as u64)),
                ("queue", Value::U64(queue_len as u64)),
            ],
        );
    }

    /// Records an obligation leaving the queue at `frame`, with the queue
    /// length right after the pop.
    fn note_pop(&mut self, frame: usize, queue_len: usize) {
        self.stats.obligations += 1;
        if frame >= self.stats.obligations_per_frame.len() {
            self.stats.obligations_per_frame.resize(frame + 1, 0);
        }
        self.stats.obligations_per_frame[frame] += 1;
        self.tracer.event(
            "pdr_obligation",
            &[
                ("action", Value::from("pop")),
                ("frame", Value::U64(frame as u64)),
                ("queue", Value::U64(queue_len as u64)),
            ],
        );
        self.emit_heartbeat(frame, queue_len);
    }

    /// Emits a live-progress `heartbeat` event (rate-limited; see
    /// [`Heartbeat`]): the current obligation frame, the top frame of the
    /// trailing sequence, the queue depth, and the obligations/clauses
    /// totals so far.
    fn emit_heartbeat(&mut self, frame: usize, queue_len: usize) {
        if !self.heartbeat.due(&self.tracer) {
            return;
        }
        self.tracer.event(
            "heartbeat",
            &[
                ("engine", Value::from("pdr")),
                ("frame", Value::U64(frame as u64)),
                ("top_frame", Value::U64(self.top() as u64)),
                ("queue", Value::U64(queue_len as u64)),
                ("obligations", Value::U64(self.stats.obligations)),
                ("clauses", Value::U64(self.stats.clauses as u64)),
            ],
        );
    }

    /// Reconstructs the counterexample trace ending at the obligation
    /// `index`: `reset_step` (if any) drives the reset state into the
    /// obligation's state, the parent chain's step inputs walk to the root
    /// bad state, and `window` is the property window observed there.
    fn trace(
        &self,
        arena: &[Obligation],
        index: usize,
        reset_step: Option<BTreeMap<String, bool>>,
        window: &[BTreeMap<String, bool>],
    ) -> Counterexample {
        let mut frames = Vec::new();
        frames.extend(reset_step);
        let mut current = index;
        while let Some(parent) = arena[current].parent {
            frames.push(arena[current].step_inputs.clone());
            current = parent;
        }
        frames.extend(window.iter().cloned());
        Counterexample {
            property: self.property.name.clone(),
            violation_frame: frames.len() - 1,
            frames,
        }
    }

    /// One clause-propagation pass after opening a new top frame: every
    /// clause inductive relative to its own frame moves one frame up.
    /// Returns the fixpoint frame if two adjacent frames became equal.
    fn propagate(&mut self) -> Option<usize> {
        let _span = self.tracer.span("pdr.propagate");
        let top = self.top();
        for k in 1..top {
            let cubes = std::mem::take(&mut self.frame_cubes[k]);
            for cube in cubes {
                // F_k ∧ T ∧ cube' unsatisfiable ⇒ ¬cube also holds at k+1.
                let mut assumptions = self.frame_assumptions(k);
                assumptions.extend(cube.iter().map(|&entry| self.cube_lit(entry, true)));
                if self.solve(&assumptions) == SatResult::Unsat {
                    self.add_frame_clause(cube, k + 1);
                } else {
                    self.frame_cubes[k].push(cube);
                }
            }
            if self.frame_cubes[k].is_empty() {
                // F_k = F_{k+1}: the trailing sequence closed.
                return Some(k);
            }
        }
        None
    }

    fn run(&mut self, cancel: Option<&AtomicBool>) -> PdrOutcome {
        // Stateless netlist: the single (empty) state is initial, so the
        // property is equivalent to the one-window combinational query.
        if self.regs.is_empty() {
            let bad = self.bad;
            return match self.solve(&[bad]) {
                SatResult::Unsat => PdrOutcome::Proved {
                    certificate: Certificate {
                        property: self.property.name.clone(),
                        clauses: Vec::new(),
                    },
                    fixpoint_frame: 0,
                },
                SatResult::Sat(model) => {
                    let frames = self.window(&model);
                    PdrOutcome::Falsified(Counterexample {
                        property: self.property.name.clone(),
                        violation_frame: frames.len() - 1,
                        frames,
                    })
                }
            };
        }

        self.push_frame(); // F_1
        loop {
            if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
                return PdrOutcome::Unknown {
                    frames_explored: self.top(),
                };
            }
            // Block every bad state reachable within the current bound.
            loop {
                let top = self.top();
                let mut assumptions = self.frame_assumptions(top);
                assumptions.push(self.bad);
                match self.solve(&assumptions) {
                    SatResult::Unsat => break,
                    SatResult::Sat(model) => {
                        let cube = self.state_cube(&model);
                        let window = self.window(&model);
                        if self.intersects_init(&cube) {
                            // The reset state itself violates the property.
                            return PdrOutcome::Falsified(Counterexample {
                                property: self.property.name.clone(),
                                violation_frame: window.len() - 1,
                                frames: window,
                            });
                        }
                        match self.block(cube, window, cancel) {
                            BlockOutcome::Blocked => {}
                            BlockOutcome::Counterexample(cex) => return PdrOutcome::Falsified(cex),
                            BlockOutcome::Cancelled => {
                                return PdrOutcome::Unknown {
                                    frames_explored: self.top(),
                                }
                            }
                        }
                    }
                }
            }
            if self.top() >= self.max_frames {
                return PdrOutcome::Unknown {
                    frames_explored: self.top(),
                };
            }
            self.push_frame();
            let top = self.top();
            self.emit_heartbeat(top, 0);
            if let Some(fixpoint) = self.propagate() {
                return PdrOutcome::Proved {
                    certificate: self.certificate(fixpoint),
                    fixpoint_frame: fixpoint,
                };
            }
        }
    }
}

/// Whether the cube contains the reset state. The reset state is a single
/// total assignment, so this is a syntactic check: the cube meets `Init`
/// iff none of its literals disagrees with a reset value.
fn meets_init(cube: &[(usize, bool)], reg_init: &[bool]) -> bool {
    cube.iter().all(|&(index, value)| value == reg_init[index])
}

/// Cuts a blocked cube to the literals `in_core` keeps, in cube order. A
/// lemma must exclude the reset state, so when every kept literal agrees
/// with `reg_init`, the cube's first literal that disagrees goes back in.
fn cut_to_core(
    cube: &[(usize, bool)],
    in_core: impl Fn((usize, bool)) -> bool,
    reg_init: &[bool],
) -> Cube {
    let mut cut: Cube = cube
        .iter()
        .copied()
        .filter(|&entry| in_core(entry))
        .collect();
    if meets_init(&cut, reg_init) {
        if let Some(&entry) = cube
            .iter()
            .find(|&&(index, value)| value != reg_init[index])
        {
            let at = cut.partition_point(|&(index, _)| index < entry.0);
            cut.insert(at, entry);
        }
    }
    cut
}

/// Whether every literal of `smaller` occurs in `larger` (both sorted by
/// register index).
fn subsumes(smaller: &Cube, larger: &Cube) -> bool {
    let mut it = larger.iter();
    smaller
        .iter()
        .all(|entry| it.by_ref().any(|candidate| candidate == entry))
}

/// Checks one sequential property on `netlist` against `spec` with IC3/PDR.
///
/// See the module docs for the algorithm. A [`PdrOutcome::Proved`] verdict
/// carries an explicit inductive-invariant [`Certificate`], re-validated
/// by independent SAT checks ([`Certificate::validate`]); the verdicts are
/// in [`PdrResult::validation`]. A [`PdrOutcome::Falsified`] trace replays
/// through [`ipcl_rtl::Simulator`] (callers assert this, as with BMC). The
/// run polls `cancel` between queries and returns [`PdrOutcome::Unknown`]
/// as soon as it is set.
///
/// Traced under a `pdr.check` span (encode under `pdr.encode`, clause
/// propagation under `pdr.propagate`, cube generalisation under
/// `pdr.generalize`, certificate re-checking under `pdr.validate`, SAT
/// queries under the solver's own `sat.solve`), with one `pdr_obligation`
/// event per obligation push/pop carrying its frame and queue depth; the
/// run's counters fold into the tracer's metrics.
///
/// # Errors
///
/// As [`ipcl_bmc::check_properties`]: [`BmcError::MissingSignals`] if the
/// property's stage has no `moe` signal in the netlist, [`BmcError::Rtl`]
/// if the netlist does not elaborate.
pub fn check_property_pdr(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
    options: &PdrOptions,
    cancel: Option<&AtomicBool>,
    tracer: &Tracer,
) -> Result<PdrResult, BmcError> {
    let _span = tracer.span("pdr.check");
    let binding = Binding::new(spec, netlist);
    let missing = ipcl_bmc::missing_property_signals(spec, &binding, property);
    if !missing.is_empty() {
        return Err(BmcError::MissingSignals(missing));
    }

    let mut pdr = Pdr::new(spec, netlist, &binding, property, options, tracer)?;
    let outcome = pdr.run(cancel);
    let mut stats = pdr.stats.clone();
    stats.frames = pdr.top();
    stats.conflicts = pdr.solver().stats().conflicts;
    stats.propagations = pdr.solver().stats().propagations;
    if tracer.is_enabled() {
        stats.emit(tracer, "pdr");
        pdr.solver().stats().emit(tracer, "sat");
        let u = pdr.enc.unroller().stats();
        tracer.counter("unroll.pdr.frames", u.frames);
        tracer.counter("unroll.pdr.gates", u.gates);
        tracer.counter("unroll.pdr.cache_hits", u.cache_hits);
    }

    let validation = match &outcome {
        PdrOutcome::Proved { certificate, .. } => {
            let _validate = tracer.span("pdr.validate");
            Some(certificate.validate(spec, netlist, property)?)
        }
        _ => None,
    };

    Ok(PdrResult {
        property: property.clone(),
        outcome,
        validation,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_core_of_reset_agreeing_literals_gets_the_first_disagreeing_one_back() {
        // The cube disagrees with reset at registers 1 and 4; the core
        // keeps only literals that agree with it.
        let reg_init = [true, false, true, true, false, false];
        let cube: Cube = vec![(0, true), (1, true), (2, true), (4, true), (5, false)];
        let core = [(0, true), (5, false)];
        let cut = cut_to_core(&cube, |entry| core.contains(&entry), &reg_init);
        assert!(!meets_init(&cut, &reg_init), "{cut:?} meets Init");
        assert!(
            cut.windows(2).all(|w| w[0].0 < w[1].0),
            "{cut:?} is unsorted"
        );
        assert!(cut.iter().all(|entry| cube.contains(entry)), "{cut:?}");
        assert!(
            cut.contains(&(1, true)),
            "{cut:?} lacks the first disagreement"
        );
        assert_eq!(cut, [(0, true), (1, true), (5, false)]);
    }

    #[test]
    fn a_core_that_excludes_init_is_the_whole_cut() {
        let reg_init = [true, false, true];
        let cube: Cube = vec![(0, false), (1, true), (2, true)];
        let cut = cut_to_core(&cube, |entry| entry == (1, true), &reg_init);
        assert_eq!(cut, [(1, true)]);
    }
}
