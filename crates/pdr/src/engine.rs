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
//! Propagation asks no question whose answer it already has (the
//! bookkeeping of Eén/Mishchenko/Brayton): each frame carries a change
//! stamp, each stored lemma the stamp its frame had when its push last
//! failed, and a lemma whose frame has not changed since is not re-asked.
//! A skip can only keep a clause lower than it could go, so every frame
//! stays an over-approximation and a certificate is never weakened.
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

use ipcl_bmc::{
    Binding, BmcError, BmcOutcome, BmcResult, BmcStats, Counterexample, FrameEncoder, InitialState,
    SequentialProperty,
};
use ipcl_expr::Lit;
use ipcl_rtl::{SignalId, SignalKind};
use ipcl_sat::{SatResult, Solver, SolverConfig};
use ipcl_trace::{Heartbeat, MetricSink, Tracer, Value};

use crate::certificate::{Certificate, CertificateCheck, StateLiteral};

/// Frames a PDR run opens before it gives up with [`BmcOutcome::Unknown`].
/// The state spaces of interlock controllers are small, so running out of
/// frames indicates a diverging abstraction rather than a hard problem.
pub const MAX_FRAMES: usize = 64;

/// Knobs of one PDR run.
#[derive(Clone, Copy, Debug)]
pub struct PdrOptions {
    /// Heuristic configuration of the CDCL solver: phase saving, the
    /// learned-clause reduction base and the Luby restart unit (see
    /// [`ipcl_sat::SolverConfig`]). PDR leans hardest on the incremental
    /// hot paths: every consecution/generalisation query is one
    /// `solve_under_assumptions` call against the same solver.
    ///
    /// The default is [`SolverConfig::default`] with phase saving **off**:
    /// a saved phase steers the next query's model, hence the next
    /// predecessor cube, and PDR closes the deep wait-state chains with
    /// fewer obligations and queries when every decision tries `false`
    /// first (EXPERIMENTS.md: E10 and the phase sweep of "PDR stops
    /// re-asking settled questions"). The k-induction and
    /// combinational engines keep [`SolverConfig::default`].
    pub solver: SolverConfig,
}

impl Default for PdrOptions {
    fn default() -> Self {
        PdrOptions {
            solver: SolverConfig {
                phase_saving: false,
                ..SolverConfig::default()
            },
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
    /// Clause pushes propagation did not ask because the lemma's frame had
    /// not changed since its push last failed.
    pub pushes_skipped: u64,
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
        sink.counter(&format!("{prefix}.pushes_skipped"), self.pushes_skipped);
        sink.gauge(&format!("{prefix}.frames"), self.frames as f64);
        sink.gauge(
            &format!("{prefix}.max_queue_depth"),
            self.max_queue_depth as f64,
        );
    }
}

/// Result of checking one property with PDR: the verdict in the engines'
/// shared vocabulary, with the proof's certificate beside it.
#[derive(Clone, Debug)]
pub struct PdrResult {
    /// The verdict. A proof's `induction_depth` is the frame at which the
    /// trailing sequence closed and an unknown's `depth_checked` the frames
    /// explored; a falsification's trace replays but, unlike BMC's, need
    /// not be of minimal length. The [`BmcStats`] are [`PdrResult::stats`]
    /// mapped: `depth_reached` is the frames opened, `base_clauses` the
    /// frame clauses learned, and the solve calls, conflicts and
    /// propagations are PDR's own.
    pub result: BmcResult,
    /// The inductive invariant that proves the property (`Some` exactly
    /// when the verdict is a proof).
    pub certificate: Option<Certificate>,
    /// The independent validation of `certificate` (`Some` exactly when
    /// the verdict is a proof).
    pub validation: Option<CertificateCheck>,
    /// Search statistics.
    pub stats: PdrStats,
}

/// A cube over the register state: `(register index, value)` pairs sorted
/// by index. Trace cubes are total (one entry per register); blocked cubes
/// shrink under generalisation.
type Cube = Vec<(usize, bool)>;

/// A frame clause `¬cube`, stored at the highest frame it is known to hold
/// at.
struct Lemma {
    cube: Cube,
    /// The stamp its frame had when a push of it to the next frame last
    /// failed (`None` until one fails at this frame).
    failed_at: Option<u64>,
}

/// One entry of the proof-obligation arena. The parent chain reconstructs
/// counterexample traces: `step_inputs` is the input valuation driving this
/// obligation's state into its parent's state in one cycle.
struct Obligation {
    cube: Cube,
    parent: Option<usize>,
    step_inputs: BTreeMap<String, bool>,
}

/// One PDR search: the encoder, writing into its incremental solver, and
/// the trailing frame sequence over it.
struct Pdr<'a> {
    property: &'a SequentialProperty,
    enc: FrameEncoder<'a, Solver>,
    /// The registers (state variables), in [`ipcl_rtl::Netlist::registers`]
    /// order.
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
    /// Delta-encoded frame clauses: `frame_lemmas[k]` holds the lemmas
    /// stored at frame `k`.
    frame_lemmas: Vec<Vec<Lemma>>,
    /// Change stamp per frame: `frame_stamps[k]` grows whenever a clause
    /// joins `F_k`. A lemma at `k` whose `failed_at` equals it would fail
    /// its push again.
    frame_stamps: Vec<u64>,
    stats: PdrStats,
    tracer: &'a Tracer,
    /// Live-progress beats (rate-limited), checked per obligation pop and
    /// per frame open — a deep proof reports its frontier while running.
    heartbeat: Heartbeat,
}

impl<'a> Pdr<'a> {
    fn new(
        binding: &'a Binding<'a>,
        property: &'a SequentialProperty,
        options: &PdrOptions,
    ) -> Result<Self, BmcError> {
        let tracer = binding.tracer();
        let _encode = tracer.span("pdr.encode");
        let mut solver = Solver::with_config(0, options.solver);
        solver.set_tracer(tracer.clone());
        let mut enc = FrameEncoder::new(binding, InitialState::Free, 0, solver)?;
        // Two frames: the transition `s → s'` and (for registered latency)
        // the property window.
        enc.ensure_frames(2);
        let offset = property.latency.offset();
        let bad = enc.encode_instance(property, offset).negated();

        let netlist = binding.netlist();
        let regs = netlist.registers();
        let reg_init: Vec<bool> = regs
            .iter()
            .map(|&r| match netlist.signal(r).kind {
                SignalKind::Register { init, .. } => init,
                _ => unreachable!("registers() yields registers"),
            })
            .collect();
        let reg0: Vec<Lit> = regs.iter().map(|&r| enc.lit(0, r)).collect();
        let reg1: Vec<Lit> = regs.iter().map(|&r| enc.lit(1, r)).collect();

        // F_0 = Init: each register at its reset value, under `act_init`.
        let act_init = enc.fresh_lit();
        for (index, &lit) in reg0.iter().enumerate() {
            let lit = if reg_init[index] { lit } else { lit.negated() };
            enc.add_clause(&[act_init.negated(), lit]);
        }

        let placeholder = act_init; // never assumed via `act[0]`
        Ok(Pdr {
            property,
            enc,
            regs,
            reg_init,
            reg0,
            reg1,
            bad,
            act_init,
            act: vec![placeholder],
            frame_lemmas: vec![Vec::new()],
            frame_stamps: vec![0],
            stats: PdrStats::default(),
            tracer,
            heartbeat: Heartbeat::every_ms(ipcl_sat::HEARTBEAT_MS),
        })
    }

    /// Number of the top frame.
    fn top(&self) -> usize {
        self.act.len() - 1
    }

    /// Opens frame `K+1` (initially unconstrained).
    fn push_frame(&mut self) {
        let act = self.enc.fresh_lit();
        self.act.push(act);
        self.frame_lemmas.push(Vec::new());
        self.frame_stamps.push(0);
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
    /// The caller restamps the frames whose clause set this changes.
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
        self.enc.add_clause(&clause);
        self.frame_lemmas[k].push(Lemma {
            cube,
            failed_at: None,
        });
        self.stats.clauses += 1;
    }

    /// Adds a new lemma `¬cube` at level `k`. Delta encoding puts it in
    /// every `F_j` with `j ≤ k`, so frames `1..=k` all change.
    fn add_lemma(&mut self, cube: Cube, k: usize) {
        for stamp in &mut self.frame_stamps[1..=k] {
            *stamp += 1;
        }
        self.add_frame_clause(cube, k);
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
        let tmp = self.enc.fresh_lit();
        let mut clause = vec![tmp.negated()];
        clause.extend(
            cube.iter()
                .map(|&entry| self.cube_lit(entry, false).negated()),
        );
        self.enc.add_clause(&clause);

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
        self.enc.add_clause(&[tmp.negated()]);
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
        self.frame_lemmas[k..]
            .iter()
            .flatten()
            .any(|blocked| subsumes(&blocked.cube, cube))
    }

    /// The invariant at a fixpoint frame `k`: every clause stored at frames
    /// above `k` (delta encoding: that conjunction *is* `F_{k+1} = F_k`).
    /// The same cube can be blocked at several frames above the fixpoint,
    /// so the clause list is deduplicated for the certificate.
    fn certificate(&self, fixpoint: usize) -> Certificate {
        let mut cubes: Vec<&Cube> = self.frame_lemmas[fixpoint + 1..]
            .iter()
            .flatten()
            .map(|lemma| &lemma.cube)
            .collect();
        cubes.sort();
        cubes.dedup();
        let netlist = self.enc.binding().netlist();
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
            .map(|frame| self.enc.decode_frame(model, frame))
            .collect()
    }

    /// Blocks the bad cube at the top frame, recursively discharging the
    /// proof obligations it spawns. `window` is the decoded input window of
    /// the bad-state model (the tail of any counterexample trace). Fails
    /// with the verdict that ends the search: a falsification when an
    /// obligation chain reaches the reset state, an unknown when the check
    /// is cancelled.
    fn block(&mut self, root: Cube, window: Vec<BTreeMap<String, bool>>) -> Result<(), BmcOutcome> {
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
            if self.enc.binding().cancelled() {
                return Err(self.unknown());
            }
            self.note_pop(k, queue.len());
            if k == 0 {
                // Defensive: obligations at frame 0 are initial states and
                // are caught at creation time by the initiation check.
                let cex = self.trace(&arena, index, None, &window);
                return Err(BmcOutcome::Falsified(cex));
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
                    self.add_lemma(lemma, k);
                    if k < top {
                        queue.push(Reverse((k + 1, index)));
                        self.note_push(k + 1, queue.len());
                    }
                }
                Err(model) => {
                    let predecessor = self.state_cube(&model);
                    let step_inputs = self.enc.decode_frame(&model, 0);
                    if self.intersects_init(&predecessor) {
                        // The predecessor is the reset state: the obligation
                        // chain is a concrete trace.
                        let cex = self.trace(&arena, index, Some(step_inputs), &window);
                        return Err(BmcOutcome::Falsified(cex));
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
        Ok(())
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
        if !self.heartbeat.due(self.tracer) {
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
        self.counterexample(frames)
    }

    /// The counterexample whose last frame (the property window's end)
    /// shows the violation.
    fn counterexample(&self, frames: Vec<BTreeMap<String, bool>>) -> Counterexample {
        Counterexample {
            property: self.property.name.clone(),
            violation_frame: frames.len() - 1,
            frames,
        }
    }

    /// The push query `F_k ∧ T ∧ cube'`: UNSAT means `¬cube` also holds at
    /// frame `k + 1`.
    fn push_assumptions(&self, cube: &Cube, k: usize) -> Vec<Lit> {
        let mut assumptions = self.frame_assumptions(k);
        assumptions.extend(cube.iter().map(|&entry| self.cube_lit(entry, true)));
        assumptions
    }

    /// One clause-propagation pass after opening a new top frame: every
    /// clause inductive relative to its own frame moves one frame up.
    /// Returns the fixpoint frame if two adjacent frames became equal.
    ///
    /// A lemma whose push failed while `F_k` had its current stamp is not
    /// re-asked: the query is the same formula, so it would fail again,
    /// and the lemma stays at `k` exactly as a failed push leaves it. A
    /// push that lands at `k + 1` restamps that frame only (the clause was
    /// already in every lower frame); a new lemma restamps every frame it
    /// joins ([`Pdr::add_lemma`]). Debug builds re-ask every skipped push
    /// on a copy of the solver.
    fn propagate(&mut self) -> Option<usize> {
        let _span = self.tracer.span("pdr.propagate");
        let top = self.top();
        for k in 1..top {
            let lemmas = std::mem::take(&mut self.frame_lemmas[k]);
            for mut lemma in lemmas {
                if lemma.failed_at == Some(self.frame_stamps[k]) {
                    self.stats.pushes_skipped += 1;
                    if cfg!(debug_assertions) {
                        self.assert_push_fails(&lemma.cube, k);
                    }
                    self.frame_lemmas[k].push(lemma);
                    continue;
                }
                let assumptions = self.push_assumptions(&lemma.cube, k);
                if self.solve(&assumptions) == SatResult::Unsat {
                    self.frame_stamps[k + 1] += 1;
                    self.add_frame_clause(lemma.cube, k + 1);
                } else {
                    lemma.failed_at = Some(self.frame_stamps[k]);
                    self.frame_lemmas[k].push(lemma);
                }
            }
            if self.frame_lemmas[k].is_empty() {
                // F_k = F_{k+1}: the trailing sequence closed.
                return Some(k);
            }
        }
        None
    }

    /// The debug cross-check of a skipped push: on a copy of the solver,
    /// untraced, the push query of `¬cube` from frame `k` is still
    /// satisfiable.
    fn assert_push_fails(&self, cube: &Cube, k: usize) {
        let mut solver = self.solver().clone();
        solver.set_tracer(Tracer::disabled());
        let assumptions = self.push_assumptions(cube, k);
        assert!(
            solver.solve_under_assumptions(&assumptions).is_sat(),
            "skipped the push of ¬{cube:?} from F_{k}, which succeeds"
        );
    }

    /// Runs the search to a verdict; a proof comes with its certificate.
    fn run(&mut self) -> (BmcOutcome, Option<Certificate>) {
        // Stateless netlist: the single (empty) state is initial, so the
        // property is equivalent to the one-window combinational query.
        if self.regs.is_empty() {
            let bad = self.bad;
            return match self.solve(&[bad]) {
                SatResult::Unsat => self.proved(0),
                SatResult::Sat(model) => {
                    let cex = self.counterexample(self.window(&model));
                    (BmcOutcome::Falsified(cex), None)
                }
            };
        }

        self.push_frame(); // F_1
        loop {
            if self.enc.binding().cancelled() {
                return (self.unknown(), None);
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
                            let cex = self.counterexample(window);
                            return (BmcOutcome::Falsified(cex), None);
                        }
                        if let Err(outcome) = self.block(cube, window) {
                            return (outcome, None);
                        }
                    }
                }
            }
            if self.top() >= MAX_FRAMES {
                return (self.unknown(), None);
            }
            self.push_frame();
            let top = self.top();
            self.emit_heartbeat(top, 0);
            if let Some(fixpoint) = self.propagate() {
                return self.proved(fixpoint);
            }
        }
    }

    /// The verdict of a trailing sequence that closed at frame `fixpoint`:
    /// the fixpoint frame is the proof's depth, and the invariant there its
    /// certificate.
    fn proved(&self, fixpoint: usize) -> (BmcOutcome, Option<Certificate>) {
        let outcome = BmcOutcome::Proved {
            induction_depth: fixpoint,
        };
        (outcome, Some(self.certificate(fixpoint)))
    }

    /// The verdict of a search stopped undecided: the frames explored.
    fn unknown(&self) -> BmcOutcome {
        BmcOutcome::Unknown {
            depth_checked: self.top(),
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

/// Checks one sequential property on `binding`'s netlist against its spec
/// with IC3/PDR.
///
/// See the module docs for the algorithm. A proof carries an explicit
/// inductive-invariant [`Certificate`], re-validated by independent SAT
/// checks ([`Certificate::validate`]); the verdicts are in
/// [`PdrResult::validation`]. A falsification's trace replays through
/// [`ipcl_rtl::Simulator`] (callers assert this, as with BMC). The run
/// polls the binding's cancellation token between queries and answers
/// [`BmcOutcome::Unknown`] as soon as it is set, as it does after
/// [`MAX_FRAMES`] frames.
///
/// Traced into the binding's tracer under a `pdr.check` span (encode under
/// `pdr.encode`, clause propagation under `pdr.propagate`, cube
/// generalisation under `pdr.generalize`, certificate re-checking under
/// `pdr.validate`, SAT queries under the solver's own `sat.solve`), with
/// one `pdr_obligation` event per obligation push/pop carrying its frame
/// and queue depth; the run's counters fold into the tracer's metrics.
///
/// # Errors
///
/// As [`ipcl_bmc::check_properties`]: [`BmcError::MissingSignals`] if the
/// property's stage has no `moe` signal in the netlist, [`BmcError::Rtl`]
/// if the netlist does not elaborate.
pub fn check_property_pdr(
    binding: &Binding,
    property: &SequentialProperty,
    options: &PdrOptions,
) -> Result<PdrResult, BmcError> {
    let tracer = binding.tracer();
    let _span = tracer.span("pdr.check");
    binding.require_moe(Some(std::slice::from_ref(property)))?;

    let mut pdr = Pdr::new(binding, property, options)?;
    let (outcome, certificate) = pdr.run();
    let mut stats = std::mem::take(&mut pdr.stats);
    stats.frames = pdr.top();
    stats.conflicts = pdr.solver().stats().conflicts;
    stats.propagations = pdr.solver().stats().propagations;
    if tracer.is_enabled() {
        stats.emit(tracer, "pdr");
        pdr.solver().stats().emit(tracer, "sat");
        pdr.enc.emit(tracer, "pdr");
    }

    let validation = match &certificate {
        Some(certificate) => {
            let _validate = tracer.span("pdr.validate");
            Some(certificate.validate(binding.spec(), binding.netlist(), property)?)
        }
        None => None,
    };

    let result = BmcResult {
        property: property.clone(),
        outcome,
        stats: BmcStats {
            depth_reached: stats.frames,
            solve_calls: stats.solve_calls as usize,
            base_clauses: stats.clauses,
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            ..BmcStats::default()
        },
    };
    Ok(PdrResult {
        result,
        certificate,
        validation,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deep::deep_pipeline;
    use ipcl_bmc::{Latency, PropertyKind};
    use ipcl_rtl::Netlist;

    /// Four registers, all reset low: `x' = x`, `y' = x`, `z' = y` and
    /// `w' = inject`. The free `w` keeps frame 1 non-empty. The stage's
    /// `moe` is constant true, so the property is the deep chain's with
    /// nothing to violate it.
    fn shift_netlist() -> Netlist {
        let mut netlist = Netlist::new("shift");
        let inject = netlist.input("inject");
        let [x, y, z, w] = ["x", "y", "z", "w"].map(|name| netlist.register(name, false));
        for (register, next) in [(x, x), (y, x), (z, y), (w, inject)] {
            netlist.connect_register(register, next).unwrap();
        }
        let moe = netlist.constant("deep.1.moe", true);
        netlist.mark_output(moe);
        netlist
    }

    /// The one-literal cube "register `name` is high".
    fn high(pdr: &Pdr, name: &str) -> Cube {
        let netlist = pdr.enc.binding().netlist();
        let index = pdr
            .regs
            .iter()
            .position(|&r| netlist.signal(r).name == name)
            .unwrap();
        vec![(index, true)]
    }

    /// The frame the lemma `¬cube` is stored at.
    fn level(pdr: &Pdr, cube: &Cube) -> usize {
        pdr.frame_lemmas
            .iter()
            .position(|lemmas| lemmas.iter().any(|lemma| &lemma.cube == cube))
            .unwrap()
    }

    /// Runs `test` on a PDR search over [`shift_netlist`] with frames 1–3
    /// open and the lemmas ¬w@1, ¬y@1 and ¬z@2, after one propagation pass
    /// that leaves z at 2 and a second that asks no query.
    fn with_settled_frames(test: impl FnOnce(&mut Pdr)) {
        let (spec, _) = deep_pipeline(3);
        let netlist = shift_netlist();
        let binding = Binding::new(&spec, &netlist);
        let property = SequentialProperty::for_stage(
            &spec,
            0,
            PropertyKind::Performance,
            Latency::Combinational,
        );
        let mut pdr = Pdr::new(&binding, &property, &PdrOptions::default()).unwrap();
        for _ in 0..3 {
            pdr.push_frame();
        }
        for (name, k) in [("w", 1), ("y", 1), ("z", 2)] {
            let cube = high(&pdr, name);
            pdr.add_lemma(cube, k);
        }
        assert_eq!(pdr.propagate(), None);
        let z = high(&pdr, "z");
        assert_eq!(level(&pdr, &z), 2, "z' = y and F_2 allows y");
        assert_eq!(pdr.stats.solve_calls, 3);

        assert_eq!(pdr.propagate(), None);
        assert_eq!(pdr.stats.solve_calls, 3, "no frame changed");
        assert_eq!(pdr.stats.pushes_skipped, 3);
        test(&mut pdr);
    }

    #[test]
    fn a_push_that_lands_restamps_its_landing_frame() {
        with_settled_frames(|pdr| {
            let x = high(pdr, "x");
            pdr.add_lemma(x, 1);
            // y lands at 2, which re-asks z there: F_2 now excludes y.
            assert_eq!(pdr.propagate(), Some(2));
            let (w, y, z) = (high(pdr, "w"), high(pdr, "y"), high(pdr, "z"));
            assert_eq!(level(pdr, &w), 1);
            assert_eq!(level(pdr, &y), 3);
            assert_eq!(level(pdr, &z), 3, "z was not re-asked");
            assert_eq!(pdr.stats.solve_calls, 3 + 6);
            assert_eq!(pdr.stats.pushes_skipped, 3);
        });
    }

    #[test]
    fn a_lemma_restamps_every_frame_it_joins() {
        with_settled_frames(|pdr| {
            let x = high(pdr, "x");
            pdr.add_lemma(x, 2);
            // ¬x@2 is in F_1 too, so y at 1 is re-asked and pushed.
            assert_eq!(pdr.propagate(), Some(2));
            let y = high(pdr, "y");
            assert_eq!(level(pdr, &y), 3, "y was not re-asked at 1");
            assert_eq!(pdr.stats.solve_calls, 3 + 5);
            assert_eq!(pdr.stats.pushes_skipped, 3);
        });
    }

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
