//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The implementation follows the standard MiniSat recipe, with the hot
//! paths tuned for the incremental query streams of BMC and PDR: two
//! watched literals with *blocking literals* and a dedicated inline
//! binary-clause watch scheme, first-UIP conflict analysis with
//! recursive (self-subsuming) clause minimization, non-chronological
//! backjumping, exponential VSIDS variable activity served from an
//! indexed binary max-heap, LBD ("glue") scoring with periodic learned
//! clause database reduction, phase saving and Luby (or geometric)
//! restarts. Every heuristic is a [`SolverConfig`] knob, so engines can
//! ablate them individually; [`SolverConfig::baseline`] reproduces the
//! pre-optimization behaviour for the `exp_solver_opts` experiment.
//!
//! Incrementality is first-class: level-0 assignments (unit consequences)
//! persist across [`Solver::solve_under_assumptions`] calls, so a query
//! stream that does not add clauses between calls — PDR issues thousands
//! of such queries per proof — pays a backtrack to level 0, not a full
//! O(vars) reset plus an O(clauses) unit re-scan.

use ipcl_expr::{ClauseSink, Cnf, Lit};
use ipcl_trace::{Heartbeat, MetricSink, Tracer, Value};

/// Minimum spacing of the live-progress `heartbeat` events (the `--watch`
/// feed). Shared by every engine in the workspace so one watch line ticks
/// at a uniform rate.
pub const HEARTBEAT_MS: u64 = 250;

/// Result of [`Solver::solve`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// Satisfiable; the vector gives one value per CNF variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// Whether the result is satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// Restart schedule of the CDCL search.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RestartStrategy {
    /// Luby sequence scaled by `unit` conflicts (the default): the
    /// universally near-optimal schedule for unknown runtime
    /// distributions, and measurably better than geometric on the hard
    /// combinatorial instances (pigeonhole) of the E11 experiment.
    Luby {
        /// Conflicts per Luby unit.
        unit: u64,
    },
    /// Geometric schedule: restart after `first` conflicts, growing by
    /// `factor_percent`/100 each time. The pre-optimization default,
    /// kept as an ablation option.
    Geometric {
        /// Conflicts before the first restart.
        first: u64,
        /// Growth factor in percent (150 = ×1.5).
        factor_percent: u64,
    },
}

impl RestartStrategy {
    fn initial(self) -> u64 {
        match self {
            RestartStrategy::Luby { unit } => luby(0) * unit,
            RestartStrategy::Geometric { first, .. } => first,
        }
    }

    fn next(self, restarts_done: u64, current: u64) -> u64 {
        match self {
            RestartStrategy::Luby { unit } => luby(restarts_done) * unit,
            RestartStrategy::Geometric { factor_percent, .. } => (current * factor_percent) / 100,
        }
    }
}

/// The Luby sequence 1, 1, 2, 1, 1, 2, 4, … (0-indexed).
fn luby(x: u64) -> u64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = x;
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// Heuristic knobs of the CDCL search. All default to the optimized
/// configuration; [`SolverConfig::baseline`] reproduces the
/// pre-optimization solver for ablation experiments.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SolverConfig {
    /// Reuse each variable's last polarity for decisions (on by default).
    /// With it off, decisions always try `false` first.
    pub phase_saving: bool,
    /// Serve decisions from an indexed binary max-heap on VSIDS activity
    /// (on by default). With it off, every decision pays an O(vars) scan.
    pub heap_decisions: bool,
    /// Recursive self-subsuming conflict-clause minimization (on by
    /// default): literals of the learned clause whose reason chains are
    /// dominated by the remaining literals are dropped.
    pub minimize: bool,
    /// Periodically delete the worst half of the learned clauses, keeping
    /// glue (LBD ≤ 2), binary and locked clauses (on by default).
    pub reduce_db: bool,
    /// Learned-clause count that arms the first reduction; the limit
    /// grows ×1.5 after each reduction.
    pub reduce_base: u64,
    /// Restart schedule.
    pub restart: RestartStrategy,
    /// Emulate the pre-optimization per-call overhead: clear *all*
    /// assignments (including level 0) and re-scan every clause for units
    /// on each `solve` call. Off by default; `baseline()` turns it on so
    /// `exp_solver_opts` can quantify the cost on PDR's query stream.
    pub legacy_reset: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            phase_saving: true,
            heap_decisions: true,
            minimize: true,
            reduce_db: true,
            reduce_base: 2000,
            restart: RestartStrategy::Luby { unit: 100 },
            legacy_reset: false,
        }
    }
}

impl SolverConfig {
    /// The pre-optimization solver: linear-scan decisions, no
    /// minimization, no database reduction, geometric restarts, and the
    /// full per-call reset + unit re-scan.
    pub fn baseline() -> Self {
        SolverConfig {
            phase_saving: true,
            heap_decisions: false,
            minimize: false,
            reduce_db: false,
            reduce_base: 2000,
            restart: RestartStrategy::Geometric {
                first: 100,
                factor_percent: 150,
            },
            legacy_reset: true,
        }
    }
}

/// Search statistics accumulated during solving.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals implied by unit propagation (non-binary clauses).
    pub propagations: u64,
    /// Number of literals implied by the inline binary-clause scheme.
    pub binary_propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of learned clauses currently stored.
    pub learned_clauses: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned-clause database reductions performed.
    pub reductions: u64,
    /// Learned clauses deleted by database reductions.
    pub removed_clauses: u64,
    /// Literals removed from learned clauses by minimization.
    pub minimized_literals: u64,
    /// Clauses learned *elsewhere* and injected via
    /// [`Solver::import_clause`] (parallel clause exchange).
    pub imported_clauses: u64,
    /// Locally learned clauses handed out through
    /// [`Solver::take_shared`] for other solvers to import.
    pub exported_clauses: u64,
}

impl SolverStats {
    /// The change since `prev`, an earlier snapshot of the same solver.
    ///
    /// The solver accumulates stats across incremental calls; callers that
    /// want per-call (or per-depth) numbers snapshot [`Solver::stats`]
    /// before the call and diff afterwards. `learned_clauses` tracks the
    /// *currently stored* count and can shrink across a database
    /// reduction, so every field diffs saturating.
    pub fn delta(&self, prev: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(prev.decisions),
            propagations: self.propagations.saturating_sub(prev.propagations),
            binary_propagations: self
                .binary_propagations
                .saturating_sub(prev.binary_propagations),
            conflicts: self.conflicts.saturating_sub(prev.conflicts),
            learned_clauses: self.learned_clauses.saturating_sub(prev.learned_clauses),
            restarts: self.restarts.saturating_sub(prev.restarts),
            reductions: self.reductions.saturating_sub(prev.reductions),
            removed_clauses: self.removed_clauses.saturating_sub(prev.removed_clauses),
            minimized_literals: self
                .minimized_literals
                .saturating_sub(prev.minimized_literals),
            imported_clauses: self.imported_clauses.saturating_sub(prev.imported_clauses),
            exported_clauses: self.exported_clauses.saturating_sub(prev.exported_clauses),
        }
    }

    /// Emits every field as a `<prefix>.<field>` counter into `sink`.
    pub fn emit(&self, sink: &dyn MetricSink, prefix: &str) {
        sink.counter(&format!("{prefix}.decisions"), self.decisions);
        sink.counter(&format!("{prefix}.propagations"), self.propagations);
        sink.counter(
            &format!("{prefix}.binary_propagations"),
            self.binary_propagations,
        );
        sink.counter(&format!("{prefix}.conflicts"), self.conflicts);
        sink.counter(&format!("{prefix}.restarts"), self.restarts);
        sink.counter(&format!("{prefix}.reductions"), self.reductions);
        sink.counter(&format!("{prefix}.removed_clauses"), self.removed_clauses);
        sink.counter(
            &format!("{prefix}.minimized_literals"),
            self.minimized_literals,
        );
        sink.counter(&format!("{prefix}.imported_clauses"), self.imported_clauses);
        sink.counter(&format!("{prefix}.exported_clauses"), self.exported_clauses);
    }
}

const UNASSIGNED_LEVEL: u32 = u32::MAX;

/// Longest clause the sharing capture will stage for export: long clauses
/// prune little and cost every importer watch-list work.
pub const SHARE_MAX_LEN: usize = 8;

/// Bound on the export staging queue; candidates learned past it are
/// silently dropped until the owner drains with [`Solver::take_shared`].
const SHARE_QUEUE_CAP: usize = 1024;

#[derive(Clone, Debug)]
struct Clause {
    literals: Vec<Lit>,
    learned: bool,
    /// Literal-block distance at learn time (0 for original clauses).
    lbd: u32,
}

/// A watcher entry: the clause index plus a *blocking literal* — some
/// other literal of the clause; when it is already true the clause is
/// satisfied and the watcher is kept without touching clause memory.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    blocker: Lit,
    clause: u32,
}

/// A CDCL SAT solver with incremental clause addition and solving under
/// assumptions.
///
/// Construct with [`Solver::from_cnf`] (or empty with [`Solver::new`]), then
/// call [`Solver::solve`] / [`Solver::solve_under_assumptions`]. The solver
/// is designed for *incremental* use, the pattern of bounded model checking
/// and PDR:
///
/// * [`Solver::add_clause`] may be called between `solve` calls to extend
///   the formula (e.g. with the next unrolled time frame);
/// * learned clauses are retained across calls, so later queries reuse the
///   conflict analysis work of earlier ones;
/// * level-0 assignments persist across calls: a query stream that does not
///   mutate the clause database (PDR's consecution queries) pays only a
///   backtrack to level 0 per call, not a full reset and unit re-scan;
/// * [`Solver::solve_under_assumptions`] decides satisfiability under a set
///   of temporarily-forced literals without polluting the clause database,
///   so per-depth property activations can be retracted for the next depth.
#[derive(Clone, Debug)]
pub struct Solver {
    num_vars: usize,
    clauses: Vec<Clause>,
    /// Number of original (non-learned) clauses.
    original_clauses: usize,
    /// Watch lists for clauses of three or more literals, indexed by the
    /// watched literal's code.
    watches: Vec<Vec<Watcher>>,
    /// Binary-clause watch lists: `bin_watches[l.code()]` holds, for every
    /// binary clause containing `l`, the *other* literal (implied as soon
    /// as `l` is falsified) and the clause index (the reason).
    bin_watches: Vec<Vec<(Lit, u32)>>,
    /// Current partial assignment; indexed by variable.
    values: Vec<Option<bool>>,
    /// Decision level of each assigned variable.
    levels: Vec<u32>,
    /// Reason clause of each propagated variable.
    reasons: Vec<Option<u32>>,
    /// Assignment trail.
    trail: Vec<Lit>,
    /// Index into `trail` marking each decision level.
    trail_lim: Vec<usize>,
    /// Next trail position to propagate.
    propagate_head: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    activity_inc: f64,
    /// Saved phases for phase-saving heuristic.
    phases: Vec<bool>,
    /// Indexed binary max-heap of unassigned variables, keyed on activity.
    heap: Vec<u32>,
    /// Position of each variable in `heap` (-1 when absent).
    heap_pos: Vec<i32>,
    /// Reusable conflict-analysis marker, cleared via `to_clear`.
    seen: Vec<bool>,
    /// Variables marked `seen` by the current analysis.
    to_clear: Vec<u32>,
    /// Reusable DFS stack of the minimization check.
    min_stack: Vec<Lit>,
    /// Level stamps for O(len) LBD computation.
    lbd_stamp: Vec<u64>,
    lbd_counter: u64,
    /// Learned clauses currently stored (drives database reduction).
    learned_count: u64,
    /// Learned-clause count arming the next reduction.
    reduce_limit: u64,
    /// The formula is unsatisfiable independent of assumptions.
    unsat: bool,
    /// The failed-assumption core of the last solve; see
    /// [`Solver::failed_assumptions`].
    failed: Vec<Lit>,
    /// Maximum LBD of locally learned clauses copied into `share_queue`
    /// for export (0 — the default — disables capture entirely).
    share_max_lbd: u32,
    /// Export staging: freshly learned clauses passing the LBD/length
    /// filter, drained by [`Solver::take_shared`]. Bounded; overflow drops
    /// the candidate (sharing is best-effort, never required for
    /// soundness).
    share_queue: Vec<(Vec<Lit>, u32)>,
    config: SolverConfig,
    stats: SolverStats,
    /// Observability handle; [`Tracer::disabled`] (the default) costs one
    /// branch per recording site.
    tracer: Tracer,
    /// Rate limiter of the live-progress `heartbeat` events (checked at
    /// restarts only, so the search loop never reads the clock).
    heartbeat: Heartbeat,
    /// Stats at the last heartbeat, for since-last-beat deltas.
    beat_base: SolverStats,
    /// Variables handed out through [`ClauseSink::new_var`]: the universe
    /// grows to this count at the next solve.
    sink_vars: usize,
    /// Clauses added through [`ClauseSink::add_clause`] since the last
    /// solve, flat; `queued_ends[i]` is where clause `i` ends in `queued`.
    queued: Vec<Lit>,
    queued_ends: Vec<usize>,
}

impl Solver {
    /// Builds an empty solver over `num_vars` variables (use
    /// [`Solver::add_clause`] to populate it incrementally).
    pub fn new(num_vars: usize) -> Self {
        Solver::with_config(num_vars, SolverConfig::default())
    }

    /// Builds an empty solver with an explicit heuristic configuration.
    pub fn with_config(num_vars: usize, config: SolverConfig) -> Self {
        let mut solver = Solver {
            num_vars: 0,
            clauses: Vec::new(),
            original_clauses: 0,
            watches: Vec::new(),
            bin_watches: Vec::new(),
            values: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            propagate_head: 0,
            activity: Vec::new(),
            activity_inc: 1.0,
            phases: Vec::new(),
            heap: Vec::new(),
            heap_pos: Vec::new(),
            seen: Vec::new(),
            to_clear: Vec::new(),
            min_stack: Vec::new(),
            lbd_stamp: Vec::new(),
            lbd_counter: 0,
            learned_count: 0,
            reduce_limit: config.reduce_base.max(1),
            unsat: false,
            failed: Vec::new(),
            share_max_lbd: 0,
            share_queue: Vec::new(),
            config,
            stats: SolverStats::default(),
            tracer: Tracer::disabled(),
            heartbeat: Heartbeat::every_ms(HEARTBEAT_MS),
            beat_base: SolverStats::default(),
            sink_vars: 0,
            queued: Vec::new(),
            queued_ends: Vec::new(),
        };
        solver.reserve_vars(num_vars);
        solver
    }

    /// Builds a solver for `cnf`.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        Self::from_cnf_with_config(cnf, SolverConfig::default())
    }

    /// Builds a solver for `cnf` with an explicit configuration.
    pub fn from_cnf_with_config(cnf: &Cnf, config: SolverConfig) -> Self {
        let mut solver = Solver::with_config(cnf.num_vars as usize, config);
        for clause in &cnf.clauses {
            solver.add_clause(clause.iter().copied());
        }
        solver
    }

    /// Search statistics of the most recent [`Solver::solve`] call(s).
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The number of variables the solver knows about.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The number of stored clauses (original plus learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The active heuristic configuration.
    pub fn config(&self) -> SolverConfig {
        self.config
    }

    /// Installs an observability handle. Each [`Solver::solve`] call then
    /// runs under a profile-only `sat.solve` span and logs
    /// `solver_restart` / `learned_reduction` events. The default
    /// [`Tracer::disabled`] costs one branch per site.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Replaces the heuristic configuration (callable between `solve`s).
    /// The learned-clause reduction limit re-arms from the new
    /// `reduce_base`, so switching to a smaller base takes effect at the
    /// next restart (growth from earlier reductions is discarded).
    pub fn set_config(&mut self, config: SolverConfig) {
        self.config = config;
        self.reduce_limit = config.reduce_base.max(1);
        self.rebuild_heap();
    }

    /// Enables or disables phase saving (on by default).
    ///
    /// With phase saving on, a decision variable is assigned the polarity it
    /// last held, so after a restart or backjump the search re-enters the
    /// part of the space it was exploring — the standard MiniSat heuristic,
    /// and a measurable win on the incremental workloads of BMC and PDR
    /// where consecutive queries differ only in their assumptions (see
    /// `exp_pdr_vs_kinduction` in EXPERIMENTS.md for the ablation). With it
    /// off, decisions always try `false` first.
    pub fn set_phase_saving(&mut self, enabled: bool) {
        self.config.phase_saving = enabled;
    }

    /// Whether phase saving is enabled.
    pub fn phase_saving(&self) -> bool {
        self.config.phase_saving
    }

    /// Grows the variable universe to at least `num_vars` variables.
    ///
    /// New variables are unconstrained until clauses mention them. Existing
    /// clauses, learned clauses and saved phases are preserved, which is what
    /// makes the solver usable incrementally: a bounded-model-checking loop
    /// adds the variables and clauses of one more time frame, then re-solves.
    pub fn reserve_vars(&mut self, num_vars: usize) {
        if num_vars <= self.num_vars {
            return;
        }
        let old = self.num_vars;
        self.num_vars = num_vars;
        self.watches.resize(2 * num_vars, Vec::new());
        self.bin_watches.resize(2 * num_vars, Vec::new());
        self.values.resize(num_vars, None);
        self.levels.resize(num_vars, UNASSIGNED_LEVEL);
        self.reasons.resize(num_vars, None);
        self.activity.resize(num_vars, 0.0);
        self.phases.resize(num_vars, false);
        self.seen.resize(num_vars, false);
        self.heap_pos.resize(num_vars, -1);
        for var in old..num_vars {
            self.heap_insert(var as u32);
        }
    }

    /// Adds a clause to the database now. May be called between `solve`
    /// calls; variables beyond the current universe grow it automatically.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, literals: I) {
        let literals: Vec<Lit> = literals.into_iter().collect();
        if let Some(max_var) = literals.iter().map(|l| l.var()).max() {
            self.reserve_vars(max_var as usize + 1);
        }
        // Mutating the database invalidates any in-flight search state above
        // level 0; level-0 consequences stay valid (clauses are only added).
        self.backtrack_to(0);
        if self.insert_clause(literals, 0) {
            self.original_clauses += 1;
        }
    }

    /// Injects a clause learned *elsewhere* — by another solver working on
    /// the same (or a weaker) formula, typically a parallel-PDR sibling
    /// worker. The clause is stored permanently with the given literal-block
    /// distance: unlike locally learned clauses it is **not** eligible for
    /// database reduction, because a foreign lemma cannot be re-derived by
    /// this solver's own conflict analysis, and parallel engines rely on an
    /// imported frame lemma staying in force for determinism.
    ///
    /// The caller is responsible for soundness: the clause must be implied
    /// by (a sound extension of) this solver's formula. Returns whether the
    /// clause was kept (tautologies and clauses satisfied at level 0
    /// simplify away exactly like [`Solver::add_clause`]).
    pub fn import_clause<I: IntoIterator<Item = Lit>>(&mut self, literals: I, lbd: u32) -> bool {
        let literals: Vec<Lit> = literals.into_iter().collect();
        if let Some(max_var) = literals.iter().map(|l| l.var()).max() {
            self.reserve_vars(max_var as usize + 1);
        }
        self.backtrack_to(0);
        let kept = self.insert_clause(literals, lbd);
        if kept {
            // Imports count as "original" for the reduction bookkeeping
            // (they are never removed), but separately in the stats.
            self.original_clauses += 1;
            self.stats.imported_clauses += 1;
        }
        kept
    }

    /// Arms the clause-sharing capture: locally learned clauses with
    /// `LBD ≤ max_lbd` (and at most [`SHARE_MAX_LEN`] literals) are copied
    /// into an internal bounded queue as they are learned, to be drained by
    /// [`Solver::take_shared`] and offered to sibling solvers. `0` (the
    /// default) disables capture — the search loop then never touches the
    /// queue.
    pub fn set_clause_sharing(&mut self, max_lbd: u32) {
        self.share_max_lbd = max_lbd;
    }

    /// Drains the captured share candidates: `(literals, lbd)` pairs of
    /// locally learned clauses that passed the [`Solver::set_clause_sharing`]
    /// filter since the last drain. The clauses are implied by the clause
    /// database as it stood when they were learned, so they are sound to
    /// [`Solver::import_clause`] into any solver whose database is a
    /// superset of this one's *at the time of learning* — parallel-PDR
    /// callers additionally filter by variable range to stay within the
    /// encoding region all workers share.
    pub fn take_shared(&mut self) -> Vec<(Vec<Lit>, u32)> {
        self.stats.exported_clauses += self.share_queue.len() as u64;
        std::mem::take(&mut self.share_queue)
    }

    /// Stores a (deduplicated, non-tautological, level-0-simplified)
    /// clause; returns whether it was kept. Units are enqueued at level 0
    /// immediately, which is what lets `solve` skip the per-call unit
    /// re-scan of the whole database. `lbd` is recorded on the stored
    /// clause (0 for original clauses, the foreign LBD for imports).
    fn insert_clause(&mut self, mut literals: Vec<Lit>, lbd: u32) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        literals.sort_unstable();
        literals.dedup();
        // A clause containing x and !x is a tautology: drop it.
        if literals
            .windows(2)
            .any(|w| w[0].var() == w[1].var() && w[0] != w[1])
        {
            return false;
        }
        // Drop literals already false at level 0 (their assignments are
        // permanent consequences of earlier clauses, so this is sound).
        literals.retain(|&l| !(self.value_of(l) == Some(false) && self.level_of(l) == 0));
        match literals.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                let unit = literals[0];
                let index = self.clauses.len() as u32;
                self.clauses.push(Clause {
                    literals,
                    learned: false,
                    lbd,
                });
                if !self.enqueue(unit, Some(index)) {
                    self.unsat = true;
                }
                true
            }
            _ => {
                let index = self.clauses.len() as u32;
                self.clauses.push(Clause {
                    literals,
                    learned: false,
                    lbd,
                });
                self.attach_clause(index);
                true
            }
        }
    }

    /// Registers the watches of clause `index` (two or more literals).
    fn attach_clause(&mut self, index: u32) {
        let clause = &self.clauses[index as usize];
        if clause.literals.len() == 2 {
            let (a, b) = (clause.literals[0], clause.literals[1]);
            self.bin_watches[a.code()].push((b, index));
            self.bin_watches[b.code()].push((a, index));
        } else {
            let (w0, w1) = (clause.literals[0], clause.literals[1]);
            self.watches[w0.code()].push(Watcher {
                blocker: w1,
                clause: index,
            });
            self.watches[w1.code()].push(Watcher {
                blocker: w0,
                clause: index,
            });
        }
    }

    fn value_of(&self, lit: Lit) -> Option<bool> {
        self.values[lit.var() as usize].map(|v| v == lit.is_positive())
    }

    fn level_of(&self, lit: Lit) -> u32 {
        self.levels[lit.var() as usize]
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<u32>) -> bool {
        match self.value_of(lit) {
            Some(true) => true,
            Some(false) => false,
            None => {
                let var = lit.var() as usize;
                self.values[var] = Some(lit.is_positive());
                self.levels[var] = self.decision_level();
                self.reasons[var] = reason;
                self.phases[var] = lit.is_positive();
                self.trail.push(lit);
                true
            }
        }
    }

    // ---- indexed binary max-heap on VSIDS activity -----------------------

    fn heap_less(&self, a: u32, b: u32) -> bool {
        self.activity[a as usize] < self.activity[b as usize]
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i] as usize] = i as i32;
        self.heap_pos[self.heap[j] as usize] = j as i32;
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[parent], self.heap[i]) {
                self.heap_swap(parent, i);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let (left, right) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if left < self.heap.len() && self.heap_less(self.heap[largest], self.heap[left]) {
                largest = left;
            }
            if right < self.heap.len() && self.heap_less(self.heap[largest], self.heap[right]) {
                largest = right;
            }
            if largest == i {
                break;
            }
            self.heap_swap(i, largest);
            i = largest;
        }
    }

    fn heap_insert(&mut self, var: u32) {
        if self.heap_pos[var as usize] >= 0 {
            return;
        }
        self.heap_pos[var as usize] = self.heap.len() as i32;
        self.heap.push(var);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        self.heap_pos[top as usize] = -1;
        let last = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn rebuild_heap(&mut self) {
        for p in &mut self.heap_pos {
            *p = -1;
        }
        self.heap.clear();
        for var in 0..self.num_vars {
            if self.values[var].is_none() {
                self.heap_pos[var] = self.heap.len() as i32;
                self.heap.push(var as u32);
            }
        }
        if self.heap.len() > 1 {
            for i in (0..self.heap.len() / 2).rev() {
                self.heap_sift_down(i);
            }
        }
    }

    // ---- propagation -----------------------------------------------------

    /// Unit propagation; returns the index of a conflicting clause, if any.
    ///
    /// Binary clauses propagate inline from their dedicated watch lists
    /// (one cache line, no clause-memory touch); longer clauses use the
    /// blocking-literal watcher scheme with the watched pair kept in the
    /// clause's first two positions. The watcher list is compacted in
    /// place — no per-propagation allocation.
    fn propagate(&mut self) -> Option<u32> {
        while self.propagate_head < self.trail.len() {
            let lit = self.trail[self.propagate_head];
            self.propagate_head += 1;
            let falsified = lit.negated();

            // Binary clauses: the other literal is implied immediately.
            for i in 0..self.bin_watches[falsified.code()].len() {
                let (other, index) = self.bin_watches[falsified.code()][i];
                match self.value_of(other) {
                    Some(true) => {}
                    Some(false) => return Some(index),
                    None => {
                        self.stats.binary_propagations += 1;
                        self.enqueue(other, Some(index));
                    }
                }
            }

            let mut ws = std::mem::take(&mut self.watches[falsified.code()]);
            let mut conflict = None;
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Blocking literal: clause already satisfied, keep watcher.
                if self.value_of(w.blocker) == Some(true) {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let ci = w.clause as usize;
                // Make sure the falsified literal is in position 1.
                {
                    let lits = &mut self.clauses[ci].literals;
                    if lits[0] == falsified {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], falsified);
                }
                let first = self.clauses[ci].literals[0];
                let w = Watcher {
                    blocker: first,
                    clause: w.clause,
                };
                if self.value_of(first) == Some(true) {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses[ci].literals.len();
                for k in 2..len {
                    let candidate = self.clauses[ci].literals[k];
                    if self.value_of(candidate) != Some(false) {
                        self.clauses[ci].literals.swap(1, k);
                        self.watches[candidate.code()].push(w);
                        continue 'watchers;
                    }
                }
                // No new watch: the clause is unit (propagate `first`) or
                // conflicting.
                ws[j] = w;
                j += 1;
                if self.value_of(first) == Some(false) {
                    conflict = Some(w.clause);
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    break;
                }
                self.stats.propagations += 1;
                self.enqueue(first, Some(w.clause));
            }
            ws.truncate(j);
            self.watches[falsified.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    // ---- conflict analysis ----------------------------------------------

    fn bump_activity(&mut self, var: usize) {
        self.activity[var] += self.activity_inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.activity_inc *= 1e-100;
        }
        let pos = self.heap_pos[var];
        if pos >= 0 {
            self.heap_sift_up(pos as usize);
        }
    }

    fn decay_activity(&mut self) {
        self.activity_inc /= 0.95;
    }

    fn mark_seen(&mut self, var: u32) {
        if !self.seen[var as usize] {
            self.seen[var as usize] = true;
            self.to_clear.push(var);
        }
    }

    /// First-UIP conflict analysis with (optional) recursive minimization.
    /// Returns the learned clause (asserting literal first, a
    /// backjump-level literal second), the level to backjump to and the
    /// clause's LBD.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32, u32) {
        let current_level = self.decision_level();
        let mut learned: Vec<Lit> = Vec::new();
        debug_assert!(self.to_clear.is_empty());
        let mut counter = 0usize;
        let mut resolve_var: Option<u32> = None;
        let mut clause_index = conflict as usize;
        let mut trail_pos = self.trail.len();

        loop {
            for k in 0..self.clauses[clause_index].literals.len() {
                let lit = self.clauses[clause_index].literals[k];
                let var = lit.var();
                if Some(var) == resolve_var {
                    continue;
                }
                if self.seen[var as usize] || self.levels[var as usize] == 0 {
                    continue;
                }
                self.mark_seen(var);
                self.bump_activity(var as usize);
                if self.levels[var as usize] == current_level {
                    counter += 1;
                } else {
                    learned.push(lit);
                }
            }
            // Walk the trail backwards to the most recently assigned literal
            // still marked `seen`; that is the next resolution pivot.
            let pivot = loop {
                trail_pos -= 1;
                let lit = self.trail[trail_pos];
                if self.seen[lit.var() as usize] {
                    self.seen[lit.var() as usize] = false;
                    counter -= 1;
                    break lit;
                }
            };
            if counter == 0 {
                // `pivot` is the first unique implication point.
                learned.insert(0, pivot.negated());
                break;
            }
            resolve_var = Some(pivot.var());
            clause_index = self.reasons[pivot.var() as usize]
                .expect("propagated literal has a reason clause")
                as usize;
        }

        if self.config.minimize && learned.len() > 1 {
            let before = learned.len();
            let mut keep = 1;
            for i in 1..learned.len() {
                let lit = learned[i];
                if !self.lit_redundant(lit) {
                    learned[keep] = lit;
                    keep += 1;
                }
            }
            learned.truncate(keep);
            self.stats.minimized_literals += (before - keep) as u64;
        }

        // Place a maximal-level literal second so it is a valid watch after
        // the backjump (it is exactly the literal that becomes unassigned
        // last).
        let mut backjump = 0;
        if learned.len() > 1 {
            let mut max_index = 1;
            for i in 2..learned.len() {
                if self.levels[learned[i].var() as usize]
                    > self.levels[learned[max_index].var() as usize]
                {
                    max_index = i;
                }
            }
            learned.swap(1, max_index);
            backjump = self.levels[learned[1].var() as usize];
        }

        let lbd = self.compute_lbd(&learned);
        for i in 0..self.to_clear.len() {
            let var = self.to_clear[i];
            self.seen[var as usize] = false;
        }
        self.to_clear.clear();
        (learned, backjump, lbd)
    }

    /// Whether `lit` of the learned clause is redundant: every path through
    /// its reason chain terminates in level-0 assignments or in literals
    /// already marked `seen` (i.e. already in the clause or proven
    /// redundant) — the recursive self-subsumption check of MiniSat,
    /// iterative over the reusable DFS stack.
    fn lit_redundant(&mut self, lit: Lit) -> bool {
        if self.reasons[lit.var() as usize].is_none() {
            return false;
        }
        self.min_stack.clear();
        self.min_stack.push(lit);
        let undo_from = self.to_clear.len();
        while let Some(l) = self.min_stack.pop() {
            let ci =
                self.reasons[l.var() as usize].expect("stacked literals have reasons") as usize;
            for k in 0..self.clauses[ci].literals.len() {
                let p = self.clauses[ci].literals[k];
                let var = p.var();
                if var == l.var() || self.levels[var as usize] == 0 || self.seen[var as usize] {
                    continue;
                }
                if self.reasons[var as usize].is_none() {
                    // Reached a decision outside the clause: not redundant.
                    // Undo only the marks added by this check.
                    for i in undo_from..self.to_clear.len() {
                        let v = self.to_clear[i];
                        self.seen[v as usize] = false;
                    }
                    self.to_clear.truncate(undo_from);
                    return false;
                }
                self.mark_seen(var);
                self.min_stack.push(p);
            }
        }
        true
    }

    /// Literal-block distance: number of distinct decision levels among the
    /// clause's literals.
    fn compute_lbd(&mut self, literals: &[Lit]) -> u32 {
        self.lbd_counter += 1;
        let mut lbd = 0;
        for &lit in literals {
            let level = self.levels[lit.var() as usize] as usize;
            if level >= self.lbd_stamp.len() {
                self.lbd_stamp.resize(level + 1, 0);
            }
            if self.lbd_stamp[level] != self.lbd_counter {
                self.lbd_stamp[level] = self.lbd_counter;
                lbd += 1;
            }
        }
        lbd
    }

    // ---- learned-clause database reduction ------------------------------

    /// Deletes the worst half of the deletable learned clauses (by LBD,
    /// then length), keeping binary, glue (LBD ≤ 2) and locked (currently
    /// a reason) clauses. Must run at decision level 0; watch lists are
    /// rebuilt and reasons remapped.
    fn reduce_db(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let mut locked = vec![false; self.clauses.len()];
        for &lit in &self.trail {
            if let Some(reason) = self.reasons[lit.var() as usize] {
                locked[reason as usize] = true;
            }
        }
        let mut candidates: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                c.learned && c.literals.len() > 2 && c.lbd > 2 && !locked[i as usize]
            })
            .collect();
        candidates.sort_by_key(|&i| {
            let c = &self.clauses[i as usize];
            std::cmp::Reverse((c.lbd, c.literals.len() as u32))
        });
        let remove_count = candidates.len() / 2;
        if remove_count == 0 {
            return;
        }
        let mut removed = vec![false; self.clauses.len()];
        for &i in &candidates[..remove_count] {
            removed[i as usize] = true;
        }

        // Compact the database and remap indices.
        let mut remap = vec![u32::MAX; self.clauses.len()];
        let mut kept = Vec::with_capacity(self.clauses.len() - remove_count);
        for (old, clause) in std::mem::take(&mut self.clauses).into_iter().enumerate() {
            if !removed[old] {
                remap[old] = kept.len() as u32;
                kept.push(clause);
            }
        }
        self.clauses = kept;
        for &lit in &self.trail {
            let var = lit.var() as usize;
            if let Some(reason) = self.reasons[var] {
                self.reasons[var] = Some(remap[reason as usize]);
            }
        }
        // Rebuild the watch lists. At a fully propagated level 0 every
        // clause is either satisfied at level 0 or has at least two
        // non-false literals; move two non-false literals (or a satisfying
        // true literal) to the front so the watcher invariant holds.
        for list in &mut self.watches {
            list.clear();
        }
        for list in &mut self.bin_watches {
            list.clear();
        }
        for index in 0..self.clauses.len() {
            if self.clauses[index].literals.len() < 2 {
                continue;
            }
            {
                let values = &self.values;
                let lits = &mut self.clauses[index].literals;
                let is_false =
                    |l: Lit| values[l.var() as usize].map(|v| v == l.is_positive()) == Some(false);
                let mut front = 0;
                for k in 0..lits.len() {
                    if !is_false(lits[k]) {
                        lits.swap(front, k);
                        front += 1;
                        if front == 2 {
                            break;
                        }
                    }
                }
            }
            self.attach_clause(index as u32);
        }
        self.stats.reductions += 1;
        self.stats.removed_clauses += remove_count as u64;
        self.learned_count -= remove_count as u64;
        self.stats.learned_clauses -= remove_count as u64;
        self.tracer.event(
            "learned_reduction",
            &[
                ("removed", Value::U64(remove_count as u64)),
                ("remaining", Value::U64(self.learned_count)),
            ],
        );
    }

    // ---- search ----------------------------------------------------------

    fn backtrack_to(&mut self, level: u32) {
        while let Some(&lit) = self.trail.last() {
            let var = lit.var() as usize;
            if self.levels[var] <= level {
                break;
            }
            self.values[var] = None;
            self.levels[var] = UNASSIGNED_LEVEL;
            self.reasons[var] = None;
            if self.config.heap_decisions {
                self.heap_insert(var as u32);
            }
            self.trail.pop();
        }
        self.trail_lim.truncate(level as usize);
        self.propagate_head = self.propagate_head.min(self.trail.len());
    }

    fn pick_branch_variable(&mut self) -> Option<usize> {
        if self.config.heap_decisions {
            while let Some(var) = self.heap_pop() {
                if self.values[var as usize].is_none() {
                    return Some(var as usize);
                }
            }
            return None;
        }
        (0..self.num_vars)
            .filter(|&v| self.values[v].is_none())
            .max_by(|&a, &b| {
                self.activity[a]
                    .partial_cmp(&self.activity[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// The pre-optimization per-call reset: clear *every* assignment
    /// (including level 0) and re-derive the units by scanning the whole
    /// clause database. Kept behind [`SolverConfig::legacy_reset`] so the
    /// E11 experiment can measure what the persistent-level-0 scheme
    /// saves; returns `false` on an immediate unit conflict.
    fn legacy_reset_search(&mut self) -> bool {
        self.trail_lim.clear();
        for var in 0..self.num_vars {
            self.values[var] = None;
            self.levels[var] = UNASSIGNED_LEVEL;
            self.reasons[var] = None;
        }
        self.trail.clear();
        self.propagate_head = 0;
        if self.config.heap_decisions {
            self.rebuild_heap();
        }
        for index in 0..self.clauses.len() {
            if self.clauses[index].literals.len() == 1 {
                let unit = self.clauses[index].literals[0];
                if !self.enqueue(unit, Some(index as u32)) {
                    return false;
                }
            }
        }
        true
    }

    /// Decides satisfiability of the formula.
    ///
    /// Returns [`SatResult::Sat`] with a model assigning every CNF variable,
    /// or [`SatResult::Unsat`]. What arrived through the solver's
    /// [`ClauseSink`] since the last solve goes in first: every new
    /// variable, then the queued clauses in order.
    pub fn solve(&mut self) -> SatResult {
        self.solve_under_assumptions(&[])
    }

    /// Decides satisfiability under temporarily-forced `assumptions`.
    ///
    /// Assumptions are enqueued as pseudo-decisions below every search
    /// decision (the MiniSat discipline), so learned clauses never depend on
    /// them and remain valid for later calls with different assumptions —
    /// the key property for incremental bounded model checking, where each
    /// depth activates a different property literal.
    ///
    /// Between calls the solver keeps its level-0 trail (the accumulated
    /// unit consequences): when no clauses were added since the previous
    /// call, re-solving starts with a backtrack to level 0 instead of a
    /// full reset and an O(clauses) unit re-scan.
    ///
    /// Returns [`SatResult::Unsat`] if the formula is unsatisfiable *under
    /// the assumptions* (the formula itself may still be satisfiable);
    /// [`Solver::failed_assumptions`] then names the assumptions it used.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        if !self.tracer.is_enabled() {
            return self.search(assumptions);
        }
        // Profile-only span: PDR issues thousands of sub-millisecond
        // queries per proof, so per-call events would swamp the log.
        // Engines emit the accumulated stats as `sat.*` counters once per
        // run via [`SolverStats::emit`].
        let tracer = self.tracer.clone();
        let _span = tracer.span_fast("sat.solve");
        self.emit_heartbeat();
        self.search(assumptions)
    }

    /// Emits a live-progress `heartbeat` event (rate-limited; see
    /// [`Heartbeat`]) carrying the conflict/restart/propagation work done
    /// since the last beat, plus running totals. Checked at restarts and
    /// at traced `solve` entries only, so the inner search loop never
    /// reads the clock.
    fn emit_heartbeat(&mut self) {
        if !self.heartbeat.due(&self.tracer) {
            return;
        }
        let delta = self.stats.delta(&self.beat_base);
        self.tracer.event(
            "heartbeat",
            &[
                ("engine", Value::from("sat")),
                ("conflicts", Value::U64(delta.conflicts)),
                ("restarts", Value::U64(delta.restarts)),
                (
                    "propagations",
                    Value::U64(delta.propagations + delta.binary_propagations),
                ),
                ("total_conflicts", Value::U64(self.stats.conflicts)),
                ("total_restarts", Value::U64(self.stats.restarts)),
            ],
        );
        self.beat_base = self.stats;
    }

    /// Takes in what arrived through the [`ClauseSink`] since the last
    /// solve: first every new variable, then the clauses in the order they
    /// came. That is the order in which a finished formula is copied in
    /// ([`Solver::from_cnf`]), so an encoder writing straight into the
    /// solver gets the same search. Taking variables or clauses in as
    /// they arrive would not: the heap insertions of new variables would
    /// interleave differently with the backtracks of clause insertion,
    /// which reorders VSIDS ties.
    fn take_queued(&mut self) {
        self.reserve_vars(self.sink_vars);
        if self.queued_ends.is_empty() {
            return;
        }
        let mut queued = std::mem::take(&mut self.queued);
        let mut ends = std::mem::take(&mut self.queued_ends);
        let mut start = 0;
        for &end in &ends {
            self.add_clause(queued[start..end].iter().copied());
            start = end;
        }
        queued.clear();
        ends.clear();
        self.queued = queued;
        self.queued_ends = ends;
    }

    /// The UNSAT core of the last solve over its assumptions: a subset of
    /// them under which the formula is already unsatisfiable. It is empty
    /// after a satisfiable answer and when the formula is unsatisfiable
    /// without assumptions. Read it right after the solve whose answer it
    /// explains; the next solve replaces it.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    /// Collects the core of an assumption found false — MiniSat's
    /// `analyzeFinal`: walk the trail back from `failed`'s complement and
    /// keep every assumption pseudo-decision in its implication cone.
    /// Only reads the search state, so it changes no later answer.
    fn analyze_final(&mut self, failed: Lit) {
        self.failed.push(failed);
        if self.level_of(failed) == 0 {
            return;
        }
        // Every assignment above level 0 is an assumption or follows from
        // assumptions: no search decision is made before all are placed.
        self.seen[failed.var() as usize] = true;
        for pos in (self.trail_lim[0]..self.trail.len()).rev() {
            let lit = self.trail[pos];
            let var = lit.var() as usize;
            if !self.seen[var] {
                continue;
            }
            self.seen[var] = false;
            match self.reasons[var] {
                None => self.failed.push(lit),
                Some(reason) => {
                    for k in 0..self.clauses[reason as usize].literals.len() {
                        let other = self.clauses[reason as usize].literals[k].var() as usize;
                        if other != var && self.levels[other] > 0 {
                            self.seen[other] = true;
                        }
                    }
                }
            }
        }
    }

    fn search(&mut self, assumptions: &[Lit]) -> SatResult {
        self.failed.clear();
        self.take_queued();
        if self.unsat {
            return SatResult::Unsat;
        }
        if let Some(max_var) = assumptions.iter().map(|l| l.var()).max() {
            self.reserve_vars(max_var as usize + 1);
        }
        if self.config.legacy_reset {
            if !self.legacy_reset_search() {
                self.unsat = true;
                return SatResult::Unsat;
            }
        } else {
            self.backtrack_to(0);
        }

        let mut restarts_done = 0u64;
        let mut conflicts_until_restart = self.config.restart.initial().max(1);
        let mut conflicts_since_restart = 0u64;

        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    // A level-0 conflict is assumption-free (assumptions
                    // live at pseudo-decision levels ≥ 1): the formula
                    // itself is unsatisfiable, permanently.
                    self.unsat = true;
                    return SatResult::Unsat;
                }
                let (learned, backjump_level, lbd) = self.analyze(conflict);
                self.backtrack_to(backjump_level);
                let asserting = learned[0];
                if learned.len() == 1 {
                    if !self.enqueue(asserting, None) {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                } else {
                    if self.share_max_lbd > 0
                        && lbd <= self.share_max_lbd
                        && learned.len() <= SHARE_MAX_LEN
                        && self.share_queue.len() < SHARE_QUEUE_CAP
                    {
                        self.share_queue.push((learned.clone(), lbd));
                    }
                    let index = self.clauses.len() as u32;
                    self.clauses.push(Clause {
                        literals: learned,
                        learned: true,
                        lbd,
                    });
                    self.attach_clause(index);
                    self.learned_count += 1;
                    self.stats.learned_clauses += 1;
                    let enqueued = self.enqueue(asserting, Some(index));
                    debug_assert!(enqueued, "asserting literal is unassigned after backjump");
                }
                self.decay_activity();
                if conflicts_since_restart >= conflicts_until_restart {
                    self.stats.restarts += 1;
                    restarts_done += 1;
                    self.tracer.event(
                        "solver_restart",
                        &[
                            ("restart", Value::U64(restarts_done)),
                            ("conflicts", Value::U64(self.stats.conflicts)),
                            ("interval", Value::U64(conflicts_until_restart)),
                        ],
                    );
                    self.emit_heartbeat();
                    conflicts_since_restart = 0;
                    conflicts_until_restart = self
                        .config
                        .restart
                        .next(restarts_done, conflicts_until_restart)
                        .max(1);
                    self.backtrack_to(0);
                    if self.config.reduce_db && self.learned_count >= self.reduce_limit {
                        self.reduce_db();
                        self.reduce_limit += self.reduce_limit / 2;
                    }
                }
            } else if (self.decision_level() as usize) < assumptions.len() {
                // Establish the next assumption as a pseudo-decision.
                let assumption = assumptions[self.decision_level() as usize];
                match self.value_of(assumption) {
                    Some(true) => {
                        // Already implied: open an empty level so assumption
                        // indices keep lining up with decision levels.
                        self.trail_lim.push(self.trail.len());
                    }
                    Some(false) => {
                        // The formula forces the complement: unsatisfiable
                        // under the assumptions.
                        self.analyze_final(assumption);
                        return SatResult::Unsat;
                    }
                    None => {
                        self.trail_lim.push(self.trail.len());
                        let enqueued = self.enqueue(assumption, None);
                        debug_assert!(enqueued, "assumption variable was unassigned");
                    }
                }
            } else {
                match self.pick_branch_variable() {
                    None => {
                        let model = (0..self.num_vars)
                            .map(|v| self.values[v].unwrap_or(false))
                            .collect();
                        return SatResult::Sat(model);
                    }
                    Some(var) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.config.phase_saving && self.phases[var];
                        let lit = Lit::new(var as u32, phase);
                        let enqueued = self.enqueue(lit, None);
                        debug_assert!(enqueued, "decision variable was unassigned");
                    }
                }
            }
        }
    }
}

/// An encoder can write its formula straight into the solver. Clauses
/// are queued in one flat buffer and go in at the next solve, after the
/// variables created since the last one; see [`Solver::solve`]. Clauses
/// added with [`Solver::add_clause`] or [`Solver::import_clause`] go in
/// at once, ahead of anything queued.
impl ClauseSink for Solver {
    fn new_var(&mut self) -> u32 {
        let var = self.sink_vars.max(self.num_vars);
        self.sink_vars = var + 1;
        var as u32
    }

    fn add_clause(&mut self, literals: &[Lit]) {
        self.queued.extend_from_slice(literals);
        self.queued_ends.push(self.queued.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_expr::{Cnf, Lit};

    fn lit(v: u32, positive: bool) -> Lit {
        Lit::new(v, positive)
    }

    /// The named configuration points of the feature matrix: every new
    /// heuristic individually off against the optimized default, plus the
    /// full pre-optimization baseline.
    fn config_matrix() -> Vec<(&'static str, SolverConfig)> {
        let default = SolverConfig::default();
        vec![
            ("default", default),
            (
                "no-heap",
                SolverConfig {
                    heap_decisions: false,
                    ..default
                },
            ),
            (
                "no-minimize",
                SolverConfig {
                    minimize: false,
                    ..default
                },
            ),
            (
                "reduce-every-clause",
                SolverConfig {
                    reduce_base: 1,
                    ..default
                },
            ),
            (
                "no-reduce",
                SolverConfig {
                    reduce_db: false,
                    ..default
                },
            ),
            (
                "geometric",
                SolverConfig {
                    restart: RestartStrategy::Geometric {
                        first: 2,
                        factor_percent: 150,
                    },
                    ..default
                },
            ),
            (
                "tiny-luby",
                SolverConfig {
                    restart: RestartStrategy::Luby { unit: 1 },
                    ..default
                },
            ),
            ("baseline", SolverConfig::baseline()),
        ]
    }

    #[test]
    fn empty_formula_is_sat() {
        let cnf = Cnf::new(3);
        let mut solver = Solver::from_cnf(&cnf);
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause([]);
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn unit_clauses() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, true)]);
        cnf.add_clause([lit(1, false)]);
        let mut solver = Solver::from_cnf(&cnf);
        match solver.solve() {
            SatResult::Sat(model) => {
                assert!(model[0]);
                assert!(!model[1]);
            }
            SatResult::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn contradictory_units_unsat() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause([lit(0, true)]);
        cnf.add_clause([lit(0, false)]);
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautological_clause_is_dropped() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause([lit(0, true), lit(0, false)]);
        let mut solver = Solver::from_cnf(&cnf);
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn simple_implication_chain() {
        // (x0) & (!x0 | x1) & (!x1 | x2) forces all true.
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(0, true)]);
        cnf.add_clause([lit(0, false), lit(1, true)]);
        cnf.add_clause([lit(1, false), lit(2, true)]);
        let mut solver = Solver::from_cnf(&cnf);
        match solver.solve() {
            SatResult::Sat(model) => assert_eq!(model, vec![true, true, true]),
            SatResult::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn binary_clauses_propagate_inline() {
        // The binary clauses precede the unit, so the chain is derived by
        // propagation through the dedicated binary watch lists (not by
        // insertion-time level-0 simplification).
        let mut solver = Solver::new(3);
        solver.add_clause([lit(0, false), lit(1, true)]);
        solver.add_clause([lit(1, false), lit(2, true)]);
        solver.add_clause([lit(0, true)]);
        match solver.solve() {
            SatResult::Sat(model) => assert_eq!(model, vec![true, true, true]),
            SatResult::Unsat => panic!("expected sat"),
        }
        assert!(solver.stats().binary_propagations >= 2);
    }

    #[test]
    fn unsat_requires_conflict_analysis() {
        // (a | b) & (a | !b) & (!a | b) & (!a | !b) is unsatisfiable.
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        cnf.add_clause([lit(0, true), lit(1, false)]);
        cnf.add_clause([lit(0, false), lit(1, true)]);
        cnf.add_clause([lit(0, false), lit(1, false)]);
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(solver.solve(), SatResult::Unsat);
        assert!(solver.stats().conflicts >= 1);
    }

    fn pigeonhole_cnf(pigeons: u32) -> Cnf {
        let holes = pigeons - 1;
        let var = |i: u32, j: u32| i * holes + j;
        let mut cnf = Cnf::new(pigeons * holes);
        for i in 0..pigeons {
            cnf.add_clause((0..holes).map(|j| lit(var(i, j), true)));
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    cnf.add_clause([lit(var(i1, j), false), lit(var(i2, j), false)]);
                }
            }
        }
        cnf
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        let mut solver = Solver::from_cnf(&pigeonhole_cnf(3));
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_is_unsat_under_every_config() {
        for (name, config) in config_matrix() {
            let mut solver = Solver::from_cnf_with_config(&pigeonhole_cnf(5), config);
            assert_eq!(solver.solve(), SatResult::Unsat, "config {name}");
        }
    }

    #[test]
    fn model_satisfies_formula() {
        // A slightly larger satisfiable instance.
        let mut cnf = Cnf::new(6);
        let clauses: Vec<Vec<(u32, bool)>> = vec![
            vec![(0, true), (1, false), (2, true)],
            vec![(1, true), (3, true)],
            vec![(2, false), (4, true), (5, false)],
            vec![(0, false), (5, true)],
            vec![(3, false), (4, false), (5, true)],
            vec![(1, true), (2, true), (4, true)],
        ];
        for c in &clauses {
            cnf.add_clause(c.iter().map(|&(v, s)| lit(v, s)));
        }
        let mut solver = Solver::from_cnf(&cnf);
        match solver.solve() {
            SatResult::Sat(model) => {
                assert!(cnf.eval(|v| model[v as usize]));
            }
            SatResult::Unsat => panic!("expected sat"),
        }
    }

    fn random_cnf(rng: &mut impl rand::Rng, max_vars: u32, max_clauses: usize) -> Cnf {
        let num_vars = rng.random_range(1..=max_vars);
        let num_clauses = rng.random_range(1..=max_clauses);
        let mut cnf = Cnf::new(num_vars);
        for _ in 0..num_clauses {
            let width = rng.random_range(1..=3usize);
            let clause: Vec<Lit> = (0..width)
                .map(|_| lit(rng.random_range(0..num_vars), rng.random_bool(0.5)))
                .collect();
            cnf.add_clause(clause);
        }
        cnf
    }

    fn brute_force_sat(cnf: &Cnf) -> bool {
        (0u64..(1 << cnf.num_vars)).any(|mask| cnf.eval(|v| mask & (1 << v) != 0))
    }

    #[test]
    fn solver_agrees_with_brute_force_on_random_formulas() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..300 {
            let cnf = random_cnf(&mut rng, 8, 24);
            let expected = brute_force_sat(&cnf);
            let mut solver = Solver::from_cnf(&cnf);
            let result = solver.solve();
            assert_eq!(
                result.is_sat(),
                expected,
                "disagreement on {}",
                cnf.to_dimacs()
            );
            if let SatResult::Sat(model) = result {
                assert!(cnf.eval(|v| model[v as usize]));
            }
        }
    }

    #[test]
    fn every_config_agrees_with_brute_force_on_random_formulas() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let matrix = config_matrix();
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..80 {
            let cnf = random_cnf(&mut rng, 7, 22);
            let expected = brute_force_sat(&cnf);
            for (name, config) in &matrix {
                let mut solver = Solver::from_cnf_with_config(&cnf, *config);
                let result = solver.solve();
                assert_eq!(
                    result.is_sat(),
                    expected,
                    "config {name} disagrees on {}",
                    cnf.to_dimacs()
                );
                if let SatResult::Sat(model) = result {
                    assert!(cnf.eval(|v| model[v as usize]), "config {name} bad model");
                }
            }
        }
    }

    #[test]
    fn solve_is_repeatable() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        cnf.add_clause([lit(1, false), lit(2, true)]);
        let mut solver = Solver::from_cnf(&cnf);
        let first = solver.solve();
        let second = solver.solve();
        assert_eq!(first.is_sat(), second.is_sat());
        assert!(first.is_sat());
    }

    #[test]
    fn assumptions_restrict_without_polluting() {
        // (a | b) is satisfiable; under assumptions !a, !b it is not.
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        let mut solver = Solver::from_cnf(&cnf);
        assert!(solver.solve().is_sat());
        assert_eq!(
            solver.solve_under_assumptions(&[lit(0, false), lit(1, false)]),
            SatResult::Unsat
        );
        // The assumptions were not added as clauses: still satisfiable.
        assert!(solver.solve().is_sat());
        // A single assumption forces the other variable.
        match solver.solve_under_assumptions(&[lit(0, false)]) {
            SatResult::Sat(model) => {
                assert!(!model[0]);
                assert!(model[1]);
            }
            SatResult::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn assumptions_conflicting_with_units_are_unsat() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause([lit(0, true)]);
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(
            solver.solve_under_assumptions(&[lit(0, false)]),
            SatResult::Unsat
        );
        // Redundant (already-implied) assumptions are fine.
        assert!(solver.solve_under_assumptions(&[lit(0, true)]).is_sat());
    }

    #[test]
    fn incremental_clause_addition_grows_the_universe() {
        let mut solver = Solver::new(0);
        assert!(solver.solve().is_sat());
        solver.add_clause([lit(0, true), lit(3, true)]);
        assert_eq!(solver.num_vars(), 4);
        assert!(solver.solve().is_sat());
        solver.add_clause([lit(0, false)]);
        solver.add_clause([lit(3, false)]);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn learned_clauses_survive_assumption_cycles() {
        // An unsatisfiable core over x0..x2 plus a free selector x3. After a
        // first refutation under the selector, later calls reuse the learned
        // clauses (observable as a non-decreasing learned count and a correct
        // answer either way).
        let mut cnf = Cnf::new(4);
        let s = lit(3, false); // selector literal (x3 disables the core)
        for c in [
            vec![lit(0, true), lit(1, true)],
            vec![lit(0, true), lit(1, false)],
            vec![lit(0, false), lit(2, true)],
            vec![lit(0, false), lit(2, false)],
        ] {
            let mut clause = c.clone();
            clause.push(s.negated()); // core active only when x3 assumed false…
            cnf.add_clause(clause);
        }
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(solver.solve_under_assumptions(&[s]), SatResult::Unsat);
        let learned_after_first = solver.stats().learned_clauses;
        // Without the activating assumption the formula is satisfiable.
        assert!(solver.solve().is_sat());
        // Re-activating is again unsatisfiable; learned clauses persisted.
        assert_eq!(solver.solve_under_assumptions(&[s]), SatResult::Unsat);
        assert!(solver.stats().learned_clauses >= learned_after_first);
    }

    #[test]
    fn incremental_and_monolithic_agree_on_random_formulas() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xACE);
        for _ in 0..100 {
            let num_vars = rng.random_range(1..=6u32);
            let num_clauses = rng.random_range(1..=18usize);
            let mut cnf = Cnf::new(num_vars);
            let mut incremental = Solver::new(num_vars as usize);
            for _ in 0..num_clauses {
                let width = rng.random_range(1..=3usize);
                let clause: Vec<Lit> = (0..width)
                    .map(|_| lit(rng.random_range(0..num_vars), rng.random_bool(0.5)))
                    .collect();
                cnf.add_clause(clause.clone());
                incremental.add_clause(clause);
                // Interleave solves to exercise clause retention mid-stream.
                let _ = incremental.solve();
            }
            let mut monolithic = Solver::from_cnf(&cnf);
            assert_eq!(
                incremental.solve().is_sat(),
                monolithic.solve().is_sat(),
                "disagreement on {}",
                cnf.to_dimacs()
            );
        }
    }

    #[test]
    fn incremental_streams_agree_across_configs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // The same interleaved add/solve/assume stream must produce the
        // same verdicts whichever heuristics are on — the contract the
        // PDR query stream relies on.
        let matrix = config_matrix();
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for _ in 0..25 {
            let num_vars = rng.random_range(2..=6u32);
            let num_clauses = rng.random_range(2..=16usize);
            let clauses: Vec<Vec<Lit>> = (0..num_clauses)
                .map(|_| {
                    (0..rng.random_range(1..=3usize))
                        .map(|_| lit(rng.random_range(0..num_vars), rng.random_bool(0.5)))
                        .collect()
                })
                .collect();
            let assumption = lit(rng.random_range(0..num_vars), rng.random_bool(0.5));
            let mut verdicts: Vec<Vec<bool>> = Vec::new();
            for (_, config) in &matrix {
                let mut solver = Solver::with_config(num_vars as usize, *config);
                let mut stream = Vec::new();
                for clause in &clauses {
                    solver.add_clause(clause.iter().copied());
                    stream.push(solver.solve_under_assumptions(&[assumption]).is_sat());
                    stream.push(solver.solve().is_sat());
                }
                verdicts.push(stream);
            }
            for window in verdicts.windows(2) {
                assert_eq!(window[0], window[1], "configs disagree on a stream");
            }
        }
    }

    #[test]
    fn assumption_order_does_not_matter() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(0, false), lit(1, true)]);
        cnf.add_clause([lit(1, false), lit(2, true)]);
        let mut solver = Solver::from_cnf(&cnf);
        for assumptions in [
            vec![lit(0, true), lit(2, false)],
            vec![lit(2, false), lit(0, true)],
        ] {
            assert_eq!(
                solver.solve_under_assumptions(&assumptions),
                SatResult::Unsat
            );
        }
        assert!(solver
            .solve_under_assumptions(&[lit(0, true), lit(2, true)])
            .is_sat());
    }

    fn brute_force_sat_under(cnf: &Cnf, assumptions: &[Lit]) -> bool {
        (0u64..(1 << cnf.num_vars)).any(|mask| {
            let value = |v: u32| mask & (1 << v) != 0;
            assumptions
                .iter()
                .all(|a| value(a.var()) == a.is_positive())
                && cnf.eval(value)
        })
    }

    #[test]
    fn failed_assumption_cores_agree_with_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let matrix = config_matrix();
        let mut rng = StdRng::seed_from_u64(0xC02E);
        let mut small_cores = 0;
        for _ in 0..150 {
            let cnf = random_cnf(&mut rng, 10, 30);
            let assumptions: Vec<Lit> = (0..rng.random_range(1..=6usize))
                .map(|_| lit(rng.random_range(0..cnf.num_vars), rng.random_bool(0.5)))
                .collect();
            let expected = brute_force_sat_under(&cnf, &assumptions);
            for (name, config) in &matrix {
                let mut solver = Solver::from_cnf_with_config(&cnf, *config);
                let result = solver.solve_under_assumptions(&assumptions);
                assert_eq!(result.is_sat(), expected, "config {name}");
                let core = solver.failed_assumptions().to_vec();
                if expected {
                    assert!(core.is_empty(), "config {name}: SAT with core {core:?}");
                    continue;
                }
                assert!(
                    core.iter().all(|l| assumptions.contains(l)),
                    "config {name}: core {core:?} outside {assumptions:?}"
                );
                assert!(
                    !brute_force_sat_under(&cnf, &core),
                    "config {name}: core {core:?} of {assumptions:?} is satisfiable on {}",
                    cnf.to_dimacs()
                );
                if core.len() < assumptions.len() {
                    small_cores += 1;
                }
            }
        }
        assert!(small_cores > 0, "no core ever left an assumption out");
    }

    #[test]
    fn a_formula_refuted_without_assumptions_has_an_empty_core() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xE3E7);
        let mut refuted = 0;
        while refuted < 40 {
            let cnf = random_cnf(&mut rng, 10, 40);
            if brute_force_sat(&cnf) {
                continue;
            }
            refuted += 1;
            let assumptions: Vec<Lit> = (0..rng.random_range(1..=6usize))
                .map(|_| lit(rng.random_range(0..cnf.num_vars), rng.random_bool(0.5)))
                .collect();
            for (name, config) in config_matrix() {
                let mut solver = Solver::from_cnf_with_config(&cnf, config);
                assert_eq!(solver.solve(), SatResult::Unsat, "config {name}");
                assert!(solver.failed_assumptions().is_empty(), "config {name}");
                assert_eq!(
                    solver.solve_under_assumptions(&assumptions),
                    SatResult::Unsat,
                    "config {name}"
                );
                assert!(solver.failed_assumptions().is_empty(), "config {name}");
            }
        }
    }

    #[test]
    fn an_assumption_false_at_level_zero_is_its_own_core() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x1E0);
        let mut checked = 0;
        while checked < 40 {
            let mut cnf = random_cnf(&mut rng, 10, 20);
            let forced = lit(rng.random_range(0..cnf.num_vars), rng.random_bool(0.5));
            cnf.add_clause([forced]);
            if !brute_force_sat(&cnf) {
                continue;
            }
            checked += 1;
            // Other assumptions range over variables no clause mentions, so
            // none of them can fail; the forced literal's complement can.
            let fresh = cnf.num_vars;
            let mut assumptions: Vec<Lit> = (0..rng.random_range(0..=4u32))
                .map(|i| lit(fresh + i, rng.random_bool(0.5)))
                .collect();
            let at = rng.random_range(0..=assumptions.len());
            assumptions.insert(at, forced.negated());
            for (name, config) in config_matrix() {
                let mut solver = Solver::from_cnf_with_config(&cnf, config);
                assert_eq!(
                    solver.solve_under_assumptions(&assumptions),
                    SatResult::Unsat,
                    "config {name}"
                );
                assert_eq!(
                    solver.failed_assumptions(),
                    [forced.negated()],
                    "config {name}"
                );
            }
        }
    }

    #[test]
    fn a_satisfiable_answer_clears_the_previous_core() {
        let mut solver = Solver::new(2);
        solver.add_clause([lit(0, true), lit(1, true)]);
        let assumptions = [lit(0, false), lit(1, false)];
        assert_eq!(
            solver.solve_under_assumptions(&assumptions),
            SatResult::Unsat
        );
        let mut core = solver.failed_assumptions().to_vec();
        core.sort_unstable();
        assert_eq!(core, assumptions);
        assert!(solver.solve_under_assumptions(&[lit(0, false)]).is_sat());
        assert!(solver.failed_assumptions().is_empty());
    }

    #[test]
    fn phase_saving_toggle_preserves_verdicts() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x9A5E);
        for _ in 0..60 {
            let num_vars = rng.random_range(1..=7u32);
            let num_clauses = rng.random_range(1..=20usize);
            let mut cnf = Cnf::new(num_vars);
            for _ in 0..num_clauses {
                let width = rng.random_range(1..=3usize);
                let clause: Vec<Lit> = (0..width)
                    .map(|_| lit(rng.random_range(0..num_vars), rng.random_bool(0.5)))
                    .collect();
                cnf.add_clause(clause);
            }
            let mut saved = Solver::from_cnf(&cnf);
            assert!(saved.phase_saving());
            let mut fixed = Solver::from_cnf(&cnf);
            fixed.set_phase_saving(false);
            assert_eq!(saved.solve().is_sat(), fixed.solve().is_sat());
        }
    }

    #[test]
    fn phase_saving_revisits_last_polarity() {
        // Assuming an otherwise-unconstrained variable true records its
        // phase; with phase saving on the next unassumed solve re-decides it
        // true, with phase saving off it falls back to the `false` default.
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        let mut solver = Solver::from_cnf(&cnf);
        assert!(solver.solve_under_assumptions(&[lit(1, true)]).is_sat());
        match solver.solve() {
            SatResult::Sat(model) => assert!(model[1], "saved phase is reused"),
            SatResult::Unsat => panic!("expected sat"),
        }
        solver.set_phase_saving(false);
        match solver.solve() {
            SatResult::Sat(model) => assert!(!model[1], "default polarity is false"),
            SatResult::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn stats_are_populated() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        let mut solver = Solver::from_cnf(&cnf);
        let _ = solver.solve();
        assert!(solver.stats().decisions >= 1);
    }

    #[test]
    fn minimization_shrinks_learned_clauses() {
        // Pigeonhole conflicts produce learned clauses with redundant
        // literals; the recursive minimization must fire (and the verdict
        // stay correct). The no-minimize config must report zero.
        let mut on = Solver::from_cnf(&pigeonhole_cnf(6));
        assert_eq!(on.solve(), SatResult::Unsat);
        assert!(
            on.stats().minimized_literals > 0,
            "minimization never fired: {:?}",
            on.stats()
        );
        let mut off = Solver::from_cnf_with_config(
            &pigeonhole_cnf(6),
            SolverConfig {
                minimize: false,
                ..SolverConfig::default()
            },
        );
        assert_eq!(off.solve(), SatResult::Unsat);
        assert_eq!(off.stats().minimized_literals, 0);
    }

    #[test]
    fn database_reduction_fires_and_preserves_verdicts() {
        let config = SolverConfig {
            reduce_base: 1,
            ..SolverConfig::default()
        };
        let mut solver = Solver::from_cnf_with_config(&pigeonhole_cnf(6), config);
        assert_eq!(solver.solve(), SatResult::Unsat);
        let stats = solver.stats();
        assert!(stats.reductions > 0, "reduction never fired: {stats:?}");
        assert!(stats.removed_clauses > 0);
        // The solver stays usable after reductions.
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn luby_sequence_is_correct() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let actual: Vec<u64> = (0..expected.len() as u64).map(luby).collect();
        assert_eq!(actual, expected);
    }

    #[test]
    fn level_zero_units_persist_across_calls() {
        // After a first solve derives unit consequences, re-solving with no
        // intervening mutation must not redo the level-0 propagation work.
        // (Binary clauses first: the unit chain is then derived by
        // propagation, not by insertion-time simplification.)
        let mut solver = Solver::new(3);
        solver.add_clause([lit(0, false), lit(1, true)]);
        solver.add_clause([lit(1, false), lit(2, true)]);
        solver.add_clause([lit(0, true)]);
        assert!(solver.solve().is_sat());
        let after_first = solver.stats();
        assert!(solver.solve().is_sat());
        let after_second = solver.stats();
        assert_eq!(
            after_first.propagations + after_first.binary_propagations,
            after_second.propagations + after_second.binary_propagations,
            "re-solve repeated level-0 propagation"
        );
    }

    #[test]
    fn legacy_reset_repeats_unit_propagation() {
        // The baseline configuration must pay the per-call re-scan (that is
        // the overhead E11 measures).
        let mut solver = Solver::with_config(2, SolverConfig::baseline());
        solver.add_clause([lit(0, false), lit(1, true)]);
        solver.add_clause([lit(0, true)]);
        assert!(solver.solve().is_sat());
        let first = solver.stats();
        assert!(solver.solve().is_sat());
        let second = solver.stats();
        assert!(
            second.propagations + second.binary_propagations
                > first.propagations + first.binary_propagations,
            "legacy reset should repeat level-0 propagation"
        );
    }

    #[test]
    fn set_config_between_solves_is_sound() {
        let cnf = pigeonhole_cnf(5);
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(solver.solve(), SatResult::Unsat);
        let mut solver = Solver::from_cnf(&cnf);
        solver.set_config(SolverConfig::baseline());
        assert_eq!(solver.solve(), SatResult::Unsat);
        solver.set_config(SolverConfig::default());
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn set_config_can_lower_the_reduction_limit() {
        // Lowering `reduce_base` after construction must re-arm the
        // reduction threshold, not stay clamped at the constructor's
        // (higher) limit.
        let cnf = pigeonhole_cnf(6);
        let mut solver = Solver::from_cnf(&cnf);
        solver.set_config(SolverConfig {
            reduce_base: 1,
            ..SolverConfig::default()
        });
        assert_eq!(solver.solve(), SatResult::Unsat);
        assert!(
            solver.stats().reductions > 0,
            "lowered base must arm reduction: {:?}",
            solver.stats()
        );
    }

    #[test]
    fn stats_delta_isolates_one_call_of_an_incremental_stream() {
        let cnf = pigeonhole_cnf(5);
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(solver.solve(), SatResult::Unsat);
        let after_first = solver.stats();
        assert!(after_first.conflicts > 0);
        // A second solver over the same formula: its fresh stats must match
        // the delta computed over the incremental stream.
        let mut fresh = Solver::from_cnf(&cnf);
        assert_eq!(fresh.solve(), SatResult::Unsat);
        let one_call = fresh.stats();
        let mut again = Solver::from_cnf(&cnf);
        assert_eq!(again.solve(), SatResult::Unsat);
        assert_eq!(again.solve(), SatResult::Unsat);
        let _cumulative = again.stats();
        let second_only = again.stats().delta(&one_call);
        // The repeat call on `again` is cheap (formula already refuted), so
        // the delta must be far below a from-scratch refutation.
        assert!(second_only.conflicts <= one_call.conflicts);
        // Deltas against oneself are zero.
        let zero = after_first.delta(&after_first);
        assert_eq!(zero, SolverStats::default());
    }

    #[test]
    fn tracer_records_solve_spans_and_restart_events() {
        use ipcl_trace::{TraceConfig, Tracer};
        let cnf = pigeonhole_cnf(6);
        let tracer = Tracer::new(TraceConfig::enabled());
        let mut solver = Solver::from_cnf(&cnf);
        solver.set_tracer(tracer.clone());
        assert_eq!(solver.solve(), SatResult::Unsat);
        let snapshot = tracer.snapshot().unwrap();
        let solve = snapshot
            .spans
            .iter()
            .find(|s| s.path == ["sat.solve"])
            .expect("sat.solve span recorded");
        assert_eq!(solve.count, 1);
        assert!(
            snapshot.events.iter().any(|e| e.kind == "solver_restart"),
            "pigeonhole(6) restarts at least once"
        );
        // The stats delta emits through the MetricSink unification.
        solver.stats().emit(&tracer, "sat");
        let snapshot = tracer.snapshot().unwrap();
        assert_eq!(snapshot.counters["sat.conflicts"], solver.stats().conflicts);
    }

    #[test]
    fn imported_clauses_constrain_and_count() {
        // x0 ∨ x1 alone is satisfiable; importing the two unit lemmas
        // ¬x0 and ¬x1 (implied by nothing here, but the caller vouches)
        // makes the formula unsat — imports participate in propagation.
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        let mut solver = Solver::from_cnf(&cnf);
        assert!(solver.solve().is_sat());
        assert!(solver.import_clause([lit(0, false)], 1));
        assert!(solver.import_clause([lit(1, false)], 1));
        assert_eq!(solver.stats().imported_clauses, 2);
        assert_eq!(solver.solve(), SatResult::Unsat);
        // Tautologies are dropped and not counted.
        assert!(!solver.import_clause([lit(3, true), lit(3, false)], 2));
        assert_eq!(solver.stats().imported_clauses, 2);
    }

    #[test]
    fn imported_clauses_grow_the_universe() {
        let mut solver = Solver::new(1);
        assert!(solver.import_clause([lit(7, true)], 1));
        match solver.solve() {
            SatResult::Sat(model) => assert!(model[7]),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn imported_clauses_survive_database_reduction() {
        // Run pigeonhole with an aggressive reduction schedule, with an
        // imported (redundant) lemma in place: reductions must fire and the
        // import must survive them, per the permanence contract.
        let config = SolverConfig {
            reduce_base: 1,
            ..SolverConfig::default()
        };
        let cnf = pigeonhole_cnf(6);
        let mut solver = Solver::from_cnf_with_config(&cnf, config);
        // A redundant-but-sound lemma: the first pigeon sits somewhere.
        let mut lemma: Vec<Lit> = cnf.clauses[0].clone();
        lemma.sort_unstable();
        assert!(solver.import_clause(lemma.clone(), 3));
        // The watch lists reorder literals in place, so count by sorted set.
        let count_lemma = |solver: &Solver| {
            solver
                .clauses
                .iter()
                .filter(|c| {
                    let mut lits = c.literals.clone();
                    lits.sort_unstable();
                    lits == lemma
                })
                .count()
        };
        let before = count_lemma(&solver);
        assert_eq!(solver.solve(), SatResult::Unsat);
        assert!(solver.stats().reductions > 0, "reduction never fired");
        let after = count_lemma(&solver);
        assert_eq!(before, after, "imported lemma dropped by reduce_db");
    }

    #[test]
    fn clause_sharing_captures_good_lemmas_and_drains() {
        let mut solver = Solver::from_cnf(&pigeonhole_cnf(6));
        solver.set_clause_sharing(4);
        assert_eq!(solver.solve(), SatResult::Unsat);
        let shared = solver.take_shared();
        assert!(
            !shared.is_empty(),
            "pigeonhole(6) learns low-LBD clauses: {:?}",
            solver.stats()
        );
        for (literals, lbd) in &shared {
            assert!(*lbd <= 4, "LBD filter violated: {lbd}");
            assert!(literals.len() <= SHARE_MAX_LEN);
        }
        assert_eq!(solver.stats().exported_clauses, shared.len() as u64);
        // Drained: a second take returns nothing new.
        assert!(solver.take_shared().is_empty());
        // Round-trip: importing the shared lemmas into a fresh solver on the
        // same formula keeps it sound (still unsat).
        let mut sibling = Solver::from_cnf(&pigeonhole_cnf(6));
        for (literals, lbd) in shared {
            sibling.import_clause(literals, lbd);
        }
        assert_eq!(sibling.solve(), SatResult::Unsat);
    }

    #[test]
    fn clause_sharing_disabled_by_default() {
        let mut solver = Solver::from_cnf(&pigeonhole_cnf(6));
        assert_eq!(solver.solve(), SatResult::Unsat);
        assert!(solver.take_shared().is_empty());
        assert_eq!(solver.stats().exported_clauses, 0);
    }
}
