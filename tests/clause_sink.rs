//! The engines encode straight into their solvers. That must not change a
//! single solver decision: the solver has to see the variables and clauses
//! in the order a finished formula copied in before each query gives them
//! — at each solve, every variable created since the last one first, then
//! the clauses in order.
//!
//! Each query stream here runs three ways and records the answer, the
//! model and the solver's stats after every query:
//!
//! * **copied** — the encoder writes a [`Cnf`]; before each solve the new
//!   clause suffix is copied into a solver after reserving every variable
//!   (the reference);
//! * **direct** — the encoder writes into the solver itself, the way the
//!   engines do;
//! * **eager** — the solver's sink, but with every variable reserved as
//!   soon as it is created. The streams must catch this mistake.
//!
//! The streams are shaped like the engines' own: k-induction's lockstep
//! base and step queries on the `BrokenVariant` matrix at both latencies,
//! and PDR's consecution pattern (a fresh literal, a temporary clause
//! under it, a unit that retires it) on deep wait-state chains, with a
//! round boundary that adds a new activation literal, then puts a lemma
//! into the solver at once.
//!
//! A last test pins the encoding itself: the exact clauses of
//! reset-rooted and free unrollings, by hash.

use ipcl::bmc::{Binding, FrameEncoder, InitialState, Latency, SequentialProperty};
use ipcl::core::example::ExampleArch;
use ipcl::core::{ArchSpec, FunctionalSpec};
use ipcl::expr::{ClauseSink, Cnf, Lit};
use ipcl::pdr::deep::deep_pipeline;
use ipcl::pipesim::BrokenVariant;
use ipcl::rtl::{sha256_hex, Netlist};
use ipcl::sat::{SatResult, Solver, SolverStats};
use ipcl::synth::{synthesize_broken_interlock, synthesize_interlock_with, SynthesisOptions};

/// The answer (with its model) and the solver's stats after one query.
type Transcript = Vec<(SatResult, SolverStats)>;

/// A way for an encoder's formula to reach the solver that answers it.
trait Discipline: ClauseSink {
    fn new() -> Self;
    fn solver(&mut self) -> &mut Solver;

    fn solve(&mut self, assumptions: &[Lit]) -> (SatResult, SolverStats) {
        let solver = self.solver();
        let result = solver.solve_under_assumptions(assumptions);
        (result, solver.stats())
    }
}

/// The reference: the formula is kept, and its new suffix copied in
/// before every query.
struct Copied {
    cnf: Cnf,
    solver: Solver,
    copied: usize,
}

impl ClauseSink for Copied {
    fn new_var(&mut self) -> u32 {
        self.cnf.new_var()
    }

    fn add_clause(&mut self, literals: &[Lit]) {
        ClauseSink::add_clause(&mut self.cnf, literals);
    }
}

impl Discipline for Copied {
    fn new() -> Self {
        Copied {
            cnf: Cnf::new(0),
            solver: Solver::new(0),
            copied: 0,
        }
    }

    fn solver(&mut self) -> &mut Solver {
        &mut self.solver
    }

    fn solve(&mut self, assumptions: &[Lit]) -> (SatResult, SolverStats) {
        self.solver.reserve_vars(self.cnf.num_vars as usize);
        for clause in &self.cnf.clauses[self.copied..] {
            self.solver.add_clause(clause.iter().copied());
        }
        self.copied = self.cnf.clauses.len();
        let result = self.solver.solve_under_assumptions(assumptions);
        (result, self.solver.stats())
    }
}

/// The engines' way: the solver is the sink.
struct Direct(Solver);

impl ClauseSink for Direct {
    fn new_var(&mut self) -> u32 {
        self.0.new_var()
    }

    fn add_clause(&mut self, literals: &[Lit]) {
        ClauseSink::add_clause(&mut self.0, literals);
    }
}

impl Discipline for Direct {
    fn new() -> Self {
        Direct(Solver::new(0))
    }

    fn solver(&mut self) -> &mut Solver {
        &mut self.0
    }
}

/// The mistake: the solver's sink, except that each variable is reserved
/// as soon as it is created.
struct Eager(Solver);

impl ClauseSink for Eager {
    fn new_var(&mut self) -> u32 {
        let var = self.0.new_var();
        self.0.reserve_vars(var as usize + 1);
        var
    }

    fn add_clause(&mut self, literals: &[Lit]) {
        ClauseSink::add_clause(&mut self.0, literals);
    }
}

impl Discipline for Eager {
    fn new() -> Self {
        Eager(Solver::new(0))
    }

    fn solver(&mut self) -> &mut Solver {
        &mut self.0
    }
}

/// `check_properties`' query stream: depth by depth, each open property's
/// base query on a reset-rooted unrolling, then (if it passed) its step
/// query on a free, loop-free unrolling under its activation literal.
fn kinduction_stream<S: Discipline>(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    properties: &[SequentialProperty],
    max_depth: usize,
) -> Transcript {
    let binding = Binding::new(spec, netlist);
    let mut base = FrameEncoder::new(&binding, InitialState::Reset, 1, S::new()).unwrap();
    let mut step = FrameEncoder::new(&binding, InitialState::Free, 0, S::new()).unwrap();
    let mut activations: Vec<Option<Lit>> = vec![None; properties.len()];
    let mut decided = vec![false; properties.len()];
    let mut transcript = Transcript::new();
    for depth in 0..=max_depth {
        for (index, property) in properties.iter().enumerate() {
            if decided[index] || depth < property.latency.first_instance() {
                continue;
            }
            base.ensure_frames(depth + 1);
            let ok = base.encode_instance(property, depth);
            let (result, stats) = base.sink_mut().solve(&[ok.negated()]);
            decided[index] = result.is_sat();
            transcript.push((result, stats));
            if decided[index] {
                continue;
            }
            for frame in step.num_frames()..=depth {
                step.ensure_frames(frame + 1);
                for earlier in 0..frame {
                    if let Some(diff) = step.state_difference(earlier, frame) {
                        step.add_clause(&[diff]);
                    }
                }
            }
            let ok = step.encode_instance(property, depth);
            let activation = *activations[index].get_or_insert_with(|| step.fresh_lit());
            let (result, stats) = step.sink_mut().solve(&[activation, ok.negated()]);
            decided[index] = result == SatResult::Unsat;
            if !decided[index] {
                step.add_clause(&[activation.negated(), ok]);
            }
            transcript.push((result, stats));
        }
    }
    transcript
}

/// PDR's query shape on a two-frame free unrolling: find a bad state under
/// the frame's activation literal, then ask the consecution query for its
/// cube and for each cube with one literal dropped (generalisation), every
/// query under a throw-away literal that a unit retires afterwards, and
/// block the cube at the frame — until no bad state is left or the budget
/// runs out. Each round ends with a new activation literal, then the
/// blocking lemma added to the solver at once, ahead of anything queued.
fn pdr_stream<S: Discipline>(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
    budget: usize,
) -> Transcript {
    let binding = Binding::new(spec, netlist);
    let mut enc = FrameEncoder::new(&binding, InitialState::Free, 0, S::new()).unwrap();
    enc.ensure_frames(2);
    let bad = enc
        .encode_instance(property, property.latency.offset())
        .negated();
    let registers = netlist.registers();
    let now: Vec<Lit> = registers.iter().map(|&r| enc.lit(0, r)).collect();
    let next: Vec<Lit> = registers.iter().map(|&r| enc.lit(1, r)).collect();
    let frame = enc.fresh_lit();
    let mut transcript = Transcript::new();
    for _ in 0..budget {
        let (result, stats) = enc.sink_mut().solve(&[frame, bad]);
        let SatResult::Sat(model) = &result else {
            transcript.push((result, stats));
            break;
        };
        // The bad state's cube, by register index and value.
        let cube: Vec<(usize, bool)> = now
            .iter()
            .enumerate()
            .map(|(index, lit)| (index, model[lit.var() as usize] == lit.is_positive()))
            .collect();
        transcript.push((result, stats));

        let lit = |state: &[Lit], (index, value): (usize, bool)| {
            if value {
                state[index]
            } else {
                state[index].negated()
            }
        };
        for dropped in std::iter::once(None).chain((0..cube.len()).map(Some)) {
            let candidate: Vec<(usize, bool)> = cube
                .iter()
                .copied()
                .filter(|&(index, _)| Some(index) != dropped)
                .collect();
            let tmp = enc.fresh_lit();
            let mut clause = vec![tmp.negated()];
            clause.extend(candidate.iter().map(|&entry| lit(&now, entry).negated()));
            enc.add_clause(&clause);
            let mut assumptions = vec![frame, tmp];
            assumptions.extend(candidate.iter().map(|&entry| lit(&next, entry)));
            transcript.push(enc.sink_mut().solve(&assumptions));
            enc.add_clause(&[tmp.negated()]);
        }

        let mut block = vec![frame.negated()];
        block.extend(cube.iter().map(|&entry| lit(&now, entry).negated()));
        enc.add_clause(&block);
        enc.fresh_lit();
        enc.sink_mut().solver().add_clause(block.iter().copied());
    }
    transcript
}

/// Correct and broken interlocks of the paper example and a synthetic
/// shape.
fn matrix() -> Vec<(String, FunctionalSpec, Netlist)> {
    let mut designs = Vec::new();
    let synthetic = ArchSpec::synthetic(2, 2).functional_spec().unwrap();
    for (arch, spec) in [
        ("paper", ExampleArch::new().functional_spec()),
        ("synthetic-2x2", synthetic),
    ] {
        for registered in [false, true] {
            let options = SynthesisOptions {
                registered_outputs: registered,
                reset_value: true,
                ..Default::default()
            };
            let netlist = synthesize_interlock_with(&spec, options).netlist().clone();
            designs.push((
                format!("{arch} correct registered={registered}"),
                spec.clone(),
                netlist,
            ));
        }
        for variant in [
            BrokenVariant::IgnoreScoreboard,
            BrokenVariant::IgnoreCompletionGrant,
            BrokenVariant::BadResetValues { cycles: 2 },
        ] {
            let netlist = synthesize_broken_interlock(&spec, variant)
                .netlist()
                .clone();
            designs.push((format!("{arch} {variant:?}"), spec.clone(), netlist));
        }
    }
    designs
}

#[test]
fn kinduction_streams_see_the_copied_formula_in_order() {
    let mut queries = 0;
    for (design, spec, netlist) in matrix() {
        for latency in [Latency::Combinational, Latency::Registered] {
            let properties = SequentialProperty::both_directions(&spec, latency);
            let copied = kinduction_stream::<Copied>(&spec, &netlist, &properties, 5);
            let direct = kinduction_stream::<Direct>(&spec, &netlist, &properties, 5);
            assert_eq!(copied.len(), direct.len(), "{design} {latency:?}");
            for (step, (a, b)) in copied.iter().zip(&direct).enumerate() {
                assert_eq!(a, b, "{design} {latency:?}: query {step} diverged");
            }
            queries += copied.len();
        }
    }
    assert!(queries > 400, "{queries} queries");
}

#[test]
fn pdr_shaped_streams_see_the_copied_formula_in_order() {
    let mut eager_diverged = 0;
    for depth in 4..=10 {
        let (spec, netlist) = deep_pipeline(depth);
        let latency = Latency::detect(&spec, &netlist);
        for property in SequentialProperty::both_directions(&spec, latency) {
            let label = format!("deep_pipeline({depth}) {}", property.name);
            let copied = pdr_stream::<Copied>(&spec, &netlist, &property, 40);
            let direct = pdr_stream::<Direct>(&spec, &netlist, &property, 40);
            assert_eq!(copied, direct, "{label}");
            if pdr_stream::<Eager>(&spec, &netlist, &property, 40) != copied {
                eager_diverged += 1;
            }
        }
    }
    // The check has teeth: eager reservation searches differently.
    assert!(eager_diverged > 0, "eager reservation went unnoticed");
}

/// Depth of the pinned unrollings.
const GOLDEN_DEPTH: usize = 4;

/// The DIMACS hashes of a reset-rooted unrolling (1 quiet cycle) and a
/// free, loop-free one, each grown to `GOLDEN_DEPTH` the way k-induction
/// grows them, with every `both_directions` instance encoded at every
/// depth it is checked at.
fn golden_hashes(spec: &FunctionalSpec, netlist: &Netlist, latency: Latency) -> [String; 2] {
    let binding = Binding::new(spec, netlist);
    let properties = SequentialProperty::both_directions(spec, latency);
    let mut base = FrameEncoder::new(&binding, InitialState::Reset, 1, Cnf::new(0)).unwrap();
    let mut step = FrameEncoder::new(&binding, InitialState::Free, 0, Cnf::new(0)).unwrap();
    for depth in 0..=GOLDEN_DEPTH {
        base.ensure_frames(depth + 1);
        step.ensure_frames(depth + 1);
        for earlier in 0..depth {
            if let Some(diff) = step.state_difference(earlier, depth) {
                step.add_clause(&[diff]);
            }
        }
        for property in &properties {
            if depth >= property.latency.first_instance() {
                base.encode_instance(property, depth);
                step.encode_instance(property, depth);
            }
        }
    }
    [base.sink(), step.sink()].map(|cnf| sha256_hex(cnf.to_dimacs().as_bytes()))
}

/// The clause counts of E9–E11 are gated, but not which clauses are
/// emitted: this pins the sequential encoding's exact output — variable
/// numbering, clause order and literal order — by hash. A change here
/// changes every engine's search.
#[test]
fn the_sequential_encoding_emits_the_pinned_clauses() {
    let spec = ExampleArch::new().functional_spec();
    let mut designs = Vec::new();
    for (registered, latency) in [(false, Latency::Combinational), (true, Latency::Registered)] {
        let options = SynthesisOptions {
            registered_outputs: registered,
            reset_value: true,
            ..Default::default()
        };
        let netlist = synthesize_interlock_with(&spec, options).netlist().clone();
        designs.push((format!("paper {latency:?}"), spec.clone(), netlist, latency));
    }
    let (deep_spec, deep_netlist) = deep_pipeline(6);
    let latency = Latency::detect(&deep_spec, &deep_netlist);
    designs.push(("deep_pipeline(6)".into(), deep_spec, deep_netlist, latency));
    let expected = [
        (
            "ac5aa5462a90896fa43cf66b2a6687ecc9ca094adcf330eea96fbd5aaf938dfd",
            "1e4405be2c5ed256edc407856e0f4b932928e4d9c8fa6ca19f513e07b775e625",
        ),
        (
            "136c0746f01f9a134017c44ed7b5e13abadc0a2e216c67feca6dc8a366513fc9",
            "78cd440af8aeaf4d663ecd86a403f51ff3a0dfbe1a1b87ffd27757bd763ee707",
        ),
        (
            "ec5668224faaf0dad741c75a46934b642b49bdc8103bafb241c481c3bd35dde9",
            "dbe5e6dc274dc4e6158b61a5f9eb0c64d8a1e580430febb936c88b687694c2cd",
        ),
    ];
    for ((label, spec, netlist, latency), (base, step)) in designs.into_iter().zip(expected) {
        let hashes = golden_hashes(&spec, &netlist, latency);
        assert_eq!(hashes, [base, step], "{label}: base and step unrollings");
    }
}
