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

use ipcl::bmc::{Binding, FrameEncoder, Latency, SequentialProperty};
use ipcl::core::example::ExampleArch;
use ipcl::core::{ArchSpec, FunctionalSpec};
use ipcl::expr::{ClauseSink, Cnf, Lit};
use ipcl::pdr::deep::deep_pipeline;
use ipcl::pipesim::BrokenVariant;
use ipcl::rtl::{InitialState, Netlist};
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
    let mut base = FrameEncoder::new(netlist, &binding, InitialState::Reset, 1, S::new()).unwrap();
    let mut step = FrameEncoder::new(netlist, &binding, InitialState::Free, 0, S::new()).unwrap();
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
            for frame in step.unroller().num_frames()..=depth {
                step.ensure_frames(frame + 1);
                for earlier in 0..frame {
                    if let Some(diff) = step.unroller_mut().state_difference(earlier, frame) {
                        step.unroller_mut().add_clause(&[diff]);
                    }
                }
            }
            let ok = step.encode_instance(property, depth);
            let activation =
                *activations[index].get_or_insert_with(|| step.unroller_mut().fresh_lit());
            let (result, stats) = step.sink_mut().solve(&[activation, ok.negated()]);
            decided[index] = result == SatResult::Unsat;
            if !decided[index] {
                step.unroller_mut().add_clause(&[activation.negated(), ok]);
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
    let mut enc = FrameEncoder::new(netlist, &binding, InitialState::Free, 0, S::new()).unwrap();
    enc.ensure_frames(2);
    let bad = enc
        .encode_instance(property, property.latency.offset())
        .negated();
    let registers = netlist.registers();
    let now: Vec<Lit> = registers
        .iter()
        .map(|&r| enc.unroller().lit(0, r))
        .collect();
    let next: Vec<Lit> = registers
        .iter()
        .map(|&r| enc.unroller().lit(1, r))
        .collect();
    let frame = enc.unroller_mut().fresh_lit();
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
            let tmp = enc.unroller_mut().fresh_lit();
            let mut clause = vec![tmp.negated()];
            clause.extend(candidate.iter().map(|&entry| lit(&now, entry).negated()));
            enc.unroller_mut().add_clause(&clause);
            let mut assumptions = vec![frame, tmp];
            assumptions.extend(candidate.iter().map(|&entry| lit(&next, entry)));
            transcript.push(enc.sink_mut().solve(&assumptions));
            enc.unroller_mut().add_clause(&[tmp.negated()]);
        }

        let mut block = vec![frame.negated()];
        block.extend(cube.iter().map(|&entry| lit(&now, entry).negated()));
        enc.unroller_mut().add_clause(&block);
        enc.unroller_mut().fresh_lit();
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
