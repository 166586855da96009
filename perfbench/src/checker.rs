//! The checker workloads — `proof-regress`, `bug-hunt` and `deep-pdr`. One
//! op is one `check_netlist_sequential_with` call, spec + netlist to report,
//! single-threaded with every other option at its default.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use ipcl::bitsim::BitSimulator;
use ipcl::bmc::check_stall_escape;
use ipcl::checker::{
    check_netlist_sequential_with, check_property_job, BmcOutcome, Latency, ProofStrategy,
    SequentialOptions, SequentialProperty, SequentialReport,
};
use ipcl::core::FunctionalSpec;
use ipcl::rtl::Netlist;
use ipcl::trace::Tracer;

use crate::expected;
use crate::inputs::{mix, Arch, Bug, Design, Rng};
use crate::measure::{Op, Spans, Workload};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    ProofRegress,
    BugHunt,
    DeepPdr,
}

/// Synthetic architectures `(pipes, depth)` that check faster than the
/// paper example (the proof regression's small draw) and slower than it but
/// faster than the FirePath-like design (its medium draw).
const SYNTHETIC_SMALL: [(u32, u32); 4] = [(1, 2), (1, 3), (1, 4), (2, 2)];
const SYNTHETIC_MEDIUM: [(u32, u32); 9] = [
    (2, 4),
    (2, 5),
    (2, 6),
    (3, 3),
    (3, 4),
    (3, 5),
    (4, 2),
    (4, 3),
    (4, 4),
];

/// Synthetic architectures the bug hunt draws its broken designs from:
/// large enough that every variant checks slower than the paper example's.
const SYNTHETIC_BROKEN: [(u32, u32); 5] = [(3, 4), (3, 5), (4, 3), (4, 4), (2, 6)];

/// Names of the per-property engine counts, k-induction then PDR, in the
/// order `layers` reads them from the returned stats.
const BMC_COUNTS: [&str; 5] = [
    "bmc.clauses",
    "bmc.solve_calls",
    "bmc.conflicts",
    "bmc.propagations",
    "bmc.depth",
];
const PDR_COUNTS: [&str; 5] = [
    "pdr.clauses",
    "pdr.solve_calls",
    "pdr.conflicts",
    "pdr.propagations",
    "pdr.frames",
];

/// The weighted design categories of a workload. An op of a category with
/// several designs draws one uniformly.
///
/// The weights put p50 and p90 in the middle of one design's latency
/// cluster, not at its edge, where a noisy tail or a neighbouring cluster
/// would move them. Check times are from a 2-vCPU x86-64 host.
fn categories(kind: Kind) -> Vec<(f64, Vec<Design>)> {
    let correct = |arch, registered| Design::Correct { arch, registered };
    let broken = |arch, bug| Design::Broken { arch, bug };
    let synthetic = |pool: &[(u32, u32)]| -> Vec<Design> {
        pool.iter()
            .flat_map(|&(p, d)| [false, true].map(|r| correct(Arch::Synthetic(p, d), r)))
            .collect()
    };
    match kind {
        // p50: the middle of the paper example (≈ 1 ms, both latencies
        // alike), with a quarter of the ops below it. p90: the middle of
        // FirePath's cluster (≈ 15 ms).
        Kind::ProofRegress => vec![
            (0.25, synthetic(&SYNTHETIC_SMALL)),
            (0.25, vec![correct(Arch::Paper, false)]),
            (0.25, vec![correct(Arch::Paper, true)]),
            (0.05, synthetic(&SYNTHETIC_MEDIUM)),
            (0.20, vec![correct(Arch::Firepath, true)]),
        ],
        // p50: the middle of the paper example's reset bug (≈ 1.4 ms), with
        // its grant (≈ 0.9 ms) and scoreboard (≈ 1.3 ms) bugs below. p90:
        // the middle of FirePath's scoreboard bug (≈ 13.5 ms), with its
        // reset bug (≈ 16 ms) above and its grant bug (≈ 6 ms) below.
        Kind::BugHunt => vec![
            (0.175, vec![broken(Arch::Paper, Bug::Grant)]),
            (0.175, vec![broken(Arch::Paper, Bug::Scoreboard)]),
            (0.30, vec![broken(Arch::Paper, Bug::Reset)]),
            (
                0.17,
                SYNTHETIC_BROKEN
                    .iter()
                    .flat_map(|&(p, d)| Bug::ALL.map(|bug| broken(Arch::Synthetic(p, d), bug)))
                    .collect(),
            ),
            (0.03, vec![broken(Arch::Firepath, Bug::Grant)]),
            (0.10, vec![broken(Arch::Firepath, Bug::Scoreboard)]),
            (0.05, vec![broken(Arch::Firepath, Bug::Reset)]),
        ],
        // Depths 10–14 take about 6, 12, 22, 35 and 50 ms: p50 falls in the
        // middle of depth 11's cluster and p90 in the middle of depth 13's.
        Kind::DeepPdr => [(10, 0.35), (11, 0.30), (12, 0.20), (13, 0.10), (14, 0.05)]
            .iter()
            .map(|&(depth, weight)| (weight, vec![Design::Deep(depth)]))
            .collect(),
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Verdict {
    Proved,
    Falsified,
    Undecided,
}

fn verdict(outcome: &BmcOutcome) -> Verdict {
    match outcome {
        BmcOutcome::Proved { .. } => Verdict::Proved,
        BmcOutcome::Falsified(_) => Verdict::Falsified,
        BmcOutcome::Unknown { .. } => Verdict::Undecided,
    }
}

/// A built design with its property portfolio and each property's expected
/// verdict.
struct Checked {
    design: Design,
    spec: FunctionalSpec,
    netlist: Netlist,
    latency: Latency,
    properties: Vec<SequentialProperty>,
    known: BTreeMap<String, Verdict>,
}

pub struct CheckerWorkload {
    kind: Kind,
    options: SequentialOptions,
    designs: Vec<Checked>,
    sequence: Vec<usize>,
}

/// The checker's options in every workload: no per-property threads, one
/// engine thread, everything else at its default.
fn options(kind: Kind) -> SequentialOptions {
    SequentialOptions {
        strategy: match kind {
            Kind::DeepPdr => ProofStrategy::Pdr,
            Kind::ProofRegress | Kind::BugHunt => ProofStrategy::KInduction,
        },
        parallel: false,
        threads: 1,
        ..Default::default()
    }
}

/// Builds the seeded op sequence and each distinct design once with its
/// expected verdicts, and runs the untimed warm-up: one op per distinct
/// design.
pub fn setup(kind: Kind, seed: u64, ops: usize) -> CheckerWorkload {
    let options = options(kind);
    let categories = categories(kind);
    let weights: Vec<f64> = categories.iter().map(|(weight, _)| *weight).collect();
    let mut rng = Rng::new(seed);
    let picks: Vec<Design> = mix(ops, &weights, &mut rng)
        .into_iter()
        .map(|category| {
            let pool = &categories[category].1;
            pool[rng.below(pool.len())]
        })
        .collect();
    let distinct: Vec<Design> = picks
        .iter()
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let sequence = picks
        .iter()
        .map(|design| {
            distinct
                .binary_search(design)
                .expect("drawn design is built")
        })
        .collect();

    let designs: Vec<Checked> = distinct
        .into_iter()
        .map(|design| {
            let (spec, netlist) = design.build();
            let latency = Latency::detect(&spec, &netlist);
            let properties = SequentialProperty::both_directions(&spec, latency);
            let known = properties
                .iter()
                .map(|property| {
                    let answer = if expected::falsified(design, &property.name) {
                        Verdict::Falsified
                    } else {
                        Verdict::Proved
                    };
                    (property.name.clone(), answer)
                })
                .collect();
            Checked {
                design,
                spec,
                netlist,
                latency,
                properties,
                known,
            }
        })
        .collect();
    for design in &designs {
        // A check that panics fails its timed ops, not the set-up.
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            black_box(check_netlist_sequential_with(
                &design.spec,
                &design.netlist,
                &options,
            ))
        }));
    }
    CheckerWorkload {
        kind,
        options,
        designs,
        sequence,
    }
}

impl CheckerWorkload {
    /// Whether `report` gives every property its expected verdict (an
    /// unknown one never is). Replays every trace and validates every
    /// certificate itself (the `rtl.replay` and `pdr.validate` layers).
    fn correct(&self, design: &Checked, report: &SequentialReport, spans: &mut Spans) -> bool {
        let mut correct = report.results.len() == design.known.len();
        for result in &report.results {
            correct &= design.known.get(&result.property.name) == Some(&verdict(&result.outcome));
            if let BmcOutcome::Falsified(trace) = &result.outcome {
                let replay = spans.time("rtl.replay", || {
                    trace.replay(&design.spec, &design.netlist, &result.property)
                });
                spans.count("rtl.replays", 1);
                correct &= replay.is_ok_and(|replay| replay.violation_reproduced);
            }
        }
        for (name, certificate) in &report.certificates {
            let property = design.properties.iter().find(|p| &p.name == name);
            correct &= property.is_some_and(|property| {
                spans
                    .time("pdr.validate", || {
                        certificate.validate(&design.spec, &design.netlist, property)
                    })
                    .is_ok_and(|check| check.ok())
            });
        }
        correct
            && match self.kind {
                // Reset values and stall escapes as well.
                Kind::ProofRegress => report.proved(),
                // The table has falsified properties for every bugged
                // design, so the verdicts above already ask for a bug found.
                Kind::BugHunt => true,
                // A certificate per proof. `report.proved()` is false for
                // this family by design: the stall-escape check starts from
                // a free state and finds an unreachable stuck one.
                Kind::DeepPdr => report.certificates.len() == report.results.len(),
            }
    }

    /// The traced run's layer calls on the op's inputs.
    fn layers(&self, design: &Checked, spans: &mut Spans) {
        let (layer, names) = match self.options.strategy {
            ProofStrategy::Pdr => ("pdr.property", PDR_COUNTS),
            _ => ("bmc.property", BMC_COUNTS),
        };
        let tracer = Tracer::disabled();
        for property in &design.properties {
            let checked = spans.time(layer, || {
                check_property_job(
                    &design.spec,
                    &design.netlist,
                    property,
                    &self.options,
                    None,
                    &tracer,
                )
            });
            if let Ok((result, _)) = checked {
                let stats = &result.stats;
                let values = [
                    (stats.base_clauses + stats.induction_clauses) as u64,
                    stats.solve_calls as u64,
                    stats.conflicts,
                    stats.propagations,
                    stats.depth_reached as u64,
                ];
                for (name, value) in names.iter().zip(values) {
                    spans.count(name, value);
                }
            }
        }
        // The checker sweeps on the compiled simulator only at
        // combinational latency.
        if design.latency == Latency::Combinational && self.options.prepass_cycles > 0 {
            spans.time("bitsim.sweep", || {
                let mut sim =
                    BitSimulator::new(&design.netlist).expect("a checked netlist compiles");
                sim.run(self.options.prepass_cycles);
                black_box(sim.cycle())
            });
        }
        if self.options.deadlock {
            let _ = spans.time("bmc.stall_escape", || {
                black_box(check_stall_escape(
                    &design.spec,
                    &design.netlist,
                    self.options.escape_cycles,
                ))
            });
        }
    }
}

impl Workload for CheckerWorkload {
    fn len(&self) -> usize {
        self.sequence.len()
    }

    fn op(&mut self, index: usize, spans: &mut Spans) -> Op {
        let design = &self.designs[self.sequence[index]];
        let start = Instant::now();
        let report = black_box(check_netlist_sequential_with(
            &design.spec,
            &design.netlist,
            &self.options,
        ));
        let time = start.elapsed();
        let correct = report
            .as_ref()
            .is_ok_and(|report| self.correct(design, report, spans));
        if spans.enabled() {
            self.layers(design, spans);
        }
        Op { time, correct }
    }

    fn label(&self, index: usize) -> String {
        self.designs[self.sequence[index]].design.label()
    }
}
