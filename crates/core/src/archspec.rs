//! Generic architecture descriptions and specification generation.
//!
//! The paper derives its functional specification by hand from the
//! microarchitecture manual. [`ArchSpec`] captures the ingredients that
//! recipe needs — pipes and their depths, completion buses and priorities,
//! lock-step issue groups, scoreboard size, wait states, shunt (decouple)
//! stages — and [`ArchSpec::functional_spec`] generates the corresponding
//! [`FunctionalSpec`] mechanically. The FirePath-like configuration used by
//! the larger experiments ([`ArchSpec::firepath_like`]) and the paper's
//! example ([`ArchSpec::paper_example`]) are provided as presets.

use ipcl_expr::Expr;

use crate::model::{SignalNames, StageRef};
use crate::spec::{FunctionalSpec, FunctionalSpecBuilder, SpecError};

/// Description of one pipe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipeSpec {
    /// Pipe name (used as the signal-name prefix).
    pub name: String,
    /// Number of stages, issue stage included (≥ 1).
    pub stages: u32,
    /// Completion bus the final stage competes for, if any.
    pub completion_bus: Option<String>,
    /// Stage indices that are shunt (decouple) stages: they only propagate a
    /// stall when their skid buffer is already full.
    pub shunt_stages: Vec<u32>,
    /// Whether the machine wait state freezes this pipe's issue stage.
    pub observes_wait: bool,
    /// Whether the pipe's issue stage checks the register scoreboard.
    pub checks_scoreboard: bool,
}

impl PipeSpec {
    /// A plain pipe with `stages` stages completing on `bus`, observing the
    /// wait state and the scoreboard, with no shunt stages.
    pub fn new(name: &str, stages: u32, bus: Option<&str>) -> Self {
        PipeSpec {
            name: name.to_owned(),
            stages,
            completion_bus: bus.map(str::to_owned),
            shunt_stages: Vec::new(),
            observes_wait: true,
            checks_scoreboard: true,
        }
    }
}

/// Description of a completion bus: the pipes that arbitrate for it, in
/// priority order (highest first).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompletionBusSpec {
    /// Bus name (signal-name prefix of `regaddr`, etc.).
    pub name: String,
    /// Pipes completing on this bus, highest priority first.
    pub priority: Vec<String>,
}

/// A complete interlocked-pipeline architecture description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchSpec {
    /// Architecture name.
    pub name: String,
    /// The pipes.
    pub pipes: Vec<PipeSpec>,
    /// The completion buses.
    pub completion_buses: Vec<CompletionBusSpec>,
    /// Groups of pipes whose issue stages operate in lock step.
    pub lockstep_groups: Vec<Vec<String>>,
    /// Number of architectural registers tracked by the scoreboard.
    pub scoreboard_registers: u32,
}

impl ArchSpec {
    /// The paper's example architecture (two pipes, one completion bus,
    /// eight registers), expressed as a generic description.
    pub fn paper_example() -> Self {
        ArchSpec {
            name: "paper-example".to_owned(),
            pipes: vec![
                PipeSpec {
                    name: "long".to_owned(),
                    stages: 4,
                    completion_bus: Some("c".to_owned()),
                    shunt_stages: Vec::new(),
                    observes_wait: true,
                    checks_scoreboard: true,
                },
                PipeSpec {
                    name: "short".to_owned(),
                    stages: 2,
                    completion_bus: Some("c".to_owned()),
                    shunt_stages: Vec::new(),
                    observes_wait: false,
                    checks_scoreboard: true,
                },
            ],
            completion_buses: vec![CompletionBusSpec {
                name: "c".to_owned(),
                priority: vec!["short".to_owned(), "long".to_owned()],
            }],
            lockstep_groups: vec![vec!["long".to_owned(), "short".to_owned()]],
            scoreboard_registers: 8,
        }
    }

    /// A FirePath-like configuration: a two-sided LIW machine with three
    /// execution pipes per side (deep pipe with a shunt stage, multiply pipe,
    /// short pipe), one completion bus per side, a 64-entry scoreboard and
    /// lock-step issue across all pipes.
    ///
    /// This is the synthetic stand-in for the proprietary processor the paper
    /// verified; see `DESIGN.md` for the substitution rationale.
    pub fn firepath_like() -> Self {
        let mut pipes = Vec::new();
        let mut buses = Vec::new();
        for side in ["a", "b"] {
            let bus = format!("cbus_{side}");
            let long = PipeSpec {
                name: format!("deep_{side}"),
                stages: 6,
                completion_bus: Some(bus.clone()),
                shunt_stages: vec![3],
                observes_wait: true,
                checks_scoreboard: true,
            };
            let mul = PipeSpec {
                name: format!("mul_{side}"),
                stages: 4,
                completion_bus: Some(bus.clone()),
                shunt_stages: Vec::new(),
                observes_wait: true,
                checks_scoreboard: true,
            };
            let short = PipeSpec {
                name: format!("short_{side}"),
                stages: 2,
                completion_bus: Some(bus.clone()),
                shunt_stages: Vec::new(),
                observes_wait: false,
                checks_scoreboard: true,
            };
            buses.push(CompletionBusSpec {
                name: bus,
                priority: vec![short.name.clone(), mul.name.clone(), long.name.clone()],
            });
            pipes.extend([long, mul, short]);
        }
        let all_pipes = pipes.iter().map(|p| p.name.clone()).collect();
        ArchSpec {
            name: "firepath-like".to_owned(),
            pipes,
            completion_buses: buses,
            lockstep_groups: vec![all_pipes],
            scoreboard_registers: 64,
        }
    }

    /// A synthetic architecture with `pipes` pipes of `depth` stages each,
    /// all completing on one bus and issuing in lock step. Used by the
    /// scaling benchmarks (experiment E9).
    pub fn synthetic(pipes: u32, depth: u32) -> Self {
        let pipe_specs: Vec<PipeSpec> = (0..pipes)
            .map(|i| PipeSpec::new(&format!("pipe{i}"), depth, Some("c")))
            .collect();
        let names: Vec<String> = pipe_specs.iter().map(|p| p.name.clone()).collect();
        ArchSpec {
            name: format!("synthetic-{pipes}x{depth}"),
            pipes: pipe_specs,
            completion_buses: vec![CompletionBusSpec {
                name: "c".to_owned(),
                priority: names.clone(),
            }],
            lockstep_groups: vec![names],
            scoreboard_registers: 16,
        }
    }

    /// Total number of pipeline stages across all pipes.
    pub fn total_stages(&self) -> u32 {
        self.pipes.iter().map(|p| p.stages).sum()
    }

    /// The stage vector in specification order: for every pipe (in
    /// declaration order) its stages from the completion stage backwards, as
    /// in the paper's Figure 2.
    pub fn stage_order(&self) -> Vec<StageRef> {
        self.pipes
            .iter()
            .flat_map(|p| (1..=p.stages).rev().map(move |s| StageRef::new(&p.name, s)))
            .collect()
    }

    /// Generates the functional specification for this architecture.
    ///
    /// The rules follow Section 2.2.1 of the paper, generalised:
    ///
    /// * final stage of a pipe with a completion bus: `req ∧ ¬gnt → ¬moe`;
    /// * intermediate stage: `rtm ∧ ¬moe(next) → ¬moe` — except shunt stages,
    ///   which additionally require their skid buffer to be full;
    /// * issue stage: back-pressure from stage 2, the wait state (if
    ///   observed), lock-step coupling with the other issue stages of its
    ///   group, and the scoreboard operand check (abstract signal).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] only if the description is inconsistent (e.g.
    /// duplicate pipe names leading to duplicate stages).
    pub fn functional_spec(&self) -> Result<FunctionalSpec, SpecError> {
        let mut b = FunctionalSpecBuilder::new();
        for stage in self.stage_order() {
            b.declare_stage(stage)?;
        }

        for pipe in &self.pipes {
            // Completion stage.
            let last = StageRef::new(&pipe.name, pipe.stages);
            if pipe.completion_bus.is_some() {
                let req = b.env(&SignalNames::completion_request(&pipe.name));
                let gnt = b.env(&SignalNames::completion_grant(&pipe.name));
                b.stall_rule(
                    &last,
                    "completion-bus-lost",
                    Expr::and([req, Expr::not(gnt)]),
                )?;
            }

            // Intermediate and issue stages: back-pressure, possibly gated by
            // a shunt buffer.
            for index in (1..pipe.stages).rev() {
                let stage = StageRef::new(&pipe.name, index);
                let rtm = b.env(&stage.rtm());
                let downstream = b.stalled(&stage.next());
                let mut condition = Expr::and([rtm, downstream]);
                if pipe.shunt_stages.contains(&index) {
                    let full = b.env(&SignalNames::shunt_full(&stage));
                    condition = Expr::and([condition, full]);
                }
                let label = if pipe.shunt_stages.contains(&index) {
                    "downstream-stalled-shunt-full"
                } else {
                    "downstream-stalled"
                };
                b.stall_rule(&stage, label, condition)?;
            }

            // Issue-stage-only rules.
            let issue = StageRef::new(&pipe.name, 1);
            if pipe.observes_wait {
                let wait = b.env(&SignalNames::wait_state());
                b.stall_rule(&issue, "wait-state", wait)?;
            }
            if pipe.checks_scoreboard {
                let outstanding = b.env(&SignalNames::operand_outstanding(&pipe.name));
                b.stall_rule(&issue, "scoreboard", outstanding)?;
            }
        }

        // Lock-step groups: every issue stage stalls when any other issue
        // stage of its group stalls.
        for group in &self.lockstep_groups {
            for pipe in group {
                let issue = StageRef::new(pipe, 1);
                for other in group {
                    if other == pipe {
                        continue;
                    }
                    let other_stalled = b.stalled(&StageRef::new(other, 1));
                    b.stall_rule(&issue, "lockstep", other_stalled)?;
                }
            }
        }

        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::ExampleArch;
    use crate::fixpoint::derive_symbolic;
    use crate::properties::check_preconditions;
    use ipcl_expr::{parse_expr, semantically_equal, VarPool};

    #[test]
    fn paper_example_matches_hand_built_spec() {
        let generated = ArchSpec::paper_example().functional_spec().unwrap();
        let hand_built = ExampleArch::new().functional_spec();
        assert_eq!(generated.stages().len(), hand_built.stages().len());
        // Compare stage-by-stage conditions semantically, via a common pool.
        let mut common = VarPool::new();
        for (g, h) in generated.stages().iter().zip(hand_built.stages()) {
            assert_eq!(g.stage, h.stage);
            let g_text = g.condition().display(generated.pool()).to_string();
            let h_text = h.condition().display(hand_built.pool()).to_string();
            let g_expr = parse_expr(&g_text, &mut common).unwrap();
            let h_expr = parse_expr(&h_text, &mut common).unwrap();
            assert!(
                semantically_equal(&g_expr, &h_expr),
                "stage {} differs: {g_text} vs {h_text}",
                g.stage
            );
        }
    }

    #[test]
    fn firepath_like_shape() {
        let arch = ArchSpec::firepath_like();
        assert_eq!(arch.pipes.len(), 6);
        assert_eq!(arch.completion_buses.len(), 2);
        assert_eq!(arch.total_stages(), 2 * (6 + 4 + 2));
        let spec = arch.functional_spec().unwrap();
        assert_eq!(spec.stages().len(), 24);
        assert!(spec.has_cyclic_dependencies());
        assert!(check_preconditions(&spec).all_hold());
        // Shunt-full signals exist for the deep pipes only.
        assert!(spec.pool().lookup("deep_a.3.shunt_full").is_some());
        assert!(spec.pool().lookup("mul_a.3.shunt_full").is_none());
    }

    #[test]
    fn firepath_like_derivation_converges() {
        let spec = ArchSpec::firepath_like().functional_spec().unwrap();
        let derivation = derive_symbolic(&spec);
        assert_eq!(derivation.moe.len(), 24);
        assert!(derivation.had_cycles);
        let moe_vars = spec.moe_vars();
        for expr in derivation.moe.values() {
            assert!(expr.vars().iter().all(|v| !moe_vars.contains(v)));
        }
    }

    #[test]
    fn synthetic_scaling_configurations() {
        for (pipes, depth) in [(1, 2), (2, 4), (4, 6)] {
            let arch = ArchSpec::synthetic(pipes, depth);
            assert_eq!(arch.total_stages(), pipes * depth);
            let spec = arch.functional_spec().unwrap();
            assert_eq!(spec.stages().len(), (pipes * depth) as usize);
            assert!(check_preconditions(&spec).all_hold());
        }
    }

    #[test]
    fn stage_order_is_completion_first_per_pipe() {
        let arch = ArchSpec::paper_example();
        let order = arch.stage_order();
        let names: Vec<String> = order.iter().map(|s| s.prefix()).collect();
        assert_eq!(
            names,
            vec!["long.4", "long.3", "long.2", "long.1", "short.2", "short.1"]
        );
    }

    #[test]
    fn debug_output_names_the_architecture() {
        let arch = ArchSpec::firepath_like();
        assert!(format!("{arch:?}").contains("firepath-like"));
    }

    #[test]
    fn pipe_without_completion_bus_has_no_completion_rule() {
        let mut arch = ArchSpec::synthetic(1, 3);
        arch.pipes[0].completion_bus = None;
        let spec = arch.functional_spec().unwrap();
        let last = spec.stage(&StageRef::new("pipe0", 3)).unwrap();
        assert!(last.rules.is_empty());
    }
}
