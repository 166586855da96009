//! Runtime monitors evaluating specification assertions over signal
//! snapshots.
//!
//! A [`SpecMonitor`] is the executable form of the testbench assertions: it
//! is attached to a simulation (the observer hook of
//! `ipcl_pipesim::Machine::run_program_with_observer`) and checks, cycle by
//! cycle, the functional direction (missed stalls), the performance
//! direction (unnecessary stalls), or both.

use std::collections::BTreeMap;

use ipcl_core::FunctionalSpec;
use ipcl_expr::Assignment;

use crate::AssertionKind;

/// The kind of violation a monitor reports.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ViolationKind {
    /// The stall condition held but the stage claimed it could move
    /// (functional bug: hazard).
    MissedStall,
    /// The stage stalled although no stall condition held (performance bug:
    /// unnecessary stall).
    UnnecessaryStall,
}

/// One assertion violation observed during simulation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// Cycle at which the violation was observed.
    pub cycle: u64,
    /// The `pipe.stage` prefix of the offending stage.
    pub stage: String,
    /// Functional or performance violation.
    pub kind: ViolationKind,
    /// Labels of the stall rules that held at the time (empty for
    /// unnecessary stalls, where by definition no rule held).
    pub active_rules: Vec<String>,
}

/// Aggregated monitoring results.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MonitorReport {
    /// Cycles observed.
    pub cycles: u64,
    /// All recorded violations, in order of occurrence (capped by the
    /// monitor's `max_recorded`).
    pub violations: Vec<Violation>,
    /// Total violation counts per stage and kind (not capped).
    pub counts: BTreeMap<(String, ViolationKind), u64>,
}

impl MonitorReport {
    /// Total number of violations of the given kind.
    pub fn count_of(&self, kind: ViolationKind) -> u64 {
        self.counts
            .iter()
            .filter(|((_, k), _)| *k == kind)
            .map(|(_, c)| c)
            .sum()
    }

    /// Whether no assertion fired.
    pub fn is_clean(&self) -> bool {
        self.counts.is_empty()
    }
}

impl std::fmt::Display for MonitorReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "monitored {} cycles: {} missed stalls, {} unnecessary stalls",
            self.cycles,
            self.count_of(ViolationKind::MissedStall),
            self.count_of(ViolationKind::UnnecessaryStall)
        )?;
        for ((stage, kind), count) in &self.counts {
            writeln!(f, "  {stage}: {kind:?} x{count}")?;
        }
        Ok(())
    }
}

/// A runtime assertion monitor for one specification.
#[derive(Clone, Debug)]
pub struct SpecMonitor {
    spec: FunctionalSpec,
    kind: AssertionKind,
    report: MonitorReport,
    max_recorded: usize,
}

impl SpecMonitor {
    /// Creates a monitor checking assertions of the given kind.
    pub fn new(spec: &FunctionalSpec, kind: AssertionKind) -> Self {
        SpecMonitor {
            spec: spec.clone(),
            kind,
            report: MonitorReport::default(),
            max_recorded: 1_000,
        }
    }

    /// Limits how many individual [`Violation`] records are kept (counts are
    /// always complete).
    pub fn with_max_recorded(mut self, max_recorded: usize) -> Self {
        self.max_recorded = max_recorded;
        self
    }

    /// Checks one cycle: `env` holds the environment signals, `moe` the
    /// implementation's `moe` flags. Returns the violations found this cycle
    /// (also accumulated into the report).
    pub fn check_cycle(&mut self, env: &Assignment, moe: &Assignment) -> Vec<Violation> {
        let cycle = self.report.cycles;
        self.report.cycles += 1;
        let mut found = Vec::new();
        let lookup = |v| moe.get(v).or(env.get(v)).unwrap_or(false);
        for stage in self.spec.stages() {
            let moving = moe.get(stage.moe).unwrap_or(true);
            let condition_holds = stage.condition().eval_with(lookup);
            let functional_violated = condition_holds && moving;
            let performance_violated = !moving && !condition_holds;
            let relevant = match self.kind {
                AssertionKind::Functional => {
                    functional_violated.then_some(ViolationKind::MissedStall)
                }
                AssertionKind::Performance => {
                    performance_violated.then_some(ViolationKind::UnnecessaryStall)
                }
                AssertionKind::Combined => {
                    if functional_violated {
                        Some(ViolationKind::MissedStall)
                    } else if performance_violated {
                        Some(ViolationKind::UnnecessaryStall)
                    } else {
                        None
                    }
                }
            };
            if let Some(kind) = relevant {
                let active_rules = stage
                    .rules
                    .iter()
                    .filter(|r| r.condition.eval_with(lookup))
                    .map(|r| r.label.clone())
                    .collect();
                let violation = Violation {
                    cycle,
                    stage: stage.stage.prefix(),
                    kind,
                    active_rules,
                };
                *self
                    .report
                    .counts
                    .entry((violation.stage.clone(), kind))
                    .or_insert(0) += 1;
                if self.report.violations.len() < self.max_recorded {
                    self.report.violations.push(violation.clone());
                }
                found.push(violation);
            }
        }
        found
    }

    /// The accumulated report.
    pub fn report(&self) -> &MonitorReport {
        &self.report
    }

    /// Consumes the monitor, returning the report.
    pub fn into_report(self) -> MonitorReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_core::example::ExampleArch;
    use ipcl_core::fixpoint::derive_concrete;
    use ipcl_core::model::StageRef;

    fn example_env(wait: bool) -> (FunctionalSpec, Assignment) {
        let spec = ExampleArch::new().functional_spec();
        let mut env = Assignment::new();
        if wait {
            env.set(spec.pool().lookup("op_is_wait").unwrap(), true);
        }
        (spec, env)
    }

    #[test]
    fn clean_when_implementation_matches_derivation() {
        let (spec, env) = example_env(true);
        let moe = derive_concrete(&spec, &env);
        let mut monitor = SpecMonitor::new(&spec, AssertionKind::Combined);
        let violations = monitor.check_cycle(&env, &moe);
        assert!(violations.is_empty());
        assert!(monitor.report().is_clean());
        assert_eq!(monitor.report().cycles, 1);
    }

    #[test]
    fn missed_stall_detected_by_functional_monitor() {
        let (spec, env) = example_env(true);
        let mut moe = derive_concrete(&spec, &env);
        // The implementation (incorrectly) lets long.1 move during a wait.
        let long1 = spec.moe_var(&StageRef::new("long", 1)).unwrap();
        moe.set(long1, true);
        let mut functional = SpecMonitor::new(&spec, AssertionKind::Functional);
        let violations = functional.check_cycle(&env, &moe);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::MissedStall);
        assert_eq!(violations[0].stage, "long.1");
        assert!(violations[0]
            .active_rules
            .contains(&"wait-state".to_owned()));
        // A pure performance monitor does not flag the over-eager stage
        // itself (missed stalls are invisible to it). It may, however, flag
        // the lock-step partner whose stall is now unjustified — which is why
        // the combined monitor is the recommended default.
        let mut performance = SpecMonitor::new(&spec, AssertionKind::Performance);
        let perf_violations = performance.check_cycle(&env, &moe);
        assert!(perf_violations.iter().all(|v| v.stage != "long.1"));
    }

    #[test]
    fn unnecessary_stall_detected_by_performance_monitor() {
        let (spec, env) = example_env(false);
        let mut moe = derive_concrete(&spec, &env);
        // The implementation stalls long.3 although nothing requires it.
        let long3 = spec.moe_var(&StageRef::new("long", 3)).unwrap();
        moe.set(long3, false);
        let mut performance = SpecMonitor::new(&spec, AssertionKind::Performance);
        let violations = performance.check_cycle(&env, &moe);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::UnnecessaryStall);
        assert_eq!(violations[0].stage, "long.3");
        assert!(violations[0].active_rules.is_empty());
        // The functional monitor does not flag over-stalling.
        let mut functional = SpecMonitor::new(&spec, AssertionKind::Functional);
        assert!(functional.check_cycle(&env, &moe).is_empty());
        // The combined monitor flags it too.
        let mut combined = SpecMonitor::new(&spec, AssertionKind::Combined);
        assert_eq!(combined.check_cycle(&env, &moe).len(), 1);
    }

    #[test]
    fn report_accumulates_counts_beyond_recording_cap() {
        let (spec, env) = example_env(false);
        let mut moe = derive_concrete(&spec, &env);
        let long3 = spec.moe_var(&StageRef::new("long", 3)).unwrap();
        moe.set(long3, false);
        let mut monitor = SpecMonitor::new(&spec, AssertionKind::Performance).with_max_recorded(2);
        for _ in 0..10 {
            monitor.check_cycle(&env, &moe);
        }
        let report = monitor.report();
        assert_eq!(report.cycles, 10);
        assert_eq!(report.violations.len(), 2);
        assert_eq!(report.count_of(ViolationKind::UnnecessaryStall), 10);
        let rendered = report.to_string();
        assert!(rendered.contains("unnecessary stalls"));
        assert!(rendered.contains("long.3"));
        let report = monitor.into_report();
        assert_eq!(report.count_of(ViolationKind::MissedStall), 0);
    }
}
