//! Bit-parallel random falsification: the compiled 64-lane sweep.
//!
//! [`random_falsification_bitsim`] is the throughput-optimised twin of
//! [`crate::sequential::random_falsification`]: instead of driving one
//! random input sequence per simulator pass, it drives **64 independent
//! random sequences at once** through a compiled [`ipcl_bitsim::BitSimulator`]
//! — one `u64` word per signal, bit `i` belonging to scenario `i` — and
//! evaluates both assertion directions word-wide with
//! [`ipcl_bitsim::eval_expr_word`]. A sweep of `c` cycles therefore covers
//! `64 × c` scenario-cycles for roughly the cost the interpreter pays for
//! `c`.
//!
//! **Oracle discipline.** The bit-parallel engine is an accelerator, never
//! an authority: whenever a lane violates an assertion, that lane's input
//! history is extracted into a standard [`Counterexample`] and replayed
//! gate-by-gate through the interpreted [`ipcl_rtl::Simulator`] before the
//! trace is reported. A lane verdict that fails to reproduce under the
//! interpreter would mean the compiled program diverged from the netlist
//! semantics — a simulator bug, not a property verdict — and panics.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use ipcl_bitsim::{eval_expr_word, BitSimulator, LANES};
use ipcl_bmc::{Counterexample, Latency, PropertyKind, SequentialProperty};
use ipcl_core::FunctionalSpec;
use ipcl_expr::{Expr, VarId};
use ipcl_rtl::{Netlist, RtlError, SignalId, SignalKind};

use crate::sequential::DynamicViolation;

/// One word-wide assertion violation: the same observation as
/// [`DynamicViolation`], plus the mask of lanes (scenarios) that violated
/// simultaneously.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneViolation {
    /// Cycle at which the assertion fired.
    pub cycle: u64,
    /// Offending stage prefix.
    pub stage: String,
    /// `true` for a missed stall (functional), `false` for an unnecessary
    /// stall (performance).
    pub functional: bool,
    /// Bitmask of the violating lanes (bit `i` = scenario `i`).
    pub lanes: u64,
}

impl LaneViolation {
    /// Number of scenarios that violated this assertion at this cycle.
    pub fn lane_count(&self) -> u32 {
        self.lanes.count_ones()
    }
}

/// Result of a bit-parallel falsification sweep.
#[derive(Clone, Debug)]
pub struct BitSweep {
    /// Every word-wide violation observed, in cycle order.
    pub violations: Vec<LaneViolation>,
    /// One interpreter-verified counterexample per violated
    /// `(stage, direction)` pair — the first violating lane of the first
    /// violating cycle, its input history extracted frame by frame and
    /// replayed through [`ipcl_rtl::Simulator`] (reproduction is asserted).
    pub counterexamples: Vec<Counterexample>,
    /// Total scenario-cycles swept (`cycles × 64`).
    pub scenarios: u64,
}

impl BitSweep {
    /// Whether the sweep observed no violation in any lane.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations in the interpreter sweep's vocabulary (one
    /// [`DynamicViolation`] per violated cycle/stage/direction, lane
    /// multiplicity dropped) — what the sequential checker reports as its
    /// pre-pass violations.
    pub fn dynamic_violations(&self) -> Vec<DynamicViolation> {
        self.violations
            .iter()
            .map(|v| DynamicViolation {
                cycle: v.cycle,
                stage: v.stage.clone(),
                functional: v.functional,
            })
            .collect()
    }
}

/// Drives `netlist` with 64 independent random environment sequences of
/// `cycles` cycles each and evaluates the functional and performance
/// assertions on its `moe` outputs word-wide every cycle.
///
/// Assertions are evaluated combinationally (`moe` and environment sampled
/// in the same cycle), exactly like the interpreter sweep — run it on
/// combinational-latency implementations. Stages whose `moe` signal the
/// netlist does not implement are skipped (their violations could not be
/// replayed; the full sequential checker rejects such netlists up front).
///
/// The sweep is deterministic in `seed`. Violating lanes are extracted and
/// interpreter-verified per the module-level oracle discipline.
///
/// # Errors
///
/// Propagates [`RtlError`]s from netlist elaboration/compilation.
///
/// # Panics
///
/// Panics if an extracted counterexample fails to reproduce under the
/// interpreted simulator (a compiled-simulator bug, never a verdict).
pub fn random_falsification_bitsim(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    cycles: u64,
    seed: u64,
) -> Result<BitSweep, RtlError> {
    let mut sim = BitSimulator::new(netlist)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = spec.pool();
    let env_vars: Vec<VarId> = spec.env_vars().into_iter().collect();

    // Pre-resolve name lookups once: the environment inputs the netlist
    // implements, and each stage's moe signal.
    let driven: Vec<(VarId, Option<SignalId>)> = env_vars
        .iter()
        .map(|&var| {
            let signal = netlist
                .find(&pool.name_or_fallback(var))
                .filter(|&s| matches!(netlist.signal(s).kind, SignalKind::Input));
            (var, signal)
        })
        .collect();
    let moe_signals: Vec<Option<SignalId>> = spec
        .stages()
        .iter()
        .map(|stage| netlist.find(&pool.name_or_fallback(stage.moe)))
        .collect();
    let properties = SequentialProperty::both_directions(spec, Latency::Combinational);
    let conditions: Vec<Expr> = spec.stages().iter().map(|s| s.condition()).collect();

    // This cycle's words by variable id (0 where undriven), and every
    // cycle's environment words, for lane extraction.
    let slots = env_vars
        .iter()
        .chain(&spec.moe_vars())
        .map(|var| var.index() + 1)
        .max()
        .unwrap_or(0);
    let mut words = vec![0u64; slots];
    let mut history: Vec<Vec<(VarId, u64)>> = Vec::with_capacity(cycles as usize);
    let mut extracted: BTreeSet<(String, bool)> = BTreeSet::new();
    let mut violations = Vec::new();
    let mut counterexamples = Vec::new();

    for cycle in 0..cycles {
        // 64 random environments at once: every lane of every word is an
        // independent coin flip. Inputs are driven deferred; the first moe
        // read below pays the single combinational settle.
        words.fill(0);
        let mut frame = Vec::with_capacity(env_vars.len());
        for &(var, signal) in &driven {
            let word = rng.next_u64();
            words[var.index()] = word;
            frame.push((var, word));
            if let Some(signal) = signal {
                sim.set_input_word(signal, word);
            }
        }
        history.push(frame);
        // moe words shadow the environment, exactly like the interpreter
        // sweep's `moe.get(v).or(env.get(v))` lookup.
        for (stage, &signal) in spec.stages().iter().zip(&moe_signals) {
            if let Some(signal) = signal {
                words[stage.moe.index()] = sim.value_word(signal);
            }
        }

        let lookup = |v: VarId| words[v.index()];
        for ((stage, &signal), condition) in spec.stages().iter().zip(&moe_signals).zip(&conditions)
        {
            if signal.is_none() {
                continue;
            }
            let moving = words[stage.moe.index()];
            let condition = eval_expr_word(condition, lookup);
            for (functional, lanes) in [(true, condition & moving), (false, !moving & !condition)] {
                if lanes == 0 {
                    continue;
                }
                let prefix = stage.stage.prefix();
                violations.push(LaneViolation {
                    cycle,
                    stage: prefix.clone(),
                    functional,
                    lanes,
                });
                if extracted.insert((prefix.clone(), functional)) {
                    let cex = extract_and_verify(
                        spec,
                        netlist,
                        &properties,
                        &history,
                        &prefix,
                        functional,
                        cycle,
                        lanes,
                        pool,
                    )?;
                    counterexamples.push(cex);
                }
            }
        }
        sim.step();
    }

    Ok(BitSweep {
        violations,
        counterexamples,
        scenarios: cycles * LANES as u64,
    })
}

/// Extracts the lowest violating lane's input history into a
/// [`Counterexample`] and replays it through the interpreted simulator,
/// asserting the violation reproduces.
#[allow(clippy::too_many_arguments)]
fn extract_and_verify(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    properties: &[SequentialProperty],
    history: &[Vec<(VarId, u64)>],
    stage_prefix: &str,
    functional: bool,
    cycle: u64,
    lanes: u64,
    pool: &ipcl_expr::VarPool,
) -> Result<Counterexample, RtlError> {
    let kind = if functional {
        PropertyKind::Functional
    } else {
        PropertyKind::Performance
    };
    let property = properties
        .iter()
        .find(|p| p.stage == stage_prefix && p.kind == kind)
        .expect("both_directions covers every stage and direction");
    let lane = lanes.trailing_zeros() as usize;
    let frames: Vec<BTreeMap<String, bool>> = history
        .iter()
        .map(|frame| {
            frame
                .iter()
                .map(|&(var, word)| (pool.name_or_fallback(var), (word >> lane) & 1 == 1))
                .collect()
        })
        .collect();
    let cex = Counterexample {
        property: property.name.clone(),
        frames,
        violation_frame: cycle as usize,
    };
    let replay = cex.replay(spec, netlist, property)?;
    assert!(
        replay.violation_reproduced,
        "bit-parallel counterexample for {} (lane {lane}) failed to replay through \
         the interpreter — the compiled simulator diverged from the netlist \
         semantics:\n{}",
        property.name,
        cex.render()
    );
    Ok(cex)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::{random_falsification, DEFAULT_PREPASS_SEED};
    use ipcl_core::example::ExampleArch;
    use ipcl_pipesim::BrokenVariant;
    use ipcl_synth::{synthesize_broken_interlock, synthesize_interlock};

    #[test]
    fn correct_combinational_synthesis_sweeps_clean() {
        let spec = ExampleArch::new().functional_spec();
        let synthesized = synthesize_interlock(&spec);
        let sweep = random_falsification_bitsim(&spec, synthesized.netlist(), 300, 0xF00D).unwrap();
        assert!(sweep.clean(), "{:?}", sweep.violations);
        assert!(sweep.counterexamples.is_empty());
        assert_eq!(sweep.scenarios, 300 * 64);
    }

    #[test]
    fn sweep_is_deterministic_in_the_seed() {
        let spec = ExampleArch::new().functional_spec();
        let broken = synthesize_broken_interlock(&spec, BrokenVariant::IgnoreScoreboard);
        let a =
            random_falsification_bitsim(&spec, broken.netlist(), 40, DEFAULT_PREPASS_SEED).unwrap();
        let b =
            random_falsification_bitsim(&spec, broken.netlist(), 40, DEFAULT_PREPASS_SEED).unwrap();
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.counterexamples, b.counterexamples);
    }

    #[test]
    fn broken_interlocks_are_falsified_with_verified_traces() {
        let spec = ExampleArch::new().functional_spec();
        for variant in [
            BrokenVariant::IgnoreScoreboard,
            BrokenVariant::IgnoreCompletionGrant,
            BrokenVariant::BadResetValues { cycles: 2 },
        ] {
            let broken = synthesize_broken_interlock(&spec, variant);
            let sweep = random_falsification_bitsim(&spec, broken.netlist(), 100, 0xBAD).unwrap();
            assert!(!sweep.clean(), "{variant:?} not caught");
            // Extraction already asserted replay internally; re-verify the
            // reported traces externally for good measure.
            assert!(!sweep.counterexamples.is_empty(), "{variant:?}");
            let properties = SequentialProperty::both_directions(&spec, Latency::Combinational);
            for cex in &sweep.counterexamples {
                let property = properties
                    .iter()
                    .find(|p| p.name == cex.property)
                    .expect("extracted property exists");
                let replay = cex.replay(&spec, broken.netlist(), property).unwrap();
                assert!(replay.violation_reproduced, "{variant:?}: {}", cex.render());
            }
        }
    }

    #[test]
    fn lane_multiplicity_is_reported() {
        // The bad-reset bug fires in (nearly) every lane at cycle 0: the
        // word-wide sweep sees the multiplicity a scalar sweep cannot.
        let spec = ExampleArch::new().functional_spec();
        let broken =
            synthesize_broken_interlock(&spec, BrokenVariant::BadResetValues { cycles: 2 });
        let sweep = random_falsification_bitsim(&spec, broken.netlist(), 10, 0xF00D).unwrap();
        let early: Vec<_> = sweep.violations.iter().filter(|v| v.cycle == 0).collect();
        assert!(!early.is_empty());
        assert!(early.iter().any(|v| v.lane_count() > 1));
    }

    #[test]
    fn agrees_with_the_interpreter_sweep_on_detection() {
        // Different RNG consumption means different sequences, but on a
        // buggy netlist both sweeps must find violations, and on a correct
        // one neither may.
        let spec = ExampleArch::new().functional_spec();
        let correct = synthesize_interlock(&spec);
        let broken = synthesize_broken_interlock(&spec, BrokenVariant::IgnoreCompletionGrant);
        for (netlist, buggy) in [(correct.netlist(), false), (broken.netlist(), true)] {
            let interp = random_falsification(&spec, netlist, 200, 0x5EED).unwrap();
            let bits = random_falsification_bitsim(&spec, netlist, 200, 0x5EED).unwrap();
            assert_eq!(interp.is_empty(), !buggy);
            assert_eq!(bits.clean(), !buggy);
        }
    }
}
