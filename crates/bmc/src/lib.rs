//! SAT-based bounded model checking and k-induction for sequential
//! interlock verification.
//!
//! The paper's case study finds *sequential* bugs — wrong reset values,
//! stalls that arrive a cycle late — which the combinational checks of
//! `ipcl-checker` cannot see and random simulation can only sample. This
//! crate makes registered interlock implementations provable objects:
//!
//! * [`Binding`] is the check context: it binds a specification to a
//!   [`Netlist`] once, elaborates the netlist at most once, and carries the
//!   cancellation token and tracer of the engine runs it is handed to.
//! * [`engine::check_properties`] unrolls the netlist over time frames
//!   (via [`FrameEncoder`]) and decides a list of
//!   [`SequentialProperty`]s with the incremental CDCL solver of
//!   `ipcl-sat`, over one shared pair of unrollings that encodes the
//!   netlist once: a **zero-step proof** (the paper's validity check on a
//!   free state, asked first) or a **k-induction** proof (base cases +
//!   loop-free inductive step) is valid for *all* cycles, not just the
//!   unrolled ones; **falsification** returns a minimal-length,
//!   simulator-replayable [`Counterexample`].
//! * [`engine::check_stall_escape`] proves the absence of deadlock/livelock:
//!   from any state in which a stage is stalled, an idle environment
//!   releases the stall within a bounded number of cycles. A
//!   [`engine::check_properties`] run asks it as one query on its free
//!   unrolling when given a window.
//!
//! * [`trace::fuzz`] searches for counterexamples by random simulation on
//!   the compiled 64-lane simulator of `ipcl-bitsim`, with replay's
//!   sampling; its candidates are replayed before anyone reports them.
//!
//! The user-facing entry point is `ipcl_checker::check_netlist_sequential`,
//! which binds the design once, builds the property portfolio, decides it
//! and the stall-escape check with one [`engine::check_properties`] run
//! (under PDR, one PDR run per property and the stall-escape check on its
//! own; the portfolio strategy runs both engines, PDR only on what
//! k-induction leaves open) and adds the reset-value check, every run over
//! the one binding.
//!
//! # Example
//!
//! ```
//! use ipcl_bmc::{check_properties, Binding, BmcOptions, Latency, SequentialProperty};
//! use ipcl_core::example::ExampleArch;
//! use ipcl_synth::synthesize_interlock;
//!
//! let spec = ExampleArch::new().functional_spec();
//! let synthesized = synthesize_interlock(&spec);
//! let binding = Binding::new(&spec, synthesized.netlist());
//! // The derived combinational interlock is not just bug-free up to a
//! // bound: k-induction proves it correct on every cycle.
//! let properties = SequentialProperty::both_directions(&spec, Latency::Combinational);
//! let (results, _) =
//!     check_properties(&binding, &properties, &BmcOptions::default(), None).unwrap();
//! assert!(results.iter().all(|result| result.outcome.is_proved()));
//! ```

pub mod binding;
pub mod encode;
pub mod engine;
pub mod property;
pub mod trace;

pub use binding::Binding;
pub use encode::{FrameEncoder, InitialState};
pub use engine::{
    check_properties, check_stall_escape, check_stall_escape_in, BmcError, BmcOptions, BmcOutcome,
    BmcResult, BmcStats, StallEscapeReport,
};
pub use property::{Latency, PropertyKind, SequentialProperty};
pub use trace::{fuzz, Counterexample, Replay, FUZZ_SEED};

// Re-exported so callers can name the netlist type without a direct
// `ipcl-rtl` dependency.
pub use ipcl_rtl::Netlist;

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_core::example::ExampleArch;
    use ipcl_synth::{synthesize_interlock, synthesize_interlock_with, SynthesisOptions};

    fn spec() -> ipcl_core::FunctionalSpec {
        ExampleArch::new().functional_spec()
    }

    /// One property, checked alone.
    fn check_one(
        spec: &ipcl_core::FunctionalSpec,
        netlist: &Netlist,
        property: &SequentialProperty,
        options: &BmcOptions,
    ) -> Result<BmcResult, BmcError> {
        let properties = std::slice::from_ref(property);
        check_properties(&Binding::new(spec, netlist), properties, options, None)
            .map(|(mut results, _)| results.remove(0))
    }

    #[test]
    fn combinational_interlock_is_proved_for_all_stages_and_kinds() {
        let spec = spec();
        let synthesized = synthesize_interlock(&spec);
        for kind in PropertyKind::ALL {
            for property in SequentialProperty::for_spec(&spec, kind, Latency::Combinational) {
                let result = check_one(
                    &spec,
                    synthesized.netlist(),
                    &property,
                    &BmcOptions::default(),
                )
                .unwrap();
                assert!(
                    result.outcome.is_proved(),
                    "{} should be proved, got {:?}",
                    property.name,
                    result.outcome
                );
            }
        }
    }

    #[test]
    fn registered_interlock_is_proved_at_registered_latency() {
        let spec = spec();
        let synthesized = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: true,
                ..Default::default()
            },
        );
        assert_eq!(
            Latency::detect(&spec, synthesized.netlist()),
            Latency::Registered
        );
        for property in
            SequentialProperty::for_spec(&spec, PropertyKind::Combined, Latency::Registered)
        {
            let result = check_one(
                &spec,
                synthesized.netlist(),
                &property,
                &BmcOptions::default(),
            )
            .unwrap();
            assert!(
                result.outcome.is_proved(),
                "{}: {:?}",
                property.name,
                result.outcome
            );
        }
    }

    #[test]
    fn wrong_reset_is_falsified_with_a_one_cycle_trace() {
        let spec = spec();
        let synthesized = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: false,
                ..Default::default()
            },
        );
        // Checked at combinational latency: the stalled-out-of-reset flags
        // are performance violations visible in the very first frame.
        let completion_stage = 0; // long.4, the completion stage
        let property = SequentialProperty::for_stage(
            &spec,
            completion_stage,
            PropertyKind::Performance,
            Latency::Combinational,
        );
        let result = check_one(
            &spec,
            synthesized.netlist(),
            &property,
            &BmcOptions::default(),
        )
        .unwrap();
        let cex = result
            .outcome
            .counterexample()
            .expect("wrong reset must be falsified")
            .clone();
        assert_eq!(cex.length(), 1, "minimal trace is the reset frame itself");
        let replay = cex.replay(&spec, synthesized.netlist(), &property).unwrap();
        assert!(replay.violation_reproduced, "{}", cex.render());
    }

    #[test]
    fn late_stall_is_falsified_with_a_two_cycle_trace() {
        let spec = spec();
        // Correct reset but registered outputs: the stall arrives one cycle
        // after the hazard. Checked against the combinational-latency
        // functional property this is the paper's late-stall bug; the first
        // frame is quiet, so the minimal trace is hazard-at-1.
        let synthesized = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: true,
                ..Default::default()
            },
        );
        let property = SequentialProperty::for_stage(
            &spec,
            0,
            PropertyKind::Functional,
            Latency::Combinational,
        );
        let result = check_one(
            &spec,
            synthesized.netlist(),
            &property,
            &BmcOptions::default(),
        )
        .unwrap();
        let cex = result
            .outcome
            .counterexample()
            .expect("late stall must be falsified")
            .clone();
        assert_eq!(cex.length(), 2, "{}", cex.render());
        let replay = cex.replay(&spec, synthesized.netlist(), &property).unwrap();
        assert!(replay.violation_reproduced, "{}", cex.render());
    }

    #[test]
    fn incremental_and_scratch_agree() {
        let spec = spec();
        let synthesized = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: true,
                ..Default::default()
            },
        );
        let property = SequentialProperty::for_stage(
            &spec,
            0,
            PropertyKind::Functional,
            Latency::Combinational,
        );
        let incremental = check_one(
            &spec,
            synthesized.netlist(),
            &property,
            &BmcOptions {
                induction: false,
                ..Default::default()
            },
        )
        .unwrap();
        let scratch = check_one(
            &spec,
            synthesized.netlist(),
            &property,
            &BmcOptions {
                induction: false,
                incremental: false,
                ..Default::default()
            },
        )
        .unwrap();
        let inc_cex = incremental.outcome.counterexample().unwrap();
        let scr_cex = scratch.outcome.counterexample().unwrap();
        assert_eq!(inc_cex.length(), scr_cex.length());
    }

    #[test]
    fn every_stall_state_is_escapable() {
        let spec = spec();
        for options in [
            SynthesisOptions::default(),
            SynthesisOptions {
                registered_outputs: true,
                ..Default::default()
            },
        ] {
            let synthesized = synthesize_interlock_with(&spec, options);
            let reports = check_stall_escape(&spec, synthesized.netlist(), 2).unwrap();
            assert_eq!(reports.len(), 6);
            for report in reports {
                assert!(
                    report.escapable,
                    "stage {} stuck in {:?}",
                    report.stage, report.stuck_state
                );
            }
        }
    }

    #[test]
    fn missing_moe_outputs_are_reported() {
        let spec = spec();
        let empty = Netlist::new("empty");
        let property = SequentialProperty::for_stage(
            &spec,
            0,
            PropertyKind::Functional,
            Latency::Combinational,
        );
        let err = check_one(&spec, &empty, &property, &BmcOptions::default()).unwrap_err();
        assert!(matches!(err, BmcError::MissingSignals(ref names) if names.len() == 1));
        let escape_err = check_stall_escape(&spec, &empty, 2).unwrap_err();
        assert!(matches!(escape_err, BmcError::MissingSignals(_)));
    }
}
