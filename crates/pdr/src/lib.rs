//! IC3 / property-directed reachability for sequential interlock
//! verification, with certified inductive invariants.
//!
//! The k-induction engine of `ipcl-bmc` proves a property only when some
//! small unrolling depth makes it inductive. Deep wait-state interactions —
//! a scoreboard entry marching through a long pipe before it can justify a
//! stall — defeat every small `k`, exactly the silicon-bound bug territory
//! of the paper's case study. This crate closes that gap:
//!
//! * [`check_property_pdr`] decides a [`SequentialProperty`] over the
//!   `ipcl-rtl` netlist of an [`ipcl_bmc::Binding`] (the check context the
//!   k-induction engine takes too) with **no unrolling bound**, by growing
//!   a trailing sequence of up to [`MAX_FRAMES`] frames over the
//!   incremental CDCL solver of `ipcl-sat` (per-frame activation literals,
//!   proof-obligation queue, cube generalisation guided by the solver's
//!   UNSAT cores, clause propagation that re-asks no settled push, with
//!   fixpoint detection);
//! * every proof ships an explicit [`Certificate`] — the inductive
//!   invariant as clauses over the netlist's registers — which
//!   [`Certificate::validate`] re-checks with independent initiation,
//!   consecution and safety SAT queries, so a "proved" verdict is
//!   self-auditing rather than trusted.
//!
//! The user-facing entry point is `ipcl_checker::check_netlist_sequential`
//! with `ProofStrategy::Pdr`, or `ProofStrategy::Portfolio`, which runs
//! k-induction over the whole property list and then this engine on each
//! property it leaves open.
//!
//! # Example
//!
//! ```
//! use ipcl_pdr::{check_property_pdr, deep::deep_pipeline, PdrOptions};
//! use ipcl_bmc::{check_properties, Binding, BmcOptions, Latency, PropertyKind,
//!     SequentialProperty};
//!
//! // A sticky wait-state chain: correct from reset, but not k-inductive
//! // for any k ≤ depth − 2 …
//! let (spec, netlist) = deep_pipeline(8);
//! let binding = Binding::new(&spec, &netlist);
//! let property = SequentialProperty::for_stage(&spec, 0, PropertyKind::Performance,
//!     Latency::Combinational);
//! let (bmc, _) = check_properties(&binding, std::slice::from_ref(&property),
//!     &BmcOptions::with_depth(5), None).unwrap();
//! assert!(!bmc[0].outcome.is_proved(), "k-induction is stuck below the chain depth");
//!
//! // … while PDR proves it outright, over the same binding, with a
//! // validated certificate.
//! let pdr = check_property_pdr(&binding, &property, &PdrOptions::default()).unwrap();
//! assert!(pdr.result.outcome.is_proved());
//! assert!(pdr.certificate.is_some() && pdr.validation.unwrap().ok());
//! ```

pub mod certificate;
pub mod deep;
pub mod engine;

pub use certificate::{Certificate, CertificateCheck, StateLiteral};
pub use engine::{check_property_pdr, PdrOptions, PdrResult, PdrStats, MAX_FRAMES};

// Re-exported so callers can name the shared vocabulary without a direct
// `ipcl-bmc` dependency.
pub use ipcl_bmc::{
    BmcError, BmcOutcome, BmcResult, BmcStats, Counterexample, Latency, PropertyKind,
    SequentialProperty,
};

#[cfg(test)]
mod tests {
    use super::*;
    use deep::deep_pipeline;
    use ipcl_bmc::{check_properties, Binding, BmcOptions};
    use ipcl_core::example::ExampleArch;
    use ipcl_core::FunctionalSpec;
    use ipcl_pipesim::BrokenVariant;
    use ipcl_synth::{
        synthesize_broken_interlock, synthesize_interlock, synthesize_interlock_with,
        SynthesisOptions,
    };

    fn spec() -> FunctionalSpec {
        ExampleArch::new().functional_spec()
    }

    /// PDR on one property, untraced and not cancellable.
    fn run_pdr(
        spec: &FunctionalSpec,
        netlist: &ipcl_bmc::Netlist,
        property: &SequentialProperty,
        options: &PdrOptions,
    ) -> Result<PdrResult, BmcError> {
        check_property_pdr(&Binding::new(spec, netlist), property, options)
    }

    #[test]
    fn pdr_proves_combinational_interlock_with_trivial_certificate() {
        let spec = spec();
        let synthesized = synthesize_interlock(&spec);
        for property in SequentialProperty::both_directions(&spec, Latency::Combinational) {
            let pdr = run_pdr(
                &spec,
                synthesized.netlist(),
                &property,
                &PdrOptions::default(),
            )
            .unwrap();
            assert!(pdr.result.outcome.is_proved(), "{}", property.name);
            let certificate = pdr.certificate.unwrap();
            assert!(
                certificate.is_trivial(),
                "stateless netlists need no invariant: {}",
                certificate.render()
            );
            assert!(pdr.validation.unwrap().ok());
        }
    }

    #[test]
    fn pdr_proves_registered_interlock_at_registered_latency() {
        let spec = spec();
        let synthesized = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: true,
                ..Default::default()
            },
        );
        for property in SequentialProperty::both_directions(&spec, Latency::Registered) {
            let pdr = run_pdr(
                &spec,
                synthesized.netlist(),
                &property,
                &PdrOptions::default(),
            )
            .unwrap();
            assert!(
                pdr.result.outcome.is_proved(),
                "{}: {:?}",
                property.name,
                pdr.result.outcome
            );
            assert!(pdr.validation.unwrap().ok(), "{}", property.name);
        }
    }

    #[test]
    fn pdr_falsifies_wrong_reset_with_replayable_trace() {
        let spec = spec();
        let synthesized = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: false,
                ..Default::default()
            },
        );
        let property = SequentialProperty::for_stage(
            &spec,
            0,
            PropertyKind::Performance,
            Latency::Combinational,
        );
        let pdr = run_pdr(
            &spec,
            synthesized.netlist(),
            &property,
            &PdrOptions::default(),
        )
        .unwrap();
        assert!(pdr.certificate.is_none() && pdr.validation.is_none());
        let cex = pdr
            .result
            .outcome
            .counterexample()
            .expect("wrong reset fails");
        let replay = cex.replay(&spec, synthesized.netlist(), &property).unwrap();
        assert!(replay.violation_reproduced, "{}", cex.render());
    }

    #[test]
    fn pdr_falsifies_forced_reset_chain_with_multi_cycle_trace() {
        // BadResetValues needs the obligation machinery: the bug is armed by
        // a register chain, so the violation lies a transition away from
        // reset and the trace is reconstructed from the obligation chain.
        let spec = spec();
        let broken =
            synthesize_broken_interlock(&spec, BrokenVariant::BadResetValues { cycles: 2 });
        let mut falsified = 0;
        for property in SequentialProperty::both_directions(&spec, Latency::Combinational) {
            let pdr = run_pdr(&spec, broken.netlist(), &property, &PdrOptions::default()).unwrap();
            if let Some(cex) = pdr.result.outcome.counterexample() {
                falsified += 1;
                let replay = cex.replay(&spec, broken.netlist(), &property).unwrap();
                assert!(replay.violation_reproduced, "{}", cex.render());
            }
        }
        assert!(falsified > 0, "forced flags must miss required stalls");
    }

    #[test]
    fn pdr_proves_deep_chain_where_k_induction_is_stuck() {
        // The ISSUE acceptance criterion: a correct-interlock property where
        // k-induction fails for all k ≤ 10 but PDR proves, with a validated
        // non-trivial certificate.
        let (spec, netlist) = deep_pipeline(13);
        let property = SequentialProperty::for_stage(
            &spec,
            0,
            PropertyKind::Performance,
            Latency::Combinational,
        );
        let bmc = check_properties(
            &Binding::new(&spec, &netlist),
            std::slice::from_ref(&property),
            &BmcOptions::with_depth(10),
            None,
        )
        .unwrap()
        .0
        .remove(0);
        assert!(
            matches!(bmc.outcome, BmcOutcome::Unknown { .. }),
            "k-induction must be stuck for every k ≤ 10, got {:?}",
            bmc.outcome
        );

        let pdr = run_pdr(&spec, &netlist, &property, &PdrOptions::default()).unwrap();
        let Some(certificate) = &pdr.certificate else {
            panic!(
                "PDR must prove the deep chain, got {:?}",
                pdr.result.outcome
            );
        };
        assert!(pdr.result.outcome.is_proved());
        assert!(!certificate.is_trivial(), "the proof needs real lemmas");
        let check = certificate.validate(&spec, &netlist, &property).unwrap();
        assert!(check.ok(), "{check}");
        assert_eq!(pdr.validation, Some(check));
    }

    #[test]
    fn generalization_drops_literals() {
        let (spec, netlist) = deep_pipeline(7);
        let property = SequentialProperty::for_stage(
            &spec,
            0,
            PropertyKind::Performance,
            Latency::Combinational,
        );
        let pdr = run_pdr(&spec, &netlist, &property, &PdrOptions::default()).unwrap();
        assert!(pdr.result.outcome.is_proved());
        assert!(pdr.stats.generalization_drops > 0);
    }

    #[test]
    fn missing_moe_outputs_are_reported() {
        let spec = spec();
        let empty = ipcl_bmc::Netlist::new("empty");
        let property = SequentialProperty::for_stage(
            &spec,
            0,
            PropertyKind::Functional,
            Latency::Combinational,
        );
        let err = run_pdr(&spec, &empty, &property, &PdrOptions::default()).unwrap_err();
        assert!(matches!(err, BmcError::MissingSignals(ref names) if names.len() == 1));
    }
}
