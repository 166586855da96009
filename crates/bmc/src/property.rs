//! Sequential safety properties over interlock implementations.
//!
//! A [`SequentialProperty`] is an invariant that must hold on every cycle of
//! an execution: an expression over the specification's environment signals
//! and `moe` flags, together with a [`Latency`] telling the checker at which
//! time frame each variable class is sampled. The three property kinds
//! mirror the combinational checker's spec directions (functional /
//! performance / combined, Figures 2 and 3 of the paper), lifted to
//! sequences.

use ipcl_core::FunctionalSpec;
use ipcl_expr::Expr;
use ipcl_rtl::Netlist;

use crate::binding::Binding;

/// When the implementation's `moe` outputs are sampled relative to the
/// environment inputs that justify them.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Latency {
    /// `moe` and environment are sampled in the same frame — the right model
    /// for combinational interlock implementations, where the outputs react
    /// within the cycle.
    #[default]
    Combinational,
    /// `moe` is sampled one frame after the environment — the right model
    /// for implementations whose `moe` outputs are registered: the flags at
    /// cycle *t+1* answer for the environment of cycle *t*.
    Registered,
}

impl Latency {
    /// Frames between the environment sample and the `moe` sample.
    pub fn offset(self) -> usize {
        match self {
            Latency::Combinational => 0,
            Latency::Registered => 1,
        }
    }

    /// The earliest frame at which a property instance is well-defined.
    pub fn first_instance(self) -> usize {
        self.offset()
    }

    /// Chooses the latency matching `netlist`: [`Latency::Registered`] when
    /// every `moe` output the netlist implements is a register,
    /// [`Latency::Combinational`] otherwise ([`Binding::latency`]).
    pub fn detect(spec: &FunctionalSpec, netlist: &Netlist) -> Latency {
        Binding::new(spec, netlist).latency()
    }
}

/// Which direction of the specification the property asserts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PropertyKind {
    /// `condition → ¬moe`: no missed stalls (safety of the data).
    Functional,
    /// `¬moe → condition`: no unnecessary stalls (the paper's performance
    /// bugs).
    Performance,
    /// `condition ↔ ¬moe`: the maximum-performance behaviour exactly.
    Combined,
}

impl PropertyKind {
    /// All property kinds.
    pub const ALL: [PropertyKind; 3] = [
        PropertyKind::Functional,
        PropertyKind::Performance,
        PropertyKind::Combined,
    ];

    /// Short name used in property identifiers and reports.
    pub fn name(self) -> &'static str {
        match self {
            PropertyKind::Functional => "functional",
            PropertyKind::Performance => "performance",
            PropertyKind::Combined => "combined",
        }
    }
}

/// An every-cycle invariant over one pipeline stage.
#[derive(Clone, Debug)]
pub struct SequentialProperty {
    /// Identifier, e.g. `"long.4/functional"`.
    pub name: String,
    /// The stage prefix the property talks about.
    pub stage: String,
    /// Which spec direction it asserts.
    pub kind: PropertyKind,
    /// The invariant: must evaluate true at every instance. Variables that
    /// are `moe` flags of the specification are sampled at the instance
    /// frame; all other variables (the environment) are sampled
    /// [`Latency::offset`] frames earlier.
    pub ok: Expr,
    /// The sampling discipline.
    pub latency: Latency,
}

impl SequentialProperty {
    /// Builds the property of `kind` for one stage of `spec`.
    pub fn for_stage(
        spec: &FunctionalSpec,
        stage_index: usize,
        kind: PropertyKind,
        latency: Latency,
    ) -> SequentialProperty {
        let stage = &spec.stages()[stage_index];
        let condition = stage.condition();
        let not_moe = Expr::not(Expr::var(stage.moe));
        let ok = match kind {
            PropertyKind::Functional => Expr::implies(condition, not_moe),
            PropertyKind::Performance => Expr::implies(not_moe, condition),
            PropertyKind::Combined => Expr::iff(condition, not_moe),
        };
        SequentialProperty {
            name: format!("{}/{}", stage.stage.prefix(), kind.name()),
            stage: stage.stage.prefix(),
            kind,
            ok,
            latency,
        }
    }

    /// The properties of `kind` for every stage of `spec`.
    pub fn for_spec(
        spec: &FunctionalSpec,
        kind: PropertyKind,
        latency: Latency,
    ) -> Vec<SequentialProperty> {
        (0..spec.stages().len())
            .map(|i| SequentialProperty::for_stage(spec, i, kind, latency))
            .collect()
    }

    /// Functional and performance properties for every stage (the default
    /// portfolio of `check_netlist_sequential`: two one-sided properties per
    /// stage give more precise blame than one combined property).
    pub fn both_directions(spec: &FunctionalSpec, latency: Latency) -> Vec<SequentialProperty> {
        let mut properties = SequentialProperty::for_spec(spec, PropertyKind::Functional, latency);
        properties.extend(SequentialProperty::for_spec(
            spec,
            PropertyKind::Performance,
            latency,
        ));
        properties
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_core::example::ExampleArch;
    use ipcl_synth::{synthesize_interlock, synthesize_interlock_with, SynthesisOptions};

    #[test]
    fn properties_cover_every_stage() {
        let spec = ExampleArch::new().functional_spec();
        for kind in PropertyKind::ALL {
            let properties = SequentialProperty::for_spec(&spec, kind, Latency::Combinational);
            assert_eq!(properties.len(), 6);
            assert!(properties.iter().all(|p| p.name.ends_with(kind.name())));
        }
        assert_eq!(
            SequentialProperty::both_directions(&spec, Latency::Combinational).len(),
            12
        );
    }

    #[test]
    fn latency_detection() {
        let spec = ExampleArch::new().functional_spec();
        let combinational = synthesize_interlock(&spec);
        assert_eq!(
            Latency::detect(&spec, combinational.netlist()),
            Latency::Combinational
        );
        let registered = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                ..Default::default()
            },
        );
        assert_eq!(
            Latency::detect(&spec, registered.netlist()),
            Latency::Registered
        );
        assert_eq!(Latency::Combinational.offset(), 0);
        assert_eq!(Latency::Registered.offset(), 1);
        assert_eq!(Latency::Registered.first_instance(), 1);
    }
}
