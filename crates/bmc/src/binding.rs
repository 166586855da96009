//! Specification variables resolved to netlist signals, once per run.
//!
//! Every layer between a [`FunctionalSpec`] and a [`Netlist`] asks the same
//! question of each specification variable: which signal implements it?
//! A [`Binding`] answers it for all of them at once, by name, so the
//! encoders, the decoders, the replay and the fuzzer work on indices and
//! never allocate or hash a name per occurrence.

use ipcl_core::FunctionalSpec;
use ipcl_expr::VarId;
use ipcl_rtl::{Netlist, SignalId};

/// Each specification variable of a spec resolved against one netlist:
/// the signal of the same name, if the netlist has one, and whether the
/// variable is a stage's `moe` flag.
#[derive(Clone, Debug)]
pub struct Binding {
    /// By variable index: the implementing signal.
    signals: Vec<Option<SignalId>>,
    /// By variable index: whether it is a `moe` flag.
    moe: Vec<bool>,
    /// The environment variables ([`FunctionalSpec::env_vars`]), in order.
    env: Vec<VarId>,
}

impl Binding {
    /// Resolves every variable of `spec`'s pool against `netlist`.
    pub fn new(spec: &FunctionalSpec, netlist: &Netlist) -> Binding {
        let pool = spec.pool();
        let mut moe = vec![false; pool.len()];
        for stage in spec.stages() {
            moe[stage.moe.index()] = true;
        }
        Binding {
            signals: pool.iter().map(|(_, name)| netlist.find(name)).collect(),
            moe,
            env: spec.env_vars().into_iter().collect(),
        }
    }

    /// The signal implementing `var`, if the netlist has one.
    pub fn signal(&self, var: VarId) -> Option<SignalId> {
        self.signals.get(var.index()).copied().flatten()
    }

    /// Whether `var` is a stage's `moe` flag.
    pub fn is_moe(&self, var: VarId) -> bool {
        self.moe.get(var.index()).copied().unwrap_or(false)
    }

    /// The environment variables: every variable a stall condition
    /// mentions that is not a `moe` flag, in id order.
    pub fn env(&self) -> &[VarId] {
        &self.env
    }

    /// The names of the `moe` flags the netlist does not implement: of
    /// every stage, or only of the stage with prefix `stage`.
    pub fn missing_moe(&self, spec: &FunctionalSpec, stage: Option<&str>) -> Vec<String> {
        spec.stages()
            .iter()
            .filter(|s| self.signal(s.moe).is_none())
            .filter(|s| stage.is_none_or(|prefix| s.stage.prefix() == prefix))
            .map(|s| spec.pool().name_or_fallback(s.moe))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_core::example::ExampleArch;
    use ipcl_synth::synthesize_interlock;

    #[test]
    fn binding_resolves_moe_and_environment_by_name() {
        let spec = ExampleArch::new().functional_spec();
        let synthesized = synthesize_interlock(&spec);
        let netlist = synthesized.netlist();
        let binding = Binding::new(&spec, netlist);
        for stage in spec.stages() {
            assert!(binding.is_moe(stage.moe));
            let name = spec.pool().name(stage.moe).unwrap();
            assert_eq!(binding.signal(stage.moe), netlist.find(name));
        }
        let env: Vec<VarId> = spec.env_vars().into_iter().collect();
        assert_eq!(binding.env(), env.as_slice());
        assert!(env.iter().all(|&var| !binding.is_moe(var)));
        assert!(binding.missing_moe(&spec, None).is_empty());

        let empty = Binding::new(&spec, &Netlist::new("empty"));
        assert_eq!(empty.missing_moe(&spec, None).len(), 6);
        assert_eq!(empty.missing_moe(&spec, Some("long.4")).len(), 1);
        assert_eq!(empty.signal(VarId(u32::MAX)), None);
    }
}
