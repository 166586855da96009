//! The check context: a specification bound to a netlist, once per check.
//!
//! Every layer between a [`FunctionalSpec`] and a [`Netlist`] asks the same
//! question of each specification variable: which signal implements it?
//! A [`Binding`] answers it for all of them at once, by name, so the
//! encoders, the decoders, the replay and the fuzzer work on indices and
//! never allocate or hash a name per occurrence. A check builds one binding
//! and hands it to every engine run (the k-induction base and step
//! unrollings, the stall-escape check, PDR), which share its elaboration
//! order, cancellation token and tracer.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, Ordering};

use ipcl_core::FunctionalSpec;
use ipcl_expr::VarId;
use ipcl_rtl::{Netlist, RtlError, SignalId, SignalKind};
use ipcl_trace::Tracer;

use crate::engine::BmcError;
use crate::property::{Latency, SequentialProperty};

/// A specification bound to one netlist, with what the engine runs of one
/// check share; see the module docs.
#[derive(Clone, Debug)]
pub struct Binding<'a> {
    spec: &'a FunctionalSpec,
    netlist: &'a Netlist,
    /// By variable index: the implementing signal.
    signals: Vec<Option<SignalId>>,
    /// By variable index: whether it is a `moe` flag.
    moe: Vec<bool>,
    /// The environment variables ([`FunctionalSpec::env_vars`]), in order.
    env: Vec<VarId>,
    /// The netlist's elaboration, once an unrolling asked for it.
    order: OnceCell<Result<Vec<SignalId>, RtlError>>,
    cancel: Option<&'a AtomicBool>,
    tracer: Tracer,
}

impl<'a> Binding<'a> {
    /// Resolves every variable of `spec`'s pool against `netlist`, for runs
    /// that cannot be cancelled and record nothing.
    pub fn new(spec: &'a FunctionalSpec, netlist: &'a Netlist) -> Binding<'a> {
        let pool = spec.pool();
        let mut moe = vec![false; pool.len()];
        for stage in spec.stages() {
            moe[stage.moe.index()] = true;
        }
        Binding {
            spec,
            netlist,
            signals: pool.iter().map(|(_, name)| netlist.find(name)).collect(),
            moe,
            env: spec.env_vars().into_iter().collect(),
            order: OnceCell::new(),
            cancel: None,
            tracer: Tracer::disabled(),
        }
    }

    /// The binding for runs that poll `cancel` (once it is set, they answer
    /// every open property `Unknown`) and record into `tracer`.
    pub fn with_run(mut self, cancel: Option<&'a AtomicBool>, tracer: &Tracer) -> Binding<'a> {
        (self.cancel, self.tracer) = (cancel, tracer.clone());
        self
    }

    /// The specification.
    pub fn spec(&self) -> &'a FunctionalSpec {
        self.spec
    }

    /// The netlist.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The runs' tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Whether the runs' cancellation token is set.
    pub fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// The netlist's evaluation order of combinational wires, from
    /// [`Netlist::elaborate`] on the first call.
    ///
    /// # Errors
    ///
    /// The elaboration's [`RtlError`], on every call.
    pub fn elaboration(&self) -> Result<&[SignalId], RtlError> {
        let order = self.order.get_or_init(|| self.netlist.elaborate());
        order.as_deref().map_err(RtlError::clone)
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

    /// Checks that the netlist implements the `moe` flag of every stage, or
    /// of every stage `properties` names.
    ///
    /// # Errors
    ///
    /// [`BmcError::MissingSignals`] naming the missing flags: in stage
    /// order for every stage, sorted for `properties`.
    pub fn require_moe(&self, properties: Option<&[SequentialProperty]>) -> Result<(), BmcError> {
        let named =
            |prefix: String| properties.is_none_or(|ps| ps.iter().any(|p| p.stage == prefix));
        let mut missing: Vec<String> = (self.spec.stages().iter())
            .filter(|s| self.signal(s.moe).is_none() && named(s.stage.prefix()))
            .map(|s| self.spec.pool().name_or_fallback(s.moe))
            .collect();
        if properties.is_some() {
            missing.sort();
        }
        if missing.is_empty() {
            Ok(())
        } else {
            Err(BmcError::MissingSignals(missing))
        }
    }

    /// The latency matching the netlist: [`Latency::Registered`] when
    /// every `moe` output the netlist implements (one at least) is a
    /// register, [`Latency::Combinational`] otherwise.
    pub fn latency(&self) -> Latency {
        let mut moe = (self.spec.stages().iter())
            .filter_map(|s| self.signal(s.moe))
            .peekable();
        if moe.peek().is_some()
            && moe.all(|s| matches!(self.netlist.signal(s).kind, SignalKind::Register { .. }))
        {
            Latency::Registered
        } else {
            Latency::Combinational
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::PropertyKind;
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
        assert_eq!(binding.require_moe(None), Ok(()));

        let empty_netlist = Netlist::new("empty");
        let empty = Binding::new(&spec, &empty_netlist);
        let Err(BmcError::MissingSignals(all)) = empty.require_moe(None) else {
            panic!("an empty netlist implements no moe flag");
        };
        assert_eq!(all.len(), 6);
        let property =
            SequentialProperty::for_stage(&spec, 0, PropertyKind::Functional, Latency::Registered);
        assert_eq!(
            empty.require_moe(Some(std::slice::from_ref(&property))),
            Err(BmcError::MissingSignals(vec![all[0].clone()]))
        );
        assert_eq!(empty.signal(VarId(u32::MAX)), None);
    }

    #[test]
    fn elaboration_runs_once_and_repeats_its_error() {
        let spec = ExampleArch::new().functional_spec();
        let synthesized = synthesize_interlock(&spec);
        let binding = Binding::new(&spec, synthesized.netlist());
        let order = binding.elaboration().unwrap();
        assert_eq!(order, synthesized.netlist().elaborate().unwrap());
        assert!(std::ptr::eq(order, binding.elaboration().unwrap()));

        let mut dangling = synthesized.netlist().clone();
        dangling.register("dangling", false);
        let binding = Binding::new(&spec, &dangling);
        let error = RtlError::UnconnectedRegister("dangling".into());
        assert_eq!(binding.elaboration(), Err(error.clone()));
        assert_eq!(binding.elaboration(), Err(error));
    }
}
