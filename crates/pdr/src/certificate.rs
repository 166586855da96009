//! Inductive invariant certificates and their independent validation.
//!
//! A PDR proof is only as trustworthy as the frame bookkeeping that produced
//! it, so the engine does not ask to be trusted: every
//! [`PdrOutcome::Proved`](crate::PdrOutcome::Proved) verdict carries an
//! explicit [`Certificate`] — a conjunction of clauses over the netlist's
//! register state — and [`Certificate::validate`] re-establishes from
//! scratch, with a fresh unrolling and a fresh SAT solver that share nothing
//! with the PDR run, the three facts that make the invariant a proof:
//!
//! 1. **initiation** — the reset state satisfies the invariant;
//! 2. **consecution** — the invariant is closed under the transition
//!    relation (one SAT check on a two-frame unrolling);
//! 3. **safety** — no state satisfying the invariant can violate the
//!    property (under any input).
//!
//! Together these imply the property holds on every cycle of every
//! execution from reset, by induction over time. A verdict whose
//! certificate fails validation is an engine bug, and the checker treats it
//! exactly like a counterexample that fails to replay: it panics rather
//! than reporting "proved".

use std::collections::BTreeSet;
use std::fmt;

use ipcl_bmc::encode::FrameEncoder;
use ipcl_bmc::{BmcError, SequentialProperty};
use ipcl_core::FunctionalSpec;
use ipcl_expr::{Lit, VarId};
use ipcl_rtl::{InitialState, Netlist, SignalKind};
use ipcl_sat::{SatResult, Solver};
use ipcl_trace::report::write_json_string;

/// One literal of a certificate clause: a register and the polarity it must
/// have for the literal to be true.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StateLiteral {
    /// Name of the register in the netlist.
    pub register: String,
    /// `true` for the register itself, `false` for its negation.
    pub positive: bool,
}

impl fmt::Display for StateLiteral {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "{}", self.register)
        } else {
            write!(f, "!{}", self.register)
        }
    }
}

/// An inductive invariant over the netlist's registers: the conjunction of
/// [`Certificate::clauses`], each a disjunction of [`StateLiteral`]s.
///
/// The empty certificate denotes the invariant `true`, which is valid
/// exactly when the property is an unconditional (per-state, any-input)
/// tautology — the common case for combinational interlock implementations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Certificate {
    /// Name of the property the invariant proves.
    pub property: String,
    /// The invariant clauses.
    pub clauses: Vec<Vec<StateLiteral>>,
}

/// The verdicts of the three independent SAT checks of
/// [`Certificate::validate`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CertificateCheck {
    /// The reset state satisfies the invariant.
    pub initiation: bool,
    /// The invariant is closed under the transition relation.
    pub consecution: bool,
    /// No invariant state violates the property under any input.
    pub safety: bool,
}

impl CertificateCheck {
    /// Whether all three checks passed — i.e. the certificate really proves
    /// the property.
    pub fn ok(&self) -> bool {
        self.initiation && self.consecution && self.safety
    }
}

impl fmt::Display for CertificateCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = |ok: bool| if ok { "ok" } else { "FAILED" };
        write!(
            f,
            "initiation: {}, consecution: {}, safety: {}",
            verdict(self.initiation),
            verdict(self.consecution),
            verdict(self.safety)
        )
    }
}

impl Certificate {
    /// Whether the certificate is the trivial invariant `true`.
    pub fn is_trivial(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Renders the invariant as a conjunction of clauses, for reports.
    pub fn render(&self) -> String {
        if self.is_trivial() {
            return format!("certificate for {}: true (0 clauses)", self.property);
        }
        let mut out = format!(
            "certificate for {} ({} clause{}):\n",
            self.property,
            self.clauses.len(),
            if self.clauses.len() == 1 { "" } else { "s" }
        );
        for clause in &self.clauses {
            let lits: Vec<String> = clause.iter().map(|l| l.to_string()).collect();
            out.push_str(&format!("  ({})\n", lits.join(" | ")));
        }
        out
    }

    /// Serialises the certificate as a single-line JSON object:
    ///
    /// ```json
    /// {"property": "deep.1/performance",
    ///  "clauses": [[{"register": "wait[0]", "positive": false}, ...], ...]}
    /// ```
    ///
    /// The format is the storage side of the `ipcl-serve` proof cache;
    /// the matching parser lives there (`ipcl_serve::protocol`). Register
    /// names are JSON-escaped, so any netlist naming round-trips.
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\"property\": ");
        write_json_string(&mut out, &self.property);
        out.push_str(", \"clauses\": [");
        for (i, clause) in self.clauses.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('[');
            for (j, lit) in clause.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str("{\"register\": ");
                write_json_string(&mut out, &lit.register);
                out.push_str(&format!(", \"positive\": {}}}", lit.positive));
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }

    /// Independently re-validates the certificate against `netlist` and
    /// `property` with a fresh unrolling and a fresh SAT solver (nothing is
    /// shared with the PDR run that produced it). Returns the per-check
    /// verdicts; see the module docs for what each check establishes.
    ///
    /// # Errors
    ///
    /// [`BmcError::MissingSignals`] if the certificate names a register the
    /// netlist does not have (or names a non-register signal);
    /// [`BmcError::Rtl`] if the netlist does not elaborate.
    pub fn validate(
        &self,
        spec: &FunctionalSpec,
        netlist: &Netlist,
        property: &SequentialProperty,
    ) -> Result<CertificateCheck, BmcError> {
        // Resolve certificate registers up front.
        let mut missing = Vec::new();
        for clause in &self.clauses {
            for lit in clause {
                match netlist.find(&lit.register) {
                    Some(signal)
                        if matches!(netlist.signal(signal).kind, SignalKind::Register { .. }) => {}
                    _ => missing.push(lit.register.clone()),
                }
            }
        }
        missing.sort();
        missing.dedup();
        if !missing.is_empty() {
            return Err(BmcError::MissingSignals(missing));
        }

        let mut enc = FrameEncoder::new(netlist, InitialState::Free, 0)?;
        enc.ensure_frames(2);
        let moe_vars: BTreeSet<VarId> = spec.moe_vars().into_iter().collect();
        let offset = property.latency.offset();
        let bad = enc
            .encode_instance(spec, &moe_vars, property, offset)
            .negated();

        let clause_lit = |enc: &FrameEncoder, frame: usize, lit: &StateLiteral| -> Lit {
            let signal = enc
                .unroller()
                .netlist()
                .find(&lit.register)
                .expect("resolved above");
            let l = enc.unroller().lit(frame, signal);
            if lit.positive {
                l
            } else {
                l.negated()
            }
        };

        // Init under an activation literal: each register at its reset value
        // in frame 0.
        let act_init = enc.unroller_mut().fresh_lit();
        for register in netlist.registers() {
            let SignalKind::Register { init, .. } = netlist.signal(register).kind else {
                unreachable!("registers() yields registers");
            };
            let lit = enc.unroller().lit(0, register);
            let lit = if init { lit } else { lit.negated() };
            enc.unroller_mut().add_clause([act_init.negated(), lit]);
        }

        // The invariant over frame 0, under an activation literal.
        let act_inv = enc.unroller_mut().fresh_lit();
        for clause in &self.clauses {
            let mut lits = vec![act_inv.negated()];
            lits.extend(clause.iter().map(|l| clause_lit(&enc, 0, l)));
            enc.unroller_mut().add_clause(lits);
        }

        // ¬invariant at a frame: the disjunction over clauses of the
        // conjunction of the clause's negated literals.
        let not_inv_at = |enc: &mut FrameEncoder, frame: usize| -> Lit {
            if self.clauses.is_empty() {
                return enc.unroller().const_true().negated();
            }
            let negated_clauses: Vec<Lit> = self
                .clauses
                .iter()
                .map(|clause| {
                    let negated: Vec<Lit> = clause
                        .iter()
                        .map(|l| clause_lit(enc, frame, l).negated())
                        .collect();
                    enc.unroller_mut().define_and(&negated)
                })
                .collect();
            let all_hold: Vec<Lit> = negated_clauses.iter().map(|l| l.negated()).collect();
            enc.unroller_mut().define_and(&all_hold).negated()
        };
        let not_inv_0 = not_inv_at(&mut enc, 0);
        let not_inv_1 = not_inv_at(&mut enc, 1);

        let mut solver = Solver::from_cnf(enc.unroller().cnf());
        let unsat = |solver: &mut Solver, assumptions: &[Lit]| {
            solver.solve_under_assumptions(assumptions) == SatResult::Unsat
        };
        Ok(CertificateCheck {
            // Init ∧ ¬Inv unsatisfiable.
            initiation: unsat(&mut solver, &[act_init, not_inv_0]),
            // Inv ∧ T ∧ ¬Inv' unsatisfiable (T is the frame-0 → frame-1
            // transition built into the unrolling).
            consecution: unsat(&mut solver, &[act_inv, not_inv_1]),
            // Inv ∧ ¬ok unsatisfiable, for any input.
            safety: unsat(&mut solver, &[act_inv, bad]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_bmc::{Latency, PropertyKind};
    use ipcl_core::example::ExampleArch;
    use ipcl_synth::{synthesize_interlock_with, SynthesisOptions};

    fn registered_example() -> (ipcl_core::FunctionalSpec, Netlist) {
        let spec = ExampleArch::new().functional_spec();
        let synthesized = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: true,
                ..Default::default()
            },
        );
        (spec, synthesized.netlist().clone())
    }

    #[test]
    fn trivial_certificate_validates_for_tautological_properties() {
        let (spec, netlist) = registered_example();
        let property =
            SequentialProperty::for_stage(&spec, 0, PropertyKind::Combined, Latency::Registered);
        let certificate = Certificate {
            property: property.name.clone(),
            clauses: Vec::new(),
        };
        let check = certificate.validate(&spec, &netlist, &property).unwrap();
        assert!(check.ok(), "{check}");
    }

    #[test]
    fn wrong_invariant_fails_validation() {
        let (spec, netlist) = registered_example();
        let property =
            SequentialProperty::for_stage(&spec, 0, PropertyKind::Combined, Latency::Registered);
        // Claim some moe register is always low: the reset state (all moe
        // high) refutes initiation.
        let register = netlist
            .registers()
            .first()
            .map(|&r| netlist.signal(r).name.clone())
            .expect("registered synthesis has registers");
        let certificate = Certificate {
            property: property.name.clone(),
            clauses: vec![vec![StateLiteral {
                register,
                positive: false,
            }]],
        };
        let check = certificate.validate(&spec, &netlist, &property).unwrap();
        assert!(!check.initiation);
        assert!(!check.ok());
    }

    #[test]
    fn unknown_register_is_reported() {
        let (spec, netlist) = registered_example();
        let property =
            SequentialProperty::for_stage(&spec, 0, PropertyKind::Combined, Latency::Registered);
        let certificate = Certificate {
            property: property.name.clone(),
            clauses: vec![vec![StateLiteral {
                register: "no_such_register".to_owned(),
                positive: true,
            }]],
        };
        let err = certificate
            .validate(&spec, &netlist, &property)
            .unwrap_err();
        assert!(matches!(err, BmcError::MissingSignals(ref names) if names.len() == 1));
    }
}
