//! Typed counterexample traces, deterministic replay and the lane fuzzer.
//!
//! A BMC falsification is only as trustworthy as its interpretation: the
//! solver model lives in CNF-land, so [`Counterexample`] reduces it to what
//! the engineer needs — *the input sequence* — and [`Counterexample::replay`]
//! re-runs that sequence through the cycle-accurate [`ipcl_rtl::Simulator`]
//! and re-evaluates the violated property on real signal values. A
//! counterexample that does not replay indicates an encoding bug, so the
//! checker asserts replayability before reporting.
//!
//! [`fuzz`] is the cheap way to such traces: 64 random input sequences at
//! once on the compiled [`ipcl_bitsim::BitSimulator`], every property
//! evaluated word-wide with replay's sampling. Its candidates are replayed
//! like any other trace before anyone reports them.

use std::collections::BTreeMap;

use ipcl_bitsim::{eval_expr_word, BitSimulator};
use ipcl_core::FunctionalSpec;
use ipcl_expr::VarId;
use ipcl_rtl::{Netlist, RtlError, SignalKind, Simulator};
use ipcl_trace::report::write_json_string;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::property::SequentialProperty;

/// A falsifying execution: one input valuation per frame, ending at the
/// frame where the property instance evaluates false.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// Name of the violated property (`"long.4/functional"`, …).
    pub property: String,
    /// Per-frame valuations of the primary inputs (and of any specification
    /// environment variables the netlist does not implement), keyed by
    /// signal name.
    pub frames: Vec<BTreeMap<String, bool>>,
    /// The frame at which the property's `moe` sample is violated (always
    /// the last frame of the trace).
    pub violation_frame: usize,
}

/// The signal values observed while replaying a counterexample.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Per-frame values of every specification variable as seen by the
    /// property evaluation (environment from the trace, `moe` from the
    /// simulator), keyed by name.
    pub observations: Vec<BTreeMap<String, bool>>,
    /// Whether the property indeed evaluates false at the violation frame.
    pub violation_reproduced: bool,
}

impl Counterexample {
    /// Number of frames (cycles) in the trace.
    pub fn length(&self) -> usize {
        self.frames.len()
    }

    /// Replays the trace through a fresh [`Simulator`] of `netlist` and
    /// re-evaluates `property` at the violation frame.
    ///
    /// Environment variables are read from the recorded frame at the
    /// property's latency offset; `moe` variables are read from the *live
    /// simulator* at the violation frame — so a reproduced violation really
    /// is a statement about the implementation, not about the solver model.
    ///
    /// # Errors
    ///
    /// Propagates [`RtlError`]s from netlist elaboration.
    pub fn replay(
        &self,
        spec: &FunctionalSpec,
        netlist: &Netlist,
        property: &SequentialProperty,
    ) -> Result<Replay, RtlError> {
        let mut simulator = Simulator::new(netlist)?;
        let moe_vars: std::collections::BTreeSet<VarId> = spec.moe_vars().into_iter().collect();
        let pool = spec.pool();
        let mut observations = Vec::with_capacity(self.frames.len());
        let mut violation_reproduced = false;

        for (frame, inputs) in self.frames.iter().enumerate() {
            // Drive every recorded value that is a primary input — batched,
            // so the frame costs one combinational settle, not one per
            // driven signal.
            simulator.set_inputs(inputs.iter().filter_map(|(name, &value)| {
                let signal = netlist.find(name)?;
                matches!(netlist.signal(signal).kind, SignalKind::Input).then_some((signal, value))
            }));

            // Observe the property's view of this frame.
            let env_frame = frame.saturating_sub(property.latency.offset());
            let lookup = |var: VarId| -> bool {
                let name = pool.name_or_fallback(var);
                if moe_vars.contains(&var) {
                    simulator.value_by_name(&name).unwrap_or(false)
                } else {
                    self.frames[env_frame].get(&name).copied().unwrap_or(false)
                }
            };
            let mut observed = BTreeMap::new();
            for var in property.ok.vars() {
                observed.insert(pool.name_or_fallback(var), lookup(var));
            }
            if frame == self.violation_frame
                && frame >= property.latency.first_instance()
                && !property.ok.eval_with(lookup)
            {
                violation_reproduced = true;
            }
            observations.push(observed);
            simulator.step();
        }

        Ok(Replay {
            observations,
            violation_reproduced,
        })
    }

    /// Serialises the trace as a single-line JSON object:
    ///
    /// ```json
    /// {"property": "long.4/functional", "violation_frame": 3,
    ///  "frames": [{"long.req": true, "c.gnt": false, ...}, ...]}
    /// ```
    ///
    /// The format is the storage side of the `ipcl-serve` result cache;
    /// the matching parser lives there (`ipcl_serve::protocol`). Signal
    /// names are JSON-escaped, so any netlist naming round-trips.
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\"property\": ");
        write_json_string(&mut out, &self.property);
        out.push_str(&format!(
            ", \"violation_frame\": {}, \"frames\": [",
            self.violation_frame
        ));
        for (i, frame) in self.frames.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('{');
            for (j, (name, value)) in frame.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_json_string(&mut out, name);
                out.push_str(&format!(": {value}"));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Renders the trace as a waveform-style table for reports.
    pub fn render(&self) -> String {
        let mut names: Vec<&String> = self.frames.iter().flat_map(|frame| frame.keys()).collect();
        names.sort();
        names.dedup();
        let mut out = format!(
            "counterexample for {} ({} cycle{}):\n",
            self.property,
            self.length(),
            if self.length() == 1 { "" } else { "s" }
        );
        for name in names {
            let values: String = self
                .frames
                .iter()
                .map(|frame| match frame.get(name) {
                    Some(true) => '1',
                    Some(false) => '0',
                    None => '-',
                })
                .collect();
            out.push_str(&format!("  {name:<28} {values}\n"));
        }
        out
    }
}

/// The lane fuzzer's conventional seed: a fixed value, so runs that use it
/// are reproducible.
pub const FUZZ_SEED: u64 = 0xB175_1B3C;

/// Searches for a violation of each of `properties` by random simulation:
/// 64 independent random environment sequences ("lanes") of up to `cycles`
/// frames, driven together through a compiled [`BitSimulator`] of `netlist`
/// from reset.
///
/// Every frame, each property without a candidate yet is evaluated
/// word-wide with exactly the sampling of [`Counterexample::replay`]: the
/// environment from frame `frame − latency.offset()`, `moe` signals from the
/// live simulator, instances from [`Latency::first_instance`] on — so the
/// list may mix latencies. The lowest violating lane of a property's first
/// violating frame becomes its candidate trace (`None` when no lane
/// violates it). The sweep stops once every property has a candidate, and
/// it is deterministic in `seed`.
///
/// Candidates are unchecked: the interpreter is the oracle, so callers
/// replay a candidate before they report it.
///
/// [`Latency::first_instance`]: crate::Latency::first_instance
///
/// # Errors
///
/// Propagates [`RtlError`]s from netlist compilation.
pub fn fuzz(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    properties: &[SequentialProperty],
    cycles: u64,
    seed: u64,
) -> Result<Vec<Option<Counterexample>>, RtlError> {
    let mut sim = BitSimulator::new(netlist)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = spec.pool();
    // Every environment variable with its name and the netlist input that
    // implements it, if any.
    let env: Vec<(VarId, String, Option<_>)> = spec
        .env_vars()
        .into_iter()
        .map(|var| {
            let name = pool.name_or_fallback(var);
            let input = netlist
                .find(&name)
                .filter(|&s| matches!(netlist.signal(s).kind, SignalKind::Input));
            (var, name, input)
        })
        .collect();
    // `moe[var]` is `Some(word)` for a moe variable (0 when the netlist
    // lacks its signal, as in replay) and `None` for anything else.
    let mut moe: Vec<Option<u64>> = vec![None; pool.len()];
    let mut moe_signals = Vec::new();
    for var in spec.moe_vars() {
        moe[var.index()] = Some(0);
        if let Some(signal) = netlist.find(&pool.name_or_fallback(var)) {
            moe_signals.push((var, signal));
        }
    }

    let mut candidates: Vec<Option<Counterexample>> = vec![None; properties.len()];
    let mut open = properties.len();
    // Per frame, the environment words by variable index.
    let mut history: Vec<Vec<u64>> = Vec::new();
    for frame in 0..cycles as usize {
        if open == 0 {
            break;
        }
        let mut words = vec![0u64; pool.len()];
        for &(var, _, input) in &env {
            let word = rng.next_u64();
            words[var.index()] = word;
            if let Some(input) = input {
                sim.set_input_word(input, word);
            }
        }
        history.push(words);
        for &(var, signal) in &moe_signals {
            moe[var.index()] = Some(sim.value_word(signal));
        }
        for (property, candidate) in properties.iter().zip(&mut candidates) {
            if candidate.is_some() || frame < property.latency.first_instance() {
                continue;
            }
            let sampled = &history[frame - property.latency.offset()];
            let bad = !eval_expr_word(&property.ok, |var| {
                let index = var.index();
                match moe.get(index) {
                    Some(Some(word)) => *word,
                    _ => sampled.get(index).copied().unwrap_or(0),
                }
            });
            if bad == 0 {
                continue;
            }
            let lane = bad.trailing_zeros();
            let frames = history
                .iter()
                .map(|words| {
                    env.iter()
                        .map(|(var, name, _)| (name.clone(), (words[var.index()] >> lane) & 1 == 1))
                        .collect()
                })
                .collect();
            *candidate = Some(Counterexample {
                property: property.name.clone(),
                frames,
                violation_frame: frame,
            });
            open -= 1;
        }
        sim.step();
    }
    Ok(candidates)
}
