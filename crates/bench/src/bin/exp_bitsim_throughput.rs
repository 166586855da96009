//! Experiment E16: compiled bit-parallel simulation throughput.
//!
//! Measures what the `ipcl-bitsim` compilation buys over the interpreted
//! [`ipcl_rtl::Simulator`] as a *sweep engine*: scenario-cycles per
//! wall-second ("sweeps/sec"), where one sweep is one scenario advanced by
//! one clock cycle. The interpreter walks the gate graph once per scenario
//! per cycle; the compiled engine executes one levelized straight-line
//! pass over packed `u64` words and advances 64 scenarios at a time.
//!
//! Three design families, matching where the lane fuzzer runs:
//!
//! * `interlock` — the paper's registered interlock controller (the
//!   design the `synthesize_interlock` example fuzzes);
//! * `deep_chain` — the deep wait-state chains of `ipcl_pdr::deep`, swept
//!   over `depth` (the id metric); long levelized register chains are the
//!   compiled engine's best case and the family the headline claim is
//!   asserted on;
//! * `synthetic` — a seeded random gate soup (mux/xor-heavy, one register
//!   fold-back), the shape the differential fuzz suite exercises.
//!
//! **Oracle discipline before any clock is read:** for every design the
//! harness first runs a differential check — all 64 lanes of the compiled
//! engine against 64 independently driven interpreter runs, every signal,
//! every cycle — and panics on the first mismatch. Timing a simulator that
//! disagrees with the oracle would be meaningless.
//!
//! Asserted invariant (full runs only; `--smoke` reports without
//! asserting): on every `deep_chain` design the compiled engine sustains
//! **≥ 20×** the interpreter's sweeps/sec. The observed ratio on a single
//! core is typically far higher (the 64 lanes compound with the cheaper
//! per-gate dispatch), so 20× leaves room for noisy shared runners.
//!
//! Emits a `BENCH_*.json` document on stdout; `--smoke` shrinks the sweep
//! for CI; `--trace` / `--profile` / `--watch` enable the observability
//! layer as in every other experiment binary.

use std::time::Instant;

use ipcl_bench::{emit_bench_json, TraceArgs};
use ipcl_bitsim::{BitSimulator, LANES};
use ipcl_core::example::ExampleArch;
use ipcl_pdr::deep::deep_pipeline;
use ipcl_rtl::{Netlist, SignalId, SignalKind, Simulator};
use ipcl_synth::{synthesize_interlock_with, SynthesisOptions};
use ipcl_trace::Value;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The primary inputs of `netlist`, in id order.
fn primary_inputs(netlist: &Netlist) -> Vec<SignalId> {
    netlist
        .iter()
        .filter(|(_, signal)| matches!(signal.kind, SignalKind::Input))
        .map(|(id, _)| id)
        .collect()
}

/// A seeded random gate soup: `inputs` primary inputs, `gates` mixed
/// combinational gates, one register folding the last gate back in — the
/// same design family the differential fuzz suite draws from proptest.
fn synthetic_netlist(inputs: usize, gates: usize, seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut netlist = Netlist::new("synthetic");
    let mut nodes: Vec<SignalId> = (0..inputs)
        .map(|i| netlist.input(&format!("in{i}")))
        .collect();
    for j in 0..gates {
        let pick = |rng: &mut StdRng, nodes: &[SignalId]| {
            nodes[(rng.next_u64() % nodes.len() as u64) as usize]
        };
        let name = format!("g{j}");
        let a = pick(&mut rng, &nodes);
        let b = pick(&mut rng, &nodes);
        let c = pick(&mut rng, &nodes);
        let id = match rng.next_u64() % 6 {
            0 => netlist.buf_gate(&name, a),
            1 => netlist.not_gate(&name, a),
            2 => netlist.and_gate(&name, [a, b]),
            3 => netlist.or_gate(&name, [a, b]),
            4 => netlist.xor_gate(&name, a, b),
            _ => netlist.mux_gate(&name, a, b, c),
        };
        nodes.push(id);
    }
    let last = *nodes.last().expect("at least one input");
    let register = netlist.register("state", false);
    netlist
        .connect_register(register, last)
        .expect("combinational next");
    let out = netlist.or_gate("out", [register, last]);
    netlist.mark_output(out);
    netlist
}

/// The pre-timing oracle check: every lane of the compiled engine against
/// 64 independently driven interpreter runs, every signal, every cycle.
///
/// # Panics
///
/// On the first divergence — a simulator that disagrees with the oracle
/// must not be timed.
fn differential_check(netlist: &Netlist, cycles: usize, seed: u64) {
    let inputs = primary_inputs(netlist);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bits = BitSimulator::new(netlist).expect("design compiles");
    let mut interps: Vec<Simulator> = (0..LANES)
        .map(|_| Simulator::new(netlist).expect("design elaborates"))
        .collect();
    for cycle in 0..cycles {
        let frame: Vec<u64> = inputs.iter().map(|_| rng.next_u64()).collect();
        for (&input, &word) in inputs.iter().zip(&frame) {
            bits.set_input_word(input, word);
        }
        for (lane, interp) in interps.iter_mut().enumerate() {
            interp.set_inputs(
                inputs
                    .iter()
                    .zip(&frame)
                    .map(|(&input, &word)| (input, (word >> lane) & 1 == 1)),
            );
        }
        for (id, signal) in netlist.iter() {
            let word = bits.value_word(id);
            for (lane, interp) in interps.iter().enumerate() {
                assert_eq!(
                    (word >> lane) & 1 == 1,
                    interp.value(id),
                    "compiled simulator diverges from the interpreter oracle: \
                     cycle {cycle}, lane {lane}, signal '{}' of '{}'",
                    signal.name,
                    netlist.name()
                );
            }
        }
        bits.step();
        for interp in &mut interps {
            interp.step();
        }
    }
}

/// Interpreted sweep rate: one scenario per run, `steps` cycles of batched
/// random input driving per scenario, `reps` scenarios. Returns
/// scenario-cycles per second.
fn interpreted_rate(netlist: &Netlist, steps: usize, reps: usize, seed: u64) -> f64 {
    let inputs = primary_inputs(netlist);
    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();
    for _ in 0..reps {
        let mut sim = Simulator::new(netlist).expect("design elaborates");
        for _ in 0..steps {
            sim.set_inputs(inputs.iter().map(|&input| (input, rng.next_u64() & 1 == 1)));
            sim.step();
        }
    }
    (reps * steps) as f64 / start.elapsed().as_secs_f64()
}

/// Compiled sweep rate: 64 scenarios per run, `steps` cycles of random
/// word driving, `reps` runs. Returns scenario-cycles per second.
fn compiled_rate(netlist: &Netlist, steps: usize, reps: usize, seed: u64) -> f64 {
    let inputs = primary_inputs(netlist);
    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();
    for _ in 0..reps {
        let mut sim = BitSimulator::new(netlist).expect("design compiles");
        for _ in 0..steps {
            for &input in &inputs {
                sim.set_input_word(input, rng.next_u64());
            }
            sim.step();
        }
    }
    (reps * steps * LANES) as f64 / start.elapsed().as_secs_f64()
}

/// Median of three rate measurements (rates are noisy in the same way
/// timings are; the median discards the one-off outlier).
fn median_rate(measure: impl Fn() -> f64) -> f64 {
    let mut rates = [measure(), measure(), measure()];
    rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
    rates[1]
}

struct Design {
    label: &'static str,
    /// The `deep_chain` sweep parameter; `None` for the fixed designs.
    depth: Option<usize>,
    netlist: Netlist,
    /// Whether the ≥ 20× claim is asserted on this design (full runs).
    assert_speedup: bool,
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let trace = TraceArgs::from_env();

    let spec = ExampleArch::new().functional_spec();
    let interlock = synthesize_interlock_with(
        &spec,
        SynthesisOptions {
            registered_outputs: true,
            reset_value: true,
            ..Default::default()
        },
    )
    .netlist()
    .clone();

    let depths: Vec<usize> = if smoke {
        vec![16, 32]
    } else {
        vec![64, 128, 256]
    };
    let (synth_gates, steps, reps) = if smoke {
        (256, 2_000, 1)
    } else {
        (2_048, 20_000, 2)
    };

    let mut designs = vec![Design {
        label: "interlock",
        depth: None,
        netlist: interlock,
        assert_speedup: false,
    }];
    for &depth in &depths {
        designs.push(Design {
            label: "deep_chain",
            depth: Some(depth),
            netlist: deep_pipeline(depth).1,
            assert_speedup: !smoke,
        });
    }
    designs.push(Design {
        label: "synthetic",
        depth: None,
        netlist: synthetic_netlist(8, synth_gates, 0xB175),
        assert_speedup: false,
    });

    let mut entries = Vec::new();
    for design in &designs {
        let tag = match design.depth {
            Some(depth) => format!("{} depth {depth}", design.label),
            None => design.label.to_owned(),
        };
        let signals = design.netlist.iter().count();

        // Oracle first, clock second.
        differential_check(&design.netlist, 4, 0x0DD5);

        let span = trace.tracer().span("bitsim_throughput.design");
        let interp = median_rate(|| interpreted_rate(&design.netlist, steps, reps, 0x5EED));
        let compiled = median_rate(|| compiled_rate(&design.netlist, steps, reps, 0x5EED));
        drop(span);
        let speedup = compiled / interp;

        trace.tracer().event(
            "bitsim_throughput.measured",
            &[
                ("design", Value::from(design.label)),
                ("signals", Value::U64(signals as u64)),
                ("interp_sweeps_per_sec", Value::F64(interp)),
                ("bitsim_sweeps_per_sec", Value::F64(compiled)),
                ("speedup", Value::F64(speedup)),
            ],
        );
        eprintln!(
            "{tag}: {signals} signals, interpreted {interp:.0} sweeps/s, \
             compiled {compiled:.0} sweeps/s, speedup {speedup:.1}x"
        );
        if design.assert_speedup {
            assert!(
                speedup >= 20.0,
                "{tag}: compiled engine must sustain >= 20x the interpreter \
                 ({compiled:.0} vs {interp:.0} sweeps/s = {speedup:.1}x)"
            );
        }

        let depth_field = design
            .depth
            .map(|depth| format!(", \"depth\": {depth}"))
            .unwrap_or_default();
        entries.push(format!(
            concat!(
                "  {{\"experiment\": \"bitsim_throughput\", \"design\": \"{}\"{}, ",
                "\"signals\": {}, \"steps\": {}, ",
                "\"interp_sweeps_per_sec\": {:.1}, \"bitsim_sweeps_per_sec\": {:.1}, ",
                "\"speedup\": {:.2}}}"
            ),
            design.label, depth_field, signals, steps, interp, compiled, speedup,
        ));
    }

    emit_bench_json("bitsim_throughput", smoke, &entries);
    trace.finish();
}
