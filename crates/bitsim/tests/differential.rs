//! Differential fuzzing of the compiled simulator against the interpreter.
//!
//! The interpreted [`ipcl_rtl::Simulator`] is the oracle: for every
//! generated netlist and input sequence, every lane of every
//! [`BitSimulator`] word must match, cycle by cycle and signal by signal,
//! a scalar interpreter run driven with that lane's bits. Coverage comes
//! from three directions: proptest-generated random netlists, the
//! synthesized interlock designs (correct and every `BrokenVariant`
//! bug-injection), and lane-extracted traces replayed through the
//! interpreter.

use ipcl_bitsim::{BitSimulator, LANES};
use ipcl_core::example::ExampleArch;
use ipcl_pipesim::BrokenVariant;
use ipcl_rtl::{Netlist, SignalId, SignalKind, Simulator};
use ipcl_synth::{
    synthesize_broken_interlock, synthesize_interlock, synthesize_interlock_with, SynthesisOptions,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One randomly drawn combinational gate: an op selector plus raw operand
/// picks, resolved modulo the number of already-built nodes (the generator
/// of `ipcl-serve`'s digest soundness suite, reused for value soundness).
type GateDraw = (u8, u64, u64, u64);

/// Builds a random netlist: `inputs` primary inputs feeding `gates`, a
/// register folding the last gate back in, and an `out` wire ORing both.
fn build_design(inputs: usize, gates: &[GateDraw], register_init: bool) -> Netlist {
    let mut netlist = Netlist::new("generated");
    let mut nodes: Vec<SignalId> = (0..inputs)
        .map(|i| netlist.input(&format!("in{i}")))
        .collect();
    for (j, &(op, a, b, c)) in gates.iter().enumerate() {
        let pick = |raw: u64| nodes[(raw % nodes.len() as u64) as usize];
        let name = format!("g{j}");
        let id = match op % 6 {
            0 => netlist.buf_gate(&name, pick(a)),
            1 => netlist.not_gate(&name, pick(a)),
            2 => netlist.and_gate(&name, [pick(a), pick(b)]),
            3 => netlist.or_gate(&name, [pick(a), pick(b)]),
            4 => netlist.xor_gate(&name, pick(a), pick(b)),
            _ => netlist.mux_gate(&name, pick(a), pick(b), pick(c)),
        };
        nodes.push(id);
    }
    let last = *nodes.last().expect("at least one input");
    let register = netlist.register("state", register_init);
    netlist
        .connect_register(register, last)
        .expect("combinational next");
    let out = netlist.or_gate("out", [register, last]);
    netlist.mark_output(out);
    netlist
}

/// The primary inputs of `netlist`, in id order.
fn primary_inputs(netlist: &Netlist) -> Vec<SignalId> {
    netlist
        .iter()
        .filter(|(_, signal)| matches!(signal.kind, SignalKind::Input))
        .map(|(id, _)| id)
        .collect()
}

/// Drives `words[cycle][input]` into both simulators (word-wide into the
/// compiled one, lane bits into 64 interpreters) and asserts every signal
/// of every lane matches on every cycle.
fn assert_lanes_match(netlist: &Netlist, words: &[Vec<u64>]) {
    let inputs = primary_inputs(netlist);
    let mut bits = BitSimulator::new(netlist).expect("compiles");
    let mut interps: Vec<Simulator> = (0..LANES)
        .map(|_| Simulator::new(netlist).expect("elaborates"))
        .collect();
    for (cycle, frame) in words.iter().enumerate() {
        for (&input, &word) in inputs.iter().zip(frame) {
            bits.set_input_word(input, word);
        }
        for (lane, interp) in interps.iter_mut().enumerate() {
            interp.set_inputs(
                inputs
                    .iter()
                    .zip(frame)
                    .map(|(&input, &word)| (input, (word >> lane) & 1 == 1)),
            );
        }
        for (id, signal) in netlist.iter() {
            let word = bits.value_word(id);
            for (lane, interp) in interps.iter().enumerate() {
                assert_eq!(
                    (word >> lane) & 1 == 1,
                    interp.value(id),
                    "cycle {cycle}, lane {lane}, signal '{}'",
                    signal.name
                );
            }
        }
        bits.step();
        for interp in &mut interps {
            interp.step();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random netlists, random 64-lane stimulus, five cycles: the compiled
    /// words must be bit-identical to 64 independent interpreter runs on
    /// every signal of every cycle.
    #[test]
    fn random_netlists_are_bit_identical_across_all_lanes(
        inputs in 2usize..=4,
        gates in collection::vec((0u8..6, any::<u64>(), any::<u64>(), any::<u64>()), 3..=12),
        register_init in any::<bool>(),
        stimulus in collection::vec(collection::vec(any::<u64>(), 4), 5),
    ) {
        let netlist = build_design(inputs, &gates, register_init);
        let words: Vec<Vec<u64>> = stimulus
            .iter()
            .map(|frame| frame[..inputs].to_vec())
            .collect();
        assert_lanes_match(&netlist, &words);
    }
}

/// Random stimulus words for `netlist`, deterministic in `seed`.
fn random_words(netlist: &Netlist, cycles: usize, seed: u64) -> Vec<Vec<u64>> {
    let inputs = primary_inputs(netlist).len();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..cycles)
        .map(|_| (0..inputs).map(|_| rng.next_u64()).collect())
        .collect()
}

/// The full synthesized-interlock matrix: the correct combinational and
/// registered controllers plus every bug-injected variant must simulate
/// bit-identically in all 64 lanes — the compiled engine reproduces the
/// bugs exactly as the oracle sees them, neither masking nor inventing.
#[test]
fn interlock_variant_matrix_is_bit_identical() {
    let spec = ExampleArch::new().functional_spec();
    let mut designs: Vec<Netlist> = vec![
        synthesize_interlock(&spec).netlist().clone(),
        synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: true,
                ..Default::default()
            },
        )
        .netlist()
        .clone(),
    ];
    for variant in [
        BrokenVariant::IgnoreScoreboard,
        BrokenVariant::IgnoreCompletionGrant,
        BrokenVariant::BadResetValues { cycles: 2 },
    ] {
        designs.push(
            synthesize_broken_interlock(&spec, variant)
                .netlist()
                .clone(),
        );
    }
    for (i, netlist) in designs.iter().enumerate() {
        let words = random_words(netlist, 8, 0xD1FF ^ i as u64);
        assert_lanes_match(netlist, &words);
    }
}

/// Lane extraction round-trip: record one lane's bits out of a word-driven
/// run, replay them through a fresh interpreter, and require the same
/// values the lane showed — the exact discipline the lane fuzzer's callers
/// use to turn a violating lane into a trustworthy counterexample trace.
#[test]
fn extracted_lane_traces_replay_through_the_interpreter() {
    let spec = ExampleArch::new().functional_spec();
    let netlist = synthesize_broken_interlock(&spec, BrokenVariant::IgnoreScoreboard)
        .netlist()
        .clone();
    let inputs = primary_inputs(&netlist);
    let words = random_words(&netlist, 10, 0x7AC3);

    // Word-driven run, recording every lane's view of every output.
    let mut bits = BitSimulator::new(&netlist).expect("compiles");
    let mut observed: Vec<Vec<u64>> = Vec::new(); // per cycle, per signal
    let signals: Vec<SignalId> = netlist.iter().map(|(id, _)| id).collect();
    for frame in &words {
        for (&input, &word) in inputs.iter().zip(frame) {
            bits.set_input_word(input, word);
        }
        observed.push(signals.iter().map(|&id| bits.value_word(id)).collect());
        bits.step();
    }

    // Extract a handful of lanes and replay each as a scalar trace.
    for lane in [0usize, 17, 63] {
        let mut interp = Simulator::new(&netlist).expect("elaborates");
        for (cycle, frame) in words.iter().enumerate() {
            interp.set_inputs(
                inputs
                    .iter()
                    .zip(frame)
                    .map(|(&input, &word)| (input, (word >> lane) & 1 == 1)),
            );
            for (slot, &id) in signals.iter().enumerate() {
                assert_eq!(
                    (observed[cycle][slot] >> lane) & 1 == 1,
                    interp.value(id),
                    "lane {lane}, cycle {cycle}, signal '{}'",
                    netlist.signal(id).name
                );
            }
            interp.step();
        }
    }
}

/// Per-lane reset must leave a masked lane exactly where a fresh scalar
/// simulator starts, while unmasked lanes keep their trajectory.
#[test]
fn per_lane_reset_matches_a_fresh_interpreter() {
    let spec = ExampleArch::new().functional_spec();
    let netlist = synthesize_interlock_with(
        &spec,
        SynthesisOptions {
            registered_outputs: true,
            reset_value: true,
            ..Default::default()
        },
    )
    .netlist()
    .clone();
    let inputs = primary_inputs(&netlist);
    let words = random_words(&netlist, 4, 0x5EAF);

    let mut bits = BitSimulator::new(&netlist).expect("compiles");
    for frame in &words {
        for (&input, &word) in inputs.iter().zip(frame) {
            bits.set_input_word(input, word);
        }
        bits.step();
    }
    // Retire lane 5: back to reset state with cleared inputs.
    bits.reset_lanes(1 << 5);
    let fresh = Simulator::new(&netlist).expect("elaborates");
    for (id, signal) in netlist.iter() {
        assert_eq!(
            bits.value_lane(id, 5),
            fresh.value(id),
            "lane 5 after reset_lanes, signal '{}'",
            signal.name
        );
    }
}
