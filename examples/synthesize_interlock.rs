//! The paper's "further work": synthesising the interlock control logic from
//! its specification, emitting Verilog, and proving the result equivalent to
//! the combined specification — including catching a wrong reset value.
//!
//! Run with `cargo run --example synthesize_interlock`.

use ipcl::bmc::{fuzz, FUZZ_SEED};
use ipcl::checker::{check_netlist, check_reset_values, Engine, Latency, SequentialProperty};
use ipcl::core::example::ExampleArch;
use ipcl::synth::{synthesize_interlock, synthesize_interlock_with, SynthesisOptions};

fn main() {
    let spec = ExampleArch::new().functional_spec();

    // Combinational synthesis straight from the derived closed forms.
    let synthesized = synthesize_interlock(&spec);
    println!("=== Synthesised interlock (combinational) ===");
    println!(
        "netlist: {} signals, {} moe outputs, {} environment inputs",
        synthesized.netlist().len(),
        synthesized.moe_outputs().len(),
        synthesized.inputs().len()
    );
    let report =
        check_netlist(&spec, synthesized.netlist(), Engine::Bdd).expect("all moe outputs present");
    println!(
        "equivalent to the combined specification: {}",
        report.holds()
    );

    println!("\n=== Generated Verilog (excerpt) ===");
    for line in synthesized.to_verilog().lines().take(25) {
        println!("{line}");
    }
    println!("...");

    // Registered variant with an injected initialisation bug — the class of
    // defect the paper reports finding on FirePath.
    let buggy = synthesize_interlock_with(
        &spec,
        SynthesisOptions {
            registered_outputs: true,
            reset_value: false,
            ..Default::default()
        },
    );
    println!("\n=== Reset-value check of a registered implementation ===");
    let reset = check_reset_values(&spec, buggy.netlist());
    println!(
        "registered moe outputs examined: {}, wrong reset values: {}",
        reset.examined,
        reset.mismatches.len()
    );
    for (signal, expected, actual) in &reset.mismatches {
        println!("  {signal}: resets to {actual} but the empty pipeline requires {expected}");
    }

    // Sampled in the cycle it occurs, a stall out of reset violates the
    // performance property at cycle 0.
    let properties = SequentialProperty::both_directions(&spec, Latency::Combinational);
    let candidates =
        fuzz(&spec, buggy.netlist(), &properties, 100, FUZZ_SEED).expect("netlist compiles");
    let traces: Vec<_> = candidates.iter().flatten().collect();
    println!(
        "lane fuzz falsified {} of {} properties in 100 cycles x 64 lanes (earliest at cycle {})",
        traces.len(),
        properties.len(),
        traces
            .iter()
            .map(|t| t.violation_frame)
            .min()
            .unwrap_or_default()
    );
}
