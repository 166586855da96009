//! Experiment E8 (Section 5 further work): synthesis of the interlock control
//! logic from the specification, across architectures of increasing size,
//! with equivalence checked back against the combined specification.
//!
//! The run is a check: it exits non-zero unless every synthesised netlist
//! is equivalent to its specification under both engines.

use std::time::Instant;

use ipcl_checker::{check_netlist, Engine};
use ipcl_core::ArchSpec;
use ipcl_synth::synthesize_interlock;

fn main() {
    println!("# Specification-to-RTL synthesis of the interlock controller\n");
    ipcl_bench::header(&[
        "architecture",
        "stages",
        "env signals",
        "netlist signals",
        "verilog lines",
        "synthesis time",
        "equivalence (BDD)",
        "equivalence (SAT)",
    ]);
    for arch in [
        ArchSpec::paper_example(),
        ArchSpec::synthetic(2, 4),
        ArchSpec::synthetic(4, 6),
        ArchSpec::firepath_like(),
    ] {
        let spec = arch.functional_spec().expect("well-formed architecture");
        let start = Instant::now();
        let synthesized = synthesize_interlock(&spec);
        let elapsed = start.elapsed();
        let verilog_lines = synthesized.to_verilog().lines().count();
        let bdd = check_netlist(&spec, synthesized.netlist(), Engine::Bdd)
            .map(|r| r.holds())
            .unwrap_or(false);
        let sat = check_netlist(&spec, synthesized.netlist(), Engine::Sat)
            .map(|r| r.holds())
            .unwrap_or(false);
        ipcl_bench::row(&[
            arch.name.clone(),
            spec.stages().len().to_string(),
            spec.env_vars().len().to_string(),
            synthesized.netlist().len().to_string(),
            verilog_lines.to_string(),
            format!("{:.2?}", elapsed),
            bdd.to_string(),
            sat.to_string(),
        ]);
        assert!(bdd && sat, "{}: the netlist is not equivalent", arch.name);
    }
}
