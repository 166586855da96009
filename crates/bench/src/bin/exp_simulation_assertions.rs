//! Experiment E5 (Section 2.2.2 / Results): simulation testbench assertions.
//!
//! Attaches the derived performance and functional assertions as runtime
//! monitors to simulations of the example machine under every interlock
//! policy (the correct maximal one, three over-conservative performance-bug
//! variants and three broken functional-bug variants), and reports what the
//! assertions catch, alongside the machine's ground truth.

use ipcl_assertgen::{AssertionKind, SpecMonitor, ViolationKind};
use ipcl_core::ArchSpec;
use ipcl_pipesim::{
    BrokenInterlock, BrokenVariant, ConservativeInterlock, ConservativeVariant, InterlockPolicy,
    Machine, MaximalInterlock, WorkloadConfig,
};

fn policies() -> Vec<Box<dyn InterlockPolicy>> {
    let mut policies: Vec<Box<dyn InterlockPolicy>> = vec![Box::new(MaximalInterlock)];
    for variant in ConservativeVariant::ALL {
        policies.push(Box::new(ConservativeInterlock::new(variant)));
    }
    policies.push(Box::new(BrokenInterlock::new(
        BrokenVariant::IgnoreScoreboard,
    )));
    policies.push(Box::new(BrokenInterlock::new(
        BrokenVariant::IgnoreCompletionGrant,
    )));
    policies.push(Box::new(BrokenInterlock::new(
        BrokenVariant::BadResetValues { cycles: 4 },
    )));
    policies
}

fn main() {
    let arch = ArchSpec::paper_example();
    let packets = 2_000;
    let program = WorkloadConfig::default()
        .with_packets(packets)
        .with_dependence_bias(0.6)
        .generate(0xDAC2002);

    println!("# Simulation with derived testbench assertions ({packets} packets)\n");
    ipcl_bench::header(&[
        "interlock",
        "cycles",
        "ipc",
        "assert: unnecessary stalls",
        "assert: missed stalls",
        "ground truth: unnecessary",
        "ground truth: hazards",
    ]);
    for policy in policies() {
        let name = policy.name();
        let mut machine = Machine::new(&arch, policy).expect("valid architecture");
        let spec = machine.spec().clone();
        let mut monitor = SpecMonitor::new(&spec, AssertionKind::Combined);
        let stats = machine.run_program_with_observer(&program, 400_000, |env, moe| {
            monitor.check_cycle(env, moe);
        });
        let report = monitor.report();
        ipcl_bench::row(&[
            name.to_owned(),
            stats.cycles.to_string(),
            format!("{:.3}", stats.ipc()),
            report.count_of(ViolationKind::UnnecessaryStall).to_string(),
            report.count_of(ViolationKind::MissedStall).to_string(),
            stats.unnecessary_stalls.to_string(),
            stats.hazards.total().to_string(),
        ]);
    }
    println!();
    println!(
        "Reading: the maximal interlock triggers no assertions and shows no hazards; the\n\
         conservative variants trigger performance assertions (and only those); the broken\n\
         variants trigger functional assertions and produce ground-truth hazards. Assertion\n\
         counts can differ from ground-truth stall counts because per-stage assertions only\n\
         see the signals of one cycle: the stalls of a lock-step issue group justify each\n\
         other, so a spurious group stall raises no performance assertion."
    );
}
