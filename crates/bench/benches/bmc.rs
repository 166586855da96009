//! Criterion benchmark: BMC depth sweeps — incremental solving (one solver,
//! clause retention across depths) versus re-encoding from scratch at every
//! depth, plus the cost of a full k-induction proof.
//!
//! The incremental path is the point of `ipcl-sat`'s
//! `solve_under_assumptions`: a falsification-free sweep to depth *d* does
//! O(d) encoding work instead of O(d²), and learned clauses from shallow
//! depths prune the deeper searches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ipcl_bmc::{check_properties, BmcOptions, Latency, PropertyKind, SequentialProperty};
use ipcl_core::example::ExampleArch;
use ipcl_synth::{synthesize_interlock_with, SynthesisOptions};
use ipcl_trace::Tracer;

fn bench_depth_sweep(c: &mut Criterion) {
    let spec = ExampleArch::new().functional_spec();
    let synthesized = synthesize_interlock_with(
        &spec,
        SynthesisOptions {
            registered_outputs: true,
            reset_value: true,
            ..Default::default()
        },
    );
    // Combined property at registered latency holds at every depth, so the
    // sweep runs to the full bound — the worst case BMC workload.
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Combined, Latency::Registered);

    let mut group = c.benchmark_group("bmc_depth_sweep");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for depth in [4usize, 8, 16] {
        for (mode, incremental) in [("incremental", true), ("scratch", false)] {
            group.bench_with_input(BenchmarkId::new(mode, depth), &depth, |b, &depth| {
                let options = BmcOptions {
                    max_depth: depth,
                    incremental,
                    induction: false,
                    ..Default::default()
                };
                b.iter(|| {
                    let result = check_properties(
                        &spec,
                        synthesized.netlist(),
                        std::slice::from_ref(&property),
                        &options,
                        None,
                        &Tracer::disabled(),
                    )
                    .unwrap()
                    .remove(0);
                    assert!(!result.outcome.is_falsified());
                    result.stats.solve_calls
                })
            });
        }
    }
    group.finish();
}

fn bench_induction_proof(c: &mut Criterion) {
    let spec = ExampleArch::new().functional_spec();
    let combinational = ipcl_synth::synthesize_interlock(&spec);
    let registered = synthesize_interlock_with(
        &spec,
        SynthesisOptions {
            registered_outputs: true,
            reset_value: true,
            ..Default::default()
        },
    );

    let mut group = c.benchmark_group("k_induction_proof");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for (label, netlist, latency) in [
        (
            "combinational",
            combinational.netlist(),
            Latency::Combinational,
        ),
        ("registered", registered.netlist(), Latency::Registered),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), netlist, |b, netlist| {
            b.iter(|| {
                for property in SequentialProperty::for_spec(&spec, PropertyKind::Combined, latency)
                {
                    let result = check_properties(
                        &spec,
                        netlist,
                        std::slice::from_ref(&property),
                        &BmcOptions::default(),
                        None,
                        &Tracer::disabled(),
                    )
                    .unwrap()
                    .remove(0);
                    assert!(result.outcome.is_proved());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_depth_sweep, bench_induction_proof);
criterion_main!(benches);
