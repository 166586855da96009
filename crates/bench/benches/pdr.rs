//! Criterion benchmark: the IC3/PDR engine versus k-induction.
//!
//! Two regimes: on registered interlocks both engines prove quickly and the
//! bench compares their constant factors; on the deep wait-state chains
//! k-induction runs to its bound without an answer while PDR's cost is the
//! discovery of the chain lemmas — the gap the checker's portfolio
//! strategy closes by running PDR on what k-induction leaves open.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ipcl_bmc::{check_properties, BmcOptions, Latency, PropertyKind, SequentialProperty};
use ipcl_checker::{check_property_job, ProofStrategy, SequentialOptions};
use ipcl_core::example::ExampleArch;
use ipcl_pdr::deep::deep_pipeline;
use ipcl_pdr::{check_property_pdr, PdrOptions};
use ipcl_synth::{synthesize_interlock_with, SynthesisOptions};
use ipcl_trace::Tracer;

fn bench_registered_example(c: &mut Criterion) {
    let spec = ExampleArch::new().functional_spec();
    let synthesized = synthesize_interlock_with(
        &spec,
        SynthesisOptions {
            registered_outputs: true,
            reset_value: true,
            ..Default::default()
        },
    );
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Combined, Latency::Registered);
    let properties = std::slice::from_ref(&property);

    let mut group = c.benchmark_group("proof_engines_registered_example");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.bench_function("kinduction", |b| {
        b.iter(|| {
            let result = check_properties(
                &spec,
                synthesized.netlist(),
                properties,
                &BmcOptions::with_depth(8),
                None,
                &Tracer::disabled(),
            )
            .unwrap();
            assert!(result[0].outcome.is_proved());
        })
    });
    group.bench_function("pdr", |b| {
        b.iter(|| {
            let result = check_property_pdr(
                &spec,
                synthesized.netlist(),
                &property,
                &PdrOptions::default(),
                None,
                &Tracer::disabled(),
            )
            .unwrap();
            assert!(result.outcome.is_proved());
        })
    });
    let portfolio = SequentialOptions {
        strategy: ProofStrategy::Portfolio,
        bmc: BmcOptions::with_depth(8),
        ..Default::default()
    };
    group.bench_function("portfolio", |b| {
        b.iter(|| {
            let (result, _) = check_property_job(
                &spec,
                synthesized.netlist(),
                &property,
                &portfolio,
                None,
                &Tracer::disabled(),
            )
            .unwrap();
            assert!(result.outcome.is_proved());
        })
    });
    group.finish();
}

fn bench_deep_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("pdr_deep_chain");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for depth in [6usize, 9, 12] {
        let (spec, netlist) = deep_pipeline(depth);
        let property = SequentialProperty::for_stage(
            &spec,
            0,
            PropertyKind::Performance,
            Latency::Combinational,
        );
        let tracer = Tracer::disabled();
        group.bench_with_input(BenchmarkId::new("pdr_prove", depth), &depth, |b, _| {
            b.iter(|| {
                let options = PdrOptions::default();
                let result =
                    check_property_pdr(&spec, &netlist, &property, &options, None, &tracer)
                        .unwrap();
                assert!(result.outcome.is_proved());
            })
        });
        group.bench_with_input(
            BenchmarkId::new("kinduction_stuck", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    // k-induction pays its full bound and still has no
                    // answer — the baseline cost PDR replaces.
                    let result = check_properties(
                        &spec,
                        &netlist,
                        std::slice::from_ref(&property),
                        &BmcOptions::with_depth(depth.saturating_sub(3)),
                        None,
                        &tracer,
                    )
                    .unwrap();
                    assert!(!result[0].outcome.is_proved());
                    assert!(!result[0].outcome.is_falsified());
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_registered_example, bench_deep_chain);
criterion_main!(benches);
