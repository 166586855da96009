//! Criterion benchmark: the CDCL solver hot paths, optimized vs. baseline.
//!
//! Three regimes mirror the E11 experiment (`exp_solver_opts`):
//! pigeonhole for raw conflict-driven search (heap decisions,
//! minimization, Luby restarts, database reduction), an incremental
//! assumption stream for the persistent level-0 scheme PDR leans on, and
//! a PDR proof end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ipcl_bench::pigeonhole_cnf;
use ipcl_bmc::{Latency, PropertyKind, SequentialProperty};
use ipcl_expr::Lit;
use ipcl_pdr::deep::deep_pipeline;
use ipcl_pdr::{check_property_pdr, PdrOptions};
use ipcl_sat::{SatResult, Solver, SolverConfig};
use ipcl_trace::Tracer;

fn configs() -> [(&'static str, SolverConfig); 2] {
    [
        ("optimized", SolverConfig::default()),
        ("baseline", SolverConfig::baseline()),
    ]
}

fn bench_pigeonhole(c: &mut Criterion) {
    let cnf = pigeonhole_cnf(8);
    let mut group = c.benchmark_group("solver_pigeonhole_8");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for (name, config) in configs() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, &config| {
            b.iter(|| {
                let mut solver = Solver::from_cnf_with_config(&cnf, config);
                assert_eq!(solver.solve(), SatResult::Unsat);
            })
        });
    }
    group.finish();
}

/// A PDR-shaped query stream: one solver, many `solve_under_assumptions`
/// calls with no clause addition in between — the regime where the
/// persistent level-0 trail beats the per-call reset + unit re-scan.
fn bench_assumption_stream(c: &mut Criterion) {
    // A satisfiable chain with a selector per link.
    let num_vars = 60u32;
    let mut group = c.benchmark_group("solver_assumption_stream");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for (name, config) in configs() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, &config| {
            b.iter(|| {
                let mut solver = Solver::with_config(num_vars as usize, config);
                solver.add_clause([Lit::positive(0)]);
                for v in 1..num_vars {
                    solver.add_clause([Lit::negative(v - 1), Lit::positive(v)]);
                }
                for round in 0..200u32 {
                    let selector = Lit::new(round % num_vars, round % 3 != 0);
                    let _ = solver.solve_under_assumptions(&[selector]);
                }
            })
        });
    }
    group.finish();
}

fn bench_pdr_deep_chain(c: &mut Criterion) {
    let (spec, netlist) = deep_pipeline(10);
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Performance, Latency::Combinational);
    let mut group = c.benchmark_group("solver_pdr_deep_chain_10");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for (name, config) in configs() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, &config| {
            let options = PdrOptions {
                solver: config,
                ..PdrOptions::default()
            };
            b.iter(|| {
                let result = check_property_pdr(
                    &spec,
                    &netlist,
                    &property,
                    &options,
                    None,
                    &Tracer::disabled(),
                )
                .unwrap();
                assert!(result.outcome.is_proved());
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pigeonhole,
    bench_assumption_stream,
    bench_pdr_deep_chain
);
criterion_main!(benches);
