//! Criterion benchmark: the CDCL solver hot paths.
//!
//! Three regimes mirror the E11 experiment (`exp_solver_opts`):
//! pigeonhole for raw conflict-driven search (heap decisions,
//! minimization, Luby restarts, database reduction), an incremental
//! assumption stream for the persistent level-0 scheme PDR leans on, and
//! a PDR proof end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use ipcl_bench::pigeonhole_cnf;
use ipcl_bmc::{Binding, Latency, PropertyKind, SequentialProperty};
use ipcl_expr::Lit;
use ipcl_pdr::deep::deep_pipeline;
use ipcl_pdr::{check_property_pdr, PdrOptions};
use ipcl_sat::{SatResult, Solver};

fn bench_pigeonhole(c: &mut Criterion) {
    let cnf = pigeonhole_cnf(8);
    let mut group = c.benchmark_group("solver_pigeonhole_8");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.bench_function("default", |b| {
        b.iter(|| {
            let mut solver = Solver::from_cnf(&cnf);
            assert_eq!(solver.solve(), SatResult::Unsat);
        })
    });
    group.finish();
}

/// A PDR-shaped query stream: one solver, many `solve_under_assumptions`
/// calls with no clause addition in between — the regime where the
/// persistent level-0 trail saves a reset and unit re-scan per call.
fn bench_assumption_stream(c: &mut Criterion) {
    // A satisfiable chain with a selector per link.
    let num_vars = 60u32;
    let mut group = c.benchmark_group("solver_assumption_stream");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.bench_function("default", |b| {
        b.iter(|| {
            let mut solver = Solver::new(num_vars as usize);
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
    group.finish();
}

fn bench_pdr_deep_chain(c: &mut Criterion) {
    let (spec, netlist) = deep_pipeline(10);
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Performance, Latency::Combinational);
    let options = PdrOptions::default();
    let mut group = c.benchmark_group("solver_pdr_deep_chain_10");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.bench_function("default", |b| {
        b.iter(|| {
            let pdr =
                check_property_pdr(&Binding::new(&spec, &netlist), &property, &options).unwrap();
            assert!(pdr.result.outcome.is_proved());
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pigeonhole,
    bench_assumption_stream,
    bench_pdr_deep_chain
);
criterion_main!(benches);
