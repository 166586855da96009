//! Time-to-verdict benchmark of the interlock checker and its verification
//! service: four seeded workloads, end-to-end metrics from an untraced run,
//! per-layer metrics from a traced one. See `README.md`.
//!
//! ```text
//! ipcl-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result as one JSON object.

mod checker;
mod expected;
mod gauge;
mod inputs;
mod measure;
mod serve_mix;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use checker::Kind;

/// The workloads, with the op rate each is sized by: a run is
/// `seconds × rate` ops. The count never depends on the speed measured, so
/// a faster program runs the same ops in less time. The rates are the
/// `ops_per_s` each workload measured at the reference speed (see
/// `gauge.rs`) when the benchmark was written, so a timed phase at that
/// speed lasts about `seconds`.
const WORKLOADS: [(&str, f64); 4] = [
    ("proof-regress", 280.0),
    ("bug-hunt", 265.0),
    ("deep-pdr", 110.0),
    ("serve-mix", 1600.0),
];

/// The longest run `--seconds` may ask for; it bounds the op count.
const MAX_SECONDS: u64 = 3600;

/// Ops per run never drop below this, so p90 has ten samples beyond it.
const MIN_OPS: usize = 100;

const USAGE: &str = "usage: ipcl-perfbench --workload <proof-regress|bug-hunt|deep-pdr|serve-mix> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: &'static str,
    rate: f64,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not '{value}'"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(name, _)| *name == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => {
                let n = number()?;
                if !(1..=MAX_SECONDS).contains(&n) {
                    return Err(format!("--seconds takes 1 to {MAX_SECONDS}"));
                }
                seconds = Some(n);
            }
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    let &(workload, rate) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        rate,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs `workload` for `ops` ops from `seed`; see [`measure::run`].
fn run(
    process_start: Instant,
    workload: &str,
    seed: u64,
    ops: usize,
    trace: bool,
    span_file: Option<&Path>,
) -> measure::Report {
    let kind = match workload {
        "proof-regress" => Kind::ProofRegress,
        "bug-hunt" => Kind::BugHunt,
        "deep-pdr" => Kind::DeepPdr,
        _ => {
            return measure::run(process_start, ops, trace, span_file, || {
                serve_mix::setup(seed, ops)
            })
        }
    };
    measure::run(process_start, ops, trace, span_file, || {
        checker::setup(kind, seed, ops)
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ipcl-perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    measure::pin_to_one_cpu();
    let ops = ((args.seconds as f64 * args.rate).round() as usize).max(MIN_OPS);
    let span_file = PathBuf::from(format!(
        "perfbench/out/spans-{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    let report = run(
        process_start,
        args.workload,
        args.seed,
        ops,
        args.trace,
        Some(&span_file),
    );
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two traced runs with one seed give identical per-layer counts, and
    /// every op of every workload returns its known answer.
    #[test]
    fn counts_repeat_exactly_for_one_seed() {
        for (workload, _) in WORKLOADS {
            let counts = || {
                let report = run(Instant::now(), workload, 7, 60, true, None);
                assert_eq!(
                    report.failed, 0,
                    "{workload}: an op missed its known answer"
                );
                report
                    .metrics
                    .into_iter()
                    .filter(|(_, _, unit)| matches!(*unit, "count" | "ratio"))
                    .collect::<Vec<_>>()
            };
            let first = counts();
            assert!(
                first.iter().any(|(_, value, _)| *value > 0.0),
                "{workload} counts nothing"
            );
            assert_eq!(first, counts(), "{workload}");
        }
    }
}
