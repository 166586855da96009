//! Analysis and consumption tooling for `ipcl-trace` artifacts.
//!
//! The tracing layer (`ipcl-trace`) records what the solve stack did;
//! this crate turns those recordings into answers:
//!
//! * [`export`] — Chrome Trace Event JSON (Perfetto / `chrome://tracing`)
//!   from an event stream, and folded stacks (`flamegraph.pl`,
//!   speedscope) from a span profile.
//! * [`diff`] — align two `profile.json` runs span-path by span-path and
//!   attribute the wall-clock and metric deltas, worst regression first.
//! * [`regress`] — gate a current `BENCH_*.json` run against a committed
//!   baseline under per-metric tolerances.
//! * [`watch`] — render the engines' rate-limited `heartbeat` events as a
//!   live progress line while a proof is in flight.
//!
//! The `ipcl-tracetool` binary exposes export/diff/regress on the command
//! line; [`watch::Watcher`] is embedded by the experiment binaries'
//! `--watch` flag. Every document is read and written with
//! [`ipcl_trace::json`], the workspace's one JSON module.

pub mod benchfile;
pub mod diff;
pub mod export;
pub mod profile;
pub mod regress;
pub mod watch;

pub use benchfile::{BenchEntry, BenchFile};
pub use diff::{MetricDelta, ProfileDiff, SpanDelta};
pub use export::{chrome_trace, folded_stacks, folded_stacks_from_profile};
pub use profile::{ProfileDoc, ProfileSpan};
pub use regress::{check, RegressReport, Regression, Tolerances};
pub use watch::{progress_line, Watcher};
