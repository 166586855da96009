//! Verification-as-a-service for interlocked pipeline control logic.
//!
//! The solve stack decides one property at a time; real regression flows
//! ask the *same* questions about *almost the same* designs, thousands of
//! times a day. This crate turns the checker into a long-lived service
//! built for that shape of load:
//!
//! * [`server`] — a TCP job-queue server (line-delimited JSON over
//!   `std::net`, no external runtime) with a bounded worker pool running
//!   the portfolio checker; [`protocol`] defines the wire format, in which
//!   a job carries its whole problem (spec, netlist, property selector),
//!   keeping the server stateless across connections;
//! * [`cache`] — a persistent result cache keyed by a canonical
//!   *structural* hash of `(netlist, property)`
//!   ([`ipcl_rtl::structural_digest`]): renamed or reordered but
//!   structurally identical designs share entries, and **every hit is
//!   re-validated before it is served** — proofs through the independent
//!   certificate checker ([`ipcl_pdr::Certificate::validate`]),
//!   falsifications by replaying the stored trace through the simulator —
//!   so the digest only ever decides where to look, never what to trust;
//! * [`queue`] / [`pool`] — the bounded job table with per-job
//!   cancellation tokens wired into the engines' cooperative-cancellation
//!   machinery, so client cancels and graceful shutdown interrupt
//!   in-flight solves at SAT-query boundaries. The workers'
//!   [`process_job`] decides every job, and a job that panics gets an
//!   error answer instead of taking its worker down; a `submit_batch` only
//!   answers its cache hits at submit time, through the same revalidated
//!   lookup;
//! * [`client`] — the thin blocking client the `ipcl-serve` binary's
//!   `submit` / `status` modes and the `exp_serve_load` benchmark use.
//!
//! # Example
//!
//! ```
//! use ipcl_serve::{Client, JobRequest, PropertyRequest, Server, ServerConfig, Verdict};
//! use ipcl_checker::ProofStrategy;
//! use ipcl_bmc::PropertyKind;
//! use ipcl_core::example::ExampleArch;
//! use ipcl_synth::synthesize_interlock;
//! use ipcl_trace::Tracer;
//!
//! let server = Server::start(ServerConfig::default(), Tracer::disabled()).unwrap();
//! let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
//!
//! let spec = ExampleArch::new().functional_spec();
//! let netlist = synthesize_interlock(&spec).netlist().clone();
//! let job = JobRequest {
//!     spec, netlist,
//!     property: PropertyRequest {
//!         stage_index: 0, kind: PropertyKind::Functional, latency: None,
//!     },
//!     strategy: ProofStrategy::Pdr, threads: 1,
//! };
//! let id = client.submit(&job).unwrap();
//! let outcome = client.wait(id).unwrap();
//! assert_eq!(outcome.verdict, Verdict::Proved);
//! assert!(!outcome.cached, "first ask solves");
//!
//! let warm_id = client.submit(&job).unwrap();
//! let warm = client.wait(warm_id).unwrap();
//! assert!(warm.cached, "second ask is a (re-validated) cache hit");
//! server.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod pool;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::{cache_key, revalidate, CacheLimits, CacheStats, ProofCache};
pub use client::Client;
pub use pool::{process_job, WorkerPool};
pub use protocol::{JobOutcome, JobRequest, PropertyRequest, Verdict};
pub use queue::{JobQueue, JobState, Missing, QueueStats, RETAINED_FINISHED};
pub use server::{Server, ServerConfig, MAX_LINE_BYTES};
