//! The bounded worker pool: claims jobs, consults the proof cache, runs the
//! proof engines, and reports server heartbeats.
//!
//! Each worker loops on [`JobQueue::claim`]. A claimed job is first looked
//! up in the [`ProofCache`]; an entry that survives revalidation (see the
//! cache docs) is served directly — the hit path never touches a proof
//! engine. A queued job shares its design with the server's design table
//! ([`crate::design`]), so its detected latency and the structural digest
//! in its cache key are computed once per design, not once per job. On a
//! miss the worker runs
//! [`ipcl_checker::check_property_job`] with the job's cancellation token,
//! so client `cancel` requests and server shutdown interrupt the solve at
//! the next SAT-query boundary, then stores any servable outcome back
//! into the cache. Every solve the server runs happens here.
//!
//! A job that panics is contained: the worker catches the panic, finishes
//! the job with [`Verdict::Error`](crate::Verdict::Error) and the detail
//! `internal error: <panic message>`, and goes on claiming jobs, so a
//! `wait` on that job answers instead of blocking for good.
//!
//! Observability: workers emit rate-limited `heartbeat` events with
//! `engine: "serve"` (queue depth, running/done counts, cache hit/miss
//! totals, design table hit/miss totals — rendered by `ipcl-tracetool
//! watch` as a server progress line),
//! per-job `serve.job_*` events, a `serve.jobs_panicked` event per
//! contained panic, and the `serve.cache.*` and `serve.jobs_panicked`
//! counters / `serve.queue_depth` gauge through the unified metric sink.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;

use ipcl_bmc::SequentialProperty;
use ipcl_checker::check_property_job;
use ipcl_trace::{set_worker, Heartbeat, MetricSink, Tracer, Value};

use crate::cache::{job_key, revalidate, ProofCache};
use crate::design::{DesignTable, Job, JobRef, Memos};
use crate::protocol::{job_options, JobOutcome, JobRequest};
use crate::queue::JobQueue;

/// A job asking for this stage index panics in its worker: the hook the
/// panic-isolation test uses.
#[cfg(test)]
const PANIC_STAGE: usize = 0xdead;

/// A pool of `n` solver workers draining `queue`.
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one); `designs` is the design
    /// table whose counts the heartbeat reports.
    pub fn spawn(
        workers: usize,
        queue: Arc<JobQueue>,
        cache: Arc<ProofCache>,
        designs: Arc<DesignTable>,
        tracer: Tracer,
    ) -> WorkerPool {
        let handles = (0..workers.max(1))
            .map(|worker| {
                let queue = Arc::clone(&queue);
                let cache = Arc::clone(&cache);
                let designs = Arc::clone(&designs);
                let tracer = tracer.clone();
                std::thread::Builder::new()
                    .name(format!("ipcl-serve-worker-{worker}"))
                    .spawn(move || {
                        set_worker(Some(worker as u64));
                        let mut heartbeat = Heartbeat::every_ms(200);
                        while let Some((id, job, cancel)) = queue.claim() {
                            beat(&tracer, &mut heartbeat, &queue, &cache, &designs);
                            let outcome = contained_job(id, &job, &cancel, &cache, &tracer);
                            tracer.event(
                                "serve.job_done",
                                &[
                                    ("id", Value::U64(id)),
                                    ("verdict", Value::from(outcome.verdict.name())),
                                    ("cached", Value::Bool(outcome.cached)),
                                ],
                            );
                            queue.finish(id, outcome);
                            beat(&tracer, &mut heartbeat, &queue, &cache, &designs);
                        }
                        set_worker(None);
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Joins every worker (they drain once the queue shuts down).
    pub fn join(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// [`process_job`], with a panic turned into an error outcome, counted and
/// reported.
fn contained_job(
    id: u64,
    job: &Job,
    cancel: &AtomicBool,
    cache: &ProofCache,
    tracer: &Tracer,
) -> JobOutcome {
    let run = || {
        let job = job.view();
        #[cfg(test)]
        if job.property.stage_index == PANIC_STAGE {
            panic!("injected panic");
        }
        decide(job, cancel, cache, tracer)
    };
    let payload = match catch_unwind(AssertUnwindSafe(run)) {
        Ok(outcome) => return outcome,
        Err(payload) => payload,
    };
    let message = panic_message(payload.as_ref());
    tracer.counter("serve.jobs_panicked", 1);
    tracer.event(
        "serve.jobs_panicked",
        &[
            ("id", Value::U64(id)),
            ("message", Value::Str(message.to_owned().into())),
        ],
    );
    // No property name: resolving the property may be what panicked.
    JobOutcome::error("", format!("internal error: {message}"))
}

/// The text a panic was raised with.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a panic without a message")
}

fn beat(
    tracer: &Tracer,
    heartbeat: &mut Heartbeat,
    queue: &JobQueue,
    cache: &ProofCache,
    designs: &DesignTable,
) {
    let stats = queue.stats();
    tracer.gauge("serve.queue_depth", stats.queued as f64);
    if !heartbeat.due(tracer) {
        return;
    }
    let cache_stats = cache.stats();
    let design_stats = designs.stats();
    tracer.event(
        "heartbeat",
        &[
            ("engine", Value::from("serve")),
            ("queued", Value::U64(stats.queued)),
            ("running", Value::U64(stats.running)),
            ("done", Value::U64(stats.done)),
            ("hits", Value::U64(cache_stats.hits)),
            ("misses", Value::U64(cache_stats.misses)),
            ("evictions", Value::U64(cache_stats.evictions)),
            ("entries", Value::U64(cache.len() as u64)),
            ("design_hits", Value::U64(design_stats.hits)),
            ("design_misses", Value::U64(design_stats.misses)),
        ],
    );
}

/// Decides one job: cache hit (revalidated) or a fresh engine run. Public
/// so in-process tests and benchmarks run the exact code path the workers
/// use.
pub fn process_job(
    request: &JobRequest,
    cancel: &AtomicBool,
    cache: &ProofCache,
    tracer: &Tracer,
) -> JobOutcome {
    let memos = Memos::default();
    decide(JobRef::of(request, &memos), cancel, cache, tracer)
}

/// [`process_job`] on a borrowed job: the workers call it on the jobs they
/// claim.
fn decide(job: JobRef<'_>, cancel: &AtomicBool, cache: &ProofCache, tracer: &Tracer) -> JobOutcome {
    let property = match job.resolve_property() {
        Ok(property) => property,
        Err(message) => return JobOutcome::error("", message),
    };
    let key = job_key(job, &property);
    if let Some(served) = cached_outcome(job, &property, &key, cache, tracer) {
        return served;
    }
    cache.record_miss();
    tracer.counter("serve.cache.misses", 1);

    let outcome = match check_property_job(
        job.spec,
        job.netlist,
        &property,
        &job_options(job.strategy),
        Some(cancel),
        tracer,
    ) {
        Ok((result, certificate)) => JobOutcome::from_result(
            &result,
            certificate,
            cancel.load(std::sync::atomic::Ordering::Relaxed),
        ),
        Err(error) => JobOutcome::error(&property.name, error.to_string()),
    };
    cache.store(&key, &outcome);
    outcome
}

/// The entry stored under `key`, served as a hit if it parses and survives
/// revalidation against `job`; an entry that does not is counted and
/// dropped from the cache, so it is revalidated once, not once per lookup.
/// Workers call it through [`process_job`], and `submit_batch` calls it to
/// answer hits at submit time.
pub(crate) fn cached_outcome(
    job: JobRef<'_>,
    property: &SequentialProperty,
    key: &str,
    cache: &ProofCache,
    tracer: &Tracer,
) -> Option<JobOutcome> {
    let stored = match cache.load(key)? {
        Ok(stored)
            if stored.property == property.name
                && revalidate(&stored, job.spec, job.netlist, property) =>
        {
            stored
        }
        _ => {
            cache.remove(key);
            cache.record_revalidation_failure();
            tracer.counter("serve.cache.revalidation_failures", 1);
            tracer.event("serve.cache_revalidation_failed", &[]);
            return None;
        }
    };
    cache.record_hit();
    tracer.counter("serve.cache.hits", 1);
    tracer.event(
        "serve.cache_hit",
        &[("verdict", Value::from(stored.verdict.name()))],
    );
    Some(JobOutcome {
        cached: true,
        ..stored
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{PropertyRequest, Verdict};
    use ipcl_bmc::PropertyKind;
    use ipcl_checker::ProofStrategy;
    use ipcl_core::example::ExampleArch;
    use ipcl_pipesim::BrokenVariant;
    use ipcl_synth::{synthesize_broken_interlock, synthesize_interlock_with, SynthesisOptions};

    fn correct_job(stage_index: usize) -> JobRequest {
        let spec = ExampleArch::new().functional_spec();
        let synthesized = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: true,
                ..Default::default()
            },
        );
        JobRequest {
            spec,
            netlist: synthesized.netlist().clone(),
            property: PropertyRequest {
                stage_index,
                kind: PropertyKind::Functional,
                latency: None,
            },
            strategy: ProofStrategy::Pdr,
            threads: 1,
        }
    }

    #[test]
    fn miss_then_hit_with_identical_payload() {
        let cache = ProofCache::new(None);
        let tracer = Tracer::disabled();
        let cancel = AtomicBool::new(false);
        let job = correct_job(0);
        let cold = process_job(&job, &cancel, &cache, &tracer);
        assert_eq!(cold.verdict, Verdict::Proved);
        assert!(!cold.cached);
        let warm = process_job(&job, &cancel, &cache, &tracer);
        assert_eq!(warm.verdict, Verdict::Proved);
        assert!(warm.cached, "second submission must hit the cache");
        // Bit-identical payloads modulo the cached flag.
        let mut warm_as_cold = warm.clone();
        warm_as_cold.cached = false;
        assert_eq!(warm_as_cold.to_json_string(), cold.to_json_string());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn certificate_less_proofs_are_not_cached() {
        let cache = ProofCache::new(None);
        let tracer = Tracer::disabled();
        let cancel = AtomicBool::new(false);
        let job = JobRequest {
            strategy: ProofStrategy::KInduction,
            ..correct_job(0)
        };
        for _ in 0..2 {
            let outcome = process_job(&job, &cancel, &cache, &tracer);
            assert_eq!(outcome.verdict, Verdict::Proved);
            assert!(!outcome.cached && outcome.certificate.is_none());
        }
        assert!(cache.is_empty(), "an unservable proof takes no slot");
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().revalidation_failures, 0);
    }

    #[test]
    fn an_entry_that_does_not_parse_is_dropped_and_counted() {
        let dir = std::env::temp_dir().join(format!(
            "ipcl-serve-unparsable-entry-test-{}",
            std::process::id()
        ));
        let cache = ProofCache::new(Some(dir.clone()));
        let job = JobRequest {
            strategy: ProofStrategy::KInduction,
            ..correct_job(0)
        };
        let memos = Memos::default();
        let key = job_key(JobRef::of(&job, &memos), &job.resolve_property().unwrap());
        let path = dir.join(format!("{key}.json"));
        std::fs::write(&path, "{\"property\": \"long.4/functional\", \"verd").unwrap();
        let outcome = process_job(&job, &AtomicBool::new(false), &cache, &Tracer::disabled());
        assert_eq!(outcome.verdict, Verdict::Proved);
        assert!(!path.exists(), "the truncated entry leaves the disk");
        assert!(
            cache.is_empty(),
            "and memory: a k-induction proof is not stored"
        );
        assert_eq!(cache.stats().revalidation_failures, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn falsified_jobs_cache_and_replay() {
        let spec = ExampleArch::new().functional_spec();
        let broken = synthesize_broken_interlock(&spec, BrokenVariant::IgnoreScoreboard);
        // Find a stage the break falsifies.
        let cache = ProofCache::new(None);
        let tracer = Tracer::disabled();
        let cancel = AtomicBool::new(false);
        let mut hit_checked = false;
        for stage_index in 0..spec.stages().len() {
            let job = JobRequest {
                spec: spec.clone(),
                netlist: broken.netlist().clone(),
                property: PropertyRequest {
                    stage_index,
                    kind: PropertyKind::Functional,
                    latency: None,
                },
                strategy: ProofStrategy::Pdr,
                threads: 1,
            };
            let cold = process_job(&job, &cancel, &cache, &tracer);
            if cold.verdict != Verdict::Falsified {
                continue;
            }
            let warm = process_job(&job, &cancel, &cache, &tracer);
            assert_eq!(warm.verdict, Verdict::Falsified);
            assert!(warm.cached);
            assert_eq!(
                warm.counterexample.as_ref().unwrap().to_json_string(),
                cold.counterexample.as_ref().unwrap().to_json_string()
            );
            hit_checked = true;
            break;
        }
        assert!(hit_checked, "the broken variant must falsify some stage");
    }

    #[test]
    fn a_panicking_job_gets_an_error_and_its_worker_goes_on() {
        let queue = Arc::new(JobQueue::new());
        let cache = Arc::new(ProofCache::new(None));
        let tracer = Tracer::new(ipcl_trace::TraceConfig::enabled());
        let designs = Arc::new(DesignTable::new());
        let pool = WorkerPool::spawn(1, Arc::clone(&queue), cache, designs, tracer.clone());
        let mut panicking = correct_job(0);
        panicking.property.stage_index = PANIC_STAGE;
        let failed = queue.submit(panicking.into());
        let next = queue.submit(correct_job(0).into());

        // Without containment the worker dies and this wait never returns.
        let (sender, receiver) = std::sync::mpsc::channel();
        let waiter = Arc::clone(&queue);
        std::thread::spawn(move || {
            let _ = sender.send(waiter.wait(failed));
        });
        let outcome = receiver
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the panicking job finishes")
            .expect("its outcome is delivered");
        assert_eq!(outcome.verdict, Verdict::Error);
        assert_eq!(outcome.detail, "internal error: injected panic");
        let decided = queue.wait(next).expect("the one worker survives");
        assert_eq!(decided.verdict, Verdict::Proved);
        queue.shutdown();
        pool.join();

        let snapshot = tracer.snapshot().expect("tracing is on");
        assert_eq!(snapshot.counters.get("serve.jobs_panicked"), Some(&1));
        let events: Vec<_> = snapshot
            .events
            .iter()
            .filter(|event| event.kind == "serve.jobs_panicked")
            .collect();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn pool_drains_queue_and_joins_at_shutdown() {
        let queue = Arc::new(JobQueue::new());
        let cache = Arc::new(ProofCache::new(None));
        let pool = WorkerPool::spawn(
            2,
            Arc::clone(&queue),
            Arc::clone(&cache),
            Arc::new(DesignTable::new()),
            Tracer::disabled(),
        );
        let ids: Vec<u64> = (0..3)
            .map(|i| queue.submit(correct_job(i).into()))
            .collect();
        for id in ids {
            assert_eq!(queue.wait(id).unwrap().verdict, Verdict::Proved);
        }
        queue.shutdown();
        pool.join();
    }
}
