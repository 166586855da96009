//! The `serve-mix` workload: an in-process `Server` (default configuration,
//! two workers) driven by one `Client` connection in a closed loop. One op
//! is one request, from send until all its verdicts are back.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use ipcl::checker::{check_property_job, ProofStrategy, PropertyKind, SequentialProperty};
use ipcl::serve::{
    cache_key, process_job, revalidate, CacheLimits, CacheStats, Client, JobOutcome, JobRequest,
    ProofCache, PropertyRequest, Server, ServerConfig, Verdict,
};
use ipcl::trace::Tracer;

use crate::expected;
use crate::inputs::{mix, Arch, Bug, Design, Rng};
use crate::measure::{self, Op, Spans, Workload};

/// Requests served by one server. The job table keeps every finished job,
/// so after each round of this many requests the server is shut down and a
/// fresh one started and warmed up, untimed. `peak_rss_mb` is read when the
/// first round ends: later rounds' threads take over other threads'
/// allocator arenas, and their peak would depend on which ones they get.
const ROUND: usize = 6000;

/// Every `BATCH_EVERY`-th request is a `submit_batch` of the batch design's
/// whole property set.
const BATCH_EVERY: usize = 5;

/// Cache entries kept: below the workload's 51 distinct keys, so misses and
/// evictions go on through the run.
const MAX_ENTRIES: usize = 40;

/// One single-job request the stream draws from, with its expected verdict
/// and the verdict of a direct in-process check.
struct Job {
    label: String,
    request: JobRequest,
    property: SequentialProperty,
    known: Verdict,
    direct: Verdict,
}

/// A category of single jobs: its share of the single requests, the Zipf
/// exponent of the skew among its jobs (in listed order), and the jobs.
struct Category {
    weight: f64,
    skew: f64,
    jobs: Vec<usize>,
}

impl Category {
    fn draw(&self, rng: &mut Rng) -> usize {
        let weight = |rank: usize| 1.0 / ((rank + 1) as f64).powf(self.skew);
        let total: f64 = (0..self.jobs.len()).map(weight).sum();
        let mut target = rng.unit() * total;
        for (rank, &job) in self.jobs.iter().enumerate() {
            target -= weight(rank);
            if target < 0.0 {
                return job;
            }
        }
        self.jobs[self.jobs.len() - 1]
    }
}

/// Each job of a request with its outcome, or the error that lost it.
type Answers = Vec<(usize, Result<JobOutcome, String>)>;

#[derive(Clone, Copy)]
enum Request {
    Single(usize),
    Batch,
}

pub struct ServeMix {
    /// The running server and the client connected to it.
    live: Option<(Server, Client)>,
    jobs: Vec<Job>,
    /// The single jobs the warm-up sends, each once.
    warm_up: Vec<usize>,
    /// The batch design's jobs (indices into `jobs`) and their requests.
    batch: Vec<usize>,
    batch_requests: Vec<JobRequest>,
    stream: Vec<Request>,
    /// The running server's cache counters when its timed requests began.
    start: CacheStats,
    /// The cache counters of the timed requests of servers already shut
    /// down.
    past: CacheStats,
    /// Peak RSS in MiB when the first round ended.
    first_round_rss: Option<f64>,
}

/// Hands the heap pages freed by a shut-down server back to the system, so
/// the process holds about one round's memory however many rounds run.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers; it only releases free
        // heap memory.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Adds the counters from `start` to `end` onto `total`.
fn add_counts(total: &mut CacheStats, end: CacheStats, start: CacheStats) {
    total.hits += end.hits - start.hits;
    total.misses += end.misses - start.misses;
    total.revalidation_failures += end.revalidation_failures - start.revalidation_failures;
    total.evictions += end.evictions - start.evictions;
}

/// One job per property of `design` under `strategy`, each with its
/// expected verdict and the verdict of a direct in-process
/// `check_property_job` on the same job.
fn jobs_of(design: Design, strategy: ProofStrategy, tracer: &Tracer) -> Vec<Job> {
    let (spec, netlist) = design.build();
    let mut jobs = Vec::new();
    for stage_index in 0..spec.stages().len() {
        for kind in [PropertyKind::Functional, PropertyKind::Performance] {
            let request = JobRequest {
                spec: spec.clone(),
                netlist: netlist.clone(),
                property: PropertyRequest {
                    stage_index,
                    kind,
                    latency: None,
                },
                strategy,
                threads: 1,
            };
            let property = request
                .resolve_property()
                .expect("stage index within the spec");
            let known = if expected::falsified(design, &property.name) {
                Verdict::Falsified
            } else {
                Verdict::Proved
            };
            // A check that panics fails the job's ops, not the set-up.
            let direct = panic::catch_unwind(AssertUnwindSafe(|| {
                check_property_job(&spec, &netlist, &property, &request.options(), None, tracer)
            }))
            .map_or(Verdict::Error, |checked| match checked {
                Ok((result, certificate)) => {
                    JobOutcome::from_result(&result, certificate, false).verdict
                }
                Err(_) => Verdict::Error,
            });
            jobs.push(Job {
                label: format!("{}/{}/{strategy:?}", design.label(), property.name),
                request,
                property,
                known,
                direct,
            });
        }
    }
    jobs
}

/// Builds the jobs with their expected and direct verdicts and the seeded
/// request stream, and starts the first server.
pub fn setup(seed: u64, requests: usize) -> ServeMix {
    let tracer = Tracer::disabled();
    let correct = |arch, registered| Design::Correct { arch, registered };
    let (pdr, kinduction) = (ProofStrategy::Pdr, ProofStrategy::KInduction);
    let mut jobs = Vec::new();
    let mut add = |found: Vec<Job>| {
        let first = jobs.len();
        jobs.extend(found);
        (first..jobs.len()).collect::<Vec<usize>>()
    };
    let categories = [
        // Proofs that carry certificates: servable from the cache.
        Category {
            weight: 0.45,
            skew: 1.0,
            jobs: add([false, true]
                .into_iter()
                .flat_map(|registered| jobs_of(correct(Arch::Paper, registered), pdr, &tracer))
                .collect()),
        },
        // Falsifications that carry traces: servable from the cache.
        Category {
            weight: 0.20,
            skew: 1.0,
            jobs: add(Bug::ALL
                .into_iter()
                .flat_map(|bug| {
                    jobs_of(
                        Design::Broken {
                            arch: Arch::Paper,
                            bug,
                        },
                        pdr,
                        &tracer,
                    )
                })
                .filter(|job| job.known == Verdict::Falsified)
                .collect()),
        },
        // k-induction proofs carry no certificate: stored, never served.
        Category {
            weight: 0.20,
            skew: 1.0,
            jobs: add(jobs_of(
                correct(Arch::Synthetic(2, 2), true),
                kinduction,
                &tracer,
            )),
        },
        // Deep chains, whose hit costs far less than their solve.
        Category {
            weight: 0.15,
            skew: 0.0,
            jobs: add([11, 12, 13]
                .into_iter()
                .flat_map(|depth| jobs_of(Design::Deep(depth), pdr, &tracer))
                .filter(|job| job.request.property.kind == PropertyKind::Performance)
                .collect()),
        },
    ];
    // The batch: a broken design under k-induction. Its traces are served
    // from the cache; its proofs carry no certificate, so every batch sweeps
    // them again (fuzz and shared BMC) and sends them on to the workers.
    let batch = add(jobs_of(
        Design::Broken {
            arch: Arch::Synthetic(1, 4),
            bug: Bug::Scoreboard,
        },
        kinduction,
        &tracer,
    ));
    let batch_requests = batch.iter().map(|&j| jobs[j].request.clone()).collect();

    // Hit and miss counts are sure to repeat only if no two jobs share a
    // cache entry: the two workers store a batch's results in either order,
    // and with shared keys that order could decide later hits.
    let keys: BTreeSet<String> = jobs
        .iter()
        .map(|job| cache_key(&job.request.spec, &job.request.netlist, &job.property))
        .collect();
    assert_eq!(keys.len(), jobs.len(), "every job has its own cache key");
    assert!(
        keys.len() > MAX_ENTRIES,
        "the cache must be too small to hold every key"
    );

    let mut rng = Rng::new(seed);
    let weights: Vec<f64> = categories.iter().map(|category| category.weight).collect();
    let mut singles = mix(requests - requests / BATCH_EVERY, &weights, &mut rng).into_iter();
    let stream = (0..requests)
        .map(|index| {
            if index % BATCH_EVERY == BATCH_EVERY - 1 {
                Request::Batch
            } else {
                let category = singles.next().expect("one single per non-batch slot");
                Request::Single(categories[category].draw(&mut rng))
            }
        })
        .collect();

    let mut mix = ServeMix {
        live: None,
        jobs,
        warm_up: categories
            .iter()
            .flat_map(|category| category.jobs.iter().copied())
            .collect(),
        batch,
        batch_requests,
        stream,
        start: CacheStats::default(),
        past: CacheStats::default(),
        first_round_rss: None,
    };
    mix.start_server();
    mix
}

impl ServeMix {
    /// Starts a server, connects the client and runs the untimed warm-up:
    /// every single job once and the batch once.
    fn start_server(&mut self) {
        let config = ServerConfig {
            cache_limits: CacheLimits {
                max_entries: Some(MAX_ENTRIES),
                max_bytes: None,
            },
            ..ServerConfig::default()
        };
        let server = Server::start(config, Tracer::disabled()).expect("bind a loopback port");
        let client =
            Client::connect(&server.local_addr().to_string()).expect("connect to the server");
        self.live = Some((server, client));
        let mut off = Spans::off();
        for job in self.warm_up.clone() {
            self.request(Request::Single(job), &mut off);
        }
        self.request(Request::Batch, &mut off);
        self.start = self.cache_stats();
    }

    /// Shuts the running server down, keeping its counters.
    fn stop_server(&mut self) {
        if let Some((server, mut client)) = self.live.take() {
            add_counts(&mut self.past, server.cache().stats(), self.start);
            // Asking for the shutdown over the open connection lets its
            // handler return at once instead of at its next read timeout.
            let _ = client.shutdown();
            server.shutdown();
            release_freed_memory();
        }
    }

    fn cache_stats(&self) -> CacheStats {
        let (server, _) = self.live.as_ref().expect("a server is running");
        server.cache().stats()
    }

    /// Sends one request and waits for all its verdicts. Returns the time
    /// from send until the last verdict, and each job with its outcome.
    fn request(&mut self, request: Request, spans: &mut Spans) -> (Duration, Answers) {
        let (_, client) = self.live.as_mut().expect("a server is running");
        let start = Instant::now();
        let outcomes = match request {
            Request::Single(job) => {
                let outcome = spans
                    .time("serve.submit", || client.submit(&self.jobs[job].request))
                    .and_then(|id| spans.time("serve.wait", || client.wait(id)));
                vec![(job, outcome)]
            }
            Request::Batch => {
                let batch = &self.batch;
                match spans.time("serve.batch_submit", || {
                    client.submit_batch(&self.batch_requests)
                }) {
                    Ok((ids, presolved)) => {
                        spans.count("serve.presolved", presolved);
                        spans.count("serve.batch_jobs", ids.len() as u64);
                        let mut outcomes: Vec<_> = ids
                            .iter()
                            .zip(batch)
                            .map(|(&id, &job)| (job, spans.time("serve.wait", || client.wait(id))))
                            .collect();
                        if ids.len() != batch.len() {
                            outcomes.push((batch[0], Err("batch lost jobs".to_owned())));
                        }
                        outcomes
                    }
                    Err(error) => vec![(batch[0], Err(error))],
                }
            }
        };
        (start.elapsed(), outcomes)
    }
}

/// Whether `outcome` is both `job`'s expected verdict and its direct
/// check's, with evidence that checks: a trace that replays, a certificate
/// that validates (k-induction proofs carry none).
fn correct(job: &Job, outcome: &JobOutcome) -> bool {
    let (spec, netlist) = (&job.request.spec, &job.request.netlist);
    outcome.property == job.property.name
        && outcome.verdict == job.known
        && outcome.verdict == job.direct
        && match outcome.verdict {
            Verdict::Falsified => outcome.counterexample.as_ref().is_some_and(|trace| {
                trace
                    .replay(spec, netlist, &job.property)
                    .is_ok_and(|replay| replay.violation_reproduced)
            }),
            Verdict::Proved => match &outcome.certificate {
                Some(certificate) => certificate
                    .validate(spec, netlist, &job.property)
                    .is_ok_and(|check| check.ok()),
                None => job.request.strategy == ProofStrategy::KInduction,
            },
            _ => false,
        }
}

impl Workload for ServeMix {
    fn len(&self) -> usize {
        self.stream.len()
    }

    fn op(&mut self, index: usize, spans: &mut Spans) -> Op {
        if index > 0 && index.is_multiple_of(ROUND) {
            self.first_round_rss
                .get_or_insert_with(measure::peak_rss_mb);
            self.stop_server();
            self.start_server();
        }
        let (time, outcomes) = self.request(self.stream[index], spans);
        let mut all_correct = true;
        for (job, outcome) in &outcomes {
            let job = &self.jobs[*job];
            let Ok(outcome) = outcome else {
                all_correct = false;
                continue;
            };
            all_correct &= correct(job, outcome);
            if !spans.enabled() {
                continue;
            }
            let (spec, netlist) = (&job.request.spec, &job.request.netlist);
            spans.time("serve.cache_key", || {
                black_box(cache_key(spec, netlist, &job.property))
            });
            if outcome.cached {
                spans.time("serve.revalidate", || {
                    black_box(revalidate(outcome, spec, netlist, &job.property))
                });
            } else {
                spans.time("serve.engine", || {
                    black_box(process_job(
                        &job.request,
                        &AtomicBool::new(false),
                        &ProofCache::new(None),
                        &Tracer::disabled(),
                    ))
                });
            }
        }
        Op {
            time,
            correct: all_correct,
        }
    }

    fn label(&self, index: usize) -> String {
        match &self.stream[index] {
            Request::Single(job) => self.jobs[*job].label.clone(),
            Request::Batch => {
                let first = &self.jobs[self.batch[0]].label;
                format!("batch/{}", first.split('/').next().unwrap_or_default())
            }
        }
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        self.first_round_rss
    }

    fn finish(&mut self, spans: &mut Spans) {
        self.first_round_rss
            .get_or_insert_with(measure::peak_rss_mb);
        let mut total = self.past;
        add_counts(&mut total, self.cache_stats(), self.start);
        spans.count("serve.hits", total.hits);
        spans.count("serve.misses", total.misses);
        spans.count("serve.lookups", total.hits + total.misses);
        spans.count("serve.revalidation_failures", total.revalidation_failures);
        spans.count("serve.evictions", total.evictions);
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        self.stop_server();
    }
}
