//! The bounded job queue shared by connection handlers and the worker pool.
//!
//! One mutex-guarded state table plus two condition variables: `work` wakes
//! idle workers when a job arrives (or at shutdown), `done` wakes `wait`ers
//! when a job finishes. Every job carries its own cancellation token — the
//! same `AtomicBool` the proof engines poll between SAT queries
//! (`check_property_job`'s cooperative-cancellation plumbing) — so both a
//! client `cancel` and a server shutdown stop in-flight solves at the next
//! query boundary rather than at the end of the job.
//!
//! A job costs the same however many jobs came before it. The per-state
//! counts are counters updated at each state change, so
//! [`JobQueue::stats`] (and every worker heartbeat) reads them without a
//! scan, and the table holds the jobs in flight plus at most
//! [`RETAINED_FINISHED`] finished ones. A record is released in steps:
//!
//! * a claimed job's record hands the job to the worker, so a finished
//!   record keeps only its outcome;
//! * [`JobQueue::wait`] hands the outcome over and removes the record;
//! * a finished record nobody waits for is dropped once
//!   [`RETAINED_FINISHED`] later jobs have finished.
//!
//! `wait` or `status` on an id the queue issued but no longer holds
//! answers [`Missing::Expired`] (`"job N expired"` on the wire); an id it
//! never issued answers [`Missing::Unknown`]. `status` is a read-only peek
//! and never releases a record. Released records are dropped after the
//! queue lock is released.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::design::Job;
use crate::protocol::{JobOutcome, Verdict};

/// Finished records nobody waited for that the table keeps: a finished
/// record is dropped once this many later jobs have finished.
pub const RETAINED_FINISHED: usize = 4096;

/// Lifecycle state of a job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobState {
    /// Submitted, not yet claimed by a worker.
    Queued,
    /// A worker is solving it.
    Running,
    /// Finished; the outcome is available.
    Done,
}

impl JobState {
    /// Wire name of the state.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
        }
    }
}

/// Why [`JobQueue::wait`] or [`JobQueue::status`] has no answer for an id.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Missing {
    /// The queue never issued the id.
    Unknown,
    /// The queue issued the id but released its record: a `wait` took the
    /// outcome, or [`RETAINED_FINISHED`] later jobs finished first.
    Expired,
    /// The queue shut down before the job finished (`wait` only).
    ShutDown,
}

/// A job in the table.
enum JobRecord {
    /// Waiting for a worker: the job and its cancellation token.
    Queued(Job, Arc<AtomicBool>),
    /// Claimed: the worker holds the job; the token stays here for
    /// `cancel` and shutdown.
    Running(Arc<AtomicBool>),
    /// Finished: only the outcome is kept.
    Done(JobOutcome),
}

/// The records one state change takes out of the table: the one it
/// replaced and the finished one it expired. The caller drops them once
/// the queue lock is released.
type Released = (Option<JobRecord>, Option<JobRecord>);

#[derive(Default)]
struct QueueState {
    next_id: u64,
    pending: VecDeque<u64>,
    jobs: HashMap<u64, JobRecord>,
    /// The ids of the last [`RETAINED_FINISHED`] jobs to finish, oldest
    /// first (some may have been waited for already).
    finished: VecDeque<u64>,
    queued: u64,
    running: u64,
    done: u64,
    shutdown: bool,
}

impl QueueState {
    fn issue(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records `id` as finished with `outcome`, and expires the oldest
    /// finished record once [`RETAINED_FINISHED`] jobs finished after it.
    fn finish(&mut self, id: u64, outcome: JobOutcome) -> Released {
        let replaced = self.jobs.insert(id, JobRecord::Done(outcome));
        self.done += 1;
        self.finished.push_back(id);
        let mut expired = None;
        if self.finished.len() > RETAINED_FINISHED {
            let oldest = self.finished.pop_front().expect("more than the cap");
            expired = self.jobs.remove(&oldest);
        }
        (replaced, expired)
    }

    fn missing(&self, id: u64) -> Missing {
        if id < self.next_id {
            Missing::Expired
        } else {
            Missing::Unknown
        }
    }
}

/// Counts of jobs per lifecycle state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs submitted but not yet claimed.
    pub queued: u64,
    /// Jobs currently being solved.
    pub running: u64,
    /// Jobs finished since the queue started.
    pub done: u64,
    /// Records the table holds: jobs in flight and finished jobs whose
    /// outcome nobody has taken yet.
    pub retained: u64,
}

/// The shared job queue. See the module docs.
#[derive(Default)]
pub struct JobQueue {
    state: Mutex<QueueState>,
    work: Condvar,
    done: Condvar,
}

impl JobQueue {
    /// An empty queue.
    pub fn new() -> JobQueue {
        JobQueue::default()
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().expect("queue lock")
    }

    /// Enqueues a job; returns its id. After shutdown the job is recorded
    /// as immediately cancelled instead of queued. A [`JobRequest`]
    /// (`.into()`) is a job with a design of its own.
    ///
    /// [`JobRequest`]: crate::JobRequest
    pub fn submit(&self, job: Job) -> u64 {
        let mut state = self.lock();
        let id = state.issue();
        if !state.shutdown {
            state
                .jobs
                .insert(id, JobRecord::Queued(job, Arc::default()));
            state.pending.push_back(id);
            state.queued += 1;
            self.work.notify_one();
            return id;
        }
        let outcome = canceled_outcome(&job, "server shutting down");
        let _released = state.finish(id, outcome);
        drop(state);
        id
    }

    /// Records an already-finished job (a `submit_batch` job answered from
    /// the cache); returns its id.
    pub fn submit_resolved(&self, outcome: JobOutcome) -> u64 {
        let mut state = self.lock();
        let id = state.issue();
        let _released = state.finish(id, outcome);
        drop(state);
        self.done.notify_all();
        id
    }

    /// Blocks until a job is available and claims it, or returns `None` at
    /// shutdown. A job cancelled while still queued is finished on the spot
    /// (with a [`Verdict::Canceled`] outcome) rather than handed out.
    pub fn claim(&self) -> Option<(u64, Job, Arc<AtomicBool>)> {
        let mut released = Vec::new();
        let mut state = self.lock();
        loop {
            while let Some(id) = state.pending.pop_front() {
                state.queued -= 1;
                let Some(JobRecord::Queued(job, cancel)) = state.jobs.get(&id) else {
                    unreachable!("a pending job is queued");
                };
                if cancel.load(Ordering::Relaxed) {
                    let outcome = canceled_outcome(job, "canceled while queued");
                    released.push(state.finish(id, outcome));
                    self.done.notify_all();
                    continue;
                }
                // The worker takes the job; the record keeps the token.
                let cancel = Arc::clone(cancel);
                let running = JobRecord::Running(Arc::clone(&cancel));
                let Some(JobRecord::Queued(job, _)) = state.jobs.insert(id, running) else {
                    unreachable!("a pending job is queued");
                };
                state.running += 1;
                return Some((id, job, cancel));
            }
            if state.shutdown {
                return None;
            }
            state = self.work.wait(state).expect("queue lock");
        }
    }

    /// Records the outcome of a claimed job and wakes `wait`ers. An id
    /// that is not running is left as it is.
    pub fn finish(&self, id: u64, outcome: JobOutcome) {
        let mut state = self.lock();
        if !matches!(state.jobs.get(&id), Some(JobRecord::Running(_))) {
            return;
        }
        state.running -= 1;
        let _released = state.finish(id, outcome);
        drop(state);
        self.done.notify_all();
    }

    /// Requests cancellation of a job. Returns `false` for ids the table
    /// does not hold and for jobs that already finished.
    pub fn cancel(&self, id: u64) -> bool {
        let state = self.lock();
        match state.jobs.get(&id) {
            Some(JobRecord::Queued(_, cancel) | JobRecord::Running(cancel)) => {
                cancel.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// The state and (when done) outcome of a job, without releasing it.
    ///
    /// # Errors
    ///
    /// [`Missing::Unknown`] for an id the queue never issued,
    /// [`Missing::Expired`] for one whose record was released.
    pub fn status(&self, id: u64) -> Result<(JobState, Option<JobOutcome>), Missing> {
        let state = self.lock();
        match state.jobs.get(&id) {
            Some(JobRecord::Queued(..)) => Ok((JobState::Queued, None)),
            Some(JobRecord::Running(_)) => Ok((JobState::Running, None)),
            Some(JobRecord::Done(outcome)) => Ok((JobState::Done, Some(outcome.clone()))),
            None => Err(state.missing(id)),
        }
    }

    /// Blocks until the job finishes, then hands its outcome over and
    /// releases its record: a second `wait` on the id is
    /// [`Missing::Expired`].
    ///
    /// # Errors
    ///
    /// [`Missing::Unknown`] and [`Missing::Expired`] as for
    /// [`JobQueue::status`], and [`Missing::ShutDown`] when the queue shuts
    /// down before the job finishes (shutdown cancels and finishes every
    /// job, so this is rare).
    pub fn wait(&self, id: u64) -> Result<JobOutcome, Missing> {
        let mut state = self.lock();
        loop {
            match state.jobs.get(&id) {
                None => return Err(state.missing(id)),
                Some(JobRecord::Done(_)) => {
                    let Some(JobRecord::Done(outcome)) = state.jobs.remove(&id) else {
                        unreachable!("the record is done");
                    };
                    return Ok(outcome);
                }
                Some(_) if state.shutdown => return Err(Missing::ShutDown),
                Some(_) => state = self.done.wait(state).expect("queue lock"),
            }
        }
    }

    /// Initiates shutdown: flags every unfinished job's cancellation token,
    /// finishes still-queued jobs as cancelled, and wakes every waiter.
    /// Workers drain out of [`JobQueue::claim`] with `None`.
    pub fn shutdown(&self) {
        let mut released = Vec::new();
        let mut state = self.lock();
        state.shutdown = true;
        while let Some(id) = state.pending.pop_front() {
            state.queued -= 1;
            let Some(JobRecord::Queued(job, cancel)) = state.jobs.get(&id) else {
                unreachable!("a pending job is queued");
            };
            cancel.store(true, Ordering::Relaxed);
            let outcome = canceled_outcome(job, "server shutting down");
            released.push(state.finish(id, outcome));
        }
        for record in state.jobs.values() {
            if let JobRecord::Running(cancel) = record {
                cancel.store(true, Ordering::Relaxed);
            }
        }
        self.work.notify_all();
        self.done.notify_all();
    }

    /// Per-state job counts and the records held, read in O(1).
    pub fn stats(&self) -> QueueStats {
        let state = self.lock();
        QueueStats {
            queued: state.queued,
            running: state.running,
            done: state.done,
            retained: state.jobs.len() as u64,
        }
    }
}

/// The outcome of a job cancelled before a worker decided it.
fn canceled_outcome(job: &Job, detail: &str) -> JobOutcome {
    let property = job
        .view()
        .resolve_property()
        .map(|p| p.name)
        .unwrap_or_default();
    JobOutcome {
        property,
        verdict: Verdict::Canceled,
        detail: detail.to_owned(),
        cached: false,
        certificate: None,
        counterexample: None,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::protocol::{JobRequest, PropertyRequest};
    use ipcl_bmc::PropertyKind;
    use ipcl_checker::ProofStrategy;
    use ipcl_core::example::ExampleArch;
    use ipcl_synth::synthesize_interlock;

    fn request() -> Job {
        let spec = ExampleArch::new().functional_spec();
        let netlist = synthesize_interlock(&spec).netlist().clone();
        Job::from(JobRequest {
            spec,
            netlist,
            property: PropertyRequest {
                stage_index: 0,
                kind: PropertyKind::Functional,
                latency: None,
            },
            strategy: ProofStrategy::Pdr,
            threads: 1,
        })
    }

    fn outcome(detail: String) -> JobOutcome {
        JobOutcome::error("p", detail)
    }

    #[test]
    fn submit_claim_finish_wait() {
        let queue = JobQueue::new();
        let id = queue.submit(request());
        assert_eq!(queue.status(id).unwrap().0, JobState::Queued);
        let (claimed, _, cancel) = queue.claim().unwrap();
        assert_eq!(claimed, id);
        assert!(!cancel.load(Ordering::Relaxed));
        assert_eq!(queue.status(id).unwrap().0, JobState::Running);
        queue.finish(id, outcome("test".to_owned()));
        assert_eq!(queue.status(id).unwrap().0, JobState::Done, "a peek");
        assert_eq!(queue.wait(id).unwrap().detail, "test");
        // The outcome was handed over, so the record is gone.
        assert_eq!(queue.wait(id).unwrap_err(), Missing::Expired);
        assert_eq!(queue.status(id).unwrap_err(), Missing::Expired);
        assert_eq!(queue.wait(id + 1).unwrap_err(), Missing::Unknown);
        assert_eq!(queue.status(id + 1).unwrap_err(), Missing::Unknown);
        let stats = queue.stats();
        assert_eq!((stats.done, stats.retained), (1, 0));
    }

    #[test]
    fn cancel_before_claim_short_circuits() {
        let queue = JobQueue::new();
        let id = queue.submit(request());
        assert!(queue.cancel(id));
        let other = queue.submit(request());
        // The cancelled job is finished inline; the claim returns the next.
        let (claimed, _, _) = queue.claim().unwrap();
        assert_eq!(claimed, other);
        assert!(!queue.cancel(id), "already done");
        assert_eq!(queue.wait(id).unwrap().verdict, Verdict::Canceled);
        assert!(!queue.cancel(id), "released");
        assert!(!queue.cancel(999), "unknown id");
    }

    #[test]
    fn shutdown_drains_workers_and_cancels_queued_jobs() {
        let queue = Arc::new(JobQueue::new());
        let worker = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.claim())
        };
        let queued = queue.submit(request());
        let (id, _, cancel) = {
            // Let the worker or this thread claim; either way one job runs.
            match worker.join().unwrap() {
                Some(claim) => claim,
                None => panic!("worker drained before shutdown"),
            }
        };
        assert_eq!(id, queued);
        let unclaimed = queue.submit(request());
        queue.shutdown();
        assert!(cancel.load(Ordering::Relaxed), "running job flagged");
        assert_eq!(queue.wait(unclaimed).unwrap().verdict, Verdict::Canceled);
        assert_eq!(queue.wait(id).unwrap_err(), Missing::ShutDown);
        assert!(queue.claim().is_none(), "workers drain at shutdown");
        let late = queue.submit(request());
        assert_eq!(queue.wait(late).unwrap().verdict, Verdict::Canceled);
    }

    #[test]
    fn the_table_holds_the_jobs_in_flight_plus_the_cap() {
        let queue = JobQueue::new();
        let job = request();
        let within_bound = |queue: &JobQueue| {
            let stats = queue.stats();
            let in_flight = stats.queued + stats.running;
            assert!(
                stats.retained <= in_flight + RETAINED_FINISHED as u64,
                "{stats:?}"
            );
        };
        // Awaited jobs, and every third cycle one nobody waits for.
        let mut unawaited = Vec::new();
        for cycle in 0..100_000 {
            let id = queue.submit(job.clone());
            if cycle % 3 == 0 {
                unawaited.push(queue.submit(job.clone()));
            }
            within_bound(&queue);
            while queue.stats().queued > 0 {
                let (claimed, _, _) = queue.claim().unwrap();
                within_bound(&queue);
                queue.finish(claimed, outcome(String::new()));
                within_bound(&queue);
            }
            assert!(queue.wait(id).is_ok());
            within_bound(&queue);
        }
        let stats = queue.stats();
        assert_eq!(stats.done, 100_000 + unawaited.len() as u64);
        assert_eq!(queue.wait(unawaited[0]).unwrap_err(), Missing::Expired);

        // An unawaited record stays until exactly RETAINED_FINISHED later
        // jobs have finished.
        let kept = queue.submit_resolved(outcome("kept".to_owned()));
        for _ in 1..RETAINED_FINISHED {
            let id = queue.submit_resolved(outcome(String::new()));
            assert!(queue.wait(id).is_ok());
        }
        assert_eq!(queue.status(kept).unwrap().0, JobState::Done);
        queue.submit_resolved(outcome(String::new()));
        assert_eq!(queue.status(kept).unwrap_err(), Missing::Expired);
        assert_eq!(queue.wait(kept).unwrap_err(), Missing::Expired);

        // Unawaited jobs alone fill the table to the cap, no further.
        for _ in 0..RETAINED_FINISHED + 100 {
            queue.submit_resolved(outcome(String::new()));
            within_bound(&queue);
        }
        assert_eq!(queue.stats().retained, RETAINED_FINISHED as u64);
    }

    /// What the table should hold for a job in flight.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Live {
        Queued { canceled: bool },
        Running,
    }

    /// The queue as the state of each id it holds: in flight, or finished
    /// as the `nth` job to finish with its outcome's detail. Counts are
    /// taken by scanning.
    #[derive(Default)]
    struct Model {
        next_id: u64,
        live: BTreeMap<u64, Live>,
        finished: BTreeMap<u64, (u64, String)>,
        /// The id of each finished record by its `nth`.
        by_nth: BTreeMap<u64, u64>,
        pending: VecDeque<u64>,
        done: u64,
        shutdown: bool,
        /// Records dropped by the cap.
        expired: u64,
    }

    impl Model {
        fn finish(&mut self, id: u64, detail: &str) {
            self.live.remove(&id);
            self.done += 1;
            self.finished.insert(id, (self.done, detail.to_owned()));
            self.by_nth.insert(self.done, id);
            // The record that finished RETAINED_FINISHED jobs ago goes.
            let Some(nth) = self.done.checked_sub(RETAINED_FINISHED as u64) else {
                return;
            };
            if let Some(id) = self.by_nth.remove(&nth) {
                self.finished.remove(&id);
                self.expired += 1;
            }
        }

        /// Takes a finished record's detail, as `wait` does.
        fn take(&mut self, id: u64) -> Option<String> {
            let (nth, detail) = self.finished.remove(&id)?;
            self.by_nth.remove(&nth);
            Some(detail)
        }

        fn stats(&self) -> QueueStats {
            let running = self.live.values().filter(|&&l| l == Live::Running).count();
            QueueStats {
                queued: (self.live.len() - running) as u64,
                running: running as u64,
                done: self.done,
                retained: (self.live.len() + self.finished.len()) as u64,
            }
        }

        fn missing(&self, id: u64) -> Missing {
            if id < self.next_id {
                Missing::Expired
            } else {
                Missing::Unknown
            }
        }

        /// An id to act on: mostly a recent one, sometimes any id, never
        /// issued ones included.
        fn pick(&self, rng: &mut StdRng) -> u64 {
            if rng.random_bool(0.5) {
                self.next_id.saturating_sub(rng.random_range(0..40))
            } else {
                rng.random_range(0..self.next_id + 2)
            }
        }
    }

    #[test]
    fn counts_match_a_model_under_a_random_mix() {
        for seed in [3, 1009] {
            let mut rng = StdRng::seed_from_u64(seed);
            let queue = JobQueue::new();
            let job = request();
            let mut model = Model::default();
            let steps = 20_000;
            for step in 0..steps {
                match rng.random_range(0..100) {
                    _ if step > steps * 3 / 4
                        && !model.shutdown
                        && rng.random_bool(1.0 / 800.0) =>
                    {
                        queue.shutdown();
                        while let Some(id) = model.pending.pop_front() {
                            model.finish(id, "server shutting down");
                        }
                        model.shutdown = true;
                    }
                    0..20 => {
                        let id = queue.submit(job.clone());
                        assert_eq!(id, model.next_id);
                        model.next_id += 1;
                        if model.shutdown {
                            model.finish(id, "server shutting down");
                        } else {
                            model.live.insert(id, Live::Queued { canceled: false });
                            model.pending.push_back(id);
                        }
                    }
                    20..35 => {
                        let detail = format!("resolved {}", model.next_id);
                        let id = queue.submit_resolved(outcome(detail.clone()));
                        assert_eq!(id, model.next_id);
                        model.next_id += 1;
                        model.finish(id, &detail);
                    }
                    35..58 => {
                        let canceled = Live::Queued { canceled: true };
                        let blocks = !model.shutdown
                            && model.pending.iter().all(|id| model.live[id] == canceled);
                        if blocks {
                            continue;
                        }
                        let mut expected = None;
                        while let Some(id) = model.pending.pop_front() {
                            if model.live[&id] == canceled {
                                model.finish(id, "canceled while queued");
                            } else {
                                model.live.insert(id, Live::Running);
                                expected = Some(id);
                                break;
                            }
                        }
                        assert_eq!(queue.claim().map(|claim| claim.0), expected);
                    }
                    58..78 => {
                        let running: Vec<u64> = model
                            .live
                            .iter()
                            .filter(|(_, &live)| live == Live::Running)
                            .map(|(&id, _)| id)
                            .collect();
                        let id = match running.len() {
                            n if n > 0 && rng.random_bool(0.8) => running[rng.random_range(0..n)],
                            _ => model.pick(&mut rng),
                        };
                        let detail = format!("job {id}");
                        queue.finish(id, outcome(detail.clone()));
                        if model.live.get(&id) == Some(&Live::Running) {
                            model.finish(id, &detail);
                        }
                    }
                    78..85 => {
                        let id = model.pick(&mut rng);
                        let expected = match model.live.get_mut(&id) {
                            Some(Live::Queued { canceled }) => {
                                *canceled = true;
                                true
                            }
                            Some(Live::Running) => true,
                            None => false,
                        };
                        assert_eq!(queue.cancel(id), expected);
                    }
                    85..95 => {
                        let id = model.pick(&mut rng);
                        let expected = match (model.take(id), model.live.get(&id)) {
                            (Some(detail), _) => Ok(detail),
                            (None, None) => Err(model.missing(id)),
                            (None, Some(_)) if model.shutdown => Err(Missing::ShutDown),
                            (None, Some(_)) => continue, // would block
                        };
                        assert_eq!(queue.wait(id).map(|o| o.detail), expected, "wait {id}");
                    }
                    _ => {
                        let id = model.pick(&mut rng);
                        let expected = match (model.finished.get(&id), model.live.get(&id)) {
                            (Some((_, detail)), _) => Ok((JobState::Done, Some(detail.clone()))),
                            (None, Some(Live::Queued { .. })) => Ok((JobState::Queued, None)),
                            (None, Some(Live::Running)) => Ok((JobState::Running, None)),
                            (None, None) => Err(model.missing(id)),
                        };
                        let status = queue
                            .status(id)
                            .map(|(state, outcome)| (state, outcome.map(|o| o.detail)));
                        assert_eq!(status, expected, "status {id}");
                    }
                }
                assert_eq!(queue.stats(), model.stats(), "seed {seed}, step {step}");
            }
            assert!(model.expired > 0, "the cap dropped records (seed {seed})");
            assert!(model.shutdown, "the mix reached a shutdown (seed {seed})");
        }
    }
}
