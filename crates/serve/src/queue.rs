//! The bounded job queue shared by connection handlers and the worker pool.
//!
//! One mutex-guarded state table plus two condition variables: `work` wakes
//! idle workers when a job arrives (or at shutdown), `done` wakes `wait`ers
//! when a job finishes. Every job carries its own cancellation token — the
//! same `AtomicBool` the proof engines poll between SAT queries
//! (`check_property_job`'s cooperative-cancellation plumbing) — so both a
//! client `cancel` and a server shutdown stop in-flight solves at the next
//! query boundary rather than at the end of the job.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::protocol::{JobOutcome, JobRequest, Verdict};

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

struct JobRecord {
    request: Arc<JobRequest>,
    state: JobState,
    cancel: Arc<AtomicBool>,
    outcome: Option<JobOutcome>,
}

#[derive(Default)]
struct QueueState {
    next_id: u64,
    pending: VecDeque<u64>,
    jobs: HashMap<u64, JobRecord>,
    shutdown: bool,
}

/// Counts of jobs per lifecycle state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs submitted but not yet claimed.
    pub queued: u64,
    /// Jobs currently being solved.
    pub running: u64,
    /// Jobs finished.
    pub done: u64,
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

    /// Enqueues a job; returns its id. After shutdown the job is recorded
    /// as immediately cancelled instead of queued.
    pub fn submit(&self, request: Arc<JobRequest>) -> u64 {
        let mut state = self.state.lock().expect("queue lock");
        let id = state.next_id;
        state.next_id += 1;
        if state.shutdown {
            let property = request
                .resolve_property()
                .map(|p| p.name)
                .unwrap_or_default();
            state.jobs.insert(
                id,
                JobRecord {
                    request,
                    state: JobState::Done,
                    cancel: Arc::new(AtomicBool::new(true)),
                    outcome: Some(canceled_outcome(&property, "server shutting down")),
                },
            );
        } else {
            state.jobs.insert(
                id,
                JobRecord {
                    request,
                    state: JobState::Queued,
                    cancel: Arc::new(AtomicBool::new(false)),
                    outcome: None,
                },
            );
            state.pending.push_back(id);
            self.work.notify_one();
        }
        id
    }

    /// Records an already-finished job (a `submit_batch` job answered from
    /// the cache); returns its id.
    pub fn submit_resolved(&self, request: Arc<JobRequest>, outcome: JobOutcome) -> u64 {
        let mut state = self.state.lock().expect("queue lock");
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.insert(
            id,
            JobRecord {
                request,
                state: JobState::Done,
                cancel: Arc::new(AtomicBool::new(false)),
                outcome: Some(outcome),
            },
        );
        self.done.notify_all();
        id
    }

    /// Blocks until a job is available and claims it, or returns `None` at
    /// shutdown. A job cancelled while still queued is finished on the spot
    /// (with a [`Verdict::Canceled`] outcome) rather than handed out.
    pub fn claim(&self) -> Option<(u64, Arc<JobRequest>, Arc<AtomicBool>)> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            while let Some(id) = state.pending.pop_front() {
                let record = state.jobs.get_mut(&id).expect("pending job exists");
                if record.cancel.load(Ordering::Relaxed) {
                    record.state = JobState::Done;
                    let property = record
                        .request
                        .resolve_property()
                        .map(|p| p.name)
                        .unwrap_or_default();
                    record.outcome = Some(canceled_outcome(&property, "canceled while queued"));
                    self.done.notify_all();
                    continue;
                }
                record.state = JobState::Running;
                return Some((id, Arc::clone(&record.request), Arc::clone(&record.cancel)));
            }
            if state.shutdown {
                return None;
            }
            state = self.work.wait(state).expect("queue lock");
        }
    }

    /// Records the outcome of a claimed job and wakes `wait`ers.
    pub fn finish(&self, id: u64, outcome: JobOutcome) {
        let mut state = self.state.lock().expect("queue lock");
        if let Some(record) = state.jobs.get_mut(&id) {
            record.state = JobState::Done;
            record.outcome = Some(outcome);
        }
        self.done.notify_all();
    }

    /// Requests cancellation of a job. Returns `false` for unknown ids and
    /// for jobs that already finished.
    pub fn cancel(&self, id: u64) -> bool {
        let state = self.state.lock().expect("queue lock");
        match state.jobs.get(&id) {
            Some(record) if record.state != JobState::Done => {
                record.cancel.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// The state and (when done) outcome of a job.
    pub fn status(&self, id: u64) -> Option<(JobState, Option<JobOutcome>)> {
        let state = self.state.lock().expect("queue lock");
        state
            .jobs
            .get(&id)
            .map(|record| (record.state, record.outcome.clone()))
    }

    /// Blocks until the job finishes and returns its outcome. `None` for
    /// unknown ids or when the queue shuts down before the job finishes
    /// (shutdown cancels and finishes every job, so this is rare).
    pub fn wait(&self, id: u64) -> Option<JobOutcome> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            match state.jobs.get(&id) {
                None => return None,
                Some(record) if record.state == JobState::Done => return record.outcome.clone(),
                Some(_) if state.shutdown => return None,
                Some(_) => state = self.done.wait(state).expect("queue lock"),
            }
        }
    }

    /// Initiates shutdown: flags every unfinished job's cancellation token,
    /// finishes still-queued jobs as cancelled, and wakes every waiter.
    /// Workers drain out of [`JobQueue::claim`] with `None`.
    pub fn shutdown(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.shutdown = true;
        let pending: Vec<u64> = state.pending.drain(..).collect();
        for id in pending {
            if let Some(record) = state.jobs.get_mut(&id) {
                record.cancel.store(true, Ordering::Relaxed);
                record.state = JobState::Done;
                let property = record
                    .request
                    .resolve_property()
                    .map(|p| p.name)
                    .unwrap_or_default();
                record.outcome = Some(canceled_outcome(&property, "server shutting down"));
            }
        }
        for record in state.jobs.values() {
            if record.state != JobState::Done {
                record.cancel.store(true, Ordering::Relaxed);
            }
        }
        self.work.notify_all();
        self.done.notify_all();
    }

    /// Whether shutdown has been initiated.
    pub fn is_shutdown(&self) -> bool {
        self.state.lock().expect("queue lock").shutdown
    }

    /// Per-state job counts.
    pub fn stats(&self) -> QueueStats {
        let state = self.state.lock().expect("queue lock");
        let mut stats = QueueStats::default();
        for record in state.jobs.values() {
            match record.state {
                JobState::Queued => stats.queued += 1,
                JobState::Running => stats.running += 1,
                JobState::Done => stats.done += 1,
            }
        }
        stats
    }
}

fn canceled_outcome(property: &str, detail: &str) -> JobOutcome {
    JobOutcome {
        property: property.to_owned(),
        verdict: Verdict::Canceled,
        detail: detail.to_owned(),
        cached: false,
        certificate: None,
        counterexample: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PropertyRequest;
    use ipcl_bmc::PropertyKind;
    use ipcl_checker::ProofStrategy;
    use ipcl_core::example::ExampleArch;
    use ipcl_synth::synthesize_interlock;

    fn request() -> Arc<JobRequest> {
        let spec = ExampleArch::new().functional_spec();
        let netlist = synthesize_interlock(&spec).netlist().clone();
        Arc::new(JobRequest {
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

    #[test]
    fn submit_claim_finish_wait() {
        let queue = JobQueue::new();
        let id = queue.submit(request());
        assert_eq!(queue.status(id).unwrap().0, JobState::Queued);
        let (claimed, _, cancel) = queue.claim().unwrap();
        assert_eq!(claimed, id);
        assert!(!cancel.load(Ordering::Relaxed));
        assert_eq!(queue.status(id).unwrap().0, JobState::Running);
        queue.finish(id, canceled_outcome("p", "test"));
        let outcome = queue.wait(id).unwrap();
        assert_eq!(outcome.verdict, Verdict::Canceled);
        assert_eq!(queue.stats().done, 1);
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
        assert_eq!(queue.wait(id).unwrap().verdict, Verdict::Canceled);
        assert!(!queue.cancel(id), "already done");
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
        assert!(queue.claim().is_none(), "workers drain at shutdown");
        let late = queue.submit(request());
        assert_eq!(queue.wait(late).unwrap().verdict, Verdict::Canceled);
    }
}
