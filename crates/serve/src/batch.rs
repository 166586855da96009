//! Batch submission: amortising one encoding across properties that share
//! a design.
//!
//! A `submit_batch` request carries many jobs. Jobs over the same problem
//! structure — grouped by the structural digest of the netlist pinned on
//! the *union* of the group's property variables, so grouping follows the
//! shared cone of influence rather than textual identity — are attacked
//! together by one base-only [`ipcl_bmc::check_properties`] run: a single
//! reset-rooted unrolling and one incremental SAT solver, where every
//! property contributes one assumption literal per frame and the
//! transition-relation clauses (the bulk of the CNF) are encoded once
//! instead of once per job. The checker's k-induction uses the same run.
//! This bounded sweep settles the cheap outcomes:
//!
//! * **cache hits** are served exactly as on the single-job path
//!   (revalidated, never trusted);
//! * **shallowly falsifiable properties** are caught even before the
//!   solver: one [`ipcl_bmc::fuzz`] call drives 64 random scenarios per
//!   step through the shared netlist and evaluates every surviving property
//!   word-wide, each at its own latency — each candidate trace is replayed
//!   against *its own job's* netlist before being served, so the fuzz stage
//!   can save SAT queries but never corrupt a verdict;
//! * **falsifiable properties** the fuzz missed get their counterexample
//!   from the shared unrolling — decoded, replay-checked and cached like
//!   any engine result;
//! * everything else (the properties that need a real proof) is handed to
//!   the worker pool as ordinary queued jobs.
//!
//! The sweep runs on the submitting connection's thread, bounded by the
//! server's `batch_depth`, so a batch of mostly-buggy or mostly-cached
//! properties answers without ever occupying a worker.

use std::collections::BTreeSet;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use ipcl_bmc::{
    check_properties, fuzz, BmcOptions, BmcOutcome, Counterexample, SequentialProperty, FUZZ_SEED,
};
use ipcl_rtl::structural_digest;
use ipcl_trace::{MetricSink, Tracer, Value};

use crate::cache::{cache_key, revalidate, ProofCache};
use crate::pool::process_job;
use crate::protocol::{JobOutcome, JobRequest, Verdict};

/// The split a batch pre-solve produces: per input index, either a finished
/// outcome or a leftover for the queue.
pub struct BatchResolution {
    /// `(input index, outcome)` for jobs settled by cache or the shared
    /// sweep.
    pub resolved: Vec<(usize, JobOutcome)>,
    /// Input indices that still need a full engine run.
    pub unresolved: Vec<usize>,
}

/// Pre-solves `jobs` as described in the module docs. `depth` bounds the
/// shared falsification sweep (frames beyond each property's first
/// instance); `0` only serves cache hits.
pub fn presolve_batch(
    jobs: &[Arc<JobRequest>],
    depth: usize,
    cache: &ProofCache,
    tracer: &Tracer,
) -> BatchResolution {
    let mut resolved = Vec::new();
    let mut unresolved = Vec::new();

    // Group indices by shared cone: same netlist structure under the
    // union-interface digest. Properties of one group can share an
    // unrolling; the group representative's spec provides the encoding
    // vocabulary (identical digests from differently-built payloads are
    // caught by the per-job property resolution below).
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (index, job) in jobs.iter().enumerate() {
        let interface: Vec<String> = {
            let pool = job.spec.pool();
            let mut vars = BTreeSet::new();
            for stage in job.spec.stages() {
                vars.insert(stage.moe);
                for rule in &stage.rules {
                    rule.condition.collect_vars(&mut vars);
                }
            }
            vars.into_iter().map(|v| pool.name_or_fallback(v)).collect()
        };
        let digest = structural_digest(&job.netlist, &interface);
        match groups.iter_mut().find(|(key, _)| *key == digest) {
            Some((_, members)) => members.push(index),
            None => groups.push((digest, vec![index])),
        }
    }

    for (_, members) in groups {
        presolve_group(
            jobs,
            &members,
            depth,
            cache,
            tracer,
            &mut resolved,
            &mut unresolved,
        );
    }
    tracer.event(
        "serve.batch_presolved",
        &[
            ("jobs", Value::U64(jobs.len() as u64)),
            ("resolved", Value::U64(resolved.len() as u64)),
        ],
    );
    resolved.sort_by_key(|(index, _)| *index);
    unresolved.sort_unstable();
    BatchResolution {
        resolved,
        unresolved,
    }
}

fn presolve_group(
    jobs: &[Arc<JobRequest>],
    members: &[usize],
    depth: usize,
    cache: &ProofCache,
    tracer: &Tracer,
    resolved: &mut Vec<(usize, JobOutcome)>,
    unresolved: &mut Vec<usize>,
) {
    let representative = &jobs[members[0]];

    // Pass 1: cache hits (and malformed property selectors, settled as
    // errors immediately).
    let mut sweep: Vec<(usize, SequentialProperty)> = Vec::new();
    for &index in members {
        let job = &jobs[index];
        let property = match job.resolve_property() {
            Ok(property) => property,
            Err(message) => {
                resolved.push((index, JobOutcome::error("", message)));
                continue;
            }
        };
        let key = cache_key(&job.spec, &job.netlist, &property);
        if let Some(stored) = cache.load(&key) {
            if stored.property == property.name
                && revalidate(&stored, &job.spec, &job.netlist, &property)
            {
                cache.record_hit();
                tracer.counter("serve.cache.hits", 1);
                let mut served = stored;
                served.cached = true;
                resolved.push((index, served));
                continue;
            }
            cache.record_revalidation_failure();
        }
        sweep.push((index, property));
    }

    // Pass 2: the lane fuzz on the representative's netlist, its traces
    // replay-verified against each member's own job. Whatever it settles
    // never reaches the solver.
    let mut settled = vec![false; sweep.len()];
    if depth > 0 && !sweep.is_empty() {
        let properties: Vec<_> = sweep.iter().map(|(_, property)| property.clone()).collect();
        let (spec, netlist) = (&representative.spec, &representative.netlist);
        let candidates = fuzz(spec, netlist, &properties, depth as u64, FUZZ_SEED);
        let mut fuzz_settled = 0u64;
        for (slot, candidate) in candidates.unwrap_or_default().into_iter().enumerate() {
            if let Some(cex) = candidate {
                settled[slot] = serve_trace(jobs, &sweep[slot], cex, cache, tracer, resolved);
                fuzz_settled += u64::from(settled[slot]);
            }
        }
        tracer.event(
            "serve.batch_fuzzed",
            &[
                ("cycles", Value::U64(depth as u64)),
                ("settled", Value::U64(fuzz_settled)),
            ],
        );
    }

    // Pass 3: the shared bounded falsification sweep — one base-only
    // `check_properties` run against the representative's spec and netlist.
    // Members share the structural digest, and each trace is replay-verified
    // against its own job before being served, so a colliding-but-different
    // member can cost a wasted query, never a wrong verdict.
    let open: Vec<usize> = (0..sweep.len()).filter(|&slot| !settled[slot]).collect();
    if depth > 0 && !open.is_empty() {
        let properties: Vec<_> = open.iter().map(|&slot| sweep[slot].1.clone()).collect();
        let options = BmcOptions {
            max_depth: depth - 1,
            quiet_cycles: 0,
            induction: false,
            ..BmcOptions::default()
        };
        let (spec, netlist) = (&representative.spec, &representative.netlist);
        let results = check_properties(spec, netlist, &properties, &options, None, tracer);
        for (slot, result) in open.into_iter().zip(results.unwrap_or_default()) {
            if let BmcOutcome::Falsified(cex) = result.outcome {
                settled[slot] = serve_trace(jobs, &sweep[slot], cex, cache, tracer, resolved);
            }
        }
    }
    for (slot, (index, _)) in sweep.iter().enumerate() {
        if !settled[slot] {
            unresolved.push(*index);
        }
    }
}

/// Serves a candidate trace for sweep entry `(index, property)` if it
/// replays against job `index`'s own spec and netlist: the outcome is
/// recorded as a cache miss, stored, and pushed onto `resolved`. Returns
/// whether it was served.
fn serve_trace(
    jobs: &[Arc<JobRequest>],
    (index, property): &(usize, SequentialProperty),
    counterexample: Counterexample,
    cache: &ProofCache,
    tracer: &Tracer,
    resolved: &mut Vec<(usize, JobOutcome)>,
) -> bool {
    let job = &jobs[*index];
    let reproduced = counterexample
        .replay(&job.spec, &job.netlist, property)
        .is_ok_and(|replay| replay.violation_reproduced);
    if !reproduced {
        return false;
    }
    let outcome = JobOutcome {
        property: property.name.clone(),
        verdict: Verdict::Falsified,
        detail: format!("trace_frames={}", counterexample.length()),
        cached: false,
        certificate: None,
        counterexample: Some(counterexample),
    };
    cache.record_miss();
    tracer.counter("serve.cache.misses", 1);
    cache.store(&cache_key(&job.spec, &job.netlist, property), &outcome);
    resolved.push((*index, outcome));
    true
}

/// Convenience used by tests and the smoke check: pre-solve, then run the
/// leftovers inline (no queue involved). Returns outcomes in input order.
pub fn solve_batch_inline(
    jobs: &[Arc<JobRequest>],
    depth: usize,
    cache: &ProofCache,
    tracer: &Tracer,
) -> Vec<JobOutcome> {
    let resolution = presolve_batch(jobs, depth, cache, tracer);
    let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
    for (index, outcome) in resolution.resolved {
        outcomes[index] = Some(outcome);
    }
    let cancel = AtomicBool::new(false);
    for index in resolution.unresolved {
        outcomes[index] = Some(process_job(&jobs[index], &cancel, cache, tracer));
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("all settled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PropertyRequest;
    use ipcl_bmc::PropertyKind;
    use ipcl_checker::ProofStrategy;
    use ipcl_core::example::ExampleArch;
    use ipcl_pipesim::BrokenVariant;
    use ipcl_synth::synthesize_broken_interlock;

    fn broken_batch() -> Vec<Arc<JobRequest>> {
        let spec = ExampleArch::new().functional_spec();
        let broken = synthesize_broken_interlock(&spec, BrokenVariant::IgnoreScoreboard);
        (0..spec.stages().len())
            .map(|stage_index| {
                Arc::new(JobRequest {
                    spec: spec.clone(),
                    netlist: broken.netlist().clone(),
                    property: PropertyRequest {
                        stage_index,
                        kind: PropertyKind::Functional,
                        latency: None,
                    },
                    strategy: ProofStrategy::Pdr,
                    threads: 1,
                })
            })
            .collect()
    }

    #[test]
    fn shared_sweep_settles_falsifiable_properties() {
        let jobs = broken_batch();
        let cache = ProofCache::new(None);
        let tracer = Tracer::disabled();
        let resolution = presolve_batch(&jobs, 6, &cache, &tracer);
        assert!(
            !resolution.resolved.is_empty(),
            "the scoreboard break must falsify some stage within the sweep"
        );
        for (_, outcome) in &resolution.resolved {
            assert_eq!(outcome.verdict, Verdict::Falsified);
            assert!(outcome.counterexample.is_some());
        }
        assert_eq!(
            resolution.resolved.len() + resolution.unresolved.len(),
            jobs.len()
        );
    }

    #[test]
    fn fuzz_stage_settles_falsifiable_jobs_before_the_solver() {
        let jobs = broken_batch();
        let cache = ProofCache::new(None);
        let tracer = Tracer::new(ipcl_trace::TraceConfig::enabled());
        let resolution = presolve_batch(&jobs, 6, &cache, &tracer);
        assert!(!resolution.resolved.is_empty());
        let snapshot = tracer.snapshot().expect("tracing enabled");
        let fuzzed = snapshot
            .events
            .iter()
            .find(|e| e.kind == "serve.batch_fuzzed")
            .expect("fuzz stage ran");
        let settled = fuzzed
            .fields
            .iter()
            .find(|(k, _)| k == "settled")
            .map(|(_, v)| v.clone());
        assert!(
            matches!(settled, Some(Value::U64(n)) if n > 0),
            "the 64-lane fuzz must catch the scoreboard break: {settled:?}"
        );
        // Fuzz-served traces pass the same replay bar as solver traces.
        for (_, outcome) in &resolution.resolved {
            assert_eq!(outcome.verdict, Verdict::Falsified);
            assert!(outcome.counterexample.is_some());
        }
    }

    #[test]
    fn batch_sweep_agrees_with_the_single_job_path() {
        let jobs = broken_batch();
        let tracer = Tracer::disabled();
        // Batch verdicts…
        let batch_cache = ProofCache::new(None);
        let batch = solve_batch_inline(&jobs, 6, &batch_cache, &tracer);
        // …must match direct per-job engine runs (fresh cache: all cold).
        let direct_cache = ProofCache::new(None);
        let cancel = AtomicBool::new(false);
        for (job, batch_outcome) in jobs.iter().zip(&batch) {
            let direct = process_job(job, &cancel, &direct_cache, &tracer);
            assert_eq!(batch_outcome.verdict, direct.verdict, "{}", direct.property);
        }
    }

    #[test]
    fn second_batch_is_all_hits() {
        let jobs = broken_batch();
        let cache = ProofCache::new(None);
        let tracer = Tracer::disabled();
        let first = solve_batch_inline(&jobs, 6, &cache, &tracer);
        let second = solve_batch_inline(&jobs, 6, &cache, &tracer);
        for (cold, warm) in first.iter().zip(&second) {
            assert_eq!(cold.verdict, warm.verdict);
            assert!(warm.cached, "{}: second round must hit", warm.property);
        }
    }
}
