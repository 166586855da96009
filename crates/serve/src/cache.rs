//! The revalidating proof cache.
//!
//! The cache key is a *semantic* fingerprint of the job: the canonical
//! structural digest of the netlist ([`ipcl_rtl::structural_digest`],
//! interface-pinned on the property's variables) combined with the property
//! itself (name, kind, `ok` expression text, latency) and the quiet-cycle
//! count the job's strategy decides it under
//! ([`SequentialOptions::quiet_cycles`](ipcl_checker::SequentialOptions::quiet_cycles)):
//! a k-induction job decides the quiet-reset form of a property and a PDR
//! or portfolio job the unconditional form, and the two can differ, so
//! they never share an entry. Structurally
//! identical implementations — renamed internal signals, reordered
//! declarations, different module names — therefore share entries, while
//! any semantic mutation (a dropped gate, a flipped reset value) lands in a
//! different slot.
//!
//! The digest decides where to *look*, never what to *trust*: every hit is
//! re-validated against the submitted problem before it is served — a
//! proved entry must pass [`Certificate::validate`]'s independent
//! initiation/consecution/safety SAT checks, a falsified entry must replay
//! its trace through the cycle-accurate simulator and reproduce the
//! violation. An entry that fails revalidation (hash collision, stale
//! store, renamed registers outside the interface), or whose stored text
//! does not parse (a truncated file, an old format), is dropped, from
//! memory and disk, and counted in [`CacheStats::revalidation_failures`];
//! the lookup is a miss, and the fresh result takes its slot, so a
//! corrupted cache can cost time but never soundness.
//!
//! [`Certificate::validate`]: ipcl_pdr::Certificate::validate
//!
//! Entries live in memory and, when a cache directory is configured, as
//! one `<key>.json` file per entry (the [`JobOutcome`] wire format), so a
//! restarted server keeps its warm proofs.
//!
//! Growth is bounded: [`CacheLimits`] caps the entry count and/or the total
//! stored bytes, and the cache evicts least-recently-used entries (memory
//! *and* their disk files) to stay under both caps. Evictions are counted
//! in [`CacheStats::evictions`] and surfaced through the worker heartbeat
//! and the server's `stats` response, so an undersized cache is visible
//! before it becomes a throughput problem.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ipcl_bmc::SequentialProperty;
use ipcl_core::FunctionalSpec;
use ipcl_rtl::{sha256_hex, structural_digest, Netlist};
use ipcl_trace::json::Json;

use crate::design::JobRef;
use crate::protocol::{job_options, JobOutcome, Verdict};

/// Computes the cache key of `(netlist, property)` decided in its
/// unconditional form, with no quiet cycle: the key of a PDR or portfolio
/// job. A k-induction job's key names its quiet-cycle count instead.
///
/// The netlist digest pins the property's variables as the interface, so
/// the digest covers exactly the logic cone the property can observe; the
/// property's own identity (name, `ok` text, latency sampling) and the
/// quiet-cycle count are folded in afterwards. The key is a hex SHA-256
/// string, usable as a filename.
pub fn cache_key(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
) -> String {
    key(
        spec,
        property,
        0,
        &interface_digest(spec, netlist, property),
    )
}

/// The cache key of `job` on `property` (its resolved property):
/// [`cache_key`]'s fingerprint, from the design's memoised digest, with
/// the quiet-cycle count the job's strategy decides under.
pub(crate) fn job_key(job: JobRef<'_>, property: &SequentialProperty) -> String {
    let quiet_cycles = job_options(job.strategy).quiet_cycles();
    key(job.spec, property, quiet_cycles, &job.digest(property))
}

/// The structural digest of `netlist` pinned on the interface of
/// `property`, a property of `spec`: the names of its variables.
pub(crate) fn interface_digest(
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
) -> String {
    let pool = spec.pool();
    let interface: Vec<String> = property
        .ok
        .vars()
        .into_iter()
        .map(|v| pool.name_or_fallback(v))
        .collect();
    structural_digest(netlist, &interface)
}

fn key(
    spec: &FunctionalSpec,
    property: &SequentialProperty,
    quiet_cycles: usize,
    digest: &str,
) -> String {
    let pool = spec.pool();
    let mut preimage = String::from("ipcl-serve-cache-v2\n");
    preimage.push_str(digest);
    preimage.push('\n');
    preimage.push_str(&property.name);
    preimage.push('\n');
    preimage.push_str(property.kind.name());
    preimage.push('\n');
    preimage.push_str(&property.ok.display(pool).to_string());
    preimage.push('\n');
    preimage.push_str(&format!("latency_offset={}", property.latency.offset()));
    preimage.push_str(&format!("\nquiet_cycles={quiet_cycles}"));
    sha256_hex(preimage.as_bytes())
}

/// Re-checks a stored outcome against the *submitted* problem. Only a
/// proof with its certificate and a falsification with its trace are
/// servable, and [`ProofCache::store`] keeps nothing else.
pub fn revalidate(
    outcome: &JobOutcome,
    spec: &FunctionalSpec,
    netlist: &Netlist,
    property: &SequentialProperty,
) -> bool {
    match outcome.verdict {
        Verdict::Proved => match &outcome.certificate {
            Some(certificate) => certificate
                .validate(spec, netlist, property)
                .map(|check| check.ok())
                .unwrap_or(false),
            // A proof with no certificate (k-induction) cannot be
            // independently re-established here, so it is not servable.
            None => false,
        },
        Verdict::Falsified => match &outcome.counterexample {
            Some(counterexample) => counterexample
                .replay(spec, netlist, property)
                .map(|replay| replay.violation_reproduced)
                .unwrap_or(false),
            None => false,
        },
        _ => false,
    }
}

/// Running totals of the cache (all monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (after revalidation).
    pub hits: u64,
    /// Lookups that ran the proof engine.
    pub misses: u64,
    /// Entries found but rejected by revalidation, or unparsable (counted
    /// as misses too).
    pub revalidation_failures: u64,
    /// Entries dropped by the LRU size bound ([`CacheLimits`]).
    pub evictions: u64,
}

/// Size bounds of a [`ProofCache`]. `None` in either slot means unbounded
/// in that dimension; the default is fully unbounded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheLimits {
    /// Maximum number of in-memory entries.
    pub max_entries: Option<usize>,
    /// Maximum total size of the stored entry texts, in bytes. An entry
    /// larger than the whole budget is never retained.
    pub max_bytes: Option<usize>,
}

impl CacheLimits {
    /// Whether a cache of `entries` entries totalling `bytes` bytes is
    /// within both bounds.
    fn admits(&self, entries: usize, bytes: usize) -> bool {
        self.max_entries.is_none_or(|max| entries <= max)
            && self.max_bytes.is_none_or(|max| bytes <= max)
    }
}

/// One resident entry: the stored JSON plus its last-touch stamp.
struct Entry {
    text: String,
    stamp: u64,
}

/// The mutex-guarded resident state: entries, their total byte size, and
/// the logical clock handing out recency stamps.
#[derive(Default)]
struct Store {
    entries: HashMap<String, Entry>,
    bytes: usize,
    clock: u64,
}

/// The shared proof cache. See the module docs.
pub struct ProofCache {
    dir: Option<PathBuf>,
    limits: CacheLimits,
    store: Mutex<Store>,
    hits: AtomicU64,
    misses: AtomicU64,
    revalidation_failures: AtomicU64,
    evictions: AtomicU64,
}

impl ProofCache {
    /// An unbounded in-memory cache, optionally persisted under `dir`
    /// (created if missing; creation failure silently degrades to
    /// memory-only).
    pub fn new(dir: Option<PathBuf>) -> ProofCache {
        ProofCache::with_limits(dir, CacheLimits::default())
    }

    /// As [`ProofCache::new`], with LRU size bounds. Eviction applies to
    /// the persisted files too: a server restarted onto an over-full cache
    /// directory trims it back under the caps as entries are touched.
    pub fn with_limits(dir: Option<PathBuf>, limits: CacheLimits) -> ProofCache {
        let dir = dir.filter(|d| fs::create_dir_all(d).is_ok());
        ProofCache {
            dir,
            limits,
            store: Mutex::new(Store::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            revalidation_failures: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The stored entry for `key`, if any (memory first, then disk),
    /// parsed: `Err` with the parse error when the stored text is not a
    /// [`JobOutcome`]. This is *not* yet a hit: the caller must revalidate.
    /// Touching an entry refreshes its LRU recency.
    pub fn load(&self, key: &str) -> Option<Result<JobOutcome, String>> {
        let text = {
            let mut store = self.store.lock().expect("cache lock");
            store.clock += 1;
            let stamp = store.clock;
            match store.entries.get_mut(key) {
                Some(entry) => {
                    entry.stamp = stamp;
                    Some(entry.text.clone())
                }
                None => None,
            }
        }
        .or_else(|| {
            let path = self.dir.as_ref()?.join(format!("{key}.json"));
            let text = fs::read_to_string(path).ok()?;
            let mut store = self.store.lock().expect("cache lock");
            self.insert_locked(&mut store, key, text.clone());
            Some(text)
        })?;
        Some(Json::parse(&text).and_then(|json| JobOutcome::from_json(&json)))
    }

    /// Stores `outcome` under `key` (memory and, when configured, disk).
    /// Only outcomes [`revalidate`] can accept are stored: a proof with its
    /// certificate, a falsification with its trace. Anything else (an
    /// inconclusive verdict, a k-induction proof) is ignored, since it
    /// could never be served.
    pub fn store(&self, key: &str, outcome: &JobOutcome) {
        let servable = match outcome.verdict {
            Verdict::Proved => outcome.certificate.is_some(),
            Verdict::Falsified => outcome.counterexample.is_some(),
            _ => false,
        };
        if !servable {
            return;
        }
        // Stored entries never carry the served-from-cache flag.
        let mut canonical = outcome.clone();
        canonical.cached = false;
        let text = canonical.to_json_string();
        if let Some(dir) = &self.dir {
            // Write-then-rename so readers never see a torn entry.
            let final_path = dir.join(format!("{key}.json"));
            let tmp_path = dir.join(format!("{key}.tmp"));
            if fs::write(&tmp_path, &text).is_ok() {
                let _ = fs::rename(&tmp_path, &final_path);
            }
        }
        let mut store = self.store.lock().expect("cache lock");
        self.insert_locked(&mut store, key, text);
    }

    /// Inserts under the lock with a fresh recency stamp, then evicts
    /// least-recently-used entries (and their disk files) until both
    /// [`CacheLimits`] hold. The just-inserted entry carries the newest
    /// stamp, so it is evicted only if it alone exceeds the byte budget.
    fn insert_locked(&self, store: &mut Store, key: &str, text: String) {
        store.clock += 1;
        let stamp = store.clock;
        let added = text.len();
        if let Some(previous) = store.entries.insert(key.to_owned(), Entry { text, stamp }) {
            store.bytes -= previous.text.len();
        }
        store.bytes += added;
        while !self.limits.admits(store.entries.len(), store.bytes) {
            let Some(victim) = store
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.stamp)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            self.remove_locked(store, &victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops the entry under `key` from memory and disk, as eviction does.
    /// A lookup calls it on an entry that failed to parse or to
    /// revalidate, so the next lookup of `key` is a plain miss.
    pub(crate) fn remove(&self, key: &str) {
        let mut store = self.store.lock().expect("cache lock");
        self.remove_locked(&mut store, key);
    }

    fn remove_locked(&self, store: &mut Store, key: &str) {
        if let Some(entry) = store.entries.remove(key) {
            store.bytes -= entry.text.len();
        }
        if let Some(dir) = &self.dir {
            let _ = fs::remove_file(dir.join(format!("{key}.json")));
        }
    }

    /// Records a served hit.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a miss (no entry, or entry rejected).
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an entry rejected by revalidation.
    pub fn record_revalidation_failure(&self) {
        self.revalidation_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            revalidation_failures: self.revalidation_failures.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// The configured size bounds.
    pub fn limits(&self) -> CacheLimits {
        self.limits
    }

    /// Number of entries currently held in memory.
    pub fn len(&self) -> usize {
        self.store.lock().expect("cache lock").entries.len()
    }

    /// Total size of the resident entry texts, in bytes.
    pub fn bytes(&self) -> usize {
        self.store.lock().expect("cache lock").bytes
    }

    /// Whether the in-memory cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Job;
    use crate::protocol::{JobRequest, PropertyRequest};
    use ipcl_bmc::{Latency, PropertyKind};
    use ipcl_checker::ProofStrategy;
    use ipcl_core::example::ExampleArch;
    use ipcl_synth::{synthesize_interlock_with, SynthesisOptions};

    fn problem() -> (FunctionalSpec, Netlist, SequentialProperty) {
        let spec = ExampleArch::new().functional_spec();
        let synthesized = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: true,
                ..Default::default()
            },
        );
        let property =
            SequentialProperty::for_stage(&spec, 0, PropertyKind::Functional, Latency::Registered);
        (spec, synthesized.netlist().clone(), property)
    }

    #[test]
    fn key_is_stable_and_property_sensitive() {
        let (spec, netlist, property) = problem();
        let key = cache_key(&spec, &netlist, &property);
        assert_eq!(key, cache_key(&spec, &netlist, &property));
        assert_eq!(key.len(), 64);
        let other =
            SequentialProperty::for_stage(&spec, 0, PropertyKind::Performance, Latency::Registered);
        assert_ne!(key, cache_key(&spec, &netlist, &other));
        let other_latency = SequentialProperty::for_stage(
            &spec,
            0,
            PropertyKind::Functional,
            Latency::Combinational,
        );
        assert_ne!(key, cache_key(&spec, &netlist, &other_latency));

        // A job's key names the quiet-cycle count its strategy decides
        // under: 0 under PDR (`cache_key`'s), one by default under
        // k-induction.
        let job = |strategy| {
            Job::from(JobRequest {
                spec: spec.clone(),
                netlist: netlist.clone(),
                property: PropertyRequest {
                    stage_index: 0,
                    kind: PropertyKind::Functional,
                    latency: Some(Latency::Registered),
                },
                strategy,
                threads: 1,
            })
        };
        assert_eq!(job_key(job(ProofStrategy::Pdr).view(), &property), key);
        assert_ne!(
            job_key(job(ProofStrategy::KInduction).view(), &property),
            key
        );
    }

    #[test]
    fn memoised_keys_and_latencies_match_fresh_ones() {
        let spec = ExampleArch::new().functional_spec();
        for registered_outputs in [false, true] {
            let options = SynthesisOptions {
                registered_outputs,
                ..Default::default()
            };
            let netlist = synthesize_interlock_with(&spec, options).netlist().clone();
            let detected = Latency::detect(&spec, &netlist);
            // One design for every job, so each memo is read warm too.
            let design = Job::from(JobRequest {
                spec: spec.clone(),
                netlist: netlist.clone(),
                property: PropertyRequest {
                    stage_index: 0,
                    kind: PropertyKind::Functional,
                    latency: None,
                },
                strategy: ProofStrategy::Pdr,
                threads: 1,
            });
            for _ in 0..2 {
                for stage_index in 0..spec.stages().len() {
                    for kind in PropertyKind::ALL {
                        for latency in [
                            None,
                            Some(Latency::Combinational),
                            Some(Latency::Registered),
                        ] {
                            let mut job = design.view();
                            job.property = PropertyRequest {
                                stage_index,
                                kind,
                                latency,
                            };
                            let property = job.resolve_property().unwrap();
                            assert_eq!(property.latency, latency.unwrap_or(detected));
                            assert_eq!(
                                job_key(job, &property),
                                cache_key(&spec, &netlist, &property)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn only_definitive_outcomes_are_stored() {
        let cache = ProofCache::new(None);
        // An inconclusive verdict, a proof without a certificate (every
        // k-induction proof) and a falsification without a trace:
        // `revalidate` rejects each, so none may take a slot.
        for verdict in [Verdict::Unknown, Verdict::Proved, Verdict::Falsified] {
            let unservable = JobOutcome {
                property: "p".to_owned(),
                verdict,
                detail: String::new(),
                cached: false,
                certificate: None,
                counterexample: None,
            };
            cache.store("k", &unservable);
            assert!(cache.load("k").is_none(), "{verdict:?}");
            assert!(cache.is_empty(), "{verdict:?}");
        }
    }

    fn falsified(detail: &str) -> JobOutcome {
        JobOutcome {
            property: "p".to_owned(),
            verdict: Verdict::Falsified,
            detail: detail.to_owned(),
            cached: false,
            certificate: None,
            counterexample: Some(ipcl_bmc::Counterexample {
                property: "p".to_owned(),
                violation_frame: 0,
                frames: vec![std::collections::BTreeMap::new()],
            }),
        }
    }

    #[test]
    fn entry_bound_evicts_least_recently_used() {
        let cache = ProofCache::with_limits(
            None,
            CacheLimits {
                max_entries: Some(2),
                max_bytes: None,
            },
        );
        cache.store("a", &falsified("a"));
        cache.store("b", &falsified("b"));
        // Touch `a` so `b` becomes the coldest entry.
        assert!(cache.load("a").is_some());
        cache.store("c", &falsified("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.load("a").is_some());
        assert!(cache.load("b").is_none(), "coldest entry must go");
        assert!(cache.load("c").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn byte_bound_evicts_and_tracks_sizes() {
        let entry_bytes = falsified("x").to_json_string().len();
        let cache = ProofCache::with_limits(
            None,
            CacheLimits {
                max_entries: None,
                max_bytes: Some(2 * entry_bytes),
            },
        );
        cache.store("a", &falsified("x"));
        cache.store("b", &falsified("x"));
        assert_eq!(cache.bytes(), 2 * entry_bytes);
        cache.store("c", &falsified("x"));
        assert_eq!(cache.len(), 2);
        assert!(cache.bytes() <= 2 * entry_bytes);
        assert_eq!(cache.stats().evictions, 1);
        // Re-storing an existing key replaces, not duplicates, its bytes.
        cache.store("c", &falsified("x"));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn eviction_removes_the_disk_file_too() {
        let dir = std::env::temp_dir().join(format!(
            "ipcl-serve-cache-evict-test-{}",
            std::process::id()
        ));
        let cache = ProofCache::with_limits(
            Some(dir.clone()),
            CacheLimits {
                max_entries: Some(1),
                max_bytes: None,
            },
        );
        cache.store("old", &falsified("old"));
        cache.store("new", &falsified("new"));
        assert!(!dir.join("old.json").exists(), "evicted file must be gone");
        assert!(dir.join("new.json").exists());
        // The evicted entry is gone for a fresh cache over the same dir too.
        let reopened = ProofCache::new(Some(dir.clone()));
        assert!(reopened.load("old").is_none());
        assert!(reopened.load("new").is_some());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = ProofCache::new(None);
        for i in 0..100 {
            cache.store(&format!("k{i}"), &falsified("x"));
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn disk_entries_survive_a_fresh_cache() {
        let dir =
            std::env::temp_dir().join(format!("ipcl-serve-cache-test-{}", std::process::id()));
        let cache = ProofCache::new(Some(dir.clone()));
        let outcome = JobOutcome {
            property: "p".to_owned(),
            verdict: Verdict::Falsified,
            detail: "trace_frames=1".to_owned(),
            cached: true, // must be stripped in storage
            certificate: None,
            counterexample: Some(ipcl_bmc::Counterexample {
                property: "p".to_owned(),
                violation_frame: 0,
                frames: vec![std::collections::BTreeMap::new()],
            }),
        };
        cache.store("deadbeef", &outcome);
        let reopened = ProofCache::new(Some(dir.clone()));
        let loaded = reopened.load("deadbeef").expect("persisted entry").unwrap();
        assert_eq!(loaded.verdict, Verdict::Falsified);
        assert!(!loaded.cached);
        let _ = fs::remove_dir_all(dir);
    }
}
