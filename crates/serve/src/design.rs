//! The design table: the server parses each design once.
//!
//! A job carries its whole design, and a client that sends one design
//! with many properties, or resubmits an unchanged design, sends the same
//! design text again and again. The server parses a request line with
//! [`Json::parse_deferring`], which validates a job's `"spec"` and
//! `"netlist"` members without building them, and looks their exact text
//! up in this table. Only a design the table does not hold is built, as
//! [`JobRequest::from_json`] builds it, and interned; a design that fails
//! to parse is not interned, and its error is the one `from_json` reports.
//!
//! The lookup follows the proof cache's rule: a hash of the text decides
//! where to look, and only equal bytes decide a hit. Text that differs in
//! any byte, whitespace or a module name included, is another design, so
//! an edited netlist misses; a miss pays the validating pass, the hash and
//! the copy into the table on top of the parse.
//! Byte-equal text parses to the same design, so a hit changes no answer;
//! a proof-cache hit on an interned design is still revalidated against
//! it.
//!
//! Each interned design memoises what the job path computes from the
//! design alone: [`Latency::detect`] and the structural digest of each
//! property interface the cache keys read. A queued [`Job`] holds an
//! `Arc` of its design, never its own copy or its request text.
//!
//! The table is bounded, with no knob: at most [`MAX_DESIGNS`] designs and
//! [`MAX_DESIGN_BYTES`] of their text, evicted least recently used first.
//! An evicted design lives on in the jobs that hold it. [`DesignStats`]
//! counts the table's hits, misses and evictions for the `stats` reply and
//! the worker heartbeat.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use ipcl_bmc::{Latency, SequentialProperty};
use ipcl_checker::ProofStrategy;
use ipcl_core::FunctionalSpec;
use ipcl_rtl::Netlist;
use ipcl_trace::json::{Json, Step};

use crate::cache::interface_digest;
use crate::protocol::{parse_design, parse_job, JobRequest, PropertyRequest};
use crate::server::MAX_LINE_BYTES;

/// Designs the table holds.
pub const MAX_DESIGNS: usize = 64;

/// Bytes of design text the table holds: the request line cap, so the
/// design of any line fits.
pub const MAX_DESIGN_BYTES: usize = MAX_LINE_BYTES;

/// The members of a `submit` or `submit_batch` request the server parses
/// with the table: each job's spec and netlist.
pub(crate) const DESIGN_MEMBERS: &[&[Step]] = &[
    &[Step::Key("job"), Step::Key("spec")],
    &[Step::Key("job"), Step::Key("netlist")],
    &[Step::Key("jobs"), Step::Each, Step::Key("spec")],
    &[Step::Key("jobs"), Step::Each, Step::Key("netlist")],
];

/// What the job path computes from a design alone.
#[derive(Default)]
pub(crate) struct Memos {
    latency: OnceLock<Latency>,
    /// Structural digests by property interface: the sorted indices of the
    /// property's variables.
    digests: Mutex<HashMap<Vec<usize>, String>>,
}

/// A parsed spec and netlist with their memos.
pub(crate) struct Design {
    spec: FunctionalSpec,
    netlist: Netlist,
    memos: Memos,
}

impl Design {
    fn new(spec: FunctionalSpec, netlist: Netlist) -> Design {
        Design {
            spec,
            netlist,
            memos: Memos::default(),
        }
    }
}

/// A job as the server queues it: its design, shared with the table and
/// every other job of that design, and the job's own fields.
#[derive(Clone)]
pub struct Job {
    design: Arc<Design>,
    property: PropertyRequest,
    strategy: ProofStrategy,
}

impl From<JobRequest> for Job {
    /// A job with a design of its own, outside any table.
    fn from(request: JobRequest) -> Job {
        Job {
            design: Arc::new(Design::new(request.spec, request.netlist)),
            property: request.property,
            strategy: request.strategy,
        }
    }
}

impl Job {
    /// The job, borrowed.
    pub(crate) fn view(&self) -> JobRef<'_> {
        JobRef {
            spec: &self.design.spec,
            netlist: &self.design.netlist,
            memos: &self.design.memos,
            property: self.property,
            strategy: self.strategy,
        }
    }
}

/// A job borrowed for the job path: a queued [`Job`], or a [`JobRequest`]
/// with memos of its own.
#[derive(Clone, Copy)]
pub(crate) struct JobRef<'a> {
    pub(crate) spec: &'a FunctionalSpec,
    pub(crate) netlist: &'a Netlist,
    memos: &'a Memos,
    pub(crate) property: PropertyRequest,
    pub(crate) strategy: ProofStrategy,
}

impl<'a> JobRef<'a> {
    /// `request` with `memos`, which must be memos of its design only.
    pub(crate) fn of(request: &'a JobRequest, memos: &'a Memos) -> JobRef<'a> {
        JobRef {
            spec: &request.spec,
            netlist: &request.netlist,
            memos,
            property: request.property,
            strategy: request.strategy,
        }
    }

    /// [`JobRequest::resolve_property`], with the detected latency
    /// memoised.
    pub(crate) fn resolve_property(&self) -> Result<SequentialProperty, String> {
        self.property.resolve(self.spec, || {
            *self
                .memos
                .latency
                .get_or_init(|| Latency::detect(self.spec, self.netlist))
        })
    }

    /// The structural digest of the netlist pinned on `property`'s
    /// interface, memoised.
    pub(crate) fn digest(&self, property: &SequentialProperty) -> String {
        let interface: Vec<usize> = property.ok.vars().iter().map(|v| v.index()).collect();
        let digests = || self.memos.digests.lock().expect("digest memo lock");
        if let Some(digest) = digests().get(&interface) {
            return digest.clone();
        }
        let digest = interface_digest(self.spec, self.netlist, property);
        digests().insert(interface, digest.clone());
        digest
    }
}

/// Counts of the design table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DesignStats {
    /// Designs held.
    pub entries: u64,
    /// Bytes of design text held.
    pub bytes: u64,
    /// Jobs whose design text the table held.
    pub hits: u64,
    /// Jobs whose design text it did not hold, including those whose
    /// design failed to parse.
    pub misses: u64,
    /// Designs dropped to stay within the caps.
    pub evictions: u64,
}

/// One interned design.
struct Entry {
    hash: u64,
    /// The spec's text, then the netlist's.
    text: Box<str>,
    spec_len: usize,
    design: Arc<Design>,
    stamp: u64,
}

impl Entry {
    fn holds(&self, hash: u64, spec: &str, netlist: &str) -> bool {
        let (own_spec, own_netlist) = self.text.as_bytes().split_at(self.spec_len);
        self.hash == hash && own_spec == spec.as_bytes() && own_netlist == netlist.as_bytes()
    }
}

#[derive(Default)]
struct Table {
    entries: Vec<Entry>,
    bytes: usize,
    clock: u64,
}

impl Table {
    /// The design whose text is `spec` and `netlist`, touched as most
    /// recently used.
    fn find(&mut self, hash: u64, spec: &str, netlist: &str) -> Option<Arc<Design>> {
        self.clock += 1;
        let stamp = self.clock;
        let entry = self
            .entries
            .iter_mut()
            .find(|entry| entry.holds(hash, spec, netlist))?;
        entry.stamp = stamp;
        Some(Arc::clone(&entry.design))
    }
}

/// The server's design table. See the module docs.
#[derive(Default)]
pub struct DesignTable {
    hasher: RandomState,
    table: Mutex<Table>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl DesignTable {
    /// An empty table.
    pub fn new() -> DesignTable {
        DesignTable::default()
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().expect("design table lock")
    }

    /// Parses the `"job"` payload `json` of a request `line` parsed with
    /// [`DESIGN_MEMBERS`] deferred, as [`JobRequest::from_json`] would, with
    /// its design from the table.
    pub(crate) fn job(&self, json: &Json, line: &str) -> Result<Job, String> {
        let (design, fields) = parse_job(json, |spec, netlist| self.intern(spec, netlist, line))?;
        Ok(Job {
            design,
            property: fields.property,
            strategy: fields.strategy,
        })
    }

    /// The design of the members `spec` and `netlist`: the table's when it
    /// holds their text, else parsed and, when both are deferred text of
    /// `line`, interned.
    fn intern(
        &self,
        spec: &Json,
        netlist: Option<&Json>,
        line: &str,
    ) -> Result<Arc<Design>, String> {
        let (Json::Deferred(spec_range), Some(Json::Deferred(netlist_range))) = (spec, netlist)
        else {
            let netlist = netlist.map(|member| tree(member, line)).transpose()?;
            let (spec, netlist) = parse_design(&*tree(spec, line)?, netlist.as_deref())?;
            return Ok(Arc::new(Design::new(spec, netlist)));
        };
        let (spec_text, netlist_text) = (&line[spec_range.clone()], &line[netlist_range.clone()]);
        let hash = self.hasher.hash_one((spec_text, netlist_text));
        if let Some(design) = self.lock().find(hash, spec_text, netlist_text) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(design);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (spec, netlist) =
            parse_design(&Json::parse(spec_text)?, Some(&Json::parse(netlist_text)?))?;
        let mut table = self.lock();
        // Another connection may have interned the same text meanwhile.
        if let Some(design) = table.find(hash, spec_text, netlist_text) {
            return Ok(design);
        }
        let design = Arc::new(Design::new(spec, netlist));
        let mut text = String::with_capacity(spec_text.len() + netlist_text.len());
        text.push_str(spec_text);
        text.push_str(netlist_text);
        table.bytes += text.len();
        let stamp = table.clock;
        table.entries.push(Entry {
            hash,
            text: text.into_boxed_str(),
            spec_len: spec_text.len(),
            design: Arc::clone(&design),
            stamp,
        });
        // The new entry is the last and the most recently used, and no line
        // holds more design text than the byte cap, so it stays.
        while table.entries.len() > MAX_DESIGNS || table.bytes > MAX_DESIGN_BYTES {
            let older = table.entries.len() - 1;
            let Some(victim) = (0..older).min_by_key(|&i| table.entries[i].stamp) else {
                break;
            };
            let evicted = table.entries.remove(victim);
            table.bytes -= evicted.text.len();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(design)
    }

    /// The table's counts.
    pub fn stats(&self) -> DesignStats {
        let (entries, bytes) = {
            let table = self.lock();
            (table.entries.len() as u64, table.bytes as u64)
        };
        DesignStats {
            entries,
            bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// A job member as a tree: deferred text parsed, anything else as it is.
fn tree<'j>(member: &'j Json, line: &str) -> Result<Cow<'j, Json>, String> {
    match member {
        Json::Deferred(range) => Json::parse(&line[range.clone()]).map(Cow::Owned),
        other => Ok(Cow::Borrowed(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_bmc::PropertyKind;
    use ipcl_core::example::ExampleArch;
    use ipcl_synth::synthesize_interlock;

    fn request(module: &str) -> JobRequest {
        let spec = ExampleArch::new().functional_spec();
        let netlist = synthesize_interlock(&spec).netlist().clone();
        let mut text = String::new();
        crate::protocol::write_netlist_json(&mut text, &netlist);
        let renamed = text.replacen(netlist.name(), module, 1);
        let netlist = crate::protocol::parse_netlist(&Json::parse(&renamed).unwrap()).unwrap();
        JobRequest {
            spec,
            netlist,
            property: PropertyRequest {
                stage_index: 0,
                kind: PropertyKind::Functional,
                latency: None,
            },
            strategy: ProofStrategy::Pdr,
            threads: 1,
        }
    }

    /// A `submit` line for `job`, parsed as the server parses it.
    fn parsed(line: &str) -> Json {
        Json::parse_deferring(line, DESIGN_MEMBERS)
            .unwrap()
            .get("job")
            .unwrap()
            .clone()
    }

    fn submit_line(job: &JobRequest) -> String {
        format!("{{\"cmd\": \"submit\", \"job\": {}}}", job.to_json_string())
    }

    #[test]
    fn byte_equal_designs_share_one_parse_and_others_do_not() {
        let table = DesignTable::new();
        let line = submit_line(&request("m"));
        let first = table.job(&parsed(&line), &line).unwrap();
        let again = table.job(&parsed(&line), &line).unwrap();
        assert!(Arc::ptr_eq(&first.design, &again.design));
        // Another property of the design is the same design.
        let other = line.replacen("\"stage_index\": 0", "\"stage_index\": 1", 1);
        let third = table.job(&parsed(&other), &other).unwrap();
        assert!(Arc::ptr_eq(&first.design, &third.design));
        assert_eq!(third.property.stage_index, 1);
        // A module name or one more space is another text: a miss.
        let renamed = submit_line(&request("m2"));
        let spaced = line.replacen("{\"stages\": [", "{\"stages\":  [", 1);
        for line in [renamed, spaced] {
            let job = table.job(&parsed(&line), &line).unwrap();
            assert!(!Arc::ptr_eq(&first.design, &job.design));
        }
        let stats = table.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (3, 2, 3));
        assert_eq!(
            stats.bytes,
            table
                .lock()
                .entries
                .iter()
                .map(|e| e.text.len() as u64)
                .sum()
        );
        // The interned design is the one `from_json` builds.
        let built = JobRequest::from_json(Json::parse(&line).unwrap().get("job").unwrap()).unwrap();
        assert_eq!(first.design.netlist, built.netlist);
        assert_eq!(
            first.view().resolve_property().unwrap().name,
            built.resolve_property().unwrap().name
        );
    }

    #[test]
    fn a_design_that_fails_to_parse_is_not_interned() {
        let table = DesignTable::new();
        let line = submit_line(&request("m"));
        let bad = line.replacen("\"kind\": \"input\"", "\"kind\": \"inptu\"", 1);
        let error = table.job(&parsed(&bad), &bad).err().unwrap();
        let reference = JobRequest::from_json(Json::parse(&bad).unwrap().get("job").unwrap());
        let reference = reference.err().unwrap();
        assert_eq!(error, reference);
        assert!(table.job(&parsed(&bad), &bad).is_err());
        let stats = table.stats();
        assert_eq!((stats.entries, stats.bytes), (0, 0));
        assert_eq!((stats.hits, stats.misses), (0, 2));
    }

    #[test]
    fn the_table_keeps_the_most_recently_used_designs() {
        let table = DesignTable::new();
        let line = |i: usize| submit_line(&request(&format!("m{i}")));
        let oldest = table.job(&parsed(&line(0)), &line(0)).unwrap();
        for i in 1..=MAX_DESIGNS {
            table.job(&parsed(&line(i)), &line(i)).unwrap();
            if i == 1 {
                // Touch design 0, so design 1 is the least recently used.
                table.job(&parsed(&line(0)), &line(0)).unwrap();
            }
        }
        let stats = table.stats();
        assert_eq!(stats.entries, MAX_DESIGNS as u64);
        assert_eq!(stats.evictions, 1);
        assert_eq!((stats.hits, stats.misses), (1, MAX_DESIGNS as u64 + 1));
        let hits = |table: &DesignTable| table.stats().hits;
        table.job(&parsed(&line(0)), &line(0)).unwrap();
        assert_eq!(hits(&table), 2, "design 0 stays");
        table.job(&parsed(&line(1)), &line(1)).unwrap();
        assert_eq!(hits(&table), 2, "design 1 was evicted");
        // An evicted design lives on in the jobs that hold it.
        assert_eq!(oldest.design.netlist.name(), "m0");
    }
}
