//! End-to-end service tests over real TCP: certificates served from the
//! cache must re-validate against the submitted payload, falsification
//! hits must replay through the simulator, the cache must survive a server
//! restart, a rejected entry must be revalidated once and then replaced,
//! a batch must answer like its jobs sent alone, a job must never be
//! served the answer of a strategy that decides another form of its
//! property, portfolio jobs
//! (the wire default) must answer like a direct check,
//! cancellation/stats/shutdown must behave, a delivered job's id must
//! answer "expired", request lines must survive read timeouts but not grow
//! without bound, and hostile request lines must get well-formed replies
//! (`wire_differential.rs` holds cut and mutated lines to the replies of
//! the reference parse).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

use ipcl_bmc::PropertyKind;
use ipcl_checker::{check_property_job, ProofStrategy};
use ipcl_core::example::ExampleArch;
use ipcl_pdr::deep::deep_pipeline;
use ipcl_pipesim::BrokenVariant;
use ipcl_serve::{
    cache_key, process_job, Client, JobOutcome, JobRequest, ProofCache, PropertyRequest, Server,
    ServerConfig, Verdict, MAX_LINE_BYTES,
};
use ipcl_synth::{synthesize_broken_interlock, synthesize_interlock_with, SynthesisOptions};
use ipcl_trace::json::Json;
use ipcl_trace::Tracer;

fn correct_job(stage_index: usize) -> JobRequest {
    let spec = ExampleArch::new().functional_spec();
    let netlist = synthesize_interlock_with(
        &spec,
        SynthesisOptions {
            registered_outputs: true,
            reset_value: true,
            ..Default::default()
        },
    )
    .netlist()
    .clone();
    JobRequest {
        spec,
        netlist,
        property: PropertyRequest {
            stage_index,
            kind: PropertyKind::Functional,
            latency: None,
        },
        strategy: ProofStrategy::Pdr,
        threads: 1,
    }
}

fn broken_job(stage_index: usize) -> JobRequest {
    let spec = ExampleArch::new().functional_spec();
    let netlist = synthesize_broken_interlock(&spec, BrokenVariant::IgnoreScoreboard)
        .netlist()
        .clone();
    JobRequest {
        spec,
        netlist,
        property: PropertyRequest {
            stage_index,
            kind: PropertyKind::Functional,
            latency: None,
        },
        strategy: ProofStrategy::Pdr,
        threads: 1,
    }
}

fn temp_cache_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipcl-serve-e2e-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn served_hit_certificate_revalidates_and_survives_restart() {
    let cache_dir = temp_cache_dir("restart");
    let job = correct_job(0);

    // First server instance: solve cold, then hit.
    let server = Server::start(
        ServerConfig {
            cache_dir: Some(cache_dir.clone()),
            ..ServerConfig::default()
        },
        Tracer::disabled(),
    )
    .expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let cold_id = client.submit(&job).expect("submit");
    let cold = client.wait(cold_id).expect("wait");
    assert_eq!(cold.verdict, Verdict::Proved);
    assert!(!cold.cached);
    server.shutdown();

    // Second server instance on the same cache directory: the very first
    // ask must be a disk hit, and the served certificate must still pass
    // the independent checker against the payload we submitted.
    let server = Server::start(
        ServerConfig {
            cache_dir: Some(cache_dir.clone()),
            ..ServerConfig::default()
        },
        Tracer::disabled(),
    )
    .expect("rebind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("reconnect");
    let warm_id = client.submit(&job).expect("submit");
    let warm = client.wait(warm_id).expect("wait");
    assert_eq!(warm.verdict, Verdict::Proved);
    assert!(warm.cached, "fresh server, persisted cache: must hit");
    let property = job.resolve_property().expect("stage resolves");
    let check = warm
        .certificate
        .as_ref()
        .expect("proved outcomes carry their certificate")
        .validate(&job.spec, &job.netlist, &property)
        .expect("validation runs");
    assert!(check.ok(), "served certificate fails independent checking");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn served_falsification_hit_replays_through_the_simulator() {
    let server = Server::start(ServerConfig::default(), Tracer::disabled()).expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");

    // Find a falsifiable stage, solve it cold, then hit it warm.
    let mut served = None;
    for stage_index in 0..ExampleArch::new().functional_spec().stages().len() {
        let job = broken_job(stage_index);
        let cold_id = client.submit(&job).expect("submit");
        let cold = client.wait(cold_id).expect("wait");
        if cold.verdict == Verdict::Falsified {
            let warm_id = client.submit(&job).expect("submit");
            let warm = client.wait(warm_id).expect("wait");
            served = Some((job, warm));
            break;
        }
    }
    let (job, warm) = served.expect("IgnoreScoreboard must falsify some stage");
    assert_eq!(warm.verdict, Verdict::Falsified);
    assert!(warm.cached, "second ask must hit");
    let property = job.resolve_property().expect("stage resolves");
    let replay = warm
        .counterexample
        .as_ref()
        .expect("falsified outcomes carry their trace")
        .replay(&job.spec, &job.netlist, &property)
        .expect("replay runs");
    assert!(
        replay.violation_reproduced,
        "served trace does not reproduce the violation"
    );
    server.shutdown();
}

#[test]
fn a_batch_answers_like_its_jobs_alone_and_serves_its_hits_at_submit() {
    let server = Server::start(ServerConfig::default(), Tracer::disabled()).expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");

    // Every stage of the broken design, one correct job and one job whose
    // stage index is out of range.
    let stages = ExampleArch::new().functional_spec().stages().len();
    let batch: Vec<JobRequest> = (0..stages)
        .map(broken_job)
        .chain([correct_job(0), broken_job(stages)])
        .collect();
    let alone: Vec<String> = batch
        .iter()
        .map(|job| {
            let cache = ProofCache::new(None);
            process_job(job, &AtomicBool::new(false), &cache, &Tracer::disabled()).to_json_string()
        })
        .collect();

    let (ids, presolved) = client.submit_batch(&batch).expect("cold batch");
    assert_eq!(presolved, 0, "a fresh server has nothing cached");
    let cold: Vec<JobOutcome> = ids
        .iter()
        .map(|&id| client.wait(id).expect("wait"))
        .collect();
    for (served, expected) in cold.iter().zip(&alone) {
        assert_eq!(&served.to_json_string(), expected);
    }
    assert_eq!(cold[stages + 1].verdict, Verdict::Error);

    // Asked again, every servable answer comes from the cache at submit.
    let servable =
        |outcome: &JobOutcome| outcome.certificate.is_some() || outcome.counterexample.is_some();
    let (ids, presolved) = client.submit_batch(&batch).expect("warm batch");
    assert_eq!(
        presolved,
        cold.iter().filter(|o| servable(o)).count() as u64
    );
    for ((&id, first), expected) in ids.iter().zip(&cold).zip(&alone) {
        let mut warm = client.wait(id).expect("wait");
        assert_eq!(warm.cached, servable(first), "{}", first.property);
        warm.cached = false;
        assert_eq!(&warm.to_json_string(), expected);
    }
    server.shutdown();
}

#[test]
fn a_rejected_cache_entry_is_revalidated_once() {
    // Plant, under a correct PDR job's key, the falsification of the same
    // property on the broken design: its trace does not replay on the
    // correct netlist, so revalidation rejects it.
    let stages = ExampleArch::new().functional_spec().stages().len();
    let (job, planted) = (0..stages)
        .find_map(|stage| {
            let cache = ProofCache::new(None);
            let broken = process_job(
                &broken_job(stage),
                &AtomicBool::new(false),
                &cache,
                &Tracer::disabled(),
            );
            (broken.verdict == Verdict::Falsified).then(|| (correct_job(stage), broken))
        })
        .expect("IgnoreScoreboard must falsify some stage");
    let property = job.resolve_property().expect("stage resolves");
    let cache_dir = temp_cache_dir("rejected");
    let key = cache_key(&job.spec, &job.netlist, &property);
    ProofCache::new(Some(cache_dir.clone())).store(&key, &planted);
    let fresh = {
        let cache = ProofCache::new(None);
        process_job(&job, &AtomicBool::new(false), &cache, &Tracer::disabled())
    };
    assert_eq!(fresh.verdict, Verdict::Proved);

    let server = Server::start(
        ServerConfig {
            cache_dir: Some(cache_dir.clone()),
            ..ServerConfig::default()
        },
        Tracer::disabled(),
    )
    .expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let batch = [job];
    let (ids, presolved) = client.submit_batch(&batch).expect("batch");
    assert_eq!(presolved, 0, "the planted entry is not served");
    let answer = client.wait(ids[0]).expect("wait");
    assert_eq!(answer.to_json_string(), fresh.to_json_string());
    let count = |client: &mut Client, field: &str| {
        client
            .stats()
            .expect("stats")
            .get(field)
            .and_then(Json::as_u64)
    };
    assert_eq!(count(&mut client, "revalidation_failures"), Some(1));
    assert_eq!(count(&mut client, "cache_misses"), Some(1));

    // The fresh proof took the planted entry's slot.
    let (ids, presolved) = client.submit_batch(&batch).expect("batch again");
    assert_eq!(presolved, 1);
    assert!(client.wait(ids[0]).expect("wait").cached);
    assert_eq!(count(&mut client, "revalidation_failures"), Some(1));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// The outcome of `job` checked directly, without a server or a cache.
fn direct_outcome(job: &JobRequest) -> JobOutcome {
    let property = job.resolve_property().expect("stage resolves");
    let (result, certificate) = check_property_job(
        &job.spec,
        &job.netlist,
        &property,
        &job.options(),
        None,
        &Tracer::disabled(),
    )
    .expect("the netlist elaborates");
    JobOutcome::from_result(&result, certificate, false)
}

/// One job per property of the paper example with `BadResetValues {
/// cycles: 1 }`, under `strategy`.
fn bad_reset_jobs(strategy: ProofStrategy) -> Vec<JobRequest> {
    let spec = ExampleArch::new().functional_spec();
    let netlist = synthesize_broken_interlock(&spec, BrokenVariant::BadResetValues { cycles: 1 })
        .netlist()
        .clone();
    let stages = spec.stages().len();
    [PropertyKind::Functional, PropertyKind::Performance]
        .into_iter()
        .flat_map(|kind| (0..stages).map(move |stage_index| (kind, stage_index)))
        .map(|(kind, stage_index)| JobRequest {
            spec: spec.clone(),
            netlist: netlist.clone(),
            property: PropertyRequest {
                stage_index,
                kind,
                latency: None,
            },
            strategy,
            threads: 1,
        })
        .collect()
}

/// `outcome` as the engine's answer, without the cache flag.
fn as_fresh(outcome: &JobOutcome) -> String {
    JobOutcome {
        cached: false,
        ..outcome.clone()
    }
    .to_json_string()
}

#[test]
fn a_job_is_never_served_an_answer_its_strategy_contradicts() {
    // k-induction decides a property's quiet-reset form (one quiet cycle),
    // PDR its unconditional form. On this design the two differ on four
    // properties: k-induction proves them at k = 1, PDR falsifies them. One
    // cache sees every PDR job first, then every k-induction job, one by
    // one and then as batches; every answer must be the job's direct one.
    let pdr = bad_reset_jobs(ProofStrategy::Pdr);
    let kinduction = bad_reset_jobs(ProofStrategy::KInduction);
    let direct = |jobs: &[JobRequest]| -> Vec<String> {
        jobs.iter()
            .map(|job| as_fresh(&direct_outcome(job)))
            .collect()
    };
    let (pdr_direct, kinduction_direct) = (direct(&pdr), direct(&kinduction));
    let disagreements = pdr
        .iter()
        .zip(&kinduction)
        .filter(|(p, k)| direct_outcome(p).verdict != direct_outcome(k).verdict)
        .count();
    assert_eq!(disagreements, 4, "the strategies differ on four properties");

    let cache = ProofCache::new(None);
    for (jobs, expected) in [(&pdr, &pdr_direct), (&kinduction, &kinduction_direct)] {
        for (job, expected) in jobs.iter().zip(expected) {
            let served = process_job(job, &AtomicBool::new(false), &cache, &Tracer::disabled());
            let property = &served.property;
            assert_eq!(
                &as_fresh(&served),
                expected,
                "{:?} {property}",
                job.strategy
            );
        }
    }

    let server = Server::start(ServerConfig::default(), Tracer::disabled()).expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    for (jobs, expected) in [(&pdr, &pdr_direct), (&kinduction, &kinduction_direct)] {
        let (ids, _) = client.submit_batch(jobs).expect("batch");
        for (id, expected) in ids.into_iter().zip(expected) {
            let served = client.wait(id).expect("wait");
            assert_eq!(&as_fresh(&served), expected, "{}", served.property);
        }
    }
    server.shutdown();
}

#[test]
fn portfolio_jobs_answer_like_a_direct_check() {
    let server = Server::start(ServerConfig::default(), Tracer::disabled()).expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");

    // A request without a strategy field is a portfolio job. k-induction
    // proves this property, so no certificate comes back.
    let paper = JobRequest {
        strategy: ProofStrategy::Portfolio,
        ..correct_job(0)
    };
    let line = format!(
        "{{\"cmd\": \"submit\", \"job\": {}}}",
        paper.to_json_string()
    );
    let defaulted = line.replace("\"strategy\": \"portfolio\", ", "");
    assert_ne!(defaulted, line, "the strategy field was dropped");
    let id = client.request(&defaulted).expect("submit");
    let id = id.get("id").and_then(Json::as_u64).expect("an id");
    let served = client.wait(id).expect("wait");
    let direct = direct_outcome(&paper);
    assert_eq!(served.verdict, Verdict::Proved);
    assert_eq!(
        (served.verdict, &served.detail),
        (direct.verdict, &direct.detail)
    );
    assert!(served.certificate.is_none() && direct.certificate.is_none());

    // k-induction cannot prove the deep chain, so PDR does, with a
    // certificate.
    let (spec, netlist) = deep_pipeline(12);
    let deep = JobRequest {
        spec,
        netlist,
        property: PropertyRequest {
            stage_index: 0,
            kind: PropertyKind::Performance,
            latency: None,
        },
        strategy: ProofStrategy::Portfolio,
        threads: 1,
    };
    let id = client.submit(&deep).expect("submit");
    let served = client.wait(id).expect("wait");
    let direct = direct_outcome(&deep);
    assert_eq!(served.verdict, Verdict::Proved);
    assert!(!served.cached);
    assert_eq!(
        (served.verdict, &served.detail),
        (direct.verdict, &direct.detail)
    );
    let render = |outcome: &JobOutcome| outcome.certificate.as_ref().map(|c| c.render());
    assert!(render(&served).is_some(), "PDR proofs ship a certificate");
    assert_eq!(render(&served), render(&direct));

    // Asked again, the proof comes from the cache and still validates.
    let id = client.submit(&deep).expect("submit");
    let warm = client.wait(id).expect("wait");
    assert!(warm.cached, "second ask must hit");
    let property = deep.resolve_property().expect("stage resolves");
    let check = warm
        .certificate
        .as_ref()
        .expect("the cached proof keeps its certificate")
        .validate(&deep.spec, &deep.netlist, &property)
        .expect("validation runs");
    assert!(check.ok(), "{check}");
    server.shutdown();
}

#[test]
fn a_huge_thread_count_answers_like_one_thread() {
    let server = Server::start(ServerConfig::default(), Tracer::disabled()).expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let huge = JobRequest {
        threads: 1_000_000,
        ..correct_job(0)
    };
    let id = client.submit(&huge).expect("submit");
    let outcome = client.wait(id).expect("wait");
    assert!(!outcome.cached, "a fresh server solves");
    let single = process_job(
        &correct_job(0),
        &AtomicBool::new(false),
        &ProofCache::new(None),
        &Tracer::disabled(),
    );
    assert_eq!(outcome.verdict, single.verdict);
    assert_eq!(outcome.verdict, Verdict::Proved);
    server.shutdown();
}

#[test]
fn cancel_stats_and_unknown_ids_behave_over_the_wire() {
    let server = Server::start(ServerConfig::default(), Tracer::disabled()).expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");

    // Unknown ids are errors, not hangs.
    assert!(client.wait(999).is_err());
    assert!(client.status(999).is_err());

    // A canceled job reports the canceled verdict (it may also finish
    // first on a fast machine — both are legal — but the RPC must accept).
    let id = client.submit(&correct_job(0)).expect("submit");
    let _ = client.cancel(id).expect("cancel rpc");
    let outcome = client.wait(id).expect("wait");
    assert!(
        matches!(outcome.verdict, Verdict::Canceled | Verdict::Proved),
        "canceled-or-completed, got {:?}",
        outcome.verdict
    );

    let stats = client.stats().expect("stats");
    for field in [
        "queued",
        "running",
        "done",
        "cache_hits",
        "cache_misses",
        "revalidation_failures",
        "cache_entries",
        "retained",
        "design_entries",
        "design_bytes",
        "design_hits",
        "design_misses",
        "design_evictions",
    ] {
        assert!(
            stats.get(field).and_then(Json::as_u64).is_some(),
            "stats misses '{field}'"
        );
    }
    server.shutdown();
}

#[test]
fn a_delivered_job_is_released_and_its_id_answers_expired() {
    let server = Server::start(ServerConfig::default(), Tracer::disabled()).expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let id = client.submit(&correct_job(0)).expect("submit");
    // `status` only peeks: a finished job answers it as often as asked.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while client.status(id).expect("status").0 != "done" {
        assert!(
            std::time::Instant::now() < deadline,
            "job {id} never finished"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let (_, peeked) = client.status(id).expect("a second peek");
    let outcome = client.wait(id).expect("wait");
    assert_eq!(outcome.verdict, Verdict::Proved);
    assert_eq!(
        peeked.expect("a result").to_json_string(),
        outcome.to_json_string()
    );

    // The outcome was delivered, so the record is gone.
    let expired = format!("job {id} expired");
    assert_eq!(client.wait(id).unwrap_err(), expired);
    assert_eq!(client.status(id).unwrap_err(), expired);
    assert!(!client.cancel(id).expect("cancel rpc"));
    // An id the server never issued keeps its own answer.
    assert_eq!(
        client.wait(id + 1).unwrap_err(),
        "unknown job id (or server shut down mid-job)"
    );
    assert_eq!(client.status(id + 1).unwrap_err(), "unknown job id");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("done").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("retained").and_then(Json::as_u64), Some(0));
    server.shutdown();
}

#[test]
fn malformed_requests_get_json_errors_not_disconnects() {
    let server = Server::start(ServerConfig::default(), Tracer::disabled()).expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    assert!(client.request("not json at all").is_err());
    assert!(client.request("{\"cmd\": \"frobnicate\"}").is_err());
    assert!(client.request("{\"no_cmd\": 1}").is_err());
    let nested = client
        .request(&"[".repeat(100_000))
        .expect_err("a nesting flood is refused");
    assert!(nested.contains("nesting"), "{nested}");
    // The connection survives all four: a well-formed request still works.
    let stats = client
        .stats()
        .expect("connection must survive bad requests");
    assert!(stats.get("done").is_some());
    server.shutdown();
}

#[test]
fn a_stage_number_beyond_u32_is_refused() {
    let server = Server::start(ServerConfig::default(), Tracer::disabled()).expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let job = correct_job(0).to_json_string();
    assert!(job.contains("\"stage\": 4,"), "{job}");
    // 2^32 + 4 would wrap to stage 4 if it were cast to 32 bits.
    let wrapped = job.replacen("\"stage\": 4,", "\"stage\": 4294967300,", 1);
    let error = client
        .request(&format!("{{\"cmd\": \"submit\", \"job\": {wrapped}}}"))
        .expect_err("an out-of-range stage number is refused");
    assert!(error.contains("'stage'"), "{error}");
    let id = client
        .request(&format!("{{\"cmd\": \"submit\", \"job\": {job}}}"))
        .expect("the job as written is accepted");
    assert!(id.get("id").is_some());
    server.shutdown();
}

/// Reads one response line from a raw connection.
fn read_response(stream: &TcpStream) -> Json {
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("response line");
    Json::parse(line.trim()).expect("response is JSON")
}

#[test]
fn a_request_split_across_a_read_timeout_is_answered_like_a_whole_one() {
    let server = Server::start(ServerConfig::default(), Tracer::disabled()).expect("bind");
    let addr = server.local_addr();
    // The request names a character that needs two bytes in UTF-8; the
    // pause falls between them, and lasts longer than the server's read
    // timeout.
    let request = "{\"cmd\": \"stats\", \"note\": \"é\"}\n".as_bytes();
    let split = request
        .iter()
        .position(|&b| b >= 0x80)
        .expect("a multi-byte char")
        + 1;

    let mut whole = TcpStream::connect(addr).expect("connect");
    whole.write_all(request).expect("write");
    let expected = read_response(&whole);
    assert!(expected.get("done").is_some(), "{expected:?}");

    let mut pieces = TcpStream::connect(addr).expect("connect");
    pieces.write_all(&request[..split]).expect("write head");
    pieces.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(600));
    pieces.write_all(&request[split..]).expect("write tail");
    assert_eq!(read_response(&pieces), expected);
    server.shutdown();
}

#[test]
fn an_over_long_line_gets_an_error_and_the_server_keeps_serving() {
    let server = Server::start(ServerConfig::default(), Tracer::disabled()).expect("bind");
    let addr = server.local_addr();
    let mut flood = TcpStream::connect(addr).expect("connect");
    // One byte past the limit, no newline: the server reads all of it,
    // answers and closes.
    flood
        .write_all(&vec![b' '; MAX_LINE_BYTES + 1])
        .expect("write");
    let reply = read_response(&flood);
    let error = reply.get("error").and_then(Json::as_str).expect("error");
    assert!(error.contains("longer than"), "{error}");

    let mut client = Client::connect(&addr.to_string()).expect("reconnect");
    let stats = client.stats().expect("a new connection is served");
    assert!(stats.get("done").is_some());
    server.shutdown();
}

/// `job` with its first rule condition replaced by `condition`.
fn with_first_condition(job: &str, condition: &str) -> String {
    let key = "\"condition\": \"";
    let start = job.find(key).expect("a rule") + key.len();
    let end = start + job[start..].find('"').expect("closing quote");
    format!("{}{condition}{}", &job[..start], &job[end..])
}

#[test]
fn hostile_submit_lines_get_errors_and_the_connection_keeps_serving() {
    let server = Server::start(ServerConfig::default(), Tracer::disabled()).expect("bind");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    // A reply that takes longer than this is a hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let job = correct_job(0).to_json_string();
    let next = job.find("\"next\": ").expect("a register") + "\"next\": ".len();
    let next_end = next + job[next..].find('}').expect("end of the register");
    // Each line, and a piece of the error it must get.
    let cases = [
        (
            with_first_condition(
                &job,
                &format!("{}a{}", "(".repeat(100_000), ")".repeat(100_000)),
            ),
            "deeper than 64 levels",
        ),
        (
            with_first_condition(&job, &format!("a{}", " <-> a".repeat(199_999))),
            "deeper than 64 levels",
        ),
        (
            with_first_condition(&job, &format!("{}a", "!".repeat(100_000))),
            "deeper than 64 levels",
        ),
        (
            job.replacen("\"args\": [", "\"args\": [18446744073709551615, ", 1),
            "forward gate reference to index 18446744073709551615",
        ),
        (
            format!("{}99999999{}", &job[..next], &job[next_end..]),
            "next index out of range",
        ),
        (
            job.replacen("\"outputs\": [", "\"outputs\": [99999999, ", 1),
            "output index 99999999 out of range",
        ),
        (
            job.replacen("\"stage_index\": 0", "\"stage_index\": 1e300", 1),
            "'stage_index' is not a non-negative integer",
        ),
    ];
    let mut writer = stream.try_clone().expect("clone");
    for (payload, expected) in cases {
        assert_ne!(payload, job, "the edit for '{expected}' applies");
        let line = format!("{{\"cmd\": \"submit\", \"job\": {payload}}}\n");
        writer.write_all(line.as_bytes()).expect("send");
        let reply = read_response(&stream);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(false),
            "{reply:?}"
        );
        let error = reply.get("error").and_then(Json::as_str).expect("error");
        assert!(error.contains(expected), "{error}");
        writer.write_all(b"{\"cmd\": \"stats\"}\n").expect("send");
        let stats = read_response(&stream);
        assert!(stats.get("done").is_some(), "after '{expected}': {stats:?}");
    }
    server.shutdown();
}
