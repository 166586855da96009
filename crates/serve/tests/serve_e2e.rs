//! End-to-end service tests over real TCP: certificates served from the
//! cache must re-validate against the submitted payload, falsification
//! hits must replay through the simulator, the cache must survive a server
//! restart, a rejected entry must be revalidated once and then replaced,
//! a batch must answer like its jobs sent alone, portfolio jobs
//! (the wire default) must answer like a direct check,
//! cancellation/stats/shutdown must behave, a delivered job's id must
//! answer "expired", request lines must survive read timeouts but not grow
//! without bound, and cut or bit-flipped request lines must get
//! well-formed replies.

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
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

#[test]
fn cut_and_bit_flipped_submit_lines_get_well_formed_replies() {
    let server = Server::start(ServerConfig::default(), Tracer::disabled()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // A reply that takes longer than this is a hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let line = format!(
        "{{\"cmd\": \"submit\", \"job\": {}}}",
        correct_job(0).to_json_string()
    );
    // Sends one request line; the reply must be one JSON line, either
    // `{"ok": false, "error": …}` or a submit's `{"ok": true, "id": N}`.
    let mut ask = |request: &[u8]| -> bool {
        let shown = String::from_utf8_lossy(request);
        stream.write_all(&[request, b"\n"].concat()).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("a reply, not a hang");
        assert!(reply.ends_with('\n'), "no reply line to {shown}");
        let reply = Json::parse(reply.trim()).expect("the reply is JSON");
        let ok = reply
            .get("ok")
            .and_then(Json::as_bool)
            .expect("an 'ok' field");
        if ok {
            assert!(
                reply.get("id").and_then(Json::as_u64).is_some(),
                "{reply:?}"
            );
        } else {
            assert!(
                reply.get("error").and_then(Json::as_str).is_some(),
                "{reply:?}"
            );
        }
        ok
    };

    // Every cut short of the whole line is refused; the whole line is not.
    for end in 1..line.len() {
        assert!(!ask(&line.as_bytes()[..end]), "cut at byte {end}");
    }
    assert!(ask(line.as_bytes()));

    // One to three flipped bits per line: errors, or jobs that still parse.
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut accepted = 0;
    for _ in 0..400 {
        let mut bytes = line.clone().into_bytes();
        for _ in 0..rng.random_range(1..=3) {
            let at = rng.random_range(0..bytes.len());
            let flipped = bytes[at] ^ (1u8 << rng.random_range(0..8u32));
            // A newline would split the request in two.
            if flipped != b'\n' {
                bytes[at] = flipped;
            }
        }
        accepted += usize::from(ask(&bytes));
    }
    assert!(accepted < 400, "the flips reach the error replies");
    server.shutdown();
}
