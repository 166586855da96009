//! End-to-end service tests over real TCP: certificates served from the
//! cache must re-validate against the submitted payload, falsification
//! hits must replay through the simulator, the cache must survive a server
//! restart, cancellation/stats/shutdown must behave, and request lines
//! must survive read timeouts but not grow without bound.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

use ipcl_bmc::PropertyKind;
use ipcl_checker::ProofStrategy;
use ipcl_core::example::ExampleArch;
use ipcl_pipesim::BrokenVariant;
use ipcl_serve::{
    process_job, Client, JobRequest, ProofCache, PropertyRequest, Server, ServerConfig, Verdict,
    MAX_LINE_BYTES,
};
use ipcl_synth::{synthesize_broken_interlock, synthesize_interlock_with, SynthesisOptions};
use ipcl_trace::Tracer;
use ipcl_tracetool::json::Json;

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
    ] {
        assert!(
            stats.get(field).and_then(Json::as_u64).is_some(),
            "stats misses '{field}'"
        );
    }
    server.shutdown();
}

#[test]
fn malformed_requests_get_json_errors_not_disconnects() {
    let server = Server::start(ServerConfig::default(), Tracer::disabled()).expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    assert!(client.request("not json at all").is_err());
    assert!(client.request("{\"cmd\": \"frobnicate\"}").is_err());
    assert!(client.request("{\"no_cmd\": 1}").is_err());
    // The connection survives all three: a well-formed request still works.
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
