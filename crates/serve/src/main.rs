//! `ipcl-serve` — the verification service binary.
//!
//! ```text
//! ipcl-serve serve   [--addr 127.0.0.1:7171] [--workers N]
//!                    [--cache-dir DIR] [--cache-max-entries N]
//!                    [--cache-max-bytes N] [--trace]
//! ipcl-serve submit  --addr HOST:PORT --file JOB.json [--no-wait]
//! ipcl-serve status  --addr HOST:PORT --id N
//! ipcl-serve smoke-check [--cache-dir DIR]
//! ```
//!
//! `serve` runs until a client sends `{"cmd": "shutdown"}` (or the process
//! is killed). `submit` reads a job JSON file (the `"job"` payload format —
//! see `ipcl_serve::protocol`), submits it and by default waits for the
//! result. `smoke-check` is the self-contained end-to-end check CI runs:
//! in-process server, a miss/hit pair, a falsified answer whose trace it
//! replays, a batch, whole-answer comparison against direct checker
//! invocations, the job table's counts and release of delivered jobs, the
//! design table's hits and misses (a design is keyed by its bytes, so a
//! copy under another module name is a design miss but a proof-cache hit),
//! graceful shutdown; exits non-zero on any mismatch.

use std::sync::atomic::AtomicBool;
use std::time::Duration;

use ipcl_bmc::PropertyKind;
use ipcl_checker::ProofStrategy;
use ipcl_core::example::ExampleArch;
use ipcl_pipesim::BrokenVariant;
use ipcl_serve::cache::ProofCache;
use ipcl_serve::protocol::{parse_netlist, write_netlist_json};
use ipcl_serve::{process_job, Client, JobRequest, PropertyRequest, Server, ServerConfig, Verdict};
use ipcl_synth::{synthesize_broken_interlock, synthesize_interlock_with, SynthesisOptions};
use ipcl_trace::json::Json;
use ipcl_trace::{TraceConfig, Tracer};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("smoke-check") => cmd_smoke_check(&args[1..]),
        _ => {
            eprintln!("usage: ipcl-serve <serve|submit|status|smoke-check> [options]");
            2
        }
    };
    std::process::exit(code);
}

fn take_option(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn cmd_serve(args: &[String]) -> i32 {
    let config = ServerConfig {
        addr: take_option(args, "--addr").unwrap_or_else(|| "127.0.0.1:7171".to_owned()),
        workers: take_option(args, "--workers")
            .and_then(|w| w.parse().ok())
            .unwrap_or(2),
        cache_dir: take_option(args, "--cache-dir").map(Into::into),
        cache_limits: ipcl_serve::cache::CacheLimits {
            max_entries: take_option(args, "--cache-max-entries").and_then(|n| n.parse().ok()),
            max_bytes: take_option(args, "--cache-max-bytes").and_then(|n| n.parse().ok()),
        },
    };
    let tracer = if has_flag(args, "--trace") {
        Tracer::new(TraceConfig::enabled())
    } else {
        Tracer::disabled()
    };
    let server = match Server::start(config, tracer) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("ipcl-serve: bind failed: {e}");
            return 1;
        }
    };
    println!("ipcl-serve: listening on {}", server.local_addr());
    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("ipcl-serve: shutdown requested, draining");
    server.shutdown();
    0
}

fn cmd_submit(args: &[String]) -> i32 {
    let Some(addr) = take_option(args, "--addr") else {
        eprintln!("ipcl-serve submit: --addr is required");
        return 2;
    };
    let Some(file) = take_option(args, "--file") else {
        eprintln!("ipcl-serve submit: --file is required");
        return 2;
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("ipcl-serve submit: read {file}: {e}");
            return 1;
        }
    };
    let job = match Json::parse(&text)
        .map_err(|e| e.to_string())
        .and_then(|json| JobRequest::from_json(&json))
    {
        Ok(job) => job,
        Err(e) => {
            eprintln!("ipcl-serve submit: bad job file: {e}");
            return 1;
        }
    };
    let result = (|| -> Result<i32, String> {
        let mut client = Client::connect(&addr)?;
        let id = client.submit(&job)?;
        println!("submitted job {id}");
        if has_flag(args, "--no-wait") {
            return Ok(0);
        }
        let outcome = client.wait(id)?;
        println!("{}", outcome.to_json_string());
        Ok(match outcome.verdict {
            Verdict::Proved | Verdict::Falsified => 0,
            _ => 1,
        })
    })();
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ipcl-serve submit: {e}");
            1
        }
    }
}

fn cmd_status(args: &[String]) -> i32 {
    let Some(addr) = take_option(args, "--addr") else {
        eprintln!("ipcl-serve status: --addr is required");
        return 2;
    };
    let Some(id) = take_option(args, "--id").and_then(|id| id.parse::<u64>().ok()) else {
        eprintln!("ipcl-serve status: --id N is required");
        return 2;
    };
    match Client::connect(&addr).and_then(|mut client| client.status(id)) {
        Ok((state, outcome)) => {
            match outcome {
                Some(outcome) => println!("{state}: {}", outcome.to_json_string()),
                None => println!("{state}"),
            }
            0
        }
        Err(e) => {
            eprintln!("ipcl-serve status: {e}");
            1
        }
    }
}

/// The CI smoke check: everything in-process, nothing trusted.
fn cmd_smoke_check(args: &[String]) -> i32 {
    let spec = ExampleArch::new().functional_spec();
    let correct = synthesize_interlock_with(
        &spec,
        SynthesisOptions {
            registered_outputs: true,
            reset_value: true,
            ..Default::default()
        },
    )
    .netlist()
    .clone();
    let broken = synthesize_broken_interlock(&spec, BrokenVariant::IgnoreScoreboard)
        .netlist()
        .clone();

    let job = |netlist: &ipcl_rtl::Netlist, stage_index: usize, kind: PropertyKind| JobRequest {
        spec: spec.clone(),
        netlist: netlist.clone(),
        property: PropertyRequest {
            stage_index,
            kind,
            latency: None,
        },
        // Deterministic engine so served payloads are bit-comparable
        // against direct invocations.
        strategy: ProofStrategy::Pdr,
        threads: 1,
    };

    // Direct (serverless) reference runs with the same options.
    let reference = |j: &JobRequest| {
        let cache = ProofCache::new(None);
        process_job(j, &AtomicBool::new(false), &cache, &Tracer::disabled())
    };

    let mut failures = 0u32;
    let mut check = |what: &str, ok: bool| {
        if ok {
            println!("ok   {what}");
        } else {
            eprintln!("FAIL {what}");
            failures += 1;
        }
    };

    let config = ServerConfig {
        cache_dir: take_option(args, "--cache-dir").map(Into::into),
        ..ServerConfig::default()
    };
    let server = match Server::start(config, Tracer::disabled()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("smoke-check: server start failed: {e}");
            return 1;
        }
    };
    let addr = server.local_addr().to_string();

    let result = (|| -> Result<(), String> {
        let mut client = Client::connect(&addr)?;

        // Miss/hit pair on a proved property: verdict and certificate must
        // match the direct checker bit for bit; the second ask must be a
        // cache hit serving the identical payload.
        let proved_job = job(&correct, 0, PropertyKind::Functional);
        let direct = reference(&proved_job);
        let cold_id = client.submit(&proved_job)?;
        let cold = client.wait(cold_id)?;
        let warm_id = client.submit(&proved_job)?;
        let warm = client.wait(warm_id)?;
        check(
            "cold verdict matches direct checker",
            cold.verdict == direct.verdict && cold.verdict == Verdict::Proved,
        );
        check("cold run is not served from cache", !cold.cached);
        check(
            "cold certificate is bit-identical to direct checker",
            cold.certificate.as_ref().map(|c| c.to_json_string())
                == direct.certificate.as_ref().map(|c| c.to_json_string()),
        );
        check("warm run is served from cache", warm.cached);
        let mut warm_as_cold = warm.clone();
        warm_as_cold.cached = false;
        check(
            "warm payload is bit-identical to the cold result",
            warm_as_cold.to_json_string() == cold.to_json_string(),
        );

        // Falsified property: trace must match and replay.
        let mut falsified_stage = None;
        for stage_index in 0..spec.stages().len() {
            let candidate = job(&broken, stage_index, PropertyKind::Functional);
            if reference(&candidate).verdict == Verdict::Falsified {
                falsified_stage = Some(stage_index);
                break;
            }
        }
        let stage_index = falsified_stage.ok_or("no falsifiable stage in broken variant")?;
        let falsified_job = job(&broken, stage_index, PropertyKind::Functional);
        let direct_falsified = reference(&falsified_job);
        let falsified_id = client.submit(&falsified_job)?;
        let served_falsified = client.wait(falsified_id)?;
        check(
            "falsified verdict matches direct checker",
            served_falsified.verdict == Verdict::Falsified,
        );
        check(
            "falsified trace is bit-identical to direct checker",
            served_falsified
                .counterexample
                .as_ref()
                .map(|c| c.to_json_string())
                == direct_falsified
                    .counterexample
                    .as_ref()
                    .map(|c| c.to_json_string()),
        );
        let property = falsified_job.resolve_property()?;
        check(
            "falsified trace replays through the simulator",
            served_falsified.counterexample.as_ref().is_some_and(|cex| {
                cex.replay(&spec, &broken, &property)
                    .is_ok_and(|replay| replay.violation_reproduced)
            }),
        );

        // Batch: mixed jobs over both designs; each answer must equal the
        // direct run's (the cached flag aside), and the two jobs already
        // asked above must be answered from the cache at submit.
        let batch: Vec<JobRequest> = (0..spec.stages().len())
            .map(|i| job(&broken, i, PropertyKind::Functional))
            .chain([job(&correct, 0, PropertyKind::Functional)])
            .collect();
        let (ids, presolved) = client.submit_batch(&batch)?;
        check("batch answers one id per job", ids.len() == batch.len());
        check("batch serves cached jobs at submit", presolved > 0);
        for (j, id) in batch.iter().zip(&ids) {
            let mut served = client.wait(*id)?;
            served.cached = false;
            check(
                "batch answer is bit-identical to direct checker",
                served.to_json_string() == reference(j).to_json_string(),
            );
        }

        // Bounded job table: every job sent is done, no delivered job's
        // record is kept, and a delivered id answers "expired".
        let sent = 3 + batch.len() as u64;
        let stats = client.stats()?;
        check(
            "stats counts every job sent as done",
            stats.get("done").and_then(Json::as_u64) == Some(sent),
        );
        check(
            "the job table retains no delivered job",
            stats.get("retained").and_then(Json::as_u64) == Some(0),
        );
        check(
            "a second wait on a delivered id answers expired",
            client.wait(cold_id).err() == Some(format!("job {cold_id} expired")),
        );

        // Design table: the correct and the broken design were each parsed
        // once, and every later submission found its design's text.
        let designs = |stats: &Json| {
            let count = |field| stats.get(field).and_then(Json::as_u64);
            (count("design_misses"), count("design_hits"))
        };
        check(
            "the design table parses each design once and reuses it after",
            designs(&stats) == (Some(2), Some(sent - 2)),
        );

        // The same design under another module name is other bytes, so a
        // design miss; the structural digest ignores module names, so its
        // answer is a proof-cache hit, and it equals its own direct check.
        let mut text = String::new();
        write_netlist_json(&mut text, &correct);
        let renamed = text.replacen(correct.name(), "smoke_renamed", 1);
        let renamed = parse_netlist(&Json::parse(&renamed).map_err(|e| e.to_string())?)?;
        let renamed_job = job(&renamed, 0, PropertyKind::Functional);
        let renamed_id = client.submit(&renamed_job)?;
        let mut served = client.wait(renamed_id)?;
        check(
            "a renamed copy of a design is a design miss",
            designs(&client.stats()?) == (Some(3), Some(sent - 2)),
        );
        check(
            "a renamed copy of a design is a proof-cache hit",
            served.cached,
        );
        served.cached = false;
        check(
            "a renamed copy's answer is bit-identical to its direct check",
            served.to_json_string() == reference(&renamed_job).to_json_string(),
        );

        // Graceful shutdown: acknowledged, then the server drains.
        client.shutdown()?;
        Ok(())
    })();
    if let Err(e) = result {
        eprintln!("FAIL smoke-check aborted: {e}");
        failures += 1;
    }
    server.shutdown();
    println!(
        "smoke-check: {}",
        if failures == 0 {
            "all checks passed".to_owned()
        } else {
            format!("{failures} checks FAILED")
        }
    );
    if failures == 0 {
        0
    } else {
        1
    }
}
