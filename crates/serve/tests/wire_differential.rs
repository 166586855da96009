//! The design table changes no reply. Each line of a corpus — every
//! preset's `submit` line, the paper example's registered PDR `submit`
//! line and a `submit_batch` line cut at every byte, seeded bit flips and
//! proptest-mutated lines, duplicate and lookalike design members,
//! `\u`-escaped names and keys, and nesting at the cap inside a design —
//! gets the same reply, job ids aside, from a server whose design table
//! already holds the line's designs as from one that has never seen them.
//! Every error reply is the one the reference route gives: `Json::parse`,
//! then `JobRequest::from_json` on each job, which is how the server
//! parsed a request before it had a design table, and each accepted bit
//! flip's answer is a direct check's of the job that route parses. The
//! reference route is kept here only.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

use ipcl_bmc::PropertyKind;
use ipcl_checker::ProofStrategy;
use ipcl_core::example::ExampleArch;
use ipcl_core::ArchSpec;
use ipcl_serve::{
    process_job, CacheLimits, JobRequest, ProofCache, PropertyRequest, Server, ServerConfig,
};
use ipcl_synth::{synthesize_interlock, synthesize_interlock_with, SynthesisOptions};
use ipcl_trace::json::{write_json_string, Json};
use ipcl_trace::Tracer;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the reference route makes of `line`: the reply, job ids left out,
/// to an accepted request, or the error it answers. No job is ever answered
/// from the proof cache (see [`Wire::start`]).
fn reference(line: &[u8]) -> Result<String, String> {
    let text = std::str::from_utf8(line).map_err(|e| format!("bad request: {e}"))?;
    let request = Json::parse(text.trim()).map_err(|e| format!("bad request: {e}"))?;
    match request.get("cmd").and_then(Json::as_str) {
        Some("submit") => {
            JobRequest::from_json(request.get("job").ok_or("submit misses 'job'")?)?;
            Ok("accepted 1 job".to_owned())
        }
        Some("submit_batch") => {
            let jobs = request
                .get("jobs")
                .and_then(Json::as_array)
                .ok_or("submit_batch misses 'jobs'")?;
            for (i, job) in jobs.iter().enumerate() {
                JobRequest::from_json(job).map_err(|message| format!("job {i}: {message}"))?;
            }
            Ok(format!("accepted {} jobs, 0 presolved", jobs.len()))
        }
        Some(other) => Err(format!("unknown cmd '{other}'")),
        None => Err("request misses 'cmd'".to_owned()),
    }
}

/// A reply as the servers must agree on it: an error reply's exact text,
/// or an accepted request without its job ids.
fn without_ids(reply: &str) -> String {
    let json = Json::parse(reply).expect("the reply is JSON");
    if json.get("ok").and_then(Json::as_bool) != Some(true) {
        return reply.to_owned();
    }
    if json.get("id").and_then(Json::as_u64).is_some() {
        return "accepted 1 job".to_owned();
    }
    let ids = json.get("ids").and_then(Json::as_array).expect("ids");
    assert!(ids.iter().all(|id| id.as_u64().is_some()), "{reply}");
    let presolved = json.get("presolved").and_then(Json::as_u64);
    format!(
        "accepted {} jobs, {} presolved",
        ids.len(),
        presolved.expect("presolved")
    )
}

/// A server and one connection to it.
struct Wire {
    server: Server,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// The id of the last job a `submit` line put in.
    last_id: Option<u64>,
}

impl Wire {
    /// A server whose proof cache keeps no entry, so a batch's `presolved`
    /// count does not depend on which jobs the workers finished first.
    fn start() -> Wire {
        let config = ServerConfig {
            cache_limits: CacheLimits {
                max_entries: Some(0),
                max_bytes: None,
            },
            ..ServerConfig::default()
        };
        let server = Server::start(config, Tracer::disabled()).expect("bind");
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        // A reply that takes longer than this is a hang.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Wire {
            server,
            stream,
            reader,
            last_id: None,
        }
    }

    /// Sends `line` and returns the reply line.
    fn ask(&mut self, line: &[u8]) -> String {
        self.stream
            .write_all(&[line, b"\n"].concat())
            .expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("a reply");
        assert!(reply.ends_with('\n'), "no reply line");
        let reply = reply.trim_end().to_owned();
        if let Some(id) = Json::parse(&reply).ok().and_then(|r| r.get("id")?.as_u64()) {
            self.last_id = Some(id);
        }
        reply
    }

    /// Waits for the last job a `submit` line put in, and returns the
    /// reply.
    fn wait_last(&mut self) -> String {
        let id = self.last_id.take().expect("a submitted job");
        self.ask(format!("{{\"cmd\": \"wait\", \"id\": {id}}}").as_bytes())
    }
}

/// The `wait` reply a server must give to the `submit` line `line`: the
/// outcome of a direct check of the job the reference route parses.
fn direct_answer(line: &[u8]) -> String {
    let text = std::str::from_utf8(line).expect("an accepted line");
    let request = Json::parse(text.trim()).expect("an accepted line");
    let job = JobRequest::from_json(request.get("job").expect("a job")).expect("a job");
    let outcome = process_job(
        &job,
        &AtomicBool::new(false),
        &ProofCache::new(None),
        &Tracer::disabled(),
    );
    format!("{{\"ok\": true, \"result\": {}}}", outcome.to_json_string())
}

/// The reply the reference route gives `line`, job ids left out, and
/// whether it accepts the line.
fn expected(line: &[u8]) -> (String, bool) {
    match reference(line) {
        Ok(reply) => (reply, true),
        Err(error) => {
            let mut reply = String::from("{\"ok\": false, \"error\": ");
            write_json_string(&mut reply, &error);
            reply.push('}');
            (reply, false)
        }
    }
}

/// Asks `wire` for `line` and holds the reply to the reference route's;
/// answers whether the line was accepted.
fn answers_like_the_reference(wire: &mut Wire, line: &[u8]) -> bool {
    let (expected, accepted) = expected(line);
    let shown = String::from_utf8_lossy(line);
    assert_eq!(without_ids(&wire.ask(line)), expected, "{shown}");
    accepted
}

/// Asks both servers for `line` and holds both replies to the reference
/// route's; answers whether the line was accepted.
fn agree(warm: &mut Wire, cold: &mut Wire, line: &[u8]) -> bool {
    answers_like_the_reference(cold, line);
    answers_like_the_reference(warm, line)
}

/// The k-induction job on `stage_index`'s functional property of the
/// correct interlock of `arch`: a zero-step proof, so an accepted line
/// costs the workers little, and never a cache entry.
fn job(arch: &ArchSpec, stage_index: usize) -> JobRequest {
    let spec = arch.functional_spec().expect("a preset spec");
    let netlist = synthesize_interlock(&spec).netlist().clone();
    JobRequest {
        spec,
        netlist,
        property: PropertyRequest {
            stage_index,
            kind: PropertyKind::Functional,
            latency: None,
        },
        strategy: ProofStrategy::KInduction,
        threads: 1,
    }
}

/// The PDR job on stage 0's functional property of the paper example's
/// interlock with registered outputs that reset to true: its netlist has
/// register entries (`"init"`, `"next"`), and an accepted mutation of it
/// runs PDR in the workers.
fn registered_job() -> JobRequest {
    let spec = ExampleArch::new().functional_spec();
    let options = SynthesisOptions {
        registered_outputs: true,
        reset_value: true,
        ..Default::default()
    };
    let netlist = synthesize_interlock_with(&spec, options).netlist().clone();
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

fn submit(job: &str) -> String {
    format!("{{\"cmd\": \"submit\", \"job\": {job}}}")
}

/// `text` with `from` replaced once by `to`; the edit must apply.
fn edit(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "{from}");
    text.replacen(from, to, 1)
}

/// `job`'s text with `levels` nested arrays in its spec, and in its
/// netlist.
fn nested(job: &str, levels: usize) -> [String; 2] {
    let deep = format!("{}{}", "[".repeat(levels), "]".repeat(levels));
    [
        edit(
            job,
            "{\"stages\": ",
            &format!("{{\"deep\": {deep}, \"stages\": "),
        ),
        edit(
            job,
            "\"signals\": ",
            &format!("\"deep\": {deep}, \"signals\": "),
        ),
    ]
}

/// The lines the tests start from.
struct Corpus {
    /// The paper example's k-induction job on stage 0.
    paper: String,
    /// Its `submit` line.
    line: String,
    /// [`registered_job`]'s `submit` line.
    registered: String,
    /// A `submit_batch` line of two paper-example jobs.
    batch: String,
    /// Every line above, and a `submit` line of each other preset.
    lines: Vec<String>,
}

fn corpus() -> Corpus {
    let paper = job(&ArchSpec::paper_example(), 0).to_json_string();
    let second = job(&ArchSpec::paper_example(), 1).to_json_string();
    let line = submit(&paper);
    let registered = submit(&registered_job().to_json_string());
    let batch = format!("{{\"cmd\": \"submit_batch\", \"jobs\": [{paper}, {second}]}}");
    let mut lines = vec![line.clone(), registered.clone(), batch.clone()];
    for arch in [ArchSpec::firepath_like(), ArchSpec::synthetic(3, 4)] {
        lines.push(submit(&job(&arch, 0).to_json_string()));
    }
    Corpus {
        paper,
        line,
        registered,
        batch,
        lines,
    }
}

/// A server whose design table holds every design of `lines`: the paper
/// example's two interlocks and the other presets' one each.
fn warm(lines: &[String]) -> Wire {
    let mut wire = Wire::start();
    for line in lines {
        assert!(answers_like_the_reference(&mut wire, line.as_bytes()));
    }
    assert_eq!(wire.server.designs().stats().entries, 4);
    wire
}

#[test]
fn every_cut_of_a_submit_or_batch_line_gets_the_reference_reply() {
    let lines = corpus().lines;
    let mut wire = warm(&lines);
    // Every cut short of a whole line is refused; the whole line is not.
    for line in &lines {
        for end in 1..=line.len() {
            let accepted = answers_like_the_reference(&mut wire, &line.as_bytes()[..end]);
            assert_eq!(accepted, end == line.len(), "cut at byte {end}");
        }
    }
    wire.server.shutdown();
}

#[test]
fn a_warm_design_table_answers_mutated_and_lookalike_lines_like_a_cold_one() {
    let Corpus {
        paper,
        line,
        registered,
        batch,
        lines: starts,
    } = corpus();
    let mut warm = warm(&starts);
    let mut cold = Wire::start();
    let seen = warm.server.designs().stats();

    // One to three flipped bits per line of the registered PDR job:
    // errors, or jobs that still parse. Each accepted job's answer, which
    // the workers decide with PDR, is the direct check's.
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut accepted = 0;
    for _ in 0..400 {
        let mut bytes = registered.clone().into_bytes();
        for _ in 0..rng.random_range(1..=3) {
            let at = rng.random_range(0..bytes.len());
            let flipped = bytes[at] ^ (1u8 << rng.random_range(0..8u32));
            // A newline would split the request in two.
            if flipped != b'\n' {
                bytes[at] = flipped;
            }
        }
        if agree(&mut warm, &mut cold, &bytes) {
            accepted += 1;
            let answer = direct_answer(&bytes);
            for wire in [&mut warm, &mut cold] {
                assert_eq!(
                    wire.wait_last(),
                    answer,
                    "{}",
                    String::from_utf8_lossy(&bytes)
                );
            }
        }
    }
    assert!(0 < accepted && accepted < 400, "{accepted} flips accepted");

    // Proptest-drawn edits: a JSON-significant byte put in, a short run
    // dropped, or a short run repeated, one to three times per line.
    let alphabet = b"{}[],:\"\\ 0123456789-.eEtfnu";
    let edits = proptest::collection::vec((0u8..3, any::<u32>(), 1usize..16), 1..4);
    let mut rng = TestRng::deterministic("wire_differential::proptest_edits");
    for case in 0..400 {
        let mut bytes = match case % 4 {
            1 => &registered,
            3 => &batch,
            _ => &line,
        }
        .clone()
        .into_bytes();
        for (kind, at, len) in edits.generate(&mut rng) {
            let at = at as usize % bytes.len();
            let end = (at + len).min(bytes.len());
            match kind {
                0 => bytes[at] = alphabet[len % alphabet.len()],
                1 if end - at < bytes.len() => drop(bytes.drain(at..end)),
                _ => {
                    let run = bytes[at..end].to_vec();
                    bytes.splice(at..at, run);
                }
            }
        }
        agree(&mut warm, &mut cold, &bytes);
    }

    // Lines that reach each branch of the job parse.
    let spec_at = paper.find("{\"stages\"").expect("a spec");
    let spec = &paper[spec_at..paper.find(", \"netlist\": ").expect("a netlist")];
    let mut lines: Vec<String> = vec![
        // Duplicate design members: the first is the one used.
        submit(&edit(
            &paper,
            ", \"netlist\": ",
            ", \"spec\": {\"stages\": 1}, \"netlist\": ",
        )),
        submit(&edit(
            &paper,
            "{\"spec\": ",
            "{\"spec\": {\"stages\": 1}, \"spec\": ",
        )),
        submit(&edit(
            &paper,
            ", \"property\": ",
            ", \"netlist\": [], \"property\": ",
        )),
        submit(&edit(
            &paper,
            ", \"netlist\": ",
            ", \"netlist\": {\"signals\": 2}, \"netlist\": ",
        )),
        format!("{{\"cmd\": \"submit\", \"job\": {paper}, \"job\": {{\"spec\": 1}}}}"),
        format!("{{\"cmd\": \"submit\", \"job\": {{\"spec\": 1}}, \"job\": {paper}}}"),
        // A spec inside the property is no design member.
        submit(&edit(
            &paper,
            "\"property\": {",
            &format!("\"property\": {{\"spec\": {spec}, "),
        )),
        submit(&edit(
            &edit(&paper, "{\"spec\": ", "{\"specs\": "),
            "\"property\": {",
            &format!("\"property\": {{\"spec\": {spec}, "),
        )),
        // Escaped names and keys, and other whitespace: the same design
        // from other bytes.
        submit(&edit(&paper, "\"name\": \"", "\"name\": \"\\u0078")),
        submit(&edit(&paper, "\"pipe\": \"", "\"pipe\": \"\\u00e9")),
        submit(&edit(&paper, "{\"spec\": ", "{\"\\u0073pec\": ")),
        submit(&edit(&paper, "\"netlist\": ", "\"n\\u0065tlist\": ")),
        submit(&edit(&paper, "{\"spec\": ", "{\"spec\":\t \r ")),
        edit(&line, "\"submit\"", "\"\\u0073ubmit\""),
        // Missing and misplaced members, in the order they are reported.
        submit(&edit(&paper, "{\"stages\": [", "{\"stages\": [7, ")),
        submit(&format!(
            "{{\"spec\": {spec}, \"property\": {{\"stage_index\": 0, \"kind\": \"functional\"}}}}"
        )),
        submit(r#"{"spec": {"stages": [7]}, "property": {"stage_index": 0}}"#),
        format!("{{\"cmd\": \"submit\", \"job\": [{paper}]}}"),
        format!("{{\"cmd\": \"submit_batch\", \"jobs\": {{\"spec\": {spec}}}}}"),
        format!("{{\"cmd\": \"submit_batch\", \"jobs\": [{paper}, {{\"spec\": {spec}}}]}}"),
        format!("{{\"cmd\": \"submit_batch\", \"jobs\": [{paper}, [{paper}]]}}"),
    ];
    // Nesting at the cap inside a design: the root, `job` and the spec or
    // netlist object are three levels, a batch's `jobs` one more.
    for levels in [60, 61, 62] {
        lines.extend(nested(&paper, levels).map(|job| submit(&job)));
        lines.extend(
            nested(&paper, levels - 1)
                .map(|job| format!("{{\"cmd\": \"submit_batch\", \"jobs\": [{job}]}}")),
        );
    }
    let mut accepted = 0;
    for line in &lines {
        // Each line twice: the second time a design that parses is in both
        // tables.
        for _ in 0..2 {
            accepted += usize::from(agree(&mut warm, &mut cold, line.as_bytes()));
        }
    }
    assert!(accepted > 0 && accepted < 2 * lines.len(), "{accepted}");

    let (warm_stats, cold_stats) = (warm.server.designs().stats(), cold.server.designs().stats());
    assert!(warm_stats.hits > seen.hits, "{warm_stats:?}");
    assert!(cold_stats.hits > 0, "{cold_stats:?}");
    for wire in [warm, cold] {
        wire.server.shutdown();
    }
}
