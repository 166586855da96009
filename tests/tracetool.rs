//! Integration tests of the trace-analytics layer (ISSUE 7): export,
//! diff, and live-progress heartbeats, driven by real engine runs.
//!
//! The acceptance criteria exercised here:
//!
//! * the Chrome Trace Event export of a real traced portfolio run is
//!   valid JSON in which every `B` has a matching `E` on the same thread
//!   (well-nested, verified with an independent stack machine);
//! * the folded-stack export's totals equal the span profile's totals;
//! * `ProfileDiff` on two real deep-chain-16 PDR profiles attributes
//!   ≥ 95% of the wall-clock delta to span paths and ranks the grown
//!   path first;
//! * the engines emit rate-limited `heartbeat` events when event
//!   recording is on — and **zero** when it is off.

use std::collections::BTreeMap;

use ipcl::pdr::deep::deep_pipeline;
use ipcl::pdr::{
    check_property_pdr_traced, check_property_portfolio_traced, PdrOptions, PortfolioWinner,
};
use ipcl::trace::{report, TraceConfig, TraceSnapshot, Tracer, Value};
use ipcl::tracetool::json::Json;
use ipcl::tracetool::{chrome_trace, folded_stacks, ProfileDiff, ProfileDoc};
use ipcl_bmc::{BmcOptions, Latency, PropertyKind, SequentialProperty};

/// One traced deep-chain-16 portfolio run.
fn traced_portfolio_snapshot() -> TraceSnapshot {
    let (spec, netlist) = deep_pipeline(16);
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Performance, Latency::Combinational);
    let tracer = Tracer::new(TraceConfig::enabled());
    let result = check_property_portfolio_traced(
        &spec,
        &netlist,
        &property,
        &BmcOptions::with_depth(13),
        &PdrOptions::default(),
        &tracer,
    )
    .expect("netlist elaborates");
    assert_eq!(result.winner, Some(PortfolioWinner::Pdr));
    tracer.snapshot().expect("enabled tracer yields a snapshot")
}

/// One PDR deep-chain-16 profile; `runs` checks recorded under one tracer
/// (so a doubled workload is a *real* — not fabricated — regression).
fn pdr_profile(runs: usize) -> ProfileDoc {
    let (spec, netlist) = deep_pipeline(16);
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Performance, Latency::Combinational);
    let tracer = Tracer::new(TraceConfig::enabled());
    for _ in 0..runs {
        let result = check_property_pdr_traced(
            &spec,
            &netlist,
            &property,
            &PdrOptions::default(),
            None,
            &tracer,
        )
        .expect("netlist elaborates");
        assert!(result.outcome.is_proved());
    }
    let snapshot = tracer.snapshot().expect("snapshot");
    // Exercise the same path the CLI takes: snapshot → profile.json text
    // → parsed document.
    ProfileDoc::parse(&report::profile_json(&snapshot)).expect("profile.json parses")
}

#[test]
fn chrome_export_of_a_real_portfolio_run_is_well_paired() {
    let snapshot = traced_portfolio_snapshot();
    let text = chrome_trace(&snapshot.events).expect("the event stream is balanced");
    let doc = Json::parse(&text).expect("the export is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("a traceEvents array");
    assert!(!events.is_empty());

    // Independent check of the exporter's guarantee: replay every B/E in
    // file order per tid and demand LIFO pairing by name.
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut durations = 0usize;
    for event in events {
        let tid = event.get("tid").and_then(Json::as_u64).expect("tid");
        let name = event.get("name").and_then(Json::as_str).expect("name");
        let ts = event.get("ts").and_then(Json::as_u64);
        assert!(ts.is_some(), "every event carries a µs timestamp");
        match event.get("ph").and_then(Json::as_str).expect("ph") {
            "B" => {
                stacks.entry(tid).or_default().push(name.to_owned());
                durations += 1;
            }
            "E" => {
                let top = stacks
                    .get_mut(&tid)
                    .and_then(Vec::pop)
                    .expect("E without an open B");
                assert_eq!(top, name, "E must close the innermost B of its thread");
            }
            "i" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(durations > 0, "the run produced span events");
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "thread {tid} left spans open: {stack:?}");
    }

    // The portfolio race produces the engine spans on at least three
    // threads (caller + two racers).
    assert!(stacks.len() >= 3, "threads seen: {:?}", stacks.keys());
}

#[test]
fn folded_stack_totals_equal_the_profile_totals() {
    let snapshot = traced_portfolio_snapshot();
    let folded = folded_stacks(&snapshot);
    let parse_line = |line: &str| -> (String, u64) {
        let (path, us) = line.rsplit_once(' ').expect("`path us` lines");
        (path.to_owned(), us.parse().expect("integer self time"))
    };

    // Per-line: each folded entry is exactly the profile's self time.
    for line in folded.lines() {
        let (path_text, self_us) = parse_line(line);
        let path: Vec<String> = path_text.split(';').map(str::to_owned).collect();
        assert_eq!(self_us, snapshot.self_us(&path), "at {path_text}");
        assert!(self_us > 0, "zero-self paths are skipped");
    }

    // Re-accumulated: the lines under each root sum to that root span's
    // total, and the grand total is the root-span total.
    for root in snapshot.spans.iter().filter(|s| s.path.len() == 1) {
        let accumulated: u64 = folded
            .lines()
            .map(parse_line)
            .filter(|(path, _)| {
                path == &root.path[0] || path.starts_with(&format!("{};", root.path[0]))
            })
            .map(|(_, us)| us)
            .sum();
        assert_eq!(accumulated, root.total_us, "under root {:?}", root.path);
    }
    let grand_total: u64 = folded.lines().map(|l| parse_line(l).1).sum();
    assert_eq!(grand_total, snapshot.root_span_us());
}

#[test]
fn diff_of_two_real_pdr_profiles_attributes_the_wall_delta() {
    // A deep-chain-16 proof takes a few milliseconds, so one proof against
    // two hides inside host jitter; ten against twenty is the doubling.
    // The host's speed also drifts by up to 1.5x in phases of about a
    // second, so a single 10-proof window and the 20-proof window after it
    // can land in different phases. Each side is the quickest of five
    // windows, taken alternately so both sample the same phases: noise
    // only adds time, so the minimum is the cleanest estimate (as in E12).
    let (mut before, mut after) = (pdr_profile(10), pdr_profile(20));
    for _ in 0..4 {
        let again = pdr_profile(10);
        if again.wall_us < before.wall_us {
            before = again;
        }
        let again = pdr_profile(20);
        if again.wall_us < after.wall_us {
            after = again;
        }
    }
    let diff = ProfileDiff::compute(&before, &after);

    assert!(
        diff.wall_delta_us > 0,
        "doubling the workload must cost wall-clock"
    );
    // Acceptance: ≥ 95% of the wall-clock delta lands on span paths. (The
    // ratio can exceed 1 slightly when the before run had more
    // out-of-span time than the after run.)
    assert!(
        diff.attributed >= 0.95 && diff.attributed <= 1.10,
        "attributed {:.3} of the wall delta",
        diff.attributed
    );
    // The regressed path is ranked first and is the PDR engine.
    assert_eq!(diff.spans[0].path[0], "pdr.check", "ranked: {:?}", {
        diff.spans
            .iter()
            .map(|s| s.path.join("/"))
            .take(3)
            .collect::<Vec<_>>()
    });
    let root = diff
        .spans
        .iter()
        .find(|s| s.path == ["pdr.check"])
        .expect("the engine root aligns");
    assert_eq!(root.count_before, 10);
    assert_eq!(root.count_after, 20);
    // A 50%-growth gate with a 1 ms floor catches it.
    let regressions = diff.regressions(0.5, 1_000);
    assert!(
        regressions.iter().any(|s| s.path[0] == "pdr.check"),
        "regression gate must flag the doubled engine"
    );
    // The unified metrics double along with the work.
    let obligations = diff
        .counters
        .iter()
        .find(|m| m.name == "pdr.obligations")
        .expect("counter aligned");
    assert!(obligations.after > obligations.before);
}

#[test]
fn heartbeats_flow_when_events_are_on_and_never_otherwise() {
    let (spec, netlist) = deep_pipeline(16);
    let property =
        SequentialProperty::for_stage(&spec, 0, PropertyKind::Performance, Latency::Combinational);

    // Events on: the PDR and SAT engines beat at least once (the first
    // heartbeat of a run is always due), carrying their progress fields.
    let tracer = Tracer::new(TraceConfig::enabled());
    let result = check_property_pdr_traced(
        &spec,
        &netlist,
        &property,
        &PdrOptions::default(),
        None,
        &tracer,
    )
    .expect("netlist elaborates");
    assert!(result.outcome.is_proved());
    let snapshot = tracer.snapshot().expect("snapshot");
    let engines: std::collections::BTreeSet<&str> = snapshot
        .events
        .iter()
        .filter(|e| e.kind == "heartbeat")
        .filter_map(|e| match e.field("engine") {
            Some(Value::Str(s)) => Some(s.as_ref()),
            _ => None,
        })
        .collect();
    assert!(
        engines.contains("pdr") && engines.contains("sat"),
        "heartbeating engines: {engines:?}"
    );
    let beat = snapshot
        .events
        .iter()
        .find(|e| e.kind == "heartbeat" && e.field("engine") == Some(&Value::from("pdr")))
        .expect("a PDR heartbeat");
    assert!(beat.field("frame").is_some() && beat.field("queue").is_some());
    // And the watch renderer turns them into a progress line.
    let line = ipcl::tracetool::progress_line(&snapshot.events).expect("heartbeats render");
    assert!(line.contains("pdr"), "{line}");

    // Events off (profile-only tracing): zero heartbeat events, same run.
    let quiet = Tracer::new(TraceConfig {
        events: false,
        ..TraceConfig::enabled()
    });
    let result = check_property_pdr_traced(
        &spec,
        &netlist,
        &property,
        &PdrOptions::default(),
        None,
        &quiet,
    )
    .expect("netlist elaborates");
    assert!(result.outcome.is_proved());
    let snapshot = quiet.snapshot().expect("snapshot");
    assert_eq!(
        snapshot.events.len(),
        0,
        "no events may be recorded with events off"
    );
    assert_eq!(ipcl::tracetool::progress_line(&snapshot.events), None);
}
