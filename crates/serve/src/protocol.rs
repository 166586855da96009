//! The line-delimited JSON wire protocol of the verification service.
//!
//! Every request and response is one JSON object on one line. A job ships
//! the *whole problem* — functional specification, netlist and a property
//! selector — so the server is stateless across connections and the result
//! cache can key on the problem's structure alone:
//!
//! ```json
//! {"cmd": "submit", "job": {
//!    "spec": {"stages": [{"pipe": "long", "stage": 4,
//!                          "rules": [{"label": "bus", "condition": "c.gnt"}]}]},
//!    "netlist": {"name": "m",
//!                "signals": [{"name": "a", "kind": "input"}, ...],
//!                "outputs": [3]},
//!    "property": {"stage_index": 0, "kind": "performance", "latency": "auto"},
//!    "strategy": "portfolio", "threads": 1}}
//! ```
//!
//! Stall-rule conditions travel as text in the `ipcl-expr` surface syntax
//! (the printed form round-trips through `parse_expr`); netlist signals
//! travel in declaration order and reference each other by index, which the
//! builder API reproduces exactly — including the auto-suffixing of
//! duplicate names, since serialised names are already unique.
//!
//! The same module holds the storage format of the proof cache: a
//! [`JobOutcome`] embeds the certificate / counterexample JSON emitted by
//! [`Certificate::to_json_string`] and
//! [`ipcl_bmc::Counterexample::to_json_string`], and [`JobOutcome::from_json`]
//! is the matching parser.

use std::collections::BTreeMap;

use ipcl_bmc::{BmcOutcome, BmcResult, Counterexample, Latency, PropertyKind, SequentialProperty};
use ipcl_checker::{ProofStrategy, SequentialOptions};
use ipcl_core::model::StageRef;
use ipcl_core::{FunctionalSpec, FunctionalSpecBuilder};
use ipcl_pdr::{Certificate, StateLiteral};
use ipcl_rtl::{Gate, Netlist, SignalId, SignalKind};
use ipcl_tracetool::json::{write_json_string, Json};

/// Which property of the specification a job asks about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PropertyRequest {
    /// Index into [`FunctionalSpec::stages`].
    pub stage_index: usize,
    /// Spec direction.
    pub kind: PropertyKind,
    /// Sampling discipline; `None` auto-detects from the netlist
    /// ([`Latency::detect`]).
    pub latency: Option<Latency>,
}

/// One verification job: the complete problem plus engine knobs.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// The functional specification.
    pub spec: FunctionalSpec,
    /// The implementation under check.
    pub netlist: Netlist,
    /// Which property to decide.
    pub property: PropertyRequest,
    /// Proof engine. Note that only [`ProofStrategy::Pdr`] yields
    /// certificates that are deterministic across submissions (a
    /// portfolio race's winner is timing-dependent).
    pub strategy: ProofStrategy,
    /// Ignored, like [`SequentialOptions::threads`]; kept on the wire and
    /// in the struct for clients that set it.
    pub threads: usize,
}

impl JobRequest {
    /// Resolves the property selector against the spec and netlist.
    ///
    /// # Errors
    ///
    /// When the stage index is out of range.
    pub fn resolve_property(&self) -> Result<SequentialProperty, String> {
        if self.property.stage_index >= self.spec.stages().len() {
            return Err(format!(
                "stage_index {} out of range ({} stages)",
                self.property.stage_index,
                self.spec.stages().len()
            ));
        }
        let latency = self
            .property
            .latency
            .unwrap_or_else(|| Latency::detect(&self.spec, &self.netlist));
        Ok(SequentialProperty::for_stage(
            &self.spec,
            self.property.stage_index,
            self.property.kind,
            latency,
        ))
    }

    /// The checker options implied by the job's engine knobs.
    pub fn options(&self) -> SequentialOptions {
        SequentialOptions {
            strategy: self.strategy,
            ..Default::default()
        }
    }

    /// Serialises the job as one JSON object (the `"job"` payload of a
    /// `submit` request).
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\"spec\": ");
        write_spec_json(&mut out, &self.spec);
        out.push_str(", \"netlist\": ");
        write_netlist_json(&mut out, &self.netlist);
        out.push_str(&format!(
            ", \"property\": {{\"stage_index\": {}, \"kind\": \"{}\", \"latency\": \"{}\"}}",
            self.property.stage_index,
            self.property.kind.name(),
            match self.property.latency {
                None => "auto",
                Some(Latency::Combinational) => "combinational",
                Some(Latency::Registered) => "registered",
            }
        ));
        out.push_str(&format!(
            ", \"strategy\": \"{}\", \"threads\": {}}}",
            strategy_name(self.strategy),
            self.threads
        ));
        out
    }

    /// Parses the `"job"` payload of a `submit` request.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field.
    pub fn from_json(json: &Json) -> Result<JobRequest, String> {
        let spec = parse_spec(json.get("spec").ok_or("job misses 'spec'")?)?;
        let netlist = parse_netlist(json.get("netlist").ok_or("job misses 'netlist'")?)?;
        let property = json.get("property").ok_or("job misses 'property'")?;
        let stage_index = property
            .get("stage_index")
            .and_then(Json::as_u64)
            .ok_or("property misses 'stage_index'")? as usize;
        let kind = match property.get("kind").and_then(Json::as_str) {
            Some("functional") => PropertyKind::Functional,
            Some("performance") => PropertyKind::Performance,
            Some("combined") => PropertyKind::Combined,
            other => return Err(format!("bad property kind {other:?}")),
        };
        let latency = match property.get("latency").and_then(Json::as_str) {
            None | Some("auto") => None,
            Some("combinational") => Some(Latency::Combinational),
            Some("registered") => Some(Latency::Registered),
            Some(other) => return Err(format!("bad latency '{other}'")),
        };
        let strategy = match json.get("strategy").and_then(Json::as_str) {
            None | Some("portfolio") => ProofStrategy::Portfolio,
            Some("pdr") => ProofStrategy::Pdr,
            Some("kinduction") => ProofStrategy::KInduction,
            Some(other) => return Err(format!("bad strategy '{other}'")),
        };
        let threads = json.get("threads").and_then(Json::as_u64).unwrap_or(1) as usize;
        Ok(JobRequest {
            spec,
            netlist,
            property: PropertyRequest {
                stage_index,
                kind,
                latency,
            },
            strategy,
            threads,
        })
    }
}

fn strategy_name(strategy: ProofStrategy) -> &'static str {
    match strategy {
        ProofStrategy::KInduction => "kinduction",
        ProofStrategy::Pdr => "pdr",
        ProofStrategy::Portfolio => "portfolio",
    }
}

/// Appends the spec as `{"stages": [...]}` with rule conditions in the
/// textual syntax.
pub fn write_spec_json(out: &mut String, spec: &FunctionalSpec) {
    out.push_str("{\"stages\": [");
    for (i, stage) in spec.stages().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"pipe\": ");
        write_json_string(out, &stage.stage.pipe);
        out.push_str(&format!(", \"stage\": {}, \"rules\": [", stage.stage.stage));
        for (j, rule) in stage.rules.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"label\": ");
            write_json_string(out, &rule.label);
            out.push_str(", \"condition\": ");
            write_json_string(out, &rule.condition.display(spec.pool()).to_string());
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
}

/// Parses a spec serialised by [`write_spec_json`]: stages are declared
/// first (so cross-stage `.moe` references resolve), then the rules.
pub fn parse_spec(json: &Json) -> Result<FunctionalSpec, String> {
    let stages = json
        .get("stages")
        .and_then(Json::as_array)
        .ok_or("spec misses 'stages'")?;
    let mut builder = FunctionalSpecBuilder::new();
    let mut refs = Vec::with_capacity(stages.len());
    for stage in stages {
        let pipe = stage
            .get("pipe")
            .and_then(Json::as_str)
            .ok_or("stage misses 'pipe'")?;
        let index = stage
            .get("stage")
            .and_then(Json::as_u64)
            .ok_or("stage misses 'stage'")? as u32;
        let stage_ref = StageRef::new(pipe, index);
        builder
            .declare_stage(stage_ref.clone())
            .map_err(|e| e.to_string())?;
        refs.push(stage_ref);
    }
    for (stage, stage_ref) in stages.iter().zip(&refs) {
        let rules = stage
            .get("rules")
            .and_then(Json::as_array)
            .ok_or("stage misses 'rules'")?;
        for rule in rules {
            let label = rule
                .get("label")
                .and_then(Json::as_str)
                .ok_or("rule misses 'label'")?;
            let condition = rule
                .get("condition")
                .and_then(Json::as_str)
                .ok_or("rule misses 'condition'")?;
            builder
                .stall_rule_text(stage_ref, label, condition)
                .map_err(|e| e.to_string())?;
        }
    }
    builder.build().map_err(|e| e.to_string())
}

/// Appends the netlist as `{"name", "signals": [...], "outputs": [...]}`
/// with signals in declaration order referencing each other by index.
pub fn write_netlist_json(out: &mut String, netlist: &Netlist) {
    out.push_str("{\"name\": ");
    write_json_string(out, netlist.name());
    out.push_str(", \"signals\": [");
    for (id, signal) in netlist.iter() {
        if id.index() > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"name\": ");
        write_json_string(out, &signal.name);
        match &signal.kind {
            SignalKind::Input => out.push_str(", \"kind\": \"input\"}"),
            SignalKind::Register { init, next } => {
                out.push_str(&format!(", \"kind\": \"register\", \"init\": {init}"));
                match next {
                    Some(next) => out.push_str(&format!(", \"next\": {}}}", next.index())),
                    None => out.push_str(", \"next\": null}"),
                }
            }
            SignalKind::Wire(gate) => {
                out.push_str(", \"kind\": \"wire\", ");
                match gate {
                    Gate::Const(v) => out.push_str(&format!("\"op\": \"const\", \"value\": {v}}}")),
                    Gate::Buf(a) => {
                        out.push_str(&format!("\"op\": \"buf\", \"a\": {}}}", a.index()))
                    }
                    Gate::Not(a) => {
                        out.push_str(&format!("\"op\": \"not\", \"a\": {}}}", a.index()))
                    }
                    Gate::And(ops) => {
                        out.push_str("\"op\": \"and\", \"args\": [");
                        push_indices(out, ops);
                        out.push_str("]}");
                    }
                    Gate::Or(ops) => {
                        out.push_str("\"op\": \"or\", \"args\": [");
                        push_indices(out, ops);
                        out.push_str("]}");
                    }
                    Gate::Xor(a, b) => out.push_str(&format!(
                        "\"op\": \"xor\", \"a\": {}, \"b\": {}}}",
                        a.index(),
                        b.index()
                    )),
                    Gate::Mux { sel, high, low } => out.push_str(&format!(
                        "\"op\": \"mux\", \"sel\": {}, \"high\": {}, \"low\": {}}}",
                        sel.index(),
                        high.index(),
                        low.index()
                    )),
                }
            }
        }
    }
    out.push_str("], \"outputs\": [");
    for (i, output) in netlist.outputs().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&output.index().to_string());
    }
    out.push_str("]}");
}

fn push_indices(out: &mut String, ids: &[SignalId]) {
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&id.index().to_string());
    }
}

/// Parses a netlist serialised by [`write_netlist_json`], rebuilding it
/// through the builder API (signal ids are private). Combinational gates
/// may only reference earlier signals — which every builder-constructed
/// netlist satisfies, since gate inputs are ids that existed at wire
/// creation; register `next` edges connect in a second pass and may point
/// anywhere.
pub fn parse_netlist(json: &Json) -> Result<Netlist, String> {
    let name = json
        .get("name")
        .and_then(Json::as_str)
        .ok_or("netlist misses 'name'")?;
    let signals = json
        .get("signals")
        .and_then(Json::as_array)
        .ok_or("netlist misses 'signals'")?;
    let mut netlist = Netlist::new(name);
    let mut ids: Vec<SignalId> = Vec::with_capacity(signals.len());
    // (register position, next index) edges to connect after all signals
    // exist.
    let mut register_edges: Vec<(usize, usize)> = Vec::new();
    for (position, signal) in signals.iter().enumerate() {
        let name = signal
            .get("name")
            .and_then(Json::as_str)
            .ok_or("signal misses 'name'")?;
        // Earlier-only references for combinational gates.
        let backward = |field: &Json| -> Result<SignalId, String> {
            let index = field
                .as_u64()
                .ok_or_else(|| format!("signal '{name}': non-integer operand"))?
                as usize;
            if index >= position {
                return Err(format!(
                    "signal '{name}': forward gate reference to index {index}"
                ));
            }
            Ok(ids[index])
        };
        let operand = |key: &str| -> Result<SignalId, String> {
            backward(
                signal
                    .get(key)
                    .ok_or_else(|| format!("signal '{name}': missing '{key}'"))?,
            )
        };
        let id = match signal.get("kind").and_then(Json::as_str) {
            Some("input") => netlist.input(name),
            Some("register") => {
                let init = signal
                    .get("init")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| format!("register '{name}': missing 'init'"))?;
                match signal.get("next") {
                    None | Some(Json::Null) => {}
                    Some(next) => {
                        let index = next
                            .as_u64()
                            .ok_or_else(|| format!("register '{name}': non-integer 'next'"))?
                            as usize;
                        if index >= signals.len() {
                            return Err(format!("register '{name}': next index out of range"));
                        }
                        register_edges.push((position, index));
                    }
                }
                netlist.register(name, init)
            }
            Some("wire") => {
                let gate = match signal.get("op").and_then(Json::as_str) {
                    Some("const") => Gate::Const(
                        signal
                            .get("value")
                            .and_then(Json::as_bool)
                            .ok_or_else(|| format!("const '{name}': missing 'value'"))?,
                    ),
                    Some("buf") => Gate::Buf(operand("a")?),
                    Some("not") => Gate::Not(operand("a")?),
                    Some("and") | Some("or") => {
                        let args = signal
                            .get("args")
                            .and_then(Json::as_array)
                            .ok_or_else(|| format!("gate '{name}': missing 'args'"))?;
                        let ops = args
                            .iter()
                            .map(backward)
                            .collect::<Result<Vec<SignalId>, String>>()?;
                        if signal.get("op").and_then(Json::as_str) == Some("and") {
                            Gate::And(ops)
                        } else {
                            Gate::Or(ops)
                        }
                    }
                    Some("xor") => Gate::Xor(operand("a")?, operand("b")?),
                    Some("mux") => Gate::Mux {
                        sel: operand("sel")?,
                        high: operand("high")?,
                        low: operand("low")?,
                    },
                    other => return Err(format!("wire '{name}': bad op {other:?}")),
                };
                netlist.wire(name, gate)
            }
            other => return Err(format!("signal '{name}': bad kind {other:?}")),
        };
        if netlist.signal(id).name != name {
            // add_signal auto-suffixed, i.e. the serialised names were not
            // unique — the source was not a builder-produced netlist.
            return Err(format!("duplicate signal name '{name}'"));
        }
        ids.push(id);
    }
    for (register, next) in register_edges {
        netlist
            .connect_register(ids[register], ids[next])
            .map_err(|e| e.to_string())?;
    }
    if let Some(outputs) = json.get("outputs").and_then(Json::as_array) {
        for output in outputs {
            let index = output.as_u64().ok_or("non-integer output index")? as usize;
            if index >= ids.len() {
                return Err(format!("output index {index} out of range"));
            }
            netlist.mark_output(ids[index]);
        }
    }
    Ok(netlist)
}

/// The verdict of a finished job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The property holds on every cycle (certificate / induction proof).
    Proved,
    /// The property fails; the outcome carries a replayable trace.
    Falsified,
    /// No verdict within the engine's bounds.
    Unknown,
    /// The job was cancelled before a verdict.
    Canceled,
    /// The job could not run (bad netlist, missing signals, …).
    Error,
}

impl Verdict {
    /// Wire name of the verdict.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Proved => "proved",
            Verdict::Falsified => "falsified",
            Verdict::Unknown => "unknown",
            Verdict::Canceled => "canceled",
            Verdict::Error => "error",
        }
    }

    fn parse(name: &str) -> Result<Verdict, String> {
        match name {
            "proved" => Ok(Verdict::Proved),
            "falsified" => Ok(Verdict::Falsified),
            "unknown" => Ok(Verdict::Unknown),
            "canceled" => Ok(Verdict::Canceled),
            "error" => Ok(Verdict::Error),
            other => Err(format!("bad verdict '{other}'")),
        }
    }
}

/// The result of one job, as served to clients and as stored in the proof
/// cache (with `cached: false`; the flag is flipped when an entry is served
/// from the cache).
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Name of the checked property.
    pub property: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Engine detail (`"depth=3"`, `"depth_checked=10"`, an error message).
    pub detail: String,
    /// Whether this result was served from the proof cache.
    pub cached: bool,
    /// The inductive invariant, when proved by PDR.
    pub certificate: Option<Certificate>,
    /// The falsifying trace, when falsified.
    pub counterexample: Option<Counterexample>,
}

impl JobOutcome {
    /// An [`Verdict::Error`] outcome with a message.
    pub fn error(property: &str, message: String) -> JobOutcome {
        JobOutcome {
            property: property.to_owned(),
            verdict: Verdict::Error,
            detail: message,
            cached: false,
            certificate: None,
            counterexample: None,
        }
    }

    /// Folds a checker result (and the certificate `check_property_job`
    /// returns alongside) into an outcome. `canceled` downgrades an
    /// inconclusive verdict — a cancelled run that still *finished* with a
    /// proof or a trace keeps its verdict.
    pub fn from_result(
        result: &BmcResult,
        certificate: Option<Certificate>,
        canceled: bool,
    ) -> JobOutcome {
        let (verdict, detail, counterexample) = match &result.outcome {
            BmcOutcome::Falsified(cex) => (
                Verdict::Falsified,
                format!("trace_frames={}", cex.length()),
                Some(cex.clone()),
            ),
            BmcOutcome::Proved { induction_depth } => {
                (Verdict::Proved, format!("depth={induction_depth}"), None)
            }
            BmcOutcome::Unknown { depth_checked } => (
                if canceled {
                    Verdict::Canceled
                } else {
                    Verdict::Unknown
                },
                format!("depth_checked={depth_checked}"),
                None,
            ),
        };
        JobOutcome {
            property: result.property.name.clone(),
            verdict,
            detail,
            cached: false,
            certificate: if verdict == Verdict::Proved {
                certificate
            } else {
                None
            },
            counterexample,
        }
    }

    /// Serialises the outcome as one JSON object.
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\"property\": ");
        write_json_string(&mut out, &self.property);
        out.push_str(&format!(", \"verdict\": \"{}\"", self.verdict.name()));
        out.push_str(", \"detail\": ");
        write_json_string(&mut out, &self.detail);
        out.push_str(&format!(", \"cached\": {}", self.cached));
        if let Some(certificate) = &self.certificate {
            out.push_str(", \"certificate\": ");
            out.push_str(&certificate.to_json_string());
        }
        if let Some(counterexample) = &self.counterexample {
            out.push_str(", \"counterexample\": ");
            out.push_str(&counterexample.to_json_string());
        }
        out.push('}');
        out
    }

    /// Parses an outcome serialised by [`JobOutcome::to_json_string`].
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field.
    pub fn from_json(json: &Json) -> Result<JobOutcome, String> {
        let property = json
            .get("property")
            .and_then(Json::as_str)
            .ok_or("outcome misses 'property'")?
            .to_owned();
        let verdict = Verdict::parse(
            json.get("verdict")
                .and_then(Json::as_str)
                .ok_or("outcome misses 'verdict'")?,
        )?;
        let detail = json
            .get("detail")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned();
        let cached = json.get("cached").and_then(Json::as_bool).unwrap_or(false);
        let certificate = json.get("certificate").map(parse_certificate).transpose()?;
        let counterexample = json
            .get("counterexample")
            .map(parse_counterexample)
            .transpose()?;
        Ok(JobOutcome {
            property,
            verdict,
            detail,
            cached,
            certificate,
            counterexample,
        })
    }
}

/// Parses the JSON emitted by [`Certificate::to_json_string`].
pub fn parse_certificate(json: &Json) -> Result<Certificate, String> {
    let property = json
        .get("property")
        .and_then(Json::as_str)
        .ok_or("certificate misses 'property'")?
        .to_owned();
    let mut clauses = Vec::new();
    for clause in json
        .get("clauses")
        .and_then(Json::as_array)
        .ok_or("certificate misses 'clauses'")?
    {
        let lits = clause.as_array().ok_or("certificate clause not an array")?;
        let mut parsed = Vec::with_capacity(lits.len());
        for lit in lits {
            parsed.push(StateLiteral {
                register: lit
                    .get("register")
                    .and_then(Json::as_str)
                    .ok_or("literal misses 'register'")?
                    .to_owned(),
                positive: lit
                    .get("positive")
                    .and_then(Json::as_bool)
                    .ok_or("literal misses 'positive'")?,
            });
        }
        clauses.push(parsed);
    }
    Ok(Certificate { property, clauses })
}

/// Parses the JSON emitted by [`ipcl_bmc::Counterexample::to_json_string`].
pub fn parse_counterexample(json: &Json) -> Result<Counterexample, String> {
    let property = json
        .get("property")
        .and_then(Json::as_str)
        .ok_or("counterexample misses 'property'")?
        .to_owned();
    let violation_frame = json
        .get("violation_frame")
        .and_then(Json::as_u64)
        .ok_or("counterexample misses 'violation_frame'")? as usize;
    let mut frames = Vec::new();
    for frame in json
        .get("frames")
        .and_then(Json::as_array)
        .ok_or("counterexample misses 'frames'")?
    {
        let members = frame.as_object().ok_or("trace frame not an object")?;
        let mut values = BTreeMap::new();
        for (name, value) in members {
            values.insert(
                name.clone(),
                value
                    .as_bool()
                    .ok_or_else(|| format!("non-boolean trace value for '{name}'"))?,
            );
        }
        frames.push(values);
    }
    Ok(Counterexample {
        property,
        violation_frame,
        frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcl_core::example::ExampleArch;
    use ipcl_synth::{synthesize_interlock_with, SynthesisOptions};

    fn roundtrip_job() -> JobRequest {
        let spec = ExampleArch::new().functional_spec();
        let synthesized = synthesize_interlock_with(
            &spec,
            SynthesisOptions {
                registered_outputs: true,
                reset_value: true,
                ..Default::default()
            },
        );
        JobRequest {
            spec,
            netlist: synthesized.netlist().clone(),
            property: PropertyRequest {
                stage_index: 2,
                kind: PropertyKind::Performance,
                latency: None,
            },
            strategy: ProofStrategy::Pdr,
            threads: 1,
        }
    }

    #[test]
    fn job_roundtrips_through_json() {
        let job = roundtrip_job();
        let text = job.to_json_string();
        let parsed = JobRequest::from_json(&Json::parse(&text).unwrap()).unwrap();
        // The rebuilt netlist is structurally identical (same signals in the
        // same order with the same names).
        assert_eq!(parsed.netlist, job.netlist);
        assert_eq!(parsed.property, job.property);
        assert_eq!(parsed.strategy, job.strategy);
        // And the spec produces the same property expression.
        let original = job.resolve_property().unwrap();
        let reparsed = parsed.resolve_property().unwrap();
        assert_eq!(original.name, reparsed.name);
        assert_eq!(original.latency, reparsed.latency);
        assert_eq!(
            original.ok.display(job.spec.pool()).to_string(),
            reparsed.ok.display(parsed.spec.pool()).to_string()
        );
    }

    #[test]
    fn outcome_roundtrips_with_certificate_and_trace() {
        let outcome = JobOutcome {
            property: "long.4/functional".to_owned(),
            verdict: Verdict::Proved,
            detail: "depth=3".to_owned(),
            cached: false,
            certificate: Some(Certificate {
                property: "long.4/functional".to_owned(),
                clauses: vec![vec![StateLiteral {
                    register: "wait[0]".to_owned(),
                    positive: false,
                }]],
            }),
            counterexample: Some(Counterexample {
                property: "long.4/functional".to_owned(),
                violation_frame: 1,
                frames: vec![
                    BTreeMap::from([("a".to_owned(), true)]),
                    BTreeMap::from([("a".to_owned(), false)]),
                ],
            }),
        };
        let text = outcome.to_json_string();
        let parsed = JobOutcome::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.property, outcome.property);
        assert_eq!(parsed.verdict, outcome.verdict);
        assert_eq!(parsed.detail, outcome.detail);
        assert_eq!(parsed.certificate, outcome.certificate);
        assert_eq!(parsed.counterexample, outcome.counterexample);
        // Serialisation is deterministic: a reparse emits the same bytes.
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn a_huge_wire_thread_count_still_parses() {
        let job = JobRequest {
            threads: 1_000_000,
            ..roundtrip_job()
        };
        let parsed = JobRequest::from_json(&Json::parse(&job.to_json_string()).unwrap()).unwrap();
        assert_eq!(parsed.threads, 1_000_000);
    }

    #[test]
    fn malformed_jobs_are_rejected_with_context() {
        let bad = Json::parse(r#"{"spec": {"stages": []}}"#).unwrap();
        assert!(JobRequest::from_json(&bad).unwrap_err().contains("netlist"));
        let bad = Json::parse(
            r#"{"spec": {"stages": []},
                "netlist": {"name": "m", "signals": [{"name": "w", "kind": "wire",
                            "op": "buf", "a": 0}], "outputs": []},
                "property": {"stage_index": 0, "kind": "functional"}}"#,
        )
        .unwrap();
        assert!(JobRequest::from_json(&bad)
            .unwrap_err()
            .contains("forward gate reference"));
    }
}
