//! Endpoint schemas: strict validation of JSON request bodies into typed
//! job specs, execution over the workspace engines, and deterministic
//! JSON serialisation of the results.
//!
//! Validation is strict in the same spirit as `suit-cli`'s argument
//! handling: unknown fields, wrong types, unknown workload/CPU/strategy
//! names and zero instruction budgets are all `400` errors with a
//! structured message — never silently ignored, never a panic.
//!
//! Serialisation is a pure function of the result values: floats are
//! written with Rust's shortest round-trip `Display` (deterministic
//! across platforms) and non-finite values map to `null`, so a batch
//! response is byte-identical to serialising the equivalent direct
//! `suit-sim` API call — the loopback e2e test pins this at several
//! worker-thread counts.

use std::fmt::Write;
use std::time::Instant;

use suit_core::OperatingStrategy;
use suit_exec::Threads;
use suit_faults::inject::Campaign;
use suit_faults::vmin::ChipVminModel;
use suit_hw::{CpuModel, UndervoltLevel};
use suit_isa::TABLE1;
use suit_scenarios::ScenarioConfig;
use suit_sim::engine::{run_stream, SimConfig, MAX_DOMAIN_CORES};
use suit_sim::experiment::{config_for_key, run_point, run_table6, strategy_for_key, RowResult};
use suit_sim::result::RunResult;
use suit_telemetry::json::{self, escape, parse, Value};
use suit_trace::profile;

use crate::tracestore::StoredTrace;

/// A request that failed validation (`400`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest(pub String);

/// Why a job did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The request's deadline expired before or during execution (`408`).
    DeadlineExpired,
}

/// A wall-clock deadline, cooperatively checked between simulation
/// bursts (batch points, campaign shards). `None` never expires.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(pub Option<Instant>);

impl Deadline {
    /// A deadline `ms` milliseconds from now (`None` → never expires).
    pub fn after_ms(ms: Option<u64>) -> Self {
        Deadline(ms.map(|m| Instant::now() + std::time::Duration::from_millis(m)))
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|t| Instant::now() >= t)
    }
}

/// One validated compute job, ready to run on a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    /// `POST /v1/simulate`: a single workload point (boxed to keep the
    /// enum variants close in size).
    Simulate(Box<SimPoint>),
    /// `POST /v1/batch`: a sweep fanned out over `suit-exec`.
    Batch(BatchSpec),
    /// `POST /v1/faults`: a fault-injection campaign.
    Faults(FaultsSpec),
    /// `POST /v1/simulate-trace`: streamed replay of a stored trace,
    /// one point per strategy fanned out over `suit-exec`.
    SimulateTrace(Box<TraceJob>),
    /// `POST /v1/scenario`: an SRAM fault-domain or Scrooge
    /// attacker-economics campaign over `suit-scenarios`.
    Scenario(Box<ScenarioConfig>),
}

/// A single simulation point (the CLI `simulate` surface as JSON).
#[derive(Debug, Clone, PartialEq)]
pub struct SimPoint {
    /// Workload name (see `suit-cli list`); empty in a batch template.
    pub workload: String,
    /// CPU model key: `a` | `b` | `c`.
    pub cpu: CpuModel,
    /// Strategy key: `fv` | `f` | `v` | `e` | `adaptive`.
    pub strategy: String,
    /// Undervolt level.
    pub level: UndervoltLevel,
    /// Cores sharing the DVFS domain.
    pub cores: usize,
    /// Optional instruction cap.
    pub insts: Option<u64>,
    /// Simulation seed.
    pub seed: u64,
}

/// A batch sweep: either the full Table 6 harness or a workload list.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchSpec {
    /// The full Table 6 sweep (`{"sweep":"table6"}`), optionally capped.
    Table6 {
        /// Per-workload instruction cap.
        max_insts: Option<u64>,
    },
    /// An explicit workload list sharing one configuration template.
    /// Job `i` simulates `workloads[i]` with seed `fork(i)` of `seed`,
    /// so the response is byte-identical at any worker-thread count.
    Workloads {
        /// Workload names (or the expansion of `"all"`).
        workloads: Vec<String>,
        /// The shared configuration template (its `workload` is empty;
        /// boxed to keep the enum variants close in size).
        template: Box<SimPoint>,
    },
}

/// The validated body of `POST /v1/simulate-trace` — everything but the
/// stored trace itself, which the server resolves from the trace store
/// by ID before queueing a [`TraceJob`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Content-addressed trace ID from `POST /v1/trace` (32 hex digits).
    pub trace: String,
    /// CPU model key: `a` | `b` | `c`.
    pub cpu: CpuModel,
    /// Strategy keys to replay, one engine run each. `e` (closed-form
    /// emulation) needs an analytic workload profile and is rejected.
    pub strategies: Vec<String>,
    /// Undervolt level.
    pub level: UndervoltLevel,
    /// Optional instruction cap per replay.
    pub insts: Option<u64>,
    /// Root seed; replay `i` runs with `fork(i)`.
    pub seed: u64,
}

/// A queued trace replay: the validated spec plus the stored container
/// it resolved to (shared bytes, so queue clones are cheap).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceJob {
    /// The validated request.
    pub spec: TraceSpec,
    /// The stored trace the ID resolved to.
    pub stored: StoredTrace,
}

/// A fault-campaign request (the Table 1 sweep surface as JSON).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsSpec {
    /// Cores in the sampled chip.
    pub cores: usize,
    /// Per-core Vmin variation sigma, mV.
    pub sigma_mv: f64,
    /// Campaign seed (also seeds the chip sample).
    pub seed: u64,
    /// Executions per (combination, instruction).
    pub executions: u32,
}

/// Parses a request body and rejects any non-finite number anywhere in
/// it. The in-tree JSON parser maps overflow literals like `1e999` onto
/// ±∞ (as `f64::from_str` does), and JSON has no representation for
/// NaN/Infinity — so a body smuggling one can never round-trip and is a
/// structured `400` here, before any field validation sees it.
fn parse_body(body: &str) -> Result<Value, BadRequest> {
    let v = parse(body).map_err(|e| BadRequest(format!("invalid JSON body: {e}")))?;
    reject_non_finite(&v)?;
    Ok(v)
}

fn reject_non_finite(v: &Value) -> Result<(), BadRequest> {
    match v {
        Value::Num(n) if !n.is_finite() => Err(BadRequest(
            "non-finite number in request body (JSON cannot represent NaN or Infinity)".into(),
        )),
        Value::Arr(items) => items.iter().try_for_each(reject_non_finite),
        Value::Obj(pairs) => pairs.iter().try_for_each(|(_, v)| reject_non_finite(v)),
        _ => Ok(()),
    }
}

fn obj<'a>(v: &'a Value, allowed: &[&str]) -> Result<&'a [(String, Value)], BadRequest> {
    let Value::Obj(pairs) = v else {
        return Err(BadRequest("request body must be a JSON object".into()));
    };
    for (k, _) in pairs {
        if !allowed.contains(&k.as_str()) {
            return Err(BadRequest(format!(
                "unknown field '{k}' (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(pairs)
}

/// The optional field `key`, read by the shared strict extractor
/// `read`; any rejection is `field '<key>' must be <what>`.
fn field<T>(
    v: &Value,
    key: &str,
    what: &str,
    read: fn(&Value, &str) -> Result<T, String>,
) -> Result<Option<T>, BadRequest> {
    v.get(key)
        .map(|x| read(x, key).map_err(|_| BadRequest(format!("field '{key}' must be {what}"))))
        .transpose()
}

fn get_str(v: &Value, key: &str) -> Result<Option<String>, BadRequest> {
    field(v, key, "a string", json::string)
}

fn get_u64(v: &Value, key: &str) -> Result<Option<u64>, BadRequest> {
    field(v, key, "a non-negative integer", json::count)
}

fn parse_cpu(key: Option<String>) -> Result<CpuModel, BadRequest> {
    let key = key.as_deref().unwrap_or("c");
    CpuModel::by_key(key)
        .ok_or_else(|| BadRequest(format!("unknown cpu '{key}' (expected a, b or c)")))
}

fn parse_level(offset: Option<u64>) -> Result<UndervoltLevel, BadRequest> {
    let mv = offset.unwrap_or(97);
    UndervoltLevel::by_key(mv)
        .ok_or_else(|| BadRequest(format!("unknown offset '{mv}' (expected 70 or 97)")))
}

/// Fields shared by `/v1/simulate` and the batch template.
const POINT_FIELDS: [&str; 8] = [
    "workload",
    "cpu",
    "strategy",
    "offset",
    "cores",
    "insts",
    "seed",
    "deadline_ms",
];

/// The optional `cores` field, bounded to `1..=MAX_DOMAIN_CORES`.
fn parse_cores(v: &Value, default: u64) -> Result<u64, BadRequest> {
    let cores = get_u64(v, "cores")?.unwrap_or(default);
    if cores == 0 || cores > MAX_DOMAIN_CORES as u64 {
        return Err(BadRequest(format!(
            "field 'cores' must be in 1..={MAX_DOMAIN_CORES}"
        )));
    }
    Ok(cores)
}

fn parse_point(v: &Value, require_workload: bool) -> Result<SimPoint, BadRequest> {
    let workload = match get_str(v, "workload")? {
        Some(name) => {
            profile::by_name(&name).ok_or_else(|| {
                BadRequest(format!("unknown workload '{name}' (see `suit-cli list`)"))
            })?;
            name
        }
        None if require_workload => {
            return Err(BadRequest("missing field 'workload'".into()));
        }
        None => String::new(),
    };
    let strategy = get_str(v, "strategy")?.unwrap_or_else(|| "fv".into());
    if strategy_for_key(&strategy).is_none() {
        return Err(BadRequest(format!(
            "unknown strategy '{strategy}' (expected fv, f, v, e, adaptive)"
        )));
    }
    let insts = get_u64(v, "insts")?;
    if insts == Some(0) {
        return Err(BadRequest("field 'insts' must be at least 1".into()));
    }
    let cores = parse_cores(v, 1)?;
    Ok(SimPoint {
        workload,
        cpu: parse_cpu(get_str(v, "cpu")?)?,
        strategy,
        level: parse_level(get_u64(v, "offset")?)?,
        cores: cores as usize,
        insts,
        seed: get_u64(v, "seed")?.unwrap_or(0x5017),
    })
}

/// Validates the body of `POST /v1/simulate`.
pub fn parse_simulate(body: &str) -> Result<(Job, Option<u64>), BadRequest> {
    let v = parse_body(body)?;
    obj(&v, &POINT_FIELDS)?;
    let deadline_ms = get_u64(&v, "deadline_ms")?;
    Ok((Job::Simulate(Box::new(parse_point(&v, true)?)), deadline_ms))
}

/// Validates the body of `POST /v1/batch`.
pub fn parse_batch(body: &str) -> Result<(Job, Option<u64>), BadRequest> {
    let v = parse_body(body)?;
    let mut fields = vec!["sweep", "max_insts", "workloads"];
    fields.extend(POINT_FIELDS);
    obj(&v, &fields)?;
    let deadline_ms = get_u64(&v, "deadline_ms")?;
    match get_str(&v, "sweep")? {
        Some(sweep) if sweep == "table6" => {
            if v.get("workloads").is_some() {
                return Err(BadRequest(
                    "'sweep' and 'workloads' are mutually exclusive".into(),
                ));
            }
            let max_insts = get_u64(&v, "max_insts")?;
            if max_insts == Some(0) {
                return Err(BadRequest("field 'max_insts' must be at least 1".into()));
            }
            Ok((Job::Batch(BatchSpec::Table6 { max_insts }), deadline_ms))
        }
        Some(other) => Err(BadRequest(format!(
            "unknown sweep '{other}' (expected table6)"
        ))),
        None => {
            let workloads: Vec<String> = match v.get("workloads") {
                Some(Value::Str(s)) if s == "all" => {
                    profile::all().iter().map(|p| p.name.to_string()).collect()
                }
                Some(Value::Arr(items)) => {
                    let mut names = Vec::with_capacity(items.len());
                    for item in items {
                        let Value::Str(name) = item else {
                            return Err(BadRequest(
                                "field 'workloads' must be an array of names".into(),
                            ));
                        };
                        if profile::by_name(name).is_none() {
                            return Err(BadRequest(format!("unknown workload '{name}'")));
                        }
                        names.push(name.clone());
                    }
                    names
                }
                Some(_) => {
                    return Err(BadRequest(
                        "field 'workloads' must be an array of names or \"all\"".into(),
                    ))
                }
                None => {
                    return Err(BadRequest(
                        "missing field 'workloads' (or \"sweep\":\"table6\")".into(),
                    ))
                }
            };
            if workloads.is_empty() {
                return Err(BadRequest("field 'workloads' must not be empty".into()));
            }
            // A `workload` is validated but runs nowhere: the template
            // runs every listed workload instead.
            let mut template = Box::new(parse_point(&v, false)?);
            template.workload.clear();
            Ok((
                Job::Batch(BatchSpec::Workloads {
                    workloads,
                    template,
                }),
                deadline_ms,
            ))
        }
    }
}

/// Validates the body of `POST /v1/simulate-trace` into a [`TraceSpec`].
/// The trace ID is syntax-checked here; resolving it against the store
/// (and the `404` for an unknown ID) is the server's job.
pub fn parse_simulate_trace(body: &str) -> Result<(TraceSpec, Option<u64>), BadRequest> {
    let v = parse_body(body)?;
    obj(
        &v,
        &[
            "trace",
            "cpu",
            "strategy",
            "strategies",
            "offset",
            "insts",
            "seed",
            "deadline_ms",
        ],
    )?;
    let deadline_ms = get_u64(&v, "deadline_ms")?;
    let trace = get_str(&v, "trace")?.ok_or_else(|| BadRequest("missing field 'trace'".into()))?;
    if trace.len() != 32
        || !trace
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
    {
        return Err(BadRequest(
            "field 'trace' must be a 32-hex-digit trace ID (from POST /v1/trace)".into(),
        ));
    }
    let check_strategy = |s: &str| -> Result<(), BadRequest> {
        match strategy_for_key(s) {
            Some((OperatingStrategy::Emulation, _)) => Err(BadRequest(
                "strategy 'e' is closed-form over an analytic profile; recorded traces replay \
                 with fv, f, v or adaptive"
                    .into(),
            )),
            Some(_) => Ok(()),
            None => Err(BadRequest(format!(
                "unknown strategy '{s}' (expected fv, f, v or adaptive)"
            ))),
        }
    };
    let strategies = match (get_str(&v, "strategy")?, v.get("strategies")) {
        (Some(_), Some(_)) => {
            return Err(BadRequest(
                "'strategy' and 'strategies' are mutually exclusive".into(),
            ));
        }
        (Some(one), None) => {
            check_strategy(&one)?;
            vec![one]
        }
        (None, Some(Value::Arr(items))) => {
            let mut keys = Vec::with_capacity(items.len());
            for item in items {
                let Value::Str(key) = item else {
                    return Err(BadRequest(
                        "field 'strategies' must be an array of strategy keys".into(),
                    ));
                };
                check_strategy(key)?;
                if keys.contains(key) {
                    return Err(BadRequest(format!(
                        "duplicate strategy '{key}' in 'strategies'"
                    )));
                }
                keys.push(key.clone());
            }
            if keys.is_empty() {
                return Err(BadRequest("field 'strategies' must not be empty".into()));
            }
            keys
        }
        (None, Some(_)) => {
            return Err(BadRequest(
                "field 'strategies' must be an array of strategy keys".into(),
            ));
        }
        (None, None) => vec!["fv".into()],
    };
    let insts = get_u64(&v, "insts")?;
    if insts == Some(0) {
        return Err(BadRequest("field 'insts' must be at least 1".into()));
    }
    Ok((
        TraceSpec {
            trace,
            cpu: parse_cpu(get_str(&v, "cpu")?)?,
            strategies,
            level: parse_level(get_u64(&v, "offset")?)?,
            insts,
            seed: get_u64(&v, "seed")?.unwrap_or(0x5017),
        },
        deadline_ms,
    ))
}

/// Validates the body of `POST /v1/faults`.
pub fn parse_faults(body: &str) -> Result<(Job, Option<u64>), BadRequest> {
    let v = parse_body(body)?;
    obj(
        &v,
        &["cores", "sigma_mv", "seed", "executions", "deadline_ms"],
    )?;
    let deadline_ms = get_u64(&v, "deadline_ms")?;
    let cores = parse_cores(&v, 4)?;
    let sigma_mv = field(&v, "sigma_mv", "a number", json::number)?.unwrap_or(5.0);
    if !sigma_mv.is_finite() || sigma_mv < 0.0 {
        return Err(BadRequest(
            "field 'sigma_mv' must be a non-negative number".into(),
        ));
    }
    let executions = get_u64(&v, "executions")?.unwrap_or(10_000);
    if executions == 0 || executions > 10_000_000 {
        return Err(BadRequest(
            "field 'executions' must be in 1..=10000000".into(),
        ));
    }
    Ok((
        Job::Faults(FaultsSpec {
            cores: cores as usize,
            sigma_mv,
            seed: get_u64(&v, "seed")?.unwrap_or(0x5017),
            executions: executions as u32,
        }),
        deadline_ms,
    ))
}

/// Validates the body of `POST /v1/scenario`. Field validation lives in
/// `suit-scenarios` itself (the CLI and the service share one config
/// document, discriminated by the required `"scenario"` key); only the
/// service-level `deadline_ms` field is peeled off here.
pub fn parse_scenario(body: &str) -> Result<(Job, Option<u64>), BadRequest> {
    let v = parse_body(body)?;
    let deadline_ms = get_u64(&v, "deadline_ms")?;
    let cfg = ScenarioConfig::from_value(&v, &["deadline_ms"]).map_err(BadRequest)?;
    Ok((Job::Scenario(Box::new(cfg)), deadline_ms))
}

// Canonical bodies: each validated request writes the one body its
// parser reads back to it, with every default spelled out and the
// service-level `deadline_ms` left out. `cache::canonical_job` keys the
// result cache on these, so a field the writer missed would make the
// round trip fail its property test, not alias two requests.

/// Appends `,"<key>":<cap>` when a cap is set.
fn write_cap(out: &mut String, key: &str, cap: Option<u64>) {
    if let Some(n) = cap {
        let _ = write!(out, ",\"{key}\":{n}");
    }
}

impl SimPoint {
    /// The canonical `/v1/simulate` body; [`parse_simulate`] reads it
    /// back to `self`.
    pub fn canonical(&self) -> String {
        let mut out = format!("{{\"workload\":{}", escape(&self.workload));
        self.write_settings(&mut out);
        out.push('}');
        out
    }

    /// The fields a batch template shares with a point, each after a
    /// comma.
    fn write_settings(&self, out: &mut String) {
        let _ = write!(
            out,
            ",\"cpu\":\"{}\",\"strategy\":{},\"offset\":{},\"cores\":{},\"seed\":{}",
            self.cpu.kind.key(),
            escape(&self.strategy),
            self.level.key(),
            self.cores,
            self.seed
        );
        write_cap(out, "insts", self.insts);
    }
}

impl BatchSpec {
    /// The canonical `/v1/batch` body, with `"all"` written as the list
    /// it expands to; [`parse_batch`] reads it back to `self`.
    pub fn canonical(&self) -> String {
        let mut out = match self {
            BatchSpec::Table6 { max_insts } => {
                let mut out = String::from("{\"sweep\":\"table6\"");
                write_cap(&mut out, "max_insts", *max_insts);
                out
            }
            BatchSpec::Workloads {
                workloads,
                template,
            } => {
                let names: Vec<String> = workloads.iter().map(|w| escape(w)).collect();
                let mut out = format!("{{\"workloads\":[{}]", names.join(","));
                template.write_settings(&mut out);
                out
            }
        };
        out.push('}');
        out
    }
}

impl FaultsSpec {
    /// The canonical `/v1/faults` body; [`parse_faults`] reads it back
    /// to `self`.
    pub fn canonical(&self) -> String {
        format!(
            "{{\"cores\":{},\"sigma_mv\":{},\"seed\":{},\"executions\":{}}}",
            self.cores, self.sigma_mv, self.seed, self.executions
        )
    }
}

impl TraceSpec {
    /// The canonical `/v1/simulate-trace` body; [`parse_simulate_trace`]
    /// reads it back to `self`. The trace ID is itself content-addressed
    /// over the container bytes, so the stored bytes never enter it.
    pub fn canonical(&self) -> String {
        let strategies: Vec<String> = self.strategies.iter().map(|s| escape(s)).collect();
        let mut out = format!(
            "{{\"trace\":{},\"cpu\":\"{}\",\"strategies\":[{}],\"offset\":{},\"seed\":{}",
            escape(&self.trace),
            self.cpu.kind.key(),
            strategies.join(","),
            self.level.key(),
            self.seed
        );
        write_cap(&mut out, "insts", self.insts);
        out.push('}');
        out
    }
}

/// Runs a validated job. Fan-out inside batch jobs goes over
/// [`suit_exec`] with `threads`; the deadline is checked cooperatively
/// between simulation bursts (each fan-out point checks before it
/// starts), so an expired request aborts with [`ExecError::DeadlineExpired`]
/// instead of holding a worker for the rest of the sweep.
pub fn execute(job: &Job, threads: Threads, deadline: Deadline) -> Result<String, ExecError> {
    if deadline.expired() {
        return Err(ExecError::DeadlineExpired);
    }
    match job {
        Job::Simulate(point) => Ok(format!(
            "{{\"result\":{}}}",
            run_result_json(&simulate_point(point, &point.workload, point.seed))
        )),
        Job::Batch(BatchSpec::Table6 { max_insts }) => {
            let rows = run_table6(threads, *max_insts);
            if deadline.expired() {
                return Err(ExecError::DeadlineExpired);
            }
            Ok(batch_table6_json(&rows))
        }
        Job::Batch(BatchSpec::Workloads {
            workloads,
            template,
        }) => {
            let results = fan_out(
                workloads.len(),
                template.seed,
                threads,
                deadline,
                |i, seed| simulate_point(template, &workloads[i], seed),
            )?;
            Ok(batch_workloads_json(&results))
        }
        Job::Faults(spec) => {
            let chip = ChipVminModel::sample(spec.cores, spec.sigma_mv, spec.seed);
            let mut campaign = Campaign::standard(chip, spec.seed);
            campaign.executions = spec.executions;
            let report = campaign.run_with_threads(threads.count());
            if deadline.expired() {
                return Err(ExecError::DeadlineExpired);
            }
            let table1: Vec<String> = TABLE1
                .iter()
                .map(|row| {
                    let op = row.opcode;
                    let first = report.first_fault_offset_mv(op);
                    format!(
                        "{{\"opcode\":{},\"faults\":{},\"first_fault_mv\":{}}}",
                        escape(op.mnemonic()),
                        report.faults(op),
                        json_num(first)
                    )
                })
                .collect();
            let ranking: Vec<String> = report
                .ranking()
                .iter()
                .map(|op| escape(op.mnemonic()))
                .collect();
            Ok(format!(
                "{{\"cores\":{},\"executions\":{},\"table1\":[{}],\"ranking\":[{}]}}",
                spec.cores,
                spec.executions,
                table1.join(","),
                ranking.join(",")
            ))
        }
        Job::Scenario(cfg) => {
            let tele = suit_telemetry::Telemetry::off();
            let out = match cfg.as_ref() {
                ScenarioConfig::Sram(c) => {
                    suit_scenarios::sram::run(c, threads.count(), &tele).to_json()
                }
                ScenarioConfig::Scrooge(c) => {
                    suit_scenarios::scrooge::search(c, threads.count(), &tele)
                        .expect("scenario config validated at parse time")
                        .to_json()
                }
            };
            if deadline.expired() {
                return Err(ExecError::DeadlineExpired);
            }
            Ok(out)
        }
        Job::SimulateTrace(tj) => {
            let strategies = &tj.spec.strategies;
            let results = fan_out(
                strategies.len(),
                tj.spec.seed,
                threads,
                deadline,
                |i, seed| replay_trace(tj, &strategies[i], seed),
            )?;
            let items: Vec<String> = strategies
                .iter()
                .zip(&results)
                .map(|(s, r)| {
                    format!(
                        "{{\"strategy\":{},\"result\":{}}}",
                        escape(s),
                        run_result_json(r)
                    )
                })
                .collect();
            Ok(format!(
                "{{\"trace\":{},\"results\":[{}]}}",
                trace_info_json(&tj.spec.trace, &tj.stored),
                items.join(",")
            ))
        }
    }
}

/// Runs `n` points over [`suit_exec`], point `i` seeded with `fork(i)`
/// of `seed` (so the results are identical at any thread count); each
/// point checks the deadline before it starts.
fn fan_out(
    n: usize,
    seed: u64,
    threads: Threads,
    deadline: Deadline,
    point: impl Fn(usize, u64) -> RunResult + Sync,
) -> Result<Vec<RunResult>, ExecError> {
    suit_exec::run_seeded(n, threads, seed, |i, rng| {
        (!deadline.expired()).then(|| point(i, rng.root_seed()))
    })
    .into_iter()
    .collect::<Option<_>>()
    .ok_or(ExecError::DeadlineExpired)
}

/// Replays one stored trace under one strategy, streaming bursts out of
/// the container through [`run_stream`] — replay memory is O(chunk),
/// never O(trace). The container was fully decoded once at upload, so
/// opening and streaming it again cannot fail.
fn replay_trace(tj: &TraceJob, strategy: &str, seed: u64) -> RunResult {
    let reader = suit_store::open_bytes(&tj.stored.bytes).expect("trace validated at upload");
    let meta = reader.meta().clone();
    let cfg = SimConfig {
        seed,
        max_insts: tj.spec.insts,
        ..config_for_key(&tj.spec.cpu, strategy, tj.spec.level)
            .expect("strategy validated at parse time")
    };
    run_stream(&tj.spec.cpu, &meta, reader.bursts(), &cfg)
}

/// The deterministic trace summary shared by the upload response,
/// `GET /v1/trace/<id>` and the `/v1/simulate-trace` envelope.
pub fn trace_info_json(id: &str, t: &StoredTrace) -> String {
    format!(
        "{{\"id\":{},\"workload\":{},\"ipc\":{},\"total_insts\":{},\"bursts\":{},\"chunks\":{},\
         \"bytes\":{}}}",
        escape(id),
        escape(&t.workload),
        json_num(t.ipc),
        t.total_insts,
        t.bursts,
        t.chunks,
        t.bytes.len()
    )
}

/// Simulates one point of the template for `workload` with `seed` —
/// exactly the engine calls `suit-cli simulate` makes.
fn simulate_point(template: &SimPoint, workload: &str, seed: u64) -> RunResult {
    let p = profile::by_name(workload).expect("workload validated at parse time");
    let cfg = SimConfig {
        cores: template.cores,
        seed,
        max_insts: template.insts,
        ..config_for_key(&template.cpu, &template.strategy, template.level)
            .expect("strategy validated at parse time")
    };
    run_point(&template.cpu, p, &cfg)
}

/// A JSON number: shortest round-trip `Display` for finite values,
/// `null` for NaN/±∞ (JSON has no encoding for them).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Serialises one [`RunResult`] — raw aggregates plus the paper's
/// derived metrics — deterministically.
pub fn run_result_json(r: &RunResult) -> String {
    format!(
        "{{\"workload\":{},\"perf\":{},\"power\":{},\"efficiency\":{},\"residency\":{},\
         \"duration_ps\":{},\"baseline_ps\":{},\"energy_rel\":{},\"time_e_ps\":{},\
         \"time_cf_ps\":{},\"time_cv_ps\":{},\"time_stall_ps\":{},\"events\":{},\
         \"exceptions\":{},\"timer_fires\":{},\"thrash_hits\":{}}}",
        escape(&r.workload),
        json_num(r.perf()),
        json_num(r.power()),
        json_num(r.efficiency()),
        json_num(r.residency()),
        r.duration.as_picos(),
        r.baseline_duration.as_picos(),
        json_num(r.energy_rel),
        r.time_e.as_picos(),
        r.time_cf.as_picos(),
        r.time_cv.as_picos(),
        r.time_stall.as_picos(),
        r.events,
        r.exceptions,
        r.timer_fires,
        r.thrash_hits
    )
}

/// Serialises a list of per-workload results (`/v1/batch` workloads mode).
pub fn batch_workloads_json(results: &[RunResult]) -> String {
    let items: Vec<String> = results.iter().map(run_result_json).collect();
    format!("{{\"results\":[{}]}}", items.join(","))
}

/// Serialises the Table 6 sweep (`/v1/batch` `"sweep":"table6"` mode) —
/// the byte-identity anchor for the loopback e2e test against a direct
/// [`run_table6`] call.
pub fn batch_table6_json(rows: &[RowResult]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|row| {
            let per: Vec<String> = row.per_workload.iter().map(run_result_json).collect();
            let no_simd: Vec<String> = row.no_simd.iter().map(run_result_json).collect();
            format!(
                "{{\"label\":{},\"offset_mv\":{},\"per_workload\":[{}],\"no_simd\":[{}]}}",
                escape(row.label),
                json_num(row.level.offset_mv()),
                per.join(","),
                no_simd.join(",")
            )
        })
        .collect();
    format!("{{\"sweep\":\"table6\",\"rows\":[{}]}}", items.join(","))
}

#[cfg(test)]
mod tests {
    //! Rejected bodies of every endpoint, with their exact `400` text,
    //! are pinned in `tests/serve_e2e.rs`; these tests pin what the
    //! validators accept.
    use super::*;
    use suit_rng::SuitRng;

    #[test]
    fn simulate_body_validates_strictly() {
        let (job, deadline) =
            parse_simulate("{\"workload\":\"557.xz\",\"insts\":1000000,\"deadline_ms\":50}")
                .unwrap();
        assert_eq!(deadline, Some(50));
        match job {
            Job::Simulate(p) => {
                assert_eq!(p.workload, "557.xz");
                assert_eq!(p.insts, Some(1_000_000));
                assert_eq!(p.seed, 0x5017);
            }
            other => panic!("wrong job {other:?}"),
        }
    }

    #[test]
    fn batch_body_accepts_both_modes() {
        let (job, _) = parse_batch("{\"sweep\":\"table6\",\"max_insts\":1000}").unwrap();
        assert!(matches!(
            job,
            Job::Batch(BatchSpec::Table6 {
                max_insts: Some(1000)
            })
        ));
        let (job, _) = parse_batch("{\"workloads\":[\"557.xz\",\"Nginx\"],\"insts\":5}").unwrap();
        match job {
            Job::Batch(BatchSpec::Workloads { workloads, .. }) => {
                assert_eq!(workloads, ["557.xz", "Nginx"]);
            }
            other => panic!("wrong job {other:?}"),
        }
        let (job, _) = parse_batch("{\"workloads\":\"all\"}").unwrap();
        match job {
            Job::Batch(BatchSpec::Workloads { workloads, .. }) => {
                assert_eq!(workloads.len(), profile::all().len());
            }
            other => panic!("wrong job {other:?}"),
        }
    }

    #[test]
    fn workload_batch_is_thread_count_invariant_and_forked() {
        let (job, _) = parse_batch(
            "{\"workloads\":[\"557.xz\",\"Nginx\",\"502.gcc\"],\"insts\":20000000,\"seed\":7}",
        )
        .unwrap();
        let one = execute(&job, Threads::Fixed(1), Deadline(None)).unwrap();
        let four = execute(&job, Threads::Fixed(4), Deadline(None)).unwrap();
        assert_eq!(one, four, "batch diverged across thread counts");
        // And it really is per-job fork(i) seeding: job 0 must match a
        // direct engine call with the forked seed.
        let root = SuitRng::seed_from_u64(7);
        let (Job::Batch(BatchSpec::Workloads { template, .. }), _) =
            parse_batch("{\"workloads\":[\"557.xz\"],\"insts\":20000000,\"seed\":7}").unwrap()
        else {
            unreachable!()
        };
        let direct = simulate_point(&template, "557.xz", root.fork(0).root_seed());
        assert!(one.contains(&run_result_json(&direct)));
    }

    #[test]
    fn simulate_trace_body_validates_strictly() {
        let id = "0123456789abcdef0123456789abcdef";
        let (spec, deadline) = parse_simulate_trace(&format!(
            "{{\"trace\":\"{id}\",\"strategies\":[\"fv\",\"adaptive\"],\"seed\":9,\
             \"deadline_ms\":50}}"
        ))
        .unwrap();
        assert_eq!(deadline, Some(50));
        assert_eq!(spec.trace, id);
        assert_eq!(spec.strategies, ["fv", "adaptive"]);
        assert_eq!(spec.seed, 9);
        // Defaults: single fv replay, paper seed.
        let (spec, _) = parse_simulate_trace(&format!("{{\"trace\":\"{id}\"}}")).unwrap();
        assert_eq!(spec.strategies, ["fv"]);
        assert_eq!(spec.seed, 0x5017);
    }

    #[test]
    fn expired_deadline_aborts_before_work() {
        let (job, _) = parse_simulate("{\"workload\":\"557.xz\",\"insts\":1000000}").unwrap();
        let expired = Deadline(Some(Instant::now() - std::time::Duration::from_millis(1)));
        assert_eq!(
            execute(&job, Threads::Fixed(1), expired),
            Err(ExecError::DeadlineExpired)
        );
    }

    #[test]
    fn faults_response_lists_table1() {
        let (job, _) =
            parse_faults("{\"cores\":2,\"executions\":500,\"seed\":3,\"sigma_mv\":4.0}").unwrap();
        let body = execute(&job, Threads::Fixed(2), Deadline(None)).unwrap();
        let v = parse(&body).expect("valid JSON");
        let table = v.get("table1").and_then(Value::as_arr).unwrap();
        assert_eq!(table.len(), TABLE1.len());
        assert_eq!(
            table[0].get("opcode").and_then(Value::as_str),
            Some(TABLE1[0].opcode.mnemonic())
        );
        // Determinism across thread counts.
        let again = execute(&job, Threads::Fixed(1), Deadline(None)).unwrap();
        assert_eq!(body, again);
    }

    #[test]
    fn scenario_body_validates_and_is_thread_count_invariant() {
        let (job, deadline) = parse_scenario(
            "{\"scenario\":\"sram\",\"cache_banks\":2,\"rob_banks\":1,\"reads\":64,\
             \"offsets_mv\":[-120,-160],\"audit_len\":200,\"deadline_ms\":5000}",
        )
        .unwrap();
        assert_eq!(deadline, Some(5000));
        let one = execute(&job, Threads::Fixed(1), Deadline(None)).unwrap();
        let four = execute(&job, Threads::Fixed(4), Deadline(None)).unwrap();
        assert_eq!(one, four, "scenario diverged across thread counts");
        let v = parse(&one).expect("valid JSON");
        assert_eq!(v.get("scenario").and_then(Value::as_str), Some("sram"));
    }

    #[test]
    fn json_num_maps_non_finite_to_null() {
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NEG_INFINITY), "null");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn smuggled_non_finite_numbers_are_rejected_at_parse() {
        // `1e999` overflows f64 parsing to +∞; every validator must
        // refuse it with a structured 400 wherever it hides.
        for bad in [
            "{\"workload\":\"557.xz\",\"seed\":1e999}",
            "{\"workload\":\"557.xz\",\"insts\":-1e999}",
            "{\"workloads\":[\"557.xz\"],\"seed\":1e999}",
            "{\"sigma_mv\":1e999}",
            "{\"sigma_mv\":-1e999}",
        ] {
            let err = parse_simulate(bad)
                .err()
                .or_else(|| parse_batch(bad).err())
                .or_else(|| parse_faults(bad).err())
                .unwrap_or_else(|| panic!("accepted {bad:?}"));
            assert!(
                err.0.contains("non-finite") || err.0.contains("must be"),
                "wrong error for {bad:?}: {}",
                err.0
            );
        }
        // And the dedicated walker catches nesting the field checks miss.
        assert!(parse_faults("{\"sigma_mv\":1e999}").is_err());
        assert!(reject_non_finite(&parse("{\"a\":[1,[2,1e999]]}").unwrap()).is_err());
        assert!(reject_non_finite(&parse("{\"a\":[1,2.5]}").unwrap()).is_ok());
    }
}
