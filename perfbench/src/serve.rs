//! `serve`: a closed loop of two clients against an in-process
//! `suit-serve` with two workers. A seeded schedule mixes three classes:
//! *hit* (repeated points and `If-None-Match` revalidations over
//! keep-alive), *compute* (fresh one-core points, trace uploads and
//! trace replays over keep-alive) and *connect* (one connection per
//! request through `suit_serve::client::request`).

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use suit_core::OperatingStrategy;
use suit_exec::Threads;
use suit_rng::{Rng, SuitRng};
use suit_serve::api::{self, Deadline, Job, TraceJob};
use suit_serve::cache::{canonical_job, etag_for, Cache};
use suit_serve::http::{parse_request, read_response, ClientResponse, Limits};
use suit_serve::{ServeConfig, Server, StoredTrace, TraceStore};
use suit_sim::experiment::params_for;
use suit_sim::{simulate, SimConfig};
use suit_telemetry::json;
use suit_trace::io::TraceMeta;
use suit_trace::{profile, Burst, TraceGen};

use crate::common::{
    median, ms, peak_rss_mb, repeat, timed, warm_up, Ctx, Digest, Outcome, WARM_UP_S,
};
use crate::spans::{self, maybe, Tracer};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const HOT_POINTS: usize = 8;
const HITS: usize = 300;
/// Fresh points: every workload three times, at three instruction caps.
const COMPUTE_CAPS: [u64; 3] = [20_000_000, 200_000_000, 2_000_000_000];
const TRACES: usize = 10;
const TRACE_BURSTS: usize = 20_000;
const CONNECTS: usize = 20;
const TIMEOUT: Duration = Duration::from_secs(60);
/// Orders the schedule; fixed, so a heavy request never moves to the
/// end of one seed's schedule and not another's.
const SCHEDULE_SEED: u64 = 0x5017;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Compute,
    Connect,
}

#[derive(Debug, Clone)]
enum Item {
    /// A hot point; `revalidate` sends its ETag in `If-None-Match`.
    Hit { hot: usize, revalidate: bool },
    /// A fresh `/v1/simulate` body.
    Simulate(String),
    /// Upload trace `t`, then replay it.
    Trace(usize),
    /// A hot point over a connection of its own.
    Connect(usize),
}

struct Trace {
    workload: &'static str,
    seed: u64,
    bytes: Vec<u8>,
    id: String,
    replay: String,
}

struct Inputs {
    hot: Vec<String>,
    schedule: Vec<Item>,
    traces: Vec<Trace>,
}

fn cpu_key(i: usize) -> &'static str {
    ["a", "b", "c"][i % 3]
}

/// The seeded inputs. What each repetition asks for is fixed — counts
/// per class, workloads, instruction caps, CPUs, strategies and the
/// order of the schedule, so that the cost of a repetition does not
/// depend on the seed — and the seed chooses simulation seeds, trace
/// contents and instruction counts within ±10 %.
fn inputs(seed: u64) -> Inputs {
    let root = SuitRng::seed_from_u64(seed);
    let all = profile::all();
    let mut rng = root.fork(1);
    let hot = (0..HOT_POINTS)
        .map(|i| {
            format!(
                "{{\"workload\":\"{}\",\"cpu\":\"{}\",\"strategy\":\"fv\",\"insts\":100000000,\"seed\":{}}}",
                all[(i * 3) % all.len()].name,
                cpu_key(i),
                rng.gen_range(0..1u64 << 32)
            )
        })
        .collect();
    let mut schedule: Vec<Item> = (0..HITS)
        .map(|i| Item::Hit {
            hot: i % HOT_POINTS,
            revalidate: i % 2 == 1,
        })
        .collect();
    let mut rng = root.fork(2);
    for (k, p) in all.iter().enumerate() {
        for (j, cap) in COMPUTE_CAPS.iter().enumerate() {
            let jitter = rng.gen_range(0.9..1.1);
            schedule.push(Item::Simulate(format!(
                "{{\"workload\":\"{}\",\"cpu\":\"{}\",\"strategy\":\"{}\",\"offset\":{},\"insts\":{},\"seed\":{}}}",
                p.name,
                cpu_key(k + j),
                ["fv", "f", "v"][(k + 2 * j) % 3],
                [70, 97][(k + j) % 2],
                (*cap as f64 * jitter) as u64,
                rng.gen_range(0..1u64 << 32)
            )));
        }
    }
    let mut rng = root.fork(3);
    let traces = (0..TRACES)
        .map(|t| {
            let p = &all[(t * 5 + 2) % all.len()];
            let seed = rng.u64();
            let bursts: Vec<Burst> = TraceGen::new(p, seed).take(TRACE_BURSTS).collect();
            let bytes = pack(p.name, p.ipc, &bursts);
            let id = TraceStore::id_for(&bytes);
            let replay = format!(
                "{{\"trace\":\"{id}\",\"cpu\":\"{}\",\"strategies\":[\"fv\",\"f\"],\"seed\":{}}}",
                cpu_key(t),
                rng.gen_range(0..1u64 << 32)
            );
            Trace {
                workload: p.name,
                seed,
                bytes,
                id,
                replay,
            }
        })
        .collect();
    schedule.extend((0..TRACES).map(Item::Trace));
    schedule.extend((0..CONNECTS).map(|i| Item::Connect(i % HOT_POINTS)));
    SuitRng::seed_from_u64(SCHEDULE_SEED).shuffle(&mut schedule);
    Inputs {
        hot,
        schedule,
        traces,
    }
}

fn pack(name: &str, ipc: f64, bursts: &[Burst]) -> Vec<u8> {
    let meta = TraceMeta {
        name: name.to_string(),
        ipc,
        total_insts: bursts.iter().map(Burst::total_insts).sum(),
    };
    suit_store::pack_to_vec(
        &meta,
        bursts.iter().copied(),
        suit_store::DEFAULT_CHUNK_BURSTS,
    )
    .expect("generated traces pack")
}

fn config() -> ServeConfig {
    ServeConfig {
        threads: Threads::Fixed(WORKERS),
        cache_entries: 4096,
        cache_bytes: 64 << 20,
        trace_entries: 4 * TRACES,
        trace_bytes: 256 << 20,
        ..ServeConfig::default()
    }
}

/// One answered request.
#[derive(Debug, Clone)]
struct Answer {
    item: usize,
    /// 0, or 1 for the replay that follows an upload.
    step: usize,
    class: Class,
    ms: f64,
    status: u16,
    etag: Option<String>,
    body: Vec<u8>,
}

fn request_bytes(method: &str, path: &str, body: &[u8], headers: &[(&str, &str)]) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: bench\r\n");
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    if !body.is_empty() {
        head.push_str(&format!("content-length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// One request over a keep-alive connection.
fn exchange(conn: &mut TcpStream, raw: &[u8]) -> Result<ClientResponse, String> {
    conn.write_all(raw).map_err(|e| e.to_string())?;
    read_response(conn)
}

/// A running server with its client connections.
struct Live {
    addr: SocketAddr,
    conns: Vec<TcpStream>,
    stop: suit_serve::ShutdownHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

/// Set-up: bind, connect the clients, start the acceptor and workers,
/// and wait for the first answer. The clients connect before the
/// acceptor starts, so it finds them queued instead of polling for them.
fn start() -> Live {
    let server = Server::bind("127.0.0.1:0", config()).expect("bind a loopback port");
    let addr = server.local_addr().expect("bound address");
    let mut conns: Vec<TcpStream> = (0..CLIENTS)
        .map(|_| TcpStream::connect(addr).expect("connect to the server"))
        .collect();
    for c in &conns {
        c.set_nodelay(true).expect("set TCP_NODELAY");
        c.set_read_timeout(Some(TIMEOUT)).expect("set read timeout");
    }
    let stop = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    let health = exchange(
        &mut conns[0],
        &request_bytes("GET", "/v1/healthz", b"", &[]),
    );
    assert!(
        matches!(&health, Ok(r) if r.status == 200),
        "server did not come up: {health:?}"
    );
    Live {
        addr,
        conns,
        stop,
        thread,
    }
}

impl Live {
    fn stop(self) {
        drop(self.conns);
        self.stop.shutdown();
        self.thread
            .join()
            .expect("server thread panicked")
            .expect("server ran cleanly");
    }

    /// `GET /v1/metrics`, parsed.
    fn metrics(&mut self) -> json::Value {
        let r = exchange(
            &mut self.conns[0],
            &request_bytes("GET", "/v1/metrics", b"", &[]),
        )
        .expect("metrics request");
        json::parse(r.text().expect("utf-8 metrics")).expect("metrics JSON")
    }
}

/// Warms the cache with the hot points; returns their ETags.
fn warm(live: &mut Live, inp: &Inputs) -> Vec<String> {
    inp.hot
        .iter()
        .map(|body| {
            let r = exchange(
                &mut live.conns[0],
                &request_bytes("POST", "/v1/simulate", body.as_bytes(), &[]),
            )
            .expect("warm-up request");
            r.header("etag")
                .expect("cacheable response has an ETag")
                .to_string()
        })
        .collect()
}

/// The timed phase of one repetition: both clients pull items off the
/// shared schedule until it is done. Returns the answers in item order.
fn drive(tr: Option<&Tracer>, live: &mut Live, inp: &Inputs, etags: &[String]) -> Vec<Answer> {
    let next = AtomicUsize::new(0);
    let answers = Mutex::new(Vec::new());
    let addr = live.addr.to_string();
    std::thread::scope(|s| {
        for conn in live.conns.iter_mut() {
            let (next, answers, addr) = (&next, &answers, &addr);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = inp.schedule.get(i) else {
                    return;
                };
                let mine = client_item(tr, conn, addr, inp, etags, i, item);
                answers.lock().expect("answer list").extend(mine);
            });
        }
    });
    let mut v = answers.into_inner().expect("answer list");
    v.sort_by_key(|a| (a.item, a.step));
    v
}

fn client_item(
    tr: Option<&Tracer>,
    conn: &mut TcpStream,
    addr: &str,
    inp: &Inputs,
    etags: &[String],
    i: usize,
    item: &Item,
) -> Vec<Answer> {
    let op = i as u64;
    let call = |conn: &mut TcpStream, step, class, raw: Vec<u8>| {
        let span = match class {
            Class::Hit => "serve.wire.hit",
            Class::Compute => "serve.wire.compute",
            Class::Connect => "serve.wire.connect",
        };
        let t = Instant::now();
        let r = maybe(tr, span, op, || exchange(conn, &raw));
        answer(i, step, class, t, r)
    };
    match item {
        Item::Hit { hot, revalidate } => {
            let headers: &[(&str, &str)] = if *revalidate {
                &[("if-none-match", &etags[*hot])]
            } else {
                &[]
            };
            let raw = request_bytes("POST", "/v1/simulate", inp.hot[*hot].as_bytes(), headers);
            vec![call(conn, 0, Class::Hit, raw)]
        }
        Item::Simulate(body) => {
            let raw = request_bytes("POST", "/v1/simulate", body.as_bytes(), &[]);
            vec![call(conn, 0, Class::Compute, raw)]
        }
        Item::Trace(t) => {
            let tc = &inp.traces[*t];
            let up = request_bytes(
                "POST",
                "/v1/trace",
                &tc.bytes,
                &[("content-type", "application/octet-stream")],
            );
            let replay = request_bytes("POST", "/v1/simulate-trace", tc.replay.as_bytes(), &[]);
            vec![
                call(conn, 0, Class::Compute, up),
                call(conn, 1, Class::Compute, replay),
            ]
        }
        Item::Connect(hot) => {
            let t = Instant::now();
            let r = maybe(tr, "serve.wire.connect", op, || {
                suit_serve::client::request(
                    addr,
                    "POST",
                    "/v1/simulate",
                    Some(&inp.hot[*hot]),
                    TIMEOUT,
                )
                .map_err(|e| e.to_string())
            });
            vec![answer(i, 0, Class::Connect, t, r)]
        }
    }
}

fn answer(
    item: usize,
    step: usize,
    class: Class,
    t: Instant,
    r: Result<ClientResponse, String>,
) -> Answer {
    let ms = ms(t.elapsed());
    match r {
        Ok(r) => Answer {
            item,
            step,
            class,
            ms,
            status: r.status,
            etag: r.header("etag").map(str::to_string),
            body: r.body,
        },
        Err(_) => Answer {
            item,
            step,
            class,
            ms,
            status: 0,
            etag: None,
            body: Vec::new(),
        },
    }
}

/// What a direct library call answers for each request of the schedule.
struct Expected {
    hot: Vec<(String, String)>,
    simulate: Vec<Option<(String, String)>>,
    replay: Vec<String>,
}

fn stored(bytes: &[u8]) -> StoredTrace {
    let info = suit_store::open_bytes(bytes)
        .expect("generated traces open")
        .info();
    StoredTrace {
        bytes: Arc::new(bytes.to_vec()),
        workload: info.meta.name.clone(),
        ipc: info.meta.ipc,
        total_insts: info.meta.total_insts,
        bursts: info.bursts,
        chunks: info.chunks,
    }
}

/// Body and ETag of a direct `api::execute` of a `/v1/simulate` body.
fn direct_simulate(body: &str) -> (String, String) {
    let (job, _) = api::parse_simulate(body).expect("benchmark bodies are valid");
    let out = api::execute(&job, Threads::Fixed(WORKERS), Deadline(None)).expect("no deadline");
    (out, etag_for(&canonical_job(&job)))
}

fn direct_replay(t: &Trace) -> String {
    let (spec, _) = api::parse_simulate_trace(&t.replay).expect("benchmark bodies are valid");
    let job = Job::SimulateTrace(Box::new(TraceJob {
        spec,
        stored: stored(&t.bytes),
    }));
    api::execute(&job, Threads::Fixed(WORKERS), Deadline(None)).expect("no deadline")
}

fn expected(inp: &Inputs) -> Expected {
    Expected {
        hot: inp.hot.iter().map(|b| direct_simulate(b)).collect(),
        simulate: inp
            .schedule
            .iter()
            .map(|it| match it {
                Item::Simulate(b) => Some(direct_simulate(b)),
                _ => None,
            })
            .collect(),
        replay: inp.traces.iter().map(direct_replay).collect(),
    }
}

/// Checks every answer of a repetition against the direct calls.
fn check(out: &mut Outcome, inp: &Inputs, exp: &Expected, etags: &[String], answers: &[Answer]) {
    // One answer per item, plus the replay after each upload.
    let requests = inp.schedule.len() + TRACES;
    out.check(answers.len() == requests, || {
        format!("{} answers for {requests} requests", answers.len())
    });
    for a in answers {
        let body = String::from_utf8_lossy(&a.body);
        let ok = match (&inp.schedule[a.item], a.step) {
            (
                Item::Hit {
                    hot,
                    revalidate: true,
                },
                _,
            ) => a.status == 304 && a.body.is_empty() && a.etag.as_deref() == Some(&etags[*hot]),
            (Item::Hit { hot, .. } | Item::Connect(hot), _) => {
                let (b, e) = &exp.hot[*hot];
                a.status == 200 && body == *b && a.etag.as_deref() == Some(e)
            }
            (Item::Simulate(_), _) => {
                let (b, e) = exp.simulate[a.item].as_ref().expect("simulate item");
                a.status == 200 && body == *b && a.etag.as_deref() == Some(e)
            }
            (Item::Trace(t), 0) => {
                a.status == 200
                    && json::parse(&body).ok().is_some_and(|v| {
                        v.get("trace")
                            .and_then(|t| t.get("id"))
                            .and_then(json::Value::as_str)
                            == Some(&inp.traces[*t].id)
                    })
            }
            (Item::Trace(t), _) => a.status == 200 && body == exp.replay[*t],
        };
        out.check(ok, || {
            format!(
                "item {} step {}: status {} or body mismatch",
                a.item, a.step, a.status
            )
        });
    }
}

fn digest(answers: &[Answer]) -> String {
    let mut d = Digest::new();
    for a in answers {
        d.add(&a.status.to_be_bytes());
        d.add(&a.body);
    }
    d.hex()
}

fn latencies(answers: &[Answer], class: Class) -> Vec<f64> {
    answers
        .iter()
        .filter(|a| a.class == class)
        .map(|a| a.ms)
        .collect()
}

/// Fresh servers set up per set-up sample.
const SETUP_BATCH: usize = 3;

/// Sets up a fresh server: everything before the first timed request —
/// bind, worker spawn, the first answer, and the hot points computed
/// into the cache. Returns the server, the hot points' ETags and the
/// set-up time in seconds.
fn set_up(inp: &Inputs) -> (Live, Vec<String>, f64) {
    let t = Instant::now();
    let mut live = start();
    let etags = warm(&mut live, inp);
    (live, etags, t.elapsed().as_secs_f64())
}

/// One repetition on a fresh server: set-up, the timed schedule.
fn rep(tr: Option<&Tracer>, inp: &Inputs) -> (Vec<Answer>, Vec<String>, f64, f64, Live) {
    let (mut live, etags, setup_s) = set_up(inp);
    let (answers, wall) = timed(|| drive(tr, &mut live, inp, &etags));
    (answers, etags, setup_s, wall, live)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let inp = inputs(ctx.seed);
    if let Some(tr) = ctx.tracer() {
        return traced(tr, &inp);
    }

    let exp = expected(&inp);
    let mut setups = Vec::new();
    let mut op_p50_ms = Vec::new();
    let mut by_class = [Class::Hit, Class::Compute, Class::Connect].map(|c| (c, Vec::new()));
    let mut digest_first = None;
    warm_up(WARM_UP_S, || rep(None, &inp).4.stop());
    let reps = repeat(ctx.seconds, 3, |_| {
        // A set-up sample is the mean over SETUP_BATCH fresh servers: the
        // repetition's own and SETUP_BATCH - 1 more, set up and stopped
        // outside the repetition's timed part.
        let extra: f64 = (1..SETUP_BATCH)
            .map(|_| {
                let (live, _, s) = set_up(&inp);
                live.stop();
                s
            })
            .sum();
        let (answers, etags, setup_s, wall, live) = rep(None, &inp);
        live.stop();
        setups.push((extra + setup_s) / SETUP_BATCH as f64);
        op_p50_ms.push(median(&answers.iter().map(|a| a.ms).collect::<Vec<_>>()));
        for (class, ms) in by_class.iter_mut() {
            ms.extend(latencies(&answers, *class));
        }
        check(&mut out, &inp, &exp, &etags, &answers);
        digest_first.get_or_insert_with(|| digest(&answers));
        wall
    });
    let rss = peak_rss_mb();
    out.set_common(&reps, &setups, &op_p50_ms, rss);
    let [(_, hit), (_, compute), (_, connect)] = &by_class;
    out.latency("hit_p50_ms", Some("hit_p99_ms"), hit);
    out.latency("compute_p50_ms", Some("compute_p99_ms"), compute);
    out.latency("connect_p50_ms", None, connect);
    // Each class's share of the clients' busy time, which is what the
    // two closed-loop clients spend of `wall_s`: it tells which class
    // drives the bounded figure.
    let busy: f64 = by_class.iter().flat_map(|(_, ms)| ms).sum();
    for ((_, ms), name) in by_class
        .iter()
        .zip(["hit_share", "compute_share", "connect_share"])
    {
        out.detail
            .push((name, ms.iter().sum::<f64>() / busy, "ratio", ms.len()));
    }
    out.digest = digest_first.expect("at least one repetition");
    out
}

/// The traced run: a warm-up and an untraced repetition for the overhead
/// baseline, a traced one with a span per request, then the layers the
/// requests go through, called directly: HTTP parse, canonical key,
/// cache lookup, `api::execute`, the one-core engine, trace generation
/// and the store.
fn traced(tr: &Tracer, inp: &Inputs) -> Outcome {
    let mut out = Outcome::default();
    rep(None, inp).4.stop();
    let (reference, _, _, untraced_s, live) = rep(None, inp);
    live.stop();
    let (answers, etags, _, traced_s, mut live) = rep(Some(tr), inp);
    let m = live.metrics();
    live.stop();
    out.layers
        .insert("bench.trace_overhead_s", traced_s - untraced_s);
    let exp = expected(inp);
    check(&mut out, inp, &exp, &etags, &answers);
    out.check(digest(&answers) == digest(&reference), || {
        "traced repetition differs from the untraced one".into()
    });

    let num = |path: &[&str]| {
        path.iter()
            .try_fold(&m, |v, k| v.get(k))
            .and_then(json::Value::as_f64)
            .unwrap_or(f64::NAN)
    };
    let (hits, misses) = (num(&["cache", "hits"]), num(&["cache", "misses"]));
    out.layers.insert("serve.hit_ratio", hits / (hits + misses));
    out.layers
        .insert("serve.rejected", num(&["requests", "rejected"]));

    // The hit path, layer by layer.
    let limits = Limits::default();
    let cache = Cache::new(config().cache_entries, config().cache_bytes);
    for (body, (resp, _)) in inp.hot.iter().zip(&exp.hot) {
        let (job, _) = api::parse_simulate(body).expect("valid body");
        let key = canonical_job(&job);
        cache.insert(&key, etag_for(&key), resp.clone());
    }
    for (i, item) in inp.schedule.iter().enumerate() {
        if let Item::Hit { hot, .. } = item {
            let op = i as u64;
            let body = &inp.hot[*hot];
            let raw = request_bytes("POST", "/v1/simulate", body.as_bytes(), &[]);
            let parsed = tr.span("serve.http.parse", op, || parse_request(&raw, &limits));
            out.check(parsed.is_ok(), || {
                format!("item {i}: request did not parse")
            });
            let key = tr.span("serve.canonical", op, || {
                let (job, _) = api::parse_simulate(body).expect("valid body");
                let key = canonical_job(&job);
                let _ = etag_for(&key);
                key
            });
            let got = tr.span("serve.cache.get", op, || cache.get(&key));
            out.check(got.is_some(), || {
                format!("item {i}: hot point missing from cache")
            });
        }
    }

    // The compute path: execute directly, and the engine under it.
    let mut one_core_events = 0u64;
    let mut overhead_ms = Vec::new();
    for (i, item) in inp.schedule.iter().enumerate() {
        if let Item::Simulate(body) = item {
            let op = i as u64;
            let (job, _) = api::parse_simulate(body).expect("valid body");
            let (_, exec_s) = timed(|| {
                tr.span("serve.execute", op, || {
                    api::execute(&job, Threads::Fixed(WORKERS), Deadline(None))
                })
            });
            if let Some(a) = answers.iter().find(|a| a.item == i) {
                overhead_ms.push(a.ms - exec_s * 1e3);
            }
            if let Job::Simulate(p) = &job {
                let r = tr.span("sim.domain1", op, || engine_call(p));
                one_core_events += r.events;
                let served = exp.simulate[i].as_ref().map(|(b, _)| b.as_str());
                let direct = format!("{{\"result\":{}}}", api::run_result_json(&r));
                out.check(served == Some(direct.as_str()), || {
                    format!("item {i}: engine result differs from the served body")
                });
            }
        }
    }
    let all = tr.spans();
    let med_ns = |name: &str| {
        median(
            &spans::durations(&all, name)
                .iter()
                .map(|&d| d as f64)
                .collect::<Vec<_>>(),
        )
    };
    out.layers
        .insert("serve.parse_ns", med_ns("serve.http.parse"));
    out.layers
        .insert("serve.canonical_ns", med_ns("serve.canonical"));
    out.layers
        .insert("serve.cache_get_ns", med_ns("serve.cache.get"));
    out.layers
        .insert("serve.execute_ms", med_ns("serve.execute") / 1e6);
    out.layers
        .insert("serve.compute_overhead_ms", median(&overhead_ms));
    let keepalive_hits: Vec<f64> = answers
        .iter()
        .filter(|a| {
            matches!(
                inp.schedule[a.item],
                Item::Hit {
                    revalidate: false,
                    ..
                }
            )
        })
        .map(|a| a.ms)
        .collect();
    out.layers.insert(
        "serve.connect_overhead_ms",
        median(&latencies(&answers, Class::Connect)) - median(&keepalive_hits),
    );
    out.layers
        .insert("sim.domain1_events", one_core_events as f64);
    out.layers.insert(
        "sim.domain1_ns_per_event",
        spans::total(&all, "sim.domain1").0 as f64 / one_core_events.max(1) as f64,
    );

    // Trace generation and the store, per uploaded trace.
    let (mut bursts, mut bytes, mut decodes) = (0u64, 0u64, 0u64);
    for (t, tc) in inp.traces.iter().enumerate() {
        let op = t as u64;
        let p = profile::by_name(tc.workload).expect("profile of a generated trace");
        let gen: Vec<Burst> = tr.span("trace.gen", op, || {
            TraceGen::new(p, tc.seed).take(TRACE_BURSTS).collect()
        });
        let packed = tr.span("store.pack", op, || pack(p.name, p.ipc, &gen));
        out.check(packed == tc.bytes, || {
            format!("trace {t}: packing is not deterministic")
        });
        let (decoded, it) = tr.span("store.decode", op, || {
            let mut it = suit_store::open_bytes(&packed)
                .expect("packed trace")
                .bursts();
            let decoded: Vec<Burst> = it.by_ref().collect();
            (decoded, it)
        });
        out.check(it.error().is_none() && decoded == gen, || {
            format!("trace {t}: decoded bursts differ from the packed ones")
        });
        decodes += it.reader().chunk_decodes();
        bursts += gen.len() as u64;
        bytes += packed.len() as u64;
    }
    let all = tr.spans();
    let mb_per_s = |name: &str| bytes as f64 / 1e6 / (spans::total(&all, name).0 as f64 / 1e9);
    out.layers.insert(
        "trace.gen_ns_per_burst",
        spans::total(&all, "trace.gen").0 as f64 / bursts as f64,
    );
    out.layers
        .insert("store.pack_mb_per_s", mb_per_s("store.pack"));
    out.layers
        .insert("store.decode_mb_per_s", mb_per_s("store.decode"));
    out.layers.insert("store.chunk_decodes", decodes as f64);
    out.digest = digest(&reference);
    out
}

/// The engine call `/v1/simulate` makes for a one-core point.
fn engine_call(p: &api::SimPoint) -> suit_sim::RunResult {
    let profile = profile::by_name(&p.workload).expect("valid workload");
    let strategy = match p.strategy.as_str() {
        "f" => OperatingStrategy::Frequency,
        "v" => OperatingStrategy::Voltage,
        _ => OperatingStrategy::FreqVolt,
    };
    let cfg = SimConfig {
        strategy,
        params: params_for(&p.cpu),
        level: p.level,
        cores: p.cores,
        seed: p.seed,
        max_insts: p.insts,
        record_timeline: false,
        adaptive: None,
    };
    simulate(&p.cpu, profile, &cfg)
}
