//! `table6`: the full Table 6 sweep through `run_table6` at two workers,
//! with every workload trace capped at [`CAP`] instructions.

use std::hint::black_box;

use suit_core::OperatingStrategy;
use suit_exec::Threads;
use suit_hw::UndervoltLevel;
use suit_sim::analytic::{simulate_emulation, simulate_no_simd};
use suit_sim::experiment::{
    params_for, run_row_with_params_threads, run_table6, table6_rows, RowResult,
};
use suit_sim::{simulate_telemetry, RunResult, SimConfig};
use suit_telemetry::{Counter, Telemetry};
use suit_trace::{profile, TraceGen};

use crate::common::{peak_rss_mb, repeat, timed, warm_up, Ctx, Digest, Outcome, WARM_UP_S};
use crate::spans::{self, Tracer};

/// Per-workload instruction cap of the sweep.
pub const CAP: u64 = 50_000_000;

/// Workers of the sweep's fan-out.
const WORKERS: usize = 2;

/// The paper's −97 mV SPEC-gmean efficiency column of Table 6, in %, in
/// `table6_rows` order (EXPERIMENTS.md, "Table 6 — headline evaluation").
const PAPER_EFF_97: [f64; 6] = [12.0, 5.8, -34.0, 1.4, -14.0, 11.0];

/// Largest mean deviation from the paper column that still counts as a
/// faithful sweep, in percentage points.
const MAX_EFF_ERR_PP: f64 = 5.0;

/// Seed the sweep uses for every workload (fixed inside `experiment`).
const SWEEP_SEED: u64 = 0x5017;

fn sweep() -> Vec<RowResult> {
    run_table6(Threads::Fixed(WORKERS), Some(CAP))
}

/// Mean |measured − paper| over the six −97 mV SPEC-gmean efficiency cells.
pub fn eff_err_pp(rows: &[RowResult]) -> f64 {
    let measured: Vec<f64> = rows
        .iter()
        .filter(|r| r.level == UndervoltLevel::Mv97)
        .map(|r| r.spec_gmean().eff * 100.0)
        .collect();
    assert_eq!(measured.len(), PAPER_EFF_97.len(), "six rows at -97 mV");
    measured
        .iter()
        .zip(PAPER_EFF_97)
        .map(|(m, p)| (m - p).abs())
        .sum::<f64>()
        / measured.len() as f64
}

/// Subcommand that times [`cold_setup`] in a process of its own.
pub const SETUP_CMD: &str = "table6-setup";

/// Set-up of the sweep in a fresh process, in seconds: the first
/// `profile::all()` builds the 25 workload profiles (later calls return
/// the cached table), then the row table and each row's parameters.
pub fn cold_setup() -> f64 {
    let (_, s) = timed(|| {
        black_box(profile::all());
        for spec in table6_rows() {
            black_box(params_for(&spec.cpu));
        }
    });
    s
}

/// One set-up sample: [`cold_setup`] run in a child process of this
/// benchmark, which prints its own timing.
fn setup() -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let out = std::process::Command::new(exe)
        .arg(SETUP_CMD)
        .output()
        .expect("run the set-up child");
    assert!(out.status.success(), "set-up child failed: {out:?}");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("set-up child prints seconds")
}

pub fn run(ctx: &Ctx) -> Outcome {
    // The sweep takes no input: the seed cannot change it.
    let _ = ctx.seed;
    if let Some(tr) = ctx.tracer() {
        return traced(tr);
    }
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut first: Option<Vec<RowResult>> = None;
    warm_up(WARM_UP_S, || drop(sweep()));
    let reps = repeat(ctx.seconds, 3, |_| {
        setups.push(setup());
        let (rows, s) = timed(sweep);
        let first = first.get_or_insert_with(|| rows.clone());
        for (a, b) in rows.iter().zip(first.iter()) {
            out.check(a == b, || {
                format!("{} differs between repetitions", a.label)
            });
        }
        s
    });
    let rss = peak_rss_mb();
    let op_ms: Vec<f64> = reps.walls.iter().map(|s| s * 1e3).collect();
    out.set_common(&reps, &setups, &op_ms, rss);

    let first = first.expect("at least one repetition");
    let err = eff_err_pp(&first);
    out.check(err <= MAX_EFF_ERR_PP, || {
        format!("table6_eff_err_pp {err:.3} exceeds {MAX_EFF_ERR_PP}")
    });
    out.detail.push(("table6_eff_err_pp", err, "pp", 6));
    out.digest = digest(&first);
    out
}

fn digest(rows: &[RowResult]) -> String {
    let mut d = Digest::new();
    for r in rows {
        d.add(format!("{r:?}").as_bytes());
    }
    d.hex()
}

/// The traced run: a warm-up sweep, an untraced sweep for the overhead
/// baseline, then the sweep taken apart call by call — trace generation,
/// every row at one worker through the engine entry points, and the
/// two-worker fan-out, whose time less the untraced sweep's is the
/// tracing overhead.
fn traced(tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let out = &mut out;
    sweep();
    let (reference, untraced_s) = timed(sweep);
    let rows = table6_rows();
    let cells: Vec<_> = UndervoltLevel::ALL
        .iter()
        .flat_map(|&level| rows.iter().map(move |spec| (spec, level)))
        .collect();

    {
        // Trace generation, once per workload at the cap.
        let mut bursts = 0u64;
        for (i, p) in profile::all().iter().enumerate() {
            bursts += tr.span("trace.gen", i as u64, || {
                let mut insts = 0u64;
                TraceGen::new(p, SWEEP_SEED)
                    .take_while(|b| {
                        insts += b.total_insts();
                        insts <= CAP
                    })
                    .count() as u64
            });
        }
        out.layers
            .insert("trace.gen_ns_per_burst", ns_per(tr, "trace.gen", bursts));

        // Every (level, row) cell at one worker, one span per engine call.
        let mut k = KCounts::default();
        let mut one_core_events = 0u64;
        for (cell, (spec, level)) in cells.iter().enumerate() {
            let op = cell as u64;
            let name = format!("sim.row.{}", spec.label.replace(' ', "_"));
            let row = tr.span(&name, op, || {
                let params = params_for(&spec.cpu);
                let per_workload: Vec<RunResult> = profile::all()
                    .iter()
                    .map(|p| match spec.strategy {
                        OperatingStrategy::Emulation => tr.span("sim.analytic", op, || {
                            simulate_emulation(&spec.cpu, p, *level, SWEEP_SEED, Some(CAP))
                        }),
                        strategy => {
                            let cfg = SimConfig {
                                strategy,
                                params,
                                level: *level,
                                cores: spec.cores,
                                seed: SWEEP_SEED,
                                max_insts: Some(CAP),
                                record_timeline: false,
                                adaptive: None,
                            };
                            let tele = Telemetry::with_capacity(1);
                            let span = if spec.cores == 1 {
                                "sim.domain1"
                            } else {
                                "sim.domaink"
                            };
                            let r =
                                tr.span(span, op, || simulate_telemetry(&spec.cpu, p, &cfg, &tele));
                            if spec.cores == 1 {
                                one_core_events += r.events;
                            } else {
                                let snap = tele.snapshot();
                                k.events += r.events;
                                k.quanta += snap.counter(Counter::EngineQuanta);
                                k.steps += snap.counter(Counter::CoreSteps);
                            }
                            r
                        }
                    })
                    .collect();
                let no_simd = profile::spec_suite()
                    .map(|p| {
                        tr.span("sim.analytic", op, || {
                            simulate_no_simd(&spec.cpu, p, *level, Some(CAP))
                        })
                    })
                    .collect();
                RowResult {
                    label: spec.label,
                    level: *level,
                    per_workload,
                    no_simd,
                }
            });
            out.check(row == reference[cell], || {
                format!(
                    "{} {level:?}: engine calls differ from run_table6",
                    spec.label
                )
            });
        }
        out.layers
            .insert("sim.domain1_events", one_core_events as f64);
        out.layers.insert(
            "sim.domain1_ns_per_event",
            ns_per(tr, "sim.domain1", one_core_events),
        );
        k.insert(tr, "sim.domaink", out);
        out.layers.insert(
            "sim.analytic_ms",
            spans::total(&tr.spans(), "sim.analytic").0 as f64 / 1e6,
        );
        for spec in &rows {
            let label = spec.label.replace(' ', "_");
            let (ns, _) = spans::total(&tr.spans(), &format!("sim.row.{label}"));
            out.layers.insert(row_metric(&label), ns as f64 / 1e9);
        }

        // The fan-out itself: which worker ran which cell, and for how long.
        let fanned = tr.span("exec.fanout", 0, || {
            let parent = tr.current();
            suit_exec::run(cells.len(), Threads::Fixed(WORKERS), |i| {
                let (spec, level) = cells[i];
                tr.span_under(parent, "sim.cell", i as u64, || {
                    run_row_with_params_threads(
                        spec,
                        level,
                        params_for(&spec.cpu),
                        Some(CAP),
                        Threads::Fixed(1),
                    )
                })
            })
        });
        out.check(fanned == reference, || {
            "fan-out differs from run_table6".into()
        });
        fanout_metrics(tr, WORKERS, out);
    }
    let (fanout_ns, _) = spans::total(&tr.spans(), "exec.fanout");
    out.layers.insert(
        "bench.trace_overhead_s",
        fanout_ns as f64 / 1e9 - untraced_s,
    );
    out.digest = digest(&reference);
    out.detail
        .push(("table6_eff_err_pp", eff_err_pp(&reference), "pp", 6));
    std::mem::take(out)
}

/// Shared-domain engine counters summed over the traced calls.
#[derive(Default)]
pub struct KCounts {
    pub events: u64,
    pub quanta: u64,
    pub steps: u64,
}

impl KCounts {
    /// Inserts the `sim.domaink_*` metrics; `span` names the spans whose
    /// total time the events were simulated in.
    pub fn insert(&self, tr: &Tracer, span: &str, out: &mut Outcome) {
        out.layers.insert("sim.domaink_events", self.events as f64);
        out.layers.insert("sim.domaink_quanta", self.quanta as f64);
        out.layers
            .insert("sim.domaink_core_steps", self.steps as f64);
        out.layers.insert(
            "sim.domaink_steps_per_event",
            self.steps as f64 / self.events.max(1) as f64,
        );
        out.layers
            .insert("sim.domaink_ns_per_event", ns_per(tr, span, self.events));
    }
}

/// Total time of the spans named `name` per unit of `count`, in ns.
pub fn ns_per(tr: &Tracer, name: &str, count: u64) -> f64 {
    let (ns, _) = spans::total(&tr.spans(), name);
    if count == 0 {
        0.0
    } else {
        ns as f64 / count as f64
    }
}

/// `exec.busy_frac` and `exec.straggler_s` from the `exec.fanout` span
/// and the per-cell spans under it.
fn fanout_metrics(tr: &Tracer, workers: usize, out: &mut Outcome) {
    let all = tr.spans();
    let Some(fan) = all.iter().find(|s| s.name == "exec.fanout") else {
        return;
    };
    let jobs: Vec<_> = all.iter().filter(|s| s.parent == fan.id).collect();
    let busy: u64 = jobs.iter().map(|s| s.dur_ns()).sum();
    let mut last_end = std::collections::BTreeMap::new();
    for j in &jobs {
        let e = last_end.entry(j.tid).or_insert(0);
        *e = (*e).max(j.end_ns);
    }
    let first_idle = last_end.values().copied().min().unwrap_or(fan.end_ns);
    out.layers.insert(
        "exec.busy_frac",
        busy as f64 / (workers as f64 * fan.dur_ns() as f64),
    );
    out.layers.insert(
        "exec.straggler_s",
        fan.end_ns.saturating_sub(first_idle) as f64 / 1e9,
    );
}

/// The `sim.row.*` metric name for a row label with `_` for spaces.
fn row_metric(label: &str) -> &'static str {
    match label {
        "A1_fV" => "sim.row.A1_fV_s",
        "A4_fV" => "sim.row.A4_fV_s",
        "Ainf_e" => "sim.row.Ainf_e_s",
        "Binf_f" => "sim.row.Binf_f_s",
        "Binf_e" => "sim.row.Binf_e_s",
        "Cinf_fV" => "sim.row.Cinf_fV_s",
        other => panic!("unknown Table 6 row {other}"),
    }
}
