//! `fleet`: a few seeded `FleetSim::run` fleets at two threads, CPU 𝒜
//! four-core DVFS domains running a mixed set of workloads.

use std::hint::black_box;

use suit_core::OperatingStrategy;
use suit_exec::Threads;
use suit_hw::UndervoltLevel;
use suit_rng::{Rng, SuitRng};
use suit_sim::fleet::{FleetConfig, FleetResult, FleetSim};
use suit_telemetry::Counter;

use crate::common::{
    median, peak_rss_mb, repeat, setup_sample, timed, warm_up, Ctx, Digest, Outcome, WARM_UP_S,
};
use crate::spans::{self, Tracer};
use crate::table6::KCounts;

const FLEETS: usize = 3;
const FLEET_SEED: u64 = 0x5017;
const THREADS: usize = 2;
/// Eight workloads over sixteen domains: every workload runs on two
/// domains whatever order the seed puts them in.
const MIX: [&str; 8] = [
    "502.gcc",
    "Nginx",
    "557.xz",
    "519.lbm",
    "520.omnetpp",
    "VLC",
    "525.x264",
    "505.mcf",
];

/// The fleets. Every input is fixed — topology, the workload of each
/// domain (fleet `i` rotates the mix by `3i`) and each fleet's root seed,
/// from which every domain's trace and every epoch's slice seed fork:
/// over slices this short, another root seed changes the simulated work
/// by up to ±15 %, which would swamp the timings.
fn configs() -> Vec<FleetConfig> {
    let root = SuitRng::seed_from_u64(FLEET_SEED);
    (0..FLEETS)
        .map(|i| {
            let mut rng = root.fork(i as u64);
            let mut workloads: Vec<String> = MIX.iter().map(|s| s.to_string()).collect();
            workloads.rotate_left(3 * i);
            FleetConfig {
                cpu: 'a',
                strategy: OperatingStrategy::FreqVolt,
                level: UndervoltLevel::Mv97,
                racks: 2,
                domains_per_rack: 8,
                cores_per_domain: 4,
                epochs: 4,
                epoch_insts: 5_000_000,
                seed: rng.u64(),
                workloads,
                ..FleetConfig::default()
            }
        })
        .collect()
}

fn build(cfgs: &[FleetConfig]) -> Vec<FleetSim> {
    cfgs.iter()
        .map(|c| FleetSim::new(c.clone()).expect("benchmark fleet configs are valid"))
        .collect()
}

fn digest(results: &[FleetResult]) -> String {
    let mut d = Digest::new();
    for r in results {
        d.add(format!("{r:?}").as_bytes());
    }
    d.hex()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    // The fleets take no input: the seed cannot change them.
    let _ = ctx.seed;
    let cfgs = configs();
    let fleets = build(&cfgs);
    if let Some(tr) = ctx.tracer() {
        return traced(tr, &fleets);
    }

    let mut setups = Vec::new();
    let mut fleet_p50_ms = Vec::new();
    let mut first: Option<Vec<FleetResult>> = None;
    let run_all = |times: &mut Vec<f64>| {
        fleets
            .iter()
            .map(|f| {
                let (r, s) = timed(|| f.run(Threads::Fixed(THREADS)));
                times.push(s * 1e3);
                r
            })
            .collect::<Vec<_>>()
    };
    warm_up(WARM_UP_S, || drop(run_all(&mut Vec::new())));
    let reps = repeat(ctx.seconds, 3, |_| {
        setups.push(setup_sample(5, || {
            black_box(build(&cfgs));
        }));
        let mut times = Vec::new();
        let (rep, s) = timed(|| run_all(&mut times));
        fleet_p50_ms.push(median(&times));
        let first = first.get_or_insert_with(|| rep.clone());
        for (i, (a, b)) in rep.iter().zip(first.iter()).enumerate() {
            out.check(a == b, || format!("fleet {i} differs between repetitions"));
        }
        s
    });
    let rss = peak_rss_mb();
    out.set_common(&reps, &setups, &fleet_p50_ms, rss);
    let first = first.expect("at least one repetition");
    // The sharded result must equal the serial one.
    let serial = fleets[0].run(Threads::Fixed(1));
    out.check(serial == first[0], || {
        "fleet 0: 2-thread result != serial result".into()
    });
    out.digest = digest(&first);
    out
}

/// The traced run: a warm-up and an untraced repetition for the overhead
/// baseline, then every fleet at two threads with engine counters, and serially.
fn traced(tr: &Tracer, fleets: &[FleetSim]) -> Outcome {
    let mut out = Outcome::default();
    let run_all = || {
        fleets
            .iter()
            .map(|f| f.run(Threads::Fixed(THREADS)))
            .collect::<Vec<_>>()
    };
    run_all();
    let (reference, untraced_s) = timed(run_all);
    let mut k = KCounts::default();
    let (_, traced_s) = timed(|| {
        for (i, f) in fleets.iter().enumerate() {
            let (r, snap) = tr.span("sim.fleet", i as u64, || {
                f.run_with_telemetry(Threads::Fixed(THREADS))
            });
            k.events += r.events();
            k.quanta += snap.counter(Counter::EngineQuanta);
            k.steps += snap.counter(Counter::CoreSteps);
            out.check(r == reference[i], || {
                format!("fleet {i}: traced run differs")
            });
        }
    });
    out.layers
        .insert("bench.trace_overhead_s", traced_s - untraced_s);
    for (i, f) in fleets.iter().enumerate() {
        let r = tr.span("sim.fleet_serial", i as u64, || f.run(Threads::Fixed(1)));
        out.check(r == reference[i], || {
            format!("fleet {i}: 2-thread result != serial result")
        });
    }
    let all = tr.spans();
    let serial_s = spans::total(&all, "sim.fleet_serial").0 as f64 / 1e9;
    let speedup = serial_s / untraced_s;
    k.insert(tr, "sim.fleet_serial", &mut out);
    out.layers.insert("sim.fleet_serial_s", serial_s);
    out.layers.insert("sim.fleet_speedup", speedup);
    out.layers.insert("sim.fleet_events", k.events as f64);
    // Sharding happens inside `FleetSim`, out of the spans' reach: the
    // busy share is the parallel efficiency the speed-up implies.
    out.layers
        .insert("exec.busy_frac", speedup / THREADS as f64);
    out.digest = digest(&reference);
    out
}
