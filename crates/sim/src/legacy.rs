//! The original engine loop, kept as the one reference implementation
//! (oracle) for the differential equivalence suite
//! (`tests/engine_equivalence.rs`).
//!
//! The production engine ([`crate::arena`]) batches lone-core strides and
//! scans flat arrays over a reusable live set; this module selects every
//! event with the original linear scan over the unfinished cores plus the
//! timer and pending slots. Both share the *identical* boot, per-quantum
//! advancement, and event-dispatch code from [`crate::engine`], so any
//! divergence — in results or in telemetry counters — is a scheduling
//! bug, which is exactly what the suite exists to catch. Not part of the
//! supported API: the adapters in [`crate::engine`] are the only
//! production entry points.

use suit_hw::CpuModel;
use suit_isa::{SimDuration, SimTime};
use suit_telemetry::{Counter, Telemetry};
use suit_trace::io::TraceMeta;
use suit_trace::{Burst, WorkloadProfile};

use crate::engine::{
    boot, build_cores, build_stream_core, collect, dispatch_event, CoreArena, CoreStream,
    MixedResult, NextEvent, SimConfig,
};
use crate::result::RunResult;

/// Reference [`crate::engine::simulate`]: the legacy scan loop.
pub fn simulate(cpu: &CpuModel, profile: &WorkloadProfile, cfg: &SimConfig) -> RunResult {
    let profiles: Vec<&WorkloadProfile> = (0..cfg.cores).map(|_| profile).collect();
    simulate_mixed_telemetry(cpu, &profiles, cfg, &Telemetry::off()).domain
}

/// Reference [`crate::engine::simulate_mixed`]: the legacy scan loop.
pub fn simulate_mixed(
    cpu: &CpuModel,
    profiles: &[&WorkloadProfile],
    cfg: &SimConfig,
) -> MixedResult {
    simulate_mixed_telemetry(cpu, profiles, cfg, &Telemetry::off())
}

/// Reference [`crate::engine::simulate_mixed_telemetry`]: the legacy
/// scan loop, recording through `tele`. A single-profile run is the
/// mix of `cfg.cores` copies of that profile.
pub fn simulate_mixed_telemetry(
    cpu: &CpuModel,
    profiles: &[&WorkloadProfile],
    cfg: &SimConfig,
    tele: &Telemetry,
) -> MixedResult {
    let (cores, workload) = build_cores(cpu, profiles, cfg);
    run_cores_legacy(cpu, cores, workload, cfg, tele).0
}

/// Reference [`crate::engine::run_stream`]: the legacy scan loop.
pub fn run_stream<I>(cpu: &CpuModel, meta: &TraceMeta, bursts: I, cfg: &SimConfig) -> RunResult
where
    I: IntoIterator<Item = Burst>,
{
    let core = build_stream_core(cpu, meta, bursts.into_iter(), cfg);
    run_cores_legacy(cpu, vec![core], meta.name.clone(), cfg, &Telemetry::off())
        .0
        .domain
}

/// The original event loop: per-iteration linear scan for the earliest
/// next event with tie priority pending → timer → lowest core index.
fn run_cores_legacy<I: Iterator<Item = Burst>>(
    cpu: &CpuModel,
    mut cores: Vec<CoreStream<I>>,
    workload: String,
    cfg: &SimConfig,
    tele: &Telemetry,
) -> (MixedResult, Option<Vec<crate::engine::PointChange>>) {
    assert!(!cores.is_empty(), "need at least one core");
    let (mut hw, mut os) = boot(cpu, cfg, tele);
    // The reference loop builds a private arena per run (no scratch
    // reuse): storage is shared with production, scheduling is not.
    let mut arena = CoreArena::default();
    arena.reset(&mut cores, tele);

    let mut guard: u64 = 0;

    loop {
        guard += 1;
        assert!(guard < 2_000_000_000, "simulation failed to converge");

        if (0..cores.len()).all(|i| arena.finished(i)) {
            break;
        }

        let perf = hw.perf();

        // Find the earliest next event. Priority on ties:
        // pending arrival, then timer, then core events.
        let mut t_next = SimTime::from_picos(u64::MAX);
        let mut kind = NextEvent::Idle;
        for i in 0..cores.len() {
            if arena.finished(i) {
                continue;
            }
            let t = hw.now + SimDuration::from_secs_f64(arena.rem_next(i) / (arena.rate[i] * perf));
            if t < t_next {
                t_next = t;
                kind = NextEvent::Core(i);
            }
        }
        if let Some(t) = hw.timer.expires_at() {
            if t <= t_next {
                t_next = t;
                kind = NextEvent::Timer;
            }
        }
        if let Some((_, t)) = hw.pending {
            if t <= t_next {
                t_next = t;
                kind = NextEvent::Pending;
            }
        }

        // Advance execution to the event. Finished (idle-parked) cores
        // are skipped and not counted: one quantum per non-zero `dt`,
        // one core step per unfinished core — the counters the arena
        // engine must reproduce, batched fast path included.
        let dt = t_next.saturating_since(hw.now);
        if !dt.is_zero() {
            let mut steps = 0;
            for i in 0..cores.len() {
                if arena.finished(i) {
                    continue;
                }
                let insts = arena.rate[i] * perf * dt.as_secs_f64();
                arena.advance(i, insts);
                steps += 1;
            }
            tele.count(Counter::EngineQuanta);
            tele.add(Counter::CoreSteps, steps);
            hw.run_for(dt);
        }

        dispatch_event(kind, &mut arena, &mut cores, &mut hw, &mut os, tele);
    }

    collect(&cores, &arena, hw, &os, workload)
}
