//! Shared plumbing: run context, repetition loop, order statistics,
//! output digests and the process's peak resident memory.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::spans::Tracer;

/// What one workload run is asked to do.
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Present in the traced run only.
    pub tracer: Option<Tracer>,
}

impl Ctx {
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }
}

/// What a workload run reports back.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run): name → value.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Workload-specific end-to-end figures: name → (value, unit, samples).
    pub detail: Vec<(&'static str, f64, &'static str, usize)>,
    /// Per-layer metrics (traced run): name → value.
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed (errors, refusals, failed checks).
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the simulated outputs: equal inputs give an equal digest.
    pub digest: String,
    /// Free-form lines for the report.
    pub notes: Vec<String>,
    /// Per-repetition series for the result document.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(format!("check failed: {}", what()));
            }
        }
    }

    /// Sets the generic end-to-end metrics shared by every workload from
    /// per-repetition figures: wall times, set-up times, and the median
    /// latency of the repetition's operations.
    ///
    /// The host's vCPUs are shared with other tenants, whose load changes
    /// its speed for the same job by up to 2× from one minute to the next.
    /// So each repetition's wall time and latency are scaled by the probe
    /// run around it ([`Reps::scaled`]) before the median is taken; the
    /// unscaled median, the fastest repetition and the probe time go to
    /// the detail figures. Set-up samples, one per repetition and taken
    /// between the same two probes, are scaled the same way.
    pub fn set_common(&mut self, reps: &Reps, setups_s: &[f64], op_p50s_ms: &[f64], rss_mb: f64) {
        let walls_s = &reps.walls;
        self.series.push(("rep_wall_s", walls_s.clone()));
        self.series.push(("rep_probe_s", reps.probes.clone()));
        self.series.push(("rep_op_p50_ms", op_p50s_ms.to_vec()));
        self.series.push(("rep_setup_s", setups_s.to_vec()));
        self.e2e.insert("wall_s", median(&reps.scaled(walls_s)));
        self.e2e.insert("setup_s", median(&reps.scaled(setups_s)));
        self.e2e
            .insert("op_p50_ms", median(&reps.scaled(op_p50s_ms)));
        self.e2e.insert("peak_rss_mb", rss_mb);
        let n = walls_s.len();
        self.detail.push(("reps", n as f64, "count", n));
        self.detail.push(("wall_raw_s", median(walls_s), "s", n));
        self.detail
            .push(("wall_min_s", percentile(walls_s, 0.0), "s", n));
        self.detail
            .push(("op_p50_raw_ms", median(op_p50s_ms), "ms", n));
        self.detail
            .push(("setup_raw_s", median(setups_s), "s", setups_s.len()));
        self.detail.push((
            "probe_ms",
            median(&reps.probes) * 1e3,
            "ms",
            reps.probes.len(),
        ));
        self.notes.push(format!(
            "repetition wall s: min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}",
            percentile(walls_s, 0.0),
            percentile(walls_s, 0.25),
            median(walls_s),
            percentile(walls_s, 0.75),
            percentile(walls_s, 1.0)
        ));
    }

    /// Adds the p50 and p99 of a latency class to the detail figures.
    pub fn latency(&mut self, p50: &'static str, p99: Option<&'static str>, ms: &[f64]) {
        self.detail
            .push((p50, percentile(ms, 0.50), "ms", ms.len()));
        if let Some(p99) = p99 {
            self.detail
                .push((p99, percentile(ms, 0.99), "ms", ms.len()));
        }
    }
}

/// Repeats `rep` (which returns its own wall time in seconds) until the
/// timed phase is used up: at least `min_reps` times, and no new
/// repetition starts once the next one would likely end past the budget.
/// Before the first repetition and after each one it runs [`probe`].
pub fn repeat(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize) -> f64) -> Reps {
    let start = Instant::now();
    let mut reps = Reps {
        walls: Vec::new(),
        probes: vec![probe()],
    };
    loop {
        reps.walls.push(rep(reps.walls.len()));
        reps.probes.push(probe());
        let used = start.elapsed().as_secs_f64();
        let next = median(&reps.walls);
        if reps.walls.len() >= min_reps && used + next > seconds {
            return reps;
        }
    }
}

/// Wall times of the repetitions, and the probe times around them (one
/// more than there are repetitions).
pub struct Reps {
    pub walls: Vec<f64>,
    pub probes: Vec<f64>,
}

impl Reps {
    /// `per_rep` (one figure per repetition) scaled to the host speed at
    /// which the probe takes [`PROBE_REF_S`]: each figure times
    /// `PROBE_REF_S` over the mean of the probes before and after its
    /// repetition.
    pub fn scaled(&self, per_rep: &[f64]) -> Vec<f64> {
        per_rep
            .iter()
            .zip(self.probes.windows(2))
            .map(|(v, p)| v * PROBE_REF_S / ((p[0] + p[1]) / 2.0))
            .collect()
    }
}

/// Rounds of the probe; each advances eight independent xorshift lanes.
const PROBE_ROUNDS: u64 = 200_000;

/// The probe time that scaled timings refer to: 1 ms, a little above its
/// median on a 2-vCPU Xeon host shared with other tenants (0.8–0.95 ms).
pub const PROBE_REF_S: f64 = 1.0e-3;

/// How fast the shared host's cores run the benchmark's threads around
/// each repetition, in seconds: two threads (every workload keeps both
/// vCPUs busy) each time their own run of a fixed piece of integer work,
/// and the probe is the mean of the two times. Each thread times only its
/// work, so thread start-up and scheduling delays, which weigh on a 1 ms
/// fork-join but not on a repetition, stay out of it. The probe is the
/// benchmark's own code and runs while no thread of the program under
/// test is alive, so no change to the program can move it. Eight
/// independent lanes keep the core's execution ports busy, so a busy
/// sibling hyperthread slows it as it slows the workloads.
pub fn probe() -> f64 {
    let work = |seed: u64| {
        let t = Instant::now();
        let mut x: [u64; 8] = std::hint::black_box(std::array::from_fn(|i| seed + i as u64));
        for _ in 0..PROBE_ROUNDS {
            for v in &mut x {
                *v ^= *v << 13;
                *v ^= *v >> 7;
                *v ^= *v << 17;
            }
        }
        std::hint::black_box(x);
        t.elapsed().as_secs_f64()
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(move || work(1));
        let b = s.spawn(move || work(2));
        (
            a.join().expect("probe thread panicked"),
            b.join().expect("probe thread panicked"),
        )
    });
    (a + b) / 2.0
}

/// Length of the untimed warm-up before a timed phase, in seconds.
pub const WARM_UP_S: f64 = 1.0;

/// Runs `f` untimed until `seconds` have passed (at least once), so the
/// timed phase starts with warm caches and busy cores.
pub fn warm_up(seconds: f64, mut f: impl FnMut()) {
    let start = Instant::now();
    loop {
        f();
        if start.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

/// Times `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated percentile (`q` in 0..=1); 0 for an empty slice.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// FNV-1a 64-bit over everything written into it.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One set-up sample: the mean cost of `batch` calls of `f`, in seconds
/// per call (set-up steps take microseconds, so a sample times a batch).
/// Workloads take one before each repetition, so the samples spread over
/// the run like the repetitions do.
pub fn setup_sample(batch: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..batch {
        f();
    }
    t.elapsed().as_secs_f64() / batch as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::new();
        a.add(b"ab");
        a.add(b"c");
        let mut b = Digest::new();
        b.add(b"a");
        b.add(b"bc");
        assert_ne!(a.hex(), b.hex());
    }
}
