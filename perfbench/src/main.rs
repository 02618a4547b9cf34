//! The benchmark of record for the SUIT stack.
//!
//! ```text
//! suit-perfbench --workload <table6|serve|fleet|emulate> --seed <n>
//!                --seconds <s> --trace <0|1> [--host <json>] [--out <dir>]
//! suit-perfbench manifest
//! suit-perfbench table6-setup
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! tracing; with `--trace 1` it records spans around every call into a
//! layer and reports the per-layer metrics instead. Outputs are checked
//! after the timed phase; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is 0 only when every check passed.

mod common;
mod emulate;
mod fleet;
mod serve;
mod spans;
mod table6;

use std::collections::BTreeMap;
use std::process::ExitCode;

use common::{Ctx, Outcome};

type Runner = fn(&Ctx) -> Outcome;

/// Workloads: name, why it is in the benchmark, and its runner.
const WORKLOADS: [(&str, &str, Runner); 4] = [
    (
        "table6",
        "the paper's headline sweep; nearly all its time is the 4-core shared-domain loop",
        table6::run,
    ),
    (
        "serve",
        "the only user of HTTP parsing, the result cache, the trace store and the accept loop",
        serve::run,
    ),
    (
        "fleet",
        "the only user of the fleet epoch loop and intra-fleet sharding over short k-core slices",
        fleet::run,
    ),
    (
        "emulate",
        "the #DO handler's work: GCM over the AES kernels, decode and emulate; no simulation calls it",
        emulate::run,
    ),
];

const RUN_SECONDS: u32 = 20;

/// End-to-end metrics, reported by every workload: name, unit, better,
/// bound (share of the parent's median by which it may worsen).
const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("ok_frac", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics of the traced run (0 where the workload does not
/// reach the layer).
const PER_LAYER: [(&str, &str, &str); 48] = [
    ("trace.gen_ns_per_burst", "ns", "lower"),
    ("sim.domain1_ns_per_event", "ns", "lower"),
    ("sim.domain1_events", "count", "lower"),
    ("sim.domaink_ns_per_event", "ns", "lower"),
    ("sim.domaink_events", "count", "lower"),
    ("sim.domaink_quanta", "count", "lower"),
    ("sim.domaink_core_steps", "count", "lower"),
    ("sim.domaink_steps_per_event", "ratio", "lower"),
    ("sim.analytic_ms", "ms", "lower"),
    ("sim.row.A1_fV_s", "s", "lower"),
    ("sim.row.A4_fV_s", "s", "lower"),
    ("sim.row.Ainf_e_s", "s", "lower"),
    ("sim.row.Binf_f_s", "s", "lower"),
    ("sim.row.Binf_e_s", "s", "lower"),
    ("sim.row.Cinf_fV_s", "s", "lower"),
    ("sim.fleet_serial_s", "s", "lower"),
    ("sim.fleet_speedup", "ratio", "higher"),
    ("sim.fleet_events", "count", "lower"),
    ("exec.busy_frac", "ratio", "higher"),
    ("exec.straggler_s", "s", "lower"),
    ("store.pack_mb_per_s", "MB/s", "higher"),
    ("store.decode_mb_per_s", "MB/s", "higher"),
    ("store.chunk_decodes", "count", "lower"),
    ("serve.parse_ns", "ns", "lower"),
    ("serve.canonical_ns", "ns", "lower"),
    ("serve.cache_get_ns", "ns", "lower"),
    ("serve.hit_ratio", "ratio", "higher"),
    ("serve.execute_ms", "ms", "lower"),
    ("serve.compute_overhead_ms", "ms", "lower"),
    ("serve.connect_overhead_ms", "ms", "lower"),
    ("serve.rejected", "count", "lower"),
    ("emu.aes_x4_blocks_per_s", "1/s", "higher"),
    ("emu.aes_x8_blocks_per_s", "1/s", "higher"),
    ("emu.ghash_ns_per_block", "ns", "lower"),
    ("emu.gcm_mb_per_s", "MB/s", "higher"),
    ("emu.emulate_ns.aes", "ns", "lower"),
    ("emu.emulate_ns.clmul", "ns", "lower"),
    ("emu.emulate_ns.simd", "ns", "lower"),
    ("isa.decode_ns", "ns", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
    ("bench.spans", "count", "lower"),
    ("trace.self_ms", "ms", "lower"),
    ("sim.self_ms", "ms", "lower"),
    ("exec.self_ms", "ms", "lower"),
    ("store.self_ms", "ms", "lower"),
    ("serve.self_ms", "ms", "lower"),
    ("emu.self_ms", "ms", "lower"),
    ("isa.self_ms", "ms", "lower"),
];

fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why, _)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\", \"bound\": {bound}}}")
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    host: String,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut m: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--host" | "--out" => flag.as_str(),
            other => return Err(format!("unknown argument '{other}'")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        m.insert(key, value);
    }
    let get = |k: &str| m.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        },
        host: m.get("--host").copied().unwrap_or("{}").to_string(),
        out: m.get("--out").map(|s| s.to_string()),
    })
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest());
            return ExitCode::SUCCESS;
        }
        Some(table6::SETUP_CMD) => {
            println!("{}", table6::cold_setup());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: suit-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--host <json>] [--out <dir>]",
                WORKLOADS.map(|w| w.0).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(&(name, _, runner)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!("error: unknown workload '{}'", args.workload);
        return ExitCode::from(2);
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: args.trace.then(spans::Tracer::new),
    };
    let mut out = runner(&ctx);

    let mut report = vec![format!(
        "workload {name} seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )];
    report.push(format!("host {}", args.host));
    let metrics: Vec<(&str, f64, &str)> = if let Some(tr) = &ctx.tracer {
        let all = tr.spans();
        report.push("layer      spans   self_ms   share".into());
        let table = spans::layer_table(&all);
        let total: u64 = table.iter().map(|r| r.2).sum();
        for (layer, n, ns) in &table {
            report.push(format!(
                "{layer:<8} {n:>7} {:>9.1} {:>6.1}%",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / total.max(1) as f64
            ));
            if let Some(name) = PER_LAYER
                .iter()
                .map(|m| m.0)
                .find(|m| m.strip_suffix(".self_ms") == Some(layer))
            {
                out.layers.insert(name, *ns as f64 / 1e6);
            }
        }
        out.layers.insert("bench.spans", all.len() as f64);
        let chrome = spans::chrome_json(&all);
        let valid = suit_telemetry::validate_perfetto(&chrome);
        out.check(valid.is_ok(), || format!("span export invalid: {valid:?}"));
        if let Some(dir) = &args.out {
            let path = format!("{dir}/spans-{name}-s{}.json", args.seed);
            let written = std::fs::write(&path, &chrome);
            out.check(written.is_ok(), || {
                format!("cannot write {path}: {written:?}")
            });
            report.push(format!("spans written to {path}"));
        }
        PER_LAYER
            .iter()
            .map(|&(m, unit, _)| (m, out.layers.get(m).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
        out.e2e.insert("ok_frac", 1.0 - failed_frac);
        out.detail
            .push(("failed_frac", failed_frac, "ratio", out.attempted as usize));
        END_TO_END
            .iter()
            .map(|&(m, unit, _, _)| (m, out.e2e.get(m).copied().unwrap_or(f64::NAN), unit))
            .collect()
    };
    for (m, v, unit) in &metrics {
        report.push(format!("{m} = {} {unit}", num(*v)));
    }
    for (m, v, unit, n) in &out.detail {
        report.push(format!("{m} = {} {unit} (n={n})", num(*v)));
    }
    report.push(format!("digest {}", out.digest));
    report.extend(out.notes.iter().cloned());
    let correct = out.failed == 0 && out.attempted > 0 && metrics.iter().all(|m| m.1.is_finite());
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(m, v, u)| format!("\"{m}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    let last = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json.join(", ")
    );
    if let Some(dir) = &args.out {
        let details: Vec<String> = out
            .detail
            .iter()
            .map(|(m, v, u, n)| {
                format!(
                    "\"{m}\": {{\"value\": {}, \"unit\": \"{u}\", \"n\": {n}}}",
                    num(*v)
                )
            })
            .collect();
        let series: Vec<String> = out
            .series
            .iter()
            .map(|(m, v)| {
                let v: Vec<String> = v.iter().map(|x| num(*x)).collect();
                format!("\"{m}\": [{}]", v.join(", "))
            })
            .collect();
        let doc = format!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
             \"digest\": \"{}\", \"detail\": {{{}}}, \"series\": {{{}}}, \"result\": {last}}}\n",
            args.seed,
            args.seconds,
            u8::from(args.trace),
            args.host,
            out.digest,
            details.join(", "),
            series.join(", ")
        );
        let path = format!("{dir}/{name}-s{}-t{}.json", args.seed, u8::from(args.trace));
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("error: cannot write {path}: {e}");
        }
    }
    for line in report {
        println!("{line}");
    }
    println!("{last}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
