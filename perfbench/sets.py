#!/usr/bin/env python3
"""Runs sets of benchmark runs and compares two sets.

    python3 perfbench/sets.py run --out A.json [--workloads table6,serve] [--seeds 1-10]
    python3 perfbench/sets.py compare A.json B.json

`run` runs every workload once per seed (untraced) through run.py and
stores each metric's values, median and spread — the distance between
the first and third quartile as a share of the median — plus each run's
output digest and the host stamp.

`compare` checks set B against set A. When both come from the same host
(CPU model, nproc, rustc, profile) it fails if a metric's spread exceeds
its bound, if a median is worse than A's by more than
its bound, or if the digests of equal seeds differ. Sets from different
hosts are compared by ratio only and never against bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Workload-specific end-to-end figures (reported beside the metrics of
# BENCHMARK.json): name -> (better, bound); bound None means report only.
DETAIL = {
    "table6_eff_err_pp": ("lower", 0.0),
    "hit_p50_ms": ("lower", 0.25),
    "hit_p99_ms": ("lower", None),
    "compute_p50_ms": ("lower", 0.25),
    "compute_p99_ms": ("lower", None),
    "connect_p50_ms": ("lower", 0.25),
    "record_p50_ms": ("lower", 0.25),
    "record_p99_ms": ("lower", None),
    "failed_frac": ("lower", 0.0),
}
HOST_KEYS = ("cpu", "nproc", "rustc", "profile")


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
    spread = (q[2] - q[0]) / med if med else 0.0
    return {"values": values, "median": med, "spread": spread}


def run_set(args):
    m = manifest()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in m["workloads"]]
    seconds = args.seconds or m["run_seconds"]
    doc = {"run_seconds": seconds, "host": None, "workloads": {}}
    for w in names:
        vals, digests = {}, {}
        for seed in seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = json.loads(out.stdout.strip().splitlines()[-1])
            with open(os.path.join(ROOT, ".bench_out", f"{w}-s{seed}-t0.json")) as fh:
                res = json.load(fh)
            doc["host"] = res["host"]
            digests[seed] = res["digest"]
            if out.returncode != 0 or not last["correct"]:
                print(f"{w} seed {seed}: run failed (exit {out.returncode})", file=sys.stderr)
            for name, v in list(last["metrics"].items()) + list(res["detail"].items()):
                vals.setdefault(name, []).append(v["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()), file=sys.stderr)
        doc["workloads"][w] = {
            "metrics": {k: summarize(v) for k, v in vals.items()},
            "digests": digests,
        }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
    return 0


def bounds():
    b = {e["name"]: (e["better"], e["bound"]) for e in manifest()["end_to_end"]}
    b.update(DETAIL)
    return b


def compare(args):
    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)
    same_host = all(a["host"].get(k) == b["host"].get(k) for k in HOST_KEYS)
    if not same_host:
        print("different hosts: ratios only, no bounds")
    limits = bounds()
    bad = []
    for w, wb in b["workloads"].items():
        wa = a["workloads"].get(w)
        if wa is None:
            continue
        for name, mb in wb["metrics"].items():
            ma = wa["metrics"].get(name)
            if ma is None:
                continue
            better, bound = limits.get(name, ("lower", None))
            ratio = mb["median"] / ma["median"] if ma["median"] else float("nan")
            worse = (ratio - 1) if better == "lower" else (1 - ratio)
            if ma["median"] == 0 and mb["median"] == 0:
                worse, ratio = 0.0, 1.0
            line = (f"{w:8} {name:18} A {ma['median']:.6g} (spread {ma['spread']:.3f})  "
                    f"B {mb['median']:.6g} (spread {mb['spread']:.3f})  B/A {ratio:.4f}")
            if same_host and bound is not None:
                over = [why for why, hit in (
                    ("spread A", ma["spread"] > bound),
                    ("spread B", mb["spread"] > bound),
                    ("median worse", worse > bound + 1e-12)) if hit]
                line += f"  bound {bound}" + (f"  FAIL: {', '.join(over)}" if over else "  ok")
                if over:
                    bad.append(f"{w}/{name}")
            print(line)
        for seed, d in wb["digests"].items():
            if seed in wa["digests"] and wa["digests"][seed] != d:
                print(f"{w:8} seed {seed}: digest {wa['digests'][seed]} -> {d}")
                if same_host:
                    bad.append(f"{w}/digest")
    if bad:
        print("FAILED: " + ", ".join(sorted(set(bad))))
        return 1
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--workloads")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args()
    return run_set(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
