#!/usr/bin/env python3
"""Builds and runs the SUIT benchmark of record.

Run from the repository root:

    python3 perfbench/run.py --workload table6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json

The benchmark is a Cargo package of its own (perfbench/Cargo.toml). It is
built in release mode into $CARGO_TARGET_DIR (default: .bench_build), then
run with the given arguments plus a host stamp: CPU model, nproc, rustc
version, build profile, commit and a digest of the source tree. The last
line of standard output is the benchmark's JSON result; a result document
and, for traced runs, a Chrome trace of the spans land in .bench_out/.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROFILE = "release"
OUT_DIR = ".bench_out"
# Files whose content decides what is measured.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "perfbench/Cargo.toml",
           "perfbench/Cargo.lock", "perfbench/src"]


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, PROFILE, "suit-perfbench")


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def host_stamp():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]),
        "profile": PROFILE,
        "commit": commit,
        "source": source_digest(),
    }


def main(argv):
    os.chdir(ROOT)
    binary = build()
    if argv == ["--write-manifest"]:
        manifest = subprocess.run([binary, "manifest"], capture_output=True, text=True, check=True)
        with open("BENCHMARK.json", "w") as fh:
            fh.write(manifest.stdout)
        return 0
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, *argv, "--host", json.dumps(host_stamp(), sort_keys=True), "--out", OUT_DIR]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
