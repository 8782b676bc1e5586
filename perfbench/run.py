#!/usr/bin/env python3
"""Benchmark of the cellj2k encoder: one workload per invocation.

    python3 perfbench/run.py --workload lossless_ht --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first run configures and builds the
library and the benchmark binary (perfbench/CMakeLists.txt) under .bench_build/; inputs
and the traced run's Chrome trace go to .bench_work/.  The last line of
standard output is the result object; with --trace 0 it holds the end-to-end
metrics, with --trace 1 the per-layer ones (see perfbench/METRICS.md).

    python3 perfbench/run.py --selftest     # checks benchlib's arithmetic
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

WORKLOADS = ("lossless_ht", "lossy_ebcot", "service_mix")
DEFAULT_SEED = 20080901
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BINARY_TIMEOUT_S = 165


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark binary (a no-op when up to date); the
    build's output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "cj2k_perfbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "cj2k_perfbench")


def source_hash():
    """SHA-256 over the library sources and the benchmark, so numbers from
    different builds are never compared unknowingly."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for d, dirs, names in os.walk(top):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)
                      if not n.endswith(".pyc")]
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_binary(exe, args, trace_out):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--trace-out", trace_out]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=BINARY_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError("benchmark binary exited with code %d" % proc.returncode)
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RAW "):
            return json.loads(line[len("PERFBENCH_RAW "):])
    raise RuntimeError("benchmark binary printed no PERFBENCH_RAW line")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        import unittest
        suite = unittest.defaultTestLoader.discover(HERE, "test_*.py")
        ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    try:
        exe = build()
        os.makedirs(WORK_DIR, exist_ok=True)
        trace_out = os.path.join(
            WORK_DIR, "trace_%s_%d.json" % (args.workload, args.seed))
        t0 = time.monotonic()
        raw = run_binary(exe, args, trace_out)
        events = []
        if args.trace:
            with open(trace_out) as fh:
                events = json.load(fh)["traceEvents"]
        res = benchlib.result(raw, events, args.trace == 1)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1

    stamp = {
        "nproc": os.cpu_count(),
        "native_isa": raw["native_isa"],
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "build_flags": raw["build_flags"],
        "git_commit": git_commit(),
        "source_sha256": source_hash(),
        "workload": args.workload,
        "image_seed": int(raw["image_seed"]),
        "arrival_seed": int(raw["arrival_seed"]),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    n = len(raw["op_wall_s"])
    tail = benchlib.tail_percentile(n)
    print("STAMP " + json.dumps(stamp, sort_keys=True))
    print("samples: %d timed ops, %d model ops, %d setups; run %.1f s" % (
        n, len(raw["model_wall_s"]), len(raw["setup_s"]),
        time.monotonic() - t0))
    print("host tail: %s" % ("p%g = %.6f s" % (
        tail, benchlib.percentile(raw["op_wall_s"], tail)) if tail else
        "none (fewer than 10 samples beyond p75)"))
    if raw.get("failure_notes"):
        print("failures: " + raw["failure_notes"])
    if args.trace:
        print("trace: " + os.path.relpath(trace_out, ROOT))
    for name, m in res["metrics"].items():
        print("  %-36s %16.9g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
