#!/usr/bin/env python3
"""End-to-end benchmark of urankd: build from source, run one workload.

Usage (from the root of a checkout):

    python3 e2ebench/run.py --workload fresh-rank|ingest-read \
        --seed N --seconds S --trace 0|1

Builds the repository's library, tools/urankd and e2e_bench (Release,
no sanitizers) under $CARGO_TARGET_DIR/e2ebench (default .bench_build/), then
runs e2e_bench, which starts urankd as a subprocess, generates every input
from --seed, drives the workload over loopback TCP, checks every answer
against shadow stores, and prints report lines followed by one JSON result
line. See e2ebench/NOTES.md for the workloads and metrics.

Exits non-zero without printing a result when the sources are missing, the
build fails, the build is not Release, or the run does not complete.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fresh-rank", "ingest-read")
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def cache_value(cache_text, name):
    for line in cache_text.splitlines():
        if line.startswith(name + ":"):
            return line.split("=", 1)[1].strip()
    return None


def build(out_dir):
    """Configures and builds urankd + e2e_bench; returns the build type."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no urank sources at " + ROOT)
    cache = os.path.join(out_dir, "CMakeCache.txt")
    log = sys.stderr
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    # Configured on every run, so an edited build file regenerates the
    # makefiles before the targets are looked up.
    if subprocess.call(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, env=env) != 0:
        fail("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    if subprocess.call(["cmake", "--build", out_dir, "-j", jobs, "--target",
                        "urankd", "e2e_bench"],
                       stdout=log, stderr=log, env=env) != 0:
        fail("build failed")
    with open(cache) as f:
        text = f.read()
    build_type = cache_value(text, "CMAKE_BUILD_TYPE") or ""
    if build_type != "Release" or cache_value(text, "URANK_SANITIZE"):
        fail("refusing to report from a non-Release or sanitizer build")
    return build_type


def expected_metrics(trace):
    """The metric names BENCHMARK.json promises for this mode (or None)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def stop_group(pgid):
    """Kills whatever e2e_bench left in its process group and waits."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="flip one reference answer (self-test negative case)")
    args = ap.parse_args()

    out_dir = build_dir()
    build_type = build(out_dir)
    data_dir = os.path.join(out_dir, "data", args.workload)
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(data_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(out_dir, "e2e_bench"),
           "--workload=" + args.workload,
           "--seed=" + str(args.seed),
           "--seconds=" + repr(args.seconds),
           "--trace=" + str(args.trace),
           "--urankd=" + os.path.join(out_dir, "urank", "tools", "urankd"),
           "--data-dir=" + data_dir,
           "--build-type=" + build_type,
           "--trace-out=" + os.path.join(
               trace_dir, "%s-%d.json" % (args.workload, args.seed))]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    stop_group(proc.pid)
    sys.stderr.write(err)
    if proc.returncode != 0:
        fail("e2e_bench exited with %d" % proc.returncode)

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    want = expected_metrics(args.trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        missing = sorted(set(want) - set(result["metrics"]))
        unexpected = sorted(set(result["metrics"]) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s"
             % (missing, unexpected))
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
