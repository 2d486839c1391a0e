#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark (about 2 minutes on 4 cores).

    python3 e2ebench/selftest.py

1. Runs every workload BENCHMARK.json lists briefly with --trace 0 and
   --trace 1 and asserts that
   the result line names exactly the metrics BENCHMARK.json lists for that
   mode, that every value is a finite number with the listed unit, that
   nothing failed and that the run reports itself correct.
2. Negative case: a run with --corrupt-reference (one reference answer has
   one bit flipped) must report failed >= 1 and correct == false.
3. A tree holding only BENCHMARK.json and e2ebench/ (no sources) must make
   run.py exit non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SECONDS = "3"

failures = []


def check(cond, message):
    print(("ok   " if cond else "FAIL ") + message, flush=True)
    if not cond:
        failures.append(message)


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=400)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            want = [m["name"] for m in
                    spec["per_layer" if trace else "end_to_end"]]
            proc = run([RUN, "--workload", workload, "--seed", "7",
                        "--seconds", SECONDS, "--trace", str(trace)])
            result = result_of(proc)
            tag = "%s --trace %d" % (workload, trace)
            check(result is not None, tag + ": run completed")
            if result is None:
                print(proc.stderr[-2000:])
                continue
            metrics = result["metrics"]
            check(sorted(metrics) == sorted(want),
                  tag + ": every BENCHMARK.json metric emitted")
            check(all(isinstance(m["value"], (int, float)) and
                      math.isfinite(m["value"]) and
                      m["unit"] == units.get(name)
                      for name, m in metrics.items()),
                  tag + ": values finite, units as listed")
            if not trace:
                check(all(m["value"] > 0 for m in metrics.values()),
                      tag + ": end-to-end metrics non-zero")
            check(result["failed"] == 0 and result["attempted"] > 0,
                  tag + ": failed_share == 0 (%d ops)" % result["attempted"])
            check(result["correct"] is True, tag + ": correct")

    proc = run([RUN, "--workload", "fresh-rank", "--seed", "7", "--seconds",
                "1", "--trace", "0", "--corrupt-reference"])
    result = result_of(proc)
    check(result is not None and result["failed"] >= 1 and
          result["correct"] is False,
          "corrupted reference answer counted as a failure")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run([sys.executable,
                           os.path.join(os.path.basename(HERE), "run.py"),
                           "--workload", "fresh-rank", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, env=env, capture_output=True, text=True,
                          timeout=180)
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          "no sources: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
