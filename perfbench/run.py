#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: `perfbench` is configured and
built under `.bench_build/` at the checkout root (Release, the library
through the root CMakeLists), then run once. Its standard output is passed
through only when it exits cleanly and its result holds exactly the metrics
BENCHMARK.json lists for the mode, each in its unit, so the last line
printed is the result object; otherwise nothing is printed on stdout and
the exit code is non-zero.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["sim_dsdv_small", "sim_dsr_large", "design_cold", "churn_serve"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        cfg = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            fail("build failed: " + " ".join(cmd))


def source_label():
    """Commit (when the checkout is a git repository) plus a digest of the
    sources `perfbench` is built from, so results name their code."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if p.returncode == 0:
            commit = p.stdout.strip()
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for d, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return "%s src:%s" % (commit, h.hexdigest()[:16])


def manifest_metrics(trace):
    """Name -> unit of every metric BENCHMARK.json says a run prints:
    the end-to-end set untraced, the per-layer set traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_label()]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if p.returncode != 0:
        fail("perfbench exited with code %d" % p.returncode)
    lines = p.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("perfbench printed a malformed result")
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    expected = manifest_metrics(args.trace == 1)
    if printed != expected:
        fail("perfbench's metrics differ from BENCHMARK.json: missing %s, "
             "extra or in another unit %s"
             % (sorted(set(expected.items()) - set(printed.items())),
                sorted(set(printed.items()) - set(expected.items()))))
    sys.stdout.write(p.stdout)


if __name__ == "__main__":
    main()
