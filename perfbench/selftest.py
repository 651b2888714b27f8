#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N] [--seconds S] [WORKLOAD ...]

Runs each workload (default: all four) twice with --trace 1 at one seed and
requires identical deterministic values: every counter the traced spans
collected, the quality values (energy_j and delivery_ratio, plus each
workload's own: sim.goodput_bit_per_j, graph.kr_cost_j,
churn.topology_epochs) and every per-layer metric whose unit is not a time
or a rate over time (counts, ratios of counts, joules). A later change may
then rest a claim on one of these counts. Exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

TIME_UNITS = {"s", "ns", "us", "%", "events/s"}


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.rstrip("\n").split("\n")
    det = next(json.loads(l[len("deterministic: "):]) for l in lines
               if l.startswith("deterministic: "))
    result = json.loads(lines[-1])
    det["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()
                        if v["unit"] not in TIME_UNITS}
    return det, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    ok = True
    for w in args.workloads:
        (a, ra), (b, rb) = (traced_run(w, args.seed, args.seconds)
                            for _ in range(2))
        same = a == b and ra["failed"] == 0 and rb["failed"] == 0
        ok = ok and same
        print("%-16s %s  (%d counters, %d deterministic per-layer metrics)"
              % (w, "identical" if same else "DIFFERENT",
                 sum(len(c) for c in a["counters"].values()),
                 len(a["per_layer"])))
        if not same:
            for key in ("quality", "counters", "per_layer"):
                if a[key] != b[key]:
                    print("  %s:\n    %s\n    %s" % (key, a[key], b[key]))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
