#!/usr/bin/env python3
"""Every end-to-end metric of every workload, by name and unit.

Run from the repository root:

    python3 verdictbench/summary.py --seed 7919

Runs ``run.py --trace 0`` once per workload, each in its own process with
its default seconds, and prints one line per metric, including
``verdict_p90_ms``, ``failed_frac`` and ``wrong_frac``.
"""

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=600).stdout
    lines = [line for line in out.split("\n") if line.strip()]
    counts = next(json.loads(line)["counts"] for line in lines
                  if line.startswith('{"counts"'))
    ungated = next(json.loads(line)["ungated"] for line in lines
                   if line.startswith('{"ungated"'))
    return json.loads(lines[-1]), counts, ungated


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    ok = True
    for workload in WORKLOADS:
        result, counts, ungated = run(workload, args.seed)
        ok = ok and result["correct"]
        rows = sorted({**result["metrics"], **ungated}.items())
        rows += [("failed_frac", {"value": counts["failed_frac"], "unit": "share"}),
                 ("wrong_frac", {"value": counts["wrong_frac"], "unit": "share"})]
        for name, metric in rows:
            print("%-8s %-16s %14.6f %s" % (workload, name, metric["value"],
                                             metric["unit"]))
        print("%-8s %d requests, %d passes, correct=%s" % (
            workload, counts["requests"], counts["passes"], result["correct"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
