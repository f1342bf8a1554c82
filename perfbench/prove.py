#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 perfbench/prove.py [--workloads handoff,fanout] [--runs 10]
                               [--seconds S] [--trace 0|1] [--out FILE]

For every workload, runs perfbench/run.py once per seed (1..runs) and prints,
per metric, the median of the runs and their spread: the distance between
the first and third quartile (statistics.quantiles(n=4)) as a share of the
median. For end-to-end metrics the spread is compared with a third of the
metric's bound in BENCHMARK.json. --out writes the medians, spreads and raw
values as JSON (perfbench/baseline.json holds the first recording).
Run from the root of the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    stamp = [ln for ln in lines if ln.startswith("perfbench: host")]
    return json.loads(lines[-1]), (stamp[0] if stamp else ""), proc.returncode


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for wl in args.workloads.split(","):
        values, ok, stamp = {}, True, ""
        for seed in range(1, args.runs + 1):
            result, stamp, rc = run_once(wl, seed, args.seconds, args.trace)
            ok = ok and rc == 0 and result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: exit {rc}, correct {result['correct']}",
                  flush=True)
        rows = {}
        for name, vals in values.items():
            rows[name] = {"median": statistics.median(vals),
                          "spread": spread(vals), "values": vals}
            bound = bounds.get(name)
            limit = "" if bound is None else f"  (limit {bound / 3:.4f})"
            if bound is not None and name != "setup_s" and \
                    rows[name]["spread"] > bound / 3:
                steady = False
                limit += "  UNSTEADY"
            print(f"  {wl:8} {name:22} median {rows[name]['median']:<14.6g}"
                  f" spread {rows[name]['spread']:.4f}{limit}")
        steady = steady and ok
        report["workloads"][wl] = {"host": stamp, "all_correct": ok,
                                   "metrics": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
