#!/usr/bin/env python3
"""A/B comparison of two checkouts on the repository benchmark.

    python3 tools/bench_diff.py --parent DIR --change DIR [--workloads a,b]
                                [--pairs 10] [--seconds N] [--out FILE]
    python3 tools/bench_diff.py --from FILE
    python3 tools/bench_diff.py --self-test

Runs each checkout's benchmark command (BENCHMARK.json's "command", i.e.
perfbench/run.py) from that checkout's root, one workload at a time, in
alternating pairs: the parent runs first in odd pairs, the change in even
ones, and pair i uses seed i on both sides. --seconds defaults to
BENCHMARK.json's run_seconds. Each side builds into its own directory: the
checkout's .bench_build, or $CARGO_TARGET_DIR/parent and .../change when
that variable is set. --out saves every run (rewritten after each one, so
an interrupted comparison keeps what it measured); --from re-reports a
saved file.

Per workload and end-to-end metric it prints each side's median, quartiles
(statistics.quantiles, n=4) and MAD, and how many pairs the change won (ties
count for neither side). The verdict, with the bound from BENCHMARK.json
taken as a fraction of the parent's median:

  gain           the change wins at least 9/10 of the pairs run and its
                 median is better by more than the parent's quartile
                 distance;
  unresolved     either side's quartile distance exceeds the bound and the
                 two sides' runs overlap;
  no regression  the change's median is no worse than the bound;
  regression     otherwise.

Runs that exit non-zero, print no result, or count failed executions are
flagged. Each run also records the host's steal time: the share of the
`cpu` line's jiffies in /proc/stat that went to steal between the run's
start and end, saved as "steal" and printed on the progress line. After
the tables, runs taken at STEAL_RERUN or more are listed as "re-run pair
i"; the verdict ignores steal. A file saved without it reports "steal n/a".
Each run also records what it cost the scheduler: the deltas of the waited-
for children's involuntary context switches and minor page faults
(getrusage(RUSAGE_CHILDREN)) across the run, divided by the executions it
attempted, saved as "nivcsw_per_exec" and "minflt_per_exec", printed on the
progress line and, as each side's median, under each workload's table; a
file saved without them prints "n/a".
BENCHMARK.json, at the root of the checkout holding this script, is only
read. Exit status: 1 on a regression or a flagged run, else 0.
"""

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
GAIN_SHARE = 0.9
# On this kind of shared VM, runs taken at 12% steal or more read 1.2-7x
# slower on either side of an A/B.
STEAL_RERUN = 0.12


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# --- statistics and verdict ---------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(values):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    mad = statistics.median(abs(v - med) for v in values)
    return {"median": med, "q1": q1, "q3": q3, "mad": mad,
            "min": min(values), "max": max(values)}


def compare(parent, change, better, bound):
    """Verdict for one metric. `parent` and `change` map pair -> value;
    `better` is "lower" or "higher"; `bound` a fraction of the parent's
    median. Returns the two summaries, the pairs won and the verdict."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = summary(list(parent.values())), summary(list(change.values()))
    pairs = set(parent) | set(change)
    won = sum(1 for i in pairs if i in parent and i in change and
              sign * (parent[i] - change[i]) > 0)
    scale = abs(p["median"]) or 1.0
    gap = sign * (p["median"] - c["median"])  # > 0: the change is better
    spread = max(p["q3"] - p["q1"], c["q3"] - c["q1"]) / scale
    overlap = p["min"] <= c["max"] and c["min"] <= p["max"]
    if won >= GAIN_SHARE * len(pairs) and gap > p["q3"] - p["q1"]:
        verdict = "gain"
    elif spread > bound and overlap:
        verdict = "unresolved"
    elif -gap / scale <= bound:
        verdict = "no regression"
    else:
        verdict = "regression"
    return p, c, won, len(pairs), verdict


def cpu_times(stat):
    """user, nice, system, idle, iowait, irq, softirq and steal jiffies from
    the `cpu` line of /proc/stat's text."""
    for line in stat.splitlines():
        if line.startswith("cpu "):
            return [int(v) for v in line.split()[1:9]]
    raise ValueError("no cpu line")


def steal_share(before, after):
    """Steal's share of the jiffies between two cpu_times samples."""
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def read_cpu_times():
    with open("/proc/stat") as f:
        return cpu_times(f.read())


SCHED_KEYS = ("nivcsw_per_exec", "minflt_per_exec")


def rusage_counts():
    """Involuntary context switches and minor page faults of every child
    waited for so far (their descendants included)."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_nivcsw, ru.ru_minflt


def per_execution(before, after, attempted):
    """The deltas between two rusage_counts samples per attempted
    execution, as {"nivcsw_per_exec", "minflt_per_exec"}; empty without a
    positive execution count."""
    if (attempted or 0) <= 0:
        return {}
    return {key: (a - b) / attempted for key, a, b in
            zip(SCHED_KEYS, after, before)}


def run_problem(run):
    """Why a run is flagged, or None."""
    res = run.get("result")
    if run.get("exit") != 0 or res is None:
        return f"exit {run.get('exit')}, no usable result"
    if res.get("failed", 0) > 0 or not res.get("correct", False):
        return (f"{res.get('failed')} of {res.get('attempted')} executions "
                f"failed")
    return None


def report(runs, bench, out=sys.stdout):
    """Print the comparison of saved runs; returns the exit status."""
    metrics = bench["end_to_end"]
    status = 0
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    for wl in workloads:
        values = {s: {} for s in SIDES}  # side -> metric -> pair -> value
        for r in runs:
            if r["workload"] != wl or not r.get("result"):
                continue
            for name, m in r["result"]["metrics"].items():
                values[r["side"]].setdefault(name, {})[r["pair"]] = m["value"]
        print(f"\n{wl}", file=out)
        print(f"  {'metric':12} {'side':6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'mad':>11}   verdict", file=out)
        for m in metrics:
            name = m["name"]
            parent = values["parent"].get(name, {})
            change = values["change"].get(name, {})
            if not parent or not change:
                print(f"  {name:12} missing on "
                      f"{'parent' if not parent else 'change'}", file=out)
                status = 1
                continue
            p, c, won, pairs, verdict = compare(parent, change, m["better"],
                                                m["bound"])
            if verdict == "regression":
                status = 1
            ratio = c["median"] / p["median"] if p["median"] else float("nan")
            for side, s in (("parent", p), ("change", c)):
                tail = (f"   {verdict}: change/parent {ratio:.4f}, change "
                        f"won {won}/{pairs} (bound {m['bound']})"
                        if side == "change" else "")
                print(f"  {name if side == 'parent' else '':12} {side:6} "
                      f"{s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                      f"{s['mad']:11.4g}{tail}", file=out)
        for key in SCHED_KEYS:
            medians = []
            for side in SIDES:
                got = [r[key] for r in runs if r["workload"] == wl and
                       r["side"] == side and key in r]
                medians.append(f"{side} " + (
                    f"{statistics.median(got):.6g}" if got else "n/a"))
            print(f"  {key.replace('_per_exec', '/exec'):12} median "
                  + ", ".join(medians), file=out)
    for r in runs:
        why = run_problem(r)
        if why is not None:
            status = 1
            print(f"FLAGGED {r['workload']} {r['side']} pair {r['pair']} "
                  f"(seed {r['seed']}): {why}", file=out)
    if not any("steal" in r for r in runs):
        print("steal n/a", file=out)
    for r in runs:
        if r.get("steal", 0.0) >= STEAL_RERUN:
            print(f"re-run pair {r['pair']}: {r['workload']} {r['side']} ran "
                  f"at {r['steal']:.1%} steal", file=out)
    return status


# --- running ------------------------------------------------------------------

def side_env(side):
    env = dict(os.environ)
    base = env.pop("CARGO_TARGET_DIR", None)
    if base:
        env["CARGO_TARGET_DIR"] = os.path.join(base, side)
    return env


def run_once(bench, checkout, side, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    before, sched = read_cpu_times(), rusage_counts()
    proc = subprocess.run(cmd, cwd=checkout, env=side_env(side),
                          stdout=subprocess.PIPE, text=True)
    steal = steal_share(before, read_cpu_times())
    sched_after = rusage_counts()
    try:
        result = json.loads(proc.stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        result = None
    attempted = (result or {}).get("attempted")
    return (proc.returncode, result, steal,
            per_execution(sched, sched_after, attempted))


def measure(args, bench):
    dirs = {"parent": os.path.abspath(args.parent),
            "change": os.path.abspath(args.change)}
    for side in SIDES:  # build both before timing anything
        proc = subprocess.run(bench["command"] + ["--list"], cwd=dirs[side],
                              env=side_env(side), stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"bench_diff: {side} at {dirs[side]} does not build",
                  file=sys.stderr)
            return None
    saved = {"parent": dirs["parent"], "change": dirs["change"],
             "seconds": args.seconds, "pairs": args.pairs, "runs": []}
    for wl in args.workloads.split(","):
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 == 1 else SIDES[::-1]
            for side in order:
                code, result, steal, sched = run_once(
                    bench, dirs[side], side, wl, pair, args.seconds)
                saved["runs"].append({"workload": wl, "side": side,
                                      "pair": pair, "seed": pair,
                                      "exit": code, "result": result,
                                      "steal": steal, **sched})
                exec_s = (result or {}).get("metrics", {}).get(
                    "exec_s", {}).get("value")
                per_exec = ", ".join(
                    f"{k.replace('_per_exec', '/exec')} "
                    + (f"{sched[k]:.1f}" if k in sched else "n/a")
                    for k in SCHED_KEYS)
                print(f"bench_diff: {wl} pair {pair} {side}: exit {code}, "
                      f"exec_s {exec_s}, steal {steal:.1%}, {per_exec}",
                      file=sys.stderr, flush=True)
                if args.out:
                    with open(args.out, "w") as f:
                        json.dump(saved, f, indent=1)
                        f.write("\n")
    return saved


# --- self-test ----------------------------------------------------------------

def self_test(bench):
    """The verdict logic on synthetic runs with known answers."""
    metric = {m["name"]: m for m in bench["end_to_end"]}
    ten = range(1, 11)
    failures, checks = [], 0

    def check(label, got, want):
        nonlocal checks
        checks += 1
        if got != want:
            failures.append(f"{label}: got {got}, want {want}")

    def verdict(name, parent, change):
        m = metric[name]
        return compare(dict(zip(ten, parent)), dict(zip(ten, change)),
                       m["better"], m["bound"])[4]

    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    cases = [
        ("half the time", base, [v / 2 for v in base], "gain"),
        ("same numbers", base, base, "no regression"),
        ("3% slower", base, [v * 1.03 for v in base], "no regression"),
        ("40% slower", base, [v * 1.4 for v in base], "regression"),
        # 10/10 wins, but a gap inside the parent's own quartile distance.
        ("small steady win", base, [v - 0.05 for v in base], "no regression"),
        # Faster in 8 pairs only: not a gain, still no regression.
        ("8/10 wins", base,
         [v / 2 for v in base[:8]] + [v * 1.01 for v in base[8:]],
         "no regression"),
        # Both sides spread over more than the bound, and overlap.
        ("wide overlap", [5, 20, 8, 15, 6, 18, 7, 16, 9, 14],
         [6, 19, 7, 17, 5, 21, 8, 15, 10, 13], "unresolved"),
        ("wide overlap, slower", [5, 20, 8, 15, 6, 18, 7, 16, 9, 14],
         [9, 30, 12, 25, 10, 28, 11, 26, 13, 24], "unresolved"),
        # Wide, but every change run beats every parent run; the gap is
        # inside the parent's quartile distance, so it is no gain.
        ("wide, disjoint", [11, 100, 12, 95, 13, 90, 14, 85, 15, 80],
         list(range(1, 11)), "no regression"),
    ]
    for label, parent, change, want in cases:
        check(label, verdict("exec_s", parent, change), want)
    check("ok_frac 1 -> 0.9 (higher is better)",
          verdict("ok_frac", [1.0] * 10, [0.9] * 10), "regression")

    def fake(side, pair, failed=0, exit_code=0):
        return {"workload": "w", "side": side, "pair": pair, "seed": pair,
                "exit": exit_code,
                "result": {"correct": failed == 0, "attempted": 100,
                           "failed": failed,
                           "metrics": {m: {"value": 1.0, "unit": "s"}
                                       for m in metric}}}

    runs = [fake(s, i) for i in ten for s in SIDES]
    with open(os.devnull, "w") as sink:
        check("clean identical runs: status", report(runs, bench, sink), 0)
        runs[3] = fake("change", 2, failed=1)
        check("a failed execution: status", report(runs, bench, sink), 1)
        runs[3] = fake("change", 2, exit_code=3)
        check("a non-zero exit: status", report(runs, bench, sink), 1)

    # user 100, system 50, idle 700 and steal 150 jiffies between the lines.
    check("steal share of two cpu lines",
          steal_share(cpu_times("cpu  100 0 50 800 10 0 0 40 0 0\n"
                                "cpu0 1 2 3 4 5 6 7 8 9 10"),
                      cpu_times("intr 1\ncpu  200 0 100 1500 10 0 0 190 0 0")),
          0.15)

    def reruns(runs):
        text = io.StringIO()
        report(runs, bench, text)
        return [line for line in text.getvalue().splitlines()
                if line.startswith(("re-run", "steal"))]

    runs = [fake(s, i) for i in ten for s in SIDES]
    check("a saved file without steal", reruns(runs), ["steal n/a"])
    for r in runs:
        r["steal"] = 0.01
    runs[4]["steal"] = STEAL_RERUN - 0.001  # pair 3, parent: kept
    runs[5]["steal"] = 0.2                  # pair 3, change: re-run
    check("re-run listing", reruns(runs),
          ["re-run pair 3: w change ran at 20.0% steal"])

    # 1420 involuntary switches and 970 minor faults over 1000 executions.
    check("per-execution scheduler counts",
          per_execution((100, 50), (1520, 1020), 1000),
          {"nivcsw_per_exec": 1.42, "minflt_per_exec": 0.97})
    check("no executions, no counts", per_execution((1, 1), (9, 9), 0), {})

    def sched_rows(runs):
        text = io.StringIO()
        report(runs, bench, text)
        return [" ".join(line.split()) for line in text.getvalue().splitlines()
                if "/exec" in line]

    check("a saved file without scheduler counts", sched_rows(runs),
          ["nivcsw/exec median parent n/a, change n/a",
           "minflt/exec median parent n/a, change n/a"])
    for r in runs:
        r.update({"nivcsw_per_exec": 8.0 if r["side"] == "change" else 1400.0,
                  "minflt_per_exec": 2.5})
    check("scheduler medians per side", sched_rows(runs),
          ["nivcsw/exec median parent 1400, change 8",
           "minflt/exec median parent 2.5, change 2.5"])
    for f in failures:
        print(f"bench_diff self-test: FAIL {f}")
    print(f"bench_diff self-test: {checks - len(failures)} of {checks} "
          f"checks passed")
    return 1 if failures else 0


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("--from", dest="from_file")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test(bench)
    if args.from_file:
        with open(args.from_file) as f:
            saved = json.load(f)
    elif args.parent and args.change:
        saved = measure(args, bench)
        if saved is None:
            return 2
    else:
        ap.error("give --parent and --change, --from, or --self-test")
    print(f"parent {saved['parent']}\nchange {saved['change']}\n"
          f"{saved['pairs']} pairs of {saved['seconds']} s runs")
    return report(saved["runs"], bench)


if __name__ == "__main__":
    sys.exit(main())
