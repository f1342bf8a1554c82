#!/usr/bin/env python3
"""Batched shared-read grant smoke check (gating).

Batched shared-read grants (FifoQueue::on_grant_batch, on by default)
exist to make reader fan-out cheaper: for each reader count, the batched
`runtime_shared_reads/N` median must not exceed the
`runtime_shared_reads/N/nobatch` median by more than the tolerance. Both
cases are measured in the SAME process run, so host speed cancels out and
the tolerance only absorbs back-to-back scheduling noise.

  python3 tools/check_batch_grants.py --bench build/micro_orwl_overhead \\
      [--baseline BENCH_micro_orwl_overhead.json] [--tolerance 0.10] \\
      [--reps 3] [--warmup 1]

  python3 tools/check_batch_grants.py --fresh NEW.json
      compare an already-written recording instead of running the bench.

This check GATES CI, with the same host escape hatch as
check_overhead.py: when the current host differs from the one that made
the repo's recorded baseline (context.host_name), the runner is an
unknown, shared machine whose double-digit jitter would make red runs
noise — the check warns and passes. A missing baseline file means the
recording host is unknown and is treated the same way. On the recording
host it must hold.

Exit status: 0 within tolerance (or host mismatch), 1 on regression, 2 on
usage errors.
"""

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile

BATCH_PAIRS = [
    (f"runtime_shared_reads/{n}/nobatch", f"runtime_shared_reads/{n}")
    for n in (2, 4, 8)
]


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    medians = {b["name"]: b["seconds_median"] for b in doc["benchmarks"]}
    return doc.get("context", {}), medians


def check_pairs(pairs, medians, tolerance):
    failed = False
    for base_name, case_name in pairs:
        if base_name not in medians or case_name not in medians:
            print(f"check_batch_grants: missing case "
                  f"{base_name!r} or {case_name!r}", file=sys.stderr)
            failed = True
            continue
        base, case = medians[base_name], medians[case_name]
        ratio = case / base
        verdict = "OK" if ratio <= 1.0 + tolerance else "REGRESSION"
        print(f"{case_name}: {case * 1e3:.3f} ms vs "
              f"{base_name}: {base * 1e3:.3f} ms "
              f"(ratio {ratio:.3f}, limit {1.0 + tolerance:.2f}) "
              f"{verdict}")
        if verdict != "OK":
            print("check_batch_grants: batched shared-read grants "
                  "regressed past tolerance", file=sys.stderr)
            failed = True
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", help="micro_orwl_overhead binary to run")
    ap.add_argument("--fresh", help="already-written recording to compare")
    ap.add_argument("--baseline", default="BENCH_micro_orwl_overhead.json",
                    help="recorded baseline whose context.host_name names "
                         "the host the assertions are calibrated for")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional excess over the reference "
                         "case (default 0.10)")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--warmup", type=int, default=1)
    args = ap.parse_args()
    if bool(args.bench) == bool(args.fresh):
        ap.error("exactly one of --bench / --fresh is required")

    # Host escape hatch (pattern from check_overhead.py): the timing
    # promise is only asserted on the host that made the recorded baseline. A
    # missing baseline means the recording host is UNKNOWN — treat it like
    # a mismatch (warn and pass) rather than gating an arbitrary runner.
    if not os.path.exists(args.baseline):
        print(f"baseline {args.baseline!r} not found; recording host "
              f"unknown — timing promise not asserted — skipping")
        return 0
    base_ctx, _ = load(args.baseline)
    base_host = base_ctx.get("host_name", "")
    here = socket.gethostname()
    if base_host and here != base_host:
        print(f"host {here!r} differs from recorded baseline host "
              f"{base_host!r}; timing promise not asserted — skipping")
        return 0

    if args.bench:
        with tempfile.TemporaryDirectory() as tmpdir:
            out = os.path.join(tmpdir, "fresh.json")
            # "runtime" covers shared_reads incl. /nobatch (both halves
            # of every pair) in one process, after the alternation and
            # contention cases have warmed it up.
            cmd = [args.bench, "--filter", "runtime",
                   "--reps", str(args.reps), "--warmup", str(args.warmup),
                   "--json", out]
            print("+", " ".join(cmd))
            subprocess.run(cmd, check=True)
            _, medians = load(out)
    else:
        _, medians = load(args.fresh)

    if check_pairs(BATCH_PAIRS, medians, args.tolerance):
        return 1
    print("check_batch_grants OK: batched shared reads within tolerance "
          "of unbatched")
    return 0


if __name__ == "__main__":
    sys.exit(main())
