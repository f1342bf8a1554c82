#!/usr/bin/env python3
"""Reproduce the recorded sim numbers of BENCH_workloads.json exactly.

  python3 tools/check_sim_recording.py --bench PATH/TO/orwl_bench

The sim backend is deterministic, so docs/benchmarks.md treats any
unexplained change in the recorded sim numbers as a regression. This
check re-runs the recording command documented there (its row in the
"Recorded baselines" table, with the binary swapped for --bench and the
JSON written to a temp file) at `--warmup 0 --reps 1 --no-verify`, then
requires every field of every recorded case to equal the new output
exactly: same case names, same fields, same values and JSON types.

Only the run-shape fields are exempt, since the short run changes them:
`warmup`, `repetitions`, `seconds_mean`, `feedback.seconds_mean`,
`verify_ran` and `verified`. The document's `context` (date, host,
schema) is not compared.

Exit status 0 when the recording reproduces; 1 with a per-field report.
"""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDING = "BENCH_workloads.json"
EXEMPT = {"warmup", "repetitions", "seconds_mean", "feedback.seconds_mean",
          "verify_ran", "verified"}
SHORT_RUN = ["--warmup", "0", "--reps", "1", "--no-verify"]


def documented_command():
    """The command docs/benchmarks.md gives for re-recording RECORDING."""
    with open(os.path.join(ROOT, "docs/benchmarks.md"), encoding="utf-8") as f:
        for line in f:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 3 and cells[0] == f"`{RECORDING}`":
                m = re.fullmatch(r"`([^`]+)`", cells[2])
                if m:
                    return shlex.split(m.group(1))
    raise SystemExit(f"docs/benchmarks.md documents no command for "
                     f"{RECORDING}")


def flatten(value, prefix, out):
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(item, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            flatten(item, f"{prefix}[{i}]", out)
    else:
        out[prefix] = value
    return out


def cases(doc, tag, errors):
    by_name = {}
    for case in doc.get("benchmarks", []):
        name = case.get("name")
        if name in by_name:
            errors.append(f"{tag}: duplicate case {name!r}")
        by_name[name] = {k: v for k, v in flatten(case, "", {}).items()
                         if k not in EXEMPT}
    return by_name


def compare(recorded, fresh, errors):
    want = cases(recorded, "recording", errors)
    got = cases(fresh, "new run", errors)
    for name in sorted(set(want) - set(got)):
        errors.append(f"{name}: recorded case missing from the new run")
    for name in sorted(set(got) - set(want)):
        errors.append(f"{name}: new case not in the recording")
    matched = 0
    for name in sorted(set(want) & set(got)):
        w, g = want[name], got[name]
        for field in sorted(set(w) | set(g)):
            if field not in g:
                errors.append(f"{name}: {field} missing from the new run")
            elif field not in w:
                errors.append(f"{name}: {field} not in the recording")
            elif type(w[field]) is not type(g[field]) or w[field] != g[field]:
                errors.append(f"{name}: {field} recorded {w[field]!r}, "
                              f"now {g[field]!r}")
            else:
                matched += 1
    return len(want), matched


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench", required=True, help="path to orwl_bench")
    args = ap.parse_args()

    cmd = documented_command()
    with open(os.path.join(ROOT, RECORDING), encoding="utf-8") as f:
        recorded = json.load(f)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "rerun.json")
        json_at = cmd.index("--json")
        cmd = ([args.bench] + cmd[1:json_at] + ["--json", out] +
               cmd[json_at + 2:] + SHORT_RUN)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"bench run failed: {shlex.join(cmd)}")
        with open(out, encoding="utf-8") as f:
            fresh = json.load(f)

    errors = []
    ncases, matched = compare(recorded, fresh, errors)
    if errors:
        for e in errors[:50]:
            print(e)
        if len(errors) > 50:
            print(f"... and {len(errors) - 50} more")
        print(f"{len(errors)} difference(s) from {RECORDING}")
        return 1
    print(f"{RECORDING} reproduces: {ncases} cases, {matched} fields equal")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
