#!/usr/bin/env python3
"""orwl_lint: repo-specific correctness lint for the ORWL codebase.

Rules
-----
sink-contract    Every `on_grant` override (and the pure-virtual declaration)
                 must carry a `// sink-contract: no-queue-reentry` comment on
                 the same line or within the preceding lines: the sink runs
                 with the queue lock held and must never re-enter the queue.
                 Scope: src/ and tests/ (the model checker implements sinks).

naked-acquire    `.acquire()` / `->acquire()` outside the Section RAII layer
                 (src/orwl/program.h) and the Handle implementation itself
                 must carry `// lint: allow-naked-acquire(<reason>)` on the
                 same or the preceding line — a naked acquire with no paired
                 RAII release is how grants leak. Scope: src/.

order-comment    Every `memory_order_*` use in src/sync and src/orwl must be
                 justified by a `// order:` comment on the same line or within
                 the 3 preceding lines, naming the pairing (what it publishes
                 or consumes).

rmw-allowlist    Atomic read-modify-write calls (`fetch_*`, `.exchange(...)`,
                 `compare_exchange_*`) are the building blocks of lock-free
                 protocols and belong in the sanctioned lock-free files
                 (src/sync/, the ticket queue src/orwl/queue.{h,cpp}, the
                 wait-free metrics src/obs/metrics.h). Anywhere else each RMW
                 must carry `// lint: allow-rmw(<reason>)` on the same or a
                 nearby preceding line — a one-off counter bump is fine, an
                 unreviewed ad-hoc protocol is not. Scope: src/.

include-hygiene  Headers open with `#pragma once` (first non-comment line);
                 no `..` path segments in includes; quoted includes are
                 module-rooted (e.g. "orwl/queue.h", never "queue.h"); a
                 module .cpp includes its own header first. Scope: src/.

layering         No file under src/lk23/ or src/workloads/ includes a sim/
                 header. Kernels and workloads are Program definitions:
                 they reach the simulator only through orwl/backend.h
                 (SimBackend), and geometry they share with the analytic
                 models (comm::block_grid, comm::BlockGrid) lives in a
                 layer below all three. Scope: src/.

codegen          No code-generation knobs: a `#pragma` other than
                 `#pragma once` (or `_Pragma`), an
                 `__attribute__((optimize|target|target_clones|hot|flatten|
                 aligned ...))`, or the same names as `[[gnu::...]]`
                 attributes. A kernel is made faster by its source, not by
                 flags, pragmas or alignment that win code layout back. A
                 line passes with `// lint: allow-codegen(<reason>)` on it
                 or on the line before. `alignas` on data stays allowed
                 (cache-line separation). Scope: src/.

Usage
-----
  tools/orwl_lint.py [--root DIR]    lint the repo (default: cwd); exit 1 on
                                     any violation
  tools/orwl_lint.py --self-test     run every rule against the seeded
                                     negative fixtures in tests/lint_fixtures
                                     and verify each rule still fires (and
                                     that the clean fixture stays clean)

Registered as the `orwl_lint` / `orwl_lint_selftest` ctest cases and as a
gating CI job.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable, Iterable, List, NamedTuple

MODULES = {
    "support", "sync", "orwl", "obs", "topo", "comm", "treematch", "mem",
    "place", "sim", "baselines", "lk23", "workloads", "harness", "model",
    "ipc",
}

SINK_CONTRACT = "sink-contract: no-queue-reentry"
SINK_WINDOW = 6  # comment may sit this many lines above the declaration

NAKED_ACQUIRE_ALLOW = re.compile(r"//\s*lint:\s*allow-naked-acquire\([^)]+\)")
ACQUIRE_CALL = re.compile(r"(?:\.|->)acquire\s*\(")
# Files that ARE the sanctioned acquire layer: the Section RAII guards and
# the Handle implementation they drive.
ACQUIRE_WHITELIST = {
    "src/orwl/program.h",
    "src/orwl/program.cpp",
    "src/orwl/handle.h",
    "src/orwl/handle.cpp",
}

ORDER_WINDOW = 3
MEMORY_ORDER = re.compile(r"\bmemory_order_\w+")
ORDER_COMMENT = re.compile(r"//\s*order:")

RMW_WINDOW = 3
# Member-call syntax only: `std::exchange(...)` (the <utility> value swap)
# must not trip the rule, so require `.` or `->` before the method name.
RMW_CALL = re.compile(
    r"(?:\.|->)\s*"
    r"(fetch_(?:add|sub|and|or|xor)|exchange|"
    r"compare_exchange_(?:weak|strong))\s*\(")
RMW_ALLOW = re.compile(r"//\s*lint:\s*allow-rmw\([^)]+\)")
# Files sanctioned to build lock-free protocols out of RMWs: the sync
# primitives module, the ticket-ordered grant queue, and the wait-free
# metrics structures.
RMW_ALLOWLIST_PREFIXES = ("src/sync/",)
RMW_ALLOWLIST = {
    "src/orwl/queue.h",
    "src/orwl/queue.cpp",
    "src/obs/metrics.h",
}

ON_GRANT_DECL = re.compile(r"\bon_grant\s*\(.*\)\s*(?:override|final|=\s*0)")


class Violation(NamedTuple):
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def iter_files(root: str, subdirs: Iterable[str], exts=(".h", ".cpp"),
               exclude: Iterable[str] = ()) -> Iterable[str]:
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _dirnames, filenames in os.walk(base):
            rel_dir = os.path.relpath(dirpath, root)
            if any(rel_dir == e or rel_dir.startswith(e + os.sep)
                   for e in exclude):
                continue
            for fn in sorted(filenames):
                if fn.endswith(exts):
                    yield os.path.join(rel_dir, fn).replace(os.sep, "/")


def read_lines(root: str, rel: str) -> List[str]:
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        return f.read().splitlines()


def window(lines: List[str], idx: int, size: int) -> str:
    """The line at idx plus up to `size` preceding lines, joined."""
    return "\n".join(lines[max(0, idx - size): idx + 1])


# ---------------------------------------------------------------------------
# Rules. Each takes (rel_path, lines) and yields Violations.
# ---------------------------------------------------------------------------

def check_sink_contract(rel: str, lines: List[str]) -> Iterable[Violation]:
    for i, line in enumerate(lines):
        if not ON_GRANT_DECL.search(line):
            continue
        if SINK_CONTRACT not in window(lines, i, SINK_WINDOW):
            yield Violation(
                rel, i + 1, "sink-contract",
                "on_grant override without a "
                f"'// {SINK_CONTRACT}' contract comment")


def check_naked_acquire(rel: str, lines: List[str]) -> Iterable[Violation]:
    if rel in ACQUIRE_WHITELIST:
        return
    for i, line in enumerate(lines):
        if not ACQUIRE_CALL.search(line):
            continue
        if NAKED_ACQUIRE_ALLOW.search(window(lines, i, 1)):
            continue
        yield Violation(
            rel, i + 1, "naked-acquire",
            "acquire() outside a Section RAII guard; wrap it in "
            "Step::read/write or annotate with "
            "'// lint: allow-naked-acquire(<reason>)'")


def check_order_comment(rel: str, lines: List[str]) -> Iterable[Violation]:
    if not (rel.startswith("src/sync/") or rel.startswith("src/orwl/")):
        return
    for i, line in enumerate(lines):
        m = MEMORY_ORDER.search(line)
        if not m:
            continue
        if ORDER_COMMENT.search(window(lines, i, ORDER_WINDOW)):
            continue
        yield Violation(
            rel, i + 1, "order-comment",
            f"{m.group(0)} without a '// order:' justification within "
            f"{ORDER_WINDOW} lines")


def check_rmw_allowlist(rel: str, lines: List[str]) -> Iterable[Violation]:
    if rel.startswith(RMW_ALLOWLIST_PREFIXES) or rel in RMW_ALLOWLIST:
        return
    for i, line in enumerate(lines):
        # Strip the trailing comment so doc comments that *mention* an RMW
        # (e.g. "pairs with the queue's fetch_add(...)") don't trip the rule.
        code = line.split("//", 1)[0]
        m = RMW_CALL.search(code)
        if not m:
            continue
        if RMW_ALLOW.search(window(lines, i, RMW_WINDOW)):
            continue
        yield Violation(
            rel, i + 1, "rmw-allowlist",
            f"atomic {m.group(1)}() outside the lock-free allow-list "
            "(src/sync/, orwl/queue, obs/metrics); move the protocol there "
            "or annotate with '// lint: allow-rmw(<reason>)'")


INCLUDE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')


def check_include_hygiene(rel: str, lines: List[str]) -> Iterable[Violation]:
    if rel.endswith(".h"):
        for i, line in enumerate(lines):
            stripped = line.strip()
            if not stripped or stripped.startswith("//"):
                continue
            if stripped != "#pragma once":
                yield Violation(
                    rel, i + 1, "include-hygiene",
                    "header must open with '#pragma once' before any code")
            break

    first_quoted = None
    for i, line in enumerate(lines):
        m = INCLUDE.match(line)
        if not m:
            continue
        quoted, path = m.group(1) == '"', m.group(2)
        if ".." in path.split("/"):
            yield Violation(rel, i + 1, "include-hygiene",
                            f"'..' in include path '{path}'")
        if quoted:
            if first_quoted is None:
                first_quoted = (i, path)
            if path.split("/")[0] not in MODULES:
                yield Violation(
                    rel, i + 1, "include-hygiene",
                    f"quoted include '{path}' is not module-rooted "
                    "(expected e.g. \"orwl/queue.h\")")

    # Own-header-first: src/<mod>/foo.cpp whose header exists must include
    # "<mod>/foo.h" before any other include.
    if rel.startswith("src/") and rel.endswith(".cpp"):
        own = rel[len("src/"):-len(".cpp")] + ".h"
        if os.path.exists(os.path.join(_current_root, "src", own)):
            if first_quoted is None or first_quoted[1] != own:
                at = 1 if first_quoted is None else first_quoted[0] + 1
                yield Violation(
                    rel, at, "include-hygiene",
                    f"module source must include its own header "
                    f"\"{own}\" first")


# Program-definition modules: they must not include sim/ headers.
LAYERING_SCOPES = ("src/lk23/", "src/workloads/")


def check_layering(rel: str, lines: List[str]) -> Iterable[Violation]:
    if not rel.startswith(LAYERING_SCOPES):
        return
    for i, line in enumerate(lines):
        m = INCLUDE.match(line)
        if not m or m.group(2).split("/")[0] != "sim":
            continue
        yield Violation(
            rel, i + 1, "layering",
            f"'{m.group(2)}' included from a Program-definition module; "
            "reach the simulator through orwl/backend.h")


PRAGMA = re.compile(r"^\s*#\s*pragma\s+(\w+)|\b_Pragma\s*\(")
# The knob names, bare or in GCC's reserved __name__ spelling.
CODEGEN_NAMES = (r"(?:__)?(?:optimize|target_clones|target|hot|flatten|"
                 r"aligned)(?:__)?\b")
GNU_ATTRIBUTE = re.compile(r"__attribute__\s*\(\((.*?)\)\)")
CODEGEN_NAME = re.compile(r"\b" + CODEGEN_NAMES)
GNU_STD_ATTRIBUTE = re.compile(r"\[\[[^\]]*\b(?:gnu|__gnu__)::" +
                               CODEGEN_NAMES)
CODEGEN_ALLOW = re.compile(r"//\s*lint:\s*allow-codegen\([^)]+\)")


def codegen_knob(code: str):
    """The code-generation knob on a comment-stripped line, or None."""
    m = PRAGMA.search(code)
    if m and m.group(1) != "once":
        return "#pragma " + m.group(1) if m.group(1) else "_Pragma"
    for attr in GNU_ATTRIBUTE.finditer(code):
        name = CODEGEN_NAME.search(attr.group(1))
        if name:
            return f"__attribute__(({name.group(0)}))"
    m = GNU_STD_ATTRIBUTE.search(code)
    if m:
        return m.group(0) + "]]"
    return None


def check_codegen(rel: str, lines: List[str]) -> Iterable[Violation]:
    for i, line in enumerate(lines):
        knob = codegen_knob(line.split("//", 1)[0])
        if knob is None or CODEGEN_ALLOW.search(window(lines, i, 1)):
            continue
        yield Violation(
            rel, i + 1, "codegen",
            f"{knob} is a code-generation knob; make the kernel faster in "
            "its source, or annotate with "
            "'// lint: allow-codegen(<reason>)'")


_current_root = "."

RULES: List[Callable[[str, List[str]], Iterable[Violation]]] = [
    check_sink_contract,
    check_naked_acquire,
    check_order_comment,
    check_rmw_allowlist,
    check_include_hygiene,
    check_layering,
    check_codegen,
]

# sink-contract also covers test code (the model checker implements sinks);
# the other rules are src-only.
TEST_RULES = [check_sink_contract]


def lint(root: str) -> List[Violation]:
    global _current_root
    _current_root = root
    out: List[Violation] = []
    for rel in iter_files(root, ["src"]):
        lines = read_lines(root, rel)
        for rule in RULES:
            out.extend(rule(rel, lines))
    for rel in iter_files(root, ["tests"], exclude=["tests/lint_fixtures"]):
        lines = read_lines(root, rel)
        for rule in TEST_RULES:
            out.extend(rule(rel, lines))
    return out


# ---------------------------------------------------------------------------
# Self-test: every rule must fire on the seeded negative fixtures, and the
# clean fixture must stay clean — proving the lint still detects what it
# claims to detect.
# ---------------------------------------------------------------------------

EXPECTED_FIXTURE_RULES = {
    "src/orwl/bad_sink.h": {"sink-contract"},
    "src/orwl/bad_acquire.cpp": {"naked-acquire"},
    "src/orwl/bad_order.cpp": {"order-comment"},
    "src/orwl/bad_rmw.cpp": {"rmw-allowlist"},
    "src/orwl/bad_include.h": {"include-hygiene"},
    "src/workloads/bad_layering.cpp": {"layering"},
    "src/workloads/bad_codegen.cpp": {"codegen"},
    "src/orwl/clean.h": set(),
}


def self_test(repo_root: str) -> int:
    fixture_root = os.path.join(repo_root, "tests", "lint_fixtures")
    violations = lint(fixture_root)
    by_file: dict = {rel: set() for rel in EXPECTED_FIXTURE_RULES}
    unexpected = []
    for v in violations:
        if v.path in by_file:
            by_file[v.path].add(v.rule)
        else:
            unexpected.append(v)

    failed = False
    for rel, expected in sorted(EXPECTED_FIXTURE_RULES.items()):
        got = by_file[rel]
        if expected - got:
            print(f"self-test FAIL: {rel}: rules {sorted(expected - got)} "
                  "did not fire", file=sys.stderr)
            failed = True
        if got - expected:
            print(f"self-test FAIL: {rel}: unexpected rules "
                  f"{sorted(got - expected)}", file=sys.stderr)
            failed = True
    for v in unexpected:
        print(f"self-test FAIL: violation outside fixture set: {v}",
              file=sys.stderr)
        failed = True
    if failed:
        return 1
    n = sum(len(r) for r in EXPECTED_FIXTURE_RULES.values())
    print(f"orwl_lint self-test OK: {n} seeded violations detected, "
          "clean fixture clean")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repo root to lint (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules against tests/lint_fixtures")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.root)

    violations = lint(args.root)
    for v in violations:
        print(v, file=sys.stderr)
    if violations:
        print(f"orwl_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("orwl_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
