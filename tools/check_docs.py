#!/usr/bin/env python3
"""Docs hygiene checker: keeps README + docs/ from rotting.

Run from the repository root (CI's docs job and the `docs_check` CTest do):

  python3 tools/check_docs.py

Checks, stdlib only:
  1. every relative markdown link in README.md and docs/*.md resolves to an
     existing file (http(s)/mailto links and pure #anchors are skipped);
  2. the first ```cpp fenced block in README.md equals (after dedent) the
     region between the `// [quickstart-begin]` / `// [quickstart-end]`
     markers of examples/quickstart.cpp — the file the build compiles — so
     the README quickstart snippet cannot silently stop compiling;
  3. every `*.md` path named in a .cpp, .h or .py file under src/, bench/,
     examples/, tools/ or tests/ resolves from the repository root, so
     code comments cannot cite a document that does not exist.

Exit status 0 when clean; 1 with a per-finding report otherwise.
"""

import os
import re
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_CPP_RE = re.compile(r"```cpp\n(.*?)```", re.DOTALL)
# A relative markdown path; the look-behind skips URLs and path tails.
MD_CITE_RE = re.compile(r"(?<![\w./:-])((?:[\w.-]+/)*[\w.-]+\.md)\b")
CODE_DIRS = ("src", "bench", "examples", "tools", "tests")
CODE_EXTS = (".cpp", ".h", ".py")


def markdown_files():
    files = ["README.md"]
    if os.path.isdir("docs"):
        files += sorted(
            os.path.join("docs", f) for f in os.listdir("docs")
            if f.endswith(".md"))
    return files


def check_links(errors):
    for md in markdown_files():
        with open(md, encoding="utf-8") as f:
            text = f.read()
        base = os.path.dirname(md)
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = os.path.normpath(os.path.join(base, path))
            if not os.path.exists(resolved):
                errors.append(f"{md}: broken link -> {target}")


def dedent(lines):
    indents = [
        len(line) - len(line.lstrip()) for line in lines if line.strip()
    ]
    cut = min(indents, default=0)
    return [line[cut:].rstrip() if line.strip() else "" for line in lines]


def check_quickstart_parity(errors):
    with open("README.md", encoding="utf-8") as f:
        readme = f.read()
    m = FENCE_CPP_RE.search(readme)
    if not m:
        errors.append("README.md: no ```cpp quickstart block found")
        return
    readme_lines = [line.rstrip() for line in m.group(1).splitlines()]

    src_path = os.path.join("examples", "quickstart.cpp")
    with open(src_path, encoding="utf-8") as f:
        src = f.read().splitlines()
    try:
        begin = next(i for i, l in enumerate(src)
                     if l.strip() == "// [quickstart-begin]")
        end = next(i for i, l in enumerate(src)
                   if l.strip() == "// [quickstart-end]")
    except StopIteration:
        errors.append(f"{src_path}: quickstart markers missing")
        return
    region = dedent(src[begin + 1:end])

    if readme_lines != region:
        errors.append(
            "README.md quickstart snippet differs from the marked region "
            f"of {src_path}:")
        width = max(len(readme_lines), len(region))
        for i in range(width):
            want = region[i] if i < len(region) else "<missing>"
            got = readme_lines[i] if i < len(readme_lines) else "<missing>"
            if want != got:
                errors.append(f"  line {i + 1}: README {got!r} != source "
                              f"{want!r}")


def check_code_citations(errors):
    for top in CODE_DIRS:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(CODE_EXTS):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    for n, line in enumerate(f, 1):
                        for cited in MD_CITE_RE.findall(line):
                            if not os.path.exists(cited):
                                errors.append(
                                    f"{path}:{n}: cites missing {cited}")


def main():
    if not os.path.exists("README.md"):
        print("run from the repository root (README.md not found)",
              file=sys.stderr)
        return 1
    errors = []
    check_links(errors)
    check_quickstart_parity(errors)
    check_code_citations(errors)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        return 1
    n_files = len(markdown_files())
    print(f"docs check OK: {n_files} markdown files, links resolve, "
          "quickstart snippet in sync, cited documents exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
