#!/usr/bin/env python3
"""Memory-order justification lint.

Every *explicit* std::memory_order argument in the concurrency-bearing
directories (SCAN_DIRS: the page table in src/core, src/shard,
src/analysis, src/obs and src/server) must carry an adjacent justification
comment: either on the same line, or within the three lines above the use.
A bare `memory_order_relaxed` with no stated reason is exactly how seqlock
protocols rot — the next editor cannot tell a load that is relaxed because
the acquire fence covers it from one that is relaxed by accident.

A "justification" is deliberately cheap to satisfy: any comment text near
the use counts. The lint enforces that the reasoning is *written down*,
not that it is correct — the model checker (tests/test_seqlock_model.cpp)
handles correctness.

Usage:
  scripts/check_memory_order_lint.py [--root REPO_ROOT]
  scripts/check_memory_order_lint.py --self-test

Exits 1 listing each offending file:line when an unjustified use is found.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile

SCAN_DIRS = ("src/core", "src/shard", "src/analysis", "src/obs", "src/server")
SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

MEMORY_ORDER_RE = re.compile(r"\bmemory_order(?:_\w+|::\w+)")
COMMENT_RE = re.compile(r"//|/\*")
# Lines above a use that merely continue the same expression should not
# soak up the comment window.
JUSTIFICATION_WINDOW = 3


def line_has_comment(line: str) -> bool:
    return COMMENT_RE.search(line) is not None


def find_unjustified(text: str) -> list[int]:
    """Returns 1-based line numbers of unjustified memory_order uses."""
    lines = text.splitlines()
    offenders = []
    in_block_comment = False
    commentish = []  # per line: does it contain / continue a comment?
    for line in lines:
        has = in_block_comment or line_has_comment(line)
        # Track /* ... */ spans (good enough for this codebase's style).
        opens = line.count("/*")
        closes = line.count("*/")
        if opens > closes:
            in_block_comment = True
        elif closes >= opens and closes > 0:
            in_block_comment = False
        commentish.append(has)

    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]
        if not MEMORY_ORDER_RE.search(code):
            continue  # use only inside a comment (or absent) — fine
        if line_has_comment(line):
            continue  # same-line justification
        window = commentish[max(0, i - JUSTIFICATION_WINDOW) : i]
        if any(window):
            continue
        offenders.append(i + 1)
    return offenders


def offenders_under(root: pathlib.Path) -> list[tuple[str, int]]:
    """(path relative to root, line) of every unjustified use in SCAN_DIRS."""
    found = []
    for rel in SCAN_DIRS:
        base = root / rel
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SUFFIXES:
                continue
            for lineno in find_unjustified(path.read_text(encoding="utf-8")):
                found.append((path.relative_to(root).as_posix(), lineno))
    return found


def scan(root: pathlib.Path) -> int:
    failed = False
    for rel, lineno in offenders_under(root):
        failed = True
        print(
            f"{rel}:{lineno}: explicit "
            "memory_order without an adjacent justification comment "
            f"(same line or within {JUSTIFICATION_WINDOW} lines above)"
        )
    if failed:
        print(
            "\nmemory-order lint FAILED — say *why* the ordering is "
            "sufficient next to each use.",
            file=sys.stderr,
        )
        return 1
    print("memory-order lint passed")
    return 0


def self_test() -> int:
    cases = [
        # (source, expected offending line numbers)
        ("x.load(std::memory_order_acquire);", [1]),
        ("x.load(std::memory_order_acquire);  // pairs with release", []),
        ("// the fence below covers this\nx.load(std::memory_order_relaxed);", []),
        (
            "// justification\n\n\n\nx.load(std::memory_order_relaxed);",
            [5],  # comment is outside the 3-line window
        ),
        ("/* block\n   comment */\nx.store(1, std::memory_order_release);", []),
        ("int y = 0;\nx.store(1, std::memory_order_release);", [2]),
        ("// mentions memory_order_relaxed only in a comment", []),
        (
            "y.load(std::memory_order_acquire);  // why\n"
            "z.load(std::memory_order_acquire);",
            [],  # previous justified line sits inside the window
        ),
        ("x.load(std::memory_order::acquire);", [1]),  # C++20 spelling
    ]
    ok = True
    for i, (src, expected) in enumerate(cases):
        got = find_unjustified(src)
        if got != expected:
            ok = False
            print(f"self-test case {i} FAILED: expected {expected}, got {got}")
    # The directory list: the seqlock page table sits in src/core beside
    # its writer, the server's loop counters in src/server; a directory
    # outside the list stays unscanned.
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        bare = "x.load(std::memory_order_relaxed);\n"
        for rel in ("src/core/seqlock_table.hpp", "src/server/server.cpp",
                    "src/sim/simulator.cpp"):
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(bare, encoding="utf-8")
        got = offenders_under(root)
        expected = [("src/core/seqlock_table.hpp", 1),
                    ("src/server/server.cpp", 1)]
        if got != expected:
            ok = False
            print(f"self-test directory case FAILED: expected {expected}, "
                  f"got {got}")
    if ok:
        print(f"self-test passed ({len(cases) + 1} cases)")
        return 0
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: the script's grandparent)",
    )
    parser.add_argument(
        "--self-test", action="store_true", help="run the lint's own tests"
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return scan(args.root)


if __name__ == "__main__":
    sys.exit(main())
