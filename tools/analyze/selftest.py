#!/usr/bin/env python3
"""hyder-check self-test: the fixture corpus pins every rule's behavior.

Two layers:

 1. Per-rule fixtures: for each rule, `fixtures/<rule>_bad*.cc` carry
    seeded violations marked `// expect: <rule-id>` on the offending line,
    and `fixtures/<rule>_clean*.cc` carry the idioms the rule must accept.
    The test asserts the *exact* (rule, line) set — a rule that stops
    firing, fires on the wrong line, or over-fires fails the test. A
    fixture is analyzed under its file name, or under the repo-relative
    path named by a `// fixture-path: <path>` line, which is how the
    directory-scoped rules (banned-api, lock-inventory) are pinned.

 2. Suppression mechanism: `fixtures/suppression.cc` holds violations in
    every documented suppression form; the full driver must report zero.

Run directly (`python3 tools/analyze/selftest.py`) or via
`ctest -L analysis`. Exit 0 on success, 1 on any failure.
"""

from __future__ import annotations

import glob
import io
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import List, Set, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hyder_check  # noqa: E402
from rules import Finding, all_rules  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")
_EXPECT_RE = re.compile(r"//\s*expect:\s*([a-z\-]+)")
_PATH_RE = re.compile(r"^//\s*fixture-path:\s*(\S+)", re.MULTILINE)

_failures: List[str] = []


def fail(msg: str) -> None:
    _failures.append(msg)
    print(f"FAIL: {msg}")


def ok(msg: str) -> None:
    print(f"  ok: {msg}")


def expected_lines(path: str, rule_id: str) -> Set[int]:
    out: Set[int] = set()
    with open(path, "r", encoding="utf-8") as f:
        for i, line in enumerate(f, start=1):
            m = _EXPECT_RE.search(line)
            if m and m.group(1) == rule_id:
                out.add(i)
    return out


def load_fixture(path: str):
    with open(path, "r", encoding="utf-8") as f:
        m = _PATH_RE.search(f.read())
    return hyder_check.load(path, m.group(1) if m else os.path.basename(path))


def run_rule(rule_id: str, path: str) -> Set[int]:
    """Findings for one rule on one fixture, with driver-level suppression
    filtering applied (the clean fixtures document the suppression escape,
    so they must go through the same filter the driver uses)."""
    rule = next(r for r in all_rules() if r.id == rule_id)
    sf = load_fixture(path)
    by_line, file_wide = hyder_check.collect_suppressions(sf)
    findings: List[Finding] = list(rule.check(sf)) + list(rule.finalize())
    return {f.line for f in findings
            if f.rule not in file_wide and
            f.rule not in by_line.get(f.line, ())}


def test_rule_fixtures() -> None:
    for rule in all_rules():
        stem = rule.id.replace("-", "_")
        bads = sorted(glob.glob(os.path.join(FIXTURES, f"{stem}_bad*.cc")))
        cleans = sorted(
            glob.glob(os.path.join(FIXTURES, f"{stem}_clean*.cc")))
        if not bads or not cleans:
            fail(f"{rule.id}: needs {stem}_bad*.cc and {stem}_clean*.cc "
                 "fixtures")
            continue

        for bad in bads:
            name = os.path.basename(bad)
            want = expected_lines(bad, rule.id)
            if not want:
                fail(f"{rule.id}: {name} has no '// expect:' markers")
            got = run_rule(rule.id, bad)
            if got != want:
                fail(f"{rule.id}: {name} mismatch — expected lines "
                     f"{sorted(want)}, got {sorted(got)}")
            else:
                ok(f"{rule.id}: {name} fires on exactly lines "
                   f"{sorted(want)}")

        for clean in cleans:
            name = os.path.basename(clean)
            got_clean = run_rule(rule.id, clean)
            if got_clean:
                fail(f"{rule.id}: {name} raised findings on lines "
                     f"{sorted(got_clean)}")
            else:
                ok(f"{rule.id}: quiet on {name}")


def run_driver(argv: List[str]) -> Tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = hyder_check.main(argv)
    return code, out.getvalue()


def test_suppression_mechanism() -> None:
    path = os.path.join(FIXTURES, "suppression.cc")
    code, output = run_driver([path, "-q"])
    if code != 0:
        fail(f"suppression.cc: driver exited {code}, expected 0; "
             f"output:\n{output}")
    else:
        ok("suppression fixture: all documented forms silence the driver")
    # The same file with suppressions ignored must fail: proves the
    # fixture actually seeds violations and the comments do the work.
    sf = load_fixture(path)
    raw = [f for r in all_rules()
           for f in list(r.check(sf)) + list(r.finalize())]
    if not raw:
        fail("suppression.cc seeds no violations; the suppression test "
             "is vacuous")
    else:
        ok(f"suppression fixture seeds {len(raw)} raw violation(s)")


def test_tree_scope() -> None:
    """A whole-tree run reads each rule's directories and nothing else."""
    root = hyder_check.repo_root(None)
    rules = {r.id: r for r in all_rules()}
    wrong = []
    for rule_id, path, covered in (
            ("cow-discipline", "src/tree/node.h", True),
            ("cow-discipline", "tests/test_cluster.h", False),
            ("guard-completeness", "tests/test_cluster.h", True),
            ("guard-completeness", "tests/txn_test.cc", False),
            ("banned-api", "examples/quickstart.cpp", True),
            ("banned-api", "bench/check.h", True),
            ("banned-api", "tools/trace_export.cc", False),
            ("lock-inventory", "src/server/resolver.h", True),
            ("lock-inventory", "src/common/queue.h", False)):
        files = hyder_check.tree_file_set(root, [rules[rule_id]])
        if (os.path.join(root, path) in files) != covered:
            wrong.append(f"{rule_id} {'misses' if covered else 'reads'} "
                         f"{path}")
    if wrong:
        fail(f"tree scope: {'; '.join(wrong)}")
    else:
        ok("tree scope: each rule walks exactly its directories")


def test_driver_cli() -> None:
    code, _ = run_driver(["--list-rules"])
    if code != 0:
        fail(f"--list-rules exited {code}")
    code, _ = run_driver(["--rules", "no-such-rule",
                          os.path.join(FIXTURES, "suppression.cc")])
    if code != 2:
        fail(f"unknown --rules exited {code}, expected 2")
    else:
        ok("driver CLI: list-rules and unknown-rule handling")


def main() -> int:
    print(f"hyder-check selftest (fixtures: {FIXTURES})")
    test_rule_fixtures()
    test_suppression_mechanism()
    test_tree_scope()
    test_driver_cli()
    if _failures:
        print(f"\n{len(_failures)} failure(s)")
        return 1
    print("\nall selftests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
