#!/usr/bin/env python3
"""hyder-check: the static checker for the Hyder II codebase.

Enforces the invariants clang `-Wthread-safety` and clang-tidy cannot
express (see DESIGN.md, "Static analysis & protocol invariants"):

  cow-discipline      nodes are only mutated in place in the COW/meld/build
                      allowlist
  guard-completeness  Mutex-holding classes annotate (or justify) every
                      data member
  codec-symmetry      kWire*/kCheckpoint* constants are referenced on both
                      the serialize and the deserialize side
  ordering-rationale  memory_order_relaxed carries a '// relaxed:' comment
  abort-provenance    every kAbort* cause enumerator is produced by at
                      least one meld-layer abort path
  banned-api          no raw std sync primitives, no threads outside the
                      pipeline, no stream output in the library
  lock-inventory      the meld/server Mutex/CondVar set is closed

Usage:
  hyder_check.py [--root DIR]                       # whole tree
  hyder_check.py file.cc [file2.cc ...]             # explicit files

A whole-tree run walks the directories each rule covers (its `scope`);
explicit files get every selected rule.

Suppressions:
  // hyder-check: allow(rule-id): <reason>          same or next line
  // hyder-check: allow-file(rule-id): <reason>     whole file

Exit codes: 0 clean, 1 findings, 2 configuration error.
"""

from __future__ import annotations

import argparse
import collections
import os
import re
import sys
from typing import Dict, List, Optional, Set, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import structure  # noqa: E402
from rules import Finding, Rule, all_rules  # noqa: E402

_SUPPRESS_RE = re.compile(
    r"hyder-check:\s*allow\(\s*([a-z0-9\-,\s]+?)\s*\)")
_SUPPRESS_FILE_RE = re.compile(
    r"hyder-check:\s*allow-file\(\s*([a-z0-9\-,\s]+?)\s*\)")


def repo_root(explicit: Optional[str]) -> str:
    if explicit:
        return os.path.abspath(explicit)
    return os.path.abspath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))


def load(path: str, rel_path: str) -> structure.SourceFile:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return structure.build_source_file(path, rel_path, f.read())


def tree_file_set(root: str, rules: List[Rule]) -> Dict[str, List[Rule]]:
    """Every file under some rule's scope, with the rules that cover it."""
    files: Dict[str, List[Rule]] = collections.defaultdict(list)
    for rule in rules:
        for top, suffixes in rule.scope:
            for dirpath, _, names in os.walk(os.path.join(root, top)):
                for name in names:
                    path = os.path.join(dirpath, name)
                    if name.endswith(suffixes) and rule not in files[path]:
                        files[path].append(rule)
    return dict(sorted(files.items()))


def collect_suppressions(sf) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Per-line and whole-file suppressed rule ids.

    A suppression comment applies to findings on any line it occupies and
    on the line after its last line (the preceding-line form).
    """
    by_line: Dict[int, Set[str]] = collections.defaultdict(set)
    file_wide: Set[str] = set()
    for c in sf.comments:
        m = _SUPPRESS_FILE_RE.search(c.text)
        if m:
            file_wide.update(r.strip() for r in m.group(1).split(","))
        m = _SUPPRESS_RE.search(c.text)
        if m:
            ids = {r.strip() for r in m.group(1).split(",")}
            for ln in range(c.line, c.end_line + 2):
                by_line[ln].update(ids)
    return by_line, file_wide


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="hyder_check.py",
        description="Static checker for Hyder II")
    ap.add_argument("files", nargs="*",
                    help="explicit files to analyze (default: every "
                         "directory the rules cover)")
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels up from "
                         "this script)")
    ap.add_argument("--rules", default=None,
                    help="comma-separated rule ids to run (default: all)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    rules = all_rules()
    if args.list_rules:
        for r in rules:
            print(f"{r.id:20s} {r.description}")
        return 0
    if args.rules:
        wanted = {r.strip() for r in args.rules.split(",")}
        unknown = wanted - {r.id for r in rules}
        if unknown:
            print(f"hyder-check: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        rules = [r for r in rules if r.id in wanted]

    root = repo_root(args.root)
    if args.files:
        file_set = {os.path.abspath(f): rules for f in args.files}
    else:
        file_set = tree_file_set(root, rules)

    findings: List[Finding] = []
    for path, file_rules in file_set.items():
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if rel.startswith(".."):
            rel = path.replace(os.sep, "/")
        try:
            sf = load(path, rel)
        except OSError as e:
            print(f"hyder-check: cannot read {path}: {e}", file=sys.stderr)
            return 2
        by_line, file_wide = collect_suppressions(sf)
        for rule in file_rules:
            for f in rule.check(sf):
                if f.rule in file_wide or f.rule in by_line.get(f.line, ()):
                    continue
                findings.append(f)
    for rule in rules:
        findings.extend(rule.finalize())
    findings = sorted(set(findings),
                      key=lambda f: (f.rel_path, f.line, f.rule))

    for f in findings:
        print(f.render())
    if not args.quiet:
        status = "FAILED" if findings else "OK"
        where = ""
        if not args.files:
            per_dir = collections.Counter(
                os.path.relpath(p, root).split(os.sep)[0] for p in file_set)
            where = " (" + ", ".join(
                f"{d}/ {n}" for d, n in sorted(per_dir.items())) + ")"
        print(f"hyder-check: {status} — {len(findings)} finding(s) in "
              f"{len(file_set)} file(s){where}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
