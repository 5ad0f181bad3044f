#!/usr/bin/env python3
"""hyder-check: AST-based protocol analyzer for the Hyder II codebase.

Enforces the concurrency-protocol invariants that neither clang-tidy,
-Wthread-safety nor tools/lint.sh can express (see DESIGN.md, "Static
analysis & protocol invariants"):

  olc-pairing         every OlcReadBegin has a consumed OlcReadValidate on
                      all return paths
  cow-discipline      published nodes are only mutated in the COW/meld
                      allowlist or under an OlcWriteGuard
  guard-completeness  Mutex-holding classes annotate (or justify) every
                      data member
  codec-symmetry      kWire*/kCheckpoint* constants are referenced on both
                      the serialize and the deserialize side
  ordering-rationale  memory_order_relaxed carries a '// relaxed:' comment

Usage:
  hyder_check.py [-p BUILD_DIR] [--root DIR]        # whole tree (src/)
  hyder_check.py file.cc [file2.cc ...]             # explicit files

Suppressions:
  // hyder-check: allow(rule-id): <reason>          same or next line
  // hyder-check: allow-file(rule-id): <reason>     whole file

Baseline: --baseline FILE carries accepted pre-existing findings;
--write-baseline rewrites it from the current run. A finding matches a
baseline entry by (rule, path, stripped source line), so baselines survive
unrelated line-number churn.

Exit codes: 0 clean, 1 findings, 2 configuration error.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import re
import shlex
import sys
from typing import Dict, List, Optional, Set, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import frontend  # noqa: E402
from rules import Finding, all_rules  # noqa: E402

_SUPPRESS_RE = re.compile(
    r"hyder-check:\s*allow\(\s*([a-z0-9\-,\s]+?)\s*\)")
_SUPPRESS_FILE_RE = re.compile(
    r"hyder-check:\s*allow-file\(\s*([a-z0-9\-,\s]+?)\s*\)")


def repo_root(explicit: Optional[str]) -> str:
    if explicit:
        return os.path.abspath(explicit)
    return os.path.abspath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))


def load_compile_db(build_dir: str) -> List[dict]:
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(db_path):
        raise RuntimeError(
            f"no compile database at {db_path}; configure the build first "
            "(cmake -B build -S . exports it by default)")
    with open(db_path, "r", encoding="utf-8") as f:
        return json.load(f)


def compile_args_for(entry: dict) -> List[str]:
    cmd = entry.get("command")
    args = shlex.split(cmd) if cmd else list(entry.get("arguments", []))
    out: List[str] = []
    skip = False
    for a in args[1:]:
        if skip:
            skip = False
            continue
        if a in ("-o", "-c"):
            skip = a == "-o"
            continue
        if a == entry.get("file"):
            continue
        out.append(a)
    return out


def default_file_set(root: str, build_dir: str
                     ) -> List[Tuple[str, Optional[List[str]]]]:
    """(path, compile_args) for every src/ TU in the DB plus src/ headers."""
    src_root = os.path.join(root, "src")
    files: Dict[str, Optional[List[str]]] = {}
    for entry in load_compile_db(build_dir):
        path = os.path.abspath(os.path.join(entry["directory"],
                                            entry["file"]))
        if path.startswith(src_root + os.sep):
            files.setdefault(path, compile_args_for(entry))
    for dirpath, _, names in os.walk(src_root):
        for name in names:
            if name.endswith(".h"):
                files.setdefault(os.path.join(dirpath, name), None)
    return sorted(files.items())


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


def baseline_key(root: str, f: Finding) -> Tuple[str, str, str]:
    path = os.path.join(root, f.rel_path)
    content = ""
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            lines = fh.read().splitlines()
        if 1 <= f.line <= len(lines):
            content = lines[f.line - 1].strip()
    except OSError:
        pass
    return (f.rule, f.rel_path, content)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="hyder_check.py",
        description="AST-based protocol analyzer for Hyder II")
    ap.add_argument("files", nargs="*",
                    help="explicit files to analyze (default: all of src/ "
                         "via the compile database)")
    ap.add_argument("-p", "--build-dir", default=None,
                    help="build directory holding compile_commands.json "
                         "(default: <root>/build)")
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels up from "
                         "this script)")
    ap.add_argument("--frontend", choices=("auto", "text", "clang"),
                    default="auto")
    ap.add_argument("--rules", default=None,
                    help="comma-separated rule ids to run (default: all)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--baseline", default=None,
                    help="baseline JSON of accepted findings (default: "
                         "tools/analyze/baseline.json in tree mode)")
    ap.add_argument("--write-baseline", action="store_true",
                    help="rewrite the baseline from this run's findings")
    ap.add_argument("--no-baseline", action="store_true",
                    help="ignore any baseline file")
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
    try:
        mode = frontend.resolve_frontend(args.frontend)
    except RuntimeError as e:
        print(f"hyder-check: {e}", file=sys.stderr)
        return 2

    explicit_mode = bool(args.files)
    try:
        if explicit_mode:
            file_set = [(os.path.abspath(f), None) for f in args.files]
        else:
            build_dir = args.build_dir or os.path.join(root, "build")
            file_set = default_file_set(root, build_dir)
    except RuntimeError as e:
        print(f"hyder-check: {e}", file=sys.stderr)
        return 2

    baseline_path = args.baseline
    if baseline_path is None and not explicit_mode:
        baseline_path = os.path.join(root, "tools", "analyze",
                                     "baseline.json")

    findings: List[Finding] = []
    for path, compile_args in file_set:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if rel.startswith(".."):
            rel = path.replace(os.sep, "/")
        try:
            sf = frontend.build(path, rel, mode, compile_args)
        except OSError as e:
            print(f"hyder-check: cannot read {path}: {e}", file=sys.stderr)
            return 2
        by_line, file_wide = collect_suppressions(sf)
        for rule in rules:
            for f in rule.check(sf):
                if f.rule in file_wide or f.rule in by_line.get(f.line, ()):
                    continue
                findings.append(f)
    for rule in rules:
        findings.extend(rule.finalize())
    findings = sorted(set(findings),
                      key=lambda f: (f.rel_path, f.line, f.rule))

    if args.write_baseline:
        if not baseline_path:
            print("hyder-check: --write-baseline needs --baseline in "
                  "explicit-file mode", file=sys.stderr)
            return 2
        entries = [{"rule": r, "path": p, "content": c} for r, p, c in
                   sorted(baseline_key(root, f) for f in findings)]
        with open(baseline_path, "w", encoding="utf-8") as fh:
            json.dump({"version": 1, "entries": entries}, fh, indent=2)
            fh.write("\n")
        if not args.quiet:
            print(f"hyder-check: wrote {len(entries)} baseline entries to "
                  f"{baseline_path}")
        return 0

    accepted: collections.Counter = collections.Counter()
    if baseline_path and not args.no_baseline and \
            os.path.exists(baseline_path):
        with open(baseline_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        for e in doc.get("entries", []):
            accepted[(e["rule"], e["path"], e["content"])] += 1

    new_findings: List[Finding] = []
    baselined = 0
    for f in findings:
        key = baseline_key(root, f)
        if accepted[key] > 0:
            accepted[key] -= 1
            baselined += 1
        else:
            new_findings.append(f)

    for f in new_findings:
        print(f.render())
    if not args.quiet:
        note = f" ({baselined} baselined)" if baselined else ""
        status = "FAILED" if new_findings else "OK"
        print(f"hyder-check: {status} — {len(new_findings)} finding(s) in "
              f"{len(file_set)} file(s){note} [frontend={mode}]",
              file=sys.stderr)
    return 1 if new_findings else 0


if __name__ == "__main__":
    sys.exit(main())
