"""ordering-rationale: relaxed atomics carry a written justification.

`std::memory_order_relaxed` is the one ordering whose correctness argument
lives entirely outside the type system: it is right exactly when the value
participates in no inter-thread happens-before edge (statistics counters,
values re-checked under a fence, data published by a later release). That
argument belongs next to the code — a relaxed load that silently moved from
"stats only" to "read by the decision path" is a real bug this repo has
already seen (the PR 3 resolver race).

The check: outside the allowlisted lock-free files (whose file-level
comments document the protocol for every access), each
`std::memory_order_relaxed` token must have a comment containing
`relaxed:` (case-insensitive) either adjacent — same line, the comment
block ending on the line above, or the line below (arguments wrapped by
clang-format) — or anywhere inside the same function body: one rationale
covers a function that loads six stats counters, but a new relaxed access
in a *different* function cannot ride on it.
"""

from __future__ import annotations

from typing import List

from rules import Finding, Rule
from structure import SourceFile

# Files whose whole design is a documented lock-free protocol; per-site
# comments there would restate the file header. Reviewed additions only.
ALLOWLIST = (
    "src/common/trace.h",
    "src/common/trace.cc",
)


class OrderingRationaleRule(Rule):
    id = "ordering-rationale"
    description = ("std::memory_order_relaxed outside the lock-free "
                   "allowlist needs an adjacent '// relaxed:' comment")

    def check(self, sf: SourceFile) -> List[Finding]:
        if sf.rel_path.endswith(ALLOWLIST):
            return []
        out: List[Finding] = []
        comment_lines = sf.comment_lines()

        def has_rationale(line: int) -> bool:
            for ln in (line - 1, line, line + 1):
                for c in comment_lines.get(ln, ()):
                    if "relaxed:" in c.text.lower():
                        return True
            # A comment block immediately above counts even when the
            # `relaxed:` sentence starts a few lines up: walk the run of
            # contiguous comment-bearing lines ending at line - 1.
            ln = line - 1
            while ln in comment_lines:
                if any("relaxed:" in c.text.lower()
                       for c in comment_lines[ln]):
                    return True
                ln -= 1
            return False

        def function_has_rationale(tok_idx: int) -> bool:
            fn = sf.enclosing_function(tok_idx)
            if fn is None:
                return False
            lo = sf.tokens[fn.body_start].line
            hi = sf.tokens[fn.body_end].line
            return any("relaxed:" in c.text.lower()
                       for c in sf.comments if lo <= c.line <= hi)

        for i, t in enumerate(sf.tokens):
            if t.kind == "id" and t.text == "memory_order_relaxed":
                if not has_rationale(t.line) and \
                        not function_has_rationale(i):
                    out.append(Finding(
                        self.id, sf.rel_path, t.line,
                        "std::memory_order_relaxed without an adjacent "
                        "'// relaxed:' comment stating why no "
                        "happens-before edge is needed here"))
        return out
