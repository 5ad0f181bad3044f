"""Rule registry for hyder-check.

Each rule module exports a subclass of `Rule`. A rule sees every analyzed
file once via `check()` and may emit more findings from `finalize()` after
the whole file set has been seen (cross-file rules like codec-symmetry).
A whole-tree run walks each rule's `scope` and hands the rule only the
files found there.

Rule ids are stable: suppression comments (`// hyder-check: allow(<id>)`)
and the fixture expectations key on them.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from structure import SourceFile

# The library: every translation unit and header under src/.
SRC_SCOPE: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("src", (".cc", ".h")),)


@dataclasses.dataclass(frozen=True)
class Finding:
    rule: str
    rel_path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.rel_path}:{self.line}: error: " \
               f"[{self.rule}] {self.message}"


class Rule:
    id: str = ""
    description: str = ""
    # (repo-relative directory, file suffixes) pairs a whole-tree run
    # walks for this rule.
    scope: Tuple[Tuple[str, Tuple[str, ...]], ...] = SRC_SCOPE

    def check(self, sf: SourceFile) -> List[Finding]:
        return []

    def finalize(self) -> List[Finding]:
        return []


def all_rules() -> List[Rule]:
    from rules import (abort_provenance, banned_api, codec_symmetry,
                       cow_discipline, guard_completeness, lock_inventory,
                       ordering_rationale)
    return [
        cow_discipline.CowDisciplineRule(),
        guard_completeness.GuardCompletenessRule(),
        codec_symmetry.CodecSymmetryRule(),
        ordering_rationale.OrderingRationaleRule(),
        abort_provenance.AbortProvenanceRule(),
        banned_api.BannedApiRule(),
        lock_inventory.LockInventoryRule(),
    ]
