"""Rule registry for hyder-check.

Each rule module exports a subclass of `Rule`. A rule sees every analyzed
file once via `check()` and may emit more findings from `finalize()` after
the whole file set has been seen (cross-file rules like codec-symmetry).

Rule ids are stable: suppression comments (`// hyder-check: allow(<id>)`),
the committed baseline and the fixture expectations all key on them.
"""

from __future__ import annotations

import dataclasses
from typing import List

from structure import SourceFile


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

    def check(self, sf: SourceFile) -> List[Finding]:
        return []

    def finalize(self) -> List[Finding]:
        return []


def all_rules() -> List[Rule]:
    from rules import (abort_provenance, codec_symmetry, cow_discipline,
                       guard_completeness, olc_pairing, ordering_rationale)
    return [
        olc_pairing.OlcPairingRule(),
        cow_discipline.CowDisciplineRule(),
        guard_completeness.GuardCompletenessRule(),
        codec_symmetry.CodecSymmetryRule(),
        ordering_rationale.OrderingRationaleRule(),
        abort_provenance.AbortProvenanceRule(),
    ]
