"""cow-discipline: published nodes are never mutated in place.

Hyder's states are persistent trees: after a node is published (logged or
melded into a state) it is immutable, and every logical update copies the
path from the root (COW). In-place mutation of `Node` content is
therefore only legal:

 * in the COW/meld implementation files, which operate exclusively on
   private (unpublished) clones — `src/tree/tree_ops.{h,cc}`,
   `src/tree/node_pool.cc`, `src/meld/meld.cc`;
 * on the construction side, where nodes are being built and are private
   by definition — decode (`src/txn/codec.cc`), intention building
   (`src/txn/intention_builder.cc`), checkpoint bootstrap
   (`src/server/checkpoint.cc`) and the node factories
   (`src/tree/node.cc`);
 * anywhere else only under an `OlcWriteGuard` in a lexically enclosing
   scope, which both documents the in-place write and lets concurrent
   optimistic readers retry past it.

The check keys on the mutating method vocabulary of `Node` (all spellings
are unique to it in this codebase), so the name-keyed match is exact
because the names are not reused.
"""

from __future__ import annotations

from typing import List

from rules import Finding, Rule
from structure import SourceFile, call_sites

_MUTATORS = {
    "set_payload", "set_key_for_relocation", "set_vn", "set_ssv",
    "set_base_cv", "set_cv", "set_owner", "set_color", "set_flags",
    "OlcWriteBegin", "OlcWriteEnd",
}

# COW/meld implementation files: every mutation here is on a private clone
# by construction (reviewed when the allowlist was drawn up; extending it
# is a reviewed change to this file).
COW_ALLOWLIST = (
    "src/tree/node.h",  # Node's own inline methods and OlcWriteGuard.
    "src/tree/tree_ops.cc",
    "src/tree/tree_ops.h",
    "src/tree/node_pool.cc",
    "src/meld/meld.cc",
)

# Construction-side files: nodes under assembly, private until returned.
BUILD_ALLOWLIST = (
    "src/tree/node.cc",
    "src/txn/codec.cc",
    "src/txn/flat_view.cc",  # Lazy decode: nodes private until CAS-published.
    "src/txn/intention_builder.cc",
    "src/server/checkpoint.cc",
)


class CowDisciplineRule(Rule):
    id = "cow-discipline"
    description = ("node mutation only in COW/meld/build files or under "
                   "an OlcWriteGuard")

    def check(self, sf: SourceFile) -> List[Finding]:
        if sf.rel_path.endswith(COW_ALLOWLIST) or \
                sf.rel_path.endswith(BUILD_ALLOWLIST):
            return []
        out: List[Finding] = []
        guards = self._guard_decls(sf)
        for idx, name in call_sites(sf, _MUTATORS):
            if self._guarded(sf, idx, guards):
                continue
            out.append(Finding(
                self.id, sf.rel_path, sf.tokens[idx].line,
                f"in-place node mutation '{name}()' outside the COW/meld "
                "allowlist and without an OlcWriteGuard in scope"))
        return out

    def _guard_decls(self, sf: SourceFile) -> List[int]:
        """Token indices of `OlcWriteGuard name(...)` declarations."""
        decls = []
        toks = sf.tokens
        for i, t in enumerate(toks):
            if t.kind == "id" and t.text == "OlcWriteGuard" and \
                    i + 1 < len(toks) and toks[i + 1].kind == "id":
                decls.append(i)
        return decls

    def _guarded(self, sf: SourceFile, idx: int, guards: List[int]) -> bool:
        """True when a guard declared earlier in an enclosing block covers
        the token at `idx` (lexical scope approximation of RAII extent)."""
        enclosing = set()
        b = sf.open_of.get(idx)
        while b is not None:
            enclosing.add(b)
            b = sf.open_of.get(b)
        for g in guards:
            if g < idx and sf.open_of.get(g) in enclosing:
                return True
        return False
