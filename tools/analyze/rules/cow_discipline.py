"""cow-discipline: nodes are mutated in place only where they are private.

Hyder's states are persistent trees: after a node is published (logged or
melded into a state) it is immutable, and every logical update copies the
path from the root (COW). The one change a published node allows is the
lazy-to-materialized memoization of a child slot (`ChildSlot::Get` /
`Memoize`, a CAS). In-place mutation of `Node` content, and rewiring a
child slot (`ChildSlot::Rewire`, a plain store that a concurrent `Memoize`
would race with no sanitizer report, since both sides are atomics), is
therefore only legal in the files that operate on nodes their own context
owns:

 * the COW/meld implementation files, which mutate only private clones
   (`CloneForWrite` returns a node in place only when its owner tag is
   the caller's) — `src/tree/tree_ops.{h,cc}`, `src/tree/node_pool.cc`,
   `src/meld/meld.cc`;
 * the construction side, where nodes are being built and are private
   by definition — decode (`src/txn/codec.cc`, `src/txn/flat_view.cc`),
   intention building (`src/txn/intention_builder.cc`), checkpoint
   bootstrap (`src/server/checkpoint.cc`) and the node factories
   (`src/tree/node.cc`).

See DESIGN.md "Node layout & concurrency contract". The check keys on the
mutating method vocabulary of `Node` and `ChildSlot` (all spellings are
unique to them in this codebase), so the name-keyed match is exact because
the names are not reused.
"""

from __future__ import annotations

from typing import List

from rules import Finding, Rule
from structure import SourceFile, call_sites

_MUTATORS = {
    "set_payload", "set_key_for_relocation", "set_vn", "set_ssv",
    "set_base_cv", "set_cv", "set_owner", "set_color", "set_flags",
    "Rewire",
}

# COW/meld implementation files: every mutation here is on a private clone
# by construction (reviewed when the allowlist was drawn up; extending it
# is a reviewed change to this file).
COW_ALLOWLIST = (
    "src/tree/node.h",  # Node's own inline methods.
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
    description = "node mutation only in COW/meld/build files"

    def check(self, sf: SourceFile) -> List[Finding]:
        if sf.rel_path.endswith(COW_ALLOWLIST) or \
                sf.rel_path.endswith(BUILD_ALLOWLIST):
            return []
        return [Finding(self.id, sf.rel_path, sf.tokens[idx].line,
                        f"in-place node mutation '{name}()' outside the "
                        "COW/meld/build allowlist")
                for idx, name in call_sites(sf, _MUTATORS)]
