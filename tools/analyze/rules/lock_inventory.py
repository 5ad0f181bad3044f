"""lock-inventory: the meld/server lock inventory is closed.

The meld hot path was de-serialized deliberately (DESIGN.md, "Meld hot
path"), so every `Mutex` and `CondVar` declared in src/meld or src/server
is listed below as `file:name`, counted per declaration. Any other
declaration — member, local or global — fails until this allowlist and
DESIGN.md's lock inventory say, in the same change, why it cannot be a
BoundedQueue hand-off, a resolver shard or a registry lane.
"""

from __future__ import annotations

import collections
from typing import List

from rules import Finding, Rule
from structure import SourceFile

ALLOWLIST = collections.Counter({
    "src/meld/state_table.h:mu_": 1,
    "src/meld/state_table.h:published_": 1,
    "src/server/resolver.h:mu": 2,  # Shard::mu, Lane::mu
    "src/server/resolver.h:pinned_mu_": 1,
})


class LockInventoryRule(Rule):
    id = "lock-inventory"
    description = ("every Mutex/CondVar in src/meld and src/server is on "
                   "the closed allowlist")
    scope = (("src/meld", (".cc", ".h")), ("src/server", (".cc", ".h")))

    def check(self, sf: SourceFile) -> List[Finding]:
        if not sf.rel_path.startswith(("src/meld/", "src/server/")):
            return []
        out: List[Finding] = []
        seen: collections.Counter = collections.Counter()
        toks = sf.tokens
        for t, name in zip(toks, toks[1:]):
            if t.kind != "id" or t.text not in ("Mutex", "CondVar") or \
                    name.kind != "id":
                continue
            entry = f"{sf.rel_path}:{name.text}"
            seen[entry] += 1
            if seen[entry] > ALLOWLIST[entry]:
                out.append(Finding(
                    self.id, sf.rel_path, t.line,
                    f"new {t.text} '{name.text}' in the meld/server hot "
                    "path: list it in lock_inventory.py and DESIGN.md's "
                    "lock inventory with why it cannot be a "
                    "BoundedQueue hand-off, a resolver shard or a "
                    "registry lane"))
        return out
