"""guard-completeness: Mutex-holding classes annotate every member.

clang's `-Wthread-safety` verifies that `GUARDED_BY` members are accessed
under their lock — but it says nothing about members that simply lack the
annotation. A class that declares a `Mutex` and leaves a data member
unannotated has silently opted that member out of the analysis; whether the
omission is a bug or a deliberate design (thread-confined, set-once,
internally synchronized) is exactly what should be written down.

The check: in any class/struct declaring a `Mutex` member, every data
member must be one of

 * annotated `GUARDED_BY(...)` / `PT_GUARDED_BY(...)`;
 * `const` (including `T* const`), a reference, or `static`;
 * a `std::atomic<...>`;
 * of an internally synchronized type (the vocabulary below — adding a
   type here is a reviewed change);
 * or carry an explicit suppression
   (`// hyder-check: allow(guard-completeness): <why>`), which is the
   documented escape for thread-confined and set-once members.

This closes the gap where `-Wthread-safety` ignores unannotated members:
after this rule, "unannotated" can only mean "justified in writing". It
reads the library and the test-support headers (tests/*.h), whose
Mutex-holding helpers are shared by the multi-threaded suites.
"""

from __future__ import annotations

from typing import List

from rules import SRC_SCOPE, Finding, Rule
from structure import SourceFile

# Types that synchronize internally (or are the synchronization): holding
# them unguarded next to a Mutex is the normal pattern, not a gap.
_SYNC_TYPES = {
    "Mutex", "CondVar", "MutexLock", "BoundedQueue", "Tracer",
    "MetricsRegistry", "ProviderHandle", "LatencyHistogram",
}


class GuardCompletenessRule(Rule):
    id = "guard-completeness"
    description = ("classes with a Mutex must GUARDED_BY-annotate (or "
                   "justify) every data member")
    scope = SRC_SCOPE + (("tests", (".h",)),)

    def check(self, sf: SourceFile) -> List[Finding]:
        out: List[Finding] = []
        for cls in sf.classes:
            if not any(self._is_mutex(m) for m in cls.members):
                continue
            for m in cls.members:
                if self._exempt(m):
                    continue
                out.append(Finding(
                    self.id, sf.rel_path, m.line,
                    f"member '{m.name}' of Mutex-holding class "
                    f"'{cls.name}' has no GUARDED_BY annotation; annotate "
                    "it or justify the omission with a suppression"))
        return out

    def _is_mutex(self, m) -> bool:
        return any(t in ("Mutex",) for t in m.type_tokens)

    def _exempt(self, m) -> bool:
        if m.annotations & {"GUARDED_BY", "PT_GUARDED_BY"}:
            return True
        if m.is_const or m.is_static or m.is_atomic or m.is_reference:
            return True
        if any(t in _SYNC_TYPES for t in m.type_tokens):
            return True
        return False
