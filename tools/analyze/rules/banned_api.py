"""banned-api: raw primitives that bypass the repo's own machinery.

One table of banned spellings, each with the directories it covers and
the files exempt from it:

 * raw std synchronization primitives are invisible to clang
   `-Wthread-safety`: locking goes through the annotated wrappers of
   `src/common/thread_annotations.h`, the one file that may name them;
 * threads in the library bypass the shutdown/join discipline: only the
   threaded meld pipeline spawns them (tests and benches may spawn their
   own);
 * stream output in the library is unaggregatable and invisible to the
   JSON/trace exporters: counters go through MetricsRegistry
   (common/registry.h), errors through Status (CLIs under bench/, tools/
   and examples/ own their streams).

Matching is on tokens, so comments and string literals never match, and
`snprintf` (formatting into a buffer) is not `printf`.
"""

from __future__ import annotations

from typing import List, NamedTuple, Set, Tuple

from rules import Finding, Rule
from structure import SourceFile


class Ban(NamedTuple):
    names: Set[str]
    std_qualified: bool      # spelled `std::name`; else called as `name(`
    dirs: Tuple[str, ...]    # repo-relative directory prefixes it covers
    exempt: Tuple[str, ...]  # repo-relative path prefixes exempt from it
    advice: str


_STREAM_ADVICE = ("library code never writes to the process's streams; use "
                  "MetricsRegistry (common/registry.h) or Status")

BANS = (
    Ban({"mutex", "timed_mutex", "recursive_mutex", "recursive_timed_mutex",
         "shared_mutex", "shared_timed_mutex", "lock_guard", "unique_lock",
         "shared_lock", "scoped_lock", "condition_variable",
         "condition_variable_any"}, True,
        ("src/", "tests/", "bench/", "examples/"),
        ("src/common/thread_annotations.h",),
        "use the annotated Mutex/MutexLock/CondVar of "
        "common/thread_annotations.h; raw std primitives are invisible to "
        "-Wthread-safety"),
    Ban({"thread", "jthread"}, True, ("src/",),
        ("src/meld/threaded_pipeline.",),
        "only meld/threaded_pipeline spawns threads in the library "
        "(shutdown/join discipline)"),
    Ban({"cout", "cerr", "clog"}, True, ("src/",), (), _STREAM_ADVICE),
    Ban({"printf", "fprintf", "vprintf", "vfprintf", "puts"}, False,
        ("src/",), (), _STREAM_ADVICE),
)


class BannedApiRule(Rule):
    id = "banned-api"
    description = ("raw std sync primitives, threads outside the pipeline "
                   "and stream output in the library")
    scope = tuple((d, (".cc", ".h", ".cpp"))
                  for d in ("src", "tests", "bench", "examples"))

    def check(self, sf: SourceFile) -> List[Finding]:
        bans = [b for b in BANS if sf.rel_path.startswith(b.dirs) and
                not sf.rel_path.startswith(b.exempt)]
        out: List[Finding] = []
        toks = sf.tokens
        for i, t in enumerate(toks):
            for ban in bans:
                if t.kind != "id" or t.text not in ban.names:
                    continue
                if ban.std_qualified and i >= 2 and \
                        toks[i - 1].text == "::" and toks[i - 2].text == "std":
                    spelling = f"std::{t.text}"
                elif not ban.std_qualified and i + 1 < len(toks) and \
                        toks[i + 1].text == "(":
                    spelling = f"{t.text}()"
                else:
                    continue
                out.append(Finding(self.id, sf.rel_path, t.line,
                                   f"{spelling}: {ban.advice}"))
        return out
