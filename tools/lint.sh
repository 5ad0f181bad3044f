#!/usr/bin/env bash
# Repo lint: mechanical checks for the invariants the compiler cannot see.
# Run from anywhere; all checks run every time, one line per violation,
# and a per-check summary at the end reports everything that failed in a
# single pass (no fix-rerun-fix loop). Exits non-zero if any check failed.
#
# The deeper protocol invariants (OLC read pairing, COW discipline,
# relaxed-ordering rationale) live in the AST-based analyzer, tools/analyze/hyder_check.py; this script stays the cheap
# grep-level net that needs no compile database.
#
# Checks:
#  1. Tree nodes are slab-allocated: no raw `new Node` / `delete` of nodes
#     outside the arena implementation (tree/node_pool.cc). Everything else
#     must go through MakeNode / NodePtr.
#  2. Locking goes through the annotated wrappers: no `std::mutex`,
#     `std::lock_guard`, `std::unique_lock`, `std::condition_variable` or
#     `std::shared_mutex` members/uses outside common/thread_annotations.h.
#     Raw std primitives are invisible to clang -Wthread-safety.
#  3. Every `Mutex` member declaration is matched by at least one GUARDED_BY
#     (or a written justification) in the same header: a mutex that guards
#     nothing declared is either dead or undocumented.
#  4. Threads are spawned only by the pipeline (meld/threaded_pipeline.*):
#     ad-hoc threads in src/ bypass the shutdown/join discipline. Tests and
#     benches may spawn their own.
#  5. The meld/server lock inventory is closed: the meld hot path was
#     de-serialized deliberately (DESIGN.md, "Meld hot path"), so any new
#     Mutex/CondVar member in src/meld or src/server must be added to the
#     allowlist here in the same change that justifies why it cannot be a
#     SeqRing hand-off or a resolver shard/stripe.
#  6. Library code never dumps stats (or anything else) to the process's
#     streams: no fprintf(stderr/stdout), printf, std::cerr or std::cout in
#     src/. Counters and gauges go through MetricsRegistry
#     (common/registry.h), errors through Status/Result. CLIs under bench/,
#     tools/ and examples/ own their streams and are exempt.

set -u

# Anchor everything on the repo root derived from this script's real
# location, so the checks (and their path-keyed allowlists, which match
# root-relative paths like `src/meld/state_table.h`) behave identically
# from any working directory and through symlinked invocations.
ROOT="$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd -P)"
cd "$ROOT"

# Per-check bookkeeping: `begin_check N "title"` opens a check, `say`
# records one violation against it, and the summary at the end lists every
# check with its violation count.
check_ids=()
check_titles=()
check_counts=()
current=-1

begin_check() {
  current=${#check_ids[@]}
  check_ids+=("$1")
  check_titles+=("$2")
  check_counts+=(0)
}

say() {
  echo "lint: [check ${check_ids[$current]}] $*" >&2
  check_counts[current]=$((check_counts[current] + 1))
}

# Normalize a grep hit to a root-relative path (strips an accidental
# leading `./` so allowlist matching is exact).
relpath() {
  local p=$1
  p=${p#"$ROOT"/}
  p=${p#./}
  printf '%s\n' "$p"
}

# --- 1. Raw node allocation outside the arena -------------------------------
# `operator new`/`operator delete` of Node live only in tree/node_pool.cc.
begin_check 1 "raw node allocation outside the arena"
while IFS= read -r hit; do
  say "raw node allocation (use MakeNode): $hit"
done < <(grep -rnE 'new[[:space:]]+Node\b|delete[[:space:]]+[a-z_]*node' \
    --include='*.cc' --include='*.h' src \
    | grep -v 'tree/node_pool\.cc')

# --- 2. Raw std synchronization primitives ----------------------------------
begin_check 2 "raw std synchronization primitives"
while IFS= read -r hit; do
  say "raw std sync primitive (use common/thread_annotations.h): $hit"
done < <(grep -rnE \
    'std::(mutex|shared_mutex|recursive_mutex|lock_guard|unique_lock|scoped_lock|condition_variable)\b' \
    --include='*.cc' --include='*.h' src tests bench examples \
    | grep -v 'common/thread_annotations\.h')

# --- 3. Mutex members without GUARDED_BY ------------------------------------
# A file that declares a `Mutex foo_;` member must also annotate at least
# one member with GUARDED_BY. (Per-file, not per-mutex: grep cannot bind a
# mutex to its data; hyder_check.py's guard-completeness rule does that
# per-member, clang -Wthread-safety verifies the accesses in CI.)
begin_check 3 "Mutex member without any GUARDED_BY data"
while IFS= read -r file; do
  if ! grep -qE 'GUARDED_BY|PT_GUARDED_BY' "$file"; then
    say "Mutex member without any GUARDED_BY data in $file"
  fi
done < <(grep -rlE '^[[:space:]]*(mutable[[:space:]]+)?Mutex[[:space:]]+[a-z_]+_;' \
    --include='*.h' src tests \
    | grep -v 'common/thread_annotations\.h')

# --- 4. Naked thread spawn outside the pipeline -----------------------------
begin_check 4 "thread spawn outside the pipeline"
while IFS= read -r hit; do
  say "thread spawned outside meld/threaded_pipeline (join discipline): $hit"
done < <(grep -rnE 'std::(thread|jthread)\b' --include='*.cc' --include='*.h' src \
    | grep -v 'meld/threaded_pipeline\.')

# --- 5. Meld/server lock inventory ------------------------------------------
# Every Mutex/CondVar member currently in the meld and server layers, as
# root-relative `file:member`. Shard/stripe locks appear once per struct,
# not per instance.
begin_check 5 "meld/server lock inventory"
lock_allowlist='src/meld/state_table.h:mu_
src/meld/state_table.h:published_
src/meld/threaded_pipeline.h:error_mu_
src/server/resolver.h:mu
src/server/resolver.h:mu
src/server/resolver.h:pinned_mu_'
lock_actual=$(grep -rnE \
    '^[[:space:]]*(mutable[[:space:]]+)?(Mutex|CondVar)[[:space:]]+[A-Za-z_]+' \
    --include='*.h' --include='*.cc' src/meld src/server \
  | sed -E 's/^([^:]+):[0-9]+:[[:space:]]*(mutable[[:space:]]+)?(Mutex|CondVar)[[:space:]]+([A-Za-z_]+).*/\1:\4/' \
  | while IFS= read -r entry; do
      printf '%s\n' "$(relpath "${entry%%:*}"):${entry#*:}"
    done | sort)
while IFS= read -r extra; do
  [ -n "$extra" ] || continue
  say "new lock member in the meld/server hot path (see check 5): $extra"
done < <(comm -13 <(printf '%s\n' "$lock_allowlist" | sort) \
                 <(printf '%s\n' "$lock_actual"))

# --- 6. Ad-hoc stats dumps in library code ----------------------------------
# src/ formats strings with snprintf but never writes to stdout/stderr; an
# ad-hoc `fprintf(stderr, "...stats...")` is unaggregatable and invisible to
# the JSON/trace exporters. Register a MetricsRegistry provider instead.
begin_check 6 "stream dump in library code"
while IFS= read -r hit; do
  say "stream dump in library code (use MetricsRegistry / Status): $hit"
done < <(grep -rnE \
    '\bfprintf[[:space:]]*\(|std::cerr|std::cout|(^|[^a-zA-Z_:.>])printf[[:space:]]*\(' \
    --include='*.cc' --include='*.h' src)

# --- Summary -----------------------------------------------------------------
fail=0
echo "lint: summary" >&2
for i in "${!check_ids[@]}"; do
  if [ "${check_counts[$i]}" -ne 0 ]; then
    fail=1
    echo "lint:   check ${check_ids[$i]} FAILED (${check_counts[$i]} violation(s)) — ${check_titles[$i]}" >&2
  else
    echo "lint:   check ${check_ids[$i]} ok — ${check_titles[$i]}" >&2
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "lint: FAILED" >&2
  exit 1
fi
echo "lint: OK"
