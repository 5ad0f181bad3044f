// Quickstart: a single Hyder II server on a shared log.
//
// Demonstrates the core public API: starting a server over a striped shared
// log, running optimistic transactions (reads, writes, deletes, range
// scans), choosing isolation levels, and seeing optimistic concurrency
// control abort a conflicting transaction.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart

#include <cstdio>

#include "log/striped_log.h"
#include "server/server.h"
#include "tree/node_pool.h"

using namespace hyder;

#define CHECK_OK(expr)                                        \
  do {                                                        \
    auto _st = (expr);                                        \
    if (!_st.ok()) {                                          \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__,     \
                   __LINE__, _st.ToString().c_str());         \
      return 1;                                               \
    }                                                         \
  } while (0)

int main() {
  // The shared log is the database (§1): every server appends intention
  // blocks to it and rolls it forward deterministically.
  StripedLogOptions log_options;
  log_options.block_size = 8192;  // The paper's block size (§6.3).
  log_options.storage_units = 6;
  StripedLog log(log_options);

  HyderServer server(&log, ServerOptions{});

  // --- 1. Basic transactional writes. -----------------------------------
  {
    // Begin() starts a serializable transaction.
    Transaction txn = server.Begin();
    CHECK_OK(txn.Put(100, "alice"));
    CHECK_OK(txn.Put(200, "bob"));
    CHECK_OK(txn.Put(300, "carol"));
    auto committed = server.Commit(std::move(txn));
    CHECK_OK(committed.status());
    std::printf("insert txn committed: %s\n", *committed ? "yes" : "no");
  }

  // --- 2. Snapshot reads and range scans. --------------------------------
  {
    Transaction txn = server.Begin();
    auto value = txn.Get(200);
    CHECK_OK(value.status());
    std::printf("key 200 -> %s\n", value->value_or("<absent>").c_str());

    auto range = txn.Scan(100, 250);
    CHECK_OK(range.status());
    std::printf("scan [100,250]: %zu items\n", range->size());
    for (const auto& [k, v] : *range) {
      std::printf("  %llu -> %s\n", static_cast<unsigned long long>(k),
                  v.c_str());
    }
    // Read-only transactions commit locally; they are never logged (§1).
    auto sub = server.Submit(std::move(txn));
    CHECK_OK(sub.status());
    std::printf("read-only txn decided immediately: %s\n",
                sub->decided ? "yes" : "no");
  }

  // --- 3. Optimistic concurrency control in action. ----------------------
  {
    // Two transactions race on key 200 from the same snapshot. The one
    // whose intention lands in the log first wins; meld aborts the other.
    Transaction first = server.Begin();
    Transaction second = server.Begin();
    CHECK_OK(first.Put(200, "bob-updated-by-first"));
    CHECK_OK(second.Put(200, "bob-updated-by-second"));
    auto r1 = server.Commit(std::move(first));
    auto r2 = server.Commit(std::move(second));
    CHECK_OK(r1.status());
    CHECK_OK(r2.status());
    std::printf("conflicting writers: first=%s second=%s\n",
                *r1 ? "committed" : "aborted",
                *r2 ? "committed" : "aborted");
  }

  // --- 4. Snapshot isolation allows stale reads, not stale writes. -------
  {
    Transaction si = server.Begin(IsolationLevel::kSnapshot);
    auto value = si.Get(200);  // Read-set not validated under SI (§6.4.4).
    CHECK_OK(value.status());
    Transaction writer = server.Begin();
    CHECK_OK(writer.Put(200, "bob-again"));
    CHECK_OK(server.Commit(std::move(writer)).status());
    CHECK_OK(si.Put(300, "carol-updated"));
    auto r = server.Commit(std::move(si));
    CHECK_OK(r.status());
    std::printf("snapshot-isolation txn with stale read: %s\n",
                *r ? "committed" : "aborted");
  }

  // --- 5. Deletes. --------------------------------------------------------
  {
    Transaction txn = server.Begin();
    auto removed = txn.Delete(100);
    CHECK_OK(removed.status());
    CHECK_OK(server.Commit(std::move(txn)).status());
    Transaction check = server.Begin();
    auto value = check.Get(100);
    CHECK_OK(value.status());
    std::printf("key 100 after delete -> %s\n",
                value->value_or("<absent>").c_str());
  }

  const PipelineStats& stats = server.stats();
  std::printf("\nmeld pipeline: %s\n", stats.ToString().c_str());
  std::printf("node arena: %s\n", NodeArenaStats().ToString().c_str());
  std::printf("log: %llu blocks appended\n",
              static_cast<unsigned long long>(log.stats().appends));
  return 0;
}
