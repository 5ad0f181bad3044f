// Component microbenchmarks (google-benchmark): the copy-on-write tree,
// the intention codec, and the meld operator at varying conflict-zone
// lengths. These measure the primitives the calibrated figure benches are
// built from.

#include <benchmark/benchmark.h>

#include <sstream>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "test_support.h"
#include "tree/node_pool.h"
#include "tree/tree_ops.h"
#include "txn/codec.h"

namespace hyder {
namespace {

Ref BuildTree(uint64_t n, uint64_t owner) {
  Ref root;
  CowContext ctx;
  ctx.owner = owner;
  Rng rng(7);
  for (uint64_t i = 0; i < n; ++i) {
    auto r = TreeInsert(ctx, root, rng.Next(), "v", nullptr);
    root = *r;
  }
  return root;
}

void BM_TreeInsert(benchmark::State& state) {
  const uint64_t n = state.range(0);
  Ref base = BuildTree(n, 1);
  Rng rng(11);
  uint64_t owner = 2;
  for (auto _ : state) {
    CowContext ctx;
    ctx.owner = ++owner;
    auto r = TreeInsert(ctx, base, rng.Next(), "value-16-bytes!", nullptr);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeInsert)->Arg(1000)->Arg(100000);

void BM_TreeLookup(benchmark::State& state) {
  const uint64_t n = state.range(0);
  Ref base = BuildTree(n, 1);
  Rng rng(13);
  for (auto _ : state) {
    CowContext ctx;
    ctx.owner = 2;
    std::optional<std::string> payload;
    auto r = TreeLookup(ctx, base, rng.Next(), &payload);
    benchmark::DoNotOptimize(payload);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeLookup)->Arg(1000)->Arg(100000);

void BM_SerializeIntention(benchmark::State& state) {
  // A transaction with 8 annotated reads + 2 writes against a 100K tree.
  HarnessServer exec;
  SeedKeys(exec, 100000);
  Rng rng(17);
  for (auto _ : state) {
    state.PauseTiming();
    auto txn = MakeTransaction(exec, rng, 8, 2);
    state.ResumeTiming();
    auto blocks = SerializeIntention(*txn.builder, txn.txn_id, 8192);
    benchmark::DoNotOptimize(blocks);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SerializeIntention);

// A read-only serializable transaction: 10 point reads on a warmed 100K-key
// snapshot, then Submit. Reads are annotated only once a transaction
// writes, so it copies nothing: nodes_allocated_per_op, the arena's
// `allocated` delta per transaction, is 0. CI gates on that count.
void BM_ReadOnlyTxn(benchmark::State& state) {
  constexpr uint64_t kKeys = 100000;
  HarnessServer h;
  SeedKeys(h, kKeys);
  {
    // Materialize the state, so the measured reads find every edge in
    // memory.
    Transaction warm = h.server.Begin(IsolationLevel::kSnapshot);
    for (Key k = 0; k < kKeys; ++k) HYDER_BENCH_CHECK_OK(warm.Get(k));
    HYDER_BENCH_CHECK_OK(h.server.Submit(std::move(warm)));
  }
  Rng rng(29);
  const uint64_t before = NodeArenaStats().allocated;
  for (auto _ : state) {
    Transaction txn = h.server.Begin(IsolationLevel::kSerializable);
    for (int i = 0; i < 10; ++i) {
      auto v = txn.Get(rng.Uniform(kKeys));
      HYDER_BENCH_CHECK_OK(v);
      benchmark::DoNotOptimize(v);
    }
    HYDER_BENCH_CHECK_OK(h.server.Submit(std::move(txn)));
  }
  state.counters["nodes_allocated_per_op"] =
      static_cast<double>(NodeArenaStats().allocated - before) /
      static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadOnlyTxn);

void BM_MeldConflictZone(benchmark::State& state) {
  // Meld one 8R2W intention whose conflict zone is `range(0)` intentions.
  const uint64_t zone = state.range(0);
  HarnessServer exec;
  SeedKeys(exec, 100000);
  Rng rng(19);
  // Build up a backlog of concurrent intentions.
  for (auto _ : state) {
    state.PauseTiming();
    double us = MeldOneWithZone(exec, rng, zone);
    state.ResumeTiming();
    state.SetIterationTime(us / 1e6);
    benchmark::DoNotOptimize(us);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeldConflictZone)
    ->Arg(0)
    ->Arg(64)
    ->Arg(512)
    ->Arg(2048)
    ->Iterations(12)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// Node allocation through the slot pool. The counters prove the
// memory-management contract: in steady state the pool carves no new slab
// slots (carved_per_op == 0, everything is recycled through the thread
// cache) and payloads at or under kNodeInlinePayloadCap perform zero heap
// allocations (heap_payload_per_op == 0); the 2x-cap payload costs exactly
// one heap allocation per node.
void BM_NodeAlloc(benchmark::State& state) {
  const size_t payload_len = state.range(0);
  const std::string payload(payload_len, 'x');
  {
    // Warm the pool: fault in slabs and fill the thread cache so the
    // timed region measures steady-state recycling, not cold carving.
    std::vector<NodePtr> warm;
    warm.reserve(4096);
    for (uint64_t i = 0; i < 4096; ++i) warm.push_back(MakeNode(i, payload));
  }
  const ArenaStats before = NodeArenaStats();
  for (auto _ : state) {
    NodePtr n = MakeNode(42, payload);
    benchmark::DoNotOptimize(n);
  }
  const ArenaStats after = NodeArenaStats();
  const double iters = static_cast<double>(state.iterations());
  state.counters["carved_per_op"] =
      static_cast<double>(after.carved - before.carved) / iters;
  state.counters["heap_payload_per_op"] =
      static_cast<double>(after.payload_heap_allocs -
                          before.payload_heap_allocs) /
      iters;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodeAlloc)
    ->Arg(0)
    ->Arg(16)
    ->Arg(static_cast<int>(kNodeInlinePayloadCap))
    ->Arg(static_cast<int>(2 * kNodeInlinePayloadCap));

// Batched churn: hold a window of live nodes and turn it over, the
// allocation pattern of executor workspaces (build a result tree, publish,
// drop). Exercises the thread-cache refill/drain path rather than the
// single-slot fast path.
void BM_NodeChurnBatch(benchmark::State& state) {
  const size_t window = 256;
  std::vector<NodePtr> live;
  live.reserve(window);
  for (auto _ : state) {
    live.clear();
    for (uint64_t i = 0; i < window; ++i)
      live.push_back(MakeNode(i, "value-16-bytes!"));
    benchmark::DoNotOptimize(live.data());
  }
  state.SetItemsProcessed(state.iterations() * window);
}
BENCHMARK(BM_NodeChurnBatch);

// The meld operator's per-node copy primitive: descend to a random key in
// a 100K-node tree and CloneForWrite every node on the path under a meld
// context (deterministic ephemeral ids). This is the dominant allocation
// site of final meld.
void BM_MeldClonePath(benchmark::State& state) {
  Ref base = BuildTree(100000, 1);
  Rng rng(23);
  uint64_t owner = 100;
  for (auto _ : state) {
    EphemeralAllocator vn_alloc(3);
    CowContext ctx;
    ctx.owner = ++owner;
    ctx.vn_alloc = &vn_alloc;
    const Key key = rng.Next();
    NodePtr cur = base.node;
    while (cur) {
      auto clone = CloneForWrite(ctx, cur);
      benchmark::DoNotOptimize(clone);
      if (key == cur->key()) break;
      auto next = cur->child(key > cur->key()).Get(nullptr);
      cur = next.ok() ? *next : nullptr;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeldClonePath);

// Forwards to the normal console output and mirrors every run into the
// JSON emitter (bench_common) so `--json` / HYDER_BENCH_JSON produce
// machine-readable BENCH_*.json files from the google-benchmark harness.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::ostringstream counters;
      bool first = true;
      for (const auto& [name, counter] : run.counters) {
        counters << (first ? "" : ";") << name << "=" << counter.value;
        first = false;
      }
      bench::RecordRow({run.benchmark_name(),
                        std::to_string(run.iterations),
                        std::to_string(run.GetAdjustedRealTime()),
                        std::to_string(run.GetAdjustedCPUTime()),
                        benchmark::GetTimeUnitString(run.time_unit),
                        counters.str()});
    }
  }
};

}  // namespace
}  // namespace hyder

int main(int argc, char** argv) {
  hyder::bench::InitBenchIO(&argc, argv);
  hyder::bench::PrintHeader(
      "micro_benchmarks", "§6 primitives",
      "component microbenchmarks: COW tree ops, intention codec, meld "
      "conflict zones, and slab-arena node allocation");
  hyder::bench::RecordColumns({"name", "iterations", "real_time", "cpu_time",
                               "time_unit", "counters"});
  benchmark::Initialize(&argc, &argv[0]);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  hyder::RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
