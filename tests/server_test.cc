#include "server/server.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "server/cluster.h"
#include "server/driver.h"
#include "tree/node_pool.h"
#include "tree/validate.h"
#include "workload/workload.h"

namespace hyder {
namespace {

StripedLogOptions TestLog() {
  StripedLogOptions o;
  o.block_size = 2048;
  o.storage_units = 3;
  return o;
}

ServerOptions Opts() {
  ServerOptions o;
  return o;
}

TEST(ServerTest, CommitAndReadBack) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  Transaction t1 = server.Begin();
  ASSERT_TRUE(t1.Put(1, "one").ok());
  ASSERT_TRUE(t1.Put(2, "two").ok());
  auto committed = server.Commit(std::move(t1));
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_TRUE(*committed);

  Transaction t2 = server.Begin();
  auto v = t2.Get(1);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->has_value());
  EXPECT_EQ(**v, "one");
}

TEST(ServerTest, ReadOnlyCommitsWithoutLogging) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  Transaction t1 = server.Begin();
  ASSERT_TRUE(t1.Put(1, "one").ok());
  ASSERT_TRUE(server.Commit(std::move(t1)).ok());
  const uint64_t tail = log.Tail();

  Transaction ro = server.Begin();
  auto v = ro.Get(1);
  ASSERT_TRUE(v.ok());
  auto sub = server.Submit(std::move(ro));
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub->decided);
  EXPECT_TRUE(sub->committed);
  EXPECT_EQ(log.Tail(), tail) << "read-only transactions must not log (§1)";
}

TEST(ServerTest, ReadOnlyTransactionAllocatesNoNodes) {
  // A read-only transaction commits locally and never ships its readset
  // (§1), so serializable reads copy nothing until the transaction writes.
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  Transaction load = server.Begin();
  for (Key k = 0; k < 1000; ++k) {
    ASSERT_TRUE(load.Put(k, "v" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(server.Commit(std::move(load)).ok());
  // Warm the state: every edge a later read follows is then in memory.
  Transaction warm = server.Begin(IsolationLevel::kSnapshot);
  for (Key k = 0; k < 1000; ++k) ASSERT_TRUE(warm.Get(k).ok());
  ASSERT_TRUE(server.Submit(std::move(warm)).ok());

  const uint64_t before = NodeArenaStats().allocated;
  Transaction ro = server.Begin(IsolationLevel::kSerializable);
  for (Key k = 7; k < 1000; k += 100) {
    auto v = ro.Get(k);
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(v->has_value());
    EXPECT_EQ(**v, "v" + std::to_string(k));
  }
  auto sub = server.Submit(std::move(ro));
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub->committed);
  EXPECT_EQ(NodeArenaStats().allocated, before);
}

TEST(ServerTest, ConflictingTransactionAborts) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  Transaction seed = server.Begin();
  ASSERT_TRUE(seed.Put(5, "base").ok());
  ASSERT_TRUE(server.Commit(std::move(seed)).ok());

  // Two concurrent writers of the same key: both begin before either lands.
  Transaction a = server.Begin();
  Transaction b = server.Begin();
  ASSERT_TRUE(a.Put(5, "a").ok());
  ASSERT_TRUE(b.Put(5, "b").ok());
  auto ra = server.Commit(std::move(a));
  ASSERT_TRUE(ra.ok());
  EXPECT_TRUE(*ra);
  auto rb = server.Commit(std::move(b));
  ASSERT_TRUE(rb.ok());
  EXPECT_FALSE(*rb);

  Transaction check = server.Begin();
  auto v = check.Get(5);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, "a");
}

TEST(ServerTest, AdmissionControlRejectsWhenSaturated) {
  StripedLog log(TestLog());
  ServerOptions options = Opts();
  options.max_inflight = 3;
  HyderServer server(&log, options);
  for (int i = 0; i < 3; ++i) {
    Transaction t = server.Begin();
    ASSERT_TRUE(t.Put(i, "x").ok());
    ASSERT_TRUE(server.Submit(std::move(t)).ok());
  }
  Transaction overflow = server.Begin();
  ASSERT_TRUE(overflow.Put(99, "x").ok());
  auto r = server.Submit(std::move(overflow));
  EXPECT_TRUE(r.status().IsBusy());
  // Draining the pipeline restores admission.
  ASSERT_TRUE(server.Poll().ok());
  Transaction after = server.Begin();
  ASSERT_TRUE(after.Put(99, "x").ok());
  EXPECT_TRUE(server.Submit(std::move(after)).ok());
}

TEST(ServerTest, OutcomeTracksLocalTransactions) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  Transaction t = server.Begin();
  ASSERT_TRUE(t.Put(7, "x").ok());
  uint64_t id = t.txn_id();
  ASSERT_TRUE(server.Submit(std::move(t)).ok());
  EXPECT_FALSE(server.Outcome(id).has_value());
  ASSERT_TRUE(server.Poll().ok());
  auto outcome = server.Outcome(id);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(*outcome);
}

TEST(ServerTest, SnapshotReadsAreStable) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  Transaction seed = server.Begin();
  ASSERT_TRUE(seed.Put(1, "v1").ok());
  ASSERT_TRUE(server.Commit(std::move(seed)).ok());

  Transaction reader = server.Begin();
  // A writer commits in between.
  Transaction writer = server.Begin();
  ASSERT_TRUE(writer.Put(1, "v2").ok());
  ASSERT_TRUE(server.Commit(std::move(writer)).ok());
  // The reader still sees its immutable snapshot.
  auto v = reader.Get(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, "v1");
}

TEST(ClusterTest, TransactionsVisibleAcrossServers) {
  Cluster cluster(3, TestLog(), Opts());
  ASSERT_TRUE(cluster.Seed({{1, "one"}, {2, "two"}}).ok());

  Transaction t = cluster.server(1).Begin();
  ASSERT_TRUE(t.Put(3, "three").ok());
  ASSERT_TRUE(cluster.server(1).Commit(std::move(t)).ok());
  ASSERT_TRUE(cluster.PollAll().ok());

  Transaction check = cluster.server(2).Begin();
  auto v = check.Get(3);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->has_value());
  EXPECT_EQ(**v, "three");
}

TEST(ClusterTest, ServersConvergeToPhysicallyIdenticalStates) {
  ServerOptions options = Opts();
  options.pipeline.premeld_threads = 2;
  options.pipeline.premeld_distance = 2;
  Cluster cluster(4, TestLog(), options);
  std::map<Key, std::string> seed;
  for (Key k = 0; k < 50; ++k) seed[k] = "s" + std::to_string(k);
  ASSERT_TRUE(cluster.Seed(seed).ok());

  // Interleaved writers on all servers, including conflicting ones.
  Rng rng(17);
  std::vector<Transaction> open;
  for (int round = 0; round < 30; ++round) {
    int s = int(rng.Uniform(4));
    Transaction t = cluster.server(s).Begin();
    ASSERT_TRUE(t.Put(rng.Uniform(60), "r" + std::to_string(round)).ok());
    if (rng.Bernoulli(0.5)) {
      auto v = t.Get(rng.Uniform(50));
      ASSERT_TRUE(v.ok());
    }
    ASSERT_TRUE(cluster.server(s).Submit(std::move(t)).ok());
    if (round % 5 == 4) {
      ASSERT_TRUE(cluster.PollAll().ok());
    }
  }
  std::string diff;
  auto converged = cluster.StatesConverged(&diff);
  ASSERT_TRUE(converged.ok()) << converged.status().ToString();
  EXPECT_TRUE(*converged) << diff;
}

TEST(ClusterTest, ConcurrentWritersOnDifferentServersConflictCorrectly) {
  Cluster cluster(2, TestLog(), Opts());
  ASSERT_TRUE(cluster.Seed({{10, "base"}}).ok());

  Transaction a = cluster.server(0).Begin();
  Transaction b = cluster.server(1).Begin();
  ASSERT_TRUE(a.Put(10, "from0").ok());
  ASSERT_TRUE(b.Put(10, "from1").ok());
  uint64_t ida = a.txn_id(), idb = b.txn_id();
  ASSERT_TRUE(cluster.server(0).Submit(std::move(a)).ok());
  ASSERT_TRUE(cluster.server(1).Submit(std::move(b)).ok());
  ASSERT_TRUE(cluster.PollAll().ok());
  auto oa = cluster.server(0).Outcome(ida);
  auto ob = cluster.server(1).Outcome(idb);
  ASSERT_TRUE(oa.has_value());
  ASSERT_TRUE(ob.has_value());
  EXPECT_TRUE(*oa) << "first appender wins";
  EXPECT_FALSE(*ob) << "second writer of the same key must abort";
  std::string diff;
  EXPECT_TRUE(*cluster.StatesConverged(&diff)) << diff;
}

TEST(ResolverTest, CacheEvictionForcesLogRefetch) {
  StripedLog log(TestLog());
  ServerOptions options = Opts();
  options.resolver.intention_cache_capacity = 2;  // Aggressive eviction.
  HyderServer server(&log, options);

  // Many transactions, each touching fresh keys so old intentions stop
  // being cached but remain reachable through lazy references.
  for (Key k = 0; k < 30; ++k) {
    Transaction t = server.Begin();
    ASSERT_TRUE(t.Put(k, "val" + std::to_string(k)).ok());
    auto r = server.Commit(std::move(t));
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(*r);
  }
  EXPECT_LE(server.resolver().cached_intentions(), 2u);
  // Reading an old key must transparently refetch from the log (§5.2).
  Transaction reader = server.Begin();
  auto v = reader.Get(0);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->has_value());
  EXPECT_EQ(**v, "val0");
  EXPECT_GT(server.resolver().refetches(), 0u);
}

TEST(ResolverTest, EphemeralSweepKeepsLiveNodes) {
  StripedLog log(TestLog());
  ServerOptions options = Opts();
  options.sweep_interval = 1;  // Sweep after every meld.
  HyderServer server(&log, options);
  // Interleaved conflicting-snapshot writers create ephemeral nodes.
  Transaction seed = server.Begin();
  for (Key k = 0; k < 20; ++k) ASSERT_TRUE(seed.Put(k, "s").ok());
  ASSERT_TRUE(server.Commit(std::move(seed)).ok());
  for (int round = 0; round < 10; ++round) {
    Transaction a = server.Begin();
    Transaction b = server.Begin();
    ASSERT_TRUE(a.Put(round, "a").ok());
    ASSERT_TRUE(b.Put(19 - round, "b").ok());
    ASSERT_TRUE(server.Submit(std::move(a)).ok());
    ASSERT_TRUE(server.Submit(std::move(b)).ok());
    ASSERT_TRUE(server.Poll().ok());
  }
  // All data remains readable after aggressive sweeping.
  Transaction check = server.Begin();
  for (Key k = 0; k < 20; ++k) {
    auto v = check.Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k << ": " << v.status().ToString();
    EXPECT_TRUE(v->has_value());
  }
}

TEST(ResolverTest, SweptStatesHoldNoLazyEphemeralEdges) {
  StripedLog log(TestLog());
  ServerOptions options = Opts();
  options.sweep_interval = 1;  // Sweep after every meld.
  HyderServer server(&log, options);
  constexpr Key kKeys = 400;
  std::map<Key, std::string> expected;
  Transaction seed = server.Begin();
  for (Key k = 0; k < kKeys; k += 2) {
    ASSERT_TRUE(seed.Put(k, "s").ok());
    expected[k] = "s";
  }
  ASSERT_TRUE(server.Commit(std::move(seed)).ok());
  // Rounds of concurrent writers: each melds against a state the others
  // changed, so final meld builds ephemeral nodes, and later snapshots
  // (hence later intentions) name them. Inserts rotate, deletes restructure
  // and updates copy paths.
  Rng rng(11);
  for (int round = 0; round < 150; ++round) {
    std::vector<Transaction> txns;
    std::vector<std::pair<Key, std::optional<std::string>>> effects;
    for (int w = 0; w < 4; ++w) {
      txns.push_back(server.Begin());
      const Key k = rng.Uniform(kKeys);
      const std::string value = "r" + std::to_string(round);
      if (w == 3 && expected.count(k) != 0) {
        ASSERT_TRUE(txns.back().Delete(k).ok());
        effects.emplace_back(k, std::nullopt);
      } else {
        ASSERT_TRUE(txns.back().Put(k, value).ok());
        effects.emplace_back(k, value);
      }
    }
    std::vector<uint64_t> ids;
    for (Transaction& t : txns) {
      auto sub = server.Submit(std::move(t));
      ASSERT_TRUE(sub.ok()) << sub.status().ToString();
      ids.push_back(sub->txn_id);
    }
    auto polled = server.Poll();
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    for (size_t w = 0; w < ids.size(); ++w) {
      std::optional<bool> committed = server.Outcome(ids[w]);
      ASSERT_TRUE(committed.has_value());
      if (!*committed) continue;
      const auto& [k, v] = effects[w];
      if (v.has_value()) {
        expected[k] = *v;
      } else {
        expected.erase(k);
      }
    }
  }
  EXPECT_GT(server.stats().final_meld.ephemeral_created, 0u);
  // Count before anything reads: reads memoize the edges they resolve.
  auto check = ValidateTree(&server.resolver(), server.LatestState().root);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->lazy_ephemeral_edges, 0u);
  EXPECT_TRUE(check->bst_ok);
  Transaction reader = server.Begin();
  for (Key k = 0; k < kKeys; ++k) {
    auto v = reader.Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k << ": " << v.status().ToString();
    auto want = expected.find(k);
    if (want == expected.end()) {
      EXPECT_FALSE(v->has_value()) << "key " << k;
    } else {
      ASSERT_TRUE(v->has_value()) << "key " << k;
      EXPECT_EQ(**v, want->second) << "key " << k;
    }
  }
}

TEST(DriverTest, MaintainsConflictZone) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  WorkloadOptions wopts;
  wopts.db_size = 500;
  wopts.ops_per_txn = 4;
  wopts.seed = 3;
  WorkloadGenerator gen(wopts);
  ASSERT_TRUE(gen.SeedDatabase(server).ok());

  const uint64_t zone = 40;
  ClosedLoopDriver driver(
      &server, zone, IsolationLevel::kSerializable,
      [&](Transaction& t) { return gen.FillWriteTransaction(t); });
  ASSERT_TRUE(driver.Run(200).ok());
  const DriverReport& report = driver.report();
  EXPECT_GT(report.committed, 100u);
  const PipelineStats& stats = server.stats();
  // Conflict zone in blocks / final melds should be near the target zone
  // times blocks-per-intention.
  const double zone_intentions =
      double(stats.conflict_zone_sum) / double(stats.final_melds);
  EXPECT_GT(zone_intentions, double(zone) * 0.5);
}

TEST(WorkloadTest, KeysStayInRange) {
  for (auto dist : {AccessDistribution::kUniform, AccessDistribution::kHotspot,
                    AccessDistribution::kZipf}) {
    WorkloadOptions o;
    o.db_size = 1000;
    o.distribution = dist;
    o.hotspot_fraction = 0.1;
    WorkloadGenerator gen(o);
    for (int i = 0; i < 5000; ++i) EXPECT_LT(gen.NextKey(), 1000u);
  }
}

TEST(WorkloadTest, HotspotSkewsAccesses) {
  WorkloadOptions o;
  o.db_size = 10'000;
  o.distribution = AccessDistribution::kHotspot;
  o.hotspot_fraction = 0.05;
  WorkloadGenerator gen(o);
  uint64_t hot = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) hot += gen.NextKey() < 500;
  EXPECT_NEAR(double(hot) / n, 0.95, 0.02);
}

TEST(WorkloadTest, PayloadSizeRespected) {
  WorkloadGenerator gen(WorkloadOptions{});
  for (int i = 0; i < 10; ++i) {
    EXPECT_GE(gen.NextValue().size(), WorkloadGenerator::kValueBytes);
  }
}

TEST(WorkloadTest, WriteTransactionHasWrites) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  WorkloadOptions o;
  o.db_size = 100;
  o.ops_per_txn = 10;
  o.update_fraction = 0.2;
  WorkloadGenerator gen(o);
  ASSERT_TRUE(gen.SeedDatabase(server).ok());
  Transaction t = server.Begin();
  ASSERT_TRUE(gen.FillWriteTransaction(t).ok());
  EXPECT_TRUE(t.has_writes());
  Transaction ro = server.Begin();
  ASSERT_TRUE(gen.FillReadOnlyTransaction(ro).ok());
  EXPECT_FALSE(ro.has_writes());
}

TEST(WorkloadTest, SeedPopulatesDatabase) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  WorkloadOptions o;
  o.db_size = 2'000;
  WorkloadGenerator gen(o);
  ASSERT_TRUE(gen.SeedDatabase(server).ok());
  auto check = ValidateTree(&server.resolver(), server.LatestState().root);
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->node_count, 2'000u);
  EXPECT_TRUE(check->bst_ok);
}

TEST(ServerTest, DeleteAcrossServers) {
  Cluster cluster(2, TestLog(), Opts());
  ASSERT_TRUE(cluster.Seed({{1, "a"}, {2, "b"}, {3, "c"}}).ok());
  Transaction t = cluster.server(0).Begin();
  auto removed = t.Delete(2);
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(*removed);
  ASSERT_TRUE(cluster.server(0).Commit(std::move(t)).ok());
  ASSERT_TRUE(cluster.PollAll().ok());
  Transaction check = cluster.server(1).Begin();
  auto v = check.Get(2);
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->has_value());
  std::string diff;
  EXPECT_TRUE(*cluster.StatesConverged(&diff)) << diff;
}

TEST(ServerTest, GroupMeldCommitAwaitsPairPartner) {
  // With group meld on, a lone transaction's decision waits for its pair
  // partner; the synchronous Commit surfaces that as TimedOut and the next
  // transaction resolves both.
  StripedLog log(TestLog());
  ServerOptions options = Opts();
  options.pipeline.group_meld = true;
  HyderServer server(&log, options);
  Transaction t1 = server.Begin();
  ASSERT_TRUE(t1.Put(1, "a").ok());
  uint64_t id1 = t1.txn_id();
  auto r1 = server.Commit(std::move(t1));
  EXPECT_TRUE(r1.status().IsTimedOut()) << "odd member must await a pair";
  Transaction t2 = server.Begin();
  ASSERT_TRUE(t2.Put(2, "b").ok());
  auto r2 = server.Commit(std::move(t2));
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(*r2);
  auto o1 = server.Outcome(id1);
  ASSERT_TRUE(o1.has_value());
  EXPECT_TRUE(*o1);
}

TEST(ServerTest, HistoricalSnapshotWritesCarryLongConflictZones) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  Transaction seed = server.Begin();
  ASSERT_TRUE(seed.Put(5, "v0").ok());
  ASSERT_TRUE(server.Commit(std::move(seed)).ok());
  const uint64_t old_seq = server.LatestState().seq;
  // Move the key forward.
  Transaction w = server.Begin();
  ASSERT_TRUE(w.Put(5, "v1").ok());
  ASSERT_TRUE(server.Commit(std::move(w)).ok());
  // A write transaction against the historical snapshot conflicts.
  auto historical = server.BeginAt(old_seq, IsolationLevel::kSerializable);
  ASSERT_TRUE(historical.ok());
  ASSERT_TRUE(historical->Put(5, "stale").ok());
  auto r = server.Commit(std::move(*historical));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  // But a historical write to an untouched key commits.
  auto historical2 = server.BeginAt(old_seq, IsolationLevel::kSerializable);
  ASSERT_TRUE(historical2.ok());
  ASSERT_TRUE(historical2->Put(99, "fresh").ok());
  auto r2 = server.Commit(std::move(*historical2));
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(*r2);
}

TEST(ServerTest, ScanSeesCommittedData) {
  StripedLog log(TestLog());
  HyderServer server(&log, Opts());
  Transaction seed = server.Begin();
  for (Key k = 10; k <= 50; k += 10) {
    ASSERT_TRUE(seed.Put(k, "v" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(server.Commit(std::move(seed)).ok());
  Transaction t = server.Begin();
  auto items = t.Scan(15, 45);
  ASSERT_TRUE(items.ok());
  ASSERT_EQ(items->size(), 3u);
  EXPECT_EQ((*items)[0].first, 20u);
  EXPECT_EQ((*items)[2].first, 40u);
}

}  // namespace
}  // namespace hyder
