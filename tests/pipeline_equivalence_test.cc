// Randomized sequential-vs-threaded equivalence: the §3.4 determinism
// property is the regression oracle for the threaded driver's parallel
// decode and lane hand-offs. Every (seed, premeld threads, group meld)
// combination replays the same random block stream through the
// SequentialPipeline (via TestServer) and through a ThreadedPipeline fed
// *raw payloads* (Feed, so deserialization really runs on the premeld
// workers), then demands
// identical decisions and identical published root version ids for every
// sequence — not just the final state.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "meld/threaded_pipeline.h"
#include "test_cluster.h"
#include "tree/validate.h"

namespace hyder {
namespace {

constexpr size_t kBlockSize = 1024;
constexpr int kTxns = 60;

struct Workload {
  std::vector<std::vector<std::string>> blocks;
  std::vector<MeldDecision> decisions;  // Sequential ground truth.
  std::vector<VersionId> roots;         // roots[seq] = published root vn.
  TestServer server;

  explicit Workload(const PipelineConfig& config) : server(config) {}
};

void Build(const PipelineConfig& config, uint64_t seed, Workload* w) {
  IntentionBuilder g(kWorkspaceTagBit | 1, 0, Ref::Null(),
                     IsolationLevel::kSerializable, nullptr);
  for (Key k = 0; k < 40; ++k) {
    ASSERT_TRUE(g.Put(k, "g" + std::to_string(k)).ok());
  }
  auto genesis = SerializeIntention(g, 1, kBlockSize);
  ASSERT_TRUE(genesis.ok());
  w->blocks.push_back(*genesis);
  auto d0 = w->server.FeedBlocks(*genesis);
  ASSERT_TRUE(d0.ok());
  w->decisions.insert(w->decisions.end(), d0->begin(), d0->end());

  Rng rng(seed);
  const uint64_t deep =
      uint64_t(config.premeld_threads) * uint64_t(config.premeld_distance) +
      2;
  for (int i = 0; i < kTxns; ++i) {
    uint64_t latest = w->server.Latest().seq;
    // Mix snapshot depths: stale snapshots engage premeld's deep path and
    // manufacture conflicts; fresh ones commit.
    uint64_t span = (i % 4 == 0) ? deep + rng.Uniform(4) : rng.Uniform(3);
    uint64_t snap = latest > span ? latest - span : latest;
    auto st = w->server.StateAt(snap);
    ASSERT_TRUE(st.ok());
    IntentionBuilder b(kWorkspaceTagBit | (100 + i), snap, st->root,
                       IsolationLevel::kSerializable, &w->server.registry());
    const int ops = 2 + int(rng.Uniform(5));
    for (int o = 0; o < ops; ++o) {
      Key k = rng.Uniform(40);
      if (rng.Bernoulli(0.6)) {
        ASSERT_TRUE(b.Put(k, "v" + std::to_string(rng.Next() % 997)).ok());
      } else if (rng.Bernoulli(0.5)) {
        ASSERT_TRUE(b.Get(k).ok());
      } else {
        // Deletes drive the tombstone path through both engines.
        ASSERT_TRUE(b.Delete(k).ok());
      }
    }
    auto blocks = SerializeIntention(b, 100 + i, kBlockSize);
    ASSERT_TRUE(blocks.ok());
    w->blocks.push_back(*blocks);
    auto d = w->server.FeedBlocks(*blocks);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    w->decisions.insert(w->decisions.end(), d->begin(), d->end());
  }
  auto tail = w->server.Flush();
  ASSERT_TRUE(tail.ok());
  w->decisions.insert(w->decisions.end(), tail->begin(), tail->end());

  const uint64_t latest = w->server.Latest().seq;
  for (uint64_t seq = 0; seq <= latest; ++seq) {
    auto st = w->server.StateAt(seq);
    ASSERT_TRUE(st.ok());
    w->roots.push_back(st->root.vn);
  }
}

class PipelineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int, bool>> {};

TEST_P(PipelineEquivalenceTest, RawFedThreadedMatchesSequential) {
  auto [seed, threads, group] = GetParam();
  PipelineConfig config;
  config.premeld_threads = threads;
  config.premeld_distance = 3;
  config.group_meld = group;

  Workload w(config);
  Build(config, seed, &w);

  MapRegistry registry;
  std::vector<MeldDecision> decisions;
  ThreadedPipeline pipeline(
      config, DatabaseState{0, Ref::Null()}, &registry,
      [&registry](const NodePtr& n) { registry.Register(n); },
      [&registry](uint64_t, const IntentionPtr& intent) {
        registry.RegisterIntention(intent);
      });
  IntentionAssembler assembler;
  uint64_t pos = 0;
  for (const auto& blocks : w.blocks) {
    for (const std::string& block : blocks) {
      auto fed = assembler.AddBlock(++pos, block);
      ASSERT_TRUE(fed.ok());
      if (!fed->completed.has_value()) continue;
      ASSERT_TRUE(pipeline.Feed(std::move(*fed->completed), &decisions).ok());
    }
  }
  ASSERT_TRUE(pipeline.Finish(&decisions).ok());

  // Identical decisions in identical order.
  {
    ASSERT_EQ(decisions.size(), w.decisions.size());
    for (size_t i = 0; i < decisions.size(); ++i) {
      EXPECT_EQ(decisions[i].seq, w.decisions[i].seq) << i;
      EXPECT_EQ(decisions[i].txn_id, w.decisions[i].txn_id) << i;
      EXPECT_EQ(decisions[i].committed, w.decisions[i].committed)
          << "seq " << decisions[i].seq << ": " << decisions[i].reason()
          << " vs " << w.decisions[i].reason();
      // Same configuration, different engine: the full typed provenance
      // (cause, conflict, stage, key, zone bound) must be bit-identical.
      EXPECT_TRUE(decisions[i].abort == w.decisions[i].abort)
          << "seq " << decisions[i].seq << ": " << decisions[i].reason()
          << " vs " << w.decisions[i].reason();
    }
  }

  // Identical published root identity at *every* sequence, and physically
  // identical final state (same ephemeral ids, content, structure).
  ASSERT_EQ(pipeline.states().Latest().seq, w.server.Latest().seq);
  for (uint64_t seq = 0; seq < w.roots.size(); ++seq) {
    auto st = pipeline.states().Get(seq);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->root.vn, w.roots[seq]) << "seq " << seq;
  }
  std::string diff;
  auto same = PhysicallyEqual(&registry, pipeline.states().Latest().root,
                              &w.server.registry(), w.server.Latest().root,
                              &diff);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_TRUE(*same) << diff;

  // Decode really happened (and, with workers, off the feeder thread).
  const PipelineStats stats = pipeline.stats();
  EXPECT_GT(stats.deserialize.nodes_visited, 0u);

  // Config echo: every knob the stages consumed matches what was forwarded
  // (the plumbing-audit satellite — a knob dropped between the config struct
  // and a worker shows up as -1 or a stale value here).
  EXPECT_EQ(stats.config_echo.premeld_threads, threads);
  EXPECT_EQ(stats.config_echo.premeld_distance, config.premeld_distance);
  EXPECT_EQ(stats.config_echo.group_meld, group ? 1 : 0);
  EXPECT_EQ(stats.config_echo.state_retention,
            int64_t(config.state_retention));
  EXPECT_EQ(stats.config_echo.disable_graft_fastpath, 0);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsThreadsGroup, PipelineEquivalenceTest,
    ::testing::Combine(::testing::Values(uint64_t(101), uint64_t(202),
                                         uint64_t(303)),
                       ::testing::Values(1, 2, 5), ::testing::Bool()));

// The zero-copy payoff, measured: intentions killed by premeld carry
// nodes that a lazy decode mostly never builds — only the records the
// conflict walk actually visited exist as pool nodes when the kill happens.
TEST(PremeldChurnTest, LazyDecodeMaterializesFewerKilledNodes) {
  PipelineConfig config;
  config.premeld_threads = 5;
  config.premeld_distance = 3;

  Workload w(config);
  Build(config, 909, &w);
  const PipelineStats stats = w.server.pipeline().stats();

  // The deep-snapshot mix must actually manufacture premeld kills.
  ASSERT_GT(stats.premeld_killed_nodes, 0u);
  EXPECT_LT(stats.premeld_killed_nodes_materialized,
            stats.premeld_killed_nodes);
}

}  // namespace
}  // namespace hyder
