#include "server/resolver.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "log/striped_log.h"
#include "txn/codec.h"
#include "txn/flat_view.h"
#include "txn/intention_builder.h"

namespace hyder {
namespace {

/// A log populated with independent single-snapshot intentions plus the
/// per-node ground truth ((key, payload) by node index) for verifying what
/// the resolver returns, whether served from cache or refetched.
class PopulatedLog {
 public:
  static constexpr int kIntentions = 24;

  PopulatedLog() : log_(StripedLogOptions{/*block_size=*/512}) {}

  // Not the constructor: gtest's fatal assertions need a void function.
  void Populate() {
    expected_.resize(kIntentions + 1);
    views_.resize(kIntentions + 1);
    positions_.resize(kIntentions + 1);
    IntentionAssembler assembler;
    for (uint64_t seq = 1; seq <= kIntentions; ++seq) {
      const uint64_t txn_id = kWorkspaceTagBit | (1000 + seq);
      IntentionBuilder b(txn_id, 0, Ref::Null(),
                         IsolationLevel::kSerializable, nullptr);
      for (Key k = 0; k < 6; ++k) {
        ASSERT_TRUE(
            b.Put(k, "s" + std::to_string(seq) + "k" + std::to_string(k))
                .ok());
      }
      auto blocks = SerializeIntention(b, 1000 + seq, log_.block_size());
      ASSERT_TRUE(blocks.ok());
      for (const std::string& block : *blocks) {
        auto pos = log_.Append(block);
        ASSERT_TRUE(pos.ok());
        auto fed = assembler.AddBlock(*pos, block);
        ASSERT_TRUE(fed.ok());
        if (!fed->completed.has_value()) continue;
        positions_[seq] = fed->completed->positions;
        auto intent = DeserializeIntention(
            fed->completed->payload, seq, fed->completed->block_count,
            1000 + seq);
        ASSERT_TRUE(intent.ok());
        const auto& view = (*intent)->flats.front().second;
        for (uint32_t i = 0; i < view->node_count(); ++i) {
          NodePtr n = view->NodeAt(i);
          expected_[seq].emplace_back(n->key(), std::string(n->payload()));
        }
        views_[seq] = view;
      }
      ASSERT_FALSE(expected_[seq].empty());
    }
  }

  void RecordDirectory(ServerResolver* resolver) const {
    for (uint64_t seq = 1; seq <= kIntentions; ++seq) {
      resolver->RecordIntentionBlocks(seq, positions_[seq]);
    }
  }

  void VerifyNode(uint64_t seq, uint32_t idx, const NodePtr& n) const {
    ASSERT_EQ(n->key(), expected_[seq][idx].first)
        << "seq " << seq << " idx " << idx;
    ASSERT_EQ(n->payload(), expected_[seq][idx].second)
        << "seq " << seq << " idx " << idx;
  }

  StripedLog& log() { return log_; }
  size_t node_count(uint64_t seq) const { return expected_[seq].size(); }
  std::shared_ptr<FlatIntentionView> view(uint64_t seq) const {
    return views_[seq];
  }

 private:
  StripedLog log_;
  std::vector<std::vector<std::pair<Key, std::string>>> expected_;
  std::vector<std::shared_ptr<FlatIntentionView>> views_;
  std::vector<std::vector<uint64_t>> positions_;
};

/// Readers refetching across shards under a cache far smaller than the
/// working set, a writer re-caching decoded intentions, and an ephemeral
/// registrar + sweeper — all concurrent. Verifies no lost or corrupted
/// entries and that the eviction/refetch machinery actually engaged.
TEST(ResolverConcurrencyTest, ParallelResolveCacheEvictRefetch) {
  PopulatedLog data;
  ASSERT_NO_FATAL_FAILURE(data.Populate());
  ResolverOptions opts;
  // Far below the 24-intention set: the shard count is clamped to 4, one
  // intention per shard, so every shard evicts.
  opts.intention_cache_capacity = 4;
  ServerResolver resolver(&data.log(), opts);
  data.RecordDirectory(&resolver);

  constexpr int kReaders = 4;
  constexpr int kItersPerReader = 400;
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(100 + r);
      for (int i = 0; i < kItersPerReader; ++i) {
        const uint64_t seq = 1 + rng.Uniform(PopulatedLog::kIntentions);
        const uint32_t idx =
            static_cast<uint32_t>(rng.Uniform(data.node_count(seq)));
        auto n = resolver.Resolve(VersionId::Logged(seq, idx));
        ASSERT_TRUE(n.ok()) << n.status().ToString();
        data.VerifyNode(seq, idx, *n);
      }
    });
  }
  // Writer: re-caches decoded views (the parallel-decode sink path);
  // duplicates must be ignored and the capacity bound maintained.
  threads.emplace_back([&] {
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
      const uint64_t seq = 1 + rng.Uniform(PopulatedLog::kIntentions);
      resolver.CacheIntention(seq, data.view(seq));
    }
  });
  // Ephemeral registrar + sweeper, concurrent with the logged traffic.
  std::vector<NodePtr> kept;
  threads.emplace_back([&] {
    for (uint64_t i = 1; i <= 100; ++i) {
      NodePtr n = MakeNode(Key(i), "eph" + std::to_string(i));
      n->set_vn(VersionId::Ephemeral(7, i));
      resolver.RegisterEphemeral(n);
      if (i % 2 == 0) kept.push_back(n);  // Odd ones become sweepable.
      if (i % 25 == 0) resolver.SweepEphemerals();
    }
  });
  for (auto& t : threads) t.join();

  // Eviction pressure really produced log refetches, and the global cache
  // bound (summed across shards) held.
  EXPECT_GT(resolver.refetches(), 0u);
  EXPECT_LE(resolver.cached_intentions(), opts.intention_cache_capacity);

  // Every sequence is still resolvable afterwards (nothing was lost).
  for (uint64_t seq = 1; seq <= PopulatedLog::kIntentions; ++seq) {
    auto n = resolver.Resolve(VersionId::Logged(seq, 0));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    data.VerifyNode(seq, 0, *n);
  }
  // Kept ephemerals survive a final sweep; the dropped ones are gone.
  resolver.SweepEphemerals();
  for (const NodePtr& n : kept) {
    auto r = resolver.Resolve(n->vn());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r).get(), n.get());
  }
  EXPECT_TRUE(
      resolver.Resolve(VersionId::Ephemeral(7, 1)).status().IsSnapshotTooOld());

  // The directory snapshot is complete and sorted regardless of sharding.
  auto dir = resolver.ExportDirectory();
  ASSERT_EQ(dir.size(), size_t(PopulatedLog::kIntentions));
  for (size_t i = 0; i < dir.size(); ++i) {
    EXPECT_EQ(dir[i].seq, i + 1);
    EXPECT_FALSE(dir[i].positions.empty());
  }
}

/// An imported directory on a cold resolver serves every reference through
/// the refetch path, shard layout notwithstanding.
TEST(ResolverConcurrencyTest, ImportedDirectoryServesRefetches) {
  PopulatedLog data;
  ASSERT_NO_FATAL_FAILURE(data.Populate());
  ResolverOptions opts;
  // Below the shard count: shards are clamped to the capacity, so they
  // can't starve the bound.
  opts.intention_cache_capacity = 2;
  ServerResolver source(&data.log(), opts);
  data.RecordDirectory(&source);

  ServerResolver restored(&data.log(), opts);
  restored.ImportDirectory(source.ExportDirectory());
  for (uint64_t seq = 1; seq <= PopulatedLog::kIntentions; ++seq) {
    auto n = restored.Resolve(VersionId::Logged(seq, 1));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    data.VerifyNode(seq, 1, *n);
    EXPECT_LE(restored.cached_intentions(), opts.intention_cache_capacity);
  }
  EXPECT_EQ(restored.refetches(), uint64_t(PopulatedLog::kIntentions));
}

}  // namespace
}  // namespace hyder
