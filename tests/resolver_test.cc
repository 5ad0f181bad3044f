// The ephemeral registry of ServerResolver: one lane per allocator thread
// id, indexed by mint sequence. These cases pin its contract: every
// registered id resolves in whatever order ids arrive, gaps cost nothing,
// a repeated id replaces its node, the sweep drops exactly the nodes only
// the registry holds, and the counts it reports stay exact.

#include "server/resolver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "log/striped_log.h"
#include "tree/tree_ops.h"

namespace hyder {
namespace {

NodePtr Eph(uint32_t thread_id, uint64_t seq) {
  NodePtr n = MakeNode(Key(seq), "e" + std::to_string(seq));
  n->set_vn(VersionId::Ephemeral(thread_id, seq));
  return n;
}

/// One field of the resolver's metrics (-1 when it is not emitted).
double Metric(const ServerResolver& resolver, const std::string& name) {
  double out = -1;
  resolver.EmitMetrics("", [&](const std::string& field, double value) {
    if (field == name) out = value;
  });
  return out;
}

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest() : log_(StripedLogOptions{}), resolver_(&log_, {}) {}

  /// Asserts `n` is what the registry answers for its id.
  void ExpectResolves(const NodePtr& n) {
    auto r = resolver_.Resolve(n->vn());
    ASSERT_TRUE(r.ok()) << n->vn().ToString() << ": " << r.status().ToString();
    EXPECT_EQ(r->get(), n.get()) << n->vn().ToString();
  }
  void ExpectRetired(VersionId vn) {
    EXPECT_TRUE(resolver_.Resolve(vn).status().IsSnapshotTooOld())
        << vn.ToString();
  }
  size_t Slots() const {
    return size_t(Metric(resolver_, "ephemeral_slots"));
  }

  StripedLog log_;
  ServerResolver resolver_;
};

TEST_F(RegistryTest, ReverseOrderResolvesWithoutHoles) {
  std::vector<NodePtr> held;
  for (uint64_t seq = 100; seq-- > 0;) {
    held.push_back(Eph(0, seq));
    resolver_.RegisterEphemeral(held.back());
  }
  for (const NodePtr& n : held) ExpectResolves(n);
  EXPECT_EQ(resolver_.ephemeral_count(), 100u);
  EXPECT_EQ(Slots(), 100u);
  ExpectRetired(VersionId::Ephemeral(0, 100));
  EXPECT_EQ(Metric(resolver_, "ephemeral_registrations"), 100);
}

/// Checkpoint bootstrap registers a restored state's ephemerals in
/// post-order: sequences arrive out of order and spread over every id
/// minted before the checkpoint.
TEST_F(RegistryTest, PostOrderWithGapsAllocatesNoGapSlots) {
  Rng rng(5);
  // A complete tree of 127 nodes, each with a random sequence below 2^40,
  // registered children first (left subtree, right subtree, root).
  std::vector<NodePtr> tree(127);
  for (NodePtr& n : tree) n = Eph(0, rng.Uniform(uint64_t(1) << 40));
  std::vector<size_t> post;
  std::vector<std::pair<size_t, bool>> stack{{0, false}};
  while (!stack.empty()) {
    auto [i, expanded] = stack.back();
    stack.pop_back();
    if (i >= tree.size()) continue;
    if (expanded) {
      post.push_back(i);
      continue;
    }
    stack.push_back({i, true});
    stack.push_back({2 * i + 2, false});
    stack.push_back({2 * i + 1, false});
  }
  ASSERT_EQ(post.size(), tree.size());
  for (size_t i : post) resolver_.RegisterEphemeral(tree[i]);
  for (const NodePtr& n : tree) ExpectResolves(n);
  EXPECT_EQ(resolver_.ephemeral_count(), tree.size());
  // Every slot holds a registered node: the gaps between sequences, up to
  // 2^40 wide, allocated nothing.
  EXPECT_EQ(Slots(), tree.size());
}

/// SequentialPipeline::RestoreEphemeralCounters moves an allocator's
/// counter forward; the registry keeps what it held and appends after the
/// jump.
TEST_F(RegistryTest, CounterRestoredForwardKeepsEarlierIds) {
  EphemeralAllocator alloc(2);
  std::vector<NodePtr> held;
  alloc.registrar = [&](const NodePtr& n) {
    resolver_.RegisterEphemeral(n);
    held.push_back(n);
  };
  for (int i = 0; i < 10; ++i) alloc.Assign(MakeNode(Key(i), "before"));
  alloc.set_next_seq(1'000'000);
  for (int i = 0; i < 10; ++i) alloc.Assign(MakeNode(Key(i), "after"));
  ASSERT_EQ(held.size(), 20u);
  EXPECT_EQ(held.back()->vn(), VersionId::Ephemeral(2, 1'000'009));
  for (const NodePtr& n : held) ExpectResolves(n);
  EXPECT_EQ(resolver_.ephemeral_count(), 20u);
  EXPECT_EQ(Slots(), 20u);
  ExpectRetired(VersionId::Ephemeral(2, 10));
  ExpectRetired(VersionId::Ephemeral(2, 999'999));

  // Everything is held: a sweep drops nothing. Release the ids minted
  // before the jump and only they go.
  EXPECT_EQ(resolver_.SweepEphemerals(), 0u);
  std::vector<NodePtr> after(held.begin() + 10, held.end());
  held.clear();
  EXPECT_EQ(resolver_.SweepEphemerals(), 10u);
  for (const NodePtr& n : after) ExpectResolves(n);
  ExpectRetired(VersionId::Ephemeral(2, 0));
  EXPECT_EQ(resolver_.ephemeral_count(), 10u);
  // The counter keeps appending after the jump.
  alloc.Assign(MakeNode(Key(99), "next"));
  ExpectResolves(held.back());
  EXPECT_EQ(Slots(), 11u);
}

TEST_F(RegistryTest, HighThreadIdsAndRepeatedIds) {
  // Thread ids 16 and up share the overflow lane; 7 and 15 have their own.
  std::vector<NodePtr> held;
  for (uint32_t thread_id : {7u, 15u, 16u, 100u, 32767u}) {
    for (uint64_t seq : {uint64_t(0), uint64_t(3), (uint64_t(1) << 48) - 1}) {
      held.push_back(Eph(thread_id, seq));
      resolver_.RegisterEphemeral(held.back());
    }
  }
  for (const NodePtr& n : held) ExpectResolves(n);
  EXPECT_EQ(resolver_.ephemeral_count(), held.size());
  ExpectRetired(VersionId::Ephemeral(100, 1));

  // Registering an id again replaces its node, in a window slot (0 on
  // lane 3), below the window (lane 7's 0 sits behind the jump to 2^48-1)
  // and in the overflow lane, and the count does not move.
  const size_t count = resolver_.ephemeral_count();
  for (VersionId vn :
       {VersionId::Ephemeral(3, 0), VersionId::Ephemeral(7, 0),
        VersionId::Ephemeral(100, 3)}) {
    NodePtr first = Eph(vn.thread_id(), vn.sequence());
    NodePtr second = Eph(vn.thread_id(), vn.sequence());
    resolver_.RegisterEphemeral(first);
    resolver_.RegisterEphemeral(second);
    ExpectResolves(second);
    held.push_back(second);
  }
  EXPECT_EQ(resolver_.ephemeral_count(), count + 1);
}

TEST_F(RegistryTest, SweepDropsOnlyUnheldNodesAndCountsStayExact) {
  std::vector<NodePtr> held;
  for (uint64_t seq = 0; seq < 100; ++seq) {
    NodePtr n = Eph(0, seq);
    resolver_.RegisterEphemeral(n);
    if (seq % 2 == 0) held.push_back(n);
  }
  EXPECT_EQ(resolver_.ephemeral_count(), 100u);
  EXPECT_EQ(resolver_.SweepEphemerals(), 50u);
  EXPECT_EQ(resolver_.ephemeral_count(), 50u);
  for (const NodePtr& n : held) ExpectResolves(n);
  ExpectRetired(VersionId::Ephemeral(0, 1));
  ExpectRetired(VersionId::Ephemeral(0, 99));
  EXPECT_EQ(Metric(resolver_, "ephemeral_sweep_visited"), 100);
  EXPECT_EQ(Metric(resolver_, "ephemeral_sweep_dropped"), 50);
  EXPECT_EQ(Metric(resolver_, "ephemeral_lookups"), 52);
  EXPECT_EQ(Metric(resolver_, "ephemeral_retired_lookups"), 2);

  held.clear();
  EXPECT_EQ(resolver_.SweepEphemerals(), 50u);
  EXPECT_EQ(resolver_.ephemeral_count(), 0u);
  EXPECT_EQ(Slots(), 0u);
  // The lane appends where it left off.
  NodePtr next = Eph(0, 100);
  resolver_.RegisterEphemeral(next);
  ExpectResolves(next);
  EXPECT_EQ(Slots(), 1u);
}

/// One pass, oldest first: a dead parent goes, and its child, held by the
/// parent when the pass visited it, waits for the next sweep.
TEST_F(RegistryTest, SweepFreesOneLevelOfADeadChainPerPass) {
  NodePtr child = Eph(0, 0);
  NodePtr parent = Eph(0, 1);
  parent->left().Rewire(Ref::To(child));
  resolver_.RegisterEphemeral(child);
  resolver_.RegisterEphemeral(parent);
  child.Reset();
  parent.Reset();
  EXPECT_EQ(resolver_.SweepEphemerals(), 1u);
  ExpectRetired(VersionId::Ephemeral(0, 1));
  EXPECT_TRUE(resolver_.Resolve(VersionId::Ephemeral(0, 0)).ok());
  EXPECT_EQ(resolver_.SweepEphemerals(), 1u);
  EXPECT_EQ(resolver_.ephemeral_count(), 0u);
}

/// A few long-lived nodes must not pin a lane's window: the sweep moves
/// the survivors of a mostly-dead prefix aside.
TEST_F(RegistryTest, LongLivedNodesDoNotPinTheWindow) {
  std::vector<NodePtr> held;
  for (uint64_t seq = 0; seq < 10'000; ++seq) {
    NodePtr n = Eph(0, seq);
    resolver_.RegisterEphemeral(n);
    if (seq % 1000 == 0) held.push_back(n);
  }
  EXPECT_EQ(resolver_.SweepEphemerals(), 10'000u - held.size());
  EXPECT_EQ(resolver_.ephemeral_count(), held.size());
  EXPECT_EQ(Slots(), held.size());
  for (const NodePtr& n : held) ExpectResolves(n);
  NodePtr next = Eph(0, 10'000);
  resolver_.RegisterEphemeral(next);
  ExpectResolves(next);
  EXPECT_EQ(Slots(), held.size() + 1);
}

/// Allocators on several lanes (one of them the overflow lane) register
/// while readers resolve and a sweeper sweeps. Every other node stays
/// held; those must resolve throughout and after.
TEST(RegistryConcurrencyTest, LanesRaceResolveAndSweep) {
  StripedLog log(StripedLogOptions{});
  ServerResolver resolver(&log, {});
  constexpr uint64_t kPerLane = 20000;
  const std::vector<uint32_t> thread_ids = {0, 2, 3, 20};
  std::vector<std::vector<NodePtr>> held(thread_ids.size());
  std::vector<std::atomic<uint64_t>> minted(thread_ids.size());
  std::atomic<int> registering{int(thread_ids.size())};
  std::vector<std::thread> threads;
  for (size_t l = 0; l < thread_ids.size(); ++l) {
    threads.emplace_back([&, l] {
      EphemeralAllocator alloc(thread_ids[l]);
      alloc.registrar = [&](const NodePtr& n) {
        resolver.RegisterEphemeral(n);
      };
      for (uint64_t i = 0; i < kPerLane; ++i) {
        NodePtr n = MakeNode(Key(i), "v");
        alloc.Assign(n);
        if (i % 2 == 0) held[l].push_back(n);
        // Release: a reader that sees i + 1 finds node i registered.
        minted[l].store(i + 1, std::memory_order_release);
      }
      registering.fetch_sub(1, std::memory_order_release);
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(31 + r);
      while (registering.load(std::memory_order_acquire) > 0) {
        const size_t l = rng.Uniform(thread_ids.size());
        const uint64_t n = minted[l].load(std::memory_order_acquire);
        if (n == 0) continue;
        const VersionId vn =
            VersionId::Ephemeral(thread_ids[l], rng.Uniform(n));
        auto got = resolver.Resolve(vn);
        if (vn.sequence() % 2 == 0) {
          ASSERT_TRUE(got.ok()) << vn.ToString();
        }
        if (got.ok()) {
          ASSERT_EQ((*got)->vn(), vn);
        }
      }
    });
  }
  threads.emplace_back([&] {
    while (registering.load(std::memory_order_acquire) > 0) {
      resolver.SweepEphemerals();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) t.join();

  resolver.SweepEphemerals();
  size_t kept = 0;
  for (const auto& lane : held) {
    for (const NodePtr& n : lane) {
      auto got = resolver.Resolve(n->vn());
      ASSERT_TRUE(got.ok()) << n->vn().ToString();
      EXPECT_EQ(got->get(), n.get());
    }
    kept += lane.size();
  }
  EXPECT_EQ(resolver.ephemeral_count(), kept);
  EXPECT_EQ(Metric(resolver, "ephemeral_registrations"),
            double(kPerLane * thread_ids.size()));
}

}  // namespace
}  // namespace hyder
