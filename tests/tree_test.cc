#include <gtest/gtest.h>

#include <cmath>

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/random.h"
#include "tree/node.h"
#include "tree/tree_ops.h"
#include "tree/validate.h"
#include "tree/version_id.h"

namespace hyder {
namespace {

TEST(VersionIdTest, NullByDefault) {
  VersionId v;
  EXPECT_TRUE(v.IsNull());
  EXPECT_FALSE(v.IsLogged());
  EXPECT_FALSE(v.IsEphemeral());
}

TEST(VersionIdTest, LoggedPacking) {
  VersionId v = VersionId::Logged(123456, 789);
  EXPECT_TRUE(v.IsLogged());
  EXPECT_FALSE(v.IsEphemeral());
  EXPECT_EQ(v.intention_seq(), 123456u);
  EXPECT_EQ(v.node_index(), 789u);
}

TEST(VersionIdTest, EphemeralPacking) {
  VersionId v = VersionId::Ephemeral(31, 1ull << 40);
  EXPECT_TRUE(v.IsEphemeral());
  EXPECT_FALSE(v.IsLogged());
  EXPECT_EQ(v.thread_id(), 31u);
  EXPECT_EQ(v.sequence(), 1ull << 40);
}

TEST(VersionIdTest, DistinctSpaces) {
  EXPECT_NE(VersionId::Logged(1, 0), VersionId::Ephemeral(0, 1 << 20));
  EXPECT_NE(VersionId::Logged(1, 2), VersionId::Logged(1, 3));
  EXPECT_NE(VersionId::Ephemeral(1, 5), VersionId::Ephemeral(2, 5));
}

TEST(VersionIdTest, ToStringFormats) {
  EXPECT_EQ(VersionId().ToString(), "vn:null");
  EXPECT_EQ(VersionId::Logged(7, 3).ToString(), "L[7,3]");
  EXPECT_EQ(VersionId::Ephemeral(2, 9).ToString(), "e[2,9]");
}

// Nodes are created only by MakeNode and destroyed only by NodeUnref, both
// in the slot pool: a raw `new Node`, a stack Node or a `delete` anywhere
// else does not compile.
static_assert(!std::is_constructible_v<Node, Key, std::string_view>);
static_assert(!std::is_destructible_v<Node>);

TEST(NodeTest, RefcountLifecycle) {
  uint64_t before = LiveNodeCount();
  {
    NodePtr a = MakeNode(1, "x");
    EXPECT_EQ(LiveNodeCount(), before + 1);
    NodePtr b = a;
    EXPECT_EQ(a->RefCount(), 2u);
    b.Reset();
    EXPECT_EQ(a->RefCount(), 1u);
  }
  EXPECT_EQ(LiveNodeCount(), before);
}

TEST(NodeTest, ChildSlotHoldsStrongRef) {
  uint64_t before = LiveNodeCount();
  {
    NodePtr parent = MakeNode(2, "p");
    {
      NodePtr child = MakeNode(1, "c");
      parent->left().Rewire(Ref::To(child));
    }
    EXPECT_EQ(LiveNodeCount(), before + 2);  // Child kept alive by slot.
    Ref r = parent->left().GetLocal();
    EXPECT_EQ(r.node->key(), 1u);
  }
  EXPECT_EQ(LiveNodeCount(), before);
}

TEST(NodeTest, DeepTreeDestructionIsIterative) {
  uint64_t before = LiveNodeCount();
  {
    // A 200k-deep right spine would overflow the stack under recursive
    // destruction.
    NodePtr root = MakeNode(0, "");
    NodePtr cur = root;
    for (int i = 1; i < 200000; ++i) {
      NodePtr next = MakeNode(i, "");
      cur->right().Rewire(Ref::To(next));
      cur = next;
    }
  }
  EXPECT_EQ(LiveNodeCount(), before);
}

TEST(NodeTest, LazyRefWithoutResolverFails) {
  NodePtr n = MakeNode(5, "x");
  n->left().Rewire(Ref::Lazy(VersionId::Logged(3, 1)));
  auto r = n->left().Get(nullptr);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

class MapResolver : public NodeResolver {
 public:
  Result<NodePtr> Resolve(VersionId vn) override {
    ++calls;
    auto it = nodes.find(vn);
    if (it == nodes.end()) return Status::NotFound("no node " + vn.ToString());
    return it->second;
  }
  std::unordered_map<VersionId, NodePtr> nodes;
  int calls = 0;
};

TEST(NodeTest, LazyRefResolvesAndMemoizes) {
  MapResolver resolver;
  NodePtr target = MakeNode(9, "t");
  target->set_vn(VersionId::Logged(4, 2));
  resolver.nodes[target->vn()] = target;

  NodePtr n = MakeNode(5, "x");
  n->left().Rewire(Ref::Lazy(target->vn()));
  auto r1 = n->left().Get(&resolver);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ((*r1)->key(), 9u);
  auto r2 = n->left().Get(&resolver);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(resolver.calls, 1) << "second Get must hit the memoized pointer";
}

TEST(NodePtrTest, AdoptDoesNotIncrementShareDoes) {
  uint64_t before = LiveNodeCount();
  {
    NodePtr a = MakeNode(1, "x");  // MakeNode adopts the initial reference.
    EXPECT_EQ(a->RefCount(), 1u);
    {
      NodePtr b = NodePtr::Share(a.get());
      EXPECT_EQ(a->RefCount(), 2u);
      // Adopt takes over an existing count; pair it with Release so the
      // count stays balanced.
      NodePtr c = NodePtr::Adopt(b.Release());
      EXPECT_EQ(a->RefCount(), 2u);
      EXPECT_EQ(b.get(), nullptr);
      EXPECT_EQ(c.get(), a.get());
    }
    EXPECT_EQ(a->RefCount(), 1u);
    EXPECT_EQ(LiveNodeCount(), before + 1);
  }
  EXPECT_EQ(LiveNodeCount(), before);
}

TEST(NodePtrTest, SelfAssignmentIsANoop) {
  uint64_t before = LiveNodeCount();
  {
    NodePtr a = MakeNode(7, "payload");
    NodePtr& alias = a;
    a = alias;  // Copy self-assignment must not drop the only reference.
    ASSERT_TRUE(a);
    EXPECT_EQ(a->RefCount(), 1u);
    EXPECT_EQ(a->payload(), "payload");
    a = std::move(alias);  // Move self-assignment likewise.
    ASSERT_TRUE(a);
    EXPECT_EQ(a->RefCount(), 1u);
    EXPECT_EQ(LiveNodeCount(), before + 1);
  }
  EXPECT_EQ(LiveNodeCount(), before);
}

TEST(NodePtrTest, MoveLeavesSourceNullAndCountUnchanged) {
  uint64_t before = LiveNodeCount();
  {
    NodePtr a = MakeNode(3, "m");
    Node* raw = a.get();
    NodePtr b = std::move(a);
    EXPECT_EQ(a.get(), nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b.get(), raw);
    EXPECT_EQ(b->RefCount(), 1u);
    a = std::move(b);  // Move back over the empty pointer.
    EXPECT_EQ(b.get(), nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(a.get(), raw);
    EXPECT_EQ(a->RefCount(), 1u);
    a.Reset();
    EXPECT_EQ(LiveNodeCount(), before);
    a.Reset();  // Reset of an empty pointer is harmless.
  }
  EXPECT_EQ(LiveNodeCount(), before);
}

TEST(NodePtrTest, CopyAssignmentReleasesPreviousTarget) {
  uint64_t before = LiveNodeCount();
  {
    NodePtr a = MakeNode(1, "a");
    NodePtr b = MakeNode(2, "b");
    EXPECT_EQ(LiveNodeCount(), before + 2);
    b = a;  // Drops the last reference to node 2.
    EXPECT_EQ(LiveNodeCount(), before + 1);
    EXPECT_EQ(a->RefCount(), 2u);
    EXPECT_EQ(b.get(), a.get());
  }
  EXPECT_EQ(LiveNodeCount(), before);
}

// A resolver that materializes a fresh copy per call, so the CAS loser's
// fetch is observable: exactly one copy may win the memoization and the
// rest must be released.
class FreshCopyResolver : public NodeResolver {
 public:
  Result<NodePtr> Resolve(VersionId vn) override {
    calls.fetch_add(1, std::memory_order_relaxed);
    NodePtr n = MakeNode(99, "resolved");
    n->set_vn(vn);
    return n;
  }
  std::atomic<int> calls{0};
};

TEST(NodeTest, ConcurrentGetMemoizesExactlyOneCopy) {
  uint64_t before = LiveNodeCount();
  {
    FreshCopyResolver resolver;
    NodePtr parent = MakeNode(5, "x");
    parent->left().Rewire(Ref::Lazy(VersionId::Logged(8, 1)));

    constexpr int kThreads = 8;
    std::vector<NodePtr> results(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        auto r = parent->left().Get(&resolver);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        results[i] = *r;
      });
    }
    for (auto& t : threads) t.join();

    // Every caller observed the same memoized node, no matter whose fetch
    // won the CAS; the losers' copies were released.
    Node* memoized = parent->left().GetLocal().node.get();
    ASSERT_NE(memoized, nullptr);
    for (const NodePtr& r : results) EXPECT_EQ(r.get(), memoized);
    const int calls_during_race = resolver.calls.load();
    EXPECT_GE(calls_during_race, 1);
    results.clear();
    EXPECT_EQ(LiveNodeCount(), before + 2)
        << "parent + the one memoized child; all losing copies freed";
    auto again = parent->left().Get(&resolver);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->get(), memoized);
    EXPECT_EQ(resolver.calls.load(), calls_during_race)
        << "after memoization no further Resolve calls happen";
  }
  EXPECT_EQ(LiveNodeCount(), before);
}

CowContext Ctx(uint64_t owner, TreeOpStats* stats = nullptr,
               bool annotate = false) {
  CowContext ctx;
  ctx.owner = owner;
  ctx.annotate_reads = annotate;
  ctx.stats = stats;
  return ctx;
}

Ref BuildTree(uint64_t owner, const std::vector<Key>& keys) {
  Ref root;
  CowContext ctx = Ctx(owner);
  for (Key k : keys) {
    auto r = TreeInsert(ctx, root, k, "v" + std::to_string(k), nullptr);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    root = *r;
  }
  return root;
}

TEST(TreeOpsTest, InsertAndLookup) {
  Ref root = BuildTree(1, {5, 3, 8, 1, 4, 7, 9});
  CowContext ctx = Ctx(1);
  for (Key k : {5, 3, 8, 1, 4, 7, 9}) {
    std::optional<std::string> payload;
    ASSERT_TRUE(TreeLookup(ctx, root, k, &payload).ok());
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(*payload, "v" + std::to_string(k));
  }
  std::optional<std::string> missing;
  ASSERT_TRUE(TreeLookup(ctx, root, 6, &missing).ok());
  EXPECT_FALSE(missing.has_value());
}

TEST(TreeOpsTest, UpsertOverwrites) {
  Ref root = BuildTree(1, {5, 3, 8});
  CowContext ctx = Ctx(1);
  bool existed = false;
  auto r = TreeInsert(ctx, root, 3, "new", &existed);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(existed);
  std::optional<std::string> payload;
  ASSERT_TRUE(TreeLookup(ctx, *r, 3, &payload).ok());
  EXPECT_EQ(*payload, "new");
}

TEST(TreeOpsTest, CopyOnWritePreservesOldVersion) {
  Ref v1 = BuildTree(1, {5, 3, 8});
  CowContext ctx2 = Ctx(2);
  auto v2 = TreeInsert(ctx2, v1, 3, "new", nullptr);
  ASSERT_TRUE(v2.ok());
  std::optional<std::string> old_payload, new_payload;
  ASSERT_TRUE(TreeLookup(ctx2, v1, 3, &old_payload).ok());
  ASSERT_TRUE(TreeLookup(ctx2, *v2, 3, &new_payload).ok());
  EXPECT_EQ(*old_payload, "v3");  // The old snapshot is immutable.
  EXPECT_EQ(*new_payload, "new");
}

TEST(TreeOpsTest, CloneRecordsProvenance) {
  Ref v1 = BuildTree(1, {5});
  v1.node->set_vn(VersionId::Logged(10, 0));
  v1.node->set_cv(VersionId::Logged(10, 0));
  v1.node->set_owner(0);  // Published.
  CowContext ctx2 = Ctx(2);
  auto v2 = TreeInsert(ctx2, v1, 5, "new", nullptr);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->node->ssv(), VersionId::Logged(10, 0));
  EXPECT_EQ(v2->node->base_cv(), VersionId::Logged(10, 0));
  EXPECT_TRUE(v2->node->altered());
  EXPECT_EQ(v2->node->owner(), 2u);
}

TEST(TreeOpsTest, InsertMarksFreshNode) {
  CowContext ctx = Ctx(3);
  auto r = TreeInsert(ctx, Ref::Null(), 42, "x", nullptr);
  ASSERT_TRUE(r.ok());
  const Node* n = r->node.get();
  EXPECT_TRUE(n->altered());
  EXPECT_TRUE(n->ssv().IsNull());
  EXPECT_TRUE(n->base_cv().IsNull());
  EXPECT_EQ(n->color(), Color::kBlack);  // Root is always black.
}

TEST(TreeOpsTest, RemoveLeaf) {
  Ref root = BuildTree(1, {5, 3, 8});
  CowContext ctx = Ctx(1);
  bool removed = false;
  auto r = TreeRemove(ctx, root, 3, &removed, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(removed);
  std::vector<std::pair<Key, std::string>> items;
  ASSERT_TRUE(TreeCollect(nullptr, *r, &items).ok());
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].first, 5u);
  EXPECT_EQ(items[1].first, 8u);
}

TEST(TreeOpsTest, RemoveMissingKeyIsNoop) {
  Ref root = BuildTree(1, {5, 3, 8});
  CowContext ctx = Ctx(2);
  bool removed = true;
  auto r = TreeRemove(ctx, root, 6, &removed, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(removed);
  EXPECT_EQ(r->node.get(), root.node.get()) << "miss must not copy the path";
}

TEST(TreeOpsTest, RemoveRootOfSingleton) {
  Ref root = BuildTree(1, {7});
  CowContext ctx = Ctx(1);
  bool removed = false;
  auto r = TreeRemove(ctx, root, 7, &removed, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(removed);
  EXPECT_TRUE(r->IsNull());
}

TEST(TreeOpsTest, RemoveTwoChildrenRelocatesSuccessorMetadata) {
  Ref root = BuildTree(1, {50, 30, 70, 60, 80});
  // Publish the tree with distinct vns so relocation provenance is visible.
  // (Manually stamp: in production this happens at deserialization.)
  std::vector<std::pair<Key, std::string>> items;
  CowContext ctx = Ctx(2);
  bool removed = false;
  auto r = TreeRemove(ctx, root, 50, &removed, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(removed);
  items.clear();
  ASSERT_TRUE(TreeCollect(nullptr, *r, &items).ok());
  std::vector<Key> keys;
  for (auto& kv : items) keys.push_back(kv.first);
  EXPECT_EQ(keys, (std::vector<Key>{30, 60, 70, 80}));
  auto check = ValidateTree(nullptr, *r);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->rb_ok);
  EXPECT_TRUE(check->bst_ok);
}

TEST(TreeOpsTest, RemovedBaseCvReportsObservedContent) {
  Ref root = BuildTree(1, {5});
  root.node->set_cv(VersionId::Logged(99, 1));
  root.node->set_owner(0);
  CowContext ctx = Ctx(2);
  bool removed = false;
  VersionId tomb;
  auto r = TreeRemove(ctx, root, 5, &removed, &tomb);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(tomb, VersionId::Logged(99, 1));
}

TEST(TreeOpsTest, AnnotatedLookupMarksRead) {
  Ref root = BuildTree(1, {5, 3, 8});
  CowContext ctx = Ctx(2, nullptr, /*annotate=*/true);
  std::optional<std::string> payload;
  auto r = TreeLookup(ctx, root, 8, &payload);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*payload, "v8");
  // The new root is a private copy; find key 8 in it and check the flag.
  NodePtr n = r->node;
  while (n && n->key() != 8) {
    auto c = n->child(8 > n->key()).Get(nullptr);
    ASSERT_TRUE(c.ok());
    n = *c;
  }
  ASSERT_TRUE(n);
  EXPECT_TRUE(n->read_dependent());
  EXPECT_FALSE(n->altered());
  EXPECT_EQ(n->owner(), 2u);
}

TEST(TreeOpsTest, AnnotatedMissMarksFallOffSubtree) {
  Ref root = BuildTree(1, {5, 3, 8});
  CowContext ctx = Ctx(2, nullptr, /*annotate=*/true);
  std::optional<std::string> payload;
  auto r = TreeLookup(ctx, root, 4, &payload);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(payload.has_value());
  // Search for 4 falls off at node 3; the copy of 3 must carry the
  // structural-read flag so a concurrent insert of 4 is a phantom conflict.
  NodePtr n = r->node;
  while (n && n->key() != 3) {
    auto c = n->child(4 > n->key()).Get(nullptr);
    ASSERT_TRUE(c.ok());
    n = *c;
  }
  ASSERT_TRUE(n);
  EXPECT_TRUE(n->subtree_read());
}

TEST(TreeOpsTest, UnannotatedLookupLeavesTreeAlone) {
  Ref root = BuildTree(1, {5, 3, 8});
  CowContext ctx = Ctx(2, nullptr, /*annotate=*/false);
  std::optional<std::string> payload;
  auto r = TreeLookup(ctx, root, 3, &payload);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->node.get(), root.node.get());
}

TEST(TreeOpsTest, RangeScanReturnsSortedSlice) {
  Ref root = BuildTree(1, {50, 30, 70, 20, 40, 60, 80, 10, 90});
  CowContext ctx = Ctx(2);
  std::vector<std::pair<Key, std::string>> out;
  auto r = TreeRangeScan(ctx, root, 25, 65, &out);
  ASSERT_TRUE(r.ok());
  std::vector<Key> keys;
  for (auto& kv : out) keys.push_back(kv.first);
  EXPECT_EQ(keys, (std::vector<Key>{30, 40, 50, 60}));
}

TEST(TreeOpsTest, RangeScanFullTree) {
  Ref root = BuildTree(1, {5, 3, 8, 1});
  CowContext ctx = Ctx(2);
  std::vector<std::pair<Key, std::string>> out;
  auto r = TreeRangeScan(ctx, root, 0, ~Key{0}, &out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out.size(), 4u);
}

TEST(TreeOpsTest, AnnotatedRangeScanSetsSubtreeReadFlags) {
  Ref root = BuildTree(1, {50, 30, 70, 20, 40, 60, 80});
  CowContext ctx = Ctx(2, nullptr, /*annotate=*/true);
  std::vector<std::pair<Key, std::string>> out;
  auto r = TreeRangeScan(ctx, root, 0, ~Key{0}, &out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out.size(), 7u);
  // Whole-tree scan: the root copy itself is a fully-contained subtree.
  EXPECT_TRUE(r->node->subtree_read());
  // Values must still be complete despite the single-node annotation copy.
  std::vector<Key> keys;
  for (auto& kv : out) keys.push_back(kv.first);
  EXPECT_EQ(keys, (std::vector<Key>{20, 30, 40, 50, 60, 70, 80}));
}

TEST(TreeOpsTest, AnnotatedPartialScanMarksBoundaryReads) {
  Ref root = BuildTree(1, {50, 30, 70, 20, 40, 60, 80});
  CowContext ctx = Ctx(2, nullptr, /*annotate=*/true);
  std::vector<std::pair<Key, std::string>> out;
  auto r = TreeRangeScan(ctx, root, 30, 60, &out);
  ASSERT_TRUE(r.ok());
  std::vector<Key> keys;
  for (auto& kv : out) keys.push_back(kv.first);
  EXPECT_EQ(keys, (std::vector<Key>{30, 40, 50, 60}));
  // The root (50, inside the range, on the boundary path) is copied and
  // read-marked but not subtree-read (its subtree spans beyond the range).
  EXPECT_TRUE(r->node->read_dependent());
  EXPECT_FALSE(r->node->subtree_read());
}

TEST(TreeOpsTest, StatsCountWork) {
  TreeOpStats stats;
  Ref root = BuildTree(1, {5, 3, 8, 1, 4});
  CowContext ctx = Ctx(2, &stats);
  ASSERT_TRUE(TreeInsert(ctx, root, 2, "x", nullptr).ok());
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GT(stats.nodes_created, 0u);
}

// ---------------------------------------------------------------------------
// Property tests: randomized op sequences vs std::map, with invariant checks.
// ---------------------------------------------------------------------------

class TreeRandomizedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TreeRandomizedTest, MatchesStdMapAndKeepsInvariants) {
  Rng rng(GetParam());
  std::map<Key, std::string> model;
  Ref root;
  uint64_t owner = 1;
  const Key key_space = 200;
  for (int step = 0; step < 600; ++step) {
    CowContext ctx = Ctx(++owner);  // Each op acts like a fresh transaction.
    Key k = rng.Uniform(key_space);
    const double dice = rng.NextDouble();
    if (dice < 0.5) {
      std::string v = "p" + std::to_string(rng.Next() % 1000);
      auto r = TreeInsert(ctx, root, k, v, nullptr);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      root = *r;
      model[k] = v;
    } else if (dice < 0.8) {
      bool removed = false;
      auto r = TreeRemove(ctx, root, k, &removed, nullptr);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      root = *r;
      EXPECT_EQ(removed, model.erase(k) > 0);
    } else {
      std::optional<std::string> payload;
      ASSERT_TRUE(TreeLookup(ctx, root, k, &payload).ok());
      auto it = model.find(k);
      EXPECT_EQ(payload.has_value(), it != model.end());
      if (payload && it != model.end()) {
        EXPECT_EQ(*payload, it->second);
      }
    }
    if (step % 40 == 0) {
      auto check = ValidateTree(nullptr, root);
      ASSERT_TRUE(check.ok());
      EXPECT_TRUE(check->bst_ok) << "step " << step;
      EXPECT_TRUE(check->rb_ok) << "step " << step;
      EXPECT_EQ(check->node_count, model.size());
    }
  }
  // Final content equivalence.
  std::vector<std::pair<Key, std::string>> items;
  ASSERT_TRUE(TreeCollect(nullptr, root, &items).ok());
  ASSERT_EQ(items.size(), model.size());
  auto it = model.begin();
  for (auto& kv : items) {
    EXPECT_EQ(kv.first, it->first);
    EXPECT_EQ(kv.second, it->second);
    ++it;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeRandomizedTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233));

class TreeBalanceTest : public ::testing::TestWithParam<int> {};

TEST_P(TreeBalanceTest, HeightStaysLogarithmic) {
  const int n = GetParam();
  Rng rng(uint64_t(n) * 7919);
  Ref root;
  CowContext ctx = Ctx(1);
  for (int i = 0; i < n; ++i) {
    auto r = TreeInsert(ctx, root, rng.Next(), "", nullptr);
    ASSERT_TRUE(r.ok());
    root = *r;
  }
  auto check = ValidateTree(nullptr, root);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->rb_ok);
  // RB trees guarantee height <= 2*log2(n+1).
  double bound = 2.0 * std::log2(double(check->node_count) + 1);
  EXPECT_LE(check->height, uint32_t(bound) + 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeBalanceTest,
                         ::testing::Values(10, 100, 1000, 10000));

TEST(TreeBalanceTest, SequentialInsertionStaysBalanced) {
  Ref root;
  CowContext ctx = Ctx(1);
  for (Key k = 0; k < 4096; ++k) {
    auto r = TreeInsert(ctx, root, k, "", nullptr);
    ASSERT_TRUE(r.ok());
    root = *r;
  }
  auto check = ValidateTree(nullptr, root);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->rb_ok);
  EXPECT_LE(check->height, 26u);
}

TEST(TreeLeakTest, RandomChurnFreesEverything) {
  uint64_t before = LiveNodeCount();
  {
    Rng rng(99);
    Ref root;
    CowContext ctx = Ctx(1);
    for (int i = 0; i < 2000; ++i) {
      Key k = rng.Uniform(100);
      if (rng.Bernoulli(0.6)) {
        auto r = TreeInsert(ctx, root, k, "x", nullptr);
        ASSERT_TRUE(r.ok());
        root = *r;
      } else {
        auto r = TreeRemove(ctx, root, k, nullptr, nullptr);
        ASSERT_TRUE(r.ok());
        root = *r;
      }
    }
  }
  EXPECT_EQ(LiveNodeCount(), before);
}

}  // namespace
}  // namespace hyder
