#include <gtest/gtest.h>

#include <malloc.h>

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "test_cluster.h"
#include "tree/validate.h"
#include "txn/codec.h"
#include "txn/intention.h"
#include "txn/intention_builder.h"

namespace hyder {
namespace {

constexpr size_t kBlock = 512;

/// Runs a builder through serialize → assemble → deserialize, i.e. the full
/// round trip an intention takes through the shared log, and registers the
/// decoded intention with `registry`, through which its lazy edges resolve
/// as they would on a server.
Result<IntentionPtr> RoundTrip(IntentionBuilder& b, uint64_t txn_id,
                               IntentionAssembler& assembler,
                               MapRegistry& registry,
                               size_t block_size = kBlock) {
  HYDER_ASSIGN_OR_RETURN(std::vector<std::string> blocks,
                         SerializeIntention(b, txn_id, block_size));
  std::optional<IntentionAssembler::Completed> done;
  for (const std::string& blk : blocks) {
    HYDER_ASSIGN_OR_RETURN(auto fed, assembler.AddBlock(/*pos=*/0, blk));
    done = std::move(fed.completed);
  }
  if (!done.has_value()) return Status::Internal("intention never completed");
  HYDER_ASSIGN_OR_RETURN(
      IntentionPtr intent,
      DeserializeIntention(done->payload, done->seq, done->block_count));
  registry.RegisterIntention(intent);
  return intent;
}

/// Builds a published base state by pushing a genesis transaction through
/// the codec itself (exactly how a real server would materialize it).
IntentionPtr Genesis(IntentionAssembler& assembler, MapRegistry& registry,
                     const std::vector<Key>& keys) {
  IntentionBuilder b(kWorkspaceTagBit | 1, 0, Ref::Null(),
                     IsolationLevel::kSerializable, nullptr);
  for (Key k : keys) EXPECT_TRUE(b.Put(k, "g" + std::to_string(k)).ok());
  auto r = RoundTrip(b, /*txn_id=*/1, assembler, registry);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

TEST(CodecTest, BlockHeaderRoundTrip) {
  BlockHeader h{0xdeadbeefcafef00dULL, 3, 7, 100};
  std::string buf;
  EncodeBlockHeader(h, &buf);
  buf.append(100, 'x');
  auto got = DecodeBlockHeader(buf);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->txn_id, h.txn_id);
  EXPECT_EQ(got->index, 3u);
  EXPECT_EQ(got->total, 7u);
  EXPECT_EQ(got->chunk_len, 100u);
}

TEST(CodecTest, BlockHeaderRejectsMalformed) {
  EXPECT_TRUE(DecodeBlockHeader("short").status().IsCorruption());
  BlockHeader h{1, 9, 3, 10};  // index >= total
  std::string buf;
  EncodeBlockHeader(h, &buf);
  buf.append(10, 'x');
  EXPECT_TRUE(DecodeBlockHeader(buf).status().IsCorruption());
}

TEST(CodecTest, GenesisRoundTripPreservesContent) {
  IntentionAssembler assembler;
  MapRegistry registry;
  IntentionPtr g = Genesis(assembler, registry, {5, 3, 8, 1, 9});
  EXPECT_EQ(g->seq, 1u);
  EXPECT_EQ(g->node_count, 5u);
  EXPECT_EQ(g->snapshot_seq, 0u);
  std::vector<std::pair<Key, std::string>> items;
  ASSERT_TRUE(TreeCollect(&registry, g->root, &items).ok());
  ASSERT_EQ(items.size(), 5u);
  EXPECT_EQ(items[0], (std::pair<Key, std::string>{1, "g1"}));
  EXPECT_EQ(items[4], (std::pair<Key, std::string>{9, "g9"}));
  auto check = ValidateTree(&registry, g->root);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->rb_ok);
}

TEST(CodecTest, DeserializedNodesGetLoggedVns) {
  IntentionAssembler assembler;
  MapRegistry registry;
  IntentionPtr g = Genesis(assembler, registry, {1, 2, 3});
  // Root is the last node in post-order.
  EXPECT_EQ(g->root.node->vn(), VersionId::Logged(1, 2));
  EXPECT_EQ(g->root.node->owner(), 1u);
  // Altered nodes create their own content.
  EXPECT_TRUE(g->root.node->altered());
  EXPECT_EQ(g->root.node->cv(), g->root.node->vn());
  EXPECT_TRUE(g->Inside(*g->root.node));
}

TEST(CodecTest, SecondTransactionReferencesSnapshotExternally) {
  IntentionAssembler assembler;
  MapRegistry registry;
  IntentionPtr g = Genesis(assembler, registry, {10, 20, 30, 40, 50});
  IntentionBuilder b(kWorkspaceTagBit | 2, g->seq, g->root,
                     IsolationLevel::kSerializable, &registry);
  ASSERT_TRUE(b.Put(20, "updated").ok());
  auto r = RoundTrip(b, 2, assembler, registry);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  IntentionPtr i = *r;
  EXPECT_EQ(i->seq, 2u);
  EXPECT_EQ(i->snapshot_seq, 1u);
  // The intention contains only the root path to key 20, not all 5 nodes.
  EXPECT_LT(i->node_count, 5u);
  EXPECT_GE(i->node_count, 1u);
  // Its updated node carries provenance into the genesis intention.
  NodePtr n = i->root.node;
  while (n && n->key() != 20) {
    auto c = n->child(20 > n->key()).GetLocal();
    n = c.node;  // External refs to logged snapshot stay lazy => may be null.
    if (!n && !c.vn.IsNull()) break;
  }
  ASSERT_TRUE(n);
  EXPECT_TRUE(n->altered());
  EXPECT_EQ(n->ssv().intention_seq(), 1u);
  EXPECT_EQ(n->base_cv().intention_seq(), 1u);
}

TEST(CodecTest, ExternalLoggedReferencesStayLazy) {
  IntentionAssembler assembler;
  MapRegistry registry;
  IntentionPtr g =
      Genesis(assembler, registry, {10, 20, 30, 40, 50, 60, 70});
  IntentionBuilder b(kWorkspaceTagBit | 2, g->seq, g->root,
                     IsolationLevel::kSnapshot, &registry);
  ASSERT_TRUE(b.Put(70, "x").ok());
  auto r = RoundTrip(b, 2, assembler, registry);
  ASSERT_TRUE(r.ok());
  // Walk the deserialized intention's own nodes: every edge leaving the
  // intention must be an unresolved lazy reference into intention 1, and
  // there must be at least one.
  int lazy = 0;
  std::vector<NodePtr> stack = {(*r)->root.node};
  while (!stack.empty()) {
    NodePtr n = stack.back();
    stack.pop_back();
    for (const ChildSlot* s : {&n->left(), &n->right()}) {
      Ref e = s->GetLocal();
      if (e.vn.IsNull()) continue;
      if (e.vn.intention_seq() == (*r)->seq) {
        auto child = s->Get(&registry);
        ASSERT_TRUE(child.ok()) << child.status().ToString();
        stack.push_back(*child);
        continue;
      }
      EXPECT_TRUE(e.IsLazy());
      EXPECT_EQ(e.vn.intention_seq(), 1u);
      lazy++;
    }
  }
  EXPECT_GT(lazy, 0);
}

TEST(CodecTest, MultiBlockIntentionReassembles) {
  IntentionAssembler assembler;
  IntentionBuilder b(kWorkspaceTagBit | 1, 0, Ref::Null(),
                     IsolationLevel::kSerializable, nullptr);
  for (Key k = 0; k < 200; ++k) {
    ASSERT_TRUE(b.Put(k, std::string(40, 'a' + char(k % 26))).ok());
  }
  auto blocks = SerializeIntention(b, 7, kBlock);
  ASSERT_TRUE(blocks.ok());
  EXPECT_GT(blocks->size(), 10u) << "must span many blocks";
  for (const auto& blk : *blocks) EXPECT_LE(blk.size(), kBlock);
  std::optional<IntentionAssembler::Completed> done;
  for (const auto& blk : *blocks) {
    auto r = assembler.AddBlock(/*pos=*/0, blk);
    ASSERT_TRUE(r.ok());
    done = r->completed;
  }
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->block_count, blocks->size());
  auto intent = DeserializeIntention(done->payload, 1, done->block_count);
  ASSERT_TRUE(intent.ok()) << intent.status().ToString();
  EXPECT_EQ((*intent)->node_count, 200u);
  MapRegistry registry;
  registry.RegisterIntention(*intent);
  std::vector<std::pair<Key, std::string>> items;
  ASSERT_TRUE(TreeCollect(&registry, (*intent)->root, &items).ok());
  EXPECT_EQ(items.size(), 200u);
}

TEST(CodecTest, InterleavedIntentionsSequencedByCompletion) {
  // Two multi-block intentions from two servers whose blocks interleave in
  // the log: the one whose *last* block lands first gets the earlier
  // sequence (§5.1).
  const uint64_t id_a = MakeTxnId(/*server_id=*/0, 1);
  const uint64_t id_b = MakeTxnId(/*server_id=*/1, 1);
  IntentionBuilder a(kWorkspaceTagBit | id_a, 0, Ref::Null(),
                     IsolationLevel::kSerializable, nullptr);
  IntentionBuilder b(kWorkspaceTagBit | id_b, 0, Ref::Null(),
                     IsolationLevel::kSerializable, nullptr);
  for (Key k = 0; k < 60; ++k) {
    ASSERT_TRUE(a.Put(k, std::string(30, 'a')).ok());
    ASSERT_TRUE(b.Put(k + 100, std::string(30, 'b')).ok());
  }
  auto blocks_a = SerializeIntention(a, id_a, kBlock);
  auto blocks_b = SerializeIntention(b, id_b, kBlock);
  ASSERT_TRUE(blocks_a.ok());
  ASSERT_TRUE(blocks_b.ok());
  ASSERT_GT(blocks_a->size(), 1u);

  IntentionAssembler assembler;
  uint64_t pos = 0;
  std::vector<std::pair<uint64_t, uint64_t>> completions;  // (txn, seq)
  // Feed: all of B except its last block, then all of A, then B's last.
  for (size_t i = 0; i + 1 < blocks_b->size(); ++i) {
    auto r = assembler.AddBlock(++pos, (*blocks_b)[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->completed.has_value());
  }
  for (const auto& blk : *blocks_a) {
    auto r = assembler.AddBlock(++pos, blk);
    ASSERT_TRUE(r.ok());
    if (r->completed.has_value()) {
      completions.emplace_back(id_a, r->completed->seq);
    }
  }
  auto r = assembler.AddBlock(++pos, blocks_b->back());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->completed.has_value());
  completions.emplace_back(id_b, r->completed->seq);

  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], (std::pair<uint64_t, uint64_t>{id_a, 1}));
  EXPECT_EQ(completions[1], (std::pair<uint64_t, uint64_t>{id_b, 2}));
  EXPECT_EQ(assembler.pending(), 0u);
}

TEST(CodecTest, CompletedPositionsListTheBlocksTaken) {
  // Two servers' intentions interleave, and lost-ack retries land a copy
  // of a block of A while A is still assembling and a copy of B's last
  // block once B is its origin's last: each completion lists exactly the
  // log positions of the blocks the assembler took.
  const size_t capacity = kBlock - kBlockHeaderSize;
  const uint64_t id_a = MakeTxnId(/*server_id=*/0, 1);
  const uint64_t id_b = MakeTxnId(/*server_id=*/1, 1);
  const std::vector<std::string> a =
      ChopIntoBlocks(id_a, std::string(2 * capacity + 1, 'a'), kBlock);
  const std::vector<std::string> b =
      ChopIntoBlocks(id_b, std::string(capacity + 1, 'b'), kBlock);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 2u);
  // Log positions 1..8; 3, 6 and 8 hold the copies.
  const std::vector<const std::string*> log = {&a[0], &b[0], &a[0], &a[1],
                                               &b[1], &b[1], &a[2], &a[2]};
  IntentionAssembler assembler;
  std::map<uint64_t, std::vector<uint64_t>> positions;  // By txn id.
  std::vector<uint64_t> dropped;
  for (uint64_t pos = 1; pos <= log.size(); ++pos) {
    auto fed = assembler.AddBlock(pos, *log[pos - 1]);
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    if (fed->duplicate) dropped.push_back(pos);
    if (fed->completed.has_value()) {
      positions[fed->completed->txn_id] = fed->completed->positions;
    }
  }
  EXPECT_EQ(dropped, (std::vector<uint64_t>{3, 6, 8}));
  EXPECT_EQ(positions[id_a], (std::vector<uint64_t>{1, 4, 7}));
  EXPECT_EQ(positions[id_b], (std::vector<uint64_t>{2, 5}));
  EXPECT_EQ(assembler.pending(), 0u);
}

TEST(CodecTest, AssemblerKeepsNothingOfCompletedIntentions) {
  // A long run at a fixed key space: 200k single-block intentions from one
  // origin, every 100th followed by its retried copy. Once an intention
  // completes the assembler keeps only its origin's record, so its heap
  // stays flat.
  constexpr uint64_t kIntentions = 200'000;
  IntentionAssembler assembler;
  uint64_t pos = 0;
  uint64_t completed = 0;
  uint64_t dropped = 0;
  const size_t before = mallinfo2().uordblks;
  for (uint64_t seq = 1; seq <= kIntentions; ++seq) {
    const std::string block =
        ChopIntoBlocks(MakeTxnId(/*server_id=*/0, seq), "v", kBlock).front();
    for (int copy = 0; copy < (seq % 100 == 0 ? 2 : 1); ++copy) {
      auto fed = assembler.AddBlock(++pos, block);
      ASSERT_TRUE(fed.ok()) << fed.status().ToString();
      completed += fed->completed.has_value();
      dropped += fed->duplicate;
    }
  }
  const int64_t grown = int64_t(mallinfo2().uordblks) - int64_t(before);
  EXPECT_EQ(completed, kIntentions);
  EXPECT_EQ(dropped, kIntentions / 100);
  EXPECT_LT(grown, 1 << 20) << "heap grew " << grown << " bytes";
}

TEST(CodecTest, TombstonesSurviveRoundTrip) {
  IntentionAssembler assembler;
  MapRegistry registry;
  IntentionPtr g = Genesis(assembler, registry, {1, 2, 3, 4, 5});
  IntentionBuilder b(kWorkspaceTagBit | 2, g->seq, g->root,
                     IsolationLevel::kSerializable, &registry);
  auto del = b.Delete(3);
  ASSERT_TRUE(del.ok());
  EXPECT_TRUE(*del);
  auto r = RoundTrip(b, 9, assembler, registry);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ((*r)->tombstones.size(), 1u);
  EXPECT_EQ((*r)->tombstones[0].key, 3u);
  EXPECT_EQ((*r)->tombstones[0].base_cv.intention_seq(), 1u);
  // The deleted key is gone from the intention's tree view, read through
  // its lazy edges into genesis.
  std::vector<std::pair<Key, std::string>> items;
  ASSERT_TRUE(TreeCollect(&registry, (*r)->root, &items).ok());
  std::vector<Key> keys;
  for (const auto& item : items) keys.push_back(item.first);
  EXPECT_EQ(keys, (std::vector<Key>{1, 2, 4, 5}));
}

TEST(CodecTest, DeleteThenReinsertDropsTombstone) {
  IntentionAssembler assembler;
  MapRegistry registry;
  IntentionPtr g = Genesis(assembler, registry, {1, 2, 3});
  IntentionBuilder b(kWorkspaceTagBit | 2, g->seq, g->root,
                     IsolationLevel::kSerializable, &registry);
  ASSERT_TRUE(b.Delete(2).ok());
  ASSERT_EQ(b.tombstones().size(), 1u);
  VersionId observed_cv = b.tombstones()[0].base_cv;
  ASSERT_TRUE(b.Put(2, "again").ok());
  EXPECT_TRUE(b.tombstones().empty());
  // The re-inserted node restored the observed provenance.
  NodePtr n = b.root().node;
  while (n && n->key() != 2) {
    auto c = n->child(2 > n->key()).Get(&registry);
    ASSERT_TRUE(c.ok());
    n = *c;
  }
  ASSERT_TRUE(n);
  EXPECT_EQ(n->base_cv(), observed_cv);
  EXPECT_FALSE(n->ssv().IsNull());
}

TEST(CodecTest, SnapshotIsolationIntentionsAreSmaller) {
  IntentionAssembler assembler;
  MapRegistry registry;
  std::vector<Key> keys;
  for (Key k = 0; k < 64; ++k) keys.push_back(k);
  IntentionPtr g = Genesis(assembler, registry, keys);

  auto run = [&](IsolationLevel iso) -> size_t {
    IntentionBuilder b(kWorkspaceTagBit | 9, g->seq, g->root, iso,
                       &registry);
    // 8 reads, 2 writes: the paper's default transaction shape (§6.1).
    for (Key k : {3, 9, 15, 21, 27, 33, 39, 45}) {
      auto v = b.Get(k);
      EXPECT_TRUE(v.ok());
    }
    EXPECT_TRUE(b.Put(50, "w").ok());
    EXPECT_TRUE(b.Put(60, "w").ok());
    auto blocks = SerializeIntention(b, 42, 8192);
    EXPECT_TRUE(blocks.ok());
    size_t bytes = 0;
    for (auto& blk : *blocks) bytes += blk.size();
    return bytes;
  };
  size_t sr = run(IsolationLevel::kSerializable);
  size_t si = run(IsolationLevel::kSnapshot);
  EXPECT_GT(sr, si * 2) << "readset must dominate SR intention size (§6.4.4)";
}

TEST(CodecTest, ReadOnlyTransactionHasNoWrites) {
  IntentionAssembler assembler;
  MapRegistry registry;
  IntentionPtr g = Genesis(assembler, registry, {1, 2, 3});
  IntentionBuilder b(kWorkspaceTagBit | 2, g->seq, g->root,
                     IsolationLevel::kSerializable, &registry);
  auto v = b.Get(2);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, "g2");
  EXPECT_FALSE(b.has_writes());
}

TEST(CodecTest, ReadsSeeOwnWrites) {
  IntentionAssembler assembler;
  MapRegistry registry;
  IntentionPtr g = Genesis(assembler, registry, {1, 2, 3});
  IntentionBuilder b(kWorkspaceTagBit | 2, g->seq, g->root,
                     IsolationLevel::kSerializable, &registry);
  ASSERT_TRUE(b.Put(2, "mine").ok());
  auto v = b.Get(2);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, "mine");
  auto del = b.Delete(2);
  ASSERT_TRUE(del.ok());
  auto v2 = b.Get(2);
  ASSERT_TRUE(v2.ok());
  EXPECT_FALSE(v2->has_value());
}

/// The decoded node for `key` in `intent`, found through `registry`.
NodePtr FindDecoded(const IntentionPtr& intent, MapRegistry& registry,
                    Key key) {
  NodePtr n = intent->root.node;
  while (n && n->key() != key) {
    auto c = n->child(key > n->key()).Get(&registry);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    if (!c.ok()) return nullptr;
    n = *c;
  }
  return n;
}

TEST(CodecTest, ReadsSeeOwnWritesAcrossDeferredReads) {
  // Serializable reads before the first write run unannotated and are
  // replayed by that write; reads after it see the write, and the
  // replayed annotations reach the intention.
  IntentionAssembler assembler;
  MapRegistry registry;
  IntentionPtr g = Genesis(assembler, registry, {10, 20, 30, 40, 50});
  auto begin = [&](uint64_t tag) {
    return IntentionBuilder(kWorkspaceTagBit | tag, g->seq, g->root,
                            IsolationLevel::kSerializable, &registry);
  };
  auto keys_of = [](const std::vector<std::pair<Key, std::string>>& rows) {
    std::vector<Key> keys;
    for (const auto& row : rows) keys.push_back(row.first);
    return keys;
  };

  // Get(k) -> Put(k) -> Get(k), plus a read of 40 that only the replay
  // annotates.
  IntentionBuilder update = begin(2);
  auto seen = update.Get(20);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(**seen, "g20");
  ASSERT_TRUE(update.Get(40).ok());
  ASSERT_TRUE(update.Put(20, "mine").ok());
  auto mine = update.Get(20);
  ASSERT_TRUE(mine.ok());
  EXPECT_EQ(**mine, "mine");
  auto r = RoundTrip(update, 2, assembler, registry);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  NodePtr written = FindDecoded(*r, registry, 20);
  ASSERT_TRUE(written);
  EXPECT_TRUE(written->altered());
  NodePtr read = FindDecoded(*r, registry, 40);
  ASSERT_TRUE(read);
  EXPECT_TRUE(read->read_dependent()) << "the deferred read was not replayed";
  EXPECT_FALSE(read->altered());

  // Get(absent) -> Put(absent) -> Get.
  IntentionBuilder insert = begin(3);
  auto absent = insert.Get(25);
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(absent->has_value());
  ASSERT_TRUE(insert.Put(25, "new").ok());
  auto inserted = insert.Get(25);
  ASSERT_TRUE(inserted.ok());
  ASSERT_TRUE(inserted->has_value());
  EXPECT_EQ(**inserted, "new");
  ASSERT_TRUE(RoundTrip(insert, 3, assembler, registry).ok());

  // Scan -> Delete -> Scan.
  IntentionBuilder remove = begin(4);
  auto all = remove.Scan(10, 50);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(keys_of(*all), (std::vector<Key>{10, 20, 30, 40, 50}));
  auto del = remove.Delete(30);
  ASSERT_TRUE(del.ok());
  EXPECT_TRUE(*del);
  auto rest = remove.Scan(10, 50);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(keys_of(*rest), (std::vector<Key>{10, 20, 40, 50}));
  auto dr = RoundTrip(remove, 4, assembler, registry);
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  ASSERT_EQ((*dr)->tombstones.size(), 1u);
  EXPECT_EQ((*dr)->tombstones[0].key, 30u);
}

TEST(CodecTest, CorruptPayloadRejected) {
  IntentionAssembler assembler;
  IntentionBuilder b(kWorkspaceTagBit | 1, 0, Ref::Null(),
                     IsolationLevel::kSerializable, nullptr);
  ASSERT_TRUE(b.Put(1, "x").ok());
  auto blocks = SerializeIntention(b, 5, kBlock);
  ASSERT_TRUE(blocks.ok());
  auto done = assembler.AddBlock(/*pos=*/0, blocks->front());
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done->completed.has_value());
  std::string payload = done->completed->payload;
  // Truncate.
  auto r1 = DeserializeIntention(
      std::string_view(payload).substr(0, payload.size() / 2), 1, 1);
  EXPECT_FALSE(r1.ok());
  // Trailing garbage. Record-level damage is Corruption; flat (v3) framing
  // damage — the length no longer matches the declared extents — is typed
  // DataLoss. Either way the decode must fail loudly.
  auto r2 = DeserializeIntention(payload + "junk", 1, 1);
  EXPECT_FALSE(r2.ok());
  EXPECT_TRUE(r2.status().IsCorruption() || r2.status().IsDataLoss());
}

class FailingResolver : public NodeResolver {
 public:
  Result<NodePtr> Resolve(VersionId vn) override {
    return Status::SnapshotTooOld("ephemeral " + vn.ToString() + " retired");
  }
};

TEST(CodecTest, RetiredEphemeralReferenceFailsCleanly) {
  // Hand-build a workspace referencing an ephemeral node, then deserialize
  // with a registry that no longer has it.
  NodePtr eph = MakeNode(50, "e");
  eph->set_vn(VersionId::Ephemeral(1, 7));
  eph->set_cv(VersionId::Logged(1, 0));
  eph->set_owner(0);
  NodePtr root = MakeNode(40, "r");
  root->set_vn(VersionId::Logged(2, 0));
  root->set_cv(VersionId::Logged(2, 0));
  root->set_owner(0);
  root->set_color(Color::kBlack);
  root->right().Rewire(Ref::To(eph));

  IntentionBuilder b(kWorkspaceTagBit | 3, 2, Ref::To(root),
                     IsolationLevel::kSnapshot, nullptr);
  // Write on the *other* side of the root so the intention references the
  // ephemeral node externally instead of cloning it into the workspace.
  ASSERT_TRUE(b.Put(30, "new").ok());
  auto blocks = SerializeIntention(b, 77, kBlock);
  ASSERT_TRUE(blocks.ok()) << blocks.status().ToString();
  IntentionAssembler assembler;
  auto done = assembler.AddBlock(/*pos=*/0, blocks->front());
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done->completed.has_value());
  FailingResolver failing;
  auto r = DeserializeIntention(done->completed->payload, 3, 1);
  // Deserialization leaves the unavailable ephemeral reference lazy (the
  // ds stage runs ahead of final meld, Fig. 2); the retirement error
  // surfaces at first dereference.
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  NodePtr n = (*r)->root.node;
  Status deref_status;
  std::vector<NodePtr> stack = {n};
  bool found_lazy = false;
  while (!stack.empty()) {
    NodePtr cur = stack.back();
    stack.pop_back();
    if (!cur) continue;
    for (ChildSlot* slot : {&cur->left(), &cur->right()}) {
      Ref e = slot->GetLocal();
      if (e.IsLazy() && e.vn.IsEphemeral()) {
        found_lazy = true;
        auto resolved = slot->Get(&failing);
        EXPECT_FALSE(resolved.ok());
        EXPECT_TRUE(resolved.status().IsSnapshotTooOld());
      } else if (e.node) {
        stack.push_back(e.node);
      }
    }
  }
  EXPECT_TRUE(found_lazy);
}

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(CodecTest, SerializedBytesArePinned) {
  // Pins the exact intention bytes of seeded op mixes over a 2,000-key
  // genesis. kPinned was computed by this test body on commit 3cf0d38,
  // before serializable reads were deferred to the first write and before
  // the serializer took external edges from the child slot; neither change
  // may move a byte.
  constexpr uint64_t kPinned = 0xb2422662f1102b4fULL;
  IntentionAssembler assembler;
  MapRegistry registry;
  std::vector<Key> keys;
  // Even keys are present; odd keys are absent until a mix inserts them.
  for (Key k = 0; k < 2000; ++k) keys.push_back(2 * k);
  IntentionPtr g = Genesis(assembler, registry, keys);
  ASSERT_TRUE(g);

  uint64_t hash = 14695981039346656037ULL;
  uint64_t txn_id = 1000;
  int multi_block = 0;
  auto serialize = [&](IntentionBuilder& b) {
    auto blocks = SerializeIntention(b, txn_id, kBlock);
    ASSERT_TRUE(blocks.ok()) << blocks.status().ToString();
    if (blocks->size() > 1) ++multi_block;
    for (const std::string& blk : *blocks) hash = Fnv1a(hash, blk);
  };
  Rng rng(21);
  auto read = [&](IntentionBuilder& b) {
    const Key k = rng.Uniform(4000);
    if (rng.Bernoulli(0.7)) {
      ASSERT_TRUE(b.Get(k).ok());
    } else {
      ASSERT_TRUE(b.Scan(k, k + rng.Uniform(40)).ok());
    }
  };
  for (IsolationLevel iso :
       {IsolationLevel::kSerializable, IsolationLevel::kSnapshot}) {
    for (int mix = 0; mix < 32; ++mix) {
      ++txn_id;
      IntentionBuilder b(kWorkspaceTagBit | txn_id, g->seq, g->root, iso,
                         &registry);
      // Reads before the first write, then a mix of reads, updates,
      // inserts (odd keys), deletes that hit (even keys) and deletes that
      // miss (odd keys).
      const uint64_t before = rng.Uniform(6);
      for (uint64_t i = 0; i < before; ++i) read(b);
      const uint64_t ops = 4 + rng.Uniform(12);
      for (uint64_t op = 0; op < ops; ++op) {
        const double dice = rng.NextDouble();
        if (dice < 0.35) {
          ASSERT_TRUE(b.Put(rng.Uniform(4000),
                            "v" + std::to_string(rng.Next() % 1000))
                          .ok());
        } else if (dice < 0.45) {
          ASSERT_TRUE(b.Delete(2 * rng.Uniform(2000)).ok());
        } else if (dice < 0.55) {
          ASSERT_TRUE(b.Delete(2 * rng.Uniform(2000) + 1).ok());
        } else {
          read(b);
        }
      }
      if (mix % 4 == 0) {
        // An ascending run of fresh keys past the maximum rotates at
        // every other insert.
        for (Key k = 4001; k < 4017; k += 2) {
          ASSERT_TRUE(b.Put(k, "run").ok());
        }
      }
      serialize(b);
    }
  }
  // Read-only serializable builders, serialized directly.
  for (int ro = 0; ro < 8; ++ro) {
    ++txn_id;
    IntentionBuilder b(kWorkspaceTagBit | txn_id, g->seq, g->root,
                       IsolationLevel::kSerializable, &registry);
    for (int i = 0; i < 6; ++i) read(b);
    serialize(b);
  }
  EXPECT_GT(multi_block, 16) << "intentions must span several blocks";
  EXPECT_EQ(hash, kPinned) << std::hex << "0x" << hash;
}

TEST(CodecTest, RandomizedRoundTripMatchesWorkspace) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    IntentionAssembler assembler;
    MapRegistry registry;
    std::vector<Key> base_keys;
    for (Key k = 0; k < 50; ++k) base_keys.push_back(k * 2);
    IntentionPtr g = Genesis(assembler, registry, base_keys);

    IntentionBuilder b(kWorkspaceTagBit | 5, g->seq, g->root,
                       rng.Bernoulli(0.5) ? IsolationLevel::kSerializable
                                          : IsolationLevel::kSnapshot,
                       &registry);
    std::map<Key, std::string> expected;
    for (auto& k : base_keys) expected[k] = "g" + std::to_string(k);
    for (int op = 0; op < 30; ++op) {
      Key k = rng.Uniform(120);
      double dice = rng.NextDouble();
      if (dice < 0.5) {
        std::string v = "v" + std::to_string(rng.Next() % 100);
        ASSERT_TRUE(b.Put(k, v).ok());
        expected[k] = v;
      } else if (dice < 0.75) {
        auto del = b.Delete(k);
        ASSERT_TRUE(del.ok());
        expected.erase(k);
      } else {
        auto got = b.Get(k);
        ASSERT_TRUE(got.ok());
        auto it = expected.find(k);
        ASSERT_EQ(got->has_value(), it != expected.end());
        if (got->has_value()) {
          EXPECT_EQ(**got, it->second);
        }
      }
    }
    if (!b.has_writes()) continue;
    auto r = RoundTrip(b, 100 + trial, assembler, registry, 384);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // The deserialized tree, overlaid on the genesis snapshot via its lazy
    // references, is checked by the meld tests; here verify the node count
    // and flags match the workspace exactly.
    uint32_t ws_nodes = 0;
    std::vector<NodePtr> stack;
    if (b.root().node && b.root().node->owner() == b.workspace_tag()) {
      stack.push_back(b.root().node);
    }
    while (!stack.empty()) {
      NodePtr n = stack.back();
      stack.pop_back();
      ws_nodes++;
      for (const ChildSlot* s : {&n->left(), &n->right()}) {
        Ref e = s->GetLocal();
        if (e.node && e.node->owner() == b.workspace_tag()) {
          stack.push_back(e.node);
        }
      }
    }
    EXPECT_EQ((*r)->node_count, ws_nodes);
    EXPECT_EQ((*r)->isolation, b.isolation());
    EXPECT_EQ((*r)->tombstones.size(), b.tombstones().size());
  }
}

}  // namespace
}  // namespace hyder
