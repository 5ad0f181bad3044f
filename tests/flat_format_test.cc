// Intention wire format: round trip against the serializing builder's own
// workspace, lazy-materialization accounting, and a corruption corpus —
// every truncation and every bit flip of a valid payload must yield a typed
// DataLoss/Corruption status (or decode to a different but well-formed
// intention), never undefined behavior. This suite carries the `recovery`
// ctest label so the CI sanitizer job (ASan/UBSan) replays the corpus with
// bounds and UB checking on.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/varint.h"
#include "tree/validate.h"
#include "txn/codec.h"
#include "txn/flat_view.h"
#include "txn/intention_builder.h"
#include "txn/wire_format.h"

namespace hyder {
namespace {

constexpr size_t kBlock = 1024;

struct Assembled {
  std::string payload;
  uint64_t seq = 0;
  uint32_t block_count = 0;
  uint64_t txn_id = 0;
};

/// Serializes `b` and reassembles the blocks into the payload a server's
/// poll loop would hand to DeserializeIntention.
Assembled Assemble(IntentionBuilder& b, uint64_t txn_id) {
  Assembled out;
  auto blocks = SerializeIntention(b, txn_id, kBlock);
  EXPECT_TRUE(blocks.ok()) << blocks.status().ToString();
  IntentionAssembler assembler;
  std::optional<IntentionAssembler::Completed> done;
  for (const std::string& blk : *blocks) {
    auto fed = assembler.AddBlock(/*pos=*/0, blk);
    EXPECT_TRUE(fed.ok()) << fed.status().ToString();
    done = std::move(fed->completed);
  }
  EXPECT_TRUE(done.has_value());
  out.payload = std::move(done->payload);
  out.seq = done->seq;
  out.block_count = done->block_count;
  out.txn_id = done->txn_id;
  return out;
}

/// A representative mixed-operation builder: puts, overwrites, reads and
/// deletes, so the payload carries node records and tombstones.
IntentionBuilder MixedBuilder(int keys) {
  IntentionBuilder b(kWorkspaceTagBit | 7, 0, Ref::Null(),
                     IsolationLevel::kSerializable, nullptr);
  for (Key k = 0; k < Key(keys); ++k) {
    EXPECT_TRUE(b.Put(k, "v" + std::to_string(k * 131)).ok());
  }
  EXPECT_TRUE(b.Put(3, "overwritten").ok());
  EXPECT_TRUE(b.Get(5).ok());
  EXPECT_TRUE(b.Delete(2).ok());
  return b;
}

/// Serializes, reassembles and decodes `b` as intention `seq`. Only its
/// root is materialized; the rest resolves through a ViewResolver that
/// holds it.
IntentionPtr Decode(IntentionBuilder& b, uint64_t seq) {
  Assembled a = Assemble(b, 40 + seq);
  auto r =
      DeserializeIntention(a.payload, seq, a.block_count, a.txn_id);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : nullptr;
}

/// Resolves logged ids through the views of decoded intentions: the
/// snapshot a later intention references externally.
class ViewResolver : public NodeResolver {
 public:
  void Add(IntentionPtr intent) { intents_.push_back(std::move(intent)); }
  Result<NodePtr> Resolve(VersionId vn) override {
    for (const IntentionPtr& i : intents_) {
      if (NodePtr n = i->ResolveFlat(vn)) return n;
    }
    return Status::NotFound("not in a decoded intention: " + vn.ToString());
  }

 private:
  std::vector<IntentionPtr> intents_;
};

/// The builder's workspace nodes in post-order, the order the serializer
/// numbers its records in.
void WorkspacePostOrder(const NodePtr& n, uint64_t tag,
                        std::vector<NodePtr>* out) {
  if (!n || n->owner() != tag) return;
  WorkspacePostOrder(n->left().GetLocal().node, tag, out);
  WorkspacePostOrder(n->right().GetLocal().node, tag, out);
  out->push_back(n);
}

/// Everything the wire carries for one node.
void ExpectSameRecord(const Node& want, const Node& got) {
  EXPECT_EQ(got.ssv(), want.ssv());
  EXPECT_EQ(got.subtree_read(), want.subtree_read());
  EXPECT_EQ(got.key(), want.key());
  EXPECT_EQ(got.payload(), want.payload());
  EXPECT_EQ(got.color(), want.color());
  EXPECT_EQ(got.altered(), want.altered());
  EXPECT_EQ(got.read_dependent(), want.read_dependent());
  EXPECT_EQ(got.base_cv(), want.base_cv());
}

// An intention written against a decoded snapshot (so its nodes carry
// ssv/base_cv provenance and external references) decodes to exactly the
// builder's workspace: same header and tombstones, the same record and
// child references at every post-order index, the same in-order items.
TEST(FlatFormatTest, RoundTripMatchesWorkspace) {
  // Two decoded generations form the snapshot. The second rewrites key 3,
  // so its path copies carry a content version (base_cv) older than their
  // own id: the records below then have ssv != base_cv.
  ViewResolver snapshot;
  IntentionBuilder b1 = MixedBuilder(24);
  IntentionPtr g1 = Decode(b1, 1);
  ASSERT_TRUE(g1 != nullptr);
  snapshot.Add(g1);
  IntentionBuilder b2(kWorkspaceTagBit | 8, 1, g1->root,
                      IsolationLevel::kSerializable, &snapshot);
  ASSERT_TRUE(b2.Put(3, "second").ok());
  IntentionPtr g2 = Decode(b2, 2);
  ASSERT_TRUE(g2 != nullptr);
  snapshot.Add(g2);

  IntentionBuilder b(kWorkspaceTagBit | 9, 2, g2->root,
                     IsolationLevel::kSerializable, &snapshot);
  ASSERT_TRUE(b.Put(3, "updated").ok());
  ASSERT_TRUE(b.Put(100, "inserted").ok());
  ASSERT_TRUE(b.Get(7).ok());
  ASSERT_TRUE(b.Get(50).ok());  // A miss: a structural read.
  ASSERT_TRUE(b.Scan(14, 17).ok());
  ASSERT_TRUE(b.Delete(11).ok());
  Assembled a = Assemble(b, 43);
  const uint64_t seq = 3;
  auto decoded =
      DeserializeIntention(a.payload, seq, a.block_count, a.txn_id);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Intention& in = **decoded;
  snapshot.Add(*decoded);

  EXPECT_EQ(in.seq, seq);
  EXPECT_EQ(in.txn_id, a.txn_id);
  EXPECT_EQ(in.block_count, a.block_count);
  EXPECT_EQ(in.snapshot_seq, b.snapshot_seq());
  EXPECT_EQ(in.isolation, b.isolation());
  ASSERT_EQ(in.tombstones.size(), b.tombstones().size());
  ASSERT_FALSE(in.tombstones.empty());
  for (size_t t = 0; t < in.tombstones.size(); ++t) {
    EXPECT_EQ(in.tombstones[t].key, b.tombstones()[t].key);
    EXPECT_EQ(in.tombstones[t].base_cv, b.tombstones()[t].base_cv);
    EXPECT_EQ(in.tombstones[t].ssv, b.tombstones()[t].ssv);
  }

  // Node by node in post-order. A child edge inside the workspace must
  // come back as the child's logged id; any other edge keeps its id.
  std::vector<NodePtr> ws;
  WorkspacePostOrder(b.root().node, b.workspace_tag(), &ws);
  ASSERT_EQ(in.node_count, ws.size());
  std::unordered_map<const Node*, uint32_t> index;
  for (uint32_t i = 0; i < ws.size(); ++i) index[ws[i].get()] = i;
  const FlatIntentionView& view = *in.flats.front().second;
  for (uint32_t i = 0; i < ws.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    NodePtr got = view.NodeAt(i);
    ASSERT_TRUE(got != nullptr);
    EXPECT_EQ(got->vn(), VersionId::Logged(seq, i));
    ExpectSameRecord(*ws[i], *got);
    for (bool right : {false, true}) {
      const Ref want = ws[i]->child(right).GetLocal();
      auto it = index.find(want.node.get());
      const VersionId want_vn =
          it != index.end() ? VersionId::Logged(seq, it->second) : want.vn;
      EXPECT_EQ(got->child(right).GetLocal().vn, want_vn)
          << (right ? "right" : "left") << " child";
    }
  }
  EXPECT_EQ(in.root.node.get(), view.Root().get());

  // Whole tree, through the snapshot: identical in-order contents.
  std::vector<std::pair<Key, std::string>> want_items, got_items;
  ASSERT_TRUE(TreeCollect(&snapshot, b.root(), &want_items).ok());
  ASSERT_TRUE(TreeCollect(&snapshot, in.root, &got_items).ok());
  EXPECT_EQ(got_items, want_items);
  auto check = ValidateTree(&snapshot, in.root);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
}

// Parsing the payload directly (the resolver-equipped path) materializes
// nothing until asked, and NodeAt is canonical: one Node per index.
TEST(FlatFormatTest, LazyMaterializationIsCanonical) {
  IntentionBuilder b = MixedBuilder(24);
  Assembled v3 = Assemble(b, 43);
  auto view = FlatIntentionView::Parse(v3.payload, 1);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ((*view)->materialized(), 0u);
  ASSERT_GT((*view)->node_count(), 0u);

  NodePtr root = (*view)->Root();
  ASSERT_TRUE(root != nullptr);
  EXPECT_EQ((*view)->materialized(), 1u);
  EXPECT_EQ(root->vn(), VersionId::Logged(1, (*view)->node_count() - 1));

  // Same index twice → same Node object.
  NodePtr a = (*view)->NodeAt(0);
  NodePtr again = (*view)->NodeAt(0);
  EXPECT_EQ(a.get(), again.get());
  EXPECT_EQ((*view)->NodeAt((*view)->node_count()), nullptr);
}

/// Counts the lazy edges a walk resolves.
class CountingResolver : public NodeResolver {
 public:
  explicit CountingResolver(NodeResolver* inner) : inner_(inner) {}
  Result<NodePtr> Resolve(VersionId vn) override {
    ++calls;
    return inner_->Resolve(vn);
  }
  uint64_t calls = 0;

 private:
  NodeResolver* inner_;
};

// A scan memoizes every edge it resolves into its slot, as a lookup does:
// the same scan over the same decoded intention resolves nothing twice.
TEST(FlatFormatTest, RepeatedScanResolvesNothing) {
  IntentionBuilder writer = MixedBuilder(1000);
  IntentionPtr in = Decode(writer, 1);
  ASSERT_TRUE(in != nullptr);
  ViewResolver view;
  view.Add(in);
  CountingResolver counting(&view);
  // A serializable reader before its first write scans the snapshot
  // unannotated, as snapshot isolation does.
  IntentionBuilder reader(kWorkspaceTagBit | 2, 1, in->root,
                          IsolationLevel::kSerializable, &counting);
  auto first = reader.Scan(100, 900);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->size(), 801u);
  EXPECT_GT(counting.calls, 0u);
  counting.calls = 0;
  auto second = reader.Scan(100, 900);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*second, *first);
  EXPECT_EQ(counting.calls, 0u);
}

/// Decodes `payload` and asserts the no-UB contract: either a well-formed
/// intention (a flip can land in a value byte) or a *typed* corruption
/// status — DataLoss for flat-framing damage, Corruption for record-level
/// damage — never a crash, hang, or untyped error.
void ExpectTypedOrValid(const std::string& payload, uint32_t block_count,
                        const char* what) {
  auto r = DeserializeIntention(payload, 1, block_count, 9);
  if (r.ok()) return;  // Flip produced a different but valid intention.
  EXPECT_TRUE(r.status().IsCorruption() || r.status().IsDataLoss())
      << what << ": " << r.status().ToString();
}

TEST(FlatFormatCorpusTest, EveryTruncationIsTypedDataLoss) {
  IntentionBuilder b = MixedBuilder(20);
  Assembled v3 = Assemble(b, 44);
  for (size_t len = 0; len < v3.payload.size(); ++len) {
    std::string cut = v3.payload.substr(0, len);
    auto r = DeserializeIntention(cut, 1, v3.block_count, 9);
    // A strict prefix can never satisfy the framing (total-length and
    // offset-table checks), so unlike bit flips every truncation must fail.
    ASSERT_FALSE(r.ok()) << "len " << len;
    EXPECT_TRUE(r.status().IsCorruption() || r.status().IsDataLoss())
        << "len " << len << ": " << r.status().ToString();
  }
}

TEST(FlatFormatCorpusTest, EveryBitFlipIsTypedOrValid) {
  IntentionBuilder b = MixedBuilder(20);
  Assembled v3 = Assemble(b, 45);
  for (size_t byte = 0; byte < v3.payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = v3.payload;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      ExpectTypedOrValid(flipped, v3.block_count, "flip");
    }
  }
}

TEST(FlatFormatCorpusTest, TrailingGarbageRejected) {
  IntentionBuilder b = MixedBuilder(10);
  Assembled v3 = Assemble(b, 47);
  auto r = DeserializeIntention(v3.payload + "extra", 1, v3.block_count, 9);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption() || r.status().IsDataLoss());
}

// The format prefix is a format check: the same bytes without it are not
// an intention.
TEST(FlatFormatCorpusTest, MissingPrefixIsDataLoss) {
  IntentionBuilder b = MixedBuilder(10);
  Assembled a = Assemble(b, 48);
  auto r = DeserializeIntention(a.payload.substr(kWireFlatPrefixBytes), 1,
                                a.block_count, 9);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
}

// The isolation byte names an IsolationLevel or the payload is corrupt:
// no other value, high bit 0x80 included, may decode to an intention that
// melds under some default isolation.
TEST(FlatFormatCorpusTest, UnknownIsolationByteIsCorruption) {
  IntentionBuilder b = MixedBuilder(10);
  Assembled a = Assemble(b, 49);
  std::string snapshot_seq;
  PutVarint64(&snapshot_seq, b.snapshot_seq());
  const size_t iso_at = kWireFlatPrefixBytes + snapshot_seq.size();
  ASSERT_EQ(a.payload[iso_at], char(IsolationLevel::kSerializable));
  for (int v = 0; v < 256; ++v) {
    std::string p = a.payload;
    p[iso_at] = static_cast<char>(v);
    auto r = DeserializeIntention(p, 1, a.block_count, 9);
    if (v == int(IsolationLevel::kSerializable) ||
        v == int(IsolationLevel::kSnapshot)) {
      ASSERT_TRUE(r.ok()) << "isolation byte " << v << ": "
                          << r.status().ToString();
      EXPECT_EQ(int((*r)->isolation), v);
      continue;
    }
    ASSERT_FALSE(r.ok()) << "isolation byte " << v;
    EXPECT_TRUE(r.status().IsCorruption())
        << "isolation byte " << v << ": " << r.status().ToString();
  }
}

}  // namespace
}  // namespace hyder
