#include "txn/codec.h"

#include <algorithm>

#include "common/varint.h"
#include "txn/flat_view.h"
#include "txn/wire_format.h"

namespace hyder {

namespace {

void PutFixed64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

struct EdgeEncoding {
  bool present = false;
  bool internal = false;
  uint64_t value = 0;  // Internal: post-order index. External: raw vn.
};

Result<uint32_t> SerializeNodes(const Node& n, uint64_t workspace_tag,
                                std::string* out,
                                std::vector<uint32_t>* offsets);

/// Encodes one child edge of a workspace node, serializing a workspace
/// child's subtree first (post-order). Workspace nodes have no version id
/// until they are deserialized, so a slot with a vn is an external edge,
/// encoded from the slot without loading or referencing the child; a slot
/// holding a node but no vn must hold a workspace node.
Result<EdgeEncoding> EncodeChild(const ChildSlot& slot, uint64_t workspace_tag,
                                 std::string* out,
                                 std::vector<uint32_t>* offsets) {
  EdgeEncoding enc;
  if (!slot.vn().IsNull()) {
    enc.present = true;
    enc.value = slot.vn().raw();
    return enc;
  }
  const Node* child = slot.Peek();
  if (child == nullptr) return enc;
  if (child->owner() != workspace_tag) {
    return Status::Internal(
        "intention references a foreign node with no version id");
  }
  HYDER_ASSIGN_OR_RETURN(enc.value,
                         SerializeNodes(*child, workspace_tag, out, offsets));
  enc.present = true;
  enc.internal = true;
  return enc;
}

/// Appends the records of workspace node `n`'s subtree to `out` in
/// post-order, each record's starting byte offset to `offsets` (the
/// payload's trailing offset table), and returns `n`'s record index.
Result<uint32_t> SerializeNodes(const Node& n, uint64_t workspace_tag,
                                std::string* out,
                                std::vector<uint32_t>* offsets) {
  HYDER_ASSIGN_OR_RETURN(EdgeEncoding left,
                         EncodeChild(n.left(), workspace_tag, out, offsets));
  HYDER_ASSIGN_OR_RETURN(EdgeEncoding right,
                         EncodeChild(n.right(), workspace_tag, out, offsets));

  offsets->push_back(static_cast<uint32_t>(out->size()));
  uint8_t flags = 0;
  if (n.altered()) flags |= kWireAltered;
  if (n.read_dependent()) flags |= kWireRead;
  if (n.subtree_read()) flags |= kWireSubtreeRead;
  if (n.color() == Color::kRed) flags |= kWireRed;
  if (left.present) flags |= kWireLeftPresent;
  if (left.internal) flags |= kWireLeftInternal;
  if (right.present) flags |= kWireRightPresent;
  if (right.internal) flags |= kWireRightInternal;

  out->push_back(static_cast<char>(flags));
  PutVarint64(out, n.key());
  PutVarint64(out, n.ssv().raw());
  PutVarint64(out, n.base_cv().raw());
  PutVarint64(out, n.payload().size());
  out->append(n.payload());
  if (left.present) PutVarint64(out, left.value);
  if (right.present) PutVarint64(out, right.value);
  return static_cast<uint32_t>(offsets->size() - 1);
}

}  // namespace

void EncodeBlockHeader(const BlockHeader& h, std::string* out) {
  PutFixed64(out, h.txn_id);
  PutFixed32(out, h.index);
  PutFixed32(out, h.total);
  PutFixed32(out, h.chunk_len);
}

Result<BlockHeader> DecodeBlockHeader(std::string_view block) {
  if (block.size() < kBlockHeaderSize) {
    return Status::Corruption("intention block shorter than its header");
  }
  BlockHeader h;
  h.txn_id = DecodeFixed64(block.data());
  h.index = DecodeFixed32(block.data() + 8);
  h.total = DecodeFixed32(block.data() + 12);
  h.chunk_len = DecodeFixed32(block.data() + 16);
  if (h.total == 0 || h.index >= h.total ||
      h.chunk_len + kBlockHeaderSize > block.size()) {
    return Status::Corruption("malformed intention block header");
  }
  return h;
}

std::vector<std::string> ChopIntoBlocks(uint64_t txn_id,
                                        std::string_view payload,
                                        size_t block_size) {
  const size_t capacity = block_size - kBlockHeaderSize;
  const uint32_t total = static_cast<uint32_t>(
      std::max<size_t>(1, (payload.size() + capacity - 1) / capacity));
  std::vector<std::string> blocks;
  blocks.reserve(total);
  for (uint32_t i = 0; i < total; ++i) {
    const std::string_view chunk = payload.substr(i * capacity, capacity);
    std::string block;
    block.reserve(kBlockHeaderSize + chunk.size());
    EncodeBlockHeader(
        BlockHeader{txn_id, i, total, static_cast<uint32_t>(chunk.size())},
        &block);
    block.append(chunk);
    blocks.push_back(std::move(block));
  }
  return blocks;
}

Result<std::vector<std::string>> SerializeIntention(
    IntentionBuilder& builder, uint64_t txn_id, size_t block_size) {
  if (block_size <= kBlockHeaderSize + 16) {
    return Status::InvalidArgument("block size too small");
  }
  HYDER_RETURN_IF_ERROR(builder.AnnotateDeferredReads());
  // Header + nodes into one contiguous payload, then chop into blocks.
  // Format prefix (magic + version), then the header fields.
  std::string payload;
  payload.reserve(kWireFlatPrefixBytes);
  payload.push_back(static_cast<char>(kWireFlatMagic0));
  payload.push_back(static_cast<char>(kWireFlatMagic1));
  payload.push_back(static_cast<char>(kWireFlatVersion));
  PutVarint64(&payload, builder.snapshot_seq());
  payload.push_back(static_cast<char>(builder.isolation()));
  PutVarint64(&payload, builder.tombstones().size());
  for (const Tombstone& t : builder.tombstones()) {
    PutVarint64(&payload, t.key);
    PutVarint64(&payload, t.base_cv.raw());
    PutVarint64(&payload, t.ssv.raw());
  }
  std::string nodes;
  std::vector<uint32_t> offsets;
  const Node* root = builder.root().node.get();
  if (root != nullptr && root->owner() == builder.workspace_tag()) {
    HYDER_RETURN_IF_ERROR(
        SerializeNodes(*root, builder.workspace_tag(), &nodes, &offsets)
            .status());
  }
  PutVarint64(&payload, offsets.size());
  // Node-region length plus the trailing fixed32 offset table: what lets
  // FlatIntentionView address record i without decoding records 0..i-1.
  PutVarint64(&payload, nodes.size());
  payload.append(nodes);
  for (uint32_t off : offsets) PutFixed32(&payload, off);

  return ChopIntoBlocks(txn_id, payload, block_size);
}

Result<IntentionPtr> DeserializeIntention(std::string_view payload,
                                          uint64_t seq, uint32_t block_count,
                                          uint64_t txn_id) {
  HYDER_ASSIGN_OR_RETURN(
      std::shared_ptr<FlatIntentionView> view,
      FlatIntentionView::Parse(std::string(payload), seq));
  auto intent = std::make_shared<Intention>();
  intent->seq = seq;
  intent->seq_first = seq;
  intent->txn_id = txn_id;
  intent->block_count = block_count;
  intent->inside = {seq};
  intent->members = {{seq, txn_id}};
  intent->snapshot_seq = view->snapshot_seq();
  intent->isolation = view->isolation();
  intent->tombstones = view->tombstones();
  intent->node_count = view->node_count();
  if (view->node_count() > 0) intent->root = Ref::To(view->Root());
  intent->flats.emplace_back(seq, std::move(view));
  return intent;
}

Result<IntentionAssembler::FeedOutcome> IntentionAssembler::AddBlock(
    uint64_t pos, std::string_view block) {
  HYDER_ASSIGN_OR_RETURN(BlockHeader h, DecodeBlockHeader(block));
  OriginRecord& origin = origins_[TxnOrigin(h.txn_id)];
  origin.floor = std::max(origin.floor, TxnLocalSeq(h.txn_id) + 1);
  FeedOutcome out;
  if (origin.last != 0 && h.txn_id == origin.last) {
    // A retried append landed a second copy of a block of the origin's
    // most recently completed intention; (server id, local seq) pairs are
    // never reused, so this cannot be a fresh intention.
    out.duplicate = true;
    return out;
  }
  Partial& part = partial_[h.txn_id];
  if (part.total == 0) {
    part.total = h.total;
    part.chunks.resize(h.total);
    part.positions.resize(h.total);
  } else if (part.total != h.total) {
    return Status::Corruption("inconsistent block_count within intention");
  }
  const std::string_view chunk = block.substr(kBlockHeaderSize, h.chunk_len);
  if (!part.chunks[h.index].empty()) {
    // Second copy of a block still being assembled. A true retry carries
    // identical bytes; anything else is corruption, not a duplicate.
    if (part.chunks[h.index] == chunk) {
      out.duplicate = true;
      return out;
    }
    return Status::Corruption(
        "conflicting duplicate intention block (same txn and index, "
        "different bytes)");
  }
  part.chunks[h.index].assign(chunk.data(), chunk.size());
  part.positions[h.index] = pos;
  part.received++;
  // An intention completes at the log position of its final missing block;
  // sequence numbers are assigned in that (deterministic) order.
  if (part.received != part.total) return out;
  Completed done;
  done.seq = next_seq_++;
  done.txn_id = h.txn_id;
  done.block_count = part.total;
  for (std::string& chunk_piece : part.chunks) {
    done.payload.append(chunk_piece);
  }
  done.positions = std::move(part.positions);
  partial_.erase(h.txn_id);
  origin.last = h.txn_id;
  out.completed = std::move(done);
  return out;
}

}  // namespace hyder
